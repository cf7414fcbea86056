//! The hierarchy driver — CleverLeaf's `LagrangianEulerianIntegrator` /
//! `LagrangianEulerianLevelIntegrator` pair (paper Figure 6).
//!
//! [`HydroSim`] owns the patch hierarchy and orchestrates one timestep
//! across all levels with synchronised timestepping: a single global dt
//! (the only global reduction, Section V-B), lockstep phase execution on
//! every level (coarse to fine, so coarse-fine ghost interpolation uses
//! same-phase data), fine→coarse conservative synchronisation after the
//! step, and periodic regridding. One step body serves every placement:
//! the phases run through [`crate::level_executor`] behind an executor
//! handle that differs only in where the arrays live and what a kernel
//! charges, and [`PatchIntegrator`] supplies initialisation, flagging
//! and diagnostics — so the same driver runs the CPU baseline and the
//! GPU-resident build, the paper's central design point.

use crate::boundary::ReflectiveBoundary;
use crate::device_integrator::DevicePatchIntegrator;
use crate::host_integrator::HostPatchIntegrator;
use crate::level_executor::{self as exec, Exec, Pass};
use crate::state::{Fields, FlagThresholds, HydroTagger, PatchIntegrator, RegionInit, Summary};
use rbamr_amr::cluster::split_to_max;
use rbamr_amr::hostdata::HostCostHook;
use rbamr_amr::ops::{
    ConservativeCellRefine, LinearNodeRefine, LinearSideRefine, MassWeightedCoarsen,
    NodeInjectionCoarsen, VolumeWeightedCoarsen,
};
use rbamr_amr::patchdata::PatchData as _;
use rbamr_amr::regrid::TransferSpec;
use rbamr_amr::restart::RestoreError;
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    balance, try_partition_hierarchy_metadata, CoarsenOperator, CoarsenSchedule, GridGeometry,
    HostDataFactory, MetadataMode, Patch, PatchHierarchy, PendingFill, RefineOperator,
    RefineSchedule, RegridError, RegridOutcome, RegridParams, Regridder, ScheduleBuild,
    ScheduleCache, ScheduleError, VariableId, VariableRegistry,
};
use rbamr_device::{Device, Stream};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_gpu_amr::{BatchPlanCache, DeviceDataFactory};
use rbamr_netsim::{Comm, CommError};
use rbamr_perfmodel::{Category, Clock, CostModel, Machine};
use std::sync::Arc;

/// Where patch data lives — the paper's two builds of CleverLeaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Host memory, CPU kernels (the baseline).
    Host,
    /// Resident device memory, device kernels (the contribution).
    Device,
    /// Device kernels with per-phase full-array PCIe round trips — the
    /// non-resident Wang et al. baseline the paper's Related Work
    /// criticises. Identical physics to [`Placement::Device`]; only the
    /// transfer discipline differs.
    DeviceCopyBack,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct HydroConfig {
    /// Ideal-gas ratio of specific heats.
    pub gamma: f64,
    /// CFL safety factor.
    pub cfl: f64,
    /// Hard upper bound on dt.
    pub dt_max: f64,
    /// Maximum dt growth per step.
    pub max_dt_growth: f64,
    /// Steps between regrids.
    pub regrid_interval: usize,
    /// Flagging thresholds.
    pub thresholds: FlagThresholds,
    /// Regridding parameters.
    pub regrid: RegridParams,
    /// Maximum patch extent on level 0, in cells.
    pub max_patch_size: i64,
}

impl Default for HydroConfig {
    fn default() -> Self {
        Self {
            gamma: 1.4,
            cfl: 0.5,
            dt_max: 0.1,
            max_dt_growth: 1.5,
            regrid_interval: 10,
            thresholds: FlagThresholds::default(),
            regrid: RegridParams::default(),
            max_patch_size: 1 << 30,
        }
    }
}

/// Per-step results.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Step number just completed (0-based).
    pub step: usize,
    /// The dt taken.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Levels in the hierarchy.
    pub levels: usize,
    /// Total cells over all levels (global).
    pub total_cells: i64,
}

/// Why a step (or initialisation) could not be committed. The variant
/// is the *global* verdict: [`HydroSim::try_step_capped`] ends in a
/// commit collective that agrees on success and, on failure, on the
/// worst failure kind across ranks — so every rank returns the same
/// variant and a recovery driver makes identical decisions everywhere.
///
/// * `Comm` — a transport or metadata fault. Retry after rollback.
/// * `Device` — a device allocation or transfer fault. Retrying may
///   help for a transient fault; a persistent one calls for degrading
///   the placement (device → copy-back → host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A communication-layer fault (message drop/corruption, collective
    /// fault, metadata divergence) spoiled the step.
    Comm {
        /// The first locally observed fault, or a note that the fault
        /// was reported by a peer rank.
        detail: String,
    },
    /// A device fault (injected OOM or transfer failure) spoiled the
    /// step.
    Device {
        /// The first locally observed fault, or a note that the fault
        /// was reported by a peer rank.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Comm { detail } => write!(f, "step aborted by a communication fault: {detail}"),
            Self::Device { detail } => write!(f, "step aborted by a device fault: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CommError> for SimError {
    fn from(e: CommError) -> Self {
        Self::Comm { detail: e.to_string() }
    }
}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::Comm(c) => Self::Comm { detail: c.to_string() },
            ScheduleError::Data(d) => Self::Device { detail: d.to_string() },
        }
    }
}

impl From<RegridError> for SimError {
    fn from(e: RegridError) -> Self {
        match e {
            RegridError::Comm(c) => Self::Comm { detail: c.to_string() },
            RegridError::Divergence(d) => Self::Comm { detail: d.to_string() },
            RegridError::Data(d) => Self::Device { detail: d.to_string() },
        }
    }
}

impl From<rbamr_device::DeviceError> for SimError {
    fn from(e: rbamr_device::DeviceError) -> Self {
        Self::Device { detail: e.to_string() }
    }
}

impl From<RestoreError> for SimError {
    fn from(e: RestoreError) -> Self {
        match &e {
            // Restore tags device-side upload faults so the recovery
            // driver's degradation policy sees them as device failures.
            RestoreError::Exchange { detail } if detail.starts_with("device fault") => {
                Self::Device { detail: detail.clone() }
            }
            _ => Self::Comm { detail: e.to_string() },
        }
    }
}

/// The CleverLeaf simulation object.
pub struct HydroSim {
    hierarchy: PatchHierarchy,
    registry: VariableRegistry,
    fields: Fields,
    integrator: Box<dyn PatchIntegrator>,
    boundary: ReflectiveBoundary,
    config: HydroConfig,
    placement: Placement,
    regions: Vec<RegionInit>,
    clock: Clock,
    device: Option<Device>,
    /// What the host placement's phases charge (unused on a device,
    /// whose launches charge the device's own clock).
    host_costs: HostCostHook,
    time: f64,
    step: usize,
    prev_dt: f64,
    /// Live fill schedules, one set per level; refreshed after regrids
    /// through the schedule cache.
    fill_schedules: Vec<LevelSchedules>,
    sync_schedules: Vec<Arc<CoarsenSchedule>>,
    /// Structure-keyed schedule cache: a regrid that reproduces a
    /// level's structure resolves its schedules as `Arc` clones instead
    /// of rebuilding the plans.
    schedule_cache: ScheduleCache,
    /// Per-level launch descriptor plans, keyed by the same structure
    /// digest discipline as the schedule cache: a regrid that preserves
    /// a level's boxes reuses the plan (and its one-time device
    /// descriptor upload). Empty on the host placement.
    batch_plans: BatchPlanCache,
    /// Telemetry handle; disabled unless wired via
    /// [`HydroSim::set_recorder`].
    recorder: rbamr_telemetry::Recorder,
}

struct LevelSchedules {
    start: Arc<RefineSchedule>,      // fill A: state fields before the step
    post_accel: Arc<RefineSchedule>, // fill B: advanced velocities
    post_sweep1: [Arc<RefineSchedule>; 2], // fill C per sweep direction
    mid_sweeps: Arc<RefineSchedule>, // fill D: state + velocities
    post_sweep2: [Arc<RefineSchedule>; 2], // fill E per sweep direction
}

impl HydroSim {
    /// Build a simulation.
    ///
    /// * `machine` — the modelled platform (must carry an accelerator
    ///   when `placement` is [`Placement::Device`]).
    /// * `clock` — the rank's virtual clock (share the `Comm`'s clock in
    ///   distributed runs).
    /// * `coarse_cells` — level-0 resolution `(nx, ny)` over the unit
    ///   physical extent given by `extent`.
    /// * `max_levels`, `ratio` — hierarchy shape (the paper: 3 levels,
    ///   ratio 2).
    /// * `regions` — initial state; `rank`/`nranks` — the job layout.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: Machine,
        placement: Placement,
        clock: Clock,
        extent: (f64, f64),
        coarse_cells: (i64, i64),
        max_levels: usize,
        ratio: i64,
        config: HydroConfig,
        regions: Vec<RegionInit>,
        rank: usize,
        nranks: usize,
    ) -> Self {
        assert!(coarse_cells.0 > 0 && coarse_cells.1 > 0, "empty base grid");
        let cost = Arc::new(CostModel::new(machine.clone()));
        let (device, factory): (Option<Device>, Arc<dyn rbamr_amr::DataFactory>) = match placement {
            Placement::Host => {
                (None, Arc::new(HostDataFactory::with_costs(clock.clone(), Arc::clone(&cost))))
            }
            Placement::Device | Placement::DeviceCopyBack => {
                let dev = Device::new(machine.clone(), clock.clone());
                (Some(dev.clone()), Arc::new(DeviceDataFactory::new(dev)))
            }
        };
        let mut registry = VariableRegistry::new(factory);
        let fields = Fields::register(&mut registry);
        let boundary = ReflectiveBoundary::for_fields(&fields, registry.len());
        let host_costs = HostCostHook { clock: clock.clone(), cost: Arc::clone(&cost) };
        let integrator: Box<dyn PatchIntegrator> = match placement {
            Placement::Host => Box::new(HostPatchIntegrator::with_costs(host_costs.clone())),
            Placement::Device => Box::new(DevicePatchIntegrator::new()),
            Placement::DeviceCopyBack => Box::new(DevicePatchIntegrator::copy_back()),
        };

        let geometry = GridGeometry {
            origin: (0.0, 0.0),
            dx0: (extent.0 / coarse_cells.0 as f64, extent.1 / coarse_cells.1 as f64),
        };
        let domain = GBox::from_coords(0, 0, coarse_cells.0, coarse_cells.1);
        let mut hierarchy = PatchHierarchy::new(
            geometry,
            BoxList::from_box(domain),
            IntVector::uniform(ratio),
            max_levels,
            rank,
            nranks,
        );
        // Level 0: split the domain into patches and distribute.
        let mut boxes = Vec::new();
        split_to_max(domain, config.max_patch_size, &mut boxes);
        let owners = balance::partition_sfc(&boxes, nranks);
        hierarchy.set_level(0, boxes, owners, &registry);

        let mut sim = Self {
            hierarchy,
            registry,
            fields,
            integrator,
            boundary,
            config,
            placement,
            regions,
            clock,
            device,
            host_costs,
            time: 0.0,
            step: 0,
            prev_dt: f64::INFINITY,
            fill_schedules: Vec::new(),
            sync_schedules: Vec::new(),
            schedule_cache: ScheduleCache::new(),
            batch_plans: BatchPlanCache::new(),
            recorder: rbamr_telemetry::Recorder::disabled(),
        };
        sim.rebuild_schedules();
        sim
    }

    /// The hierarchy (inspection).
    pub fn hierarchy(&self) -> &PatchHierarchy {
        &self.hierarchy
    }

    /// The field registry.
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The device, when running the resident build.
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// Attach a telemetry recorder: the integrator, its hierarchy and
    /// its device (when present) all record spans and counters through
    /// it. The `Comm` used in distributed runs is wired separately via
    /// [`Comm::set_recorder`](rbamr_netsim::Comm::set_recorder).
    pub fn set_recorder(&mut self, recorder: rbamr_telemetry::Recorder) {
        if let Some(device) = &self.device {
            device.set_recorder(recorder.clone());
        }
        self.hierarchy.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The attached recorder (disabled if never set).
    pub fn recorder(&self) -> &rbamr_telemetry::Recorder {
        &self.recorder
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed steps.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// The data placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The previous step's dt (growth limiting / restart).
    pub fn prev_dt(&self) -> f64 {
        self.prev_dt
    }

    /// Mutable hierarchy access for the checkpoint/restore machinery.
    pub(crate) fn hierarchy_mut(&mut self) -> &mut PatchHierarchy {
        &mut self.hierarchy
    }

    /// Rebuild one level from checkpointed structure.
    pub(crate) fn set_level_for_restart(&mut self, l: usize, boxes: Vec<GBox>, owners: Vec<usize>) {
        self.hierarchy.set_level(l, boxes, owners, &self.registry);
    }

    /// Drop levels beyond the checkpointed count.
    pub(crate) fn truncate_levels_for_restart(&mut self, num: usize) {
        self.hierarchy.truncate_levels(num);
    }

    /// Restore time/step/dt bookkeeping.
    pub(crate) fn set_progress_for_restart(&mut self, time: f64, step: usize, prev_dt: f64) {
        self.time = time;
        self.step = step;
        self.prev_dt = prev_dt;
    }

    /// Rebuild schedules and re-prime derived fields after a restore.
    ///
    /// # Errors
    /// [`RestoreError::Exchange`] when a fault interrupts the metadata
    /// conversion or the priming ghost fill. The metadata verdict is
    /// collective (every rank aborts together); a fill fault is
    /// rank-local but runs through, so the communication pattern stays
    /// aligned and the caller's commit reduction can make it symmetric.
    pub(crate) fn reprime_after_restart(
        &mut self,
        comm: Option<&Comm>,
    ) -> Result<(), RestoreError> {
        if self.config.regrid.metadata_mode == MetadataMode::Partitioned {
            // Restore rebuilds levels replicated; convert back before
            // schedules are rebuilt.
            try_partition_hierarchy_metadata(&mut self.hierarchy, self.config.regrid.margins, comm)
                .map_err(|e| RestoreError::Exchange { detail: e.to_string() })?;
        }
        self.rebuild_schedules();
        let refill = self.try_fill_start(comm);
        self.eos_and_viscosity();
        refill.map_err(|e| RestoreError::Exchange { detail: e.to_string() })
    }

    /// The interpolation of `var`, by centring: one operator set serves
    /// every placement (the data runs it).
    fn refine_op_for(&self, var: VariableId) -> Arc<dyn RefineOperator> {
        match self.registry.get(var).centring {
            Centring::Cell => Arc::new(ConservativeCellRefine),
            Centring::Node => Arc::new(LinearNodeRefine),
            Centring::Side(axis) => Arc::new(LinearSideRefine { axis }),
        }
    }

    fn fill_specs(&self, vars: &[VariableId]) -> Vec<FillSpec> {
        vars.iter().map(|&var| FillSpec { var, refine_op: Some(self.refine_op_for(var)) }).collect()
    }

    /// (Re)build the per-level fill and sync schedules, in one build
    /// pass.
    ///
    /// The old schedules are still held here while the pass runs, so a
    /// level whose structure survived the last regrid resolves to `Arc`
    /// clones of them in O(1) through the [`ScheduleCache`]; a level
    /// that changed walks its overlap geometry once per centring for
    /// all six of its fills. What this pass replaces leaves the cache
    /// when the next one opens.
    fn rebuild_schedules(&mut self) {
        let mut cache = std::mem::take(&mut self.schedule_cache);
        // Over partitioned metadata the build plans owner-computes from
        // the held records; plans (and so cache keys) are
        // digest-identical to the replicated build.
        let mut build = ScheduleBuild::with_cache(&mut cache);
        let f = &self.fields;
        let start_vars = [f.density0, f.energy0, f.xvel0, f.yvel0];
        // After the Lagrangian phase: the advected velocities AND the
        // PdV-updated density/energy, whose depth-2 ghosts feed the van
        // Leer limiter of the first advection sweep (CloverLeaf fills
        // the same set before advection).
        let b_vars = [f.density1, f.energy1, f.xvel1, f.yvel1];
        let c_vars = |dir: usize| {
            [f.density1, f.energy1, if dir == 0 { f.mass_flux_x } else { f.mass_flux_y }]
        };
        let d_vars = [f.density1, f.energy1, f.xvel1, f.yvel1];
        let e_vars =
            |dir: usize| [f.density1, if dir == 0 { f.mass_flux_x } else { f.mass_flux_y }];
        self.fill_schedules = (0..self.hierarchy.num_levels())
            .map(|l| LevelSchedules {
                start: build.refine(
                    &self.hierarchy,
                    &self.registry,
                    l,
                    &self.fill_specs(&start_vars),
                ),
                post_accel: build.refine(
                    &self.hierarchy,
                    &self.registry,
                    l,
                    &self.fill_specs(&b_vars),
                ),
                post_sweep1: [0, 1].map(|d| {
                    build.refine(&self.hierarchy, &self.registry, l, &self.fill_specs(&c_vars(d)))
                }),
                mid_sweeps: build.refine(
                    &self.hierarchy,
                    &self.registry,
                    l,
                    &self.fill_specs(&d_vars),
                ),
                post_sweep2: [0, 1].map(|d| {
                    build.refine(&self.hierarchy, &self.registry, l, &self.fill_specs(&e_vars(d)))
                }),
            })
            .collect();

        let vol_op: Arc<dyn CoarsenOperator> = Arc::new(VolumeWeightedCoarsen);
        let mass_op: Arc<dyn CoarsenOperator> = Arc::new(MassWeightedCoarsen);
        let inj_op: Arc<dyn CoarsenOperator> = Arc::new(NodeInjectionCoarsen);
        self.sync_schedules = (1..self.hierarchy.num_levels())
            .map(|l| {
                build.coarsen(
                    &self.hierarchy,
                    &self.registry,
                    l,
                    &[
                        CoarsenSpec {
                            var: f.energy0,
                            op: Arc::clone(&mass_op),
                            aux: vec![f.density0],
                        },
                        CoarsenSpec { var: f.density0, op: Arc::clone(&vol_op), aux: vec![] },
                        CoarsenSpec { var: f.xvel0, op: Arc::clone(&inj_op), aux: vec![] },
                        CoarsenSpec { var: f.yvel0, op: Arc::clone(&inj_op), aux: vec![] },
                    ],
                )
            })
            .collect();
        if self.recorder.is_enabled() {
            self.recorder.gauge_max("schedule.cache_entries", cache.len() as u64);
            self.recorder.gauge_max("schedule.cache_bytes", cache.heap_bytes() as u64);
        }
        self.schedule_cache = cache;
    }

    /// The structure-keyed schedule cache (hit/miss diagnostics).
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.schedule_cache
    }

    /// The per-level launch plan cache (hit/build diagnostics). Empty
    /// on the host placement.
    pub fn batch_plans(&self) -> &BatchPlanCache {
        &self.batch_plans
    }

    /// Refresh every level's [`rbamr_gpu_amr::BatchPlan`]: a cache hit
    /// is a structure-key comparison; a miss rebuilds the descriptor
    /// table and uploads it to the device (the only PCIe traffic
    /// per-level launching adds to the resident step). Nothing to do on
    /// the host placement, which launches nothing.
    fn refresh_batch_plans(&mut self) {
        let Some(device) = &self.device else { return };
        for l in 0..self.hierarchy.num_levels() {
            let boxes: Vec<GBox> =
                self.hierarchy.level(l).local().iter().map(|p| p.cell_box()).collect();
            let plan = self.batch_plans.get_or_build(device, l, &boxes);
            debug_assert_eq!(plan.slots().len(), boxes.len());
        }
    }

    /// Run one fill window over every level: the halo fill selected by
    /// `which`, and the phase `compute` that consumes it.
    ///
    /// 1. `begin_fill` on every level — interior copies, message
    ///    packing/sends and local coarse-source capture all read their
    ///    inputs *now*, so the exchanged bytes equal those of
    ///    fill-then-compute, and every send is posted before the first
    ///    receive.
    /// 2. Device placements only: the interior batches
    ///    (`Pass::Interior`) run on per-level streams while the messages
    ///    are in flight; each stream records an event at the end of its
    ///    batch, and the elapsed kernel time is banked as comm overlap
    ///    credit (the receives in step 3 charge only the exposed
    ///    remainder).
    /// 3. Per level, in order: `finish` consumes the level's messages,
    ///    then the rest of the phase runs. On the host that is the whole
    ///    phase (`Pass::Full`): the CPU baseline models no overlap. On
    ///    a device it is the boundary batch (`Pass::Boundary`), gated
    ///    behind two explicit ordering edges — the exchange completion
    ///    and the level's own interior batch — surfaced as `stream-wait`
    ///    telemetry (`halo-exchange` / `interior-batch`).
    ///
    /// Interior regions are margin-proven not to observe any cell the
    /// fill writes, so the overlapped window is bitwise-identical to
    /// fill-then-compute (see [`crate::level_executor`] for the margin
    /// calculus).
    fn fill_window(
        &mut self,
        comm: Option<&Comm>,
        first: &mut Option<SimError>,
        which: impl Fn(&LevelSchedules) -> &Arc<RefineSchedule>,
        mut compute: impl FnMut(&mut [Patch], (f64, f64), usize, Pass, Exec<'_>),
    ) {
        let nlevels = self.hierarchy.num_levels();
        let scheds: Vec<Arc<RefineSchedule>> =
            self.fill_schedules.iter().map(|s| Arc::clone(which(s))).collect();
        let mut pendings = Vec::with_capacity(nlevels);
        for sched in &scheds {
            pendings.push(sched.begin_fill(
                &mut self.hierarchy,
                &self.registry,
                comm,
                Category::HaloExchange,
            ));
        }
        let (boundary, time) = (&self.boundary, self.time);
        let mut finish = |hierarchy: &mut PatchHierarchy, pending: PendingFill<'_>| {
            if let Err(e) = pending.finish(hierarchy, boundary, comm, time, Category::HaloExchange)
            {
                first.get_or_insert(e.into());
            }
        };
        let Some(device) = &self.device else {
            // A host window has no interior pass: per level, finish
            // the fill, then run the whole phase.
            let ex = Exec::Host(Some(&self.host_costs));
            for (l, pending) in pendings.into_iter().enumerate() {
                finish(&mut self.hierarchy, pending);
                let dx = self.hierarchy.dx(l);
                compute(self.hierarchy.level_mut(l).local_mut(), dx, l, Pass::Full, ex);
            }
            return;
        };
        let copy_back = self.placement == Placement::DeviceCopyBack;
        let t0 = self.clock.total();
        let streams: Vec<Stream> = (0..nlevels).map(|_| Stream::new(device)).collect();
        let mut interior_done = Vec::with_capacity(nlevels);
        for (l, stream) in streams.iter().enumerate() {
            let (ex, dx) = (Exec::Device { device, stream, copy_back }, self.hierarchy.dx(l));
            compute(self.hierarchy.level_mut(l).local_mut(), dx, l, Pass::Interior, ex);
            interior_done.push(device.record_event(stream));
        }
        if let Some(comm) = comm {
            comm.bank_overlap_credit(self.clock.total() - t0);
        }
        let exchange_stream = Stream::new(device);
        for (l, pending) in pendings.into_iter().enumerate() {
            finish(&mut self.hierarchy, pending);
            exchange_stream.submit();
            let exchanged = device.record_event(&exchange_stream);
            device.stream_wait(&streams[l], &exchanged, "halo-exchange", Category::HaloExchange);
            device.stream_wait(
                &streams[l],
                &interior_done[l],
                "interior-batch",
                Category::HydroKernel,
            );
            let boundary_start = self.clock.total();
            let ex = Exec::Device { device, stream: &streams[l], copy_back };
            let dx = self.hierarchy.dx(l);
            compute(self.hierarchy.level_mut(l).local_mut(), dx, l, Pass::Boundary, ex);
            // Level l's boundary compute runs while the exchanges of
            // levels > l are still in flight: bank it as overlap
            // credit for their receives.
            if let Some(comm) = comm {
                if l + 1 < nlevels {
                    comm.bank_overlap_credit(self.clock.total() - boundary_start);
                }
            }
        }
        if let Some(comm) = comm {
            comm.clear_overlap_credit();
        }
    }

    /// Run `phase` on every level, coarse to fine, outside a fill
    /// window: no fill runs concurrently, so callers ask for
    /// [`Pass::Full`].
    fn each_level(&mut self, mut phase: impl FnMut(&mut [Patch], (f64, f64), Exec<'_>)) {
        let copy_back = self.placement == Placement::DeviceCopyBack;
        let on_device = self.device.as_ref().map(|device| (device, Stream::new(device)));
        let ex = match &on_device {
            Some((device, stream)) => Exec::Device { device, stream, copy_back },
            None => Exec::Host(Some(&self.host_costs)),
        };
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.hierarchy.dx(l);
            phase(self.hierarchy.level_mut(l).local_mut(), dx, ex);
        }
    }

    /// Plan digests of every schedule in use: per level the seven fills
    /// in the order `rebuild_schedules` looks them up, then
    /// the sync schedules. Used by tests to check that cached schedules
    /// are plan-identical to fresh builds (e.g. across a restart) and
    /// to freeze the plans themselves.
    pub fn plan_digests(&self) -> Vec<Vec<String>> {
        let fills = self.fill_schedules.iter().flat_map(|s| {
            let [c0, c1] = &s.post_sweep1;
            let [e0, e1] = &s.post_sweep2;
            [&s.start, &s.post_accel, c0, c1, &s.mid_sweeps, e0, e1].map(|f| f.plan_digest())
        });
        fills.chain(self.sync_schedules.iter().map(|s| s.plan_digest())).collect()
    }

    /// Switch how level metadata is held: sets
    /// [`RegridParams::metadata_mode`]. Must be called before
    /// [`HydroSim::initialize`]: initialisation performs the replicated
    /// → partitioned conversion exchange of level 0.
    pub fn set_metadata_mode(&mut self, mode: MetadataMode) {
        self.config.regrid.metadata_mode = mode;
    }

    /// Order-independent digest over every local patch's packed field
    /// bytes (bound to level, patch index and variable), rank-local.
    /// Two runs whose digests agree on every rank hold bitwise
    /// identical resident state — the cross-crate tests use this to
    /// show `metadata_mode` does not perturb the solution.
    pub fn local_state_digest(&self) -> u64 {
        let vars: Vec<VariableId> = (0..self.registry.len()).map(VariableId).collect();
        self.digest_of_vars(&vars)
    }

    /// As [`HydroSim::local_state_digest`], restricted to the four
    /// persisted state fields (density, energy, velocities). Recovery
    /// gates compare this one: a rollback restores the persisted state
    /// and *recomputes* derived and work arrays, so only the persisted
    /// fields are meaningful to compare bitwise against a fault-free
    /// run.
    pub fn state_field_digest(&self) -> u64 {
        let f = self.fields;
        self.digest_of_vars(&[f.density0, f.energy0, f.xvel0, f.yvel0])
    }

    fn digest_of_vars(&self, vars: &[VariableId]) -> u64 {
        use rbamr_geometry::{BoxOverlap, Fnv64, UnorderedDigest};
        let mut set = UnorderedDigest::new();
        for l in 0..self.hierarchy.num_levels() {
            for patch in self.hierarchy.level(l).local() {
                for &var in vars {
                    let v = var.0;
                    let data = patch.data(var);
                    let ov = BoxOverlap {
                        dst_boxes: BoxList::from_box(data.data_box()),
                        shift: IntVector::ZERO,
                        centring: data.centring(),
                    };
                    let bytes = data.pack(&ov);
                    let mut f = Fnv64::new();
                    f.write_usize(l);
                    f.write_usize(patch.id().index);
                    f.write_usize(v);
                    for chunk in bytes.chunks(8) {
                        let mut w = [0u8; 8];
                        w[..chunk.len()].copy_from_slice(chunk);
                        f.write_u64(u64::from_le_bytes(w));
                    }
                    set.add(f.finish());
                }
            }
        }
        set.finish()
    }

    /// Initialise the hierarchy: set the initial state on level 0, then
    /// repeatedly flag/cluster/rebuild until all levels exist (the
    /// paper: "when the simulation is initialised, the error estimation
    /// and hierarchy generation procedure must be used to generate the
    /// hierarchy"), re-imposing the analytic initial condition on every
    /// new level.
    pub fn initialize(&mut self, comm: Option<&Comm>) {
        self.try_initialize(comm)
            .unwrap_or_else(|e| panic!("initialize: unhandled injected fault: {e}"));
    }

    /// Fault-aware [`HydroSim::initialize`]: injected faults surface as
    /// a typed [`SimError`] instead of a panic. Like
    /// [`HydroSim::try_step_capped`], the pass runs through — a fault
    /// never removes communication, so ranks stay lock-step — and ends
    /// in a commit collective, so every rank returns the same verdict.
    ///
    /// # Errors
    /// The globally agreed [`SimError`] when any rank observed a fault.
    pub fn try_initialize(&mut self, comm: Option<&Comm>) -> Result<(), SimError> {
        let rec = self.recorder.clone();
        let _span = rec.is_enabled().then(|| rec.span("initialize", Category::Other));
        let mut first: Option<SimError> = None;
        if self.config.regrid.metadata_mode == MetadataMode::Partitioned {
            // Convert the level-0 metadata to partitioned views before
            // the first regrid; the regrids below keep every level
            // partitioned from then on. The exchange verdict is
            // collective, so this early return is symmetric.
            try_partition_hierarchy_metadata(&mut self.hierarchy, self.config.regrid.margins, comm)
                .map_err(|e| SimError::Comm { detail: e.to_string() })?;
        }
        self.apply_initial_state();
        for _ in 0..self.hierarchy.max_levels() - 1 {
            let before = self.hierarchy.num_levels();
            // Ghost values must be valid before flagging: gradients at
            // patch borders would otherwise see uninitialised zeros.
            if let Err(e) = self.try_fill_start(comm) {
                first.get_or_insert(e);
            }
            if let Err(e) = self.try_regrid(comm) {
                first.get_or_insert(e);
            }
            self.apply_initial_state();
            if self.hierarchy.num_levels() == before {
                break;
            }
        }
        // Prime the EOS fields so diagnostics and the first dt are valid.
        if let Err(e) = self.try_fill_start(comm) {
            first.get_or_insert(e);
        }
        self.eos_and_viscosity();
        self.poll_device(&mut first);
        self.commit(comm, first)
    }

    fn apply_initial_state(&mut self) {
        let geometry = self.hierarchy.geometry();
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.hierarchy.dx(l);
            let level = self.hierarchy.level_mut(l);
            for patch in level.local_mut() {
                self.integrator.init_regions(
                    patch,
                    &self.fields,
                    geometry.origin,
                    dx,
                    &self.regions,
                    self.config.gamma,
                );
            }
        }
    }

    /// Run one ghost-fill pass over every level, run-through: a level
    /// whose schedule faults still leaves the remaining levels' fills
    /// (and their sends to peers) executed, so the cross-rank
    /// communication pattern is identical whether or not a fault fired.
    fn try_fill(
        &mut self,
        which: impl Fn(&LevelSchedules) -> &RefineSchedule,
        comm: Option<&Comm>,
    ) -> Result<(), SimError> {
        let mut first: Option<SimError> = None;
        for l in 0..self.hierarchy.num_levels() {
            let sched = which(&self.fill_schedules[l]);
            if let Err(e) = sched.try_fill(
                &mut self.hierarchy,
                &self.registry,
                &self.boundary,
                comm,
                self.time,
                Category::HaloExchange,
            ) {
                first.get_or_insert(e.into());
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn try_fill_start(&mut self, comm: Option<&Comm>) -> Result<(), SimError> {
        self.try_fill(|s| &s.start, comm)
    }

    fn each_patch(
        &mut self,
        mut op: impl FnMut(&dyn PatchIntegrator, &mut rbamr_amr::Patch, &Fields, (f64, f64)),
    ) {
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.hierarchy.dx(l);
            let level = self.hierarchy.level_mut(l);
            for patch in level.local_mut() {
                op(self.integrator.as_ref(), patch, &self.fields, dx);
            }
        }
    }

    fn eos_and_viscosity(&mut self) {
        let gamma = self.config.gamma;
        self.each_patch(|ig, p, f, dx| {
            ig.ideal_gas(p, f, gamma, false);
            ig.viscosity(p, f, dx);
        });
    }

    /// Compute the global dt: local CFL minimum, growth-limited, then
    /// the MPI allreduce (the application's only global reduction).
    ///
    /// Run-through: a faulted reduction records the error and falls
    /// back to the local value — the step continues (and is later
    /// rejected by the commit collective) rather than aborting
    /// mid-pattern. A non-finite dt without a recorded fault is still a
    /// hard bug and panics.
    fn try_compute_dt(&mut self, comm: Option<&Comm>, first: &mut Option<SimError>) -> f64 {
        let (f, cfl) = (self.fields, self.config.cfl);
        let mut dt_local = f64::INFINITY;
        // The per-patch minima fold in level, then patch order. On a
        // device: one launch and one 8n-byte download per level.
        self.each_level(|patches, dx, ex| {
            for dt in exec::calc_dt(patches, &f, ex, dx, cfl) {
                dt_local = dt_local.min(dt);
            }
        });
        let mut dt = dt_local.min(self.config.dt_max).min(self.prev_dt * self.config.max_dt_growth);
        if let Some(comm) = comm {
            match comm.try_allreduce_min(dt, Category::Timestep) {
                Ok(v) => dt = v,
                Err(e) => {
                    first.get_or_insert(e.into());
                }
            }
        }
        if !(dt.is_finite() && dt > 0.0) {
            assert!(first.is_some(), "non-finite dt {dt} without an injected fault");
            // Keep the doomed step numerically alive; the commit
            // collective will reject it and the driver rolls back.
            dt = self.config.dt_max;
        }
        dt
    }

    /// Advance the whole hierarchy by one synchronised timestep.
    pub fn step(&mut self, comm: Option<&Comm>) -> StepStats {
        self.step_capped(comm, None)
    }

    /// As [`HydroSim::step`], with an optional upper bound on dt (used
    /// by [`HydroSim::run_to_time`] to land exactly on the end time,
    /// as the paper's experiments "always run to the same physical end
    /// time").
    ///
    /// # Panics
    /// Panics on an injected fault; fault-tolerant callers use
    /// [`HydroSim::try_step_capped`] instead.
    pub fn step_capped(&mut self, comm: Option<&Comm>, dt_cap: Option<f64>) -> StepStats {
        self.try_step_capped(comm, dt_cap)
            .unwrap_or_else(|e| panic!("step: unhandled injected fault: {e}"))
    }

    /// Fault-aware [`HydroSim::step_capped`] — the tentpole of the
    /// recovery design. The step *runs through*: a fault never removes
    /// communication (dropped/corrupt frames are consumed, faulted
    /// collectives complete their rendezvous), so every rank executes
    /// the step's full communication pattern in lock-step whether or
    /// not it observed a fault. The first local error is recorded and
    /// carried to the end, where a commit collective (an all-reduce of
    /// the ok flag plus the worst failure kind) turns rank-local
    /// observations into one global verdict: `Ok` on every rank, or the
    /// same [`SimError`] variant on every rank. On `Err` the
    /// simulation state is *spoiled* — the caller must roll back to a
    /// checkpoint (see `resilience`).
    ///
    /// # Errors
    /// The globally agreed [`SimError`] when any rank observed a fault.
    pub fn try_step_capped(
        &mut self,
        comm: Option<&Comm>,
        dt_cap: Option<f64>,
    ) -> Result<StepStats, SimError> {
        let gamma = self.config.gamma;
        let rec = self.recorder.clone();
        let _step_span =
            rec.is_enabled().then(|| rec.span_arg("step", Category::Other, self.step as i64));
        let mut first: Option<SimError> = None;
        let f = self.fields;

        // --- Timestep phase ------------------------------------------
        {
            let _s = rec.is_enabled().then(|| rec.span("fill-start", Category::HaloExchange));
            self.refresh_batch_plans();
            self.fill_window(
                comm,
                &mut first,
                |s| &s.start,
                |patches, dx, _l, pass, ex| exec::eos_viscosity(patches, &f, ex, pass, gamma, dx),
            );
        }
        let mut dt = {
            let _s = rec.is_enabled().then(|| rec.span("dt-reduction", Category::Timestep));
            self.try_compute_dt(comm, &mut first)
        };
        if let Some(cap) = dt_cap {
            assert!(cap > 0.0, "step_capped: non-positive dt cap");
            dt = dt.min(cap);
        }

        // --- Lagrangian phase ----------------------------------------
        {
            let _s = rec.is_enabled().then(|| rec.span("lagrangian", Category::HydroKernel));
            self.each_level(|patches, dx, ex| {
                exec::lagrangian_pre(patches, &f, ex, gamma, dx, dt);
            });
            self.fill_window(
                comm,
                &mut first,
                |s| &s.post_accel,
                |patches, dx, _l, pass, ex| exec::flux_calc(patches, &f, ex, pass, dx, dt),
            );
        }
        self.poll_device(&mut first);

        // --- Advection phase (alternating sweep order) ---------------
        {
            let _s = rec.is_enabled().then(|| rec.span("advection", Category::HydroKernel));
            let dirs = if self.step.is_multiple_of(2) { [0usize, 1] } else { [1, 0] };
            let nlevels = self.hierarchy.num_levels();
            let mut cell_stash = Vec::new();
            self.each_level(|patches, dx, ex| {
                exec::advec_cell(patches, &f, ex, Pass::Full, dx, dirs[0], 1, &mut cell_stash);
            });
            let mut mom_stashes: Vec<Vec<exec::MomStash>> =
                (0..nlevels).map(|_| Vec::new()).collect();
            self.fill_window(
                comm,
                &mut first,
                |s| &s.post_sweep1[dirs[0]],
                |patches, _dx, l, pass, ex| {
                    exec::advec_mom(patches, &f, ex, pass, dirs[0], &mut mom_stashes[l]);
                },
            );
            let mut cell_stashes: Vec<Vec<exec::CellStash>> =
                (0..nlevels).map(|_| Vec::new()).collect();
            self.fill_window(
                comm,
                &mut first,
                |s| &s.mid_sweeps,
                |patches, dx, l, pass, ex| {
                    exec::advec_cell(patches, &f, ex, pass, dx, dirs[1], 2, &mut cell_stashes[l]);
                },
            );
            let mut mom_stashes: Vec<Vec<exec::MomStash>> =
                (0..nlevels).map(|_| Vec::new()).collect();
            self.fill_window(
                comm,
                &mut first,
                |s| &s.post_sweep2[dirs[1]],
                |patches, _dx, l, pass, ex| {
                    exec::advec_mom(patches, &f, ex, pass, dirs[1], &mut mom_stashes[l]);
                },
            );
            self.each_level(|patches, _dx, ex| exec::reset(patches, &f, ex));
        }
        self.poll_device(&mut first);

        // --- Synchronisation: project fine onto coarse ----------------
        {
            let _s = rec.is_enabled().then(|| rec.span("synchronize", Category::Synchronize));
            for l in (1..self.hierarchy.num_levels()).rev() {
                if let Err(e) = self.sync_schedules[l - 1].try_run(
                    &mut self.hierarchy,
                    &self.registry,
                    comm,
                    Category::Synchronize,
                ) {
                    first.get_or_insert(e.into());
                }
            }
        }

        self.time += dt;
        self.step += 1;
        self.prev_dt = dt;

        // --- Regrid --------------------------------------------------
        if self.config.regrid_interval > 0 && self.step.is_multiple_of(self.config.regrid_interval)
        {
            let _s = rec.is_enabled().then(|| rec.span("regrid-phase", Category::Regrid));
            if let Err(e) = self.try_regrid(comm) {
                first.get_or_insert(e);
            }
        }
        self.poll_device(&mut first);

        // --- Commit: one global verdict per step ---------------------
        self.commit(comm, first)?;

        if rec.is_enabled() {
            rec.count("hydro.steps", 1);
            let local_cells: i64 = (0..self.hierarchy.num_levels())
                .map(|l| {
                    self.hierarchy
                        .level(l)
                        .local()
                        .iter()
                        .map(|p| p.cell_box().num_cells())
                        .sum::<i64>()
                })
                .sum();
            rec.count("hydro.cells_advanced", local_cells as u64);
        }

        Ok(StepStats {
            step: self.step - 1,
            dt,
            time: self.time,
            levels: self.hierarchy.num_levels(),
            total_cells: self.hierarchy.total_cells(),
        })
    }

    /// Drain the device's sticky fault latch (the simulated analogue of
    /// polling a CUDA error at a phase boundary) into the step's first
    /// recorded error.
    fn poll_device(&self, first: &mut Option<SimError>) {
        if let Some(device) = &self.device {
            if let Some(e) = device.take_injected_fault() {
                first.get_or_insert(e.into());
            }
        }
    }

    /// The per-step commit collective: agree globally on whether the
    /// pass ran clean and, if not, on the *worst* failure kind across
    /// ranks, so every rank returns the same [`SimError`] variant and a
    /// recovery driver makes identical rollback/degradation decisions
    /// everywhere. A fault in the commit collective itself is symmetric
    /// (the rendezvous carries the poison flag to every rank) and is
    /// reported as a `Comm` verdict.
    pub(crate) fn commit(
        &self,
        comm: Option<&Comm>,
        first: Option<SimError>,
    ) -> Result<(), SimError> {
        let Some(comm) = comm else {
            return match first {
                Some(e) => Err(e),
                None => Ok(()),
            };
        };
        let ok = if first.is_none() { 1.0 } else { 0.0 };
        let reason = match &first {
            None => 0.0,
            Some(SimError::Comm { .. }) => 1.0,
            Some(SimError::Device { .. }) => 2.0,
        };
        let agreed = comm.try_allreduce_min(ok, Category::Other).and_then(|all_ok| {
            comm.try_allreduce_max(reason, Category::Other).map(|worst| (all_ok, worst))
        });
        // Reuse the local error's inner detail rather than re-rendering
        // the whole error, so repeated commits don't nest prefixes.
        let inner = |e: SimError| match e {
            SimError::Comm { detail } | SimError::Device { detail } => detail,
        };
        match agreed {
            Ok((all_ok, _)) if all_ok >= 1.0 => Ok(()),
            Ok((_, worst)) => {
                let detail =
                    first.map(inner).unwrap_or_else(|| "a peer rank reported a fault".into());
                Err(if worst >= 2.0 {
                    SimError::Device { detail }
                } else {
                    SimError::Comm { detail }
                })
            }
            Err(e) => Err(SimError::Comm { detail: first.map_or_else(|| e.to_string(), inner) }),
        }
    }

    /// Run `n` steps; returns the last step's stats.
    pub fn run_steps(&mut self, n: usize, comm: Option<&Comm>) -> StepStats {
        assert!(n > 0, "run_steps: need at least one step");
        let mut last = self.step(comm);
        for _ in 1..n {
            last = self.step(comm);
        }
        last
    }

    /// Run until exactly `t_end`: the final step's dt is clipped so the
    /// simulation lands on the end time (the paper's protocol: "always
    /// run to the same physical end time regardless of the number of
    /// timesteps required").
    pub fn run_to_time(&mut self, t_end: f64, comm: Option<&Comm>) -> usize {
        let mut steps = 0;
        while self.time < t_end - 1e-14 {
            self.step_capped(comm, Some(t_end - self.time));
            steps += 1;
            assert!(steps < 1_000_000, "run_to_time: runaway step count");
        }
        steps
    }

    /// Spill every field of every local patch on `level` to host
    /// memory, releasing device allocations — the paper's Section VI
    /// future-work mechanism, usable between steps to run problems
    /// larger than device memory. No-op on the host placement.
    pub fn spill_level(&mut self, level: usize) {
        self.set_level_spilled(level, true);
    }

    /// Bring a spilled level back into device memory.
    pub fn unspill_level(&mut self, level: usize) {
        self.set_level_spilled(level, false);
    }

    fn set_level_spilled(&mut self, level: usize, spill: bool) {
        if self.placement == Placement::Host {
            return;
        }
        let nvars = self.registry.len();
        let lvl = self.hierarchy.level_mut(level);
        for patch in lvl.local_mut() {
            for v in 0..nvars {
                let data = patch
                    .data_mut(VariableId(v))
                    .as_any_mut()
                    .downcast_mut::<rbamr_gpu_amr::DeviceData<f64>>()
                    .expect("device placement holds DeviceData");
                if spill {
                    data.spill(Category::Other);
                } else {
                    data.unspill(Category::Other);
                }
            }
        }
    }

    /// Regrid the hierarchy and refresh all schedules. Returns the
    /// per-level outcome; with schedule caching on (the default),
    /// unchanged levels' schedules resolve as cache hits rather than
    /// being rebuilt.
    pub fn regrid(&mut self, comm: Option<&Comm>) -> RegridOutcome {
        self.try_regrid(comm).unwrap_or_else(|e| panic!("regrid: unhandled injected fault: {e}"))
    }

    /// Fault-aware [`HydroSim::regrid`]: injected faults surface as a
    /// typed [`SimError`]. Schedules are rebuilt from whatever
    /// structure the regrid left — structure decisions are
    /// rank-invariant even under data-plane faults, and collective
    /// verdicts abort every rank at the same point, so the rebuilt
    /// schedules stay consistent across ranks either way.
    ///
    /// # Errors
    /// [`SimError`] when the regrid's transport, metadata verification
    /// or patch-data transfer faulted.
    pub fn try_regrid(&mut self, comm: Option<&Comm>) -> Result<RegridOutcome, SimError> {
        let regridder = Regridder::new(self.config.regrid.clone());
        let f = self.fields;
        let specs: Vec<TransferSpec> = [f.density0, f.energy0, f.xvel0, f.yvel0]
            .into_iter()
            .map(|var| TransferSpec { var, refine_op: self.refine_op_for(var) })
            .collect();
        let on_device = self.device.as_ref().map(|device| (device, Stream::new(device)));
        let ex = match &on_device {
            Some((device, stream)) => Exec::Device { device, stream, copy_back: false },
            None => Exec::Host(Some(&self.host_costs)),
        };
        let tagger = HydroTagger { ex, fields: &self.fields, thresholds: self.config.thresholds };
        let outcome = regridder.try_regrid(
            &mut self.hierarchy,
            &self.registry,
            &tagger,
            &specs,
            comm,
            self.time,
        );
        self.rebuild_schedules();
        outcome.map_err(SimError::from)
    }

    /// Conservation diagnostics over the whole hierarchy, excluding
    /// coarse cells covered by a finer level (so each physical region
    /// is counted exactly once). In distributed runs the caller reduces
    /// the per-field sums across ranks.
    pub fn summary(&self, comm: Option<&Comm>) -> Summary {
        let mut total = Summary::default();
        for l in 0..self.hierarchy.num_levels() {
            let dx = self.hierarchy.dx(l);
            // Region covered by the next finer level, in this level's
            // index space.
            let shadow: BoxList = if l + 1 < self.hierarchy.num_levels() {
                self.hierarchy
                    .level(l + 1)
                    .covered()
                    .coarsen(self.hierarchy.ratio_to_coarser(l + 1))
            } else {
                BoxList::new()
            };
            let level = self.hierarchy.level(l);
            for patch in level.local() {
                let mut visible = BoxList::from_box(patch.cell_box());
                visible.subtract(&shadow);
                for region in visible.boxes() {
                    total = total.merged(&self.integrator.field_summary(
                        patch,
                        &self.fields,
                        dx,
                        *region,
                    ));
                }
            }
        }
        if let Some(comm) = comm {
            total = Summary {
                volume: comm.allreduce_sum(total.volume, Category::Other),
                mass: comm.allreduce_sum(total.mass, Category::Other),
                internal_energy: comm.allreduce_sum(total.internal_energy, Category::Other),
                kinetic_energy: comm.allreduce_sum(total.kinetic_energy, Category::Other),
                pressure: comm.allreduce_sum(total.pressure, Category::Other),
            };
        }
        total
    }

    /// Sample the density field along the horizontal midline of the
    /// domain at the finest available resolution (validation against
    /// analytic solutions). Returns `(x, density)` pairs, sorted by x.
    /// Single-rank only.
    pub fn density_profile(&self) -> Vec<(f64, f64)> {
        assert_eq!(self.hierarchy.nranks(), 1, "density_profile: single-rank diagnostic");
        let geometry = self.hierarchy.geometry();
        let mut out: Vec<(f64, f64)> = Vec::new();
        // Finest-level-first sampling with coarse fill-in.
        let mut covered: Vec<(f64, f64)> = Vec::new();
        for l in (0..self.hierarchy.num_levels()).rev() {
            let dx = self.hierarchy.dx(l);
            let domain = self.hierarchy.level_domain(l).bounding();
            let mid_y = (domain.lo.y + domain.hi.y) / 2;
            let level = self.hierarchy.level(l);
            for patch in level.local() {
                let cb = patch.cell_box();
                if mid_y < cb.lo.y || mid_y >= cb.hi.y {
                    continue;
                }
                let data = self.read_cell_row(patch, self.fields.density0, mid_y);
                for (i, v) in data {
                    let x = geometry.origin.0 + (i as f64 + 0.5) * dx.0;
                    if covered.iter().any(|&(a, b)| x >= a && x < b) {
                        continue;
                    }
                    out.push((x, v));
                }
                covered.push((
                    geometry.origin.0 + cb.lo.x as f64 * dx.0,
                    geometry.origin.0 + cb.hi.x as f64 * dx.0,
                ));
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Read one interior row of a cell field (x index, value) — a
    /// diagnostic full-row transfer on the device path.
    fn read_cell_row(&self, patch: &rbamr_amr::Patch, var: VariableId, y: i64) -> Vec<(i64, f64)> {
        let cb = patch.cell_box();
        match self.placement {
            Placement::Host => {
                let d = patch.host::<f64>(var);
                (cb.lo.x..cb.hi.x).map(|x| (x, d.at(IntVector::new(x, y)))).collect()
            }
            Placement::Device | Placement::DeviceCopyBack => {
                let d = patch
                    .data(var)
                    .as_any()
                    .downcast_ref::<rbamr_gpu_amr::DeviceData<f64>>()
                    .expect("device data");
                let all = d.download_all(Category::Other);
                let dbox = d.data_box();
                (cb.lo.x..cb.hi.x).map(|x| (x, all[dbox.offset_of(IntVector::new(x, y))])).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sod_regions() -> Vec<RegionInit> {
        vec![
            RegionInit {
                rect: (0.0, 0.0, 0.5, 1.0),
                density: 1.0,
                energy: 2.5,
                xvel: 0.0,
                yvel: 0.0,
            },
            RegionInit {
                rect: (0.5, 0.0, 1.0, 1.0),
                density: 0.125,
                energy: 2.0,
                xvel: 0.0,
                yvel: 0.0,
            },
        ]
    }

    fn sim(placement: Placement, cells: i64, levels: usize) -> HydroSim {
        sim_capped(placement, cells, levels, 1 << 30)
    }

    /// As [`sim`], with the patch size capped. 8-cell patches put many
    /// patches on each level (the regime per-level launching exists
    /// for: launches scale with levels, not patches).
    fn sim_capped(placement: Placement, cells: i64, levels: usize, max_patch: i64) -> HydroSim {
        let mut config =
            HydroConfig { regrid_interval: 5, max_patch_size: max_patch, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = max_patch;
        sim_with(placement, cells, levels, config)
    }

    /// An initialised Sod simulation of `cells`² coarse cells.
    fn sim_with(placement: Placement, cells: i64, levels: usize, config: HydroConfig) -> HydroSim {
        let machine = match placement {
            Placement::Host => Machine::ipa_cpu_node(),
            _ => Machine::ipa_gpu(),
        };
        let mut s = HydroSim::new(
            machine,
            placement,
            Clock::new(),
            (1.0, 1.0),
            (cells, cells),
            levels,
            2,
            config,
            sod_regions(),
            0,
            1,
        );
        s.initialize(None);
        s
    }

    #[test]
    fn initialization_builds_refined_levels_over_the_interface() {
        let s = sim(Placement::Host, 32, 2);
        assert_eq!(s.hierarchy().num_levels(), 2);
        // The fine level covers the density interface at x = 0.5
        // (level-1 index 32 of 64).
        let covered = s.hierarchy().level(1).covered();
        assert!(covered.contains(IntVector::new(32, 32)), "interface not refined: {covered:?}");
    }

    /// The steady-state acceptance property: once the hierarchy has
    /// converged, a structure-preserving regrid performs zero schedule
    /// rebuilds — `schedule.builds` stays flat and every lookup is a
    /// cache hit.
    #[test]
    fn steady_regrid_rebuilds_no_schedules() {
        let mut s = sim(Placement::Host, 32, 2);
        let rec = rbamr_telemetry::Recorder::new(0, Clock::new());
        s.set_recorder(rec.clone());
        // Converge the structure (the state is not advanced, so the
        // tagger flags the same cells every pass).
        for _ in 0..4 {
            if !s.regrid(None).any_changed() {
                break;
            }
        }
        let builds = rec.counter("schedule.builds");
        let misses = rec.counter("schedule.cache_misses");
        let hits = rec.counter("schedule.cache_hits");
        let outcome = s.regrid(None);
        assert!(!outcome.any_changed(), "fixed state must be a structural fixed point");
        assert_eq!(rec.counter("schedule.builds"), builds, "steady regrid must not rebuild");
        assert_eq!(rec.counter("schedule.cache_misses"), misses);
        assert!(rec.counter("schedule.cache_hits") > hits, "every lookup must hit the cache");
        assert!(rec.counter("regrid.levels_unchanged") > 0);
    }

    /// `config.regrid.metadata_mode` is the one metadata-mode setting:
    /// set alone, it partitions level 0 at initialisation and every
    /// level the regrids create.
    #[test]
    fn regrid_metadata_mode_partitions_every_level() {
        let mut config = HydroConfig::default();
        config.regrid.cluster.min_size = 4;
        config.regrid.metadata_mode = MetadataMode::Partitioned;
        let s = sim_with(Placement::Host, 32, 2, config);
        let h = s.hierarchy();
        assert_eq!(h.num_levels(), 2);
        for l in 0..h.num_levels() {
            assert!(h.level(l).is_partitioned(), "level {l} kept replicated metadata");
        }
    }

    #[test]
    fn single_step_advances_time_and_conserves_mass() {
        let mut s = sim(Placement::Host, 32, 1);
        let before = s.summary(None);
        let stats = s.step(None);
        assert!(stats.dt > 0.0 && stats.time > 0.0);
        let after = s.summary(None);
        assert!(
            ((after.mass - before.mass) / before.mass).abs() < 1e-12,
            "mass drift: {} -> {}",
            before.mass,
            after.mass
        );
        // Total energy is conserved to discretisation accuracy (the
        // scheme exchanges internal <-> kinetic through PdV work).
        assert!(
            ((after.total_energy() - before.total_energy()) / before.total_energy()).abs() < 1e-2,
            "energy drift: {} -> {}",
            before.total_energy(),
            after.total_energy()
        );
    }

    #[test]
    fn shock_waves_move_and_refinement_follows() {
        let mut s = sim(Placement::Host, 32, 2);
        for _ in 0..20 {
            s.step(None);
        }
        assert!(s.time() > 0.0);
        // The fine level still exists and tracks features.
        assert_eq!(s.hierarchy().num_levels(), 2);
        // Density midline profile is monotone-ish from left state to
        // right state (no NaN garbage).
        let profile = s.density_profile();
        assert!(!profile.is_empty());
        for (_, d) in &profile {
            assert!(d.is_finite() && *d > 0.0 && *d < 2.0, "unphysical density {d}");
        }
    }

    /// The equivalence property, single-rank edition: the device arm
    /// (per-level launches, overlapped windows) is bitwise identical to
    /// the host arm (plain calls, fill-then-compute) — all fields,
    /// every step, through regrids — and its launch plans survive
    /// structure-preserving regrids.
    #[test]
    fn device_build_is_bitwise_identical_to_host_with_many_patches() {
        let mut host = sim_capped(Placement::Host, 32, 2, 8);
        let mut dev = sim_capped(Placement::Device, 32, 2, 8);
        assert_eq!(host.local_state_digest(), dev.local_state_digest(), "after init");
        for step in 0..8 {
            let sh = host.step(None);
            let sd = dev.step(None);
            assert_eq!(sh.dt.to_bits(), sd.dt.to_bits(), "dt diverged at step {step}");
            assert_eq!(
                host.local_state_digest(),
                dev.local_state_digest(),
                "state diverged at step {step}"
            );
        }
        assert!(dev.batch_plans().builds() > 0);
        assert!(dev.batch_plans().hits() > 0, "steady structure must hit the plan cache");
        assert_eq!(host.batch_plans().builds(), 0, "the host placement launches nothing");
    }

    #[test]
    fn device_and_host_builds_agree() {
        let mut host = sim(Placement::Host, 16, 1);
        let mut dev = sim(Placement::Device, 16, 1);
        for _ in 0..5 {
            host.step(None);
            dev.step(None);
        }
        let hp = host.density_profile();
        let dp = dev.density_profile();
        assert_eq!(hp.len(), dp.len());
        for ((hx, hd), (dx_, dd)) in hp.iter().zip(&dp) {
            assert_eq!(hx, dx_);
            assert!((hd - dd).abs() < 1e-12, "host/device divergence at x={hx}: {hd} vs {dd}");
        }
    }

    #[test]
    fn run_to_time_lands_exactly_on_the_end_time() {
        let mut s = sim(Placement::Host, 16, 1);
        let t_end = 0.05;
        let steps = s.run_to_time(t_end, None);
        assert!(steps > 1);
        assert!((s.time() - t_end).abs() < 1e-12, "overshot: {} vs {t_end}", s.time());
    }

    #[test]
    fn copy_back_baseline_matches_resident_physics_with_huge_traffic() {
        let mut resident = sim(Placement::Device, 16, 1);
        let mut copyback = sim(Placement::DeviceCopyBack, 16, 1);
        let dev_r = resident.device().unwrap().clone();
        let dev_c = copyback.device().unwrap().clone();
        dev_r.reset_transfer_stats();
        dev_c.reset_transfer_stats();
        for _ in 0..3 {
            resident.step(None);
            copyback.step(None);
        }
        // Identical physics.
        let a = resident.density_profile();
        let b = copyback.density_profile();
        for ((xa, da), (xb, db)) in a.iter().zip(&b) {
            assert_eq!(xa, xb);
            assert_eq!(da, db, "copy-back changed the physics at x={xa}");
        }
        // Orders of magnitude more PCIe traffic (the Wang et al. tax).
        let r = dev_r.stats();
        let c = dev_c.stats();
        assert!(
            c.d2h_bytes > 100 * r.d2h_bytes.max(1),
            "copy-back D2H {} not >> resident {}",
            c.d2h_bytes,
            r.d2h_bytes
        );
        // And more modelled time.
        assert!(copyback.clock().total() > 2.0 * resident.clock().total());
    }

    #[test]
    fn level_spilling_frees_device_memory_and_preserves_physics() {
        let mut s = sim(Placement::Device, 16, 1);
        let device = s.device().unwrap().clone();
        s.step(None);
        let before_bytes = device.stats().allocated_bytes;
        let reference_profile = {
            let mut twin = sim(Placement::Device, 16, 1);
            twin.step(None);
            twin.step(None);
            twin.density_profile()
        };
        s.spill_level(0);
        assert!(device.stats().allocated_bytes < before_bytes / 2, "spill freed nothing");
        s.unspill_level(0);
        assert_eq!(device.stats().allocated_bytes, before_bytes);
        s.step(None);
        let profile = s.density_profile();
        for ((xa, da), (xb, db)) in profile.iter().zip(&reference_profile) {
            assert_eq!(xa, xb);
            assert_eq!(da, db, "spill cycle changed the solution at x={xa}");
        }
    }

    #[test]
    fn device_build_is_resident() {
        let mut s = sim(Placement::Device, 16, 1);
        let device = s.device().unwrap().clone();
        // The first step uploads the level's launch descriptor table;
        // the residency invariant is about every step after it.
        s.step(None);
        device.reset_transfer_stats();
        for _ in 0..3 {
            s.step(None);
        }
        let stats = device.stats();
        // Per-step D2H: the dt scalar only (single rank, one patch, no
        // halos to pack, no regrid on these steps).
        assert_eq!(stats.d2h_bytes, 3 * 8, "non-resident D2H traffic: {stats:?}");
        assert_eq!(stats.h2d_bytes, 0, "non-resident H2D traffic: {stats:?}");
        assert!(stats.kernel_launches > 3 * 20, "suspiciously few launches");
    }
}
