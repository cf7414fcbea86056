//! The hierarchy driver — CleverLeaf's `LagrangianEulerianIntegrator` /
//! `LagrangianEulerianLevelIntegrator` pair (paper Figure 6).
//!
//! [`HydroSim`] owns the patch hierarchy and orchestrates one timestep
//! across all levels with synchronised timestepping: a single global dt
//! (the only global reduction, Section V-B), lockstep phase execution on
//! every level (each phase runs once over every level's patches; a fill
//! captures its coarse sources when it begins, so coarse-fine ghost
//! interpolation uses same-phase data), fine→coarse conservative
//! synchronisation after the step, and periodic regridding. One step
//! body serves every placement: the phases run through
//! [`crate::level_executor`] behind an executor
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
    balance, CoarsenSchedule, FillWindow, GridGeometry, HostDataFactory, PassTables, Patch,
    PatchHierarchy, RefineOperator, RefineSchedule, RegridOutcome, RegridParams, Regridder,
    ScheduleBuild, VariableId, VariableRegistry,
};
use rbamr_device::Device;
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_gpu_amr::{BatchPlanCache, DeviceDataFactory};
use rbamr_netsim::{CollectiveOp, CollectiveOutput, Comm, CommError, ReduceSpec};
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
/// * `Comm` — a transport fault. Retry after rollback.
/// * `Device` — a device allocation or transfer fault. Retrying may
///   help for a transient fault; a persistent one calls for degrading
///   the placement (device → copy-back → host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A communication-layer fault (message drop/corruption, collective
    /// fault) spoiled the step.
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

impl From<RestoreError> for SimError {
    fn from(e: RestoreError) -> Self {
        Self::Comm { detail: e.to_string() }
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
    /// Live fill windows, indexed by [`START`] … [`POST_SWEEP2`], each
    /// over one schedule per level, kept while current and rebuilt
    /// otherwise by each build pass.
    fills: Vec<Arc<FillWindow>>,
    sync_schedules: Vec<Arc<CoarsenSchedule>>,
    /// The hierarchy-wide launch descriptor plan, kept on the same rule
    /// as the schedules: a regrid that preserves every level's digest
    /// keeps the plan. Empty on the host placement.
    batch_plans: BatchPlanCache,
    /// The last build pass's descriptor tables, until the first fill
    /// after it uploads them.
    pending_tables: Option<PassTables>,
    /// Telemetry handle; disabled unless wired via
    /// [`HydroSim::set_recorder`].
    recorder: rbamr_telemetry::Recorder,
}

/// Fill A: state fields before the step.
const START: usize = 0;
/// Fill B: advanced velocities.
const POST_ACCEL: usize = 1;
/// Fill C, plus the sweep direction.
const POST_SWEEP1: usize = 2;
/// Fill D: state + velocities.
const MID_SWEEPS: usize = 4;
/// Fill E, plus the sweep direction.
const POST_SWEEP2: usize = 5;
/// Every fill window a step runs.
const ALL_FILLS: usize = POST_SWEEP2 + 2;

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
            fills: Vec::new(),
            sync_schedules: Vec::new(),
            batch_plans: BatchPlanCache::new(),
            pending_tables: None,
            recorder: rbamr_telemetry::Recorder::disabled(),
        };
        sim.rebuild_schedules(START + 1);
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
    /// [`RestoreError::Exchange`] when a fault interrupts the priming
    /// ghost fill. A fill fault is rank-local but runs through, so the
    /// communication pattern stays aligned and the caller's commit
    /// reduction can make it symmetric.
    pub(crate) fn reprime_after_restart(
        &mut self,
        comm: Option<&Comm>,
    ) -> Result<(), RestoreError> {
        self.rebuild_schedules(ALL_FILLS);
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

    /// Keep or build the schedules of the first `windows` fill windows
    /// (and the syncs with all seven) in one build pass, and refresh the
    /// batch plan. A pass plans what runs before the next: construction
    /// the start fill, all initialisation runs; a regrid what is held;
    /// the first step the rest. Its tables wait for the first fill after
    /// it, so rendering them costs the step, not the regrid.
    ///
    /// A schedule held from the last pass whose levels kept their
    /// digests is kept ([`RefineSchedule::is_current`]); a level that
    /// changed walks its overlap geometry once per centring for all six
    /// of its distinct fills — D fills B's variables, so its members are
    /// B's. What the pass replaces is freed when it returns.
    fn rebuild_schedules(&mut self, windows: usize) {
        let mut build = ScheduleBuild::indexed();
        let (h, reg, f) = (&self.hierarchy, &self.registry, &self.fields);
        let start_vars = [f.density0, f.energy0, f.xvel0, f.yvel0];
        // After the Lagrangian phase: the advected velocities AND the
        // PdV-updated density/energy, whose depth-2 ghosts feed the van
        // Leer limiter of the first advection sweep (CloverLeaf fills
        // the same set before advection). Fill D fills them again.
        let b_vars = [f.density1, f.energy1, f.xvel1, f.yvel1];
        let c_vars = |dir: usize| {
            [f.density1, f.energy1, if dir == 0 { f.mass_flux_x } else { f.mass_flux_y }]
        };
        let e_vars =
            |dir: usize| [f.density1, if dir == 0 { f.mass_flux_x } else { f.mass_flux_y }];
        let (c, e) = ([c_vars(0), c_vars(1)], [e_vars(0), e_vars(1)]);
        // In `START` … `POST_SWEEP2` order.
        let var_sets: [&[VariableId]; 7] = [&start_vars, &b_vars, &c[0], &c[1], &[], &e[0], &e[1]];
        let fills: Vec<_> = var_sets[..windows].iter().map(|vars| self.fill_specs(vars)).collect();
        let held = std::mem::take(&mut self.fills);
        let mut members = vec![Vec::new(); windows];
        for l in 0..h.num_levels() {
            for w in 0..windows {
                let sched = match held.get(w).and_then(|window| window.member(l)) {
                    _ if w == MID_SWEEPS => Arc::clone(&members[POST_ACCEL][l]),
                    Some(s) if s.is_current(h) => build.keep(h, s),
                    _ => build.refine(h, reg, l, &fills[w]),
                };
                members[w].push(sched);
            }
        }
        let mut held = held.into_iter();
        self.fills = members
            .into_iter()
            .map(|m| match held.next() {
                Some(window) if window.members_are(&m) => window,
                _ => Arc::new(FillWindow::new(m)),
            })
            .collect();

        let syncs = [
            CoarsenSpec {
                var: f.energy0,
                op: Arc::new(MassWeightedCoarsen),
                aux: vec![f.density0],
            },
            CoarsenSpec { var: f.density0, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] },
            CoarsenSpec { var: f.xvel0, op: Arc::new(NodeInjectionCoarsen), aux: vec![] },
            CoarsenSpec { var: f.yvel0, op: Arc::new(NodeInjectionCoarsen), aux: vec![] },
        ];
        let synced = if windows == ALL_FILLS { h.num_levels() } else { 1 };
        let held = std::mem::take(&mut self.sync_schedules);
        self.sync_schedules = (1..synced)
            .map(|l| match held.get(l - 1) {
                Some(s) if s.is_current(h) => build.keep(h, s),
                _ => build.coarsen(h, reg, l, &syncs),
            })
            .collect();
        let mut tables = build.into_tables();
        if self.recorder.is_enabled() {
            let held_bytes: usize = self.schedule_cache().iter().sum();
            self.recorder.gauge_max("schedule.held_bytes", held_bytes as u64);
        }
        // The batch plan — rebuilt only when some level changed — is one
        // more table of the pass; the host placement has none.
        if self.device.is_some() {
            tables.push(self.batch_plans.get_or_build(&self.hierarchy));
        }
        self.pending_tables = Some(tables);
    }

    /// Called by every fill: the first after a pass uploads its tables.
    fn upload_pending_tables(&mut self) {
        if let Some(tables) = self.pending_tables.take() {
            self.registry.factory().upload_tables(&tables);
        }
    }

    /// The host heap bytes of each distinct schedule held — every
    /// window's members but D's, which are B's, then the syncs — so
    /// `len()` counts them (diagnostics).
    pub fn schedule_cache(&self) -> Vec<usize> {
        let fills = self.fills.iter().enumerate().filter(|&(w, _)| w != MID_SWEEPS);
        let fills = fills.flat_map(|(_, window)| window.members().map(RefineSchedule::heap_bytes));
        fills.chain(self.sync_schedules.iter().map(|s| s.heap_bytes())).collect()
    }

    /// The hierarchy-wide launch plan holder (build diagnostics).
    /// Empty on the host placement.
    pub fn batch_plans(&self) -> &BatchPlanCache {
        &self.batch_plans
    }

    /// Run one fill window over the whole hierarchy: the halo fill
    /// `which` on every level, and the phase `compute` that consumes
    /// it, over every level's local patches at once.
    ///
    /// 1. `begin` the window — interior copies, message packing/sends
    ///    and local coarse-source capture of every level all read their
    ///    inputs *now*, so the exchanged bytes equal those of
    ///    fill-then-compute, and every send is posted before the first
    ///    receive.
    /// 2. Only on a device, and only when this rank receives a message
    ///    in the window: one interior batch (`Pass::Interior`) runs
    ///    while the messages are in flight, and its elapsed kernel time
    ///    is banked as comm overlap credit (the receives in step 3
    ///    charge only the exposed remainder).
    /// 3. `finish` consumes the window's messages.
    /// 4. One batch runs the rest of the phase. After an interior batch
    ///    it is the boundary batch (`Pass::Boundary`), which follows
    ///    the exchange in program order. Otherwise it is
    ///    the whole phase (`Pass::Full`): the CPU baseline models no
    ///    overlap, and a window with no message to wait for has nothing
    ///    to hide, so splitting it would only double its launches.
    ///
    /// Interior regions are margin-proven not to observe any cell the
    /// fill writes, so the overlapped window is bitwise-identical to
    /// fill-then-compute (see [`crate::level_executor`] for the margin
    /// calculus); no level reads another inside a phase, and a fill
    /// captures its coarse sources at `begin`.
    fn fill_window(
        &mut self,
        comm: Option<&Comm>,
        first: &mut Option<SimError>,
        which: usize,
        mut compute: impl FnMut(&mut [&mut Patch], &[(f64, f64)], Pass, Exec<'_>),
    ) {
        let window = Arc::clone(&self.fills[which]);
        let halo = self.clock.scope(Category::HaloExchange);
        self.upload_pending_tables();
        let pending = window.begin(&mut self.hierarchy, &self.registry, comm);
        drop(halo);
        let split = self.device.is_some() && window.receives_remotely();
        if split {
            let _hydro = self.clock.scope(Category::HydroKernel);
            let t0 = self.clock.total();
            self.run_phase(|p, dx, ex| compute(p, dx, Pass::Interior, ex));
            if let Some(comm) = comm {
                comm.bank_overlap_credit(self.clock.total() - t0);
            }
        }
        let (h, time) = (&mut self.hierarchy, self.time);
        let halo = self.clock.scope(Category::HaloExchange);
        if let Err(e) = pending.finish(h, &self.boundary, comm, time) {
            first.get_or_insert(e.into());
        }
        drop(halo);
        let pass = if split { Pass::Boundary } else { Pass::Full };
        let _hydro = self.clock.scope(Category::HydroKernel);
        self.run_phase(|p, dx, ex| compute(p, dx, pass, ex));
        if let Some(comm) = comm {
            comm.clear_overlap_credit();
        }
    }

    /// Run `phase` once over every level's local patches: on the
    /// device, if there is one; on the host, with its cost hook,
    /// otherwise. Outside a fill window no fill runs concurrently, so
    /// callers ask for [`Pass::Full`].
    fn run_phase<R>(
        &mut self,
        phase: impl FnOnce(&mut [&mut Patch], &[(f64, f64)], Exec<'_>) -> R,
    ) -> R {
        let copy_back = self.placement == Placement::DeviceCopyBack;
        let ex = match &self.device {
            Some(device) => Exec::Device { device, copy_back },
            None => Exec::Host(Some(&self.host_costs)),
        };
        let (mut patches, dx) = self.hierarchy.local_patches_mut();
        phase(&mut patches, &dx, ex)
    }

    /// Plan digests of every schedule in use: per level the fills held
    /// (all seven once a step has run) in the order `rebuild_schedules`
    /// looks them up, then the sync schedules. Used by tests to check that cached schedules
    /// are plan-identical to fresh builds (e.g. across a restart) and
    /// to freeze the plans themselves.
    pub fn plan_digests(&self) -> Vec<Vec<String>> {
        let levels = (0..self.hierarchy.num_levels()).flat_map(|l| {
            self.fills.iter().map(move |w| w.members().nth(l).expect("a member per level"))
        });
        let fills = levels.map(RefineSchedule::plan_digest);
        fills.chain(self.sync_schedules.iter().map(|s| s.plan_digest())).collect()
    }

    /// Order-independent digest over every local patch's packed field
    /// bytes (bound to level, patch index and variable), rank-local.
    /// Two runs whose digests agree on every rank hold bitwise
    /// identical resident state.
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
        let _scope = self.clock.scope(Category::Other);
        let rec = self.recorder.clone();
        let _span = rec.is_enabled().then(|| rec.open("initialize"));
        let mut first: Option<SimError> = None;
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

    /// Run the start fill over every level, run-through: a fault
    /// still leaves the whole window (and its sends to peers) executed,
    /// so the cross-rank communication pattern is identical whether or
    /// not a fault fired.
    fn try_fill_start(&mut self, comm: Option<&Comm>) -> Result<(), SimError> {
        let window = Arc::clone(&self.fills[START]);
        let _scope = self.clock.scope(Category::HaloExchange);
        self.upload_pending_tables();
        let rec = self.recorder.clone();
        let _span = rec.is_enabled().then(|| rec.open("refine-fill"));
        let pending = window.begin(&mut self.hierarchy, &self.registry, comm);
        Ok(pending.finish(&mut self.hierarchy, &self.boundary, comm, self.time)?)
    }

    fn eos_and_viscosity(&mut self) {
        let (f, gamma) = (self.fields, self.config.gamma);
        let _scope = self.clock.scope(Category::HydroKernel);
        self.run_phase(|p, dx, ex| exec::eos_viscosity(p, &f, ex, Pass::Full, gamma, dx));
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
        // The per-patch minima fold in level, then patch order. On a
        // device: one launch and one 8n-byte download per step.
        let dt_local = self.run_phase(|patches, dx, ex| {
            exec::calc_dt(patches, &f, ex, dx, cfl).into_iter().fold(f64::INFINITY, f64::min)
        });
        let mut dt = dt_local.min(self.config.dt_max).min(self.prev_dt * self.config.max_dt_growth);
        if let Some(comm) = comm {
            match comm.try_allreduce_min(dt) {
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
        let _step_span = rec.is_enabled().then(|| rec.span_arg("step", self.step as i64));
        let mut first: Option<SimError> = None;
        let f = self.fields;
        if self.fills.len() < ALL_FILLS {
            self.rebuild_schedules(ALL_FILLS);
        }

        // --- Timestep phase ------------------------------------------
        {
            let _p = self.clock.scope(Category::HaloExchange);
            let _s = rec.is_enabled().then(|| rec.open("fill-start"));
            self.fill_window(comm, &mut first, START, |patches, dx, pass, ex| {
                exec::eos_viscosity(patches, &f, ex, pass, gamma, dx)
            });
        }
        let mut dt = {
            let _p = self.clock.scope(Category::Timestep);
            let _s = rec.is_enabled().then(|| rec.open("dt-reduction"));
            self.try_compute_dt(comm, &mut first)
        };
        if let Some(cap) = dt_cap {
            assert!(cap > 0.0, "step_capped: non-positive dt cap");
            dt = dt.min(cap);
        }

        // --- Lagrangian phase ----------------------------------------
        {
            let _p = self.clock.scope(Category::HydroKernel);
            let _s = rec.is_enabled().then(|| rec.open("lagrangian"));
            self.run_phase(|patches, dx, ex| exec::lagrangian_pre(patches, &f, ex, gamma, dx, dt));
            self.fill_window(comm, &mut first, POST_ACCEL, |patches, dx, pass, ex| {
                exec::flux_calc(patches, &f, ex, pass, dx, dt)
            });
        }

        // --- Advection phase (alternating sweep order) ---------------
        {
            let _p = self.clock.scope(Category::HydroKernel);
            let _s = rec.is_enabled().then(|| rec.open("advection"));
            let dirs = if self.step.is_multiple_of(2) { [0usize, 1] } else { [1, 0] };
            // The y-momentum flux's staging, held across a window's
            // interior and boundary passes.
            let mut flux_y = Vec::new();
            self.run_phase(|patches, dx, ex| {
                exec::advec_cell(patches, &f, ex, Pass::Full, dx, dirs[0], 1);
            });
            self.fill_window(comm, &mut first, POST_SWEEP1 + dirs[0], |patches, _, pass, ex| {
                exec::advec_mom(patches, &f, ex, pass, dirs[0], &mut flux_y, false);
            });
            self.fill_window(comm, &mut first, MID_SWEEPS, |patches, dx, pass, ex| {
                exec::advec_cell(patches, &f, ex, pass, dx, dirs[1], 2);
            });
            // The second momentum sweep's last launch also resets the
            // step-start fields.
            self.fill_window(comm, &mut first, POST_SWEEP2 + dirs[1], |patches, _, pass, ex| {
                exec::advec_mom(patches, &f, ex, pass, dirs[1], &mut flux_y, true);
            });
        }

        // --- Synchronisation: project fine onto coarse ----------------
        {
            let _p = self.clock.scope(Category::Synchronize);
            let _s = rec.is_enabled().then(|| rec.open("synchronize"));
            for l in (1..self.hierarchy.num_levels()).rev() {
                let sync = &self.sync_schedules[l - 1];
                if let Err(e) = sync.try_run(&mut self.hierarchy, &self.registry, comm) {
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
            let _p = self.clock.scope(Category::Regrid);
            let _s = rec.is_enabled().then(|| rec.open("regrid-phase"));
            if let Err(e) = self.try_regrid(comm) {
                first.get_or_insert(e);
            }
        }

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

    /// The per-step commit collective: agree globally, in one
    /// rendezvous, on whether the pass ran clean and, if not, on the
    /// *worst* failure kind across ranks, so every rank returns the same [`SimError`] variant and a
    /// recovery driver makes identical rollback/degradation decisions
    /// everywhere. A fault in the commit collective itself is symmetric
    /// (the rendezvous carries the poison flag to every rank) and is
    /// reported as a `Comm` verdict.
    ///
    /// The commit is where device faults surface: it drains the
    /// device's sticky latch (the simulated analogue of polling a CUDA
    /// error once per step), and a latched fault makes this rank's
    /// local verdict `Device`, outranking a communication fault.
    pub(crate) fn commit(
        &self,
        comm: Option<&Comm>,
        mut first: Option<SimError>,
    ) -> Result<(), SimError> {
        if let Some(e) = self.device.as_ref().and_then(Device::take_injected_fault) {
            first = Some(SimError::Device { detail: e.to_string() });
        }
        let Some(comm) = comm else {
            return match first {
                Some(e) => Err(e),
                None => Ok(()),
            };
        };
        // One rendezvous: min of the ok flag, max of the failure kind.
        let (ok, reason) = match &first {
            None => (1, 0),
            Some(SimError::Comm { .. }) => (0, 1),
            Some(SimError::Device { .. }) => (0, 2),
        };
        let op = CollectiveOp::Reduce { spec: ReduceSpec::VERDICT, words: [ok, reason, 0] };
        let agreed = comm.try_collective(op).map(CollectiveOutput::reduced);
        // Reuse the local error's inner detail rather than re-rendering
        // the whole error, so repeated commits don't nest prefixes.
        let inner = |e: SimError| match e {
            SimError::Comm { detail } | SimError::Device { detail } => detail,
        };
        match agreed {
            Ok([1, ..]) => Ok(()),
            Ok([_, worst, _]) => {
                let detail =
                    first.map(inner).unwrap_or_else(|| "a peer rank reported a fault".into());
                Err(if worst >= 2 {
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

    /// Regrid the hierarchy and refresh the schedules held. Returns the
    /// per-level outcome; the schedules of the levels it left unchanged
    /// (and whose coarser level it left unchanged) are kept, not
    /// rebuilt.
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
    /// [`SimError`] when the regrid's transport or patch-data transfer
    /// faulted.
    pub fn try_regrid(&mut self, comm: Option<&Comm>) -> Result<RegridOutcome, SimError> {
        let regridder = Regridder::new(self.config.regrid.clone());
        let f = self.fields;
        let specs: Vec<TransferSpec> = [f.density0, f.energy0, f.xvel0, f.yvel0]
            .into_iter()
            .map(|var| TransferSpec { var, refine_op: self.refine_op_for(var) })
            .collect();
        let ex = match &self.device {
            Some(device) => Exec::Device { device, copy_back: false },
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
        self.rebuild_schedules(self.fills.len());
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
            let sum = |v| comm.allreduce(ReduceSpec::SUM_F64, v);
            total = Summary {
                volume: sum(total.volume),
                mass: sum(total.mass),
                internal_energy: sum(total.internal_energy),
                kinetic_energy: sum(total.kinetic_energy),
                pressure: sum(total.pressure),
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
                let all = d.download_all();
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
    /// patches on each level (the regime fused launching exists for:
    /// launches scale with neither levels nor patches).
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

    /// A regrid flags every tag level in one pass: on a three-level
    /// hierarchy whose two tag levels both hold tagged patches, the
    /// pass's bitmaps equal a pass per level on both placements, and on
    /// a device the pass is one `flag-cells`, one `any-tagged` and one
    /// `compress-tags` launch and two downloads for both levels.
    #[test]
    fn one_tagging_pass_equals_a_pass_per_level() {
        use rbamr_amr::regrid::CellTagger;
        for placement in [Placement::Host, Placement::Device] {
            let s = sim(placement, 32, 3);
            assert_eq!(s.hierarchy().num_levels(), 3);
            let ex = match &s.device {
                Some(device) => Exec::Device { device, copy_back: false },
                None => Exec::Host(None),
            };
            let tagger = HydroTagger { ex, fields: &s.fields, thresholds: s.config.thresholds };
            let rec = rbamr_telemetry::Recorder::new(0, Clock::new());
            if let Some(device) = &s.device {
                device.set_recorder(rec.clone());
                device.reset_transfer_stats();
            }
            let levels = tagger.tag_levels(&s.hierarchy, 2, 0.0);
            let launches: Vec<u64> = exec::TAG_KERNEL_NAMES
                .iter()
                .map(|name| rec.counter(&format!("device.kernel_launches.{name}")))
                .collect();
            if let Some(device) = &s.device {
                assert_eq!((launches, device.stats().d2h_transfers), (vec![1, 1, 1], 2));
            }
            let each: Vec<_> = (0..2).map(|l| tagger.tag_cells(&s.hierarchy, l, 0.0)).collect();
            assert!(levels == each, "{placement:?}: one pass differs from a pass per level");
            assert!(
                levels.iter().all(|l| l.iter().any(rbamr_amr::TagBitmap::any)),
                "{placement:?}"
            );
        }
    }

    /// The steady-state acceptance property: once the hierarchy has
    /// converged, a structure-preserving regrid performs zero schedule
    /// rebuilds — `schedule.builds` stays flat and every schedule held
    /// is kept.
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
        let kept = rec.counter("schedule.kept");
        let outcome = s.regrid(None);
        assert!(!outcome.any_changed(), "fixed state must be a structural fixed point");
        assert_eq!(rec.counter("schedule.builds"), builds, "steady regrid must not rebuild");
        let held = s.schedule_cache().len() as u64;
        assert!(held > 0);
        assert_eq!(rec.counter("schedule.kept"), kept + held, "every schedule held is kept");
        assert!(rec.counter("regrid.levels_unchanged") > 0);
    }

    /// Fill D fills B's variables, so its members are B's on every
    /// level: six distinct fills per level and one sync per fine level
    /// are held, once a step has planned them all, and after a regrid.
    #[test]
    fn mid_sweep_fills_are_the_post_accel_schedules() {
        let config = HydroConfig { regrid_interval: 0, ..HydroConfig::default() };
        let mut s = sim_with(Placement::Host, 32, 2, config);
        assert_eq!(s.fills.len(), START + 1, "initialisation plans the start fill alone");
        let shared = |s: &HydroSim| {
            let (b, d) = (&s.fills[POST_ACCEL], &s.fills[MID_SWEEPS]);
            let levels = s.hierarchy().num_levels();
            assert_eq!(s.schedule_cache().len(), 7 * levels - 1);
            (0..levels).all(|l| Arc::ptr_eq(b.member(l).unwrap(), d.member(l).unwrap()))
        };
        s.step(None);
        assert!(shared(&s), "after a step");
        while !s.regrid(None).any_changed() {
            assert!(s.steps_taken() < 40, "no regrid changed the mesh");
            s.step(None);
        }
        assert!(shared(&s), "after a regrid that changed the mesh");
    }

    /// What a build pass replaces dies when the pass returns: after a
    /// regrid that changes level 1, nothing holds its old fills or its
    /// sync any more, while level 0's fills are the same `Arc`s.
    #[test]
    fn a_regrid_frees_the_schedules_it_replaces() {
        let config = HydroConfig { regrid_interval: 0, ..HydroConfig::default() };
        let mut s = sim_with(Placement::Device, 32, 2, config);
        let members = |s: &HydroSim, l| -> Vec<_> {
            s.fills.iter().map(|w| Arc::clone(w.member(l).expect("a member per level"))).collect()
        };
        for _ in 0..40 {
            s.step(None);
            let coarse = members(&s, 0);
            let fine: Vec<_> = members(&s, 1).iter().map(Arc::downgrade).collect();
            let sync = Arc::downgrade(&s.sync_schedules[0]);
            if !s.regrid(None).levels_changed[1] {
                continue;
            }
            assert!(fine.iter().all(|w| w.upgrade().is_none()), "a replaced fill is still held");
            assert!(sync.upgrade().is_none(), "the replaced sync is still held");
            let kept = members(&s, 0);
            assert!(coarse.iter().zip(&kept).all(|(a, b)| Arc::ptr_eq(a, b)));
            return;
        }
        panic!("no regrid changed level 1");
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
    /// (hierarchy-wide launches, overlapped windows) is bitwise identical to
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
        // Regrids without stepping converge; the plan then survives.
        (0..4).take_while(|_| dev.regrid(None).any_changed()).for_each(drop);
        let builds = dev.batch_plans().builds();
        assert!(!dev.regrid(None).any_changed());
        assert_eq!(dev.batch_plans().builds(), builds, "a steady structure must keep the plan");
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
    fn device_build_is_resident() {
        let mut s = sim(Placement::Device, 16, 1);
        let device = s.device().unwrap().clone();
        // The first step plans the windows initialisation did not run,
        // and uploads the pass's descriptor tables.
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
