//! (P) per-layer metrics: calibrated wall probes around direct calls
//! into each layer's public functions, on inputs taken from the traced
//! run's final hierarchy. Every probe is a span in the benchmark's own
//! span log; nothing here touches the simulator's internals.
//!
//! A probe runs its call `reps` times in [`BATCHES`] batches, each
//! preceded by one `CAL` run, and reports `Σ work / Σ CAL × nominal`
//! per call — the same estimator the end-to-end metrics use.

use crate::calib::{ratio_of_sums, Cal, NOMINAL_CAL_MS};
use crate::decks::Workload;
use crate::spans::SpanLog;
use rbamr_amr::balance::partition_sfc;
use rbamr_amr::ops::{ConservativeCellRefine, VolumeWeightedCoarsen};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    cluster_tags, ClusterParams, CoarsenOperator, DataFactory, GridGeometry, HostDataFactory,
    Patch, PatchData, PatchHierarchy, PhysicalBoundary, RefineOperator, ScheduleBuild, VariableId,
    VariableRegistry,
};
use rbamr_device::{Device, Stream};
use rbamr_fault::{FaultInjector, FaultKind};
use rbamr_geometry::{ghost_overlaps, BoxIndex, BoxList, Centring, GBox, IntVector};
use rbamr_gpu_amr::ops::{DeviceConservativeCellRefine, DeviceVolumeWeightedCoarsen};
use rbamr_gpu_amr::{compress_tags, DeviceData, DeviceDataFactory};
use rbamr_hydro::{
    DevicePatchIntegrator, Fields, FlagThresholds, HostPatchIntegrator, PatchIntegrator, Placement,
};
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::{Category, Clock, KernelShape};
use rbamr_problems::{parse_deck, sod_regions};
use rbamr_telemetry::Recorder;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 3;
const NOMINAL_CAL_NS: f64 = NOMINAL_CAL_MS * 1e6;
const GHOSTS: IntVector = IntVector::uniform(2);
const RATIO: IntVector = IntVector::uniform(2);

/// Calibrated nanoseconds per call of `f`.
fn probe_ns(cal: &mut Cal, reps: usize, mut f: impl FnMut()) -> f64 {
    let (mut work, mut cals) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        cals.push(cal.run_ns());
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        work.push(t.elapsed().as_nanos() as f64);
    }
    ratio_of_sums(&work, &cals).unwrap_or(0.0) * NOMINAL_CAL_NS / reps as f64
}

/// Probe state shared by every layer's section.
struct Probes<'a> {
    log: &'a mut SpanLog,
    cal: Cal,
    out: &'a mut BTreeMap<&'static str, f64>,
}

impl Probes<'_> {
    /// Run a probe inside a span named after its metric and store
    /// `ns per call × scale`.
    fn probe(&mut self, metric: &'static str, reps: usize, scale: f64, f: impl FnMut()) {
        let cal = &mut self.cal;
        let ns = self.log.scope(metric, |_| probe_ns(cal, reps, f));
        self.out.insert(metric, ns * scale);
    }
}

/// A physical boundary that fills nothing: boundary conditions belong
/// to the application, and the amr probes time the framework alone.
struct NoBoundary;

impl PhysicalBoundary for NoBoundary {
    fn fill(&self, _: &mut Patch, _: VariableId, _: &BoxList, _: GBox, _: f64) {}
}

/// The data factory and inter-level operators of a placement.
fn placement_parts(
    placement: Placement,
    device: &Device,
) -> (Arc<dyn DataFactory>, Arc<dyn RefineOperator>, Arc<dyn CoarsenOperator>) {
    match placement {
        Placement::Host => (
            Arc::new(HostDataFactory::new()),
            Arc::new(ConservativeCellRefine),
            Arc::new(VolumeWeightedCoarsen),
        ),
        Placement::Device | Placement::DeviceCopyBack => (
            Arc::new(DeviceDataFactory::new(device.clone())),
            Arc::new(DeviceConservativeCellRefine),
            Arc::new(DeviceVolumeWeightedCoarsen),
        ),
    }
}

/// Run every probe for workload `w`. `level_boxes` are the final boxes
/// of every level of the traced run; `deck_text` is the run's deck.
pub fn run_probes(
    w: &Workload,
    deck_text: &str,
    level_boxes: &[Vec<GBox>],
    log: &mut SpanLog,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut p = Probes { log, cal: Cal::new(), out };
    let machine = (w.machine)();
    let device = Device::new(machine.clone(), Clock::new());
    let finest = level_boxes.len() - 1;
    let fine = &level_boxes[finest];

    // --- problems ---------------------------------------------------
    p.probe("problems.parse_deck_us", 200, 1e-3, || {
        black_box(parse_deck(black_box(deck_text)).expect("deck parses"));
    });

    // --- geometry ---------------------------------------------------
    p.probe("geometry.boxindex_build_us", 20, 1e-3, || {
        black_box(BoxIndex::new(black_box(fine), GHOSTS));
    });
    let index = BoxIndex::new(fine, GHOSTS);
    let mut hits = Vec::new();
    p.probe("geometry.boxindex_query_ns", 20, 1.0 / fine.len() as f64, || {
        for b in fine {
            index.query_into(b.grow(GHOSTS), &mut hits);
            black_box(&hits);
        }
    });
    let fine_list = BoxList::from_boxes(fine.iter().copied());
    let bounding = fine_list.bounding();
    p.probe("geometry.boxlist_subtract_us", 5, 1e-3, || {
        let mut rest = BoxList::from_box(bounding);
        rest.subtract(black_box(&fine_list));
        black_box(rest);
    });

    // --- perfmodel --------------------------------------------------
    let clock = Clock::new();
    p.probe("perfmodel.clock_advance_ns", 100_000, 1.0, || {
        clock.advance(Category::HydroKernel, black_box(1e-9));
    });

    // --- device -----------------------------------------------------
    let stream = Stream::new(&device);
    let shape = KernelShape::streaming(256, 1, 1);
    p.probe("device.launch_overhead_ns", 20_000, 1.0, || {
        device.launch_named(&stream, "probe", Category::Other, shape, |_| ());
    });
    // One field of a 16x16 patch with its ghosts.
    p.probe("device.alloc_ns", 20_000, 1.0, || {
        black_box(device.alloc::<f64>(400));
    });
    const MIB_F64: usize = (1 << 20) / 8;
    let host = vec![1.0f64; MIB_F64];
    let mut back = vec![0.0f64; MIB_F64];
    let mut buf = device.alloc::<f64>(MIB_F64);
    p.probe("device.h2d_us_per_mib", 20, 1e-3, || {
        device.upload(&mut buf, 0, black_box(&host), Category::Other);
    });
    p.probe("device.d2h_us_per_mib", 20, 1e-3, || {
        device.download(&buf, 0, black_box(&mut back), Category::Other);
    });

    // --- fault ------------------------------------------------------
    let injector = FaultInjector::disabled(0);
    p.probe("fault.site_decision_ns", 100_000, 1.0, || {
        black_box(injector.should_fire(black_box(FaultKind::AllocFail)));
    });

    // --- telemetry --------------------------------------------------
    let enabled = Recorder::new(0, Clock::new());
    p.probe("telemetry.span_ns_enabled", 10_000, 1.0, || {
        drop(enabled.span("probe", Category::Other));
    });
    p.probe("telemetry.count_ns", 50_000, 1.0, || {
        enabled.count("probe.counter", 1);
    });
    // The call-site idiom of an untraced run.
    let disabled = Recorder::disabled();
    p.probe("telemetry.span_ns_disabled", 100_000, 1.0, || {
        let rec = black_box(&disabled);
        black_box(rec.is_enabled().then(|| rec.span("probe", Category::Other)));
    });

    netsim_probes(w, &mut p);
    amr_probes(w, level_boxes, &device, &mut p);
    gpu_amr_probes(&device, &mut p);

    // --- hydro: kernel bodies on one big and one small patch ---------
    let big = kernel_probe(w.placement, &device, 256, 2, &mut p, "hydro.kernels_256");
    for (kernel, metric) in KERNEL_METRICS {
        p.out.insert(metric, big.get(kernel).copied().unwrap_or(0.0));
    }
    let small = kernel_probe(w.placement, &device, 16, 20, &mut p, "hydro.kernels_ns_per_cell_p16");
    p.out.insert("hydro.kernels_ns_per_cell_p16", small.values().sum());
}

fn netsim_probes(w: &Workload, p: &mut Probes<'_>) {
    let cluster = Cluster::new((w.machine)());
    let n = w.ranks;
    p.probe("netsim.cluster_spawn_ms", 3, 1e-6, || {
        black_box(cluster.run(n, |comm| comm.rank()));
    });

    // Every rank runs the same loop; rank 0 calibrates and times it.
    type Op<'a> = &'a (dyn Fn(&Comm) + Sync);
    let mut collective =
        |metric: &'static str, ranks: usize, reps: usize, scale: f64, op: Op<'_>| {
            let ns = p.log.scope(metric, |_| {
                let results = cluster.run(ranks, |comm| {
                    let mut cal = Cal::new();
                    if comm.rank() == 0 {
                        probe_ns(&mut cal, reps, || op(&comm))
                    } else {
                        for _ in 0..BATCHES * reps {
                            op(&comm);
                        }
                        0.0
                    }
                });
                results[0].value
            });
            p.out.insert(metric, ns * scale);
        };
    // Ranks 0 and 1 bounce an 8-byte message; a one-rank workload
    // borrows a second rank for this probe.
    let tag = 7u64;
    let payload = bytes::Bytes::from(vec![0u8; 8]);
    collective("netsim.p2p_roundtrip_ns", n.max(2), 2000, 1.0, &|comm| match comm.rank() {
        0 => {
            comm.send(1, tag, payload.clone());
            black_box(comm.recv(1, tag, Category::Other));
        }
        1 => {
            black_box(comm.recv(0, tag, Category::Other));
            comm.send(0, tag, payload.clone());
        }
        _ => {}
    });
    let reps = (4000 / n).max(20);
    collective("netsim.allreduce_us", n, reps, 1e-3, &|comm| {
        black_box(comm.allreduce_sum(1.0, Category::Other));
    });
    let record = bytes::Bytes::from(vec![0u8; 64]);
    collective("netsim.allgatherv_us", n, reps, 1e-3, &|comm| {
        black_box(comm.allgatherv(record.clone(), Category::Other));
    });
    collective("netsim.barrier_us", n, reps, 1e-3, &|comm| comm.barrier(Category::Other));
}

/// Re-host the traced run's final level boxes on a single-rank probe
/// hierarchy carrying one cell-centred variable, and time the amr
/// layer's planning and execution on it.
fn amr_probes(w: &Workload, level_boxes: &[Vec<GBox>], device: &Device, p: &mut Probes<'_>) {
    let (factory, refine_op, coarsen_op) = placement_parts(w.placement, device);
    let mut reg = VariableRegistry::new(factory);
    let var = reg.register("q", Centring::Cell, GHOSTS);
    let domain = GBox::from_coords(0, 0, w.cells.0, w.cells.1);
    let mut h = PatchHierarchy::new(
        GridGeometry::unit(1.0),
        BoxList::from_box(domain),
        RATIO,
        level_boxes.len(),
        0,
        1,
    );
    for (l, boxes) in level_boxes.iter().enumerate() {
        h.set_level(l, boxes.clone(), vec![0; boxes.len()], &reg);
    }
    let finest = level_boxes.len() - 1;
    let fine = &level_boxes[finest];
    let fill = [FillSpec { var, refine_op: Some(refine_op) }];
    p.probe("amr.schedule_build_ms", 3, 1e-6, || {
        black_box(ScheduleBuild::indexed().refine(&h, &reg, finest, &fill));
    });
    let schedule = ScheduleBuild::indexed().refine(&h, &reg, finest, &fill);
    p.probe("amr.fill_exec_ms", 3, 1e-6, || {
        schedule.fill(&mut h, &reg, &NoBoundary, None, 0.0, Category::HaloExchange);
    });
    if finest > 0 {
        let sync = ScheduleBuild::indexed().coarsen(
            &h,
            &reg,
            finest,
            &[CoarsenSpec { var, op: coarsen_op, aux: vec![] }],
        );
        p.probe("amr.coarsen_run_ms", 3, 1e-6, || {
            sync.run(&mut h, &reg, None, Category::Synchronize);
        });
        // Tag every cell under the finest level and cluster it again.
        let tags: Vec<IntVector> = fine.iter().flat_map(|b| b.coarsen(RATIO).iter()).collect();
        let params = ClusterParams { max_size: w.max_patch / 2, ..ClusterParams::default() };
        p.probe("amr.cluster_tags_ms", 3, 1e-6, || {
            black_box(cluster_tags(black_box(&tags), &params));
        });
    } else {
        p.out.insert("amr.coarsen_run_ms", 0.0);
        p.out.insert("amr.cluster_tags_ms", 0.0);
    }
    let nranks = w.ranks.max(2);
    p.probe("amr.partition_sfc_us", 20, 1e-3, || {
        black_box(partition_sfc(black_box(fine), nranks));
    });
}

/// gpu-amr's data-movement kernels on 16x16 device patches.
fn gpu_amr_probes(device: &Device, p: &mut Probes<'_>) {
    let left = GBox::from_coords(0, 0, 16, 16);
    let right = GBox::from_coords(16, 0, 32, 16);
    let src = DeviceData::<f64>::new(device, right, GHOSTS, Centring::Cell);
    let mut dst = DeviceData::<f64>::new(device, left, GHOSTS, Centring::Cell);
    // The ghost strip of `left` that `right` owns: one halo overlap.
    let overlap = ghost_overlaps(left, GHOSTS, right, Centring::Cell, IntVector::ZERO);
    p.probe("gpu-amr.pack_ns_per_overlap", 2000, 1.0, || {
        black_box(src.pack(&overlap));
    });
    let stream = src.pack(&overlap);
    p.probe("gpu-amr.unpack_ns_per_overlap", 2000, 1.0, || {
        dst.unpack(&overlap, &stream);
    });
    p.probe("gpu-amr.copy_region_ns", 2000, 1.0, || {
        dst.copy_from(&src, &overlap);
    });

    // One fine 16x16 patch over its coarse parent region.
    let coarse_box = left.coarsen(RATIO);
    let mut coarse = DeviceData::<f64>::new(device, coarse_box, GHOSTS, Centring::Cell);
    let mut fine = DeviceData::<f64>::new(device, left, GHOSTS, Centring::Cell);
    let fine_cells = BoxList::from_box(left);
    p.probe("gpu-amr.refine_ns_per_cell", 500, 1.0 / left.num_cells() as f64, || {
        DeviceConservativeCellRefine.refine(&mut fine, &coarse, &fine_cells, RATIO);
    });
    let coarse_cells = BoxList::from_box(coarse_box);
    p.probe("gpu-amr.coarsen_ns_per_cell", 500, 1.0 / coarse_box.num_cells() as f64, || {
        DeviceVolumeWeightedCoarsen.coarsen(&mut coarse, &fine, &[], &coarse_cells, RATIO);
    });

    let mut tags = DeviceData::<i32>::new(device, left, IntVector::ZERO, Centring::Cell);
    let pattern: Vec<i32> = (0..left.num_cells()).map(|i| i32::from(i % 3 == 0)).collect();
    tags.upload_all(&pattern, Category::Regrid);
    p.probe("gpu-amr.compress_tags_us", 500, 1e-3, || {
        black_box(compress_tags(&tags, Category::Regrid));
    });
}

/// Kernel name in [`kernel_probe`]'s result → metric name.
const KERNEL_METRICS: [(&str, &str); 9] = [
    ("eos", "hydro.kernel_ns_per_cell.eos"),
    ("viscosity", "hydro.kernel_ns_per_cell.viscosity"),
    ("calc_dt", "hydro.kernel_ns_per_cell.calc_dt"),
    ("pdv", "hydro.kernel_ns_per_cell.pdv"),
    ("accelerate", "hydro.kernel_ns_per_cell.accelerate"),
    ("flux_calc", "hydro.kernel_ns_per_cell.flux_calc"),
    ("advec_cell", "hydro.kernel_ns_per_cell.advec_cell"),
    ("advec_mom", "hydro.kernel_ns_per_cell.advec_mom"),
    ("flag_cells", "hydro.kernel_ns_per_cell.flag_cells"),
];

/// Run the step's kernel sequence `iters` times on one `n x n` Sod
/// patch through the placement's `PatchIntegrator` (no halo fills),
/// timing every kernel call. Returns calibrated ns per cell per call,
/// by kernel.
fn kernel_probe(
    placement: Placement,
    device: &Device,
    n: i64,
    iters: usize,
    p: &mut Probes<'_>,
    span: &str,
) -> BTreeMap<&'static str, f64> {
    let (factory, _, _) = placement_parts(placement, device);
    let integrator: Box<dyn PatchIntegrator> = match placement {
        Placement::Host => Box::new(HostPatchIntegrator::new()),
        Placement::Device | Placement::DeviceCopyBack => Box::new(DevicePatchIntegrator::new()),
    };
    let mut reg = VariableRegistry::new(factory);
    let f = Fields::register(&mut reg);
    let domain = GBox::from_coords(0, 0, n, n);
    let dx = (1.0 / n as f64, 1.0 / n as f64);
    let mut h = PatchHierarchy::new(
        GridGeometry { origin: (0.0, 0.0), dx0: dx },
        BoxList::from_box(domain),
        RATIO,
        1,
        0,
        1,
    );
    h.set_level(0, vec![domain], vec![0], &reg);
    let patch = &mut h.level_mut(0).local_mut()[0];
    let (gamma, thresholds) = (1.4, FlagThresholds::default());
    integrator.init_regions(patch, &f, (0.0, 0.0), dx, &sod_regions(), gamma);

    let mut total: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut cals = Vec::new();
    let cal = &mut p.cal;
    p.log.scope(span, |_| {
        for _ in 0..iters {
            cals.push(cal.run_ns());
            let mut timed = |name: &'static str, call: &mut dyn FnMut(&mut Patch)| {
                let t = Instant::now();
                call(patch);
                let e = total.entry(name).or_insert((0.0, 0));
                e.0 += t.elapsed().as_nanos() as f64;
                e.1 += 1;
            };
            let ig = integrator.as_ref();
            let mut dt = 0.0;
            timed("eos", &mut |p| ig.ideal_gas(p, &f, gamma, false));
            timed("viscosity", &mut |p| ig.viscosity(p, &f, dx));
            timed("calc_dt", &mut |p| dt = 0.5 * ig.calc_dt(p, &f, dx, 0.5));
            timed("pdv", &mut |p| ig.pdv(p, &f, dx, dt, true));
            timed("eos", &mut |p| ig.ideal_gas(p, &f, gamma, true));
            timed("revert", &mut |p| ig.revert(p, &f));
            timed("accelerate", &mut |p| ig.accelerate(p, &f, dx, dt));
            timed("pdv", &mut |p| ig.pdv(p, &f, dx, dt, false));
            timed("flux_calc", &mut |p| ig.flux_calc(p, &f, dx, dt));
            timed("advec_cell", &mut |p| ig.advec_cell(p, &f, dx, 0, 1));
            timed("advec_mom", &mut |p| ig.advec_mom(p, &f, dx, 0, 1));
            timed("advec_cell", &mut |p| ig.advec_cell(p, &f, dx, 1, 2));
            timed("advec_mom", &mut |p| ig.advec_mom(p, &f, dx, 1, 2));
            timed("reset", &mut |p| ig.reset(p, &f));
            timed("flag_cells", &mut |p| {
                black_box(ig.flag_cells(p, &f, &thresholds));
            });
        }
    });
    // Host slowdown over the probe: mean CAL over nominal.
    let slowdown = cals.iter().sum::<f64>() / cals.len() as f64 / NOMINAL_CAL_NS;
    let cells = (n * n) as f64;
    total.into_iter().map(|(k, (ns, calls))| (k, ns / calls as f64 / cells / slowdown)).collect()
}
