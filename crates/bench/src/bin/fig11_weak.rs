//! Regenerates **Figure 11**: weak scaling of the triple-point problem
//! on Titan — per-cell grind times of the runtime components (Total,
//! Hydrodynamics, Synchronisation, Regridding) at 1 to 4,096 nodes,
//! ~2 million effective cells per node, 3 levels, ratio 2.
//!
//! Method (the documented Titan substitution, DESIGN.md): the paper's
//! 8-billion-cell meshes cannot be instantiated, so the harness
//!
//! 1. runs the *real* triple-point simulation on simulated Titan ranks
//!    to measure the structural constants of a step — kernel launches
//!    per patch, device bytes per cell, refined coverage fractions;
//! 2. validates the analytic model ([`WeakScalingModel`]) against those
//!    fully simulated runs at small node counts, with the model
//!    configured to the *same* small-scale structure;
//! 3. evaluates the model along the paper's node axis at the paper's
//!    per-node workload.
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin fig11_weak
//! ```
//!
//! Two extra modes exercise the event-driven rank scheduler at scale:
//!
//! * `--ranks N` runs the real triple-point problem on `N` simulated
//!   ranks (small per-rank workload, 2 steps) and prints one
//!   `SCALE_JSON {...}` line with wall time and the process peak-RSS
//!   (`VmHWM`).
//! * `--scale-smoke [--json <path>]` re-executes this binary as a child
//!   process at 256, 1,024 and 4,096 ranks (`VmHWM` is a
//!   process-lifetime high-water mark, so each rank count needs a fresh
//!   process), gates per-rank memory sublinearity, a per-rank ceiling
//!   and wall-clock budgets, gates the per-`allgatherv` frame count of
//!   the log-depth collectives in process, and writes a combined JSON
//!   artifact for CI.

use rbamr_bench::{
    csv_dir_arg, measure_profile, metrics_path_arg, path_arg, trace_path_arg, vm_hwm_kb, write_csv,
};
use rbamr_hydro::{HydroConfig, HydroSim, Placement};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};
use rbamr_problems::synthetic::WeakScalingModel;
use rbamr_problems::triple_point::{triple_point_regions, TRIPLE_POINT_EXTENT};
use rbamr_telemetry::{chrome_trace, fig11_report, metrics_json, MetricsSnapshot, Recorder};

const LEVELS: usize = 3;

struct RealRun {
    /// Per-rank per-step component times (slowest rank).
    hydro: f64,
    timestep: f64,
    sync: f64,
    regrid: f64,
    /// Stored cells per rank, per level.
    cells_per_level: Vec<f64>,
    /// Patches per rank.
    patches_per_rank: f64,
    /// Device kernel launches per step charged to the hydrodynamics
    /// categories (kernels and halo exchanges), on the slowest rank.
    launches_per_step: f64,
    /// Seconds of PCIe transfers per step charged to the same
    /// categories, on the slowest rank.
    transfers_per_step: f64,
    /// Per-rank telemetry recorders (span traces and counters).
    recorders: Vec<Recorder>,
}

fn run_real(ranks: usize, coarse_per_rank: i64, max_patch: i64) -> RealRun {
    let cluster = Cluster::new(Machine::titan());
    let total_coarse = coarse_per_rank * ranks as i64;
    let ny = ((total_coarse as f64 / (7.0 / 3.0)).sqrt()) as i64;
    let nx = ny * 7 / 3;
    let results = cluster.run(ranks, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut config =
            HydroConfig { regrid_interval: 0, max_patch_size: max_patch, ..HydroConfig::default() };
        config.regrid.max_patch_size = max_patch;
        let mut sim = HydroSim::new(
            Machine::titan(),
            Placement::Device,
            comm.clock().clone(),
            TRIPLE_POINT_EXTENT,
            (nx, ny),
            LEVELS,
            2,
            config,
            triple_point_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        let profile = measure_profile(&mut sim, Some(&comm), MEASURED_STEPS);
        let (launches, transfers) = hydro_launches_and_transfers(&rec);
        let cells_per_level: Vec<f64> = (0..sim.hierarchy().num_levels())
            .map(|l| sim.hierarchy().level(l).num_cells() as f64 / comm.size() as f64)
            .collect();
        let patches: usize =
            (0..sim.hierarchy().num_levels()).map(|l| sim.hierarchy().level(l).num_patches()).sum();
        (profile, cells_per_level, patches as f64 / comm.size() as f64, launches, transfers, rec)
    });
    let mut out = RealRun {
        hydro: 0.0,
        timestep: 0.0,
        sync: 0.0,
        regrid: 0.0,
        cells_per_level: results[0].value.1.clone(),
        patches_per_rank: results[0].value.2,
        launches_per_step: 0.0,
        transfers_per_step: 0.0,
        recorders: results.iter().map(|r| r.value.5.clone()).collect(),
    };
    for r in &results {
        // Launches and transfers of the rank whose time is reported.
        if r.value.0.per_step.hydrodynamics() > out.hydro {
            out.launches_per_step = r.value.3;
            out.transfers_per_step = r.value.4;
        }
        out.hydro = out.hydro.max(r.value.0.per_step.hydrodynamics());
        out.timestep = out.timestep.max(r.value.0.per_step.get(Category::Timestep));
        out.sync = out.sync.max(r.value.0.per_step.get(Category::Synchronize));
        out.regrid =
            out.regrid.max(r.value.0.per_step.get(Category::Regrid) + r.value.0.regrid / 10.0);
    }
    out
}

/// The least a CleverLeaf step can stream per cell: fewer measured bytes
/// mean the launch and transfer terms swallowed the kernels' time, and
/// the binary refuses to extrapolate from that.
const BYTES_PER_CELL_FLOOR: f64 = 500.0;

/// Steps [`measure_profile`] measures after its warm-up step.
const MEASURED_STEPS: usize = 3;

/// What the hydrodynamics categories (kernels + halo exchanges) were
/// charged for besides streaming, per measured step of `rec`'s rank:
/// the number of kernel launches and the seconds of PCIe transfers.
/// The dt reduction's, the synchronisation's and the regrid's launches
/// and transfers are charged elsewhere and are not counted.
fn hydro_launches_and_transfers(rec: &Recorder) -> (f64, f64) {
    let spans = rec.spans();
    let counters = rec.counters();
    let launch_names: Vec<&str> =
        counters.keys().filter_map(|k| k.strip_prefix("device.kernel_launches.")).collect();
    // Step 0 is the warm-up.
    let in_measured_step = |mut i: usize| loop {
        let span = &spans[i];
        if span.name == "step" {
            return span.arg >= Some(1);
        }
        match span.parent {
            Some(parent) => i = parent,
            None => return false,
        }
    };
    let (mut launches, mut transfers) = (0usize, 0.0);
    for (i, span) in spans.iter().enumerate() {
        let hydro = matches!(span.category, Category::HydroKernel | Category::HaloExchange);
        if !hydro || !in_measured_step(i) {
            continue;
        }
        if span.name == "d2h-copy" || span.name == "h2d-copy" {
            transfers += span.elapsed().total();
        } else if launch_names.contains(&span.name) {
            launches += 1;
        }
    }
    (launches as f64 / MEASURED_STEPS as f64, transfers / MEASURED_STEPS as f64)
}

impl RealRun {
    fn stored_cells(&self) -> f64 {
        self.cells_per_level.iter().sum()
    }

    fn grind_total(&self) -> f64 {
        (self.hydro + self.timestep + self.sync + self.regrid) / self.stored_cells()
    }

    /// A model configured to this run's measured structure.
    fn matching_model(&self, calibrated: &WeakScalingModel) -> WeakScalingModel {
        let mut m = calibrated.clone();
        let coarse = self.cells_per_level[0];
        m.effective_cells_per_node = coarse * 16.0;
        m.refined_fraction = self
            .cells_per_level
            .iter()
            .enumerate()
            .map(|(l, &c)| (c / (coarse * 4f64.powi(l as i32))).min(1.0))
            .collect();
        m.patch_size = (self.stored_cells() / self.patches_per_rank).sqrt();
        m
    }
}

/// Coarse cells per rank in the scale-smoke runs: small enough that
/// 1,024 simulated ranks finish in seconds on one box, large enough
/// that every rank owns real patches and sends real halos.
const SCALE_COARSE_PER_RANK: i64 = 256;

/// One `--ranks N` run: the real triple-point problem at `N` simulated
/// ranks, weak-scaled workload. Prints a machine-readable `SCALE_JSON`
/// line for the `--scale-smoke` parent.
fn scale_run(ranks: usize) {
    let started = std::time::Instant::now();
    let total_coarse = SCALE_COARSE_PER_RANK * ranks as i64;
    let ny = ((total_coarse as f64 / (7.0 / 3.0)).sqrt()).round() as i64;
    let nx = ny * 7 / 3;
    println!("fig11_weak --ranks {ranks}: triple point, {nx}x{ny} coarse, {LEVELS} levels");
    let results = Cluster::new(Machine::titan()).with_stack_size(1 << 20).run(ranks, move |comm| {
        let mut config =
            HydroConfig { regrid_interval: 0, max_patch_size: 16, ..HydroConfig::default() };
        config.regrid.max_patch_size = 16;
        let mut sim = HydroSim::new(
            Machine::titan(),
            Placement::Device,
            comm.clock().clone(),
            TRIPLE_POINT_EXTENT,
            (nx, ny),
            LEVELS,
            2,
            config,
            triple_point_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.initialize(Some(&comm));
        for _ in 0..2 {
            sim.step(Some(&comm));
        }
        sim.hierarchy().total_cells()
    });
    let wall = started.elapsed();
    let virtual_seconds = Cluster::job_time(&results).total();
    let stored_cells = results[0].value;
    let hwm = vm_hwm_kb().unwrap_or(0);
    println!(
        "SCALE_JSON {{\"ranks\": {ranks}, \"wall_ms\": {}, \"vm_hwm_kb\": {hwm}, \
         \"stored_cells\": {stored_cells}, \"virtual_seconds\": {virtual_seconds:.6}}}",
        wall.as_millis(),
    );
}

/// One child measurement parsed back from its `SCALE_JSON` line.
struct ScaleSample {
    ranks: usize,
    wall_ms: u64,
    vm_hwm_kb: u64,
    json: String,
}

impl ScaleSample {
    fn per_rank_kb(&self) -> u64 {
        self.vm_hwm_kb / self.ranks as u64
    }
}

fn scale_child(ranks: usize) -> ScaleSample {
    let exe = std::env::current_exe().expect("scale-smoke: current_exe");
    let out = std::process::Command::new(exe)
        .args(["--ranks", &ranks.to_string()])
        .output()
        .expect("scale-smoke: spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "scale-smoke: --ranks {ranks} child failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = stdout
        .lines()
        .find_map(|l| l.strip_prefix("SCALE_JSON "))
        .unwrap_or_else(|| panic!("scale-smoke: no SCALE_JSON line in:\n{stdout}"))
        .to_string();
    let field = |name: &str| -> u64 {
        json.split(&format!("\"{name}\": "))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("scale-smoke: missing field {name} in {json}"))
    };
    ScaleSample { ranks, wall_ms: field("wall_ms"), vm_hwm_kb: field("vm_hwm_kb"), json }
}

/// In-process gate on collective frame complexity: one small
/// `allgatherv` at 1,024 ranks under the default (log-depth) algorithm
/// must cost O(N log N) frames, not the flat fan's N·(N-1). The
/// `net.sends` counters include every collective-internal frame, so
/// summing them over the ranks counts the wire traffic exactly.
fn frames_gate(failures: &mut Vec<String>) -> (u64, u64) {
    use bytes::Bytes;
    use rbamr_telemetry::Recorder;
    let n: usize = 1024;
    let results = Cluster::new(Machine::titan()).with_workers(4).with_stack_size(192 * 1024).run(
        n,
        |mut comm| {
            let rec = Recorder::new(comm.rank(), comm.clock().clone());
            comm.set_recorder(rec.clone());
            let parts = comm.try_allgatherv(Bytes::from(vec![comm.rank() as u8; 8]));
            let parts = parts.expect("a fault-free allgatherv");
            assert_eq!(parts.len(), comm.size());
            rec.counter("net.sends")
        },
    );
    let frames: u64 = results.iter().map(|r| r.value).sum();
    let bound = (n * (n.ilog2() as usize + 2)) as u64;
    let flat = (n * (n - 1)) as u64;
    println!(
        "  frames gate: {frames} frames for one allgatherv at {n} ranks \
         (log-depth bound {bound}, flat fan {flat})"
    );
    if frames > bound {
        failures.push(format!(
            "allgatherv frame count not log-depth: {frames} frames at {n} ranks > {bound} \
             (flat all-to-all is {flat})"
        ));
    }
    (frames, bound)
}

/// CI gate: the event-driven scheduler must hold per-rank memory
/// sublinear and wall time bounded as simulated ranks quadruple twice,
/// up to the paper's 4,096 nodes, and the collectives must be
/// log-depth on the wire.
fn scale_smoke() {
    // Wall budgets sit far above the measured values (release build on
    // one core of a 2-vCPU Xeon VM: 0.6-1.3 s at 256 ranks, 4.1-5.6 s at
    // 1,024, 28.7-36.0 s at 4,096), so they catch order-of-magnitude
    // regressions — a return to thread-per-rank scheduling or a
    // wall-clock sleep — not jitter. The 4,096-rank budget keeps the
    // 1,024-rank one's ~21x headroom over its slowest measured run.
    const WALL_BUDGETS_MS: [(usize, u64); 3] = [(256, 15_000), (1024, 120_000), (4096, 770_000)];
    // Per-rank peak-RSS ceiling at 1,024 and 4,096 ranks (measured ~440
    // and ~640 KiB). Thread-per-rank needs a multi-MiB touched stack per
    // rank; the cooperative scheduler with 1 MiB carrier stacks stays
    // well under.
    const PER_RANK_KB_CEILING: u64 = 1024;

    println!(
        "fig11_weak --scale-smoke: 256 -> 1,024 -> 4,096 simulated ranks (fresh child per count)"
    );
    let samples: Vec<ScaleSample> = WALL_BUDGETS_MS
        .iter()
        .map(|&(ranks, _)| {
            let sample = scale_child(ranks);
            println!("  {ranks} ranks: wall {} ms, VmHWM {} KiB", sample.wall_ms, sample.vm_hwm_kb);
            sample
        })
        .collect();
    let [small, large, largest] = &samples[..] else { unreachable!("three rank counts") };

    let mut failures = Vec::new();
    // Per-rank memory sublinearity: rank count x4 while peak RSS per
    // rank must not grow past 1.5x (measured: flat, 464 -> 477 KiB).
    // Anything per-rank that secretly scales with *global* size — a
    // replicated O(ranks) structure per rank, per-peer transport state
    // — shows up here as superlinear total growth.
    let (small_per_rank_kb, per_rank_kb) = (small.per_rank_kb(), large.per_rank_kb());
    if 2 * per_rank_kb >= 3 * small_per_rank_kb {
        failures.push(format!(
            "per-rank memory not sublinear: {per_rank_kb} KiB/rank at 1024 ranks >= 1.5x the \
             {small_per_rank_kb} KiB/rank at 256 ranks"
        ));
    }
    // Recorded, not gated: the replicated level metadata grows with the
    // global patch count (measured 1.46x for 1,024 -> 4,096 ranks).
    let growth_to_largest = largest.per_rank_kb() as f64 / per_rank_kb as f64;
    println!("  per-rank growth 1,024 -> 4,096 ranks: {growth_to_largest:.2}x");
    for sample in [large, largest] {
        if sample.per_rank_kb() >= PER_RANK_KB_CEILING {
            failures.push(format!(
                "per-rank peak RSS {} KiB at {} ranks >= {PER_RANK_KB_CEILING} KiB ceiling",
                sample.per_rank_kb(),
                sample.ranks
            ));
        }
    }
    for (sample, &(_, budget)) in samples.iter().zip(&WALL_BUDGETS_MS) {
        if sample.wall_ms > budget {
            failures.push(format!(
                "wall budget blown at {} ranks: {} ms > {budget} ms",
                sample.ranks, sample.wall_ms
            ));
        }
    }
    let (frames, bound) = frames_gate(&mut failures);

    let json_path =
        path_arg("--json").unwrap_or_else(|| std::path::PathBuf::from("target/scale_smoke.json"));
    let budgets = WALL_BUDGETS_MS.map(|(_, ms)| ms.to_string()).join(", ");
    let runs: Vec<&str> = samples.iter().map(|s| s.json.as_str()).collect();
    let json = format!(
        "{{\n  \"pass\": {},\n  \"per_rank_growth_limit\": 1.5,\n  \
         \"per_rank_growth_1024_to_4096\": {growth_to_largest:.3},\n  \
         \"per_rank_kb_ceiling\": {PER_RANK_KB_CEILING},\n  \"wall_budgets_ms\": [{budgets}],\n  \
         \"allgatherv_frames_1024\": {frames},\n  \"allgatherv_frame_bound\": {bound},\n  \
         \"failures\": [{}],\n  \"runs\": [\n    {}\n  ]\n}}\n",
        failures.is_empty(),
        failures.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", "),
        runs.join(",\n    "),
    );
    if let Some(dir) = json_path.parent() {
        std::fs::create_dir_all(dir).expect("scale-smoke: create artifact dir");
    }
    std::fs::write(&json_path, json).expect("scale-smoke: write artifact");
    println!("artifact: {}", json_path.display());

    if failures.is_empty() {
        println!(
            "scale-smoke PASS: {} -> {} -> {} KiB/rank peak RSS for x4 and x16 ranks, \
             VmHWM {} -> {} -> {} KiB total",
            small_per_rank_kb,
            per_rank_kb,
            largest.per_rank_kb(),
            small.vm_hwm_kb,
            large.vm_hwm_kb,
            largest.vm_hwm_kb
        );
    } else {
        for f in &failures {
            eprintln!("scale-smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--ranks") {
        let ranks =
            args.get(i + 1).and_then(|v| v.parse().ok()).expect("usage: fig11_weak --ranks <N>");
        scale_run(ranks);
        return;
    }
    if args.iter().any(|a| a == "--scale-smoke") {
        scale_smoke();
        return;
    }

    println!("Figure 11: weak scaling on Titan, triple point, 3 levels, ratio 2");
    println!("(grind times in s/cell; structural constants measured from full");
    println!(" simulated runs, extrapolated with the DESIGN.md cost model)\n");

    // --- Phase 1: measure structural constants from a real run --------
    let base = run_real(2, 40_000, 64);
    let dev = Machine::titan();
    let k = dev.device();
    let launch_per_patch = base.launches_per_step / base.patches_per_rank;
    // Separate launch latency and PCIe time from bandwidth in the
    // measured hydro time: only what the hydro categories themselves
    // were charged for.
    let fixed_time = base.launches_per_step * k.kernel_latency + base.transfers_per_step;
    let bytes_per_cell = (base.hydro - fixed_time) * k.mem_bandwidth / base.stored_cells();
    println!("measured step structure (2 ranks, 40k coarse cells/rank):");
    println!("  kernel launches / patch / step : {launch_per_patch:.1}");
    println!("  device bytes / cell / step     : {bytes_per_cell:.0}");
    if bytes_per_cell < BYTES_PER_CELL_FLOOR {
        eprintln!(
            "fig11_weak: {bytes_per_cell:.0} device bytes/cell/step is under the \
             {BYTES_PER_CELL_FLOOR:.0} B floor: the series below would report the floor, not \
             a measurement"
        );
        std::process::exit(1);
    }
    println!(
        "  refined coverage fractions     : {:?}",
        base.cells_per_level
            .iter()
            .enumerate()
            .map(|(l, &c)| (c / (base.cells_per_level[0] * 4f64.powi(l as i32)) * 100.0).round())
            .collect::<Vec<_>>()
    );

    // --- Telemetry: span-derived breakdown vs. the raw clock ----------
    let snap = MetricsSnapshot::from_recorders(&base.recorders);
    println!("\nspan-derived breakdown (Fig. 11 series, clock vs. spans):");
    print!("{}", fig11_report(&snap.clock, &snap.spans));
    assert!(
        snap.agreement_within(0.01),
        "span-derived breakdown disagrees with the clock by more than 1% \
         (coverage {:.4}): instrumentation has a gap",
        snap.coverage()
    );
    println!(
        "span coverage of clock-charged time: {:.2}% (agreement within 1%)",
        snap.coverage() * 100.0
    );
    if let Some(path) = trace_path_arg() {
        std::fs::write(&path, chrome_trace(&base.recorders)).expect("write trace");
        println!("wrote Chrome trace to {}", path.display());
    }
    if let Some(path) = metrics_path_arg() {
        std::fs::write(&path, metrics_json(&base.recorders)).expect("write metrics");
        println!("wrote metrics snapshot to {}", path.display());
    }

    let mut model = WeakScalingModel::titan_paper();
    model.calib.kernel_launches_per_patch_step = launch_per_patch;
    model.calib.bytes_per_cell_step = bytes_per_cell;

    // --- Phase 2: validate the model at fully simulated scales --------
    println!("\nmodel validation (model configured to the measured small-scale structure):");
    println!("{:>6} {:>14} {:>14} {:>8}", "ranks", "simulated", "model", "ratio");
    for ranks in [1usize, 2, 4] {
        let real = run_real(ranks, 40_000, 64);
        let m = real.matching_model(&model).grind_times(ranks as u32);
        println!(
            "{:>6} {:>11.3e} {:>11.3e} {:>8.2}",
            ranks,
            real.grind_total(),
            m.total(),
            real.grind_total() / m.total()
        );
    }

    // --- Phase 3: the paper's node axis at paper scale -----------------
    println!("\npaper-scale series (2M effective cells/node, 256^2 patches):");
    println!(
        "{:>6} {:>13} {:>15} {:>15} {:>13}",
        "nodes", "Total", "Hydrodynamics", "Synchronisation", "Regridding"
    );
    println!("{}", "-".repeat(68));
    let mut rows = Vec::new();
    for nodes in [1u32, 4, 16, 64, 256, 1024, 4096] {
        let g = model.grind_times(nodes);
        println!(
            "{:>6} {:>13.3e} {:>15.3e} {:>15.3e} {:>13.3e}",
            nodes,
            g.total(),
            g.hydro,
            g.sync,
            g.regrid
        );
        rows.push(vec![f64::from(nodes), g.total(), g.hydro, g.timestep, g.sync, g.regrid]);
    }
    println!("{}", "-".repeat(68));
    if let Some(dir) = csv_dir_arg() {
        let p = write_csv(
            &dir,
            "fig11_weak.csv",
            "nodes,total_s_per_cell,hydro,timestep,sync,regrid",
            &rows,
        );
        println!("wrote {}", p.display());
    }
    let g1 = model.grind_times(1);
    let g4k = model.grind_times(4096);
    println!(
        "\ngrowth 1 -> 4096 nodes: total {:.2}x (paper: gradual, well under 10x)",
        g4k.total() / g1.total()
    );
    println!(
        "hydrodynamics share: {:.0}% at 1 node, {:.0}% at 4096 (majority everywhere, as in the paper)",
        g1.hydro / g1.total() * 100.0,
        g4k.hydro / g4k.total() * 100.0
    );
    println!(
        "timestep share grows {:.1}% -> {:.1}% (paper: <1% -> 6%)",
        g1.timestep / g1.total() * 100.0,
        g4k.timestep / g4k.total() * 100.0
    );
    println!(
        "synchronisation share: {:.1}% -> {:.1}% (paper: 1% -> 3%)",
        g1.sync / g1.total() * 100.0,
        g4k.sync / g4k.total() * 100.0
    );
}
