//! Regenerates **Figure 9**: serial performance of one NVIDIA K20x
//! against one dual-socket E5-2670 node on the Sod problem, 1000
//! timesteps, coarse resolutions from ~3,125 to 6.4 million zones, 3
//! levels of refinement, ratio 2.
//!
//! Also prints the Section V-A statistics: the average small-problem
//! slowdown (paper: ~1.6x below 200k cells), the average large-problem
//! speedup (paper: 1.99x at >= 200k) and the maximum (paper: 2.67x).
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin fig9_serial [-- --full] [--json <path>]
//! ```
//!
//! `--full` includes the 3.2M- and 6.4M-zone rungs (a few minutes of
//! real compute); the default stops at 800k and is representative.
//!
//! Every GPU run gates in-process that hydro launches per step are
//! exactly the step's 20 kernel groups, within
//! `MAX_LAUNCHES_PER_STEP`, and halo data-movement launches
//! (copies, packs, unpacks, scratch extension, interpolation,
//! projection, physical boundaries) within
//! `MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP`, whatever the level count —
//! the launch-bound regime that per-level or per-patch launching (which
//! scale with level and patch counts) cannot satisfy.
//!
//! `--json <path>` writes the table as a JSON artifact for CI.

use rbamr_bench::{
    csv_dir_arg, fig9_resolutions, fmt_secs, measure_profile, path_arg, sod_sim, write_csv,
};
use rbamr_hydro::{
    level_executor::{
        data_movement_launches, hydro_launches, MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP,
        MAX_LAUNCHES_PER_STEP,
    },
    Placement,
};
use rbamr_perfmodel::{Clock, Machine};
use rbamr_telemetry::Recorder;

const PAPER_STEPS: usize = 1000;
const REGRID_INTERVAL: usize = 10;
const LEVELS: usize = 3;
/// Hydro launches per device step: one rank, so no window splits and
/// every kernel group of the step launches once.
const HYDRO_LAUNCHES_PER_STEP: f64 = 20.0;

/// Projected runtime, total cells and measured hydro launches per step
/// (zero on the host), the last gated against the whole-hierarchy bound
/// beside the data-movement launches per step.
fn run_one(placement: Placement, nx: i64, ny: i64) -> (f64, i64, f64) {
    let machine = match placement {
        Placement::Host => Machine::ipa_cpu_node(),
        _ => Machine::ipa_gpu(),
    };
    // Patches are capped at 1024^2 cells; small problems are a single
    // patch (the serial study has no parallel decomposition).
    let mut sim = sod_sim(machine, placement, Clock::new(), nx, ny, LEVELS, 1024, 0, 1);
    let rec = Recorder::new(0, sim.clock().clone());
    sim.set_recorder(rec.clone());
    sim.initialize(None);
    // Halo-fill, sync, and regrid kernels are outside the executor's
    // launch budget, so the profile's closing regrid adds nothing.
    let (launches0, moves0) = (hydro_launches(&rec), data_movement_launches(&rec));
    let steps = if nx >= 1024 { 2 } else { 4 };
    let profile = measure_profile(&mut sim, None, steps);
    // The profile takes one warm-up step before the measured ones.
    let launches_per_step = (hydro_launches(&rec) - launches0) as f64 / (steps + 1) as f64;
    let bound = MAX_LAUNCHES_PER_STEP as f64;
    assert!(
        launches_per_step <= bound,
        "{nx}x{ny}: {launches_per_step:.0} hydro launches/step, \
         above the whole-hierarchy bound {bound:.0}"
    );
    if placement != Placement::Host {
        assert_eq!(launches_per_step, HYDRO_LAUNCHES_PER_STEP, "{nx}x{ny}: hydro launches/step");
    }
    // The profile's closing regrid is counted too: its transfers are
    // halo data movement.
    let moves_per_step = (data_movement_launches(&rec) - moves0) as f64 / (steps + 1) as f64;
    let bound = MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP as f64;
    assert!(
        moves_per_step <= bound,
        "{nx}x{ny}: {moves_per_step:.1} data-movement launches/step, above the bound {bound:.0}"
    );
    (
        profile.projected_runtime(PAPER_STEPS, REGRID_INTERVAL),
        profile.total_cells,
        launches_per_step,
    )
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let sizes = fig9_resolutions(full);
    println!("Figure 9: serial performance, Sod, {PAPER_STEPS} steps, {LEVELS} levels, ratio 2");
    println!("(runtimes are modelled K20x / E5-2670 times; numerics run for real)\n");
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>9} {:>12}",
        "coarse zones", "total cells", "CPU runtime(s)", "GPU runtime(s)", "speedup", "launch/step"
    );
    println!("{}", "-".repeat(79));

    let mut small_ratios = Vec::new();
    let mut large_ratios = Vec::new();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &(nx, ny) in &sizes {
        let (cpu, cells, _) = run_one(Placement::Host, nx, ny);
        let (gpu, _, launches) = run_one(Placement::Device, nx, ny);
        let speedup = cpu / gpu;
        println!(
            "{:>12} {:>12} {:>14} {:>14} {:>8.2}x {:>12.1}",
            nx * ny,
            cells,
            fmt_secs(cpu),
            fmt_secs(gpu),
            speedup,
            launches
        );
        rows.push(vec![(nx * ny) as f64, cells as f64, cpu, gpu, speedup, launches]);
        json_rows.push(format!(
            "{{\"coarse_zones\": {}, \"total_cells\": {cells}, \"cpu_s\": {cpu:.6}, \
             \"gpu_s\": {gpu:.6}, \"speedup\": {speedup:.4}, \
             \"launches_per_step\": {launches:.1}}}",
            nx * ny
        ));
        if nx * ny < 200_000 {
            small_ratios.push(speedup);
        } else {
            large_ratios.push(speedup);
        }
    }
    if let Some(dir) = csv_dir_arg() {
        let header = "coarse_zones,total_cells,cpu_s,gpu_s,speedup,launches_per_step";
        let p = write_csv(&dir, "fig9_serial.csv", header, &rows);
        println!("\nwrote {}", p.display());
    }
    if let Some(path) = path_arg("--json") {
        let json = format!(
            "{{\n  \"steps\": {PAPER_STEPS},\n  \"levels\": {LEVELS},\n  \
             \"rows\": [\n    {}\n  ]\n}}\n",
            json_rows.join(",\n    ")
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("fig9: create artifact dir");
        }
        std::fs::write(&path, json).expect("fig9: write artifact");
        println!("wrote {}", path.display());
    }
    println!("{}", "-".repeat(79));

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    if !small_ratios.is_empty() {
        // The direction the average speedup measured, not the paper's.
        let speedup = avg(&small_ratios);
        let (factor, direction) =
            if speedup >= 1.0 { (speedup, "faster") } else { (1.0 / speedup, "slower") };
        println!(
            "below 200k zones: GPU is {factor:.2}x {direction} on average   (paper: ~1.6x slower)"
        );
    }
    if !large_ratios.is_empty() {
        println!(
            "at/above 200k zones: average speedup {:.2}x           (paper: 1.99x)",
            avg(&large_ratios)
        );
        println!(
            "maximum speedup {:.2}x                                (paper: 2.67x)",
            large_ratios.iter().fold(0.0f64, |a, &b| a.max(b))
        );
    }
    if !full {
        println!("\n(run with --full for the 3.2M and 6.4M rungs, where the maximum occurs)");
    }
}
