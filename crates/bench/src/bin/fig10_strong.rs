//! Regenerates **Figure 10**: strong scaling on IPA — the 6.4M-zone Sod
//! problem, 1000 timesteps, on 1–8 nodes, GPU build (2 K20x per node)
//! against the CPU build (16 cores per node as 2 socket-ranks).
//!
//! Paper anchors: on one node the two GPUs beat the two CPU sockets by
//! 4.87x; at eight nodes the advantage shrinks to 1.92x (Amdahl: halo
//! exchange and host-side regridding stop shrinking with the per-rank
//! work).
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin fig10_strong [-- --full | --quick] [--json <path>]
//! ```
//!
//! The default runs the sweep at 1.6M zones (a quarter of the paper's
//! problem, ~10 s of real compute on two cores); `--full` uses the
//! paper's 6.4M, `--quick` 102k. Every run asserts the figure's trend:
//! the GPU advantage shrinks at every doubling of the node count.
//! `--json <path>` writes the table as a JSON artifact for CI.

use rbamr_bench::{
    csv_dir_arg, fmt_secs, measure_profile, path_arg, sod_sim, write_csv, StepProfile,
};
use rbamr_hydro::Placement;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
use rbamr_telemetry::{MetricsSnapshot, Recorder};

const PAPER_STEPS: usize = 1000;
const REGRID_INTERVAL: usize = 10;
const LEVELS: usize = 3;

/// Run one configuration: `ranks` ranks of the given placement, all of
/// them `machine`-modelled, and return the slowest rank's projected
/// runtime for the paper's step count.
fn run_config(placement: Placement, machine: Machine, ranks: usize, nx: i64, ny: i64) -> f64 {
    let cluster = Cluster::new(machine.clone());
    // Enough patches to feed every rank (~4 level-0 patches per rank),
    // as SAMRAI's gridding parameters would be chosen for the job size.
    let max_patch = (nx as f64 / (ranks as f64).sqrt() / 2.0).clamp(32.0, 512.0) as i64;
    let results = cluster.run(ranks, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut sim = sod_sim(
            machine.clone(),
            placement,
            comm.clock().clone(),
            nx,
            ny,
            LEVELS,
            max_patch,
            comm.rank(),
            comm.size(),
        );
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        let steps = if nx >= 1024 { 2 } else { 3 };
        (measure_profile(&mut sim, Some(&comm), steps), rec)
    });
    // The same telemetry honesty check fig11_weak runs: the
    // span-derived breakdown must agree with the raw clock within 1%
    // of total runtime on every category.
    let recorders: Vec<Recorder> = results
        .iter()
        .map(|r: &rbamr_netsim::RankResult<(StepProfile, Recorder)>| r.value.1.clone())
        .collect();
    let snap = MetricsSnapshot::from_recorders(&recorders);
    assert!(
        snap.agreement_within(0.01),
        "span-derived breakdown disagrees with the clock by more than 1% \
         (coverage {:.4}): instrumentation has a gap",
        snap.coverage()
    );
    // BSP: the slowest rank paces the job.
    results
        .iter()
        .map(|r| r.value.0.projected_runtime(PAPER_STEPS, REGRID_INTERVAL))
        .fold(0.0, f64::max)
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let quick = std::env::args().any(|a| a == "--quick");
    let (nx, ny) = if full {
        (2530, 2530)
    } else if quick {
        (320, 320)
    } else {
        (1264, 1264)
    };
    println!(
        "Figure 10: strong scaling on IPA, Sod {} zones, {PAPER_STEPS} steps, {LEVELS} levels",
        nx * ny
    );
    println!("(GPU: 2 K20x/node; CPU: 2 socket-ranks/node = 16 cores)\n");
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>12}",
        "nodes", "ranks", "CPU runtime(s)", "GPU runtime(s)", "GPU speedup"
    );
    println!("{}", "-".repeat(62));

    let mut speedups = Vec::new();
    let mut gpu_times = Vec::new();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        let ranks = nodes * 2; // 2 GPUs or 2 sockets per node
        let gpu = run_config(Placement::Device, Machine::ipa_gpu(), ranks, nx, ny);
        let cpu = run_config(Placement::Host, Machine::ipa_cpu_socket(), ranks, nx, ny);
        let speedup = cpu / gpu;
        println!(
            "{:>6} {:>6} {:>16} {:>16} {:>11.2}x",
            nodes,
            ranks,
            fmt_secs(cpu),
            fmt_secs(gpu),
            speedup
        );
        rows.push(vec![nodes as f64, ranks as f64, cpu, gpu, speedup]);
        json_rows.push(format!(
            "{{\"nodes\": {nodes}, \"ranks\": {ranks}, \"cpu_s\": {cpu:.6}, \
             \"gpu_s\": {gpu:.6}, \"speedup\": {speedup:.4}}}"
        ));
        speedups.push(speedup);
        gpu_times.push((nodes, gpu));
    }
    if let Some(dir) = csv_dir_arg() {
        let p = write_csv(&dir, "fig10_strong.csv", "nodes,ranks,cpu_s,gpu_s,speedup", &rows);
        println!("wrote {}", p.display());
    }
    if let Some(path) = path_arg("--json") {
        let json = format!(
            "{{\n  \"zones\": {},\n  \"steps\": {PAPER_STEPS},\n  \"levels\": {LEVELS},\n  \
             \"rows\": [\n    {}\n  ]\n}}\n",
            nx * ny,
            json_rows.join(",\n    ")
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("fig10: create artifact dir");
        }
        std::fs::write(&path, json).expect("fig10: write artifact");
        println!("wrote {}", path.display());
    }
    println!("{}", "-".repeat(62));
    println!("one-node GPU advantage: {:.2}x   (paper: 4.87x)", speedups[0]);
    println!("eight-node GPU advantage: {:.2}x (paper: 1.92x)", speedups[speedups.len() - 1]);
    // The paper's trend: the halo exchange and host-side regridding stop
    // shrinking with the per-rank work, so the advantage falls with
    // every doubling.
    assert!(
        speedups.windows(2).all(|w| w[1] < w[0]),
        "the GPU advantage must shrink from 1 to 8 nodes: {speedups:.2?}"
    );
    if let (Some(&(_, t1)), Some(&(_, t8))) = (gpu_times.first(), gpu_times.last()) {
        println!("GPU parallel efficiency 1->8 nodes: {:.0}%", t1 / t8 / 8.0 * 100.0);
    }
    if !full {
        println!("\n(run with --full for the paper's 6.4M-zone problem)");
    }
}
