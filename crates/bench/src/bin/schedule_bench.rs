//! Schedule-build scaling: indexed vs brute-force metadata cost.
//!
//! Measures wall-clock construction time of a ghost-fill
//! [`RefineSchedule`] (same-level + coarse-fine planning) at 64, 256,
//! 1024 and 4096 fine patches, comparing the spatial-index build
//! against the retained all-pairs oracle. This is the quadratic
//! metadata overhead behind the regrid-cost growth in the paper's
//! Fig. 11.
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin schedule_bench [-- --smoke] [--json PATH]
//! cargo run --release -p rbamr-bench --bin schedule_bench -- --steady-regrid [--smoke] [--json PATH]
//! cargo run --release -p rbamr-bench --bin schedule_bench -- --partitioned [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` restricts the sweep to 64/256 patches with one repetition
//! (CI). `--json PATH` writes the measurements for the perf trajectory.
//!
//! `--steady-regrid` instead exercises the structure-keyed schedule
//! cache on the Sod deck: converge the hierarchy, then regrid
//! repeatedly with an unchanged structure and compare the schedule-build
//! time per regrid against the same run's convergence window (where
//! every regrid changes the structure and must build). The run asserts
//! a 100% cache hit-rate (zero rebuilds) after convergence and at least
//! a 5x reduction in build time per regrid.
//!
//! `--partitioned` measures the partitioned-metadata path on a
//! simulated cluster (8 and 16 ranks): each rank converts to an owned +
//! ghosted view through the digest-verified exchange, then plans with
//! the owner-computes `Partitioned` strategy. Reports worst-rank
//! retained metadata bytes against the replicated footprint and the
//! level-1 build time of both paths, asserting plan-digest agreement
//! with the replicated build and sublinear per-rank retention.

use rbamr_amr::ops::ConservativeCellRefine;
use rbamr_amr::partition::RECORD_BYTES;
use rbamr_amr::schedule::FillSpec;
use rbamr_amr::{partition_hierarchy_metadata, InterestMargins, RefineSchedule, ScheduleBuild};
use rbamr_bench::{path_arg, schedule_bench_hierarchy, schedule_bench_hierarchy_sfc, sod_config};
use rbamr_hydro::{HydroSim, Placement};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Clock, Machine};
use rbamr_problems::sod_regions;
use rbamr_telemetry::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock nanoseconds of `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Schedule counter deltas over a window of regrids.
struct WindowStats {
    regrids: u64,
    builds: u64,
    build_ns: u64,
    hits: u64,
    misses: u64,
}

impl WindowStats {
    fn build_ns_per_regrid(&self) -> f64 {
        self.build_ns as f64 / self.regrids as f64
    }
}

/// Converge a Sod hierarchy, then run `regrids` structure-preserving
/// regrids. Returns the schedule counter deltas of the convergence
/// window (initialisation's level-creating regrids plus the passes up
/// to and including the one that confirms the fixed point) and of the
/// steady window after it.
fn run_steady(nx: i64, levels: usize, regrids: usize) -> (WindowStats, WindowStats) {
    let clock = Clock::new();
    let mut sim = HydroSim::new(
        Machine::ipa_cpu_node(),
        Placement::Host,
        clock.clone(),
        (1.0, 1.0),
        (nx, nx),
        levels,
        2,
        sod_config(16),
        sod_regions(),
        0,
        1,
    );
    let rec = Recorder::new(0, clock);
    sim.set_recorder(rec.clone());
    let counters = || {
        ["schedule.builds", "schedule.build_ns", "schedule.cache_hits", "schedule.cache_misses"]
            .map(|name| rec.counter(name))
    };
    let window = |regrids: usize, from: [u64; 4], to: [u64; 4]| WindowStats {
        regrids: regrids as u64,
        builds: to[0] - from[0],
        build_ns: to[1] - from[1],
        hits: to[2] - from[2],
        misses: to[3] - from[3],
    };

    let start = counters();
    sim.initialize(None);
    assert_eq!(sim.hierarchy().num_levels(), levels, "steady-regrid: deck must fill every level");
    // Convergence: the state is not advanced, so regridding reaches a
    // structural fixed point within a few passes.
    let passes = (1..=10).find(|_| !sim.regrid(None).any_changed());
    let passes = passes.expect("steady-regrid: hierarchy failed to converge");
    let fixed_point = counters();
    for _ in 0..regrids {
        let outcome = sim.regrid(None);
        assert!(!outcome.any_changed(), "steady-regrid: structure moved at a fixed point");
    }
    // Initialisation regrids once per level it creates.
    (window(levels - 1 + passes, start, fixed_point), window(regrids, fixed_point, counters()))
}

fn steady_regrid_mode(smoke: bool, json_path: Option<std::path::PathBuf>) {
    let (nx, levels, regrids) = if smoke { (32, 2, 8) } else { (64, 3, 32) };
    println!("Steady-regrid schedule caching: Sod {nx}x{nx}, {levels} levels, {regrids} regrids");

    let (converging, steady) = run_steady(nx, levels, regrids);

    let lookups = steady.hits + steady.misses;
    let hit_rate = steady.hits as f64 / lookups.max(1) as f64;
    let reduction = converging.build_ns_per_regrid() / steady.build_ns_per_regrid().max(1.0);
    println!(
        "  steady:     {} regrids, {} builds, {} ns build time, {}/{} lookups hit",
        steady.regrids, steady.builds, steady.build_ns, steady.hits, lookups
    );
    println!(
        "  converging: {} regrids, {} builds, {} ns build time",
        converging.regrids, converging.builds, converging.build_ns
    );
    println!(
        "  hit rate {:.1}%  build-time-per-regrid reduction {reduction:.1}x",
        hit_rate * 100.0
    );

    if let Some(path) = json_path {
        let body = format!(
            "{{\n  \"mode\": \"steady-regrid\",\n  \"nx\": {nx},\n  \"levels\": {levels},\n  \
             \"steady_regrids\": {regrids},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"hit_rate\": {hit_rate:.4},\n  \"steady_builds\": {},\n  \
             \"steady_build_ns\": {},\n  \"converging_regrids\": {},\n  \
             \"converging_builds\": {},\n  \"converging_build_ns\": {},\n  \
             \"build_time_reduction\": {reduction:.3}\n}}\n",
            steady.hits,
            steady.misses,
            steady.builds,
            steady.build_ns,
            converging.regrids,
            converging.builds,
            converging.build_ns,
        );
        std::fs::write(&path, body).expect("schedule_bench: write json");
        println!("wrote {}", path.display());
    }

    // Acceptance gates (CI smoke relies on these panicking on failure).
    assert!(steady.hits > 0, "steady regrids must hit the cache");
    assert_eq!(steady.misses, 0, "steady regrids must not miss: hit rate {hit_rate}");
    assert_eq!(steady.builds, 0, "steady regrids must perform zero schedule rebuilds");
    assert!(converging.builds > 0, "structure-changing regrids must build schedules");
    assert!(
        reduction >= 5.0,
        "schedule caching must cut build time per regrid >= 5x (got {reduction:.2}x)"
    );
    println!("steady-regrid: PASS");
}

/// Per-rank measurements from one partitioned-metadata configuration.
struct PartitionedRow {
    nranks: usize,
    patches: usize,
    global_records: usize,
    replicated_bytes: usize,
    max_partitioned_bytes: usize,
    indexed_ns: u128,
    partitioned_ns: u128,
}

/// `--partitioned`: owner-computes planning over owned + ghosted views
/// versus the replicated twin, with a live digest-verified exchange on
/// a simulated cluster. Reports per-rank metadata bytes and level-1
/// build time; asserts every rank's partitioned plans digest-match the
/// replicated build (and the brute-force oracle at the smallest size),
/// and that per-rank retention at the largest size is sublinear in the
/// global patch count.
fn partitioned_mode(smoke: bool, json_path: Option<std::path::PathBuf>) {
    // Retention only separates from the replicated footprint once the
    // level dwarfs the ghost margins, so the smoke sweep keeps a large
    // top size rather than a small one.
    let sizes: &[usize] = if smoke { &[64, 1024] } else { &[64, 256, 1024, 4096] };
    let reps = if smoke { 1 } else { 3 };
    let rank_counts: &[usize] = if smoke { &[8] } else { &[8, 16] };

    println!("Partitioned metadata: per-rank retention + build time vs replicated");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "ranks", "patches", "records", "repl(B)", "part-max(B)", "indexed(us)", "part(us)"
    );
    println!("{}", "-".repeat(78));

    let mut rows: Vec<PartitionedRow> = Vec::new();
    for &nranks in rank_counts {
        for &patches in sizes {
            let cluster = Cluster::new(Machine::ipa_cpu_node());
            let results = cluster.run(nranks, |comm| {
                let rank = comm.rank();
                let (h_rep, reg, var) = schedule_bench_hierarchy_sfc(patches, rank, comm.size());
                let (mut h_part, _, _) = schedule_bench_hierarchy_sfc(patches, rank, comm.size());
                // The production conversion: interest carving + allgatherv
                // exchange + digest-verified handshake.
                partition_hierarchy_metadata(&mut h_part, InterestMargins::default(), Some(&comm));
                let specs = [FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }];
                for level in 0..2 {
                    let part = ScheduleBuild::indexed().refine(&h_part, &reg, level, &specs);
                    let indexed = RefineSchedule::new(&h_rep, &reg, level, &specs);
                    assert_eq!(
                        part.plan_digest(),
                        indexed.plan_digest(),
                        "rank {rank}: partitioned plan diverges at level {level}, \
                         {patches} patches"
                    );
                    if patches <= 64 {
                        let oracle = RefineSchedule::new_bruteforce(&h_rep, &reg, level, &specs);
                        assert_eq!(part.plan_digest(), oracle.plan_digest());
                    }
                }
                let indexed_ns = median_ns(reps, || {
                    RefineSchedule::new(&h_rep, &reg, 1, &specs);
                });
                let partitioned_ns = median_ns(reps, || {
                    ScheduleBuild::indexed().refine(&h_part, &reg, 1, &specs);
                });
                let part_bytes: usize = (0..2)
                    .map(|l| h_part.level(l).view().expect("partitioned view").metadata_bytes())
                    .sum();
                let global_records: usize =
                    (0..2).map(|l| h_rep.level(l).global_boxes().len()).sum();
                (part_bytes, global_records, indexed_ns, partitioned_ns)
            });
            let global_records = results[0].value.1;
            let replicated_bytes = global_records * RECORD_BYTES;
            let max_partitioned_bytes = results.iter().map(|r| r.value.0).max().unwrap();
            let mut idx_ns: Vec<u128> = results.iter().map(|r| r.value.2).collect();
            let mut part_ns: Vec<u128> = results.iter().map(|r| r.value.3).collect();
            idx_ns.sort_unstable();
            part_ns.sort_unstable();
            let row = PartitionedRow {
                nranks,
                patches,
                global_records,
                replicated_bytes,
                max_partitioned_bytes,
                indexed_ns: idx_ns[idx_ns.len() / 2],
                partitioned_ns: part_ns[part_ns.len() / 2],
            };
            println!(
                "{:>6} {:>8} {:>10} {:>12} {:>12} {:>12.1} {:>12.1}",
                row.nranks,
                row.patches,
                row.global_records,
                row.replicated_bytes,
                row.max_partitioned_bytes,
                row.indexed_ns as f64 / 1e3,
                row.partitioned_ns as f64 / 1e3,
            );
            rows.push(row);
        }
    }

    if let Some(path) = json_path {
        let entries: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"nranks\": {}, \"patches\": {}, \"global_records\": {}, \
                     \"replicated_bytes\": {}, \"max_partitioned_bytes\": {}, \
                     \"indexed_ns\": {}, \"partitioned_ns\": {}}}",
                    r.nranks,
                    r.patches,
                    r.global_records,
                    r.replicated_bytes,
                    r.max_partitioned_bytes,
                    r.indexed_ns,
                    r.partitioned_ns
                )
            })
            .collect();
        let body = format!("[\n{}\n]\n", entries.join(",\n"));
        std::fs::write(&path, body).expect("schedule_bench: write json");
        println!("\nwrote {}", path.display());
    }

    // Acceptance gates (plan-digest agreement already asserted on every
    // rank inside the cluster): at the largest size every rank count
    // must retain well under the replicated footprint, and growing the
    // global patch count 4x must grow worst-rank retention strictly
    // slower (sublinear scaling).
    let largest = *sizes.last().unwrap();
    let smallest = sizes[0];
    for &nranks in rank_counts {
        let big = rows.iter().find(|r| r.nranks == nranks && r.patches == largest).unwrap();
        let small = rows.iter().find(|r| r.nranks == nranks && r.patches == smallest).unwrap();
        assert!(
            2 * big.max_partitioned_bytes < big.replicated_bytes,
            "{nranks} ranks, {largest} patches: partitioned retention \
             {} B is not well under replicated {} B",
            big.max_partitioned_bytes,
            big.replicated_bytes
        );
        let growth = big.max_partitioned_bytes as f64 / small.max_partitioned_bytes as f64;
        let global_growth = big.global_records as f64 / small.global_records as f64;
        assert!(
            growth < global_growth,
            "{nranks} ranks: retention grew {growth:.2}x against a \
             {global_growth:.2}x global growth — not sublinear"
        );
    }
    println!("partitioned: PASS");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = path_arg("--json");
    if std::env::args().any(|a| a == "--partitioned") {
        partitioned_mode(smoke, json_path);
        return;
    }
    if std::env::args().any(|a| a == "--steady-regrid") {
        steady_regrid_mode(smoke, json_path);
        return;
    }
    let (sizes, reps): (&[usize], usize) =
        if smoke { (&[64, 256], 1) } else { (&[64, 256, 1024, 4096], 5) };

    println!("Schedule-build scaling: indexed vs brute-force (rank 0 of 4)");
    println!("{:>8} {:>14} {:>14} {:>9}", "patches", "indexed(us)", "brute(us)", "speedup");
    println!("{}", "-".repeat(49));

    let mut rows = Vec::new();
    for &patches in sizes {
        let (h, reg, var) = schedule_bench_hierarchy(patches, 0, 4);
        let specs = [FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }];
        // Warm-up (allocator, page faults), then measure.
        RefineSchedule::new(&h, &reg, 1, &specs);
        let indexed = median_ns(reps, || {
            RefineSchedule::new(&h, &reg, 1, &specs);
        });
        let brute = median_ns(reps, || {
            RefineSchedule::new_bruteforce(&h, &reg, 1, &specs);
        });
        let speedup = brute as f64 / indexed as f64;
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>8.2}x",
            patches,
            indexed as f64 / 1e3,
            brute as f64 / 1e3,
            speedup
        );
        rows.push((patches, indexed, brute, speedup));
    }

    if let Some(path) = json_path {
        let entries: Vec<String> = rows
            .iter()
            .map(|(p, i, b, s)| {
                format!(
                    "  {{\"patches\": {p}, \"indexed_ns\": {i}, \"brute_ns\": {b}, \
                     \"speedup\": {s:.3}}}"
                )
            })
            .collect();
        let body = format!("[\n{}\n]\n", entries.join(",\n"));
        std::fs::write(&path, body).expect("schedule_bench: write json");
        println!("\nwrote {}", path.display());
    }
}
