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
//! cargo run --release -p rbamr-bench --bin schedule_bench -- --partitioned [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` restricts the sweep to 64/256 patches with one repetition
//! (CI). `--json PATH` writes the measurements for the perf trajectory.
//!
//! `--partitioned` measures the partitioned-metadata path on a
//! simulated cluster (8 and 16 ranks): each rank converts to an owned +
//! ghosted view through the digest-verified exchange, then plans with
//! the owner-computes `Partitioned` strategy. Reports worst-rank
//! retained metadata bytes against the replicated footprint and the
//! level-1 build time of both paths, asserting plan-digest agreement
//! with the replicated build and sublinear per-rank retention, and —
//! deterministic, unlike the times — that the replicated build's worst
//! rank walks at most 1.5x the partitioned build's candidate pairs.

use rbamr_amr::ops::ConservativeCellRefine;
use rbamr_amr::partition::RECORD_BYTES;
use rbamr_amr::schedule::FillSpec;
use rbamr_amr::{partition_hierarchy_metadata, InterestMargins, RefineSchedule, ScheduleBuild};
use rbamr_bench::{path_arg, schedule_bench_hierarchy, schedule_bench_hierarchy_sfc};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
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

/// Per-rank measurements from one partitioned-metadata configuration.
struct PartitionedRow {
    nranks: usize,
    patches: usize,
    global_records: usize,
    replicated_bytes: usize,
    max_partitioned_bytes: usize,
    indexed_ns: u128,
    partitioned_ns: u128,
    /// Worst-rank candidate pairs of a level-1 build: replicated, partitioned.
    max_pairs: (u64, u64),
}

/// `--partitioned`: owner-computes planning over owned + ghosted views
/// versus the replicated twin, with a live digest-verified exchange on
/// a simulated cluster. Reports per-rank metadata bytes and level-1
/// build time; asserts every rank's partitioned plans digest-match the
/// replicated build (and the brute-force oracle at the smallest size),
/// and, at the largest size, that per-rank retention is sublinear in the
/// global patch count and that the replicated build walks at most 1.5x
/// the partitioned build's candidate pairs.
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
                let (mut h_rep, reg, var) =
                    schedule_bench_hierarchy_sfc(patches, rank, comm.size());
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
                // A recorder on each hierarchy counts one level-1 build.
                let pairs = |h: &mut rbamr_amr::PatchHierarchy| {
                    h.set_recorder(Recorder::new(rank, comm.clock().clone()));
                    RefineSchedule::new(h, &reg, 1, &specs);
                    h.recorder().counter("schedule.candidate_pairs")
                };
                let pairs = (pairs(&mut h_rep), pairs(&mut h_part));
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
                (part_bytes, global_records, indexed_ns, partitioned_ns, pairs)
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
                max_pairs: results
                    .iter()
                    .map(|r| r.value.4)
                    .fold((0, 0), |m, (repl, part)| (m.0.max(repl), m.1.max(part))),
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
                     \"indexed_ns\": {}, \"partitioned_ns\": {}, \"max_pairs\": {:?}}}",
                    r.nranks,
                    r.patches,
                    r.global_records,
                    r.replicated_bytes,
                    r.max_partitioned_bytes,
                    r.indexed_ns,
                    r.partitioned_ns,
                    [r.max_pairs.0, r.max_pairs.1]
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
        let (repl, part) = big.max_pairs;
        println!("{nranks} ranks, {largest} patches: worst-rank candidate pairs {repl} vs {part}");
        assert!(2 * repl <= 3 * part, "replicated planning walks over 1.5x the partitioned");
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
