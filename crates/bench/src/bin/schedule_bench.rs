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
//! ```
//!
//! `--smoke` restricts the sweep to 64/256 patches with one repetition
//! (CI). `--json PATH` writes the measurements for the perf trajectory.
//!
//! At every size the run also gates the owner-only walk: on a simulated
//! cluster of 8 and of 16 ranks, with owners from the production
//! space-filling-curve partitioner, the worst rank's
//! `schedule.candidate_pairs` for one level-1 build must equal
//! [`PINNED_PAIRS`]. The count is deterministic; a build that walked
//! destinations no end of which the rank owns would exceed it.
//!
//! It also counts the heap allocations of one indexed build (rank 0 of
//! 4) with a counting global allocator and fails when the count per
//! destination — per fine patch — exceeds [`PINNED_ALLOCS`] by more
//! than a quarter: the box calculus under a build allocates only what
//! the schedule keeps, and the gate keeps it that way.

use rbamr_amr::ops::ConservativeCellRefine;
use rbamr_amr::schedule::FillSpec;
use rbamr_amr::RefineSchedule;
use rbamr_bench::{path_arg, schedule_bench_hierarchy, schedule_bench_hierarchy_sfc};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
use rbamr_telemetry::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The system allocator, counting allocation calls (a `realloc` goes
/// through `alloc`, so growth counts too).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and guards no
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations of one indexed level-1 build on rank 0 of 4, by
/// fine patches, measured when the box calculus stopped allocating
/// temporaries; a build may make at most 1.25x as many.
const PINNED_ALLOCS: [(usize, u64); 2] = [(64, 244), (256, 876)];

/// Worst-rank candidate pairs of one level-1 build, by (ranks, fine
/// patches), recorded at dfaef24.
const PINNED_PAIRS: [(usize, usize, u64); 8] = [
    (8, 64, 289),
    (8, 256, 696),
    (8, 1024, 1908),
    (8, 4096, 6060),
    (16, 64, 289),
    (16, 256, 576),
    (16, 1024, 1296),
    (16, 4096, 3600),
];

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

/// The worst rank's `schedule.candidate_pairs` for one level-1 build
/// over `patches` fine patches on `nranks` ranks.
fn worst_rank_pairs(patches: usize, nranks: usize) -> u64 {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(nranks, |comm| {
        let rank = comm.rank();
        let (mut h, reg, var) = schedule_bench_hierarchy_sfc(patches, rank, nranks);
        h.set_recorder(Recorder::new(rank, comm.clock().clone()));
        let specs = [FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }];
        RefineSchedule::new(&h, &reg, 1, &specs);
        h.recorder().counter("schedule.candidate_pairs")
    });
    results.iter().map(|r| r.value).max().expect("at least one rank")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = path_arg("--json");
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

    println!("\nHeap allocations of one indexed level-1 build (rank 0 of 4)");
    for &patches in sizes.iter().filter(|&&p| p <= 256) {
        let (h, reg, var) = schedule_bench_hierarchy(patches, 0, 4);
        let specs = [FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }];
        let before = ALLOCS.load(Ordering::Relaxed);
        let sched = RefineSchedule::new(&h, &reg, 1, &specs);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        drop(sched);
        let pinned = PINNED_ALLOCS.iter().find(|p| p.0 == patches);
        let pinned = pinned.expect("a pinned count for every gated size").1;
        let per_dst = allocs as f64 / patches as f64;
        println!(
            "{patches:>5} patches: {allocs} allocations, {per_dst:.2} per destination (pinned {pinned})"
        );
        assert!(
            allocs as f64 <= 1.25 * pinned as f64,
            "{patches} patches: {allocs} allocations, more than 1.25x the pinned {pinned}"
        );
    }

    println!("\nOwner-only walk: worst-rank candidate pairs of a level-1 build");
    for &patches in sizes {
        for nranks in [8, 16] {
            let pairs = worst_rank_pairs(patches, nranks);
            let pinned = PINNED_PAIRS.iter().find(|p| (p.0, p.1) == (nranks, patches));
            let pinned = pinned.expect("a pinned count for every swept size").2;
            println!("{nranks:>3} ranks, {patches:>5} patches: {pairs} (pinned {pinned})");
            assert_eq!(pairs, pinned, "{nranks} ranks, {patches} patches: candidate pairs moved");
        }
    }
    println!("owner-only walk: PASS");
}
