//! Collective correctness under any schedule.
//!
//! *Reductions* have one execution (a rendezvous charged at the
//! log-depth cost), so there is no second algorithm to diff against:
//! every result is checked against the value folded directly from the
//! script, and every call is checked for what it must and must not do —
//! no frame on the wire, exactly one `net.collectives` and one
//! collective causal edge, a clock advance of exactly
//! `CostModel::allreduce(n, spec.bytes)`. `allreduce-sum` contributions
//! are integer-valued so the arrival-order fold is exact.
//!
//! *Payload-moving* collectives (gather / broadcast / allgatherv) run
//! as messages under two algorithms: `Flat` is the semantic reference,
//! `RecursiveDoubling` (production) must reproduce its gathered /
//! broadcast bytes and logical accounting counters exactly. Wire-level
//! observables (frame counts, causal edges, virtual time) legitimately
//! differ, so those are checked for *per-algorithm* self-consistency:
//! a multi-worker schedule must match the deterministic `workers = 1`
//! round-robin counter-for-counter and edge-for-edge, and the causal
//! edge stream must form a complete DAG (no unmatched sends, no
//! stalls).

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_netsim::{
    Cluster, CollectiveAlgo, CollectiveOp, Comm, CommError, FaultKind, FaultPlan, FaultRule,
    ReduceSpec,
};
use rbamr_perfmodel::{Category, Machine, TimeBreakdown};
use rbamr_telemetry::Recorder;

/// One collective in a script; roots are picked modulo the rank count.
#[derive(Clone, Debug)]
enum Op {
    Reduce(Red),
    AllGather,
    Gather { root_pick: usize },
    Broadcast { root_pick: usize },
}

/// The reduction-shaped collectives, one per [`ReduceSpec`] constant.
#[derive(Clone, Copy, Debug)]
enum Red {
    Min,
    Max,
    SumInt,
    Digest,
    Barrier,
}

/// What a rank observed *semantically* — identical across algorithms.
#[derive(Debug, PartialEq)]
struct Semantics {
    /// The three result words of every reduction, in script order.
    collective_bits: Vec<u64>,
    /// FNV-1a over every gathered / broadcast payload, in order.
    payload_digest: u64,
    /// `net.collectives`: one per issued collective, any algorithm.
    collectives: u64,
    /// `net.collective_bytes`: logical payload bytes, any algorithm.
    collective_bytes: u64,
}

/// Full per-rank observation — identical across *schedules* for a fixed
/// algorithm, but not across algorithms.
#[derive(Debug, PartialEq)]
struct Observation {
    sem: Semantics,
    counters: std::collections::BTreeMap<String, u64>,
    edges: Vec<String>,
    time: TimeBreakdown,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn machine() -> Machine {
    Machine::ipa_cpu_node()
}

/// Deterministic per-(rank, op) payload with varying (possibly zero)
/// lengths so segment framing is exercised across size classes.
fn payload_for(rank: usize, i: usize) -> Bytes {
    let len = (rank * 13 + i * 7) % 50;
    Bytes::from(vec![(rank * 31 + i + 1) as u8; len])
}

/// The reduction `red` issues at script position `i` on rank `r`:
/// spec, this rank's contribution, charged category.
fn reduction(red: Red, r: usize, i: usize) -> (ReduceSpec, [u64; 3], Category) {
    let f = |v: f64| [v.to_bits(), 0, 0];
    match red {
        Red::Min => (ReduceSpec::MIN_F64, f(r as f64 - i as f64 * 0.5), Category::Timestep),
        Red::Max => (ReduceSpec::MAX_F64, f((r * 2) as f64 + i as f64), Category::Timestep),
        // Integer-valued so the sum is exact under any arrival order.
        Red::SumInt => (ReduceSpec::SUM_F64, f((r + i) as f64), Category::Other),
        Red::Digest => (
            ReduceSpec::DIGEST,
            [(r * 3 + i) as u64, 1u64 << (r % 64), r as u64 + 1],
            Category::Regrid,
        ),
        Red::Barrier => (ReduceSpec::BARRIER, [0; 3], Category::Other),
    }
}

/// The agreed result of `red` at position `i` over `n` ranks, folded
/// serially from the script with std arithmetic — independent of the
/// communicator and of `ReduceSpec::combine`.
fn expected_reduction(red: Red, n: usize, i: usize) -> [u64; 3] {
    let words: Vec<[u64; 3]> = (0..n).map(|r| reduction(red, r, i).1).collect();
    let f64s = || words.iter().map(|w| f64::from_bits(w[0]));
    match red {
        Red::Min => [f64s().fold(f64::INFINITY, f64::min).to_bits(), 0, 0],
        Red::Max => [f64s().fold(f64::NEG_INFINITY, f64::max).to_bits(), 0, 0],
        Red::SumInt => [f64s().sum::<f64>().to_bits(), 0, 0],
        Red::Digest => words
            .iter()
            .fold([0; 3], |a, w| [a[0].wrapping_add(w[0]), a[1] ^ w[1], a[2].wrapping_add(w[2])]),
        Red::Barrier => [0; 3],
    }
}

/// Issue one reduction and assert the per-call contract: nothing on the
/// wire, one collective counted and one collective edge, and the
/// clock advanced by exactly the modelled log-depth cost.
fn checked_reduce(
    comm: &Comm,
    rec: &Recorder,
    spec: ReduceSpec,
    words: [u64; 3],
    category: Category,
) -> [u64; 3] {
    const WATCHED: [&str; 4] =
        ["net.sends", "net.sends.kind15", "net.collectives", "net.edge.collectives"];
    let before = WATCHED.map(|k| rec.counter(k));
    let clock_before = comm.clock().snapshot().get(category);
    let out = comm.collective(CollectiveOp::Reduce { spec, words }, category).reduced();
    let delta: Vec<u64> = WATCHED.iter().zip(before).map(|(k, b)| rec.counter(k) - b).collect();
    assert_eq!(delta, [0, 0, 1, 1], "{}: counter deltas for {WATCHED:?}", spec.name);
    let cost = comm.cost_model().allreduce(comm.size() as u32, spec.bytes);
    assert_eq!(
        comm.clock().snapshot().get(category).to_bits(),
        (clock_before + cost).to_bits(),
        "{}: clock must advance by exactly allreduce({}, {})",
        spec.name,
        comm.size(),
        spec.bytes
    );
    out
}

fn run_ops(cluster: Cluster, nranks: usize, ops: &[Op]) -> (Vec<Observation>, Vec<Recorder>) {
    let ops = ops.to_vec();
    let results = cluster.run(nranks, move |comm| {
        let clock = comm.clock().clone();
        let mut comm = comm;
        let rec = Recorder::new(comm.rank(), clock);
        comm.set_recorder(rec.clone());
        let r = comm.rank();
        let n = comm.size();
        let mut bits = Vec::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Reduce(red) => {
                    let (spec, words, category) = reduction(*red, r, i);
                    bits.extend_from_slice(&checked_reduce(&comm, &rec, spec, words, category));
                }
                Op::AllGather => {
                    let parts = comm.allgatherv(payload_for(r, i), Category::Regrid);
                    assert_eq!(parts.len(), n);
                    for p in &parts {
                        fnv1a(&mut h, p);
                    }
                }
                Op::Gather { root_pick } => {
                    match comm.gather(root_pick % n, payload_for(r, i), Category::Regrid) {
                        Some(parts) => {
                            assert_eq!(parts.len(), n, "root sees every rank's part");
                            for p in &parts {
                                fnv1a(&mut h, p);
                            }
                        }
                        None => fnv1a(&mut h, b"\xffnot-root"),
                    }
                }
                Op::Broadcast { root_pick } => {
                    let root = root_pick % n;
                    let mine = (r == root).then(|| payload_for(root, i));
                    let got = comm.broadcast(root, mine, Category::Regrid).expect("fault-free");
                    assert_eq!(got, payload_for(root, i));
                    fnv1a(&mut h, &got);
                }
            }
        }
        let counters = rec.counters();
        let sem = Semantics {
            collective_bits: bits,
            payload_digest: h,
            collectives: *counters.get("net.collectives").unwrap_or(&0),
            collective_bytes: *counters.get("net.collective_bytes").unwrap_or(&0),
        };
        let obs = Observation {
            sem,
            counters,
            edges: rec.edges().iter().map(|e| format!("{e:?}")).collect(),
            time: comm.clock().snapshot(),
        };
        (obs, rec)
    });
    results.into_iter().map(|r| r.value).unzip()
}

const ALGOS: [CollectiveAlgo; 2] = [CollectiveAlgo::Flat, CollectiveAlgo::RecursiveDoubling];

/// Run `ops` under both payload algorithms and two schedules and check
/// the contract in the module docs.
fn check_algorithms(nranks: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let expected: Vec<u64> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Op::Reduce(red) => Some(expected_reduction(*red, nranks, i)),
            _ => None,
        })
        .flatten()
        .collect();
    let mut oracle: Option<Vec<Observation>> = None;
    for algo in ALGOS {
        let (sched, recs) =
            run_ops(Cluster::new(machine()).with_collectives(algo).with_workers(3), nranks, ops);
        // Per-algorithm: the causal edge stream must be a complete DAG.
        let analysis = rbamr_telemetry::analyze(&recs)
            .unwrap_or_else(|e| panic!("causal analysis under {algo:?}: {e}"));
        prop_assert_eq!(analysis.unmatched_sends, 0, "unmatched sends under {:?}", algo);
        // Per-algorithm: the schedule must not change any observable.
        let (round_robin, _) =
            run_ops(Cluster::new(machine()).with_collectives(algo).with_workers(1), nranks, ops);
        prop_assert_eq!(&sched, &round_robin, "schedules diverged under {:?}", algo);
        for o in &sched {
            prop_assert_eq!(&o.sem.collective_bits, &expected, "reductions vs script fold");
        }
        // Cross-algorithm: semantics must match the Flat oracle.
        match &oracle {
            None => oracle = Some(sched),
            Some(flat) => {
                for (f, s) in flat.iter().zip(&sched) {
                    prop_assert_eq!(&f.sem, &s.sem, "{:?} diverged from Flat", algo);
                }
            }
        }
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..1024).prop_map(|(kind, root_pick)| match kind {
        0 => Op::Reduce(Red::Min),
        1 => Op::Reduce(Red::Max),
        2 => Op::Reduce(Red::SumInt),
        3 => Op::Reduce(Red::Digest),
        4 => Op::Reduce(Red::Barrier),
        5 => Op::AllGather,
        6 => Op::Gather { root_pick },
        _ => Op::Broadcast { root_pick },
    })
}

proptest! {
    // Each case runs the script four times (two payload algorithms,
    // two schedules each); modest rank counts keep the suite fast while
    // covering power-of-two, odd, and prime communicator sizes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_scripts_are_algorithm_invariant(
        nranks in 2usize..48,
        ops in prop::collection::vec(op_strategy(), 1..6),
    ) {
        check_algorithms(nranks, &ops)?;
    }
}

#[test]
fn fixed_script_is_algorithm_invariant_across_sizes() {
    // Deterministic sweep over the boundary sizes the proptest may
    // miss: 2 (trivial trees), primes, non-powers-of-two (recursive
    // doubling's proxy phase, a rounded-up ⌈log₂N⌉ in the reduction
    // cost), exact powers of two, and the 128/512-rank regime the
    // benchmark and scale-smoke run at.
    let ops = [
        Op::AllGather,
        Op::Reduce(Red::Min),
        Op::Gather { root_pick: 3 },
        Op::Reduce(Red::Digest),
        Op::Broadcast { root_pick: 5 },
        Op::Reduce(Red::SumInt),
        Op::Reduce(Red::Barrier),
        Op::Reduce(Red::Max),
    ];
    for nranks in [2usize, 3, 5, 8, 12, 33, 64, 127, 128, 512] {
        check_algorithms(nranks, &ops).unwrap_or_else(|e| panic!("{nranks} ranks: {e}"));
    }
}

#[test]
fn log_depth_allgatherv_is_algorithm_invariant_at_512_ranks() {
    // The headline claim at the top of the tested rank range:
    // identical allgatherv results with O(N log N) frames (recursive
    // doubling) instead of Flat's O(N^2). Frame counts are read back from the `net.sends`
    // counters, which include collective-internal plumbing traffic.
    let nranks = 512usize;
    let ops = [Op::AllGather];
    let mut flat_sem: Option<Vec<Semantics>> = None;
    for algo in ALGOS {
        let (obs, _) =
            run_ops(Cluster::new(machine()).with_collectives(algo).with_workers(4), nranks, &ops);
        let frames: u64 =
            obs.iter().map(|o| o.counters.get("net.sends").copied().unwrap_or(0)).sum();
        let bound = match algo {
            // Every rank sends to every other rank.
            CollectiveAlgo::Flat => (nranks * (nranks - 1)) as u64,
            // ceil(log2 N) butterfly rounds, one frame per rank per
            // round, plus slack for the non-power-of-two proxy phase
            // (absent at 512).
            CollectiveAlgo::RecursiveDoubling => (nranks * (nranks.ilog2() as usize + 2)) as u64,
        };
        assert!(
            frames <= bound,
            "{algo:?}: {frames} frames for one allgatherv at {nranks} ranks (bound {bound})"
        );
        if algo == CollectiveAlgo::Flat {
            assert_eq!(frames, bound, "flat fan-out is exactly N*(N-1) frames");
        }
        let sem: Vec<Semantics> = obs.into_iter().map(|o| o.sem).collect();
        match &flat_sem {
            None => flat_sem = Some(sem),
            Some(flat) => assert_eq!(flat, &sem, "{algo:?} diverged from Flat at 512 ranks"),
        }
    }
}

#[test]
fn generic_entry_point_matches_legacy_wrappers() {
    use rbamr_netsim::collectives::f64_words;
    for algo in ALGOS {
        let results = Cluster::new(machine()).with_collectives(algo).run(5, move |comm| {
            let r = comm.rank() as f64;
            let wrapper = comm.allreduce_min(r, Category::Timestep);
            let generic = comm
                .collective(
                    CollectiveOp::Reduce { spec: ReduceSpec::MIN_F64, words: f64_words(r) },
                    Category::Timestep,
                )
                .reduced();
            assert_eq!(wrapper.to_bits(), generic[0], "min wrapper == generic");
            let wrapper =
                comm.allgatherv(Bytes::from(vec![comm.rank() as u8; 3]), Category::Regrid);
            let generic = comm
                .collective(
                    CollectiveOp::AllGather { payload: Bytes::from(vec![comm.rank() as u8; 3]) },
                    Category::Regrid,
                )
                .gathered();
            assert_eq!(wrapper, generic, "allgatherv wrapper == generic");
            comm.collective_algo()
        });
        for r in &results {
            assert_eq!(r.value, algo, "cluster knob reaches every rank");
        }
    }
}

/// The default schedule and the deterministic round-robin.
fn clusters() -> [Cluster; 2] {
    [Cluster::new(machine()), Cluster::new(machine()).with_workers(1)]
}

#[test]
fn injected_collective_fault_is_symmetric_at_128_ranks() {
    for cluster in clusters() {
        let plan = FaultPlan::new(11, vec![FaultRule::once_on(FaultKind::CollectiveFault, 77, 0)]);
        let results = cluster.with_fault_plan(plan).run(128, |comm| {
            let bad = comm.try_allreduce_min(comm.rank() as f64, Category::Timestep);
            let good = comm.try_allreduce_min(comm.rank() as f64, Category::Timestep);
            (bad, good)
        });
        for r in &results {
            assert_eq!(
                r.value.0,
                Err(CommError::CollectiveFault { name: "allreduce-min" }),
                "rank {}: every rank observes the one injected fault",
                r.rank
            );
            assert_eq!(r.value.1, Ok(0.0), "rank {}: the next collective is clean", r.rank);
        }
    }
}

#[test]
fn dead_rank_revokes_the_round_on_every_survivor_at_128_ranks() {
    for cluster in clusters() {
        let results = cluster.run(128, |comm| {
            if comm.rank() == 77 {
                comm.mark_dead();
                return None;
            }
            // Whether the death lands before the survivors enter the
            // collective or mid-rendezvous, every survivor observes the
            // same revocation instead of a result or a hang.
            Some(comm.try_allreduce_min(comm.rank() as f64, Category::Timestep))
        });
        for r in results.iter().filter(|r| r.rank != 77) {
            assert_eq!(
                r.value,
                Some(Err(CommError::Revoked { name: "allreduce-min" })),
                "rank {}",
                r.rank
            );
        }
    }
}
