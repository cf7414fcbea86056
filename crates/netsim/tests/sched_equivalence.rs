//! Schedule-equivalence tests: every worker count must be
//! indistinguishable from the deterministic `workers = 1` round-robin.
//!
//! Random communication scripts (point-to-point bursts plus
//! rendezvous collectives) run under the single-worker reference
//! schedule and at several worker counts, and every per-rank observable
//! is required to be *byte-identical*: received payload digests,
//! collective results (compared as bit patterns), telemetry counters,
//! the full causal edge stream (debug-formatted, which round-trips
//! every f64 exactly), and the final virtual clock. So that correctness
//! does not rest on two runs of one implementation agreeing, every run
//! also checks each received payload and each min/max result against
//! the value the script itself determines.
//!
//! `allreduce-sum` is deliberately absent from the scripts: its
//! accumulation order is rank-arrival order, the one documented
//! schedule dependence (tolerated as MPI_SUM roundoff);
//! min/max/barrier/digest are order-independent.

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine, TimeBreakdown};
use rbamr_telemetry::Recorder;

/// One round of a communication script: buffered sends, matching
/// receives (in script order), then one full-communicator collective.
#[derive(Clone, Debug)]
struct Round {
    /// `(src, dst, len)` point-to-point messages, src != dst.
    sends: Vec<(usize, usize, usize)>,
    /// 0 = allreduce-min, 1 = allreduce-max, 2 = barrier, 3 = digest.
    collective: u8,
}

/// Everything one rank observed, in forms that compare exactly.
#[derive(Debug, PartialEq)]
struct RankObservation {
    /// FNV-1a over every received payload, in receive order.
    recv_digest: u64,
    /// Bit patterns of every collective result.
    collective_bits: Vec<u64>,
    /// Full telemetry counter map.
    counters: std::collections::BTreeMap<String, u64>,
    /// Debug-formatted causal edge stream (exact f64 round-trip).
    edges: Vec<String>,
    /// Final virtual clock (exact f64 comparison via PartialEq).
    time: TimeBreakdown,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn run_script(cluster: Cluster, nranks: usize, script: &[Round]) -> Vec<RankObservation> {
    let results = cluster.run(nranks, |comm| {
        let clock = comm.clock().clone();
        let mut comm = comm;
        let rec = Recorder::new(comm.rank(), clock);
        comm.set_recorder(rec.clone());
        let mut recv_digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut collective_bits = Vec::new();
        for (round_idx, round) in script.iter().enumerate() {
            for (i, &(src, dst, len)) in round.sends.iter().enumerate() {
                let tag = (round_idx * 1000 + i) as u64;
                if src == comm.rank() {
                    let fill = (src * 7 + dst * 13 + round_idx) as u8;
                    comm.send(dst, tag, Bytes::from(vec![fill; len]));
                }
            }
            for (i, &(src, dst, len)) in round.sends.iter().enumerate() {
                let tag = (round_idx * 1000 + i) as u64;
                if dst == comm.rank() {
                    let payload = comm.recv(src, tag, Category::HaloExchange);
                    let fill = (src * 7 + dst * 13 + round_idx) as u8;
                    assert_eq!(&payload[..], vec![fill; len].as_slice(), "{src}->{dst} tag {tag}");
                    fnv1a(&mut recv_digest, &payload);
                }
            }
            let v = (comm.rank() * 31 + round_idx) as f64;
            match round.collective {
                0 => {
                    let min = comm.allreduce_min(v, Category::Timestep);
                    assert_eq!(min, round_idx as f64);
                    collective_bits.push(min.to_bits());
                }
                1 => {
                    let max = comm.allreduce_max(v, Category::Timestep);
                    assert_eq!(max, ((nranks - 1) * 31 + round_idx) as f64);
                    collective_bits.push(max.to_bits());
                }
                2 => {
                    comm.barrier(Category::Other);
                    collective_bits.push(0);
                }
                _ => {
                    let d = comm.allreduce_digest(
                        [v as u64, 1u64 << (comm.rank() % 64), 1],
                        Category::Regrid,
                    );
                    collective_bits.extend_from_slice(&d);
                }
            }
        }
        RankObservation {
            recv_digest,
            collective_bits,
            counters: rec.counters(),
            edges: rec.edges().iter().map(|e| format!("{e:?}")).collect(),
            time: comm.clock().snapshot(),
        }
    });
    results.into_iter().map(|r| r.value).collect()
}

fn machine() -> Machine {
    Machine::ipa_cpu_node()
}

fn script_strategy(nranks: usize) -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec(
        (prop::collection::vec((0..nranks, 0..nranks, 1usize..200), 0..12), 0u8..4).prop_map(
            |(sends, collective)| Round {
                sends: sends.into_iter().filter(|(a, b, _)| a != b).collect(),
                collective,
            },
        ),
        1..4,
    )
}

proptest! {
    // Each case runs the script four times (the round-robin + three
    // worker counts) at 64-128 simulated ranks; a handful of cases keeps the
    // suite fast while still shaking schedule-dependent divergence.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_scripts_are_schedule_invariant(
        nranks in 64usize..128,
        script in script_strategy(512),
    ) {
        // Clamp script endpoints into the sampled rank count.
        let script: Vec<Round> = script
            .into_iter()
            .map(|r| Round {
                sends: r
                    .sends
                    .into_iter()
                    .map(|(a, b, l)| (a % nranks, b % nranks, l))
                    .filter(|(a, b, _)| a != b)
                    .collect(),
                collective: r.collective,
            })
            .collect();
        let reference = run_script(Cluster::new(machine()).with_workers(1), nranks, &script);
        for workers in [2usize, 5, 8] {
            let sched = run_script(
                Cluster::new(machine()).with_workers(workers),
                nranks,
                &script,
            );
            prop_assert_eq!(
                &reference,
                &sched,
                "schedules diverged at {} ranks, {} workers",
                nranks,
                workers
            );
        }
    }
}

#[test]
fn fixed_dense_script_is_schedule_invariant_at_512_ranks() {
    // A deterministic dense script at the top of the issue's rank
    // range: ring halo exchange + alternating collectives.
    let nranks = 512;
    let mut sends = Vec::new();
    for r in 0..nranks {
        sends.push((r, (r + 1) % nranks, 64));
        sends.push((r, (r + nranks - 1) % nranks, 32));
    }
    let script = vec![
        Round { sends: sends.clone(), collective: 0 },
        Round { sends: sends.clone(), collective: 3 },
        Round { sends, collective: 2 },
    ];
    let reference = run_script(Cluster::new(machine()).with_workers(1), nranks, &script);
    let sched = run_script(Cluster::new(machine()).with_workers(4), nranks, &script);
    assert_eq!(reference, sched);
}

#[test]
fn default_worker_count_matches_the_round_robin() {
    // The worker count nobody pinned (available parallelism) must match
    // the deterministic schedule observation-for-observation.
    let nranks = 64;
    let sends: Vec<(usize, usize, usize)> =
        (0..nranks).map(|r| (r, (r * 7 + 1) % nranks, 16)).filter(|(a, b, _)| a != b).collect();
    let script = vec![Round { sends, collective: 1 }];
    let reference = run_script(Cluster::new(machine()).with_workers(1), nranks, &script);
    let sched = run_script(Cluster::new(machine()), nranks, &script);
    assert_eq!(reference, sched);
}
