//! Property tests for cross-rank causal edge events: over random
//! message/collective scripts at 1–4 ranks, every recv edge pairs with
//! exactly one send edge, the causal DAG builds, per-rank attribution
//! buckets sum to the makespan, and replaying the same script yields
//! byte-identical trace and report artifacts.

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};
use rbamr_telemetry::{analyze, chrome_trace, report_text, EdgeKind, Recorder};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
enum Op {
    P2p { src: usize, dst: usize, tag: u64, bytes: usize },
    Collective(u8),
}

/// Decode raw generated tuples into a script valid for `n` ranks. A
/// script is executed by all ranks in order; sends are buffered
/// (non-blocking), so any script is deadlock-free: once every rank
/// reaches op `k`, op `k`'s send has been posted and its recv can
/// complete.
fn decode_ops(n: usize, raw: &[(u8, usize, usize, u64, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, src, off, tag, bytes)| {
            if n > 1 && kind < 3 {
                let src = src % n;
                let dst = (src + 1 + off % (n - 1)) % n;
                Op::P2p { src, dst, tag, bytes }
            } else {
                Op::Collective(kind % 4)
            }
        })
        .collect()
}

fn run_script(n: usize, ops: &[Op]) -> Vec<Recorder> {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(n, |comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        let mut comm = comm;
        comm.set_recorder(rec.clone());
        for op in ops {
            match *op {
                Op::P2p { src, dst, tag, bytes } => {
                    if comm.rank() == src {
                        comm.send(dst, tag, Bytes::from(vec![0u8; bytes]));
                    } else if comm.rank() == dst {
                        comm.recv(src, tag, Category::HaloExchange);
                    }
                }
                Op::Collective(0) => {
                    comm.allreduce_min(comm.rank() as f64);
                }
                Op::Collective(1) => {
                    comm.allreduce_max(comm.rank() as f64);
                }
                Op::Collective(2) => comm.barrier(Category::Synchronize),
                Op::Collective(_) => {
                    comm.allreduce_sum(comm.rank() as f64, Category::Regrid);
                }
            }
        }
        rec
    });
    results.into_iter().map(|r| r.value).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_recv_pairs_with_exactly_one_send(
        n in 1usize..5,
        raw in prop::collection::vec(
            (0u8..5, 0usize..4, 0usize..3, 0u64..4, 1usize..2048),
            0..20,
        )
    ) {
        let ops = decode_ops(n, &raw);
        let recs = run_script(n, &ops);
        // Channel keys are unique per side and recvs are covered by
        // sends one-to-one.
        let mut send_keys = HashSet::new();
        let mut recv_keys = HashSet::new();
        for rec in &recs {
            for e in rec.edges() {
                match e.kind {
                    EdgeKind::Send => {
                        prop_assert!(send_keys.insert(e.channel_key().unwrap()));
                    }
                    EdgeKind::Recv => {
                        prop_assert!(recv_keys.insert(e.channel_key().unwrap()));
                    }
                    EdgeKind::Collective => {}
                }
            }
        }
        prop_assert_eq!(&send_keys, &recv_keys);
        let analysis = analyze(&recs).expect("causal DAG must build");
        prop_assert_eq!(analysis.edges_matched, recv_keys.len());
        prop_assert_eq!(analysis.unmatched_sends, 0);
        for rb in &analysis.ranks {
            let err = (rb.buckets.total() - analysis.makespan).abs();
            prop_assert!(
                err <= 1e-9 * analysis.makespan.max(1e-12),
                "rank {} buckets sum {} vs makespan {}",
                rb.rank, rb.buckets.total(), analysis.makespan
            );
        }
    }

    #[test]
    fn same_script_yields_byte_identical_artifacts(
        n in 1usize..5,
        raw in prop::collection::vec(
            (0u8..5, 0usize..4, 0usize..3, 0u64..4, 1usize..2048),
            0..20,
        )
    ) {
        let ops = decode_ops(n, &raw);
        let a = run_script(n, &ops);
        let b = run_script(n, &ops);
        prop_assert_eq!(chrome_trace(&a), chrome_trace(&b));
        let ra = report_text(&analyze(&a).expect("causal DAG must build"));
        let rb = report_text(&analyze(&b).expect("causal DAG must build"));
        prop_assert_eq!(ra, rb);
    }
}
