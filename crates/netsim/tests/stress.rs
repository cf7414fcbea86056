//! Stress tests of the message-passing runtime: dense communication
//! patterns, interleaved collectives and point-to-point traffic, and
//! virtual-time accounting under load.

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};

fn cluster() -> Cluster {
    Cluster::new(Machine::ipa_cpu_node())
}

#[test]
fn all_to_all_exchange() {
    let n = 6;
    let results = cluster().run(n, |comm| {
        // Everyone sends its rank to everyone; everyone sums receipts.
        for dst in 0..comm.size() {
            if dst != comm.rank() {
                comm.send(dst, 1, Bytes::from(vec![comm.rank() as u8]));
            }
        }
        let mut sum = 0usize;
        for src in 0..comm.size() {
            if src != comm.rank() {
                sum += comm.recv(src, 1, Category::HaloExchange)[0] as usize;
            }
        }
        sum
    });
    let expect: usize = (0..n).sum();
    for r in &results {
        assert_eq!(r.value, expect - r.rank);
    }
}

#[test]
fn ring_pipeline_many_rounds() {
    let n: usize = 5;
    let rounds: usize = 50;
    let results = cluster().run(n, |comm| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let mut token = comm.rank() as u64;
        for round in 0..rounds {
            comm.send(next, round as u64, Bytes::from(token.to_le_bytes().to_vec()));
            let got = comm.recv(prev, round as u64, Category::HaloExchange);
            token = u64::from_le_bytes(got[..].try_into().unwrap()) + 1;
        }
        token
    });
    // Each token travelled `rounds` hops, +1 per hop, starting from the
    // rank `rounds` positions upstream.
    for r in &results {
        let origin = (r.rank + n - (rounds % n)) % n;
        assert_eq!(r.value, origin as u64 + rounds as u64);
    }
}

#[test]
fn interleaved_collectives_and_p2p() {
    // Collectives between point-to-point bursts must not deadlock or
    // cross-deliver (the hydro step's exact pattern).
    let results = cluster().run(4, |comm| {
        let mut acc = 0.0;
        for round in 0..20u64 {
            if comm.rank() % 2 == 0 && comm.rank() + 1 < comm.size() {
                comm.send(comm.rank() + 1, round, Bytes::from(vec![round as u8]));
            } else if comm.rank() % 2 == 1 {
                let b = comm.recv(comm.rank() - 1, round, Category::HaloExchange);
                assert_eq!(b[0] as u64, round);
            }
            acc += comm.allreduce_min(comm.rank() as f64 + round as f64);
            comm.barrier(Category::Other);
        }
        acc
    });
    let expect: f64 = (0..20).map(|r| r as f64).sum();
    for r in &results {
        assert_eq!(r.value, expect);
    }
}

#[test]
fn gather_broadcast_roundtrip_under_load() {
    let results = cluster().run(5, |comm| {
        let mut all_ok = true;
        for round in 0..10u8 {
            let mine = Bytes::from(vec![comm.rank() as u8, round]);
            let gathered = comm.gather(0, mine);
            let merged = if comm.rank() == 0 {
                let parts = gathered.unwrap();
                assert_eq!(parts.len(), comm.size());
                for (i, p) in parts.iter().enumerate() {
                    all_ok &= p[0] as usize == i && p[1] == round;
                }
                let mut m = Vec::new();
                for p in parts {
                    m.extend_from_slice(&p);
                }
                Some(Bytes::from(m))
            } else {
                None
            };
            let bcast = comm.broadcast(0, merged).expect("valid broadcast");
            all_ok &= bcast.len() == comm.size() * 2;
        }
        all_ok
    });
    assert!(results.iter().all(|r| r.value));
}

#[test]
fn message_costs_scale_with_size() {
    let results = cluster().run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, Bytes::from(vec![0u8; 1000]));
            comm.send(1, 1, Bytes::from(vec![0u8; 1_000_000]));
            0.0
        } else {
            let t0 = comm.clock().total();
            comm.recv(0, 0, Category::HaloExchange);
            let t1 = comm.clock().total();
            comm.recv(0, 1, Category::HaloExchange);
            let t2 = comm.clock().total();
            (t2 - t1) / (t1 - t0)
        }
    });
    // A 1000x bigger message costs much more, but less than 1000x
    // (latency floor).
    let ratio = results[1].value;
    assert!(ratio > 50.0 && ratio < 1000.0, "cost ratio {ratio}");
}

#[test]
fn thousand_rank_ring_with_collectives() {
    // The scaling regime the event-driven scheduler exists for: 1,024
    // simulated ranks on one box. Small carrier stacks keep the memory
    // footprint bounded.
    let n: usize = 1024;
    let results = Cluster::new(Machine::ipa_cpu_node())
        .with_workers(4)
        .with_stack_size(192 * 1024)
        .run(n, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, Bytes::from(vec![comm.rank() as u8; 8]));
            let got = comm.recv(prev, 0, Category::HaloExchange);
            assert_eq!(got[0], prev as u8);
            let dt = comm.allreduce_min(comm.rank() as f64 + 0.5);
            let hi = comm.allreduce_max(comm.rank() as f64);
            comm.barrier(Category::Other);
            (dt, hi)
        });
    assert_eq!(results.len(), n);
    for r in &results {
        assert_eq!(r.value, (0.5, (n - 1) as f64));
        assert!(r.time.total() > 0.0, "every rank charged virtual comm time");
    }
}

#[test]
fn panic_origin_propagates_with_queued_ready_ranks() {
    // Regression for a scheduler race: a rank that panics *after*
    // filling peers' mailboxes leaves those peers queued as ready, and
    // the poison notification must still beat them to delivery — every
    // surviving rank has to observe the origin's payload, never a
    // deadlock timeout or a bare PeerPanicked unwind. Repeated because
    // the race only fires on some worker interleavings.
    for _ in 0..50 {
        let caught = std::panic::catch_unwind(|| {
            Cluster::new(Machine::ipa_cpu_node()).with_workers(2).run(8, |comm| {
                let r = comm.rank();
                if r < 7 {
                    // All of 0..6 block receiving from rank 7.
                    let _ = comm.recv(7, r as u64, Category::HaloExchange);
                } else {
                    for dst in 0..7usize {
                        comm.send(dst, dst as u64, Bytes::from(vec![1u8; 4]));
                    }
                    panic!("boom-origin");
                }
            });
        });
        let err = caught.expect_err("a rank panicked, so run() must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string payload".to_string());
        assert!(msg.contains("boom-origin"), "wrong payload propagated: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random pairwise exchanges complete and deliver intact payloads
    /// for any (sender, receiver, size) pattern.
    #[test]
    fn random_exchange_patterns(
        pattern in prop::collection::vec((0usize..4, 0usize..4, 1usize..500), 1..20)
    ) {
        let pattern: Vec<(usize, usize, usize)> = pattern
            .into_iter()
            .filter(|(a, b, _)| a != b)
            .collect();
        let results = cluster().run(4, |comm| {
            let mut received = 0usize;
            // Sends first (buffered), then receives, per the plan order.
            for (i, &(src, dst, len)) in pattern.iter().enumerate() {
                if src == comm.rank() {
                    comm.send(dst, i as u64, Bytes::from(vec![(len % 251) as u8; len]));
                }
            }
            for (i, &(src, dst, len)) in pattern.iter().enumerate() {
                if dst == comm.rank() {
                    let b = comm.recv(src, i as u64, Category::Other);
                    assert_eq!(b.len(), len);
                    assert!(b.iter().all(|&x| x == (len % 251) as u8));
                    received += 1;
                }
            }
            received
        });
        let total: usize = results.iter().map(|r| r.value).sum();
        prop_assert_eq!(total, pattern.len());
    }
}
