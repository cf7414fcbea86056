//! The deck digests (`deck_digests/mod.rs`) across rank counts and
//! placements: a run's merged state after initialisation and after each
//! step equals the deck's frozen word, bitwise.
//!
//! Every deck runs at 1, 2, 3, 4, 5 and 8 ranks, the placement turning
//! with the rank count and starting one further on for each deck. So
//! each deck runs every placement twice, and each rank count runs every
//! placement once across the decks: every pair of deck, rank count and
//! placement is covered in 18 runs, where the full product is 54 (three
//! times the dev-profile wall time, and `device_equivalence` already
//! holds the placements equal run by run).

mod deck_digests;

use deck_digests::{deck_digest, Deck, RankState, RANKS, STEPS};
use rbamr_hydro::Placement;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;

const PLACEMENTS: [Placement; 3] = [Placement::Host, Placement::Device, Placement::DeviceCopyBack];

/// The deck digest after initialisation and after each step.
fn trajectory(deck: Deck, placement: Placement, nranks: usize) -> Vec<u64> {
    let ranks = Cluster::new(Machine::ipa_cpu_node()).run(nranks, |comm| {
        let mut sim = deck.sim(placement, comm.clock().clone(), comm.rank(), nranks);
        sim.initialize(Some(&comm));
        let mut states = vec![RankState::of(&sim)];
        for _ in 0..STEPS {
            sim.step(Some(&comm));
            states.push(RankState::of(&sim));
        }
        states
    });
    (0..=STEPS).map(|s| deck_digest(ranks.iter().map(|r| r.value[s]))).collect()
}

/// Run `deck` at every rank count; `turn` is the deck's placement
/// offset.
fn check(deck: Deck, turn: usize) {
    let frozen: Vec<u64> = (0..=STEPS).map(|s| deck.digest(s)).collect();
    for (i, nranks) in RANKS.into_iter().enumerate() {
        let placement = PLACEMENTS[(i + turn) % PLACEMENTS.len()];
        let measured = trajectory(deck, placement, nranks);
        assert!(
            measured == frozen,
            "{deck:?}, {placement:?}, {nranks} ranks: left the frozen digests: {measured:#x?}"
        );
    }
}

#[test]
fn sod24_is_rank_count_invariant() {
    check(Deck::Sod24, 0);
}

#[test]
fn triple_point_is_rank_count_invariant() {
    check(Deck::TriplePoint, 1);
}

#[test]
fn sod48_is_rank_count_invariant() {
    check(Deck::Sod48, 2);
}
