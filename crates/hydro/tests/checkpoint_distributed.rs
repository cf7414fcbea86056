//! Distributed checkpoint/restore: a checkpoint saved by a multi-rank
//! run must restore into fresh simulations, at its own or any smaller
//! rank count, and replay the uninterrupted trajectory bitwise — the
//! recovery deck's frozen digests (`deck_digests`).
//!
//! Digests straight after a restore are not compared: the re-priming
//! fill refreshes ghost cells the running simulation had left stale,
//! and the first step's fill erases the difference.

mod deck_digests;

use deck_digests::{Deck, RankState};
use proptest::prelude::*;
use rbamr_amr::restart::Database;
use rbamr_hydro::{HydroSim, Placement};
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::Machine;

const DECK: Deck = Deck::Sod24;
/// Every checkpoint is saved after this many steps.
const SAVE_STEP: usize = 3;

fn build(comm: &Comm) -> HydroSim {
    DECK.sim(Placement::Host, comm.clock().clone(), comm.rank(), comm.size())
}

/// This rank's state after each of `steps` further steps.
fn step_states(sim: &mut HydroSim, comm: &Comm, steps: usize) -> Vec<RankState> {
    let mut step = || {
        sim.run_steps(1, Some(comm));
        RankState::of(sim)
    };
    (0..steps).map(|_| step()).collect()
}

/// Assert the deck digest after each step following the save, from
/// every rank's [`step_states`].
fn assert_replay(ranks: &[Vec<RankState>], what: &str) {
    for s in 0..ranks[0].len() {
        DECK.assert_step(SAVE_STEP + 1 + s, ranks.iter().map(|r| r[s]), what);
    }
}

/// The manifest an `n`-rank run saves, which must be identical on
/// every rank.
fn save_at(n: usize) -> Vec<u8> {
    let saved = Cluster::new(Machine::ipa_cpu_node()).run(n, |comm| {
        let mut sim = build(&comm);
        sim.initialize(Some(&comm));
        sim.run_steps(SAVE_STEP, Some(&comm));
        sim.try_save_checkpoint(Some(&comm))
            .expect("a fault-free distributed save succeeds")
            .to_bytes()
    });
    for r in &saved[1..] {
        assert_eq!(r.value, saved[0].value, "the global manifest must be identical on every rank");
    }
    saved.into_iter().next().expect("one rank at least").value
}

/// Restore `manifest` at `m` ranks and replay `steps` steps.
fn replay(manifest: &[u8], m: usize, steps: usize) -> Vec<Vec<RankState>> {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(m, |comm| {
        let db = Database::from_bytes(manifest).expect("manifest decodes");
        let mut sim = build(&comm);
        sim.try_restore_checkpoint(&db, Some(&comm))
            .expect("a rank-count-independent manifest restores at any rank count");
        assert_eq!(sim.steps_taken(), SAVE_STEP);
        step_states(&mut sim, &comm, steps)
    });
    results.into_iter().map(|r| r.value).collect()
}

/// Save at step 3, restore into a simulation of the same two ranks that
/// never ran a step, and replay four steps.
#[test]
fn replicated_roundtrip_replays_bitwise_at_two_ranks() {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(2, |comm| {
        let mut original = build(&comm);
        original.initialize(Some(&comm));
        original.run_steps(SAVE_STEP, Some(&comm));
        let ckpt = original
            .try_save_checkpoint(Some(&comm))
            .expect("a fault-free distributed save succeeds");

        let mut restored = build(&comm);
        restored
            .try_restore_checkpoint(&ckpt, Some(&comm))
            .expect("a just-saved checkpoint restores cleanly");
        assert_eq!(restored.steps_taken(), original.steps_taken());
        assert_eq!(restored.time(), original.time());
        assert_eq!(
            restored.hierarchy().num_levels(),
            original.hierarchy().num_levels(),
            "restore must rebuild the full hierarchy"
        );
        step_states(&mut restored, &comm, 4)
    });
    let ranks: Vec<_> = results.into_iter().map(|r| r.value).collect();
    assert_replay(&ranks, "2-rank checkpoint restored at 2 ranks");
}

/// The elastic-recovery acceptance at the checkpoint layer: a manifest
/// written by a 2-rank run is identical on every rank, restores into a
/// 1-rank simulation, and replays the deck's trajectory bitwise.
#[test]
fn replicated_two_rank_checkpoint_restores_at_one_rank() {
    let manifest = save_at(2);
    assert_replay(&replay(&manifest, 1, 4), "2-rank checkpoint restored at 1 rank");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The rank-count-independence property behind elastic recovery: a
    /// checkpoint saved at step 3 by an N-rank run restores at ANY
    /// smaller rank count M (1 ≤ M < N), and the restored trajectory
    /// holds the deck's state bitwise, step for step.
    #[test]
    fn checkpoint_at_n_ranks_restores_bitwise_at_any_fewer(
        n in 2usize..6,
        m_sel in 0usize..4,
    ) {
        let m = 1 + m_sel % (n - 1);
        let manifest = save_at(n);
        assert_replay(&replay(&manifest, m, 3), &format!("{n}-rank checkpoint restored at {m}"));
    }
}
