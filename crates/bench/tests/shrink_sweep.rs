//! Acceptance sweep for elastic shrink-and-recover: a seeded `RankKill`
//! on the Sod and triple-point decks must complete with the survivors
//! holding the deck's frozen state digest (`deck_digests`), bitwise —
//! across 2–8 ranks. The rank-count-independent checkpoint manifest is
//! what makes this possible: survivors repartition the last adopted
//! checkpoint by patch identity, not by the original rank layout.
//!
//! One test per deck; each sweeps the rank counts.

#[path = "../../hydro/tests/deck_digests/mod.rs"]
mod deck_digests;

use deck_digests::{Deck, RankState};
use rbamr_hydro::{Placement, RecoveryPolicy, ResilienceError, ResilientSim};
use rbamr_netsim::{Cluster, FaultPlan, FaultRule};
use rbamr_perfmodel::Machine;
use rbamr_telemetry::Recorder;

const STEPS: usize = 8;
/// Mid-run kill: after the initial checkpoint, before the step-5
/// regrid/checkpoint, so recovery must roll back and replay.
const KILL_STEP: usize = 3;
const VICTIM: usize = 1;

fn policy() -> RecoveryPolicy {
    RecoveryPolicy { checkpoint_interval: 5, backoff_base: 0.05, ..RecoveryPolicy::default() }
}

/// Run `STEPS` resilient steps on `nranks` ranks; per-rank results in
/// ascending original-rank order.
fn run(
    deck: Deck,
    nranks: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Vec<Result<RankState, ResilienceError>> {
    let mut out: Vec<_> = Cluster::new(Machine::ipa_cpu_node())
        .with_fault_plan(plan)
        .run(nranks, move |comm| {
            let rank = comm.rank();
            let recorder = Recorder::new(rank, comm.clock().clone());
            let spec = deck.spec(Placement::Host, rank, nranks);
            let mut sim = ResilientSim::new(spec, policy, recorder, Some(&comm))?;
            sim.run_steps(STEPS, Some(&comm))?;
            let stats = sim.stats();
            assert_eq!(stats.shrinks, if comm.dead_ranks().is_empty() { 0 } else { 1 });
            assert_eq!(stats.rank_losses, comm.dead_ranks().len() as u64);
            Ok(RankState::of(sim.sim()))
        })
        .into_iter()
        .map(|r| (r.rank, r.value))
        .collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Kill rank `VICTIM` at `KILL_STEP` on `nranks` ranks and require the
/// survivors together to hold the deck's state after `STEPS` steps.
fn assert_shrink_reaches_the_deck_digest(deck: Deck) {
    for nranks in [2usize, 4, 8] {
        let plan = FaultPlan::new(
            1000 + nranks as u64,
            vec![FaultRule::rank_kill(VICTIM, KILL_STEP as u64)],
        );
        let killed = run(deck, nranks, plan, policy());

        assert_eq!(
            killed[VICTIM],
            Err(ResilienceError::Killed { rank: VICTIM, at_step: KILL_STEP }),
            "{deck:?}/{nranks}r: victim must report its own death"
        );
        let survivors =
            killed.iter().enumerate().filter(|&(orig, _)| orig != VICTIM).map(|(orig, outcome)| {
                *outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{deck:?}/{nranks}r: survivor {orig} failed: {e}"))
            });
        deck.assert_step(STEPS, survivors, &format!("{nranks}r, the survivors of the kill"));
    }
}

#[test]
fn sod_shrinks_event_driven_replicated() {
    assert_shrink_reaches_the_deck_digest(Deck::Sod24);
}

#[test]
fn triple_point_shrinks_event_driven_replicated() {
    assert_shrink_reaches_the_deck_digest(Deck::TriplePoint);
}

/// A loss that would shrink below `min_ranks` fails fast with the same
/// typed error on every survivor — no hang, no partial recovery.
#[test]
fn loss_below_min_ranks_fails_fast_on_every_survivor() {
    let policy = RecoveryPolicy { min_ranks: 4, ..policy() };
    let plan = FaultPlan::new(77, vec![FaultRule::rank_kill(VICTIM, KILL_STEP as u64)]);
    let results = run(Deck::Sod24, 4, plan, policy);
    assert_eq!(results[VICTIM], Err(ResilienceError::Killed { rank: VICTIM, at_step: KILL_STEP }));
    for orig in [0usize, 2, 3] {
        assert_eq!(
            results[orig],
            Err(ResilienceError::InsufficientRanks { survivors: 3, min_ranks: 4 }),
            "survivor {orig} must fail fast with the typed insufficient-ranks error"
        );
    }
}
