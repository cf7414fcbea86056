//! Acceptance sweep for elastic shrink-and-recover (ISSUE 10): a seeded
//! `RankKill` on the Sod and triple-point decks must complete with
//! `state_field_digest` bitwise-identical to a fault-free run at the
//! surviving rank count — across 2–8 ranks and both metadata modes.
//! The rank-count-independent checkpoint manifest is what makes this
//! possible: survivors repartition the last adopted checkpoint by patch
//! identity, not by the original rank layout.
//!
//! One test per (deck, metadata mode) cell; each sweeps the
//! rank counts so the per-cell cost stays bounded while the full
//! cross-product is still exercised.

use rbamr_hydro::{
    HydroConfig, MetadataMode, Placement, RecoveryPolicy, ResilienceError, ResilientSim, SimSpec,
};
use rbamr_netsim::{Cluster, FaultPlan, FaultRule};
use rbamr_perfmodel::Machine;
use rbamr_problems::{sod_regions, triple_point_regions, TRIPLE_POINT_EXTENT};
use rbamr_telemetry::Recorder;

const STEPS: usize = 8;
/// Mid-run kill: after the initial checkpoint, before the step-5
/// regrid/checkpoint, so recovery must roll back and replay.
const KILL_STEP: usize = 3;
const VICTIM: usize = 1;

#[derive(Clone, Copy, Debug)]
enum Deck {
    Sod,
    TriplePoint,
}

fn spec(deck: Deck, mode: MetadataMode, rank: usize, nranks: usize) -> SimSpec {
    let (extent, coarse_cells, regions) = match deck {
        Deck::Sod => ((1.0, 1.0), (24, 24), sod_regions()),
        Deck::TriplePoint => (TRIPLE_POINT_EXTENT, (28, 12), triple_point_regions()),
    };
    let mut config =
        HydroConfig { regrid_interval: 5, max_patch_size: 8, ..HydroConfig::default() };
    config.regrid.cluster.min_size = 4;
    config.regrid.metadata_mode = mode;
    SimSpec {
        machine: Machine::ipa_cpu_node(),
        placement: Placement::Host,
        extent,
        coarse_cells,
        max_levels: 2,
        ratio: 2,
        config,
        regions,
        rank,
        nranks,
    }
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy { checkpoint_interval: 5, backoff_base: 0.05, ..RecoveryPolicy::default() }
}

/// Run `STEPS` resilient steps on `nranks` ranks; per-rank results in
/// ascending original-rank order.
fn run(
    deck: Deck,
    mode: MetadataMode,
    nranks: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Vec<Result<u64, ResilienceError>> {
    let mut out: Vec<_> = Cluster::new(Machine::ipa_cpu_node())
        .with_fault_plan(plan)
        .run(nranks, move |comm| {
            let rank = comm.rank();
            let recorder = Recorder::new(rank, comm.clock().clone());
            let mut sim =
                ResilientSim::new(spec(deck, mode, rank, nranks), policy, recorder, Some(&comm))?;
            sim.run_steps(STEPS, Some(&comm))?;
            let stats = sim.stats();
            assert_eq!(stats.shrinks, if comm.dead_ranks().is_empty() { 0 } else { 1 });
            assert_eq!(stats.rank_losses, comm.dead_ranks().len() as u64);
            Ok(sim.sim().state_field_digest())
        })
        .into_iter()
        .map(|r| (r.rank, r.value))
        .collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Kill rank `VICTIM` at `KILL_STEP` on `nranks` ranks and require the
/// survivors' digests to match a fault-free run at `nranks - 1`.
fn assert_shrink_matches_survivor_baseline(deck: Deck, mode: MetadataMode) {
    for nranks in [2usize, 4, 8] {
        let baseline = run(deck, mode, nranks - 1, FaultPlan::none(), policy());
        let plan = FaultPlan::new(
            1000 + nranks as u64,
            vec![FaultRule::rank_kill(VICTIM, KILL_STEP as u64)],
        );
        let killed = run(deck, mode, nranks, plan, policy());

        assert_eq!(
            killed[VICTIM],
            Err(ResilienceError::Killed { rank: VICTIM, at_step: KILL_STEP }),
            "{deck:?}/{mode:?}/{nranks}r: victim must report its own death"
        );
        // Survivors in ascending original-rank order take logical
        // ranks 0.. after the shrink; each must match the fault-free
        // run at the surviving rank count bitwise.
        let mut logical = 0;
        for (orig, outcome) in killed.iter().enumerate() {
            if orig == VICTIM {
                continue;
            }
            let digest = outcome.as_ref().unwrap_or_else(|e| {
                panic!("{deck:?}/{mode:?}/{nranks}r: survivor {orig} failed: {e}")
            });
            let expect = baseline[logical].as_ref().expect("fault-free baseline cannot fail");
            assert_eq!(
                digest,
                expect,
                "{deck:?}/{mode:?}/{nranks}r: survivor {orig} (logical {logical}) \
                 diverged from the {}-rank fault-free baseline",
                nranks - 1
            );
            logical += 1;
        }
    }
}

#[test]
fn sod_shrinks_event_driven_replicated() {
    assert_shrink_matches_survivor_baseline(Deck::Sod, MetadataMode::Replicated);
}

#[test]
fn sod_shrinks_event_driven_partitioned() {
    assert_shrink_matches_survivor_baseline(Deck::Sod, MetadataMode::Partitioned);
}

#[test]
fn triple_point_shrinks_event_driven_replicated() {
    assert_shrink_matches_survivor_baseline(Deck::TriplePoint, MetadataMode::Replicated);
}

#[test]
fn triple_point_shrinks_event_driven_partitioned() {
    assert_shrink_matches_survivor_baseline(Deck::TriplePoint, MetadataMode::Partitioned);
}

/// A loss that would shrink below `min_ranks` fails fast with the same
/// typed error on every survivor — no hang, no partial recovery.
#[test]
fn loss_below_min_ranks_fails_fast_on_every_survivor() {
    let policy = RecoveryPolicy { min_ranks: 4, ..policy() };
    let plan = FaultPlan::new(77, vec![FaultRule::rank_kill(VICTIM, KILL_STEP as u64)]);
    let results = run(Deck::Sod, MetadataMode::Replicated, 4, plan, policy);
    assert_eq!(results[VICTIM], Err(ResilienceError::Killed { rank: VICTIM, at_step: KILL_STEP }));
    for orig in [0usize, 2, 3] {
        assert_eq!(
            results[orig],
            Err(ResilienceError::InsufficientRanks { survivors: 3, min_ranks: 4 }),
            "survivor {orig} must fail fast with the typed insufficient-ranks error"
        );
    }
}
