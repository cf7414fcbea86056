//! Checkpoint-rollback recovery under injected faults: transient faults
//! roll back and converge to the fault-free answer (the recovery deck's
//! frozen digest, `deck_digests`), persistent device faults degrade the
//! placement until the run survives, persistent communication faults
//! exhaust the retry budget with the same typed error on every rank,
//! and same-seed reruns reproduce identical fault sites and recovery
//! counters.

mod deck_digests;

use deck_digests::{Deck, RankState};
use rbamr_fault::{FaultKind, FaultPlan, FaultReport, FaultRule};
use rbamr_hydro::{
    Placement, RecoveryPolicy, RecoveryStats, ResilienceError, ResilientSim, SimError,
};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Clock, Machine};
use rbamr_telemetry::Recorder;

const DECK: Deck = Deck::Sod24;

fn cluster(plan: FaultPlan) -> Cluster {
    Cluster::new(Machine::ipa_cpu_node()).with_fault_plan(plan)
}

/// Per-rank outcome of a resilient cluster run, for cross-run and
/// cross-schedule comparison.
#[derive(Clone, Debug, PartialEq)]
struct RankOutcome {
    state: RankState,
    stats: RecoveryStats,
    report: FaultReport,
}

/// Run `steps` resilient Sod steps on `nranks` ranks under `plan`.
fn run_resilient(
    placement: Placement,
    nranks: usize,
    steps: usize,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Vec<Result<RankOutcome, ResilienceError>> {
    let mut out: Vec<_> = cluster(plan)
        .run(nranks, move |comm| {
            let rank = comm.rank();
            let recorder = Recorder::new(rank, comm.clock().clone());
            let spec = DECK.spec(placement, rank, nranks);
            let mut sim = ResilientSim::new(spec, policy, recorder, Some(&comm))?;
            sim.run_steps(steps, Some(&comm))?;
            let report =
                comm.fault_injector().expect("cluster ranks always carry an injector").report();
            Ok(RankOutcome { state: RankState::of(sim.sim()), stats: sim.stats(), report })
        })
        .into_iter()
        .map(|r| (r.rank, r.value))
        .collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, v)| v).collect()
}

#[test]
fn fault_free_resilient_run_matches_plain_run() {
    let steps = 7;
    let recorder = Recorder::new(0, Clock::new());
    let mut resilient = ResilientSim::new(
        DECK.spec(Placement::Host, 0, 1),
        RecoveryPolicy::default(),
        recorder.clone(),
        None,
    )
    .expect("fault-free initialisation cannot fail");
    resilient.run_steps(steps, None).expect("fault-free stepping cannot fail");

    // The deck digest is a plain run's: the recovery layer must be
    // invisible without faults.
    DECK.assert_step(steps, [RankState::of(resilient.sim())], "fault-free resilient run");
    assert_eq!(resilient.stats().rollbacks, 0);
    assert_eq!(resilient.placement(), Placement::Host);
    // Initial checkpoint + one per interval (5) over 7 steps.
    assert_eq!(resilient.stats().checkpoints, 2);
    assert_eq!(recorder.counter("recovery.checkpoints"), 2);
    assert_eq!(recorder.counter("recovery.rollbacks"), 0);
    assert_eq!(recorder.counter("recovery.degraded_steps"), 0);
}

#[test]
fn transient_collective_fault_rolls_back_and_converges() {
    let steps = 8;
    let faulty = run_resilient(
        Placement::Host,
        2,
        steps,
        // One collective poisoned mid-run on rank 0; the commit verdict
        // makes both ranks roll back together.
        FaultPlan::new(7, vec![FaultRule::once_on(FaultKind::CollectiveFault, 0, 12)]),
        RecoveryPolicy::default(),
    );
    let faulty: Vec<_> =
        faulty.iter().map(|r| r.as_ref().expect("a transient fault must be recovered")).collect();
    for (rank, fault) in faulty.iter().enumerate() {
        assert!(fault.stats.rollbacks >= 1, "rank {rank}: the fault must cause a rollback");
        assert_eq!(fault.stats.degradations, 0, "rank {rank}: comm faults never degrade");
    }
    DECK.assert_step(steps, faulty.iter().map(|r| r.state), "recovered collective fault");
    assert_eq!(
        faulty[0].stats, faulty[1].stats,
        "recovery decisions are collective: both ranks walk the same path"
    );
    assert_eq!(faulty[0].report.total_fired(), 1);
}

#[test]
fn transient_message_faults_roll_back_and_converge() {
    let steps = 8;
    let faulty = run_resilient(
        Placement::Host,
        2,
        steps,
        FaultPlan::new(
            11,
            vec![
                FaultRule::once_on(FaultKind::MsgDrop, 0, 30),
                FaultRule::once_on(FaultKind::MsgCorrupt, 1, 60),
            ],
        ),
        RecoveryPolicy::default(),
    );
    let faulty: Vec<_> = faulty
        .iter()
        .map(|r| r.as_ref().expect("transient message faults must be recovered"))
        .collect();
    for (rank, fault) in faulty.iter().enumerate() {
        assert!(fault.stats.rollbacks >= 1, "rank {rank}: faults must cause rollbacks");
    }
    DECK.assert_step(steps, faulty.iter().map(|r| r.state), "recovered message faults");
}

#[test]
fn persistent_device_fault_degrades_to_host_and_completes() {
    let steps = 5;
    let policy = RecoveryPolicy { backoff_base: 0.01, ..RecoveryPolicy::default() };
    let results = run_resilient(
        Placement::Device,
        1,
        steps,
        // Every allocation on the device fails, forever: the placement
        // must walk Device -> DeviceCopyBack -> Host to survive.
        FaultPlan::new(3, vec![FaultRule::persistent(FaultKind::AllocFail, 0, 0)]),
        policy,
    );
    let outcome = results[0].as_ref().expect("the run must survive by degrading to the host");
    assert_eq!(outcome.stats.degradations, 2, "Device -> DeviceCopyBack -> Host is two steps");
    assert!(
        outcome.stats.degraded_steps >= steps as u64,
        "every committed step ran below the preferred placement"
    );
    assert!(outcome.report.fired[FaultKind::AllocFail.index()] > 0);

    // The degraded run still computes real physics: the deck's.
    DECK.assert_step(steps, [outcome.state], "degraded to the host");
}

#[test]
fn degraded_placement_is_observable() {
    let policy =
        RecoveryPolicy { backoff_base: 0.01, degrade_after: 1, ..RecoveryPolicy::default() };
    let results = cluster(FaultPlan::new(
        5,
        vec![FaultRule::persistent(FaultKind::AllocFail, 0, 0)],
    ))
    .run(1, move |comm| {
        let recorder = Recorder::new(0, comm.clock().clone());
        let spec = DECK.spec(Placement::Device, 0, 1);
        let mut sim = ResilientSim::new(spec, policy, recorder.clone(), Some(&comm))
            .expect("must degrade to host and initialise");
        assert_eq!(sim.placement(), Placement::Host);
        sim.run_steps(2, Some(&comm)).expect("host placement has no device to fault");
        (sim.stats(), recorder.counter("recovery.degradations"), recorder.counter("fault.injected"))
    });
    let (stats, degradations_counter, injected) = results[0].value;
    assert_eq!(stats.degradations, 2);
    assert_eq!(degradations_counter, 2);
    assert!(injected > 0, "the device faults that drove degradation are counted");
}

#[test]
fn persistent_collective_fault_exhausts_retries_on_every_rank() {
    let policy = RecoveryPolicy { max_retries: 3, backoff_base: 0.01, ..RecoveryPolicy::default() };
    let results = run_resilient(
        Placement::Host,
        2,
        4,
        FaultPlan::new(13, vec![FaultRule::persistent(FaultKind::CollectiveFault, 0, 0)]),
        policy,
    );
    for (rank, result) in results.iter().enumerate() {
        let err = result.as_ref().expect_err("a persistent collective fault is unrecoverable");
        let ResilienceError::RetriesExhausted { attempts, last, .. } = err else {
            panic!("rank {rank}: expected RetriesExhausted, got {err:?}");
        };
        assert_eq!(*attempts, 3, "rank {rank}: the whole retry budget was spent");
        assert!(
            matches!(last, SimError::Comm { .. }),
            "rank {rank}: the verdict is a communication fault, got {last:?}"
        );
    }
}

#[test]
fn same_seed_reruns_reproduce_fault_sites_and_stats() {
    let plan = FaultPlan::new(
        99,
        vec![
            FaultRule::once_on(FaultKind::CollectiveFault, 1, 10),
            FaultRule::once_on(FaultKind::MsgDrop, 0, 40),
        ],
    );
    let a = run_resilient(Placement::Host, 2, 6, plan.clone(), RecoveryPolicy::default());
    let b = run_resilient(Placement::Host, 2, 6, plan, RecoveryPolicy::default());
    for (rank, (ra, rb)) in a.iter().zip(&b).enumerate() {
        let ra = ra.as_ref().expect("transient faults recover");
        let rb = rb.as_ref().expect("transient faults recover");
        assert_eq!(ra, rb, "rank {rank}: same seed must reproduce digests, stats and fault sites");
        assert!(ra.report.total_fired() > 0, "rank {rank}: the planned faults must fire");
    }
}

/// Permanent rank loss: the victim reports `Killed`, the survivor
/// detects the death structurally (no timeout), shrinks to one rank,
/// rolls back to the last adopted checkpoint, and replays to the deck
/// digest of a fault-free run, bitwise.
#[test]
fn rank_kill_shrinks_and_replays_to_the_survivor_baseline() {
    let steps = 8;

    let outcome = run_resilient(
        Placement::Host,
        2,
        steps,
        FaultPlan::new(21, vec![FaultRule::rank_kill(1, 3)]),
        RecoveryPolicy::default(),
    );
    assert!(
        matches!(outcome[1], Err(ResilienceError::Killed { rank: 1, at_step: 3 })),
        "the victim reports its own death, got {:?}",
        outcome[1]
    );
    let survivor = outcome[0].as_ref().expect("the survivor completes the run");
    DECK.assert_step(steps, [survivor.state], "the survivor of a kill");
    assert_eq!(survivor.stats.shrinks, 1);
    assert_eq!(survivor.stats.rank_losses, 1);
    assert!(survivor.stats.rollbacks >= 1, "the shrink rolls back to the checkpoint");
}

/// A kill firing *inside* the checkpoint-adoption collective: the
/// survivors' save is revoked (discarded collectively), the next step
/// fails structurally, and recovery shrinks as usual.
#[test]
fn rank_kill_during_checkpoint_adoption_is_survived() {
    let steps = 8;

    let outcome = run_resilient(
        Placement::Host,
        2,
        steps,
        // Step 5 is a checkpoint-interval step, so the victim dies
        // right before the survivors enter the adoption collective.
        FaultPlan::new(22, vec![FaultRule::rank_kill_at_adopt(1, 5)]),
        RecoveryPolicy::default(),
    );
    assert!(matches!(outcome[1], Err(ResilienceError::Killed { rank: 1, at_step: 5 })));
    let survivor = outcome[0].as_ref().expect("the survivor completes the run");
    DECK.assert_step(steps, [survivor.state], "the survivor of a kill in adoption");
    assert_eq!(survivor.stats.shrinks, 1);
}

/// Shrinking from four ranks to three renumbers the survivors: together
/// they hold the deck's fault-free state.
#[test]
fn four_rank_kill_replays_to_the_deck_digest() {
    let steps = 6;
    let outcome = run_resilient(
        Placement::Host,
        4,
        steps,
        FaultPlan::new(23, vec![FaultRule::rank_kill(1, 2)]),
        RecoveryPolicy::default(),
    );
    assert!(matches!(outcome[1], Err(ResilienceError::Killed { rank: 1, at_step: 2 })));
    let survivors: Vec<_> = [0usize, 2, 3]
        .map(|original| outcome[original].as_ref().expect("survivors complete"))
        .to_vec();
    for survivor in &survivors {
        assert_eq!(survivor.stats.rank_losses, 1);
    }
    DECK.assert_step(steps, survivors.iter().map(|r| r.state), "the three survivors");
}

/// A loss below the policy's rank floor fails fast — with the same
/// typed error on every survivor, not a hang.
#[test]
fn loss_below_min_ranks_fails_fast_on_every_survivor() {
    let policy = RecoveryPolicy { min_ranks: 2, ..RecoveryPolicy::default() };
    let outcome = run_resilient(
        Placement::Host,
        2,
        6,
        FaultPlan::new(24, vec![FaultRule::rank_kill(0, 2)]),
        policy,
    );
    assert!(matches!(outcome[0], Err(ResilienceError::Killed { rank: 0, at_step: 2 })));
    assert_eq!(
        outcome[1],
        Err(ResilienceError::InsufficientRanks { survivors: 1, min_ranks: 2 }),
        "the survivor must fail fast below the configured rank floor"
    );
}

/// Rank 1's device transfers evaluated by a fault-free 2-rank device
/// run: after initialisation (and its checkpoint), then after each of
/// `steps` steps (and any checkpoint adopted in it). A one-shot rule at
/// `marks[s]` hits the first transfer of step `s + 1`.
fn rank_1_transfer_marks(steps: usize, policy: RecoveryPolicy) -> Vec<u64> {
    let counting = FaultRule {
        kind: FaultKind::CopyFail,
        ranks: None,
        after: 0,
        count: u64::MAX,
        probability: 0.0,
    };
    let results = cluster(FaultPlan::new(41, vec![counting])).run(2, move |comm| {
        let recorder = Recorder::new(comm.rank(), comm.clock().clone());
        let spec = DECK.spec(Placement::Device, comm.rank(), 2);
        let mut sim = ResilientSim::new(spec, policy, recorder, Some(&comm)).expect("fault-free");
        let injector = comm.fault_injector().expect("cluster ranks always carry an injector");
        let evaluated = || injector.report().evaluated[FaultKind::CopyFail.index()];
        let mut marks = vec![evaluated()];
        for _ in 0..steps {
            sim.step(Some(&comm)).expect("fault-free");
            marks.push(evaluated());
        }
        (comm.rank(), marks)
    });
    results.into_iter().map(|r| r.value).find(|(rank, _)| *rank == 1).expect("rank 1").1
}

/// A one-shot PCIe fault on rank 1 surfaces wherever it lands — in
/// initialisation, in a step's halo pack, in a checkpoint save, in the
/// restore of a rollback — because the commit that follows drains the
/// device's latch: every rank then sees a `Device` verdict, counted as
/// a rollback (or, for a save, as a discarded adoption), and recovers
/// the fault-free answer: the deck digest, and a fault-free run's
/// checkpoints (the initial one and one per interval).
#[test]
fn a_copy_fault_anywhere_is_a_device_verdict_at_the_next_commit() {
    let steps = 6;
    let policy =
        RecoveryPolicy { backoff_base: 0.01, degrade_after: 3, ..RecoveryPolicy::default() };
    let marks = rank_1_transfer_marks(steps, policy);
    let run = |at: &[u64], policy| {
        let rules = at.iter().map(|&n| FaultRule::once_on(FaultKind::CopyFail, 1, n)).collect();
        run_resilient(Placement::Device, 2, steps, FaultPlan::new(41, rules), policy)
    };
    let checkpoints = 1 + (steps / policy.checkpoint_interval) as u64;
    let recovered = |what: &str, at: &[u64], rollbacks: u64, checkpoints_lost: u64| {
        let results = run(at, policy);
        let results: Vec<_> = results
            .iter()
            .enumerate()
            .map(|(rank, r)| r.as_ref().unwrap_or_else(|e| panic!("{what}, rank {rank}: {e}")))
            .collect();
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r.stats.rollbacks, rollbacks, "{what}, rank {rank}");
            assert_eq!(r.stats.checkpoints + checkpoints_lost, checkpoints, "{what}");
            let fired = if rank == 1 { at.len() as u64 } else { 0 };
            assert_eq!(r.report.total_fired(), fired, "{what}, rank {rank}");
        }
        DECK.assert_step(steps, results.iter().map(|r| r.state), what);
    };

    // Rank 1's first transfer is in `try_initialize`: one rollback, a
    // clean re-initialisation.
    recovered("initialisation", &[0], 1, 0);
    // The first transfer of step 1 uploads the descriptor tables of the
    // build pass it opens with; the second is its start window's pack
    // D2H: with no retries left, every rank ends on the same `Device`
    // verdict.
    let no_retry = RecoveryPolicy { max_retries: 0, ..policy };
    for (rank, r) in run(&[marks[0] + 1], no_retry).iter().enumerate() {
        let Err(ResilienceError::RetriesExhausted { last: SimError::Device { detail }, .. }) = r
        else {
            panic!("rank {rank}: expected a Device verdict, got {r:?}");
        };
        assert_eq!(detail.contains("d2h"), rank == 1, "rank {rank}: {detail}");
    }
    recovered("step 1's pack", &[marks[0] + 1], 1, 0);
    // The last transfer before step 6 is the end of step 5's checkpoint
    // save: the adoption is discarded on both ranks, with no rollback.
    recovered("checkpoint save", &[marks[5] - 1], 0, 1);
    // A fault in step 2 rolls back; the restore's first transfer comes
    // right after the failed attempt's last, and fails the restore too.
    recovered("restore", &[marks[1], marks[2]], 2, 0);
}
