//! Checkpoint-rollback recovery under injected faults: transient faults
//! roll back and converge to the fault-free answer, persistent device
//! faults degrade the placement until the run survives, persistent
//! communication faults exhaust the retry budget with the same typed
//! error on every rank, and same-seed reruns reproduce identical fault
//! sites and recovery counters.

use rbamr_fault::{FaultKind, FaultPlan, FaultReport, FaultRule};
use rbamr_hydro::{
    HydroConfig, HydroSim, Placement, RecoveryPolicy, RecoveryStats, RegionInit, ResilienceError,
    ResilientSim, SimError, SimSpec,
};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Clock, Machine};
use rbamr_telemetry::Recorder;

fn sod_regions() -> Vec<RegionInit> {
    vec![
        RegionInit { rect: (0.0, 0.0, 0.5, 1.0), density: 1.0, energy: 2.5, xvel: 0.0, yvel: 0.0 },
        RegionInit {
            rect: (0.5, 0.0, 1.0, 1.0),
            density: 0.125,
            energy: 2.0,
            xvel: 0.0,
            yvel: 0.0,
        },
    ]
}

fn sod_config() -> HydroConfig {
    let mut config =
        HydroConfig { regrid_interval: 5, max_patch_size: 8, ..HydroConfig::default() };
    config.regrid.cluster.min_size = 4;
    config
}

fn spec(placement: Placement, rank: usize, nranks: usize) -> SimSpec {
    let machine = match placement {
        Placement::Host => Machine::ipa_cpu_node(),
        _ => Machine::ipa_gpu(),
    };
    SimSpec {
        machine,
        placement,
        extent: (1.0, 1.0),
        coarse_cells: (24, 24),
        max_levels: 2,
        ratio: 2,
        config: sod_config(),
        regions: sod_regions(),
        rank,
        nranks,
    }
}

fn cluster(plan: FaultPlan) -> Cluster {
    Cluster::new(Machine::ipa_cpu_node()).with_fault_plan(plan)
}

/// Per-rank outcome of a resilient cluster run, for cross-run and
/// cross-schedule comparison.
#[derive(Clone, Debug, PartialEq)]
struct RankOutcome {
    digest: u64,
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
            let mut sim =
                ResilientSim::new(spec(placement, rank, nranks), policy, recorder, Some(&comm))?;
            sim.run_steps(steps, Some(&comm))?;
            let report =
                comm.fault_injector().expect("cluster ranks always carry an injector").report();
            Ok(RankOutcome { digest: sim.sim().state_field_digest(), stats: sim.stats(), report })
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
    let mut plain = HydroSim::new(
        Machine::ipa_cpu_node(),
        Placement::Host,
        Clock::new(),
        (1.0, 1.0),
        (24, 24),
        2,
        2,
        sod_config(),
        sod_regions(),
        0,
        1,
    );
    plain.initialize(None);
    plain.run_steps(steps, None);

    let recorder = Recorder::new(0, Clock::new());
    let mut resilient = ResilientSim::new(
        spec(Placement::Host, 0, 1),
        RecoveryPolicy::default(),
        recorder.clone(),
        None,
    )
    .expect("fault-free initialisation cannot fail");
    resilient.run_steps(steps, None).expect("fault-free stepping cannot fail");

    assert_eq!(
        resilient.sim().state_field_digest(),
        plain.state_field_digest(),
        "recovery layer must be invisible without faults"
    );
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
    let baseline =
        run_resilient(Placement::Host, 2, steps, FaultPlan::none(), RecoveryPolicy::default());
    let faulty = run_resilient(
        Placement::Host,
        2,
        steps,
        // One collective poisoned mid-run on rank 0; the commit verdict
        // makes both ranks roll back together.
        FaultPlan::new(7, vec![FaultRule::once_on(FaultKind::CollectiveFault, 0, 12)]),
        RecoveryPolicy::default(),
    );
    for (rank, (base, fault)) in baseline.iter().zip(&faulty).enumerate() {
        let base = base.as_ref().expect("baseline is fault-free");
        let fault = fault.as_ref().expect("a transient fault must be recovered");
        assert_eq!(
            fault.digest, base.digest,
            "rank {rank}: recovered run must converge to the fault-free answer"
        );
        assert!(fault.stats.rollbacks >= 1, "rank {rank}: the fault must cause a rollback");
        assert_eq!(fault.stats.degradations, 0, "rank {rank}: comm faults never degrade");
        assert_eq!(base.stats.rollbacks, 0);
    }
    assert_eq!(
        faulty[0].as_ref().unwrap().stats,
        faulty[1].as_ref().unwrap().stats,
        "recovery decisions are collective: both ranks walk the same path"
    );
    assert_eq!(faulty[0].as_ref().unwrap().report.total_fired(), 1);
}

#[test]
fn transient_message_faults_roll_back_and_converge() {
    let steps = 8;
    let baseline =
        run_resilient(Placement::Host, 2, steps, FaultPlan::none(), RecoveryPolicy::default());
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
    for (rank, (base, fault)) in baseline.iter().zip(&faulty).enumerate() {
        let base = base.as_ref().expect("baseline is fault-free");
        let fault = fault.as_ref().expect("transient message faults must be recovered");
        assert_eq!(fault.digest, base.digest, "rank {rank}: digest must match fault-free");
        assert!(fault.stats.rollbacks >= 1, "rank {rank}: faults must cause rollbacks");
    }
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

    // The degraded run still computes real physics: it matches a run
    // that asked for the host placement in the first place.
    let host = run_resilient(Placement::Host, 1, steps, FaultPlan::none(), policy);
    assert_eq!(
        outcome.digest,
        host[0].as_ref().unwrap().digest,
        "degraded-to-host physics must equal native host physics"
    );
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
        let mut sim =
            ResilientSim::new(spec(Placement::Device, 0, 1), policy, recorder.clone(), Some(&comm))
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
/// rolls back to the last adopted checkpoint, and replays to a digest
/// bitwise-identical to a fault-free run at the surviving rank count.
#[test]
fn rank_kill_shrinks_and_replays_to_the_survivor_baseline() {
    let steps = 8;
    let baseline =
        run_resilient(Placement::Host, 1, steps, FaultPlan::none(), RecoveryPolicy::default());
    let base = baseline[0].as_ref().expect("baseline is fault-free");

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
    assert_eq!(
        survivor.digest, base.digest,
        "survivor must finish bitwise-identical to the fault-free 1-rank run"
    );
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
    let baseline =
        run_resilient(Placement::Host, 1, steps, FaultPlan::none(), RecoveryPolicy::default());
    let base = baseline[0].as_ref().expect("baseline is fault-free");

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
    assert_eq!(survivor.digest, base.digest);
    assert_eq!(survivor.stats.shrinks, 1);
}

/// Shrinking from four ranks to three renumbers the survivors: each
/// survivor's final digest matches the corresponding logical rank of a
/// fault-free three-rank run.
#[test]
fn four_rank_kill_matches_three_rank_baseline_per_logical_rank() {
    let steps = 6;
    let baseline =
        run_resilient(Placement::Host, 3, steps, FaultPlan::none(), RecoveryPolicy::default());
    let outcome = run_resilient(
        Placement::Host,
        4,
        steps,
        FaultPlan::new(23, vec![FaultRule::rank_kill(1, 2)]),
        RecoveryPolicy::default(),
    );
    assert!(matches!(outcome[1], Err(ResilienceError::Killed { rank: 1, at_step: 2 })));
    // Survivors 0, 2, 3 renumber to logical 0, 1, 2.
    for (original, logical) in [(0usize, 0usize), (2, 1), (3, 2)] {
        let survivor = outcome[original].as_ref().expect("survivors complete");
        let base = baseline[logical].as_ref().expect("baseline is fault-free");
        assert_eq!(
            survivor.digest, base.digest,
            "original rank {original} (logical {logical}) must match the 3-rank baseline"
        );
        assert_eq!(survivor.stats.rank_losses, 1);
    }
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
