//! Chaos harness: seeded fault schedules against the resilient Sod run.
//!
//! Runs 29 deterministic fault schedules (plus per-placement fault-free
//! baselines at both the full and the surviving rank count) on a small
//! Sod deck at 2 ranks and checks, per schedule:
//!
//! * **recoverable** schedules complete and their per-rank final-state
//!   digests are bitwise identical to the fault-free baseline at the
//!   same placement — and at least one fault fired (a schedule whose
//!   occurrence index slid out of the run fails, it does not pass
//!   vacuously); transient device faults must also have cost a
//!   rollback;
//! * **degrading** schedules (persistent device faults) complete after
//!   walking Device → DeviceCopyBack → Host, and their digests match
//!   the *host* baseline (the last degradation step trades the device
//!   for survival, and host physics is the reference), again with at
//!   least one fired fault;
//! * **unrecoverable** schedules end in a typed
//!   [`ResilienceError::RetriesExhausted`] on *every* rank;
//! * every schedule, rerun with the same seed, reproduces identical
//!   fault sites, recovery counters and digests;
//! * **delay** schedules (`MsgDelay`) are pure virtual-clock charges:
//!   they must inflate the job's *virtual* seconds versus the
//!   fault-free baseline while leaving *wall* time unaffected (gated
//!   against a generous multiple of the baseline wall time — a real
//!   sleep in the transport path would blow through it immediately);
//! * **overlap** schedules run on the device, where each halo
//!   exchange overlaps interior compute, so faults land while that
//!   compute is in flight; their recovered digests must match the
//!   fault-free device baseline (the overlap is bitwise inert, even
//!   across rollbacks);
//! * **shrinking** schedules (`RankKill`) permanently lose a rank —
//!   at step 0, mid-run, on the regrid step, and inside the
//!   checkpoint-adoption collective. The victim must report a typed
//!   [`ResilienceError::Killed`]; the survivors must shrink, replay,
//!   and finish bitwise identical to a fault-free baseline at the
//!   *surviving* rank count.
//!
//! The run emits a JSON artifact (default `target/chaos_bench.json`,
//! override with `--json <path>`) with per-schedule recovery stats
//! (rollbacks, shrinks, rank losses, degraded steps) for CI to
//! archive, and exits non-zero if any gate fails — enumerating every
//! failing schedule by name, not just the first.

use rbamr_hydro::{
    Placement, RecoveryPolicy, RecoveryStats, ResilienceError, ResilientSim, SimSpec,
};
use rbamr_netsim::{Cluster, FaultKind, FaultPlan, FaultReport, FaultRule, RankResult};
use rbamr_perfmodel::Machine;
use rbamr_problems::deck::parse_deck;
use rbamr_telemetry::Recorder;
use std::fmt::Write as _;
use std::time::Duration;

const RANKS: usize = 2;
const STEPS: usize = 8;

/// The Sod deck driving every chaos run, carrying the resilience keys.
const CHAOS_DECK: &str = "
*clover
 state 1 density=0.125 energy=2.0
 state 2 density=1.0 energy=2.5 geometry=rectangle xmin=0.0 xmax=0.5 ymin=0.0 ymax=1.0
 x_cells=24
 y_cells=24
 max_levels=2
 end_step=8
 checkpoint_interval=5
 max_retries=4
 min_ranks=1
*endclover
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expectation {
    /// Completes; digests match the same-placement baseline.
    Recoverable,
    /// Completes by degrading to the host; digests match the host
    /// baseline.
    DegradesToHost,
    /// Every rank reports `RetriesExhausted`.
    Unrecoverable,
    /// The victim reports `Killed`; the survivors shrink and finish
    /// bitwise identical to the fault-free baseline at the surviving
    /// rank count.
    Shrinks { victim: usize, at_step: usize },
}

impl Expectation {
    fn name(self) -> &'static str {
        match self {
            Self::Recoverable => "recoverable",
            Self::DegradesToHost => "degrades_to_host",
            Self::Unrecoverable => "unrecoverable",
            Self::Shrinks { .. } => "shrinks",
        }
    }
}

struct Schedule {
    name: &'static str,
    seed: u64,
    placement: Placement,
    rules: Vec<FaultRule>,
    expectation: Expectation,
}

/// The ≥20 seeded fault schedules. Occurrence indices are chosen to
/// land inside the run, and [`check`] fails a schedule whose fault never
/// fires. Per rank, the 2-rank 8-step Sod run evaluates ~65 (rank 0) /
/// ~60 (rank 1) point-to-point and ~30 collective sites (25 without a
/// replay: each step's dt minimum and commit verdict, plus the regrids'
/// and checkpoints'); on the device,
/// with one rollback replayed, ~850 / ~370 allocation and ~450 / ~365
/// PCIe-transfer sites (checkpoints, initialisation and the regrid
/// transfer included). A change that removes sites can slide an index
/// out of the run, which is what the fired-site gate catches: fusing
/// the halo path took the device counts down from ~3,700 and ~3,200,
/// and running the regrid's solution transfer through the same path
/// took rank 1's receives down from ~130 (a rebuilt level now costs one
/// message, one pack, one unpack and two PCIe hops per peer). None of
/// the occurrence-pinned rules below fired inside a transfer before
/// that change, and each fires in the same place after it; the
/// persistent and every-message rules still reach the transfer's
/// message, its staging allocation and its two PCIe hops. Sending one
/// message per peer per fill window instead of one per level took rank
/// 1 from ten messages a step to five (rank 0, whose peer traffic is
/// all on level 0, is unchanged), so every rank-1 message rule is pinned
/// to the window that carries the level message it hit before: the same
/// step and fill, and the same replays.
/// `collective_late_r1` lands in rank 1's checkpoint-adoption verdict
/// after step 5: a spoiled save, discarded with no rollback.
fn schedules() -> Vec<Schedule> {
    use Expectation::{DegradesToHost, Recoverable, Unrecoverable};
    use FaultKind::{AllocFail, CollectiveFault, CopyFail, MsgCorrupt, MsgDelay, MsgDrop};
    let host = Placement::Host;
    let device = Placement::Device;
    let mut out = Vec::new();
    let mut add = |name, seed, placement, rules, expectation| {
        out.push(Schedule { name, seed, placement, rules, expectation });
    };

    // Transient collective faults at different points of the run.
    add(
        "collective_early_r0",
        101,
        host,
        vec![FaultRule::once_on(CollectiveFault, 0, 2)],
        Recoverable,
    );
    add(
        "collective_mid_r0",
        102,
        host,
        vec![FaultRule::once_on(CollectiveFault, 0, 12)],
        Recoverable,
    );
    add(
        "collective_late_r1",
        103,
        host,
        vec![FaultRule::once_on(CollectiveFault, 1, 18)],
        Recoverable,
    );
    add("collective_both_ranks", 104, host, vec![FaultRule::once(CollectiveFault, 8)], Recoverable);
    add(
        "collective_double_r0",
        105,
        host,
        vec![FaultRule::once_on(CollectiveFault, 0, 6), FaultRule::once_on(CollectiveFault, 0, 20)],
        Recoverable,
    );

    // Transient point-to-point faults.
    add("msg_drop_early_r0", 201, host, vec![FaultRule::once_on(MsgDrop, 0, 5)], Recoverable);
    add("msg_drop_late_r0", 202, host, vec![FaultRule::once_on(MsgDrop, 0, 40)], Recoverable);
    add("msg_corrupt_r1", 203, host, vec![FaultRule::once_on(MsgCorrupt, 1, 18)], Recoverable);
    add(
        "msg_corrupt_both",
        204,
        host,
        vec![FaultRule::once_on(MsgCorrupt, 0, 15), FaultRule::once_on(MsgCorrupt, 1, 11)],
        Recoverable,
    );
    add(
        "msg_drop_burst_r1",
        205,
        host,
        vec![FaultRule {
            kind: MsgDrop,
            ranks: Some(vec![1]),
            after: 13,
            count: 3,
            probability: 1.0,
        }],
        Recoverable,
    );

    // Delays perturb virtual time only — no error, no rollback.
    add(
        "msg_delay_persistent",
        301,
        host,
        vec![FaultRule {
            kind: MsgDelay,
            ranks: None,
            after: 0,
            count: u64::MAX,
            probability: 1.0,
        }],
        Recoverable,
    );
    add(
        "msg_delay_random",
        302,
        host,
        vec![FaultRule {
            kind: MsgDelay,
            ranks: None,
            after: 0,
            count: u64::MAX,
            probability: 0.3,
        }],
        Recoverable,
    );

    // Mixed transient schedules.
    add(
        "mixed_drop_collective",
        401,
        host,
        vec![FaultRule::once_on(MsgDrop, 0, 10), FaultRule::once_on(CollectiveFault, 1, 22)],
        Recoverable,
    );
    add(
        "mixed_corrupt_drop",
        402,
        host,
        vec![FaultRule::once_on(MsgCorrupt, 1, 26), FaultRule::once_on(MsgDrop, 1, 33)],
        Recoverable,
    );
    // A random 10% corruption rate over a bounded window: rollbacks
    // advance the occurrence counters past the window, so recovery
    // always out-runs it (an unbounded 10% rate would statistically
    // corrupt every retry, including the restores, and exhaust the
    // budget).
    add(
        "random_corrupt_p10_window",
        403,
        host,
        vec![FaultRule { kind: MsgCorrupt, ranks: None, after: 25, count: 15, probability: 0.1 }],
        Recoverable,
    );

    // Transient device faults retry in place (strikes stay below the
    // degradation threshold), so the device digest gate still applies.
    add(
        "alloc_fail_transient",
        501,
        device,
        vec![FaultRule::once_on(AllocFail, 0, 50)],
        Recoverable,
    );
    add("copy_fail_transient", 502, device, vec![FaultRule::once_on(CopyFail, 0, 30)], Recoverable);

    // Persistent device faults force the full degradation walk.
    add(
        "alloc_fail_persistent",
        601,
        device,
        vec![FaultRule::persistent(AllocFail, 0, 0)],
        DegradesToHost,
    );
    add(
        "copy_fail_persistent",
        602,
        device,
        vec![FaultRule::persistent(CopyFail, 0, 0)],
        DegradesToHost,
    );

    // Persistent collective faults cannot be out-run by rollbacks.
    add(
        "collective_persistent_r0",
        701,
        host,
        vec![FaultRule::persistent(CollectiveFault, 0, 0)],
        Unrecoverable,
    );
    add(
        "collective_persistent_r1",
        702,
        host,
        vec![FaultRule::persistent(CollectiveFault, 1, 0)],
        Unrecoverable,
    );

    // Overlap-under-chaos: on the device the halo exchange is in
    // flight *while* interior compute runs. Faults land mid-overlap;
    // recovery must reproduce the fault-free device digest (the
    // overlap is bitwise inert even across rollbacks).
    add(
        "overlap_delay",
        801,
        device,
        vec![FaultRule {
            kind: MsgDelay,
            ranks: None,
            after: 0,
            count: u64::MAX,
            probability: 1.0,
        }],
        Recoverable,
    );
    add(
        "overlap_corrupt_in_flight",
        802,
        device,
        vec![FaultRule::once_on(MsgCorrupt, 1, 13)],
        Recoverable,
    );
    add(
        "overlap_drop_in_flight",
        803,
        device,
        vec![FaultRule::once_on(MsgDrop, 0, 12)],
        Recoverable,
    );
    add(
        "overlap_delay_plus_corrupt",
        804,
        device,
        vec![
            FaultRule { kind: MsgDelay, ranks: None, after: 0, count: u64::MAX, probability: 0.3 },
            FaultRule::once_on(MsgCorrupt, 0, 35),
        ],
        Recoverable,
    );

    // Permanent rank loss: the victim dies, the survivor shrinks to one
    // rank, restores the last adopted manifest, and replays. Each kill
    // site exercises a different recovery path; all are gated on digest
    // identity to the fault-free 1-rank baseline.
    let mut add_kill = |name, seed, rules, victim, at_step| {
        out.push(Schedule {
            name,
            seed,
            placement: host,
            rules,
            expectation: Expectation::Shrinks { victim, at_step },
        });
    };
    // Before any step commits: rollback targets the initial manifest.
    add_kill("rank_kill_at_step0", 901, vec![FaultRule::rank_kill(1, 0)], 1, 0);
    // Mid-run, between checkpoint intervals.
    add_kill("rank_kill_midrun", 902, vec![FaultRule::rank_kill(1, 3)], 1, 3);
    // On the step after the regrid step (regrid_interval = 5): the
    // survivor meets the death in its first exchange with the freshly
    // transferred level, and replays from the checkpoint the regrid step
    // adopted.
    add_kill("rank_kill_during_regrid", 903, vec![FaultRule::rank_kill(1, 5)], 1, 5);
    // Inside the checkpoint-adoption collective after step 5 commits:
    // the survivors' save is revoked and discarded collectively.
    add_kill("rank_kill_in_collective", 904, vec![FaultRule::rank_kill_at_adopt(1, 5)], 1, 5);

    out
}

#[derive(Clone, Debug, PartialEq)]
struct RankOutcome {
    digest: u64,
    stats: RecoveryStats,
    report: FaultReport,
    placement: Placement,
}

type RunResult = Vec<Result<RankOutcome, ResilienceError>>;

/// One chaos run plus its timing observables. Wall and virtual time
/// stay *out* of the determinism comparison (wall time is inherently
/// noisy; virtual time is only gated for the delay schedules).
struct ChaosRun {
    outcome: RunResult,
    wall: Duration,
    /// Job virtual time: the slowest rank's total.
    virtual_total: f64,
}

/// A job's virtual time: the maximum over ranks of each rank's clock
/// total. The sum of per-category maxima (`Cluster::job_time`, the BSP
/// convention behind Fig. 11's component shares) would move whenever a
/// charge changed category although no rank's time did.
fn job_virtual_seconds<R>(results: &[RankResult<R>]) -> f64 {
    results.iter().map(|r| r.time.total()).fold(0.0, f64::max)
}

fn run(placement: Placement, plan: FaultPlan, policy: RecoveryPolicy, nranks: usize) -> ChaosRun {
    let deck = parse_deck(CHAOS_DECK).expect("chaos deck parses");
    let machine = match placement {
        Placement::Host => Machine::ipa_cpu_node(),
        _ => Machine::ipa_gpu(),
    };
    let started = std::time::Instant::now();
    let results = Cluster::new(machine.clone()).with_fault_plan(plan).run(nranks, move |comm| {
        let rank = comm.rank();
        let mut config = rbamr_hydro::HydroConfig {
            regrid_interval: 5,
            max_patch_size: 8,
            ..rbamr_hydro::HydroConfig::default()
        };
        config.regrid.cluster.min_size = 4;
        let spec = SimSpec {
            machine: machine.clone(),
            placement,
            extent: deck.extent,
            coarse_cells: deck.cells,
            max_levels: deck.max_levels,
            ratio: 2,
            config,
            regions: deck.regions.clone(),
            rank,
            nranks,
        };
        let recorder = Recorder::new(rank, comm.clock().clone());
        let mut sim = ResilientSim::new(spec, policy, recorder, Some(&comm))?;
        sim.run_steps(deck.end_step.unwrap_or(STEPS), Some(&comm))?;
        let report = comm.fault_injector().expect("cluster ranks carry injectors").report();
        Ok(RankOutcome {
            digest: sim.sim().state_field_digest(),
            stats: sim.stats(),
            report,
            placement: sim.placement(),
        })
    });
    let wall = started.elapsed();
    let virtual_total = job_virtual_seconds(&results);
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|(rank, _)| *rank);
    ChaosRun { outcome: out.into_iter().map(|(_, v)| v).collect(), wall, virtual_total }
}

fn policy_from_deck() -> RecoveryPolicy {
    let deck = parse_deck(CHAOS_DECK).expect("chaos deck parses");
    RecoveryPolicy {
        checkpoint_interval: deck.checkpoint_interval.unwrap_or(5),
        max_retries: deck.max_retries.unwrap_or(8),
        min_ranks: deck.min_ranks.unwrap_or(1),
        backoff_base: 0.05,
        ..RecoveryPolicy::default()
    }
}

fn main() {
    let json_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .map_or_else(|| std::path::PathBuf::from("target/chaos_bench.json"), Into::into)
    };
    let policy = policy_from_deck();

    println!("chaos_bench: {RANKS} ranks, {STEPS} steps, policy {policy:?}");
    let baseline_host = run(Placement::Host, FaultPlan::none(), policy, RANKS);
    let baseline_device = run(Placement::Device, FaultPlan::none(), policy, RANKS);
    // Fault-free run at the surviving rank count: the digest gate for
    // the rank-kill schedules (one victim, so RANKS - 1 survivors).
    let baseline_survivor = run(Placement::Host, FaultPlan::none(), policy, RANKS - 1);
    let baseline_digest = |placement: Placement, rank: usize| -> u64 {
        let base = match placement {
            Placement::Host => &baseline_host.outcome,
            _ => &baseline_device.outcome,
        };
        base[rank].as_ref().expect("baselines are fault-free").digest
    };

    let mut failed_names: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for s in schedules() {
        let plan = FaultPlan::new(s.seed, s.rules.clone());
        let first = run(s.placement, plan.clone(), policy, RANKS);
        let second = run(s.placement, plan, policy, RANKS);

        let deterministic = (0..RANKS).all(|r| match (&first.outcome[r], &second.outcome[r]) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a == b,
            _ => false,
        });
        let fired: u64 = first
            .outcome
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.report.total_fired())
            .sum();

        let (mut ok, mut detail) =
            check(&s, &first.outcome, baseline_digest, &baseline_survivor.outcome);
        // Delay faults must be pure virtual-clock charges: virtual
        // seconds inflate versus the fault-free baseline, wall time
        // does not. A sleep smuggled into the transport path would
        // fire here on hundreds of delayed messages per run.
        if ok && s.rules.iter().any(|r| r.kind == FaultKind::MsgDelay) {
            let baseline = match s.placement {
                Placement::Host => &baseline_host,
                _ => &baseline_device,
            };
            let wall_budget = baseline.wall * 10 + Duration::from_secs(2);
            if first.virtual_total <= baseline.virtual_total {
                ok = false;
                detail = format!(
                    "delay did not inflate virtual time ({} vs baseline {})",
                    first.virtual_total, baseline.virtual_total
                );
            } else if first.wall > wall_budget {
                ok = false;
                detail = format!(
                    "delay inflated wall time ({:?} vs budget {wall_budget:?}) — \
                     delays must charge virtual time only",
                    first.wall
                );
            } else {
                let margin = first.virtual_total - baseline.virtual_total;
                let _ = write!(
                    detail,
                    " delay-gate: virtual {:.9}s > {:.9}s by {margin:.3e}s, wall {:?} within budget",
                    first.virtual_total, baseline.virtual_total, first.wall
                );
            }
        }
        let verdict = if ok && deterministic { "pass" } else { "FAIL" };
        if !(ok && deterministic) {
            failed_names.push(s.name.to_string());
        }
        println!(
            "  [{verdict}] {:28} seed={:<4} {:12} fired={fired:<3} {detail}{}",
            s.name,
            s.seed,
            s.expectation.name(),
            if deterministic { "" } else { " NONDETERMINISTIC-RERUN" },
        );
        rows.push(json_row(&s, &first, deterministic, ok, &detail));
    }

    let json = format!(
        "{{\n  \"ranks\": {RANKS},\n  \"steps\": {STEPS},\n  \"schedules\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Some(dir) = json_path.parent() {
        std::fs::create_dir_all(dir).expect("chaos: create artifact dir");
    }
    std::fs::write(&json_path, json).expect("chaos: write artifact");
    println!("artifact: {}", json_path.display());

    if !failed_names.is_empty() {
        eprintln!(
            "chaos_bench: {} schedule(s) failed: {}",
            failed_names.len(),
            failed_names.join(", ")
        );
        std::process::exit(1);
    }
    println!("chaos_bench: all {} schedules pass", schedules().len());
}

/// Check one schedule's outcome against its expectation. Returns
/// (pass, human detail).
fn check(
    s: &Schedule,
    result: &RunResult,
    baseline_digest: impl Fn(Placement, usize) -> u64,
    survivor_baseline: &RunResult,
) -> (bool, String) {
    // A fault that never fires proves nothing: digest equality with the
    // fault-free run is then trivially true.
    let completes = matches!(s.expectation, Expectation::Recoverable | Expectation::DegradesToHost);
    if completes && result.iter().flatten().all(|o| o.report.total_fired() == 0) {
        return (false, "no fault fired: the schedule no longer lands inside the run".into());
    }
    match s.expectation {
        Expectation::Recoverable => {
            for (rank, r) in result.iter().enumerate() {
                let Ok(o) = r else {
                    return (false, format!("rank {rank} failed: {}", r.as_ref().unwrap_err()));
                };
                if o.digest != baseline_digest(s.placement, rank) {
                    return (false, format!("rank {rank} digest diverges from fault-free"));
                }
                if o.stats.degradations != 0 {
                    return (false, format!("rank {rank} degraded unexpectedly"));
                }
            }
            let rollbacks = result[0].as_ref().unwrap().stats.rollbacks;
            // A device fault must have cost a rollback, not been
            // absorbed (latched and never drained).
            let device_fault = s
                .rules
                .iter()
                .any(|r| matches!(r.kind, FaultKind::AllocFail | FaultKind::CopyFail));
            if device_fault && rollbacks == 0 {
                return (false, "device fault fired but nothing rolled back".into());
            }
            (true, format!("rollbacks={rollbacks} digests match baseline"))
        }
        Expectation::DegradesToHost => {
            for (rank, r) in result.iter().enumerate() {
                let Ok(o) = r else {
                    return (false, format!("rank {rank} failed: {}", r.as_ref().unwrap_err()));
                };
                if o.placement != Placement::Host {
                    return (false, format!("rank {rank} ended at {:?}, not Host", o.placement));
                }
                if o.digest != baseline_digest(Placement::Host, rank) {
                    return (false, format!("rank {rank} digest diverges from host baseline"));
                }
            }
            let stats = result[0].as_ref().unwrap().stats;
            (
                true,
                format!(
                    "degradations={} degraded_steps={}",
                    stats.degradations, stats.degraded_steps
                ),
            )
        }
        Expectation::Unrecoverable => {
            for (rank, r) in result.iter().enumerate() {
                match r {
                    Ok(_) => return (false, format!("rank {rank} completed unexpectedly")),
                    Err(ResilienceError::RetriesExhausted { attempts, .. }) => {
                        if *attempts == 0 {
                            return (false, format!("rank {rank} gave up without retrying"));
                        }
                    }
                    Err(e) => return (false, format!("rank {rank}: wrong error {e}")),
                }
            }
            (true, "typed RetriesExhausted on every rank".into())
        }
        Expectation::Shrinks { victim, at_step } => {
            match &result[victim] {
                Err(ResilienceError::Killed { rank, at_step: fired }) => {
                    if *rank != victim || *fired != at_step {
                        return (
                            false,
                            format!("victim reported Killed at rank {rank} step {fired}"),
                        );
                    }
                }
                other => {
                    return (false, format!("victim did not report Killed, got {other:?}"));
                }
            }
            // Survivors renumber in ascending original-rank order; each
            // must match the corresponding logical rank of the
            // fault-free run at the surviving rank count.
            let survivors: Vec<usize> = (0..result.len()).filter(|&r| r != victim).collect();
            for (logical, &original) in survivors.iter().enumerate() {
                let Ok(o) = &result[original] else {
                    return (
                        false,
                        format!(
                            "survivor {original} failed: {}",
                            result[original].as_ref().unwrap_err()
                        ),
                    );
                };
                let base = survivor_baseline[logical]
                    .as_ref()
                    .expect("the surviving-rank-count baseline is fault-free");
                if o.digest != base.digest {
                    return (
                        false,
                        format!(
                            "survivor {original} (logical {logical}) digest diverges from the \
                             {}-rank baseline",
                            survivors.len()
                        ),
                    );
                }
                if o.stats.shrinks != 1 || o.stats.rank_losses != 1 {
                    return (
                        false,
                        format!(
                            "survivor {original} counters off: shrinks={} rank_losses={}",
                            o.stats.shrinks, o.stats.rank_losses
                        ),
                    );
                }
            }
            let stats = result[survivors[0]].as_ref().unwrap().stats;
            (
                true,
                format!(
                    "shrinks={} rollbacks={} survivors match the {}-rank baseline",
                    stats.shrinks,
                    stats.rollbacks,
                    survivors.len()
                ),
            )
        }
    }
}

fn json_row(s: &Schedule, run: &ChaosRun, deterministic: bool, pass: bool, detail: &str) -> String {
    let mut ranks = Vec::new();
    for (rank, r) in run.outcome.iter().enumerate() {
        let row = match r {
            Ok(o) => format!(
                "{{\"rank\": {rank}, \"outcome\": \"completed\", \"digest\": \"{:016x}\", \
                 \"rollbacks\": {}, \"degradations\": {}, \"degraded_steps\": {}, \
                 \"checkpoints\": {}, \"shrinks\": {}, \"rank_losses\": {}, \
                 \"faults_fired\": {}}}",
                o.digest,
                o.stats.rollbacks,
                o.stats.degradations,
                o.stats.degraded_steps,
                o.stats.checkpoints,
                o.stats.shrinks,
                o.stats.rank_losses,
                o.report.total_fired(),
            ),
            Err(ResilienceError::RetriesExhausted { step, attempts, .. }) => format!(
                "{{\"rank\": {rank}, \"outcome\": \"retries_exhausted\", \
                 \"checkpoint_step\": {step}, \"attempts\": {attempts}}}"
            ),
            Err(ResilienceError::Killed { rank: victim, at_step }) => format!(
                "{{\"rank\": {rank}, \"outcome\": \"killed\", \"victim\": {victim}, \
                 \"at_step\": {at_step}}}"
            ),
            Err(ResilienceError::InsufficientRanks { survivors, min_ranks }) => format!(
                "{{\"rank\": {rank}, \"outcome\": \"insufficient_ranks\", \
                 \"survivors\": {survivors}, \"min_ranks\": {min_ranks}}}"
            ),
        };
        ranks.push(row);
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"seed\": {}, \"placement\": \"{:?}\", \
         \"expectation\": \"{}\", \"pass\": {pass}, \"deterministic\": {deterministic}, \
         \"wall_ms\": {}, \"virtual_seconds\": {:.6}, \
         \"detail\": \"{detail}\", \"ranks\": [{}]}}",
        s.name,
        s.seed,
        s.placement,
        s.expectation.name(),
        run.wall.as_millis(),
        run.virtual_total,
        ranks.join(", "),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_perfmodel::{Category, TimeBreakdown};

    #[test]
    fn job_virtual_time_is_the_slowest_ranks_total() {
        // Hydro peaks on rank 0, halo exchange on rank 1: the sum of
        // per-category maxima (5 s) is no rank's time.
        let rank = |rank, hydro, halo| {
            let mut time = TimeBreakdown::default();
            time.add(Category::HydroKernel, hydro);
            time.add(Category::HaloExchange, halo);
            RankResult { rank, value: (), time }
        };
        let results = [rank(0, 3.0, 1.0), rank(1, 1.0, 2.0)];
        assert_eq!(Cluster::job_time(&results).total(), 5.0);
        assert_eq!(job_virtual_seconds(&results), 4.0);
    }
}
