//! Checkpoint-rollback recovery with graceful device degradation — the
//! resilience driver over [`HydroSim`]'s fault-aware stepping.
//!
//! # The recovery state machine
//!
//! ```text
//!            ┌─────────────── Ok ────────────────┐
//!            ▼                                   │
//!   ┌─── STEPPING ── Err(SimError) ──► ROLLBACK ─┘
//!   │  (periodic checkpoint              │ attempts > max_retries
//!   │   every `checkpoint_interval`      ▼
//!   │   committed steps)            RetriesExhausted (typed, on
//!   │                                every rank — the verdict is
//!   │   degrade_after consecutive     collective by construction)
//!   │   Device verdicts:
//!   └── Device → DeviceCopyBack → Host
//! ```
//!
//! Every decision the driver makes — retry, degrade, give up — is a
//! function of the *global* step verdict ([`HydroSim::try_step_capped`]
//! ends in a commit collective), so all ranks walk the state machine in
//! lock-step without any extra coordination.
//!
//! A rollback rebuilds the simulation from its [`SimSpec`] at the
//! current (possibly degraded) placement and restores the last adopted
//! checkpoint; an exponential backoff is charged to the rank's virtual
//! clock between attempts, modelling the wall-clock cost of real
//! retry/degradation cycles. Checkpoint adoption is itself collective:
//! a save spoiled by an injected device fault is discarded on every
//! rank and the previous checkpoint stays live.
//!
//! Degrading `Device → DeviceCopyBack` preserves bitwise physics (the
//! copy-back build runs identical kernels with a different transfer
//! discipline); the final `→ Host` stage trades bitwise identity for
//! survival, which is why it is the last resort.
//!
//! # Elastic shrink on permanent rank loss
//!
//! A [`rbamr_netsim::FaultKind::RankKill`] fault kills a rank for good:
//! the victim marks itself dead in the network and returns
//! [`ResilienceError::Killed`]. Survivors never poll a timeout —
//! detection is structural. The dead rank's frames black-hole and the
//! next collective completes among survivors with a *revoked* verdict,
//! so the survivors' step commit fails symmetrically and they all enter
//! [`recovery`](ResilientSim::step) together. There they observe the
//! grown dead set, rebuild the communicator at the surviving rank count
//! ([`Comm::shrink`] — a barrier whose completion freezes the accepted
//! dead set, so every survivor derives the same view), re-derive their
//! logical rank, and roll back to the last adopted checkpoint. Because
//! checkpoints are rank-count-independent global manifests, the restore
//! re-partitions every patch over the survivor set and the replay is
//! bitwise-identical to a fault-free run at that rank count. A loss
//! that would leave fewer than [`RecoveryPolicy::min_ranks`] survivors
//! fails fast with [`ResilienceError::InsufficientRanks`] on every
//! survivor.

use crate::integrator::{HydroConfig, HydroSim, Placement, SimError, StepStats};
use crate::state::RegionInit;
use rbamr_amr::restart::Database;
use rbamr_netsim::{Comm, FaultKind};
use rbamr_perfmodel::{Category, Clock, Machine};
use std::sync::Arc;

/// Everything needed to (re)build a [`HydroSim`] from scratch — the
/// constructor arguments of [`HydroSim::new`], kept so a rollback can
/// produce a fresh simulation at any placement.
#[derive(Clone)]
pub struct SimSpec {
    /// The modelled platform.
    pub machine: Machine,
    /// The preferred (undegraded) data placement.
    pub placement: Placement,
    /// Physical domain extent.
    pub extent: (f64, f64),
    /// Level-0 resolution.
    pub coarse_cells: (i64, i64),
    /// Maximum AMR levels.
    pub max_levels: usize,
    /// Refinement ratio.
    pub ratio: i64,
    /// Physics and regridding configuration.
    pub config: HydroConfig,
    /// Initial-condition regions.
    pub regions: Vec<RegionInit>,
    /// This rank.
    pub rank: usize,
    /// Job size.
    pub nranks: usize,
}

impl SimSpec {
    /// Build a fresh simulation at `placement` on `clock`.
    pub fn build(&self, placement: Placement, clock: Clock) -> HydroSim {
        HydroSim::new(
            self.machine.clone(),
            placement,
            clock,
            self.extent,
            self.coarse_cells,
            self.max_levels,
            self.ratio,
            self.config.clone(),
            self.regions.clone(),
            self.rank,
            self.nranks,
        )
    }
}

/// Knobs of the recovery state machine.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Adopt a checkpoint every this many committed steps (0 disables
    /// periodic checkpoints; the post-initialisation checkpoint is
    /// always taken).
    pub checkpoint_interval: usize,
    /// Consecutive failed attempts before the run gives up with
    /// [`ResilienceError::RetriesExhausted`].
    pub max_retries: usize,
    /// Consecutive `Device`-verdict failures at one placement before
    /// degrading to the next placement in the chain.
    pub degrade_after: usize,
    /// First retry's virtual-clock backoff in seconds; doubles per
    /// consecutive attempt. Each charge is scaled by a deterministic
    /// seeded jitter factor in `[0.5, 1.5)` — a pure hash of
    /// `(fault seed, rank, attempt)` — so simulated retry storms
    /// decorrelate across ranks without giving up reproducibility.
    pub backoff_base: f64,
    /// Fewest ranks the job may shrink to after permanent rank losses.
    /// A loss that would leave fewer survivors fails fast with
    /// [`ResilienceError::InsufficientRanks`] on every survivor.
    pub min_ranks: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            checkpoint_interval: 5,
            max_retries: 8,
            degrade_after: 2,
            backoff_base: 0.5,
            min_ranks: 1,
        }
    }
}

/// What recovery has done so far (mirrored on the telemetry counters
/// `recovery.rollbacks`, `recovery.degraded_steps`,
/// `recovery.checkpoints` and `recovery.degradations`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Rollback-and-retry cycles performed.
    pub rollbacks: u64,
    /// Steps committed while running below the preferred placement.
    pub degraded_steps: u64,
    /// Checkpoints adopted (including the initial one).
    pub checkpoints: u64,
    /// Placement degradations taken.
    pub degradations: u64,
    /// Peer ranks observed permanently dead (mirrored on
    /// `recovery.rank_losses`).
    pub rank_losses: u64,
    /// Communicator shrinks performed (mirrored on `recovery.shrinks`).
    pub shrinks: u64,
}

/// The run is over: recovery could not commit further progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilienceError {
    /// `max_retries` consecutive attempts failed. The step verdicts
    /// driving this are collective, so every rank reports this error
    /// together, with the same counters.
    RetriesExhausted {
        /// The last committed step (the checkpoint the rollbacks
        /// targeted).
        step: usize,
        /// Consecutive failed attempts.
        attempts: usize,
        /// The final attempt's verdict.
        last: SimError,
    },
    /// *This* rank was permanently killed by an injected
    /// [`FaultKind::RankKill`]. The rank has already marked itself dead
    /// in the network; it must not communicate again. Survivors do not
    /// see this error — they observe the death structurally and shrink.
    Killed {
        /// The (logical) rank that died.
        rank: usize,
        /// The step the kill fired at.
        at_step: usize,
    },
    /// A permanent loss left fewer survivors than
    /// [`RecoveryPolicy::min_ranks`]; the job cannot shrink further.
    /// The verdict is derived from the frozen post-shrink survivor set,
    /// so every survivor reports it together.
    InsufficientRanks {
        /// Live ranks after the loss.
        survivors: usize,
        /// The configured floor.
        min_ranks: usize,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RetriesExhausted { step, attempts, last } => {
                write!(f, "recovery exhausted after {attempts} attempts at step {step}: {last}")
            }
            Self::Killed { rank, at_step } => {
                write!(f, "rank {rank} permanently killed at step {at_step}")
            }
            Self::InsufficientRanks { survivors, min_ranks } => {
                write!(
                    f,
                    "unrecoverable rank loss: {survivors} survivors, policy requires {min_ranks}"
                )
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// A [`HydroSim`] wrapped in checkpoint-rollback recovery.
pub struct ResilientSim {
    spec: SimSpec,
    policy: RecoveryPolicy,
    /// Current placement — `spec.placement` until degradation.
    placement: Placement,
    sim: HydroSim,
    clock: Clock,
    /// The last adopted (collectively committed) checkpoint.
    checkpoint: Database,
    /// The step the checkpoint was taken at.
    checkpoint_step: usize,
    /// Consecutive failed attempts since the last committed step.
    attempts: usize,
    /// Consecutive `Device` verdicts at the current placement.
    device_strikes: usize,
    /// The shrunken communicator after permanent rank losses. When
    /// set, it supersedes the caller-supplied comm for every
    /// collective — the caller's handle still addresses the original
    /// job size.
    shrunk: Option<Arc<Comm>>,
    /// Permanent deaths already folded into a shrink.
    accepted_deaths: usize,
    /// Seed for the deterministic backoff jitter (the fault plan's
    /// seed, or 0 without an injector).
    jitter_seed: u64,
    stats: RecoveryStats,
    recorder: rbamr_telemetry::Recorder,
}

/// splitmix64 — the standard 64-bit finalizer, used for the backoff
/// jitter so retry pacing is a pure function of `(seed, rank, attempt)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic jitter factor in `[0.5, 1.5)`.
fn jitter_factor(seed: u64, rank: u64, attempt: u64) -> f64 {
    let h = splitmix64(splitmix64(seed ^ rank.wrapping_mul(0x85EB_CA6B)) ^ attempt);
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

impl ResilientSim {
    /// Build, initialise and take the first checkpoint, retrying under
    /// the policy if initialisation itself is hit by faults.
    ///
    /// # Errors
    /// [`ResilienceError::RetriesExhausted`] when initialisation cannot
    /// be committed within the retry budget.
    pub fn new(
        spec: SimSpec,
        policy: RecoveryPolicy,
        recorder: rbamr_telemetry::Recorder,
        comm: Option<&Comm>,
    ) -> Result<Self, ResilienceError> {
        let clock = comm.map_or_else(Clock::new, |c| c.clock().clone());
        let mut this = Self {
            placement: spec.placement,
            sim: spec.build(spec.placement, clock.clone()),
            spec,
            policy,
            clock,
            checkpoint: Database::new(),
            checkpoint_step: 0,
            attempts: 0,
            device_strikes: 0,
            shrunk: None,
            accepted_deaths: 0,
            jitter_seed: comm.and_then(|c| c.fault_injector()).map_or(0, |i| i.seed()),
            stats: RecoveryStats::default(),
            recorder,
        };
        this.wire(comm);
        loop {
            let attempt =
                this.sim.try_initialize(comm).and_then(|()| this.try_adopt_checkpoint(comm));
            match attempt {
                Ok(()) => {
                    this.attempts = 0;
                    this.device_strikes = 0;
                    return Ok(this);
                }
                // No checkpoint exists yet, so "rollback" is a clean
                // rebuild-and-reinitialise at the (possibly degraded)
                // placement.
                Err(e) => {
                    this.note_failure(e)?;
                    this.stats.rollbacks += 1;
                    this.recorder.count("recovery.rollbacks", 1);
                    this.rebuild(comm);
                }
            }
        }
    }

    /// The wrapped simulation (diagnostics).
    pub fn sim(&self) -> &HydroSim {
        &self.sim
    }

    /// The current placement (shows degradation).
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// What recovery has done so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// This rank's current logical rank (renumbered by shrinks).
    pub fn rank(&self) -> usize {
        self.spec.rank
    }

    /// The current job size (reduced by shrinks).
    pub fn nranks(&self) -> usize {
        self.spec.nranks
    }

    /// The shrunken communicator, if a permanent rank loss has been
    /// absorbed. Collectives issued by the driver use this in place of
    /// the caller's original-size handle.
    pub fn shrunk_comm(&self) -> Option<&Comm> {
        self.shrunk.as_deref()
    }

    /// Advance one step past the furthest committed point,
    /// transparently rolling back, replaying and retrying (and
    /// degrading the placement) on faults. A rollback rewinds the
    /// simulation to the last checkpoint, so this keeps stepping until
    /// the replay has caught back up — the returned stats are always
    /// for a step the simulation had never committed before.
    ///
    /// # Errors
    /// [`ResilienceError::RetriesExhausted`] when the retry budget is
    /// spent; the verdict is identical on every rank.
    pub fn step(&mut self, comm: Option<&Comm>) -> Result<StepStats, ResilienceError> {
        let goal = self.sim.steps_taken() + 1;
        loop {
            // A shrink may have replaced the communicator; resolve the
            // active one fresh each attempt.
            let active = self.shrunk.clone();
            let cur = active.as_deref().or(comm);
            // RankKill site 1 of 2: occurrence 2s, "top of step s".
            // Every rank evaluates both sites every iteration so the
            // occurrence counters stay aligned across ranks (the rule
            // itself filters by rank).
            self.poll_rank_kill(cur, self.sim.steps_taken())?;
            match self.sim.try_step_capped(cur, None) {
                Ok(stats) => {
                    self.attempts = 0;
                    self.device_strikes = 0;
                    if self.placement != self.spec.placement {
                        self.stats.degraded_steps += 1;
                        self.recorder.count("recovery.degraded_steps", 1);
                    }
                    // RankKill site 2 of 2: occurrence 2s+1, "inside
                    // step s's checkpoint-adoption collective" — the
                    // victim dies here and the survivors' adoption (or
                    // next step) observes it structurally.
                    self.poll_rank_kill(cur, self.sim.steps_taken() - 1)?;
                    if self.policy.checkpoint_interval > 0
                        && self.sim.steps_taken().is_multiple_of(self.policy.checkpoint_interval)
                    {
                        // A spoiled save is discarded collectively and
                        // the previous checkpoint stays live — not a
                        // step failure.
                        let _ = self.try_adopt_checkpoint(cur);
                    }
                    if self.sim.steps_taken() >= goal {
                        return Ok(stats);
                    }
                }
                Err(e) => self.recover(e, comm)?,
            }
        }
    }

    /// Run `n` committed steps.
    ///
    /// # Errors
    /// As [`ResilientSim::step`].
    pub fn run_steps(
        &mut self,
        n: usize,
        comm: Option<&Comm>,
    ) -> Result<StepStats, ResilienceError> {
        assert!(n > 0, "run_steps: need at least one step");
        let mut last = self.step(comm)?;
        for _ in 1..n {
            last = self.step(comm)?;
        }
        Ok(last)
    }

    /// Attach the rank's fault injector and recorder to a (re)built
    /// simulation.
    fn wire(&mut self, comm: Option<&Comm>) {
        self.sim.set_recorder(self.recorder.clone());
        if let (Some(device), Some(injector)) =
            (self.sim.device(), comm.and_then(|c| c.fault_injector()))
        {
            device.set_fault_injector(std::sync::Arc::clone(injector));
        }
    }

    /// Rebuild a fresh simulation at the current placement, on the same
    /// clock (backoff and retry time keep accumulating on one
    /// timeline).
    fn rebuild(&mut self, comm: Option<&Comm>) {
        self.sim = self.spec.build(self.placement, self.clock.clone());
        self.wire(comm);
    }

    /// Save a global checkpoint manifest and adopt it collectively: a
    /// save spoiled by a device or transport fault on *any* rank is
    /// discarded on *every* rank. The adopted manifest is identical on
    /// every rank and rank-count-independent, so it stays restorable
    /// after the job shrinks.
    fn try_adopt_checkpoint(&mut self, comm: Option<&Comm>) -> Result<(), SimError> {
        let mut local: Option<SimError> = None;
        let db = match self.sim.try_save_checkpoint(comm) {
            Ok(db) => Some(db),
            Err(e) => {
                local = Some(e.into());
                None
            }
        };
        if let Some(device) = self.sim.device() {
            if let Some(e) = device.take_injected_fault() {
                local = Some(e.into());
            }
        }
        self.sim.commit(comm, local)?;
        self.checkpoint = db.expect("a committed save produced a manifest");
        self.checkpoint_step = self.sim.steps_taken();
        self.stats.checkpoints += 1;
        self.recorder.count("recovery.checkpoints", 1);
        Ok(())
    }

    /// Book-keep one failed attempt: count it, give up if the budget is
    /// spent, degrade the placement on repeated device verdicts, and
    /// charge the exponential backoff to the virtual clock.
    fn note_failure(&mut self, e: SimError) -> Result<(), ResilienceError> {
        self.attempts += 1;
        if self.attempts > self.policy.max_retries {
            return Err(ResilienceError::RetriesExhausted {
                step: self.checkpoint_step,
                attempts: self.attempts - 1,
                last: e,
            });
        }
        if matches!(e, SimError::Device { .. }) {
            self.device_strikes += 1;
            if self.device_strikes >= self.policy.degrade_after {
                let next = match self.placement {
                    Placement::Device => Some(Placement::DeviceCopyBack),
                    Placement::DeviceCopyBack => Some(Placement::Host),
                    Placement::Host => None,
                };
                if let Some(next) = next {
                    self.placement = next;
                    self.device_strikes = 0;
                    self.stats.degradations += 1;
                    self.recorder.count("recovery.degradations", 1);
                }
            }
        } else {
            self.device_strikes = 0;
        }
        let backoff = self.policy.backoff_base * (1u64 << (self.attempts - 1).min(16)) as f64;
        // Deterministic seeded jitter decorrelates the ranks' simulated
        // retry storms without sacrificing reproducibility: the factor
        // is a pure hash, never wall-clock randomness.
        let jitter = jitter_factor(self.jitter_seed, self.spec.rank as u64, self.attempts as u64);
        self.clock.advance(Category::Other, backoff * jitter);
        Ok(())
    }

    /// RankKill fault site: decide (deterministically) whether this
    /// rank dies here. The victim marks itself dead — so survivors
    /// observe the death structurally, with no timeout — and reports
    /// [`ResilienceError::Killed`]; it must not touch the communicator
    /// again.
    fn poll_rank_kill(&self, comm: Option<&Comm>, at_step: usize) -> Result<(), ResilienceError> {
        let Some(c) = comm else { return Ok(()) };
        let Some(inj) = c.fault_injector() else { return Ok(()) };
        if inj.should_fire(FaultKind::RankKill).is_some() {
            c.mark_dead();
            return Err(ResilienceError::Killed { rank: c.rank(), at_step });
        }
        Ok(())
    }

    /// Fold newly observed permanent deaths into a communicator shrink.
    ///
    /// Every survivor reaches this point together — the step verdict
    /// that failed is collective, and once a rank is dead every
    /// collective among the un-shrunk survivors carries a revoked
    /// verdict — so the shrink barrier cannot strand anyone. The
    /// survivor set is frozen by the barrier's completion, making the
    /// new logical numbering and the [`ResilienceError::InsufficientRanks`]
    /// verdict identical on every survivor.
    fn maybe_shrink(&mut self, comm: Option<&Comm>) -> Result<(), ResilienceError> {
        let active = self.shrunk.clone();
        let Some(c) = active.as_deref().or(comm) else { return Ok(()) };
        if c.dead_ranks().len() <= self.accepted_deaths {
            return Ok(());
        }
        let shrunk = c.shrink().expect("a live rank can always shrink");
        let lost = c.size() - shrunk.size();
        self.accepted_deaths += lost;
        self.stats.rank_losses += lost as u64;
        self.recorder.count("recovery.rank_losses", lost as u64);
        self.stats.shrinks += 1;
        self.recorder.count("recovery.shrinks", 1);
        // The rebuilt simulations live at the new logical coordinates;
        // restores re-partition patches over the survivor set.
        self.spec.rank = shrunk.rank();
        self.spec.nranks = shrunk.size();
        if shrunk.size() < self.policy.min_ranks.max(1) {
            return Err(ResilienceError::InsufficientRanks {
                survivors: shrunk.size(),
                min_ranks: self.policy.min_ranks,
            });
        }
        self.shrunk = Some(Arc::new(shrunk));
        Ok(())
    }

    /// One rollback-and-retry cycle: fold any newly observed permanent
    /// deaths into a shrink, book-keep the failure, rebuild at the
    /// current placement (and, after a shrink, the new logical rank)
    /// and restore the last checkpoint. Restore is fault-aware and its
    /// verdict is made collective here, so a faulted restore simply
    /// counts as the next failed attempt on every rank.
    fn recover(&mut self, e: SimError, comm: Option<&Comm>) -> Result<(), ResilienceError> {
        self.maybe_shrink(comm)?;
        self.note_failure(e)?;
        self.stats.rollbacks += 1;
        self.recorder.count("recovery.rollbacks", 1);
        let active = self.shrunk.clone();
        let cur = active.as_deref().or(comm);
        self.rebuild(cur);
        let restored = self.sim.try_restore_checkpoint(&self.checkpoint, cur);
        match self.sim.commit(cur, restored.err().map(SimError::from)) {
            Ok(()) => Ok(()),
            Err(e2) => self.recover(e2, comm),
        }
    }
}
