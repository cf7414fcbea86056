//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed plus a schedule of fault rules. Each rank
//! builds one [`FaultInjector`] from the plan and threads it through its
//! communicator (`rbamr-netsim`) and its device (`rbamr-device`); every
//! potential fault site asks the injector whether to fire. Decisions are
//! pure functions of `(seed, kind, rank, occurrence)` — a splitmix64
//! hash, no RNG state — so a rerun with the same plan reproduces the
//! same fault sites bit for bit, regardless of thread interleaving,
//! as long as each rank's op sequence is deterministic (which the
//! run-through recovery protocol guarantees: every step attempt
//! executes the same op sequence on every rank whether or not faults
//! fire, and failure is only declared at the collective step commit).
//!
//! The injector never panics and never blocks: it only answers "does
//! occurrence `n` of kind `k` on this rank fire?" and records what
//! fired, for reproducibility checks and telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The kinds of faults the layer can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A point-to-point message is lost on the wire: the frame arrives
    /// (so the receiver stays in lock-step) but carries no payload.
    MsgDrop,
    /// A point-to-point payload arrives bit-flipped; the frame is
    /// flagged so the receiver detects it (the stand-in for a real
    /// checksum mismatch).
    MsgCorrupt,
    /// A point-to-point message is delayed: delivery charges extra
    /// virtual time but the payload is intact. No error is raised.
    MsgDelay,
    /// A collective (allreduce / barrier / digest) fails; every
    /// participating rank observes the same typed error.
    CollectiveFault,
    /// A device allocation reports out-of-memory.
    AllocFail,
    /// A host↔device transfer fails.
    CopyFail,
    /// A box record in a partitioned-metadata exchange is corrupted in
    /// flight, tripping the digest verification on every rank.
    MetadataCorrupt,
    /// The rank dies permanently: it marks itself dead in the network,
    /// returns a typed error from its program, and never communicates
    /// again. Survivors observe `rbamr_netsim`'s dead-rank state
    /// (typed send errors, revoked collectives) and may shrink the job.
    ///
    /// Evaluated at the recovery driver's step boundaries — twice per
    /// step (once at the top of the step, once before checkpoint
    /// adoption), so occurrence `2*s` is "at the start of step s" and
    /// `2*s + 1` is "inside step s's checkpoint-adoption collective".
    RankKill,
}

/// Number of distinct [`FaultKind`]s (for per-kind counter arrays).
pub const NUM_KINDS: usize = 8;

impl FaultKind {
    /// Dense index for per-kind counters.
    pub fn index(self) -> usize {
        match self {
            FaultKind::MsgDrop => 0,
            FaultKind::MsgCorrupt => 1,
            FaultKind::MsgDelay => 2,
            FaultKind::CollectiveFault => 3,
            FaultKind::AllocFail => 4,
            FaultKind::CopyFail => 5,
            FaultKind::MetadataCorrupt => 6,
            FaultKind::RankKill => 7,
        }
    }

    /// All kinds, in `index()` order.
    pub fn all() -> [FaultKind; NUM_KINDS] {
        [
            FaultKind::MsgDrop,
            FaultKind::MsgCorrupt,
            FaultKind::MsgDelay,
            FaultKind::CollectiveFault,
            FaultKind::AllocFail,
            FaultKind::CopyFail,
            FaultKind::MetadataCorrupt,
            FaultKind::RankKill,
        ]
    }

    /// Short stable name (telemetry / JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MsgDrop => "msg_drop",
            FaultKind::MsgCorrupt => "msg_corrupt",
            FaultKind::MsgDelay => "msg_delay",
            FaultKind::CollectiveFault => "collective",
            FaultKind::AllocFail => "alloc_fail",
            FaultKind::CopyFail => "copy_fail",
            FaultKind::MetadataCorrupt => "metadata_corrupt",
            FaultKind::RankKill => "rank_kill",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule in a fault schedule: fire faults of `kind` on the selected
/// ranks, within an occurrence window, with a given probability.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Ranks the rule applies to; `None` means every rank.
    pub ranks: Option<Vec<usize>>,
    /// The window opens at this occurrence index (0-based, counted
    /// per rank per kind over the whole run — occurrence counters are
    /// never reset, so a transient window naturally stops firing after
    /// a rollback retries past it).
    pub after: u64,
    /// Number of in-window occurrences; `u64::MAX` makes the fault
    /// persistent (it keeps firing on every retry, driving degradation
    /// or retry exhaustion).
    pub count: u64,
    /// Per-occurrence firing probability in `[0, 1]`, evaluated as a
    /// pure hash of `(seed, kind, rank, occurrence)`.
    pub probability: f64,
}

impl FaultRule {
    /// A rule firing exactly once, at occurrence `at`, on every rank.
    pub fn once(kind: FaultKind, at: u64) -> Self {
        Self { kind, ranks: None, after: at, count: 1, probability: 1.0 }
    }

    /// A rule firing exactly once, at occurrence `at`, on one rank.
    pub fn once_on(kind: FaultKind, rank: usize, at: u64) -> Self {
        Self { kind, ranks: Some(vec![rank]), after: at, count: 1, probability: 1.0 }
    }

    /// A persistent rule: fires on every occurrence from `at` onwards.
    pub fn persistent(kind: FaultKind, rank: usize, at: u64) -> Self {
        Self { kind, ranks: Some(vec![rank]), after: at, count: u64::MAX, probability: 1.0 }
    }

    /// Kill `rank` permanently at the top of step `at_step` (0-based,
    /// counted over the run). See [`FaultKind::RankKill`] for the
    /// occurrence convention.
    pub fn rank_kill(rank: usize, at_step: u64) -> Self {
        Self::once_on(FaultKind::RankKill, rank, 2 * at_step)
    }

    /// Kill `rank` permanently inside step `at_step`'s
    /// checkpoint-adoption collective — survivors detect the death
    /// mid-collective rather than at a step boundary.
    pub fn rank_kill_at_adopt(rank: usize, at_step: u64) -> Self {
        Self::once_on(FaultKind::RankKill, rank, 2 * at_step + 1)
    }

    fn applies(&self, rank: usize, occurrence: u64) -> bool {
        if let Some(ranks) = &self.ranks {
            if !ranks.contains(&rank) {
                return false;
            }
        }
        occurrence >= self.after && occurrence - self.after < self.count
    }
}

/// A seed plus a schedule of fault rules — the whole input of a chaos
/// run. Cloning is cheap to share across ranks via `Arc`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed mixed into every firing decision.
    pub seed: u64,
    /// The schedule.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with the given seed and rules.
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        Self { seed, rules }
    }
}

/// A fault that fired: which kind, on which rank, at which occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// The injected kind.
    pub kind: FaultKind,
    /// The rank it fired on.
    pub rank: usize,
    /// The per-rank per-kind occurrence index it fired at.
    pub occurrence: u64,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@rank{}#{}", self.kind, self.rank, self.occurrence)
    }
}

/// What one rank's injector did over a run: per-kind evaluation and
/// fire counts plus the ordered log of fired sites. Two runs of the
/// same plan over the same deterministic program must produce equal
/// reports — `chaos_bench` asserts exactly that.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Occurrences evaluated, by `FaultKind::index()`.
    pub evaluated: [u64; NUM_KINDS],
    /// Faults fired, by `FaultKind::index()`.
    pub fired: [u64; NUM_KINDS],
    /// Every fired site, in firing order.
    pub sites: Vec<FaultSite>,
}

impl FaultReport {
    /// Total faults fired across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// splitmix64 — the standard 64-bit finalizer; enough mixing that
/// consecutive occurrences decorrelate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One rank's view of a [`FaultPlan`]: answers "does this occurrence
/// fire?" and keeps deterministic counters. Shared (via `Arc`) by the
/// rank's communicator and device.
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    rank: usize,
    evaluated: [AtomicU64; NUM_KINDS],
    fired: [AtomicU64; NUM_KINDS],
    sites: Mutex<Vec<FaultSite>>,
}

impl FaultInjector {
    /// An injector for `rank` under `plan`.
    pub fn new(plan: Arc<FaultPlan>, rank: usize) -> Arc<Self> {
        Arc::new(Self {
            plan,
            rank,
            evaluated: Default::default(),
            fired: Default::default(),
            sites: Mutex::new(Vec::new()),
        })
    }

    /// A no-op injector (empty plan) — convenient default.
    pub fn disabled(rank: usize) -> Arc<Self> {
        Self::new(Arc::new(FaultPlan::none()), rank)
    }

    /// The rank this injector serves.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// The deterministic decision hash for `(kind, occurrence)` on this
    /// rank — also used by call sites that need reproducible "random"
    /// choices (which byte to flip, how long to delay).
    pub fn decision_word(&self, kind: FaultKind, occurrence: u64) -> u64 {
        let mut h = splitmix64(self.plan.seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        h = splitmix64(h ^ (kind.index() as u64).wrapping_mul(0x9E37_79B9));
        h = splitmix64(h ^ (self.rank as u64).wrapping_mul(0x85EB_CA6B));
        splitmix64(h ^ occurrence)
    }

    /// Advance the occurrence counter for `kind` and decide whether
    /// this occurrence fires. Records the site when it does. This is
    /// the single entry point for all fault sites.
    pub fn should_fire(&self, kind: FaultKind) -> Option<FaultSite> {
        if self.plan.rules.is_empty() {
            return None;
        }
        let occurrence = self.evaluated[kind.index()].fetch_add(1, Ordering::Relaxed);
        let mut fires = false;
        for rule in &self.plan.rules {
            if rule.kind == kind && rule.applies(self.rank, occurrence) {
                if rule.probability >= 1.0 {
                    fires = true;
                } else if rule.probability > 0.0 {
                    // Map the decision word to [0, 1).
                    let u =
                        (self.decision_word(kind, occurrence) >> 11) as f64 / (1u64 << 53) as f64;
                    fires |= u < rule.probability;
                }
                if fires {
                    break;
                }
            }
        }
        if !fires {
            return None;
        }
        let site = FaultSite { kind, rank: self.rank, occurrence };
        self.fired[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.sites.lock().expect("fault site log poisoned").push(site);
        Some(site)
    }

    /// Total faults fired so far on this rank.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Faults fired so far for one kind.
    pub fn fired_count(&self, kind: FaultKind) -> u64 {
        self.fired[kind.index()].load(Ordering::Relaxed)
    }

    /// Snapshot the run's report (counters + ordered fired-site log).
    pub fn report(&self) -> FaultReport {
        let mut out = FaultReport::default();
        for i in 0..NUM_KINDS {
            out.evaluated[i] = self.evaluated[i].load(Ordering::Relaxed);
            out.fired[i] = self.fired[i].load(Ordering::Relaxed);
        }
        out.sites = self.sites.lock().expect("fault site log poisoned").clone();
        out
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("rank", &self.rank)
            .field("seed", &self.plan.seed)
            .field("rules", &self.plan.rules.len())
            .field("fired", &self.total_fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rules: Vec<FaultRule>) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(42, rules))
    }

    #[test]
    fn empty_plan_never_fires_and_counts_nothing() {
        let inj = FaultInjector::disabled(0);
        for _ in 0..100 {
            assert!(inj.should_fire(FaultKind::MsgDrop).is_none());
        }
        assert_eq!(inj.report(), FaultReport::default());
    }

    #[test]
    fn window_semantics() {
        let inj = FaultInjector::new(
            plan(vec![FaultRule {
                kind: FaultKind::AllocFail,
                ranks: None,
                after: 3,
                count: 2,
                probability: 1.0,
            }]),
            0,
        );
        let fired: Vec<bool> =
            (0..8).map(|_| inj.should_fire(FaultKind::AllocFail).is_some()).collect();
        assert_eq!(fired, vec![false, false, false, true, true, false, false, false]);
        let rep = inj.report();
        assert_eq!(rep.evaluated[FaultKind::AllocFail.index()], 8);
        assert_eq!(rep.fired[FaultKind::AllocFail.index()], 2);
        assert_eq!(
            rep.sites,
            vec![
                FaultSite { kind: FaultKind::AllocFail, rank: 0, occurrence: 3 },
                FaultSite { kind: FaultKind::AllocFail, rank: 0, occurrence: 4 },
            ]
        );
    }

    #[test]
    fn rank_filter_applies() {
        let rules = vec![FaultRule {
            kind: FaultKind::MsgDrop,
            ranks: Some(vec![1]),
            after: 0,
            count: u64::MAX,
            probability: 1.0,
        }];
        let r0 = FaultInjector::new(plan(rules.clone()), 0);
        let r1 = FaultInjector::new(plan(rules), 1);
        assert!(r0.should_fire(FaultKind::MsgDrop).is_none());
        assert!(r1.should_fire(FaultKind::MsgDrop).is_some());
    }

    #[test]
    fn kinds_do_not_cross_talk() {
        let inj = FaultInjector::new(plan(vec![FaultRule::once(FaultKind::MsgCorrupt, 0)]), 0);
        assert!(inj.should_fire(FaultKind::MsgDrop).is_none());
        assert!(inj.should_fire(FaultKind::CollectiveFault).is_none());
        assert!(inj.should_fire(FaultKind::MsgCorrupt).is_some());
        assert!(inj.should_fire(FaultKind::MsgCorrupt).is_none(), "count=1 window closed");
    }

    #[test]
    fn decisions_are_reproducible_across_instances() {
        let rules = vec![FaultRule {
            kind: FaultKind::MsgCorrupt,
            ranks: None,
            after: 0,
            count: u64::MAX,
            probability: 0.3,
        }];
        let a = FaultInjector::new(plan(rules.clone()), 2);
        let b = FaultInjector::new(plan(rules), 2);
        let da: Vec<bool> =
            (0..200).map(|_| a.should_fire(FaultKind::MsgCorrupt).is_some()).collect();
        let db: Vec<bool> =
            (0..200).map(|_| b.should_fire(FaultKind::MsgCorrupt).is_some()).collect();
        assert_eq!(da, db);
        assert_eq!(a.report(), b.report());
        // A probability of 0.3 over 200 trials fires some but not all.
        let n = da.iter().filter(|&&x| x).count();
        assert!(n > 10 && n < 190, "p=0.3 fired {n}/200");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultInjector::new(
                Arc::new(FaultPlan::new(
                    seed,
                    vec![FaultRule {
                        kind: FaultKind::MsgDrop,
                        ranks: None,
                        after: 0,
                        count: u64::MAX,
                        probability: 0.5,
                    }],
                )),
                0,
            )
        };
        let a = mk(1);
        let b = mk(2);
        let da: Vec<bool> = (0..64).map(|_| a.should_fire(FaultKind::MsgDrop).is_some()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.should_fire(FaultKind::MsgDrop).is_some()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn decision_word_is_pure() {
        let inj = FaultInjector::disabled(3);
        assert_eq!(
            inj.decision_word(FaultKind::MsgDelay, 7),
            inj.decision_word(FaultKind::MsgDelay, 7)
        );
        assert_ne!(
            inj.decision_word(FaultKind::MsgDelay, 7),
            inj.decision_word(FaultKind::MsgDelay, 8)
        );
    }
}
