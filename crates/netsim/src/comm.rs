//! The per-rank communicator.

use crate::collectives::{
    self, f64_words, CollectiveAlgo, CollectiveOp, CollectiveOutput, ReduceSpec,
};
use crate::sched::Scheduler;
use bytes::Bytes;
use parking_lot::Mutex;
use rbamr_fault::{FaultInjector, FaultKind};
use rbamr_perfmodel::{Category, Clock, CostModel};
use rbamr_telemetry::Recorder;
use std::collections::HashMap;
use std::sync::Arc;

/// Typed panic payload and error cause raised on every surviving rank
/// when a peer rank panics: the job is poisoned, all parked waiters
/// wake immediately, and `Cluster::run` re-propagates the *origin*
/// rank's original panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerPanicked {
    /// The rank whose panic poisoned the job.
    pub origin: usize,
}

impl std::fmt::Display for PeerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer rank {} panicked; job poisoned", self.origin)
    }
}

impl std::error::Error for PeerPanicked {}

/// Scheduler-level failure for a blocking operation. Distinguishes the
/// job-wide poison (a peer's *panic* — a bug, propagated loudly) from a
/// first-class *permanent rank death* (an injected `RankKill` — an
/// expected event at scale that the survivors recover from by
/// shrinking; see [`Comm::shrink`]).
pub(crate) enum Fail {
    /// A peer's panic poisoned the job.
    Poisoned(PeerPanicked),
    /// The specific peer this operation depends on is permanently dead
    /// (physical rank id).
    Dead {
        /// The dead peer's physical rank.
        rank: usize,
    },
}

/// Message-tag layout: the top four bits (63..=60) of every tag carry
/// the message *kind* — an application-chosen channel class used to
/// split telemetry counters (`net.sends.kind{k}`); kind 15 is reserved
/// for collective plumbing ([`Comm::gather`] / [`Comm::broadcast`] /
/// [`Comm::allgatherv`] internal point-to-point traffic). The
/// remaining 60 bits are free for the application. A `u64 >> 60` can
/// never exceed 15, so every kind has a label; the debug assertion
/// documents (and the `.get()` fallback enforces) that invariant
/// against future layout changes.
#[inline]
pub(crate) fn tag_kind(tag: u64) -> usize {
    let kind = (tag >> 60) as usize;
    debug_assert!(kind < 16, "tag {tag:#x}: kind bits out of range");
    kind
}

/// Frame flags carried in the first byte of every point-to-point
/// message. The fault layer marks injected drop/corrupt frames so the
/// receiver stays in lock-step (the frame is consumed) while the
/// payload is detected as faulty — the simulated analogue of a
/// checksum mismatch or a lost-packet NACK.
const FLAG_OK: u8 = 0;
const FLAG_DROPPED: u8 = 1;
const FLAG_CORRUPT: u8 = 2;

/// A communication failure observed by one rank.
///
/// Returned as `Err` instead of panicking: a panic in one rank thread
/// poisons the whole simulated job (every other rank then fails with
/// [`PeerPanicked`]), whereas an error lets the caller run through the
/// rest of the step's communication pattern and fail collectively at
/// the step commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The broadcast root passed `None` instead of a payload.
    MissingRootPayload {
        /// The root rank of the offending broadcast.
        root: usize,
    },
    /// A non-root rank passed `Some(payload)` to a broadcast.
    UnexpectedPayload {
        /// The offending rank.
        rank: usize,
    },
    /// A point-to-point message was lost on the wire (injected fault):
    /// the frame arrived empty and flagged.
    MessageDropped {
        /// Sending rank.
        src: usize,
        /// Receiving rank (the observer).
        dst: usize,
        /// Message tag.
        tag: u64,
    },
    /// A point-to-point payload arrived corrupted (injected fault).
    MessageCorrupt {
        /// Sending rank.
        src: usize,
        /// Receiving rank (the observer).
        dst: usize,
        /// Message tag.
        tag: u64,
    },
    /// A collective failed; every participating rank observes this
    /// same error for the same collective.
    CollectiveFault {
        /// The collective's name (`"allreduce-min"`, `"barrier"`, …).
        name: &'static str,
    },
    /// A peer rank panicked and poisoned the job; this rank's pending
    /// or subsequent communication fails fast. The origin rank's own
    /// panic is what `Cluster::run` re-propagates.
    PeerPanicked {
        /// The rank whose panic poisoned the job.
        origin: usize,
    },
    /// The peer rank this operation depends on is permanently dead
    /// (killed by an injected `RankKill` or declared via
    /// [`Comm::mark_dead`]). Unlike [`CommError::PeerPanicked`] this is
    /// not a job-wide poison: survivors detect it, agree collectively,
    /// and shrink the job via [`Comm::shrink`]. The rank id is in the
    /// caller's (logical) numbering.
    RankDead {
        /// The dead rank.
        rank: usize,
    },
    /// A collective completed among the survivors after one or more
    /// participants permanently died mid-operation: the combined result
    /// is structurally complete but *revoked* — it is missing the dead
    /// rank's contribution, so no rank may act on it. Every surviving
    /// participant observes this same error (the ULFM
    /// `MPI_ERR_REVOKED` analogue).
    Revoked {
        /// The collective's name.
        name: &'static str,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingRootPayload { root } => {
                write!(f, "broadcast: root rank {root} must supply a payload")
            }
            Self::UnexpectedPayload { rank } => {
                write!(f, "broadcast: non-root rank {rank} supplied a payload")
            }
            Self::MessageDropped { src, dst, tag } => {
                write!(f, "message {src}->{dst} tag {tag:#x} dropped (injected fault)")
            }
            Self::MessageCorrupt { src, dst, tag } => {
                write!(f, "message {src}->{dst} tag {tag:#x} corrupt (injected fault)")
            }
            Self::CollectiveFault { name } => {
                write!(f, "collective {name} failed (injected fault)")
            }
            Self::PeerPanicked { origin } => {
                write!(f, "peer rank {origin} panicked; job poisoned")
            }
            Self::RankDead { rank } => {
                write!(f, "rank {rank} is permanently dead")
            }
            Self::Revoked { name } => {
                write!(f, "collective {name} revoked: a participant died mid-operation")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A rank's endpoint in the simulated job — the MPI communicator
/// analogue. One `Comm` is handed to each rank closure by
/// [`Cluster::run`](crate::Cluster::run).
pub struct Comm {
    /// This rank's *physical* id in the original job,
    /// `0..shared.size()`. Scheduler-level operations (frames,
    /// rendezvous, liveness) always speak physical ids; the
    /// application-facing [`Comm::rank`] / [`Comm::size`] speak the
    /// logical (post-shrink) numbering.
    physical_rank: usize,
    /// Logical→physical rank translation after a shrink: `view[l]` is
    /// the physical id of logical rank `l`. `None` until the first
    /// [`Comm::shrink`] (identity mapping).
    view: Option<Arc<Vec<usize>>>,
    /// This rank's logical id (`== physical_rank` until the first
    /// shrink).
    logical_rank: usize,
    shared: Arc<Scheduler>,
    clock: Clock,
    cost: Arc<CostModel>,
    algo: CollectiveAlgo,
    collective_seq: std::sync::atomic::AtomicU64,
    /// Local rendezvous counter: all ranks execute rendezvous
    /// collectives in the same order, so equal values across ranks
    /// identify the same rendezvous — the identity causal edge events
    /// are matched on.
    rendezvous_seq: std::sync::atomic::AtomicU64,
    /// Occurrence counters per `(peer, tag)` channel for sent and
    /// received messages. Mailboxes are FIFO per channel, so the n-th
    /// send on a channel is the n-th receive — occurrence numbering
    /// matches without any wire changes.
    send_seq: Mutex<HashMap<(usize, u64), u64>>,
    recv_seq: Mutex<HashMap<(usize, u64), u64>>,
    recorder: Recorder,
    injector: Option<Arc<FaultInjector>>,
    /// Communication/computation overlap credit (virtual seconds):
    /// compute that provably ran while messages were in flight (e.g. an
    /// interior-region batch between `begin_fill` and `finish`) is
    /// banked here, and subsequent point-to-point receives charge only
    /// the *exposed* remainder of their transfer cost. Zero unless a
    /// caller banks — the unoverlapped paths are unaffected.
    overlap_credit: Mutex<f64>,
}

/// Escalate a typed comm error on an infallible-path wrapper: a
/// poisoned job re-panics with the typed [`PeerPanicked`] payload (the
/// origin rank's own panic stays the job's primary failure), anything
/// else is an unhandled injected fault — a bug in the caller's fault
/// discipline.
fn escalate(op: &str, e: CommError) -> ! {
    match e {
        CommError::PeerPanicked { origin } => std::panic::panic_any(PeerPanicked { origin }),
        e => panic!("{op}: unhandled injected fault: {e}"),
    }
}

/// Next occurrence number for a `(peer, tag)` channel.
fn next_occurrence(map: &Mutex<HashMap<(usize, u64), u64>>, peer: usize, tag: u64) -> u64 {
    let mut m = map.lock();
    let slot = m.entry((peer, tag)).or_insert(0);
    let occ = *slot;
    *slot += 1;
    occ
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        shared: Arc<Scheduler>,
        clock: Clock,
        cost: Arc<CostModel>,
        algo: CollectiveAlgo,
    ) -> Self {
        Self {
            physical_rank: rank,
            view: None,
            logical_rank: rank,
            shared,
            clock,
            cost,
            algo,
            collective_seq: std::sync::atomic::AtomicU64::new(0),
            rendezvous_seq: std::sync::atomic::AtomicU64::new(0),
            send_seq: Mutex::new(HashMap::new()),
            recv_seq: Mutex::new(HashMap::new()),
            recorder: Recorder::disabled(),
            injector: None,
            overlap_credit: Mutex::new(0.0),
        }
    }

    /// Bank `seconds` of compute that ran while messages were in flight
    /// as overlap credit: subsequent point-to-point receives charge
    /// only the exposed remainder of their transfer cost (the netsim
    /// analogue of `rbamr_device::Device`'s transfer/compute overlap
    /// credit). Callers bound the window with
    /// [`Comm::clear_overlap_credit`].
    pub fn bank_overlap_credit(&self, seconds: f64) {
        if seconds > 0.0 {
            *self.overlap_credit.lock() += seconds;
        }
    }

    /// Drop any unconsumed overlap credit — called at the end of an
    /// overlap window so leftover credit cannot hide unrelated,
    /// genuinely serial communication.
    pub fn clear_overlap_credit(&self) {
        *self.overlap_credit.lock() = 0.0;
    }

    /// Unconsumed overlap credit (diagnostics).
    pub fn overlap_credit(&self) -> f64 {
        *self.overlap_credit.lock()
    }

    /// Attach a telemetry recorder: sends/receives/collectives report
    /// message counts and bytes (split by tag kind, the top four tag
    /// bits) and collectives record spans.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder (disabled if never set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attach a fault injector: sends, receives and collectives consult
    /// it for seeded drop/corrupt/delay/collective faults. Every fired
    /// fault counts `fault.injected` on the recorder.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The attached fault injector, if any — shared with the rank's
    /// device and read back by chaos harnesses for reproducibility
    /// checks.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    fn count_message(&self, is_send: bool, tag: u64, bytes: u64) {
        if !self.recorder.is_enabled() {
            return;
        }
        // Static label table: the hot path composes counter names from
        // `&'static str` pieces, deferring all string formatting to
        // snapshot time. See [`tag_kind`] for the tag layout; the
        // `.get()` fallback keeps this panic-free even if the kind
        // extraction ever goes out of range.
        const KIND: [&str; 16] =
            ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"];
        let kind = KIND.get(tag_kind(tag)).copied().unwrap_or("invalid");
        if is_send {
            self.recorder.count_scoped("net.sends", "", 1);
            self.recorder.count_scoped("net.send_bytes", "", bytes);
            self.recorder.count_scoped("net.sends.kind", kind, 1);
            self.recorder.count_scoped("net.send_bytes.kind", kind, bytes);
        } else {
            self.recorder.count_scoped("net.recvs", "", 1);
            self.recorder.count_scoped("net.recv_bytes", "", bytes);
            self.recorder.count_scoped("net.recvs.kind", kind, 1);
            self.recorder.count_scoped("net.recv_bytes.kind", kind, bytes);
        }
    }

    /// This rank's id, `0..size`, in the current (logical) numbering.
    /// Identical to the physical id until a [`Comm::shrink`] renumbers
    /// the survivors densely.
    pub fn rank(&self) -> usize {
        self.logical_rank
    }

    /// Number of ranks in the (current, possibly shrunk) job.
    pub fn size(&self) -> usize {
        match &self.view {
            Some(v) => v.len(),
            None => self.shared.size(),
        }
    }

    /// Physical id of logical rank `l`.
    #[inline]
    fn physical(&self, l: usize) -> usize {
        match &self.view {
            Some(v) => v[l],
            None => l,
        }
    }

    /// Declare *this* rank permanently dead (the simulated analogue of
    /// a node loss). Pending and future receives that depend on it fail
    /// on the survivors with [`CommError::RankDead`], in-flight
    /// rendezvous collectives complete among the survivors as
    /// [`CommError::Revoked`], and the structural deadlock detector
    /// stops counting this rank as live — the survivors never hang on
    /// it. The dying rank's closure should return promptly after
    /// calling this; its remaining sends are black-holed.
    pub fn mark_dead(&self) {
        self.shared.mark_dead(self.physical_rank);
    }

    /// All physical ranks declared permanently dead so far (ascending).
    /// Physical ids are stable across shrinks, so survivors can count
    /// distinct losses against this list.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.shared.dead_ranks()
    }

    /// Shrink the job to the current survivor set: blocks until every
    /// survivor arrives, flushes all in-flight frames (the shrink
    /// boundary is a communication epoch — unreceived messages are
    /// lost, exactly like packets addressed to a dead node), aligns
    /// collective sequence numbers across survivors, and returns a new
    /// communicator whose [`Comm::rank`] / [`Comm::size`] renumber the
    /// survivors densely (`0..survivors`). The old communicator must
    /// not be used afterwards. The virtual clock, cost model, recorder,
    /// and fault injector carry over, so telemetry and causal traces
    /// continue across the boundary.
    ///
    /// # Errors
    /// [`CommError::RankDead`] if this rank is itself dead (it has no
    /// place in the survivor set).
    ///
    /// # Panics
    /// Panics with a [`PeerPanicked`] payload if the job is poisoned.
    pub fn shrink(&self) -> Result<Comm, CommError> {
        if self.shared.is_dead(self.physical_rank) {
            return Err(CommError::RankDead { rank: self.physical_rank });
        }
        let words = [
            self.collective_seq.load(std::sync::atomic::Ordering::Relaxed),
            self.rendezvous_seq.load(std::sync::atomic::Ordering::Relaxed),
        ];
        let aligned = match self.shared.shrink_align(self.physical_rank, words) {
            Ok(w) => w,
            Err(p) => std::panic::panic_any(p),
        };
        // The survivor set is read *after* the align: completion
        // freezes the accepted dead set under the scheduler lock, so every
        // survivor derives the same view even when a second death lands
        // while the first is being agreed on.
        let dead = self.shared.dead_ranks();
        let survivors: Vec<usize> = (0..self.shared.size()).filter(|r| !dead.contains(r)).collect();
        let logical_rank = survivors
            .iter()
            .position(|&r| r == self.physical_rank)
            .expect("live rank must appear in the survivor set");
        self.recorder.count("net.shrinks", 1);
        Ok(Comm {
            physical_rank: self.physical_rank,
            view: Some(Arc::new(survivors)),
            logical_rank,
            shared: Arc::clone(&self.shared),
            clock: self.clock.clone(),
            cost: Arc::clone(&self.cost),
            algo: self.algo,
            collective_seq: std::sync::atomic::AtomicU64::new(aligned[0]),
            rendezvous_seq: std::sync::atomic::AtomicU64::new(aligned[1]),
            // Point-to-point occurrence counters restart symmetrically
            // on every survivor: flushed frames would otherwise leave
            // sender and receiver counters permanently skewed.
            send_seq: Mutex::new(HashMap::new()),
            recv_seq: Mutex::new(HashMap::new()),
            recorder: self.recorder.clone(),
            injector: self.injector.clone(),
            overlap_credit: Mutex::new(*self.overlap_credit.lock()),
        })
    }

    /// The rank's virtual clock (shared with its device, if any).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost model pricing this rank's communication.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The payload-collective algorithm this communicator dispatches
    /// on (see [`crate::Cluster::with_collectives`]).
    pub fn collective_algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// Decide the frame flag (and possibly mutated body) for an
    /// outgoing payload: injected drops empty the body, injected
    /// corruption flips one deterministic bit. Both mark the frame so
    /// the receiver detects the fault without desynchronising.
    fn frame_for_send(&self, payload: Bytes) -> (u8, Bytes) {
        let Some(inj) = &self.injector else { return (FLAG_OK, payload) };
        if inj.should_fire(FaultKind::MsgDrop).is_some() {
            self.recorder.count("fault.injected", 1);
            return (FLAG_DROPPED, Bytes::new());
        }
        if let Some(site) = inj.should_fire(FaultKind::MsgCorrupt) {
            self.recorder.count("fault.injected", 1);
            if payload.is_empty() {
                return (FLAG_CORRUPT, payload);
            }
            let w = inj.decision_word(FaultKind::MsgCorrupt, site.occurrence);
            let mut body = payload.to_vec();
            let idx = (w as usize) % body.len();
            body[idx] ^= 1 << ((w >> 8) % 8);
            return (FLAG_CORRUPT, Bytes::from(body));
        }
        (FLAG_OK, payload)
    }

    /// Post a message to `dst` with a user-chosen `tag`. Non-blocking
    /// (buffered send); virtual transfer time is charged on the
    /// receiving side so a message's cost is counted exactly once.
    ///
    /// An attached fault injector may drop or corrupt the payload on
    /// the wire; the flagged frame still arrives, so the receiver
    /// detects the fault from [`Comm::try_recv`] without hanging.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or is this rank itself (self
    /// messages indicate a schedule bug — local copies must not go
    /// through the network layer), or with a [`PeerPanicked`] payload
    /// if the job was poisoned by a peer's panic.
    pub fn send(&self, dst: usize, tag: u64, payload: Bytes) {
        assert!(dst < self.size(), "send: rank {dst} out of range");
        let dst = self.physical(dst);
        assert_ne!(dst, self.physical_rank, "send: rank {} sent to itself", self.logical_rank);
        self.count_message(true, tag, payload.len() as u64);
        if self.recorder.is_enabled() {
            let occ = next_occurrence(&self.send_seq, dst, tag);
            self.recorder.edge_send(dst, tag, occ, payload.len() as u64, Category::Other);
        }
        let (flag, body) = self.frame_for_send(payload);
        let mut framed = Vec::with_capacity(body.len() + 1);
        framed.push(flag);
        framed.extend_from_slice(&body);
        if let Err(p) = self.shared.push_frame(self.physical_rank, dst, tag, Bytes::from(framed)) {
            std::panic::panic_any(p);
        }
    }

    /// Blocking receive of the next message from `src` with `tag`.
    /// Charges this rank's clock with the modelled message cost,
    /// attributed to `category`.
    ///
    /// # Errors
    /// [`CommError::MessageDropped`] / [`CommError::MessageCorrupt`]
    /// when the frame carries an injected fault. The frame is consumed
    /// either way, so the caller can keep receiving later messages (the
    /// run-through recovery discipline). [`CommError::PeerPanicked`]
    /// when a peer's panic poisoned the job while this rank waited.
    ///
    /// # Panics
    /// Panics on deadlock (detected structurally, see [`crate::sched`];
    /// the message dumps every rank's pending op), or if `src` is
    /// invalid.
    pub fn try_recv(&self, src: usize, tag: u64, category: Category) -> Result<Bytes, CommError> {
        assert!(src < self.size(), "recv: rank {src} out of range");
        let logical_src = src;
        let src = self.physical(src);
        assert_ne!(
            src, self.physical_rank,
            "recv: rank {} received from itself",
            self.logical_rank
        );
        let frame = match self.shared.pop_frame(self.physical_rank, src, tag, category) {
            Ok(frame) => frame,
            Err(Fail::Poisoned(p)) => return Err(CommError::PeerPanicked { origin: p.origin }),
            Err(Fail::Dead { rank }) => {
                debug_assert_eq!(rank, src, "scheduler reported a different dead rank");
                return Err(CommError::RankDead { rank: logical_src });
            }
        };
        assert!(!frame.is_empty(), "recv: malformed frame (missing flag byte)");
        let flag = frame[0];
        let payload = frame.slice(1..);
        let bytes = payload.len() as u64;
        let mut transfer = self.cost.message(bytes);
        if let Some(inj) = &self.injector {
            if let Some(site) = inj.should_fire(FaultKind::MsgDelay) {
                self.recorder.count("fault.injected", 1);
                // A deterministic 1-8x message-cost stall: congestion,
                // retransmission, a slow NIC — no data harm done.
                let w = inj.decision_word(FaultKind::MsgDelay, site.occurrence);
                let factor = 1 + (w % 8);
                transfer += self.cost.message(bytes) * factor as f64;
            }
        }
        {
            // Consume banked comm/compute overlap credit: the part of
            // the transfer that demonstrably overlapped compute is not
            // charged (and not recorded as an exposed edge cost).
            let mut credit = self.overlap_credit.lock();
            let hidden = transfer.min(*credit);
            *credit -= hidden;
            transfer -= hidden;
        }
        self.clock.advance(category, transfer);
        self.count_message(false, tag, bytes);
        if self.recorder.is_enabled() {
            let occ = next_occurrence(&self.recv_seq, src, tag);
            self.recorder.edge_recv(src, tag, occ, bytes, transfer, category);
        }
        match flag {
            FLAG_OK => Ok(payload),
            FLAG_DROPPED => {
                Err(CommError::MessageDropped { src: logical_src, dst: self.logical_rank, tag })
            }
            FLAG_CORRUPT => {
                Err(CommError::MessageCorrupt { src: logical_src, dst: self.logical_rank, tag })
            }
            other => panic!("recv: unknown frame flag {other}"),
        }
    }

    /// Blocking receive for fault-free paths.
    ///
    /// # Panics
    /// Panics on an injected fault — callers that can encounter
    /// injected faults use [`Comm::try_recv`] and propagate the typed
    /// error instead.
    pub fn recv(&self, src: usize, tag: u64, category: Category) -> Bytes {
        self.try_recv(src, tag, category).unwrap_or_else(|e| escalate("recv", e))
    }

    /// Run one collective. This is the single fallible entry point
    /// behind every named collective on `Comm`: the op carries the
    /// reduction/concatenation semantics and the output variant
    /// mirrors the op. Reductions are one rendezvous (see
    /// [`Comm::try_reduce`]); payload-moving ops are messages under the
    /// job's [`CollectiveAlgo`]. An injected
    /// [`CommError::CollectiveFault`] on a reduction surfaces
    /// symmetrically on every rank.
    pub fn try_collective(
        &self,
        op: CollectiveOp,
        category: Category,
    ) -> Result<CollectiveOutput, CommError> {
        match op {
            CollectiveOp::Reduce { spec, words } => {
                self.try_reduce(spec, words, category).map(CollectiveOutput::Reduced)
            }
            CollectiveOp::AllGather { payload } => {
                let _span =
                    self.recorder.is_enabled().then(|| self.recorder.span("allgatherv", category));
                self.recorder.count("net.collectives", 1);
                match self.algo {
                    CollectiveAlgo::Flat => self.flat_allgatherv(payload, category),
                    CollectiveAlgo::RecursiveDoubling => {
                        collectives::rd_allgatherv(self, payload, category)
                    }
                }
                .map(CollectiveOutput::Gathered)
            }
            CollectiveOp::Gather { root, payload } => {
                let _span =
                    self.recorder.is_enabled().then(|| self.recorder.span("gather", category));
                self.recorder.count("net.collectives", 1);
                match self.algo {
                    CollectiveAlgo::Flat => self.flat_gather(root, payload, category),
                    CollectiveAlgo::RecursiveDoubling => {
                        collectives::tree_gather(self, root, payload, category)
                    }
                }
                .map(CollectiveOutput::GatheredAtRoot)
            }
            CollectiveOp::Broadcast { root, payload } => {
                let _span =
                    self.recorder.is_enabled().then(|| self.recorder.span("broadcast", category));
                self.recorder.count("net.collectives", 1);
                match self.algo {
                    CollectiveAlgo::Flat => self.flat_broadcast(root, payload, category),
                    CollectiveAlgo::RecursiveDoubling => {
                        collectives::tree_broadcast(self, root, payload, category)
                    }
                }
                .map(CollectiveOutput::Broadcast)
            }
        }
    }

    /// Blocking [`Comm::try_collective`] for fault-free paths.
    ///
    /// # Panics
    /// Panics on any typed comm error — callers that can encounter
    /// injected faults (or use the inherently fallible broadcast
    /// payload contract) go through [`Comm::try_collective`].
    pub fn collective(&self, op: CollectiveOp, category: Category) -> CollectiveOutput {
        let name = op.name();
        self.try_collective(op, category).unwrap_or_else(|e| escalate(name, e))
    }

    /// Allreduce of a 3-word state — the one execution of every
    /// reduction-shaped collective (barriers included). *Cost*: the
    /// caller's clock is charged [`CostModel::allreduce`]
    /// (⌈log₂N⌉ × `message(spec.bytes)`) to `category` and one
    /// collective causal edge is emitted. *Execution*: one rendezvous
    /// through the scheduler's shared 3-word accumulator, no frames on the
    /// wire. The injected-fault decision (consulted once per call) and
    /// the dead-rank flag are OR-ed through the same rendezvous, so
    /// every rank reports the same [`CommError::CollectiveFault`] /
    /// [`CommError::Revoked`].
    fn try_reduce(
        &self,
        spec: ReduceSpec,
        words: [u64; 3],
        category: Category,
    ) -> Result<[u64; 3], CommError> {
        let name = spec.name;
        let _span = self.recorder.is_enabled().then(|| self.recorder.span(name, category));
        self.recorder.count("net.collectives", 1);
        self.recorder.count("net.collective_bytes", spec.bytes);
        let cost = self.cost.allreduce(self.size() as u32, spec.bytes);
        self.clock.advance(category, cost);
        let cseq = self.rendezvous_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.recorder.edge_collective(name, cseq, spec.bytes, cost, category);
        let injected =
            self.injector.as_ref().and_then(|i| i.should_fire(FaultKind::CollectiveFault));
        if injected.is_some() {
            self.recorder.count("fault.injected", 1);
        }
        if self.size() == 1 {
            return if injected.is_some() {
                Err(CommError::CollectiveFault { name })
            } else {
                Ok(words)
            };
        }
        let (result, result_fault, result_revoked) = match self.shared.rendezvous(
            self.physical_rank,
            name,
            category,
            words,
            spec.combine,
            injected.is_some(),
        ) {
            Ok(out) => out,
            Err(p) => return Err(CommError::PeerPanicked { origin: p.origin }),
        };
        // Revocation outranks an injected taint: a result missing a
        // dead rank's contribution must not be acted on at all.
        if result_revoked {
            Err(CommError::Revoked { name })
        } else if result_fault {
            Err(CommError::CollectiveFault { name })
        } else {
            Ok(result)
        }
    }

    fn reduce_f64(&self, spec: ReduceSpec, v: f64, category: Category) -> f64 {
        self.try_reduce_f64(spec, v, category).unwrap_or_else(|e| escalate(spec.name, e))
    }

    fn try_reduce_f64(
        &self,
        spec: ReduceSpec,
        v: f64,
        category: Category,
    ) -> Result<f64, CommError> {
        self.try_reduce(spec, f64_words(v), category).map(|w| f64::from_bits(w[0]))
    }

    /// Global minimum over all ranks — the dt reduction, "the only
    /// global reduction" in the application (paper Section V-B).
    ///
    /// Thin wrapper over [`Comm::collective`] with
    /// [`ReduceSpec::MIN_F64`]; prefer the generic entry point in new
    /// code.
    pub fn allreduce_min(&self, v: f64, category: Category) -> f64 {
        self.reduce_f64(ReduceSpec::MIN_F64, v, category)
    }

    /// Fault-aware [`Comm::allreduce_min`]: an injected collective
    /// fault surfaces as the same [`CommError::CollectiveFault`] on
    /// every participating rank.
    pub fn try_allreduce_min(&self, v: f64, category: Category) -> Result<f64, CommError> {
        self.try_reduce_f64(ReduceSpec::MIN_F64, v, category)
    }

    /// Global maximum over all ranks. Thin wrapper over
    /// [`Comm::collective`] with [`ReduceSpec::MAX_F64`].
    pub fn allreduce_max(&self, v: f64, category: Category) -> f64 {
        self.reduce_f64(ReduceSpec::MAX_F64, v, category)
    }

    /// Fault-aware [`Comm::allreduce_max`].
    pub fn try_allreduce_max(&self, v: f64, category: Category) -> Result<f64, CommError> {
        self.try_reduce_f64(ReduceSpec::MAX_F64, v, category)
    }

    /// Global sum over all ranks (used by conservation diagnostics).
    /// Thin wrapper over [`Comm::collective`] with
    /// [`ReduceSpec::SUM_F64`].
    ///
    /// The accumulation order is arrival-order dependent; diagnostics
    /// tolerate roundoff-level variation exactly as MPI_SUM does.
    pub fn allreduce_sum(&self, v: f64, category: Category) -> f64 {
        self.reduce_f64(ReduceSpec::SUM_F64, v, category)
    }

    /// Fault-aware [`Comm::allreduce_sum`].
    pub fn try_allreduce_sum(&self, v: f64, category: Category) -> Result<f64, CommError> {
        self.try_reduce_f64(ReduceSpec::SUM_F64, v, category)
    }

    /// Synchronise all ranks. Thin wrapper over [`Comm::collective`]
    /// with [`ReduceSpec::BARRIER`].
    pub fn barrier(&self, category: Category) {
        self.reduce_f64(ReduceSpec::BARRIER, 0.0, category);
    }

    /// Fault-aware [`Comm::barrier`].
    pub fn try_barrier(&self, category: Category) -> Result<(), CommError> {
        self.try_reduce(ReduceSpec::BARRIER, [0; 3], category).map(|_| ())
    }

    /// Allreduce of order-independent digest channel words
    /// `[sum, xor, count]` (the wire form of
    /// `rbamr_geometry::digest::UnorderedDigest`): channel 0 and 2
    /// combine by wrapping addition, channel 1 by xor. Merging per-rank
    /// partial digests this way yields the digest a single rank would
    /// compute over the union of all items — the consistency handshake
    /// for partitioned level metadata. The combine is commutative and
    /// associative, so no arrival order can change the result. Thin
    /// wrapper over [`Comm::collective`] with [`ReduceSpec::DIGEST`].
    pub fn allreduce_digest(&self, words: [u64; 3], category: Category) -> [u64; 3] {
        self.try_reduce(ReduceSpec::DIGEST, words, category)
            .unwrap_or_else(|e| escalate("allreduce-digest", e))
    }

    /// Fault-aware [`Comm::allreduce_digest`].
    pub fn try_allreduce_digest(
        &self,
        words: [u64; 3],
        category: Category,
    ) -> Result<[u64; 3], CommError> {
        self.try_reduce(ReduceSpec::DIGEST, words, category)
    }

    pub(crate) fn next_collective_tag(&self) -> u64 {
        // All ranks execute collectives in the same order, so local
        // counters agree. The top four bits (kind 15) keep these tags
        // out of the application's tag space.
        let n = self.collective_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (15u64 << 60) | n
    }

    /// Gather every rank's payload at `root` (returns `Some(payloads)`,
    /// indexed by rank, at the root; `None` elsewhere). A binomial tree
    /// in production, a flat fan into the root under
    /// [`CollectiveAlgo::Flat`]. Thin wrapper over
    /// [`Comm::collective`] with [`CollectiveOp::Gather`].
    ///
    /// # Panics
    /// Panics on an injected fault — use [`Comm::try_gather`] on paths
    /// where faults may be injected.
    pub fn gather(&self, root: usize, payload: Bytes, category: Category) -> Option<Vec<Bytes>> {
        self.collective(CollectiveOp::Gather { root, payload }, category).gathered_at_root()
    }

    /// Fault-aware [`Comm::gather`]: every subtree is received even
    /// when a frame is faulty (run-through), and the root reports the
    /// first fault it saw — directly or as a taint from an upstream
    /// receive.
    pub fn try_gather(
        &self,
        root: usize,
        payload: Bytes,
        category: Category,
    ) -> Result<Option<Vec<Bytes>>, CommError> {
        self.try_collective(CollectiveOp::Gather { root, payload }, category)
            .map(CollectiveOutput::gathered_at_root)
    }

    /// The original flat gather: every rank sends straight to the
    /// root, which receives in rank order.
    fn flat_gather(
        &self,
        root: usize,
        payload: Bytes,
        category: Category,
    ) -> Result<Option<Vec<Bytes>>, CommError> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut parts = Vec::with_capacity(self.size());
            let mut first_err = None;
            for src in 0..self.size() {
                if src == self.rank() {
                    parts.push(payload.clone());
                } else {
                    match self.try_recv(src, tag, category) {
                        Ok(p) => parts.push(p),
                        Err(e) => {
                            parts.push(Bytes::new());
                            first_err.get_or_insert(e);
                        }
                    }
                }
            }
            let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
            self.recorder.count("net.collective_bytes", total);
            match first_err {
                Some(e) => Err(e),
                None => Ok(Some(parts)),
            }
        } else {
            self.recorder.count("net.collective_bytes", payload.len() as u64);
            self.send(root, tag, payload);
            Ok(None)
        }
    }

    /// Broadcast from `root`: the root passes `Some(payload)`, everyone
    /// else passes `None` and receives the root's bytes. A binomial
    /// tree in production, a flat fan out of the root under
    /// [`CollectiveAlgo::Flat`]. Thin wrapper over
    /// [`Comm::try_collective`] with [`CollectiveOp::Broadcast`].
    ///
    /// # Errors
    /// [`CommError::MissingRootPayload`] if the root passes `None`,
    /// [`CommError::UnexpectedPayload`] if a non-root passes `Some`,
    /// [`CommError::MessageDropped`] / [`CommError::MessageCorrupt`] on
    /// an injected wire fault (a [`CommError::CollectiveFault`] when
    /// the fault hit an upstream tree hop instead of this rank's own
    /// receive). The collective tag is consumed either way, so a rank
    /// that reports (rather than propagates) the error stays aligned
    /// with the other ranks' collective sequence.
    pub fn broadcast(
        &self,
        root: usize,
        payload: Option<Bytes>,
        category: Category,
    ) -> Result<Bytes, CommError> {
        self.try_collective(CollectiveOp::Broadcast { root, payload }, category)
            .map(CollectiveOutput::broadcast)
    }

    /// The original flat broadcast: the root sends straight to every
    /// rank.
    fn flat_broadcast(
        &self,
        root: usize,
        payload: Option<Bytes>,
        category: Category,
    ) -> Result<Bytes, CommError> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let Some(payload) = payload else {
                return Err(CommError::MissingRootPayload { root });
            };
            self.recorder.count("net.collective_bytes", payload.len() as u64);
            for dst in 0..self.size() {
                if dst != self.rank() {
                    self.send(dst, tag, payload.clone());
                }
            }
            Ok(payload)
        } else {
            if payload.is_some() {
                return Err(CommError::UnexpectedPayload { rank: self.rank() });
            }
            let payload = self.try_recv(root, tag, category)?;
            self.recorder.count("net.collective_bytes", payload.len() as u64);
            Ok(payload)
        }
    }

    /// All-to-all gather of variable-length payloads: every rank
    /// contributes its bytes and receives every rank's contribution,
    /// indexed by rank (this rank's own slot included). The collective
    /// that fetches partitioned level metadata: each rank publishes its
    /// owned box records and assembles the global view locally.
    ///
    /// A recursive-doubling butterfly (≈ N·⌈log₂N⌉ frames) in
    /// production; the flat all-to-all fan (N·(N−1) frames) under
    /// [`CollectiveAlgo::Flat`]. Thin wrapper
    /// over [`Comm::collective`] with [`CollectiveOp::AllGather`].
    ///
    /// # Panics
    /// Panics on an injected fault — use [`Comm::try_allgatherv`] on
    /// paths where faults may be injected.
    pub fn allgatherv(&self, payload: Bytes, category: Category) -> Vec<Bytes> {
        self.collective(CollectiveOp::AllGather { payload }, category).gathered()
    }

    /// Fault-aware [`Comm::allgatherv`]: receives from every peer even
    /// when a frame is faulty (run-through), then reports the first
    /// locally observed fault (a [`CommError::CollectiveFault`] when
    /// the fault hit another rank's exchange and reached this rank only
    /// as a taint).
    pub fn try_allgatherv(
        &self,
        payload: Bytes,
        category: Category,
    ) -> Result<Vec<Bytes>, CommError> {
        self.try_collective(CollectiveOp::AllGather { payload }, category)
            .map(CollectiveOutput::gathered)
    }

    /// The original flat allgatherv: a buffered send to every peer
    /// followed by one receive per peer in rank order.
    fn flat_allgatherv(&self, payload: Bytes, category: Category) -> Result<Vec<Bytes>, CommError> {
        let tag = self.next_collective_tag();
        for dst in 0..self.size() {
            if dst != self.rank() {
                self.send(dst, tag, payload.clone());
            }
        }
        let mut parts = Vec::with_capacity(self.size());
        let mut first_err = None;
        for src in 0..self.size() {
            if src == self.rank() {
                parts.push(payload.clone());
            } else {
                match self.try_recv(src, tag, category) {
                    Ok(p) => parts.push(p),
                    Err(e) => {
                        parts.push(Bytes::new());
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
        self.recorder.count("net.collective_bytes", total);
        match first_err {
            Some(e) => Err(e),
            None => Ok(parts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use rbamr_fault::{FaultPlan, FaultRule};
    use rbamr_perfmodel::Machine;
    use std::time::Duration;

    fn cluster() -> Cluster {
        Cluster::new(Machine::ipa_cpu_node())
    }

    #[test]
    fn point_to_point_roundtrip() {
        let results = cluster().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Bytes::from_static(b"halo"));
                comm.recv(1, 8, Category::HaloExchange)
            } else {
                comm.send(0, 8, Bytes::from_static(b"back"));
                comm.recv(0, 7, Category::HaloExchange)
            }
        });
        assert_eq!(&results[0].value[..], b"back");
        assert_eq!(&results[1].value[..], b"halo");
    }

    #[test]
    fn messages_with_same_tag_preserve_order() {
        let results = cluster().run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..5u8 {
                    comm.send(1, 1, Bytes::from(vec![i]));
                }
                Vec::new()
            } else {
                (0..5).map(|_| comm.recv(0, 1, Category::Other)[0]).collect()
            }
        });
        assert_eq!(results[1].value, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tags_demultiplex() {
        let results = cluster().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, Bytes::from_static(b"ten"));
                comm.send(1, 20, Bytes::from_static(b"twenty"));
                Bytes::new()
            } else {
                // Receive in the opposite order of sending.
                let b20 = comm.recv(0, 20, Category::Other);
                let b10 = comm.recv(0, 10, Category::Other);
                assert_eq!(&b10[..], b"ten");
                b20
            }
        });
        assert_eq!(&results[1].value[..], b"twenty");
    }

    #[test]
    fn allreduce_min_max_sum() {
        let results = cluster().run(4, |comm| {
            let v = comm.rank() as f64;
            let mn = comm.allreduce_min(v, Category::Timestep);
            let mx = comm.allreduce_max(v, Category::Other);
            let sm = comm.allreduce_sum(v, Category::Other);
            (mn, mx, sm)
        });
        for r in &results {
            assert_eq!(r.value.0, 0.0);
            assert_eq!(r.value.1, 3.0);
            assert_eq!(r.value.2, 6.0);
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let results = cluster().run(3, |comm| {
            let mut out = Vec::new();
            for round in 0..10 {
                let v = (comm.rank() * 100 + round) as f64;
                out.push(comm.allreduce_min(v, Category::Timestep));
            }
            out
        });
        for r in &results {
            let expect: Vec<f64> = (0..10).map(|round| round as f64).collect();
            assert_eq!(r.value, expect);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity_and_free() {
        let results = cluster().run(1, |comm| {
            let v = comm.allreduce_min(3.5, Category::Timestep);
            (v, comm.clock().total())
        });
        assert_eq!(results[0].value.0, 3.5);
        assert_eq!(results[0].value.1, 0.0);
    }

    #[test]
    fn recv_charges_receiver_clock_only() {
        let results = cluster().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Bytes::from(vec![0u8; 1 << 20]));
            } else {
                comm.recv(0, 0, Category::HaloExchange);
            }
            comm.clock().snapshot().get(Category::HaloExchange)
        });
        assert_eq!(results[0].value, 0.0);
        let expected = Cluster::new(Machine::ipa_cpu_node()).cost_model().message(1 << 20);
        assert!((results[1].value - expected).abs() < 1e-12);
    }

    #[test]
    fn collective_cost_scales_with_log_ranks() {
        let t4 = cluster().run(4, |comm| {
            comm.barrier(Category::Timestep);
            comm.clock().total()
        })[0]
            .value;
        let t2 = cluster().run(2, |comm| {
            comm.barrier(Category::Timestep);
            comm.clock().total()
        })[0]
            .value;
        assert!((t4 / t2 - 2.0).abs() < 1e-9, "log2(4)/log2(2) = 2, got {}", t4 / t2);
    }

    #[test]
    fn gather_then_broadcast() {
        let results = cluster().run(3, |comm| {
            let mine = Bytes::from(vec![comm.rank() as u8]);
            let gathered = comm.gather(0, mine, Category::Regrid);
            let merged = gathered.map(|parts| {
                let mut all = Vec::new();
                for p in parts {
                    all.extend_from_slice(&p);
                }
                Bytes::from(all)
            });
            comm.broadcast(0, merged, Category::Regrid)
        });
        for r in &results {
            // Propagate the typed result out of the rank closure; no
            // rank may observe an error on this well-formed broadcast.
            let payload = r.value.as_ref().expect("fault-free broadcast succeeds");
            assert_eq!(&payload[..], &[0, 1, 2]);
        }
    }

    #[test]
    fn broadcast_root_without_payload_is_an_error() {
        let results = cluster().run(1, |comm| comm.broadcast(0, None, Category::Regrid));
        assert_eq!(results[0].value, Err(CommError::MissingRootPayload { root: 0 }));
    }

    #[test]
    fn broadcast_nonroot_with_payload_is_an_error() {
        // The root's sends are buffered, so the misbehaving non-root
        // erroring out does not deadlock the job.
        let results = cluster()
            .run(2, |comm| comm.broadcast(0, Some(Bytes::from_static(b"x")), Category::Regrid));
        assert_eq!(results[0].value, Ok(Bytes::from_static(b"x")));
        assert_eq!(results[1].value, Err(CommError::UnexpectedPayload { rank: 1 }));
    }

    #[test]
    #[should_panic(expected = "sent to itself")]
    fn self_send_is_rejected() {
        cluster().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(0, 0, Bytes::new());
            }
        });
    }

    #[test]
    fn allgatherv_returns_every_payload_in_rank_order() {
        let results = cluster().run(4, |comm| {
            // Variable lengths: rank r contributes r+1 bytes of value r.
            let mine = Bytes::from(vec![comm.rank() as u8; comm.rank() + 1]);
            comm.allgatherv(mine, Category::Regrid)
        });
        for r in &results {
            assert_eq!(r.value.len(), 4);
            for (src, part) in r.value.iter().enumerate() {
                assert_eq!(&part[..], vec![src as u8; src + 1].as_slice());
            }
        }
    }

    #[test]
    fn allgatherv_single_rank_is_identity() {
        let results = cluster().run(1, |comm| {
            let parts = comm.allgatherv(Bytes::from_static(b"solo"), Category::Regrid);
            (parts, comm.clock().total())
        });
        assert_eq!(results[0].value.0, vec![Bytes::from_static(b"solo")]);
        assert_eq!(results[0].value.1, 0.0);
    }

    #[test]
    fn allreduce_digest_combines_channels_commutatively() {
        let results = cluster().run(4, |comm| {
            let r = comm.rank() as u64;
            // Distinct per-rank channel words, including wrap-prone sums.
            comm.allreduce_digest([u64::MAX - r, 1u64 << r, r + 1], Category::Regrid)
        });
        let mut sum = 0u64;
        let mut xor = 0u64;
        let mut count = 0u64;
        for r in 0..4u64 {
            sum = sum.wrapping_add(u64::MAX - r);
            xor ^= 1u64 << r;
            count = count.wrapping_add(r + 1);
        }
        for r in &results {
            assert_eq!(r.value, [sum, xor, count]);
        }
    }

    #[test]
    fn allreduce_digest_single_rank_is_identity() {
        let results = cluster().run(1, |comm| comm.allreduce_digest([7, 8, 9], Category::Regrid));
        assert_eq!(results[0].value, [7, 8, 9]);
    }

    #[test]
    fn repeated_digest_allreduces_do_not_cross_talk() {
        let results = cluster().run(3, |comm| {
            (0..8u64)
                .map(|round| comm.allreduce_digest([round, comm.rank() as u64, 1], Category::Other))
                .collect::<Vec<_>>()
        });
        for r in &results {
            for (round, words) in r.value.iter().enumerate() {
                assert_eq!(*words, [3 * round as u64, 1 ^ 2, 3]); // xor over ranks 0..3
            }
        }
    }

    #[test]
    fn collectives_count_logical_payload_bytes() {
        // Every collective must account the logical payload bytes it
        // moved for this rank in net.collective_bytes, symmetric enough
        // that a job-wide audit sees each rank's own contribution
        // (previously allreduce/barrier recorded no bytes at all and
        // gather/broadcast totals were only visible through one side's
        // kind-15 point-to-point counters).
        let results = cluster().run(3, |comm| {
            let clock = comm.clock().clone();
            let mut comm = comm;
            let rec = Recorder::new(comm.rank(), clock);
            comm.set_recorder(rec.clone());
            let mine = Bytes::from(vec![comm.rank() as u8; comm.rank() + 1]); // 1, 2, 3 bytes
            comm.allreduce_sum(1.0, Category::Timestep); // 8
            comm.barrier(Category::Other); // 0
            comm.allreduce_digest([1, 2, 3], Category::Regrid); // 24
            comm.gather(0, mine.clone(), Category::Regrid); // root: 6, others: own len
            let bcast = comm.broadcast(
                0,
                (comm.rank() == 0).then(|| Bytes::from_static(b"abcde")),
                Category::Regrid,
            ); // 5 everywhere
            assert!(bcast.is_ok(), "fault-free broadcast succeeds");
            comm.allgatherv(mine, Category::HaloExchange); // 6 everywhere
            (rec.counter("net.collectives"), rec.counter("net.collective_bytes"))
        });
        let base = 8 + 24 + 5 + 6; // allreduce + digest + broadcast + allgatherv (barrier: 0)
        assert_eq!(results[0].value, (6, base + 6)); // gather root sees all 6 bytes
        assert_eq!(results[1].value, (6, base + 2)); // non-root contributes its 2
        assert_eq!(results[2].value, (6, base + 3));
    }

    #[test]
    fn collective_point_to_point_traffic_lands_in_kind15() {
        // Pinned to Flat: the flat fan moves exactly the logical
        // payload bytes per frame, so the kind-15 counters are the
        // payload sizes. The log-depth exchange adds segment headers
        // and taint bytes (covered by the cross-algo equivalence tests).
        let results = cluster().with_collectives(CollectiveAlgo::Flat).run(2, |comm| {
            let clock = comm.clock().clone();
            let mut comm = comm;
            let rec = Recorder::new(comm.rank(), clock);
            comm.set_recorder(rec.clone());
            comm.allgatherv(Bytes::from(vec![comm.rank() as u8; 4]), Category::Regrid);
            (rec.counter("net.send_bytes.kind15"), rec.counter("net.recv_bytes.kind15"))
        });
        // Each rank sends its 4 bytes to the one peer and receives the
        // peer's 4 bytes.
        assert_eq!(results[0].value, (4, 4));
        assert_eq!(results[1].value, (4, 4));
    }

    #[test]
    fn collective_categories_charge_the_declared_category() {
        let results = cluster().run(2, |comm| {
            comm.allreduce_min(1.0, Category::Timestep);
            comm.allgatherv(Bytes::from_static(b"xy"), Category::Regrid);
            let snap = comm.clock().snapshot();
            (snap.get(Category::Timestep), snap.get(Category::Regrid), snap.get(Category::Other))
        });
        for r in &results {
            assert!(r.value.0 > 0.0, "allreduce must charge Timestep");
            assert!(r.value.1 > 0.0, "allgatherv recv must charge Regrid");
            assert_eq!(r.value.2, 0.0, "no Other-category traffic was issued");
        }
    }

    #[test]
    fn edge_events_match_across_ranks_and_feed_causal_analysis() {
        let results = cluster().run(2, |comm| {
            let clock = comm.clock().clone();
            let mut comm = comm;
            let rec = Recorder::new(comm.rank(), clock);
            comm.set_recorder(rec.clone());
            if comm.rank() == 0 {
                comm.send(1, 7, Bytes::from(vec![0u8; 512]));
                comm.recv(1, 8, Category::HaloExchange);
            } else {
                comm.send(0, 8, Bytes::from(vec![1u8; 256]));
                comm.recv(0, 7, Category::HaloExchange);
            }
            comm.allreduce_min(comm.rank() as f64, Category::Timestep);
            rec
        });
        let recs: Vec<Recorder> = results.into_iter().map(|r| r.value).collect();
        for rec in &recs {
            assert_eq!(rec.counter("net.edge.sends"), 1);
            assert_eq!(rec.counter("net.edge.recvs"), 1);
            assert_eq!(rec.counter("net.edge.collectives"), 1);
            // Plain message counters survive the scoped-counter rework.
            assert_eq!(rec.counter("net.sends"), 1);
            assert_eq!(rec.counter("net.recvs"), 1);
        }
        let analysis = rbamr_telemetry::analyze(&recs).expect("matched DAG");
        assert_eq!(analysis.edges_matched, 2);
        assert_eq!(analysis.unmatched_sends, 0);
        for rb in &analysis.ranks {
            assert!(
                (rb.buckets.total() - analysis.makespan).abs() <= 1e-9 * analysis.makespan,
                "buckets must sum to the makespan"
            );
        }
        let json = rbamr_telemetry::chrome_trace(&recs);
        assert!(json.contains("\"ph\":\"s\""), "flow start events present");
        assert!(json.contains("\"ph\":\"f\""), "flow finish events present");
    }

    #[test]
    fn occurrence_numbers_disambiguate_same_tag_messages() {
        let results = cluster().run(2, |comm| {
            let clock = comm.clock().clone();
            let mut comm = comm;
            let rec = Recorder::new(comm.rank(), clock);
            comm.set_recorder(rec.clone());
            if comm.rank() == 0 {
                for i in 0..3u8 {
                    comm.send(1, 1, Bytes::from(vec![i]));
                }
            } else {
                for _ in 0..3 {
                    comm.recv(0, 1, Category::Other);
                }
            }
            rec
        });
        let recs: Vec<Recorder> = results.into_iter().map(|r| r.value).collect();
        let sends: Vec<_> = recs[0].edges();
        let recvs: Vec<_> = recs[1].edges();
        assert_eq!(sends.len(), 3);
        assert_eq!(recvs.len(), 3);
        for (s, r) in sends.iter().zip(&recvs) {
            assert_eq!(s.channel_key(), r.channel_key());
            assert_eq!(s.flow_id(), r.flow_id());
        }
        // FIFO per channel: occurrences are 0, 1, 2 on both sides.
        assert_eq!(sends.iter().map(|e| e.occurrence).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(recvs.iter().map(|e| e.occurrence).collect::<Vec<_>>(), [0, 1, 2]);
    }

    // ---- fault injection --------------------------------------------

    #[test]
    fn injected_drop_surfaces_as_typed_error_without_hanging() {
        let plan = FaultPlan::new(7, vec![FaultRule::once_on(FaultKind::MsgDrop, 0, 0)]);
        let results = cluster().with_fault_plan(plan).run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, Bytes::from_static(b"doomed"));
                comm.send(1, 4, Bytes::from_static(b"fine"));
                (Ok(Bytes::new()), Ok(Bytes::new()))
            } else {
                // The dropped frame is consumed; the next message still
                // arrives — run-through, no desync.
                (comm.try_recv(0, 3, Category::Other), comm.try_recv(0, 4, Category::Other))
            }
        });
        let (first, second) = &results[1].value;
        assert_eq!(first, &Err(CommError::MessageDropped { src: 0, dst: 1, tag: 3 }));
        assert_eq!(second.as_ref().map(|b| &b[..]), Ok(&b"fine"[..]));
    }

    #[test]
    fn injected_corruption_flips_payload_and_flags_frame() {
        let plan = FaultPlan::new(9, vec![FaultRule::once_on(FaultKind::MsgCorrupt, 0, 0)]);
        let results = cluster().with_fault_plan(plan).run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, Bytes::from_static(b"payload"));
                Ok(Bytes::new())
            } else {
                comm.try_recv(0, 5, Category::Other)
            }
        });
        assert_eq!(results[1].value, Err(CommError::MessageCorrupt { src: 0, dst: 1, tag: 5 }));
    }

    #[test]
    fn injected_delay_charges_extra_time_but_keeps_data() {
        let run = |with_delay: bool| {
            let mut c = cluster();
            if with_delay {
                c = c.with_fault_plan(FaultPlan::new(
                    13,
                    vec![FaultRule::once_on(FaultKind::MsgDelay, 1, 0)],
                ));
            }
            c.run(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 2, Bytes::from(vec![7u8; 4096]));
                    (Bytes::new(), 0.0)
                } else {
                    let p = comm.recv(0, 2, Category::HaloExchange);
                    (p, comm.clock().total())
                }
            })
        };
        let plain = run(false);
        let delayed = run(true);
        assert_eq!(plain[1].value.0, delayed[1].value.0, "delay must not harm the payload");
        assert!(
            delayed[1].value.1 > plain[1].value.1,
            "delay must charge extra virtual time ({} vs {})",
            delayed[1].value.1,
            plain[1].value.1
        );
    }

    #[test]
    fn same_seed_reproduces_identical_fault_reports() {
        let plan = || {
            FaultPlan::new(
                21,
                vec![FaultRule {
                    kind: FaultKind::MsgDrop,
                    ranks: None,
                    after: 0,
                    count: u64::MAX,
                    probability: 0.4,
                }],
            )
        };
        let run = || {
            cluster().with_fault_plan(plan()).run(2, |comm| {
                let mut errs = 0usize;
                if comm.rank() == 0 {
                    for i in 0..32u64 {
                        comm.send(1, i, Bytes::from_static(b"x"));
                    }
                } else {
                    for i in 0..32u64 {
                        if comm.try_recv(0, i, Category::Other).is_err() {
                            errs += 1;
                        }
                    }
                }
                let report = comm.fault_injector().expect("injector attached").report();
                (errs, report)
            })
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.value, rb.value, "rank {} reports differ across reruns", ra.rank);
        }
        assert!(a[1].value.0 > 0, "p=0.4 over 32 messages fires at least once");
    }

    fn panic_message(err: &Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn deadlock_diagnostic_names_blocked_ranks() {
        // Rank 1 exits while rank 0 waits on a never-sent message:
        // detected structurally, with the per-rank pending-op dump.
        let caught = std::panic::catch_unwind(|| {
            cluster().run(2, |comm| {
                if comm.rank() == 0 {
                    comm.recv(1, 99, Category::HaloExchange);
                }
            });
        });
        let err = caught.expect_err("deadlock must panic");
        let msg = panic_message(&err);
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(msg.contains("pending operations per rank"), "got: {msg}");
        assert!(msg.contains("rank 0: blocked in recv(src=1, tag=0x63"), "got: {msg}");
        assert!(msg.contains("rank 1: not blocked"), "got: {msg}");
    }

    #[test]
    fn structural_deadlock_is_detected_instantly() {
        // No timer is involved: the panic arrives as soon as the last
        // runnable rank blocks or exits.
        let start = std::time::Instant::now();
        let caught = std::panic::catch_unwind(|| {
            cluster().run(3, |comm| {
                if comm.rank() == 0 {
                    comm.barrier(Category::Timestep); // ranks 1, 2 never join
                }
            });
        });
        let err = caught.expect_err("abandoned collective must deadlock");
        let msg = panic_message(&err);
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(msg.contains("barrier (category=Timestep)"), "got: {msg}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "structural detection must not wait on a timer"
        );
    }

    #[test]
    fn extreme_tag_uses_kind15_without_panicking() {
        // Kind bits are the top four bits of the tag: u64::MAX is
        // kind 15, and no tag value can index out of the label table.
        let results = cluster().run(2, |comm| {
            let clock = comm.clock().clone();
            let mut comm = comm;
            let rec = Recorder::new(comm.rank(), clock);
            comm.set_recorder(rec.clone());
            if comm.rank() == 0 {
                comm.send(1, u64::MAX, Bytes::from_static(b"top"));
            } else {
                comm.recv(0, u64::MAX, Category::Other);
            }
            (rec.counter("net.sends.kind15"), rec.counter("net.recvs.kind15"))
        });
        assert_eq!(results[0].value.0, 1);
        assert_eq!(results[1].value.1, 1);
    }

    #[test]
    fn peer_panic_poisons_job_and_propagates_original_payload() {
        // Rank 0 panics while ranks 1 and 2 are parked in recv: they
        // fail fast and the job re-raises the origin rank's own panic
        // payload.
        let start = std::time::Instant::now();
        let caught = std::panic::catch_unwind(|| {
            cluster().run(3, |comm| {
                if comm.rank() == 0 {
                    panic!("original explosion");
                }
                comm.recv(0, 1, Category::Other);
            });
        });
        let err = caught.expect_err("job must abort");
        let msg = panic_message(&err);
        assert!(msg.contains("original explosion"), "got: {msg}");
        assert!(start.elapsed() < Duration::from_secs(30), "peers must fail fast");
    }

    #[test]
    fn peer_panic_surfaces_as_typed_error_on_try_paths() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let observed = Arc::new(AtomicBool::new(false));
        let obs = Arc::clone(&observed);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster().run(2, move |comm| {
                if comm.rank() == 0 {
                    // Handshake first so rank 1 is already blocked in
                    // its own receive when the panic poisons the job.
                    comm.recv(1, 9, Category::Other);
                    panic!("boom");
                }
                comm.send(0, 9, Bytes::from_static(b"go"));
                if comm.try_recv(0, 1, Category::Other)
                    == Err(CommError::PeerPanicked { origin: 0 })
                {
                    obs.store(true, Ordering::SeqCst);
                }
            });
        }));
        assert!(caught.is_err(), "origin panic still aborts the job");
        assert!(observed.load(Ordering::SeqCst), "try path observes the typed PeerPanicked error");
    }

    #[test]
    fn dead_rank_is_structural_pre_death_frames_drain_then_typed_error() {
        let start = std::time::Instant::now();
        let results = cluster().run(2, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 1, Bytes::from_static(b"last words"));
                comm.mark_dead();
                return Vec::new();
            }
            // Queued-before-death frames must still be deliverable.
            let pre = comm.try_recv(1, 1, Category::Other);
            assert_eq!(pre.as_deref(), Ok(&b"last words"[..]));
            // A receive the dead rank never matched fails structurally
            // with a typed error — no hang.
            let post = comm.try_recv(1, 2, Category::Other);
            assert_eq!(post, Err(CommError::RankDead { rank: 1 }));
            // A send to the dead rank is black-holed without panicking.
            comm.send(1, 4, Bytes::from_static(b"into the void"));
            assert_eq!(comm.dead_ranks(), vec![1]);
            vec![1u8]
        });
        assert_eq!(results[0].value, vec![1u8]);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "dead-rank detection must be structural"
        );
    }

    #[test]
    fn shrink_renumbers_survivors_and_collectives_resume() {
        // Kill the *middle* rank so renumbering is non-trivial:
        // physical survivors (0, 2) must become logical (0, 1).
        let results = cluster().run(3, |comm| {
            if comm.rank() == 1 {
                comm.mark_dead();
                // A dead rank has no place in the survivor set.
                let err = comm.shrink().err();
                assert_eq!(err, Some(CommError::RankDead { rank: 1 }));
                return (usize::MAX, usize::MAX, 0.0);
            }
            // Detect the loss collectively, then agree to shrink.
            let detect = comm.try_allreduce_min(0.0, Category::Timestep);
            assert!(matches!(detect, Err(CommError::Revoked { .. })));
            let old_rank = comm.rank();
            let comm = comm.shrink().expect("survivor shrink succeeds");
            // Collectives and point-to-point resume on the shrunk comm
            // under the dense survivor numbering.
            let sum = comm.allreduce_sum((old_rank + 1) as f64, Category::Timestep);
            if comm.rank() == 0 {
                comm.send(1, 9, Bytes::from_static(b"post-shrink"));
            } else {
                let msg = comm.recv(0, 9, Category::Other);
                assert_eq!(&msg[..], b"post-shrink");
            }
            // Physical ids of the dead stay visible for loss counting.
            assert_eq!(comm.dead_ranks(), vec![1]);
            (comm.rank(), comm.size(), sum)
        });
        assert_eq!(results[0].value, (0, 2, 4.0));
        assert_eq!(results[2].value, (1, 2, 4.0));
    }
}
