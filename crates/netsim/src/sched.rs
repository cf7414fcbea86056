//! Event-driven cooperative rank scheduler.
//!
//! The execution engine behind [`Cluster::run`](crate::Cluster::run):
//! M simulated ranks are multiplexed over N worker *slots* instead of
//! running as M concurrently-schedulable OS threads. Each rank owns a
//! (cheap, mostly-parked) carrier thread for its stack, but only
//! `workers` of them hold a run slot at any instant; every blocking
//! operation — a mailbox wait, a rendezvous barrier — releases the slot
//! and yields back to the scheduler, which hands it to the next
//! runnable rank. Virtual time is entirely unaffected: the clock is
//! charged by the cost model in `Comm`, never by wall-clock waiting, so
//! every worker count produces results, edge streams and
//! virtual-seconds metrics bitwise identical to the deterministic
//! `workers = 1` round-robin (`tests/sched_equivalence.rs`).
//!
//! This is what lets `netsim` scale to thousands of simulated ranks on
//! one box (the paper's Titan weak-scaling regime): runnable
//! parallelism is bounded by `workers`, memory by `ranks × stack`, and
//! deadlock detection is *structural* — no timer anywhere.
//!
//! ## Task states
//!
//! ```text
//!          refill (slot free)
//!   Ready ───────────────────▶ Running ──▶ Finished
//!     ▲                          │
//!     │  wake (message arrives,  │ block (mailbox empty /
//!     │  rendezvous completes)   ▼  rendezvous incomplete)
//!     └────────────────────── Blocked
//! ```
//!
//! ## Structural deadlock detection
//!
//! All wakeups are *eager* and happen under the single scheduler lock:
//! a send marks its blocked receiver Ready in the same critical
//! section that enqueues the frame, and a completing rendezvous marks
//! every waiter Ready before anyone observes the result. Therefore
//! the predicate
//!
//! ```text
//! running == 0  &&  runnable.is_empty()  &&  live > 0
//! ```
//!
//! holds *iff* the job is truly deadlocked: every live rank is blocked
//! on an event that only another (blocked or finished) rank could
//! produce. No wall-clock timeout is involved, so a loaded CI machine
//! can never produce a false positive, and a real deadlock is reported
//! instantly with a per-rank pending-operation dump.

use crate::comm::{Fail, PeerPanicked};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use rbamr_perfmodel::Clock;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// A queued point-to-point message: its flag (a fault the wire
/// injected, or none) and the sender's payload itself — queueing it
/// copies no bytes.
pub(crate) type Frame = (u8, Bytes);

/// What a blocked task is waiting for, and the clock of the rank that
/// waits: a dump names the category from its scope. Descriptions are
/// formatted lazily (only when a deadlock dump is actually printed) to
/// keep the block path allocation-free.
pub(crate) enum Wait {
    /// Blocked in `recv` on an exact `(src, tag)` channel.
    Recv { src: usize, tag: u64, clock: Clock },
    /// Blocked in a rendezvous collective (`allreduce-*`, `barrier`,
    /// `allreduce-digest`): the name carries which one for diagnostics.
    Collective { name: &'static str, clock: Clock },
}

impl Wait {
    /// Human-readable pending-op description for deadlock diagnostics.
    fn describe(&self) -> String {
        match self {
            Wait::Recv { src, tag, clock } => {
                format!("recv(src={src}, tag={tag:#x}, category={:?})", clock.current_scope())
            }
            Wait::Collective { name, clock } => {
                format!("{name} (category={:?})", clock.current_scope())
            }
        }
    }
}

enum TaskState {
    /// Runnable, queued for a slot.
    Ready,
    /// Holds one of the `workers` run slots.
    Running,
    /// Waiting for an event; holds no slot.
    Blocked(Wait),
    /// Returned or panicked; holds no slot, never runs again.
    Finished,
}

/// Rendezvous accumulator shared by every rendezvous collective (the
/// f64 reductions pack their value into word 0 as bits; the digest uses
/// all three words). `generation` bumps when a round completes,
/// `result`/`result_fault` hold the completed round's output (safe to
/// read late — the next round cannot complete until this rank arrives
/// at it, so one accumulator serves every collective kind without
/// cross-talk).
struct CollState {
    arrived: usize,
    generation: u64,
    acc: [u64; 3],
    result: [u64; 3],
    fault: bool,
    result_fault: bool,
    /// The completed round is missing a dead rank's contribution: it
    /// finished among the survivors (threshold `size - ndead`) before
    /// the death was acknowledged by a shrink, so no rank may act on
    /// the combined value.
    result_revoked: bool,
}

struct SchedState {
    tasks: Vec<TaskState>,
    /// Ready tasks in FIFO order; with `workers == 1` this makes the
    /// whole job a deterministic round-robin.
    runnable: VecDeque<usize>,
    /// Tasks currently in `Running`.
    running: usize,
    /// Maximum concurrent `Running` tasks.
    workers: usize,
    /// Tasks not yet `Finished`.
    live: usize,
    /// First rank that panicked with a non-deadlock payload; set once.
    poisoned: Option<usize>,
    /// Structural-deadlock diagnostic, set once when detected.
    deadlock: Option<std::sync::Arc<String>>,
    /// `mailboxes[dst]` holds the per-`(src, tag)` FIFO frame queues.
    mailboxes: Vec<HashMap<(usize, u64), VecDeque<Frame>>>,
    coll: CollState,
    /// Permanently dead ranks (physical ids). Dead ranks stop counting
    /// toward rendezvous thresholds, their frames are black-holed, and
    /// receives that depend on them fail with [`Fail::Dead`].
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    ndead: usize,
    /// Deaths acknowledged by the most recent shrink: a rendezvous is
    /// revoked only when `ndead > accepted` (an *unacknowledged* death
    /// is missing from the result; post-shrink rounds among the
    /// survivors are complete again).
    accepted: usize,
    /// Survivor-barrier state for [`Scheduler::shrink_align`].
    shrink_arrived: usize,
    shrink_generation: u64,
    shrink_acc: [u64; 2],
    shrink_result: [u64; 2],
}

/// The scheduler: one global state lock plus one condvar per rank (a
/// rank only ever waits on its own condvar, so wakeups are targeted;
/// std requires one mutex per condvar, not vice versa).
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    cvs: Vec<Condvar>,
}

impl Scheduler {
    pub(crate) fn new(size: usize, workers: usize) -> Self {
        let workers = workers.clamp(1, size.max(1));
        let mut state = SchedState {
            tasks: (0..size).map(|_| TaskState::Ready).collect(),
            runnable: (0..size).collect(),
            running: 0,
            workers,
            live: size,
            poisoned: None,
            deadlock: None,
            mailboxes: (0..size).map(|_| HashMap::new()).collect(),
            coll: CollState {
                arrived: 0,
                generation: 0,
                acc: [0; 3],
                result: [0; 3],
                fault: false,
                result_fault: false,
                result_revoked: false,
            },
            dead: vec![false; size],
            ndead: 0,
            accepted: 0,
            shrink_arrived: 0,
            shrink_generation: 0,
            shrink_acc: [0; 2],
            shrink_result: [0; 2],
        };
        let cvs: Vec<Condvar> = (0..size).map(|_| Condvar::new()).collect();
        // Grant the initial slots in rank order before any carrier
        // thread arrives; carriers park in `task_started` until their
        // rank is granted.
        Self::refill(&mut state, &cvs);
        Self { state: Mutex::new(state), cvs }
    }

    /// Number of ranks the job was launched with (physical ids are
    /// `0..size()`, dead ranks included).
    pub(crate) fn size(&self) -> usize {
        self.cvs.len()
    }

    /// Grant free run slots to queued Ready tasks, FIFO.
    fn refill(state: &mut SchedState, cvs: &[Condvar]) {
        while state.running < state.workers {
            let Some(next) = state.runnable.pop_front() else { break };
            debug_assert!(matches!(state.tasks[next], TaskState::Ready));
            state.tasks[next] = TaskState::Running;
            state.running += 1;
            cvs[next].notify_one();
        }
    }

    /// Per-rank diagnostic of pending (blocked) operations.
    fn dump_pending(state: &SchedState) -> String {
        let mut out = String::from("pending operations per rank:\n");
        for (rank, task) in state.tasks.iter().enumerate() {
            if state.dead[rank] {
                out.push_str(&format!("  rank {rank}: permanently dead\n"));
                continue;
            }
            match task {
                TaskState::Blocked(wait) => {
                    out.push_str(&format!("  rank {rank}: blocked in {}\n", wait.describe()))
                }
                _ => out.push_str(&format!("  rank {rank}: not blocked\n")),
            }
        }
        out
    }

    /// Declare a structural deadlock if no task can ever run again:
    /// nothing running, nothing runnable, yet live ranks remain. Sound
    /// because every wakeup is eager and under this same lock — see the
    /// module docs.
    fn check_structural_deadlock(state: &mut SchedState, cvs: &[Condvar]) {
        if state.running == 0
            && state.runnable.is_empty()
            && state.live > 0
            && state.poisoned.is_none()
            && state.deadlock.is_none()
        {
            state.deadlock = Some(std::sync::Arc::new(Self::dump_pending(state)));
            for cv in cvs {
                cv.notify_all();
            }
        }
    }

    /// Mark a task Ready (if Blocked) and queue it for a slot.
    fn wake(state: &mut SchedState, cvs: &[Condvar], rank: usize) {
        if matches!(state.tasks[rank], TaskState::Blocked(_)) {
            state.tasks[rank] = TaskState::Ready;
            state.runnable.push_back(rank);
            Self::refill(state, cvs);
        }
    }

    /// Release this task's slot, record what it waits for, and park
    /// until re-granted a slot. Returns `Err` if a peer panicked while
    /// we were parked; panics (with the full per-rank dump) if the wait
    /// completes a structural deadlock.
    fn block(
        &self,
        guard: &mut MutexGuard<'_, SchedState>,
        rank: usize,
        wait: Wait,
    ) -> Result<(), PeerPanicked> {
        guard.tasks[rank] = TaskState::Blocked(wait);
        guard.running -= 1;
        Self::refill(guard, &self.cvs);
        Self::check_structural_deadlock(guard, &self.cvs);
        loop {
            if let Some(origin) = guard.poisoned {
                return Err(PeerPanicked { origin });
            }
            if let Some(diag) = &guard.deadlock {
                let mine = match &guard.tasks[rank] {
                    TaskState::Blocked(wait) => wait.describe(),
                    _ => String::from("<unblocked>"),
                };
                panic!(
                    "deadlock: rank {rank} blocked in {mine} and no live rank can make \
                     progress (structural detection, no messages in flight)\n{diag}"
                );
            }
            if matches!(guard.tasks[rank], TaskState::Running) {
                return Ok(());
            }
            self.cvs[rank].wait(guard);
        }
    }

    /// Park the carrier until its rank is granted its first run slot.
    pub(crate) fn task_started(&self, rank: usize) -> Result<(), PeerPanicked> {
        let mut st = self.state.lock();
        loop {
            if let Some(origin) = st.poisoned {
                return Err(PeerPanicked { origin });
            }
            if matches!(st.tasks[rank], TaskState::Running) {
                return Ok(());
            }
            self.cvs[rank].wait(&mut st);
        }
    }

    /// The rank's closure returned: release its slot and re-check for
    /// deadlock (a rank exiting while peers wait on it is the classic
    /// "peer finished without sending" hang).
    pub(crate) fn task_finished(&self, rank: usize) {
        let mut st = self.state.lock();
        if matches!(st.tasks[rank], TaskState::Running) {
            st.running -= 1;
        }
        st.tasks[rank] = TaskState::Finished;
        st.live -= 1;
        Self::refill(&mut st, &self.cvs);
        Self::check_structural_deadlock(&mut st, &self.cvs);
    }

    /// The rank's closure panicked: poison the job so every peer fails
    /// fast with [`PeerPanicked`]. Deadlock panics don't poison — those
    /// peers are already dying with their own deadlock diagnostics.
    pub(crate) fn task_panicked(&self, rank: usize) {
        let mut st = self.state.lock();
        if matches!(st.tasks[rank], TaskState::Running) {
            st.running -= 1;
        }
        st.tasks[rank] = TaskState::Finished;
        st.live -= 1;
        if st.poisoned.is_none() && st.deadlock.is_none() {
            st.poisoned = Some(rank);
            for cv in &self.cvs {
                cv.notify_all();
            }
        }
        Self::refill(&mut st, &self.cvs);
    }

    /// The first rank that panicked (with a non-deadlock payload), if
    /// any — `Cluster::run` propagates *that* rank's payload.
    pub(crate) fn poison_origin(&self) -> Option<usize> {
        self.state.lock().poisoned
    }

    /// Deliver a frame to `dst`'s mailbox and eagerly wake `dst` if it
    /// is blocked on exactly this `(src, tag)` channel.
    pub(crate) fn push_frame(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        frame: Frame,
    ) -> Result<(), PeerPanicked> {
        let mut st = self.state.lock();
        if let Some(origin) = st.poisoned {
            return Err(PeerPanicked { origin });
        }
        // Frames to or from a dead rank are black-holed: a survivor
        // running through the rest of a doomed step's communication
        // pattern must neither hang nor panic on its sends, and a dying
        // rank's stragglers must not leak into the post-shrink epoch.
        if st.dead[dst] || st.dead[src] {
            return Ok(());
        }
        st.mailboxes[dst].entry((src, tag)).or_default().push_back(frame);
        if let TaskState::Blocked(Wait::Recv { src: wsrc, tag: wtag, .. }) = &st.tasks[dst] {
            if *wsrc == src && *wtag == tag {
                Self::wake(&mut st, &self.cvs, dst);
            }
        }
        Ok(())
    }

    /// Pop the next frame from `src`/`tag`, yielding the run slot while
    /// the queue is empty. Queued frames from a now-dead `src` still
    /// drain in order; once the queue is empty a dead `src` fails with
    /// [`Fail::Dead`] instead of blocking forever.
    pub(crate) fn pop_frame(
        &self,
        rank: usize,
        src: usize,
        tag: u64,
        clock: &Clock,
    ) -> Result<Frame, Fail> {
        let mut st = self.state.lock();
        loop {
            if let Some(origin) = st.poisoned {
                return Err(Fail::Poisoned(PeerPanicked { origin }));
            }
            // A drained queue is removed with its key: payload
            // collectives draw a fresh tag per call, so an emptied
            // queue left behind is never used again.
            if let Entry::Occupied(mut queue) = st.mailboxes[rank].entry((src, tag)) {
                let frame = queue.get_mut().pop_front().expect("mailbox queues are never empty");
                if queue.get().is_empty() {
                    queue.remove();
                }
                return Ok(frame);
            }
            if st.dead[src] {
                return Err(Fail::Dead { rank: src });
            }
            let wait = Wait::Recv { src, tag, clock: clock.clone() };
            self.block(&mut st, rank, wait).map_err(Fail::Poisoned)?;
        }
    }

    /// Rendezvous collective over 3-word states: accumulate in arrival
    /// order with the caller's `combine`, last arriver publishes the
    /// result and wakes every waiter; returns `(result, fault_flag)`
    /// for the completed round. All ranks of a round pass the same
    /// `combine` (they execute the same collective in the same order),
    /// so one accumulator serves reductions, barriers, and digests.
    pub(crate) fn rendezvous(
        &self,
        rank: usize,
        name: &'static str,
        clock: &Clock,
        words: [u64; 3],
        combine: fn(&mut [u64; 3], [u64; 3]),
        fault: bool,
    ) -> Result<([u64; 3], bool, bool), PeerPanicked> {
        let size = self.size();
        let mut st = self.state.lock();
        if let Some(origin) = st.poisoned {
            return Err(PeerPanicked { origin });
        }
        if st.coll.arrived == 0 {
            st.coll.acc = words;
            st.coll.fault = fault;
        } else {
            combine(&mut st.coll.acc, words);
            st.coll.fault |= fault;
        }
        st.coll.arrived += 1;
        // Completion threshold counts only live ranks: a round with a
        // dead participant completes among the survivors (revoked if
        // the death is not yet acknowledged) instead of hanging.
        if st.coll.arrived >= size - st.ndead {
            Self::complete_rendezvous(&mut st, &self.cvs);
            return Ok((st.coll.result, st.coll.result_fault, st.coll.result_revoked));
        }
        let gen = st.coll.generation;
        while st.coll.generation == gen {
            self.block(&mut st, rank, Wait::Collective { name, clock: clock.clone() })?;
        }
        Ok((st.coll.result, st.coll.result_fault, st.coll.result_revoked))
    }

    /// Publish the current rendezvous round and wake every waiter. The
    /// result is revoked when it is missing an unacknowledged dead
    /// rank's contribution.
    fn complete_rendezvous(st: &mut SchedState, cvs: &[Condvar]) {
        st.coll.result = st.coll.acc;
        st.coll.result_fault = st.coll.fault;
        st.coll.result_revoked = st.ndead > st.accepted;
        st.coll.arrived = 0;
        st.coll.fault = false;
        st.coll.generation += 1;
        Self::wake_collective_waiters(st, cvs);
    }

    /// Wake every task blocked on a collective wait (rendezvous or
    /// shrink barrier); spurious wakes are fine — each waiter re-checks
    /// its own generation counter.
    fn wake_collective_waiters(st: &mut SchedState, cvs: &[Condvar]) {
        let waiters: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, TaskState::Blocked(Wait::Collective { .. })))
            .map(|(r, _)| r)
            .collect();
        for w in waiters {
            Self::wake(st, cvs, w);
        }
    }

    /// Declare `rank` permanently dead. Wakes survivors blocked on a
    /// receive from it (they fail with [`Fail::Dead`] once its queued
    /// frames drain) and completes any pending rendezvous or shrink
    /// barrier that was only waiting on the dead rank. The dead rank's
    /// carrier still runs to return from its closure — `task_finished`
    /// keeps the live count exact, so the structural deadlock detector
    /// needs no special case.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let size = self.size();
        let mut st = self.state.lock();
        if st.dead[rank] {
            return;
        }
        st.dead[rank] = true;
        st.ndead += 1;
        let stuck: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(
                |(_, t)| matches!(t, TaskState::Blocked(Wait::Recv { src, .. }) if *src == rank),
            )
            .map(|(r, _)| r)
            .collect();
        for w in stuck {
            Self::wake(&mut st, &self.cvs, w);
        }
        if st.coll.arrived > 0 && st.coll.arrived >= size - st.ndead {
            Self::complete_rendezvous(&mut st, &self.cvs);
        }
        if st.shrink_arrived > 0 && st.shrink_arrived >= size - st.ndead {
            Self::complete_shrink(&mut st, &self.cvs);
        }
    }

    /// Whether `rank` has been declared permanently dead.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.state.lock().dead[rank]
    }

    /// All dead ranks so far, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        let st = self.state.lock();
        st.dead.iter().enumerate().filter(|(_, &d)| d).map(|(r, _)| r).collect()
    }

    /// Survivor barrier at a shrink boundary: blocks until every live
    /// rank arrives (dead ranks excluded), flushes all mailboxes (the
    /// shrink boundary is a communication epoch), max-combines the
    /// submitted counter words so survivors resume with aligned
    /// collective/rendezvous sequence numbers, and acknowledges all
    /// deaths so far (subsequent rendezvous among the survivors are no
    /// longer revoked).
    pub(crate) fn shrink_align(
        &self,
        rank: usize,
        words: [u64; 2],
        clock: &Clock,
    ) -> Result<[u64; 2], PeerPanicked> {
        let size = self.size();
        let mut st = self.state.lock();
        if let Some(origin) = st.poisoned {
            return Err(PeerPanicked { origin });
        }
        if st.shrink_arrived == 0 {
            st.shrink_acc = words;
        } else {
            st.shrink_acc[0] = st.shrink_acc[0].max(words[0]);
            st.shrink_acc[1] = st.shrink_acc[1].max(words[1]);
        }
        st.shrink_arrived += 1;
        if st.shrink_arrived >= size - st.ndead {
            Self::complete_shrink(&mut st, &self.cvs);
            return Ok(st.shrink_result);
        }
        let gen = st.shrink_generation;
        while st.shrink_generation == gen {
            let wait = Wait::Collective { name: "shrink-align", clock: clock.clone() };
            self.block(&mut st, rank, wait)?;
        }
        Ok(st.shrink_result)
    }

    /// Publish the shrink barrier: acknowledge all deaths so far, flush
    /// every mailbox and any half-arrived rendezvous (the shrink
    /// boundary is a communication epoch — stale pre-shrink state must
    /// not leak into the survivors' new epoch), and wake every waiter.
    fn complete_shrink(st: &mut SchedState, cvs: &[Condvar]) {
        st.shrink_result = st.shrink_acc;
        st.shrink_arrived = 0;
        st.shrink_generation += 1;
        st.accepted = st.ndead;
        for mb in &mut st.mailboxes {
            mb.clear();
        }
        st.coll.arrived = 0;
        st.coll.fault = false;
        Self::wake_collective_waiters(st, cvs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_mailbox_queues_are_removed() {
        // Payload collectives draw a fresh tag per call, so a drained
        // queue left in the map would leak one entry per received frame.
        let sched = Scheduler::new(2, 2);
        for tag in 0..1000u64 {
            let flag = (tag % 3) as u8;
            let frame = (flag, Bytes::from_static(b"x"));
            sched.push_frame(0, 1, tag, frame).expect("job is not poisoned");
            let frame = sched.pop_frame(1, 0, tag, &Clock::new());
            assert!(matches!(frame, Ok((f, body)) if f == flag && &body[..] == b"x"));
        }
        assert!(sched.state.lock().mailboxes[1].is_empty());
    }
}
