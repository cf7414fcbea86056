//! The per-rank recorder: span guards against the virtual clock,
//! monotonic counters, and peak gauges.

use parking_lot::Mutex;
use rbamr_perfmodel::{Category, Clock, TimeBreakdown};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One completed (or in-flight) span. Begin/end are full virtual-clock
/// snapshots: the difference is the *exact* per-category time charged
/// while the span was open, so breakdowns reconstructed from spans
/// carry no sampling error.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Static span name (e.g. `"halo-fill"`).
    pub name: &'static str,
    /// The clock's scope when the span opened (its track colour in a
    /// trace viewer).
    pub category: Category,
    /// Optional numeric argument (typically an AMR level number).
    pub arg: Option<i64>,
    /// Nesting depth at begin: 0 = top-level.
    pub depth: usize,
    /// Monotonic per-recorder sequence number (total order of begins,
    /// shared with [`EdgeEvent`]s).
    pub seq: u64,
    /// Index (into [`Recorder::spans`]) of the enclosing span open when
    /// this one began, if any. Parent chains let the causal analysis
    /// attribute any event to its phase without time-interval guesswork.
    pub parent: Option<usize>,
    /// Clock snapshot when the span opened.
    pub begin: TimeBreakdown,
    /// Clock snapshot when the guard dropped (== `begin` while open).
    pub end: TimeBreakdown,
}

/// What kind of communication dependency an [`EdgeEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// A point-to-point message leaving this rank.
    Send,
    /// A point-to-point message arriving at this rank.
    Recv,
    /// Arrival at an all-ranks rendezvous collective (allreduce,
    /// barrier, digest). One event per participating rank, matched by
    /// the shared collective sequence number carried in `tag`.
    Collective,
}

/// The causal trace context of one communication event: which rank
/// produced it, under which open span, at which local sequence number.
/// This is the identity threaded through every `netsim` transfer; the
/// matching rule (channel + occurrence for point-to-point, collective
/// sequence for rendezvous) is what lets per-rank streams be merged
/// into one cross-rank DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The recording rank.
    pub rank: usize,
    /// Index of the innermost open span at record time, if any.
    pub span: Option<usize>,
    /// The event's recorder-local sequence number.
    pub seq: u64,
}

/// One matched communication edge endpoint, recorded against the
/// virtual clock. A `Send` on rank *a* and the `Recv` with the same
/// `(src, dst, tag, occurrence)` key on rank *b* form one cross-rank
/// edge of the causal DAG; `Collective` events with the same `tag`
/// (the rendezvous sequence number) form an all-ranks barrier node.
#[derive(Clone, Debug)]
pub struct EdgeEvent {
    /// Send / Recv / Collective.
    pub kind: EdgeKind,
    /// Peer rank: destination for `Send`, source for `Recv`; unused
    /// (`usize::MAX`) for `Collective`.
    pub peer: usize,
    /// Message tag for point-to-point; the shared rendezvous sequence
    /// number for `Collective`.
    pub tag: u64,
    /// Which occurrence on the `(src, dst, tag)` channel this message
    /// is (mailboxes are FIFO per channel, so sender and receiver
    /// number occurrences identically). Zero for collectives.
    pub occurrence: u64,
    /// Logical payload bytes.
    pub bytes: u64,
    /// Virtual seconds this operation charged to the local clock
    /// (transfer cost at a recv, the modelled collective cost at a
    /// rendezvous; zero for buffered sends).
    pub cost: f64,
    /// Display name (`"send"`, `"recv"`, or the collective's name).
    pub name: &'static str,
    /// The clock's scope when the event was recorded: the category its
    /// charge was attributed to.
    pub category: Category,
    /// Trace context: rank, innermost open span, local sequence.
    pub ctx: TraceCtx,
    /// Clock snapshot when the event was recorded (post-charge).
    pub time: TimeBreakdown,
}

impl EdgeEvent {
    /// The `(src, dst, tag, occurrence)` channel key of a
    /// point-to-point edge, or `None` for collectives.
    pub fn channel_key(&self) -> Option<(usize, usize, u64, u64)> {
        match self.kind {
            EdgeKind::Send => Some((self.ctx.rank, self.peer, self.tag, self.occurrence)),
            EdgeKind::Recv => Some((self.peer, self.ctx.rank, self.tag, self.occurrence)),
            EdgeKind::Collective => None,
        }
    }

    /// A stable 64-bit id for this edge's pairing key, used as the
    /// Chrome-trace flow-event id so both endpoints bind to the same
    /// arrow. FNV-1a over the key words; deterministic by construction.
    pub fn flow_id(&self) -> u64 {
        let words = match self.channel_key() {
            Some((src, dst, tag, occ)) => [src as u64, dst as u64, tag, occ],
            None => [u64::MAX, u64::MAX, self.tag, 0],
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

impl SpanEvent {
    /// Virtual time elapsed inside the span, per category.
    pub fn elapsed(&self) -> TimeBreakdown {
        self.end.since(&self.begin)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanEvent>,
    edges: Vec<EdgeEvent>,
    /// Indices (into `spans`) of the currently open spans, innermost
    /// last.
    open: Vec<usize>,
    depth: usize,
    next_seq: u64,
    counters: BTreeMap<String, u64>,
    /// Counters addressed by a `(prefix, suffix)` pair of static
    /// strings — the hot-path form: incrementing never allocates; the
    /// composed `"{prefix}{suffix}"` name is only materialised when a
    /// snapshot is taken.
    scoped_counters: BTreeMap<(&'static str, &'static str), u64>,
    gauges: BTreeMap<String, u64>,
}

struct Inner {
    rank: usize,
    clock: Clock,
    state: Mutex<State>,
}

/// Cheaply cloneable per-rank telemetry handle. Clones share the same
/// underlying store, so the device, the network layer, and the
/// integrator can all record into one rank-local stream.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder for `rank`, timestamping against `clock`.
    pub fn new(rank: usize, clock: Clock) -> Self {
        Self { inner: Some(Arc::new(Inner { rank, clock, state: Mutex::new(State::default()) })) }
    }

    /// The no-op recorder: every operation short-circuits, so
    /// uninstrumented configurations pay only an `Option` check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The rank this recorder belongs to (0 when disabled).
    pub fn rank(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.rank)
    }

    /// Open a span under the clock's current scope; it closes (and
    /// records its end snapshot) when the returned guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn open(&self, name: &'static str) -> SpanGuard {
        self.begin_span(name, None)
    }

    /// [`Recorder::open`] under `category`: the span records it, and
    /// what the span encloses charges the enclosing scope as before.
    /// Kept for the frozen benchmark package's signature (ROADMAP
    /// 27(b)).
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str, category: Category) -> SpanGuard {
        let _scope = self.inner.as_ref().map(|i| i.clock.scope(category));
        self.open(name)
    }

    /// Open a span carrying a numeric argument (e.g. an AMR level).
    #[must_use = "the span closes when the guard drops"]
    pub fn span_arg(&self, name: &'static str, arg: i64) -> SpanGuard {
        self.begin_span(name, Some(arg))
    }

    fn begin_span(&self, name: &'static str, arg: Option<i64>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None, index: 0 };
        };
        let (begin, category) = (inner.clock.snapshot(), inner.clock.current_scope());
        let mut state = inner.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let depth = state.depth;
        state.depth += 1;
        let index = state.spans.len();
        let parent = state.open.last().copied();
        state.open.push(index);
        state.spans.push(SpanEvent { name, category, arg, depth, seq, parent, begin, end: begin });
        SpanGuard { inner: Some(inner.clone()), index }
    }

    /// Record a communication edge event at the current clock time,
    /// under its current scope.
    /// Returns the event's [`TraceCtx`] (None when disabled). Counts
    /// `net.edge.sends` / `net.edge.recvs` / `net.edge.collectives`.
    #[allow(clippy::too_many_arguments)]
    pub fn edge(
        &self,
        kind: EdgeKind,
        name: &'static str,
        peer: usize,
        tag: u64,
        occurrence: u64,
        bytes: u64,
        cost: f64,
    ) -> Option<TraceCtx> {
        let inner = self.inner.as_ref()?;
        let (time, category) = (inner.clock.snapshot(), inner.clock.current_scope());
        let mut state = inner.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let ctx = TraceCtx { rank: inner.rank, span: state.open.last().copied(), seq };
        state.edges.push(EdgeEvent {
            kind,
            peer,
            tag,
            occurrence,
            bytes,
            cost,
            name,
            category,
            ctx,
            time,
        });
        let counter = match kind {
            EdgeKind::Send => ("net.edge.", "sends"),
            EdgeKind::Recv => ("net.edge.", "recvs"),
            EdgeKind::Collective => ("net.edge.", "collectives"),
        };
        *state.scoped_counters.entry(counter).or_insert(0) += 1;
        Some(ctx)
    }

    /// Record the sending endpoint of a point-to-point edge.
    pub fn edge_send(&self, dst: usize, tag: u64, occurrence: u64, bytes: u64) -> Option<TraceCtx> {
        self.edge(EdgeKind::Send, "send", dst, tag, occurrence, bytes, 0.0)
    }

    /// Record the receiving endpoint of a point-to-point edge; `cost`
    /// is the virtual transfer time the receive charged locally.
    pub fn edge_recv(
        &self,
        src: usize,
        tag: u64,
        occurrence: u64,
        bytes: u64,
        cost: f64,
    ) -> Option<TraceCtx> {
        self.edge(EdgeKind::Recv, "recv", src, tag, occurrence, bytes, cost)
    }

    /// Record arrival at rendezvous collective number `cseq` (all
    /// participating ranks record the same `cseq` for one collective).
    pub fn edge_collective(
        &self,
        name: &'static str,
        cseq: u64,
        bytes: u64,
        cost: f64,
    ) -> Option<TraceCtx> {
        self.edge(EdgeKind::Collective, name, usize::MAX, cseq, 0, bytes, cost)
    }

    /// Snapshot of all edge events recorded so far, in record order.
    pub fn edges(&self) -> Vec<EdgeEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.state.lock().edges.clone())
    }

    /// Add `delta` to the named monotonic counter.
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock();
        if let Some(v) = state.counters.get_mut(name) {
            *v += delta;
        } else {
            state.counters.insert(name.to_string(), delta);
        }
    }

    /// Add `delta` to the counter named `"{prefix}{suffix}"` without
    /// composing the name — the hot-path form for per-kernel / per-kind
    /// counters. The composed name only materialises in snapshots
    /// ([`Recorder::counters`] / [`Recorder::counter`]), so call sites
    /// in kernel-launch and message loops never allocate.
    pub fn count_scoped(&self, prefix: &'static str, suffix: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock();
        *state.scoped_counters.entry((prefix, suffix)).or_insert(0) += delta;
    }

    /// Raise the named gauge to `value` if it is a new peak.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock();
        if let Some(v) = state.gauges.get_mut(name) {
            *v = (*v).max(value);
        } else {
            state.gauges.insert(name.to_string(), value);
        }
    }

    /// Current value of one counter (0 if never incremented). Scoped
    /// counters are visible under their composed `"{prefix}{suffix}"`
    /// name.
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let state = inner.state.lock();
        if let Some(v) = state.counters.get(name) {
            return *v;
        }
        state
            .scoped_counters
            .iter()
            .find(|((p, s), _)| {
                p.len() + s.len() == name.len() && name.starts_with(p) && name.ends_with(s)
            })
            .map_or(0, |(_, v)| *v)
    }

    /// Snapshot of all counters, scoped counters composed into their
    /// full `"{prefix}{suffix}"` names.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let Some(inner) = &self.inner else { return BTreeMap::new() };
        let state = inner.state.lock();
        let mut out = state.counters.clone();
        for ((prefix, suffix), v) in &state.scoped_counters {
            *out.entry(format!("{prefix}{suffix}")).or_insert(0) += v;
        }
        out
    }

    /// Snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        self.inner.as_ref().map_or_else(BTreeMap::new, |i| i.state.lock().gauges.clone())
    }

    /// Snapshot of all spans recorded so far, in begin order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.state.lock().spans.clone())
    }

    /// Snapshot of the recorder's clock.
    pub fn clock_snapshot(&self) -> TimeBreakdown {
        self.inner.as_ref().map_or_else(TimeBreakdown::default, |i| i.clock.snapshot())
    }

    /// Per-category virtual time reconstructed from **top-level**
    /// spans only (nested spans are already contained in their
    /// parents). Because every span stores exact clock snapshots, this
    /// equals the raw `Clock` breakdown wherever instrumentation
    /// covers the charged code — comparing the two measures coverage.
    pub fn span_breakdown(&self) -> TimeBreakdown {
        let mut out = TimeBreakdown::default();
        let Some(inner) = &self.inner else { return out };
        for span in inner.state.lock().spans.iter().filter(|s| s.depth == 0) {
            out = out.merged(&span.elapsed());
        }
        out
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(i) => f
                .debug_struct("Recorder")
                .field("rank", &i.rank)
                .field("spans", &i.state.lock().spans.len())
                .finish(),
        }
    }
}

/// RAII guard returned by [`Recorder::span`]; records the end snapshot
/// and pops the nesting depth on drop.
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    index: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else { return };
        let end = inner.clock.snapshot();
        let mut state = inner.state.lock();
        state.depth = state.depth.saturating_sub(1);
        // Guards normally drop LIFO; search from the back so an
        // out-of-order drop still removes the right entry.
        if let Some(pos) = state.open.iter().rposition(|&i| i == self.index) {
            state.open.remove(pos);
        }
        if let Some(span) = state.spans.get_mut(self.index) {
            span.end = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        {
            let _g = rec.span("step", Category::Other);
            rec.count("x", 3);
            rec.gauge_max("g", 9);
        }
        assert!(!rec.is_enabled());
        assert_eq!(rec.counter("x"), 0);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.span_breakdown().total(), 0.0);
    }

    #[test]
    fn spans_nest_and_snapshot_the_clock() {
        let clock = Clock::new();
        let rec = Recorder::new(3, clock.clone());
        {
            let _outer = rec.span("step", Category::Other);
            clock.advance(Category::HydroKernel, 1.0);
            {
                let _inner = rec.span_arg("halo-fill", 1);
                clock.advance(Category::HaloExchange, 0.5);
            }
            clock.advance(Category::Timestep, 0.25);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "step");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "halo-fill");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].arg, Some(1));
        assert!(spans[0].seq < spans[1].seq);
        assert_eq!(spans[0].elapsed().total(), 1.75);
        assert_eq!(spans[1].elapsed().get(Category::HaloExchange), 0.5);
        // Top-level reconstruction matches the raw clock exactly.
        assert_eq!(rec.span_breakdown(), clock.snapshot());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let rec = Recorder::new(0, Clock::new());
        rec.count("net.send_bytes", 100);
        rec.count("net.send_bytes", 28);
        rec.gauge_max("device.peak_bytes", 10);
        rec.gauge_max("device.peak_bytes", 7);
        assert_eq!(rec.counter("net.send_bytes"), 128);
        assert_eq!(rec.gauges()["device.peak_bytes"], 10);
    }

    #[test]
    fn clones_share_the_store() {
        let rec = Recorder::new(0, Clock::new());
        let other = rec.clone();
        other.count("k", 2);
        assert_eq!(rec.counter("k"), 2);
    }

    #[test]
    fn edges_carry_context_and_match_keys() {
        let clock = Clock::new();
        let rec = Recorder::new(1, clock.clone());
        {
            let _step = rec.span("step", Category::Other);
            clock.advance(Category::HaloExchange, 0.5);
            let ctx = rec.edge_send(3, 42, 0, 128).unwrap();
            assert_eq!(ctx.rank, 1);
            assert_eq!(ctx.span, Some(0));
            rec.edge_recv(2, 42, 0, 64, 0.25);
            rec.edge_collective("allreduce-min", 7, 8, 0.125);
        }
        let edges = rec.edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].channel_key(), Some((1, 3, 42, 0)));
        assert_eq!(edges[1].channel_key(), Some((2, 1, 42, 0)));
        assert_eq!(edges[2].channel_key(), None);
        assert_eq!(edges[1].cost, 0.25);
        assert_eq!(edges[0].time.get(Category::HaloExchange), 0.5);
        // Sequence numbers interleave with span begins.
        assert!(edges[0].ctx.seq > rec.spans()[0].seq);
        assert_eq!(rec.counter("net.edge.sends"), 1);
        assert_eq!(rec.counter("net.edge.recvs"), 1);
        assert_eq!(rec.counter("net.edge.collectives"), 1);
        // A send and its matching recv produce the same flow id.
        let other = Recorder::new(3, Clock::new());
        other.edge_recv(1, 42, 0, 128, 0.1);
        assert_eq!(other.edges()[0].flow_id(), edges[0].flow_id());
        assert_ne!(edges[0].flow_id(), edges[1].flow_id());
    }

    #[test]
    fn span_parents_track_nesting() {
        let clock = Clock::new();
        let rec = Recorder::new(0, clock.clone());
        {
            let _a = rec.span("step", Category::Other);
            {
                let _b = rec.span("lagrangian", Category::HydroKernel);
                let ctx = rec.edge_send(1, 0, 0, 8).unwrap();
                assert_eq!(ctx.span, Some(1));
            }
            {
                let _c = rec.span("advection", Category::HydroKernel);
            }
            let ctx = rec.edge_send(1, 0, 1, 8).unwrap();
            assert_eq!(ctx.span, Some(0));
        }
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        // Outside all spans: no context.
        let ctx = rec.edge_send(1, 0, 2, 8).unwrap();
        assert_eq!(ctx.span, None);
    }

    #[test]
    fn scoped_counters_compose_names_in_snapshots() {
        let rec = Recorder::new(0, Clock::new());
        rec.count_scoped("device.kernel_launches.", "pack", 2);
        rec.count_scoped("device.kernel_launches.", "pack", 1);
        rec.count_scoped("net.sends.kind", "15", 4);
        rec.count("device.kernel_launches.unpack", 9);
        assert_eq!(rec.counter("device.kernel_launches.pack"), 3);
        assert_eq!(rec.counter("net.sends.kind15"), 4);
        assert_eq!(rec.counter("device.kernel_launches.unpack"), 9);
        let all = rec.counters();
        assert_eq!(all["device.kernel_launches.pack"], 3);
        assert_eq!(all["net.sends.kind15"], 4);
        // Disabled recorder: all scoped ops are no-ops.
        let off = Recorder::disabled();
        off.count_scoped("a", "b", 1);
        assert_eq!(off.counter("ab"), 0);
        assert!(off.edges().is_empty());
        assert!(off.edge_send(0, 0, 0, 0).is_none());
    }

    #[test]
    fn uncovered_clock_time_is_visible() {
        let clock = Clock::new();
        let rec = Recorder::new(0, clock.clone());
        clock.advance(Category::Regrid, 5.0); // charged outside any span
        {
            let _g = rec.span("step", Category::Other);
            clock.advance(Category::HydroKernel, 1.0);
        }
        let spans = rec.span_breakdown();
        assert_eq!(spans.get(Category::HydroKernel), 1.0);
        assert_eq!(spans.get(Category::Regrid), 0.0);
        assert_eq!(clock.snapshot().get(Category::Regrid), 5.0);
    }
}
