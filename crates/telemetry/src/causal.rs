//! Cross-rank causal analysis: merge per-rank span streams and message
//! edge events into a deterministic DAG over the virtual clock, then
//! attribute wall time and extract the critical path.
//!
//! ## Model
//!
//! Each rank's [`Recorder`] yields an ordered stream of [`EdgeEvent`]s
//! at nondecreasing local (virtual-clock) times. Locally, a rank's
//! clock only counts time it was *charged* — it knows nothing about
//! waiting on peers. The causal pass replays all ranks' streams
//! together and maintains an **adjusted** time per rank:
//!
//! - between events, adjusted time advances 1:1 with local time;
//! - a `Recv` completes at `max(local readiness, sender departure +
//!   transfer cost)` — the excess over local readiness is
//!   **late-sender wait**;
//! - a rendezvous `Collective` departs at the latest member's arrival —
//!   each member's excess is **collective (imbalance) wait**.
//!
//! Per rank, the whole run then decomposes into four buckets that sum
//! *exactly* to the global makespan: **compute** (charged local time
//! minus transfer costs), **exposed-comm** (charged transfer costs),
//! **late-sender-wait** (p2p waits), and **imbalance** (collective
//! waits plus end-of-run slack behind the slowest rank).
//!
//! The critical path is recovered by backtracking from the rank that
//! determines the makespan through the recorded determining
//! predecessor of every event (local work, a matched send, or the
//! latest collective arrival).

use crate::recorder::{EdgeEvent, EdgeKind, Recorder, SpanEvent};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// The four attribution buckets. All values are virtual seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Buckets {
    /// Charged local time minus transfer costs.
    pub compute: f64,
    /// Charged transfer costs (message + collective cost laws).
    pub exposed_comm: f64,
    /// Time spent blocked on a matched sender that departed late.
    pub late_sender_wait: f64,
    /// Collective rendezvous waits plus end slack behind the
    /// makespan-setting rank.
    pub imbalance: f64,
}

impl Buckets {
    pub fn total(&self) -> f64 {
        self.compute + self.exposed_comm + self.late_sender_wait + self.imbalance
    }
}

/// Whole-run buckets for one rank. `buckets.total()` equals the
/// analysis makespan for every rank, by construction.
#[derive(Clone, Debug)]
pub struct RankBuckets {
    pub rank: usize,
    pub buckets: Buckets,
    /// Causally adjusted end time of this rank's local timeline.
    pub adjusted_end: f64,
}

/// Attribution of one simulation step (a depth-0 `"step"` span).
#[derive(Clone, Debug)]
pub struct StepAttribution {
    /// The step index (the `"step"` span's argument).
    pub step: i64,
    /// Step window makespan: latest adjusted step-exit minus earliest
    /// adjusted step-entry over all ranks that ran the step.
    pub window: f64,
    /// Per-rank buckets; each sums to `window` (residual compute
    /// absorbs boundary effects, clamped at zero).
    pub ranks: Vec<(usize, Buckets)>,
}

/// Communication/wait totals attributed to one phase or level.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommProfile {
    pub exposed_comm: f64,
    pub late_sender_wait: f64,
    pub collective_wait: f64,
    pub events: u64,
}

/// Critical-path totals per step (and `"(outside)"` work).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpSegment {
    pub compute: f64,
    pub comm: f64,
    pub cross_edges: usize,
}

/// The makespan-determining chain through the causal DAG.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Local compute time on the path.
    pub compute: f64,
    /// Transfer/collective cost time on the path.
    pub comm: f64,
    /// Matched send→recv edges the path crosses.
    pub cross_edges: usize,
    /// Times the path hops from one rank to another.
    pub rank_switches: usize,
    /// Rank whose adjusted end sets the makespan (lowest on ties).
    pub end_rank: usize,
    /// Path totals per step index (−1 = outside any step).
    pub steps: BTreeMap<i64, CpSegment>,
}

/// Full result of [`analyze`].
#[derive(Clone, Debug, Default)]
pub struct CausalAnalysis {
    pub nranks: usize,
    /// Latest causally adjusted end over all ranks.
    pub makespan: f64,
    pub ranks: Vec<RankBuckets>,
    pub steps: Vec<StepAttribution>,
    /// Comm/wait per phase (depth-1 span under a `"step"` span, else
    /// the enclosing depth-0 span name, else `"(outside)"`).
    pub phases: BTreeMap<String, CommProfile>,
    /// Comm/wait per AMR level (nearest enclosing span argument).
    pub levels: BTreeMap<i64, CommProfile>,
    pub critical_path: CriticalPath,
    /// Matched send→recv pairs.
    pub edges_matched: usize,
    /// Send edges whose receive was never recorded.
    pub unmatched_sends: usize,
}

/// Why a causal DAG could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum CausalError {
    /// A recv edge has no matching send on `(src, dst, tag, occurrence)`.
    UnmatchedRecv { rank: usize, src: usize, tag: u64, occurrence: u64 },
    /// The replay stalled: a dependency cycle or an incomplete
    /// collective group (some member never arrived).
    Stalled { pending_ranks: Vec<usize> },
}

impl std::fmt::Display for CausalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CausalError::UnmatchedRecv { rank, src, tag, occurrence } => write!(
                f,
                "recv on rank {rank} from {src} (tag {tag}, occurrence {occurrence}) \
                 has no matching send edge"
            ),
            CausalError::Stalled { pending_ranks } => {
                write!(f, "causal replay stalled; pending ranks {pending_ranks:?}")
            }
        }
    }
}

impl std::error::Error for CausalError {}

/// Phase label for an event: the depth-1 span under a `"step"` span,
/// else the enclosing depth-0 span's name, else `"(outside)"`.
fn phase_of(spans: &[SpanEvent], ctx_span: Option<usize>) -> &'static str {
    let mut i = match ctx_span {
        Some(i) => i,
        None => return "(outside)",
    };
    loop {
        let s = &spans[i];
        match s.parent {
            None => return s.name,
            Some(p) => {
                if spans[p].parent.is_none() && spans[p].name == "step" {
                    return s.name;
                }
                i = p;
            }
        }
    }
}

/// AMR level for an event: nearest enclosing span carrying an
/// argument, skipping `"step"` spans (whose argument is the step).
fn level_of(spans: &[SpanEvent], ctx_span: Option<usize>) -> Option<i64> {
    let mut i = ctx_span?;
    loop {
        let s = &spans[i];
        if s.name != "step" {
            if let Some(arg) = s.arg {
                return Some(arg);
            }
        }
        i = s.parent?;
    }
}

/// Step index for an event: argument of the enclosing depth-0
/// `"step"` span, if any.
fn step_of(spans: &[SpanEvent], ctx_span: Option<usize>) -> Option<i64> {
    let mut i = ctx_span?;
    loop {
        let s = &spans[i];
        match s.parent {
            None => return if s.name == "step" { s.arg } else { None },
            Some(p) => i = p,
        }
    }
}

/// Adjusted time at local time `x` on one rank, from the replay's
/// checkpoints `(local, adjusted)`: piecewise `adjusted = chk.1 +
/// (x - chk.0)` from the last checkpoint at or before `x`.
fn adj_at(checkpoints: &[(f64, f64)], x: f64) -> f64 {
    let k = checkpoints.partition_point(|&(local, _)| local <= x);
    if k == 0 {
        return x;
    }
    let (local, adj) = checkpoints[k - 1];
    adj + (x - local)
}

/// Per-event replay record.
#[derive(Clone, Copy, Debug, Default)]
struct EventState {
    /// Adjusted time after the event completed.
    adj_after: f64,
    /// Wait incurred at this event (p2p or collective).
    wait: f64,
    /// Determining predecessor `(rank index, event index)`; `None`
    /// means local work determined completion.
    det: Option<(usize, usize)>,
    /// Collective arrival time, while blocked at a rendezvous.
    arrival: Option<f64>,
}

/// Build the causal DAG from all enabled recorders and attribute time.
///
/// Deterministic: ranks are processed in rank order, events in
/// recorded order, and every reduction iterates ordered containers —
/// the same recorders always produce an identical analysis.
pub fn analyze(recorders: &[Recorder]) -> Result<CausalAnalysis, CausalError> {
    let mut recs: Vec<&Recorder> = recorders.iter().filter(|r| r.is_enabled()).collect();
    recs.sort_by_key(|r| r.rank());
    let n = recs.len();
    if n == 0 {
        return Ok(CausalAnalysis::default());
    }
    let ranks: Vec<usize> = recs.iter().map(|r| r.rank()).collect();
    let edges: Vec<Vec<EdgeEvent>> = recs.iter().map(|r| r.edges()).collect();
    let spans: Vec<Vec<SpanEvent>> = recs.iter().map(|r| r.spans()).collect();
    let final_t: Vec<f64> = recs.iter().map(|r| r.clock_snapshot().total()).collect();

    // Index sends by channel key and group collectives by rendezvous
    // sequence (all members of one rendezvous share the tag).
    let mut send_lookup: HashMap<(usize, usize, u64, u64), (usize, usize)> = HashMap::new();
    let mut groups: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    let mut unmatched_sends = 0usize;
    for (ri, evs) in edges.iter().enumerate() {
        for (ei, e) in evs.iter().enumerate() {
            match e.kind {
                EdgeKind::Send => {
                    send_lookup.insert(e.channel_key().unwrap(), (ri, ei));
                }
                EdgeKind::Collective => groups.entry(e.tag).or_default().push((ri, ei)),
                EdgeKind::Recv => {}
            }
        }
    }
    // Verify every recv has a sender before replaying.
    let mut matched = 0usize;
    for (ri, evs) in edges.iter().enumerate() {
        for e in evs {
            if e.kind == EdgeKind::Recv {
                match e.channel_key().and_then(|k| send_lookup.get(&k)) {
                    Some(_) => matched += 1,
                    None => {
                        return Err(CausalError::UnmatchedRecv {
                            rank: ranks[ri],
                            src: e.peer,
                            tag: e.tag,
                            occurrence: e.occurrence,
                        })
                    }
                }
            }
        }
    }
    unmatched_sends += send_lookup.len().saturating_sub(matched);

    // Replay.
    let mut cur = vec![0usize; n];
    let mut adj = vec![0.0f64; n];
    let mut prev = vec![0.0f64; n];
    let mut state: Vec<Vec<EventState>> =
        edges.iter().map(|e| vec![EventState::default(); e.len()]).collect();
    let mut checkpoints: Vec<Vec<(f64, f64)>> = vec![vec![(0.0, 0.0)]; n];
    let mut group_done: BTreeMap<u64, bool> = groups.keys().map(|&k| (k, false)).collect();
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for r in 0..n {
            while cur[r] < edges[r].len() {
                let i = cur[r];
                let e = &edges[r][i];
                let delta = (e.time.total() - prev[r]).max(0.0);
                match e.kind {
                    EdgeKind::Send => {
                        adj[r] += delta;
                        prev[r] = e.time.total();
                        state[r][i].adj_after = adj[r];
                        checkpoints[r].push((prev[r], adj[r]));
                        cur[r] += 1;
                        progressed = true;
                    }
                    EdgeKind::Recv => {
                        let (sr, si) = send_lookup[&e.channel_key().unwrap()];
                        if cur[sr] <= si {
                            break; // sender not replayed yet
                        }
                        let ready = adj[r] + delta;
                        let arrive = state[sr][si].adj_after + e.cost;
                        let done = ready.max(arrive);
                        state[r][i].wait = done - ready;
                        state[r][i].det = if arrive > ready { Some((sr, si)) } else { None };
                        state[r][i].adj_after = done;
                        adj[r] = done;
                        prev[r] = e.time.total();
                        checkpoints[r].push((prev[r], adj[r]));
                        cur[r] += 1;
                        progressed = true;
                    }
                    EdgeKind::Collective => {
                        if state[r][i].arrival.is_none() {
                            state[r][i].arrival = Some(adj[r] + delta);
                            progressed = true;
                        }
                        let members = &groups[&e.tag];
                        let complete = members
                            .iter()
                            .all(|&(mr, mi)| state[mr][mi].arrival.is_some() && cur[mr] == mi);
                        if !complete {
                            break; // rendezvous not yet full
                        }
                        // Latest arrival sets the departure; ties go
                        // to the lowest rank (members are rank-sorted).
                        let mut departure = f64::NEG_INFINITY;
                        let mut det_member = (0usize, 0usize);
                        for &(mr, mi) in members {
                            let a = state[mr][mi].arrival.unwrap();
                            if a > departure {
                                departure = a;
                                det_member = (mr, mi);
                            }
                        }
                        for &(mr, mi) in members {
                            let a = state[mr][mi].arrival.unwrap();
                            state[mr][mi].wait = departure - a;
                            state[mr][mi].det =
                                if det_member == (mr, mi) { None } else { Some(det_member) };
                            state[mr][mi].adj_after = departure;
                            adj[mr] = departure;
                            prev[mr] = edges[mr][mi].time.total();
                            checkpoints[mr].push((prev[mr], departure));
                            cur[mr] += 1;
                        }
                        group_done.insert(e.tag, true);
                        progressed = true;
                    }
                }
            }
            if cur[r] < edges[r].len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            let pending: Vec<usize> =
                (0..n).filter(|&r| cur[r] < edges[r].len()).map(|r| ranks[r]).collect();
            return Err(CausalError::Stalled { pending_ranks: pending });
        }
    }
    // Tail: local work after the last event.
    let mut adj_end = vec![0.0f64; n];
    for r in 0..n {
        let tail = (final_t[r] - prev[r]).max(0.0);
        adj_end[r] = adj[r] + tail;
        checkpoints[r].push((final_t[r], adj_end[r]));
    }
    let makespan = adj_end.iter().cloned().fold(0.0, f64::max);

    // Whole-run per-rank buckets. Identity: adjusted end = local total
    // + all waits, so compute + comm + waits + end slack = makespan.
    let mut rank_buckets = Vec::with_capacity(n);
    for r in 0..n {
        let mut comm = 0.0;
        let mut ls_wait = 0.0;
        let mut coll_wait = 0.0;
        for (e, s) in edges[r].iter().zip(&state[r]) {
            comm += e.cost;
            match e.kind {
                EdgeKind::Recv => ls_wait += s.wait,
                EdgeKind::Collective => coll_wait += s.wait,
                EdgeKind::Send => {}
            }
        }
        let compute = (final_t[r] - comm).max(0.0);
        rank_buckets.push(RankBuckets {
            rank: ranks[r],
            buckets: Buckets {
                compute,
                exposed_comm: comm,
                late_sender_wait: ls_wait,
                imbalance: coll_wait + (makespan - adj_end[r]),
            },
            adjusted_end: adj_end[r],
        });
    }

    // Per-phase and per-level comm/wait attribution.
    let mut phases: BTreeMap<String, CommProfile> = BTreeMap::new();
    let mut levels: BTreeMap<i64, CommProfile> = BTreeMap::new();
    for r in 0..n {
        for (e, s) in edges[r].iter().zip(&state[r]) {
            let p = phases.entry(phase_of(&spans[r], e.ctx.span).to_string()).or_default();
            p.exposed_comm += e.cost;
            p.events += 1;
            match e.kind {
                EdgeKind::Recv => p.late_sender_wait += s.wait,
                EdgeKind::Collective => p.collective_wait += s.wait,
                EdgeKind::Send => {}
            }
            if let Some(level) = level_of(&spans[r], e.ctx.span) {
                let l = levels.entry(level).or_default();
                l.exposed_comm += e.cost;
                l.events += 1;
                match e.kind {
                    EdgeKind::Recv => l.late_sender_wait += s.wait,
                    EdgeKind::Collective => l.collective_wait += s.wait,
                    EdgeKind::Send => {}
                }
            }
        }
    }

    // Per-step attribution. Step windows come from the depth-0
    // "step" spans; events are assigned by span ancestry.
    let mut step_windows: BTreeMap<i64, Vec<(usize, f64, f64)>> = BTreeMap::new();
    for r in 0..n {
        for s in &spans[r] {
            if s.parent.is_none() && s.name == "step" {
                if let Some(k) = s.arg {
                    let b = adj_at(&checkpoints[r], s.begin.total());
                    let e = adj_at(&checkpoints[r], s.end.total());
                    step_windows.entry(k).or_default().push((r, b, e));
                }
            }
        }
    }
    let mut per_step_events: Vec<BTreeMap<i64, (f64, f64, f64)>> = vec![BTreeMap::new(); n];
    for r in 0..n {
        for (e, s) in edges[r].iter().zip(&state[r]) {
            if let Some(k) = step_of(&spans[r], e.ctx.span) {
                let slot = per_step_events[r].entry(k).or_insert((0.0, 0.0, 0.0));
                slot.0 += e.cost;
                match e.kind {
                    EdgeKind::Recv => slot.1 += s.wait,
                    EdgeKind::Collective => slot.2 += s.wait,
                    EdgeKind::Send => {}
                }
            }
        }
    }
    let mut steps = Vec::new();
    for (&k, members) in &step_windows {
        let begin = members.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
        let end = members.iter().map(|m| m.2).fold(0.0, f64::max);
        let window = (end - begin).max(0.0);
        let mut rows = Vec::with_capacity(members.len());
        for &(r, b, e) in members {
            let span = e - b;
            let (comm, ls_wait, coll_wait) =
                per_step_events[r].get(&k).copied().unwrap_or((0.0, 0.0, 0.0));
            let slack = (window - span).max(0.0);
            let compute = (span - comm - ls_wait - coll_wait).max(0.0);
            rows.push((
                ranks[r],
                Buckets {
                    compute,
                    exposed_comm: comm,
                    late_sender_wait: ls_wait,
                    imbalance: coll_wait + slack,
                },
            ));
        }
        steps.push(StepAttribution { step: k, window, ranks: rows });
    }

    // Critical path: backtrack from the makespan-setting rank through
    // recorded determining predecessors.
    let end_rank_idx =
        (0..n).min_by(|&a, &b| adj_end[b].partial_cmp(&adj_end[a]).unwrap().then(a.cmp(&b)));
    let mut cp = CriticalPath::default();
    if let Some(er) = end_rank_idx {
        cp.end_rank = ranks[er];
        // Tail after the last event is pure local compute.
        let tail_start = state[er].last().map(|s| s.adj_after).unwrap_or(0.0);
        cp.compute += adj_end[er] - tail_start;
        if adj_end[er] > tail_start {
            cp.steps.entry(-1).or_default().compute += adj_end[er] - tail_start;
        }
        let mut node = edges[er].len().checked_sub(1).map(|i| (er, i));
        while let Some((r, i)) = node {
            let e = &edges[r][i];
            let s = &state[r][i];
            let step_key = step_of(&spans[r], e.ctx.span).unwrap_or(-1);
            match s.det {
                Some((pr, pi)) => {
                    if e.kind == EdgeKind::Recv {
                        cp.comm += e.cost;
                        cp.cross_edges += 1;
                        let seg = cp.steps.entry(step_key).or_default();
                        seg.comm += e.cost;
                        seg.cross_edges += 1;
                    }
                    if pr != r {
                        cp.rank_switches += 1;
                    }
                    node = Some((pr, pi));
                }
                None => {
                    let before = if i > 0 { state[r][i - 1].adj_after } else { 0.0 };
                    let seg_total = (s.adj_after - s.wait - before).max(0.0);
                    let comm = e.cost.min(seg_total);
                    let compute = seg_total - comm;
                    cp.comm += comm;
                    cp.compute += compute;
                    let seg = cp.steps.entry(step_key).or_default();
                    seg.comm += comm;
                    seg.compute += compute;
                    node = i.checked_sub(1).map(|pi| (r, pi));
                }
            }
        }
    }

    Ok(CausalAnalysis {
        nranks: n,
        makespan,
        ranks: rank_buckets,
        steps,
        phases,
        levels,
        critical_path: cp,
        edges_matched: matched,
        unmatched_sends,
    })
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Deterministic aligned text report of a [`CausalAnalysis`].
pub fn report_text(a: &CausalAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "causal attribution: {} ranks, makespan {:.6}s, {} matched edges",
        a.nranks, a.makespan, a.edges_matched
    );
    let _ = writeln!(
        out,
        "{:<6} {:>11} {:>11} {:>11} {:>11} {:>8}",
        "rank", "compute", "comm", "late-send", "imbalance", "total%"
    );
    for rb in &a.ranks {
        let b = &rb.buckets;
        let _ = writeln!(
            out,
            "{:<6} {:>10.6}s {:>10.6}s {:>10.6}s {:>10.6}s {:>7.1}%",
            rb.rank,
            b.compute,
            b.exposed_comm,
            b.late_sender_wait,
            b.imbalance,
            pct(b.total(), a.makespan),
        );
    }
    let _ = writeln!(
        out,
        "critical path: compute {:.6}s, comm {:.6}s, {} cross edges, {} rank switches, ends rank {}",
        a.critical_path.compute,
        a.critical_path.comm,
        a.critical_path.cross_edges,
        a.critical_path.rank_switches,
        a.critical_path.end_rank,
    );
    if !a.steps.is_empty() {
        let _ = writeln!(
            out,
            "{:<6} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "step", "window", "compute", "comm", "late-send", "imbalance"
        );
        for s in &a.steps {
            let mut sum = Buckets::default();
            for (_, b) in &s.ranks {
                sum.compute += b.compute;
                sum.exposed_comm += b.exposed_comm;
                sum.late_sender_wait += b.late_sender_wait;
                sum.imbalance += b.imbalance;
            }
            let _ = writeln!(
                out,
                "{:<6} {:>10.6}s {:>10.6}s {:>10.6}s {:>10.6}s {:>10.6}s",
                s.step,
                s.window,
                sum.compute,
                sum.exposed_comm,
                sum.late_sender_wait,
                sum.imbalance
            );
        }
    }
    if !a.phases.is_empty() {
        let _ = writeln!(
            out,
            "{:<16} {:>11} {:>11} {:>11} {:>8}",
            "phase", "comm", "late-send", "coll-wait", "events"
        );
        for (name, p) in &a.phases {
            let _ = writeln!(
                out,
                "{:<16} {:>10.6}s {:>10.6}s {:>10.6}s {:>8}",
                name, p.exposed_comm, p.late_sender_wait, p.collective_wait, p.events
            );
        }
    }
    if !a.levels.is_empty() {
        let _ = writeln!(
            out,
            "{:<16} {:>11} {:>11} {:>11} {:>8}",
            "level", "comm", "late-send", "coll-wait", "events"
        );
        for (level, p) in &a.levels {
            let _ = writeln!(
                out,
                "{:<16} {:>10.6}s {:>10.6}s {:>10.6}s {:>8}",
                level, p.exposed_comm, p.late_sender_wait, p.collective_wait, p.events
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_perfmodel::{Category, Clock};

    #[test]
    fn late_sender_wait_is_attributed_to_the_receiver() {
        // Rank 1 computes 1.0s then sends; rank 0 computes 0.2s, is
        // charged a 0.3s transfer, and receives. Causally the recv
        // cannot complete before 1.0 + 0.3 = 1.3s.
        let c0 = Clock::new();
        let r0 = Recorder::new(0, c0.clone());
        let c1 = Clock::new();
        let r1 = Recorder::new(1, c1.clone());
        c1.advance(Category::HydroKernel, 1.0);
        r1.edge_send(0, 7, 0, 1024);
        c0.advance(Category::HydroKernel, 0.2);
        c0.advance(Category::HaloExchange, 0.3);
        r0.edge_recv(1, 7, 0, 1024, 0.3);
        let a = analyze(&[r0, r1]).unwrap();
        assert!((a.makespan - 1.3).abs() < 1e-12);
        let b0 = &a.ranks[0].buckets;
        assert!((b0.compute - 0.2).abs() < 1e-12);
        assert!((b0.exposed_comm - 0.3).abs() < 1e-12);
        assert!((b0.late_sender_wait - 0.8).abs() < 1e-12);
        assert!((b0.imbalance - 0.0).abs() < 1e-12);
        let b1 = &a.ranks[1].buckets;
        assert!((b1.compute - 1.0).abs() < 1e-12);
        assert!((b1.imbalance - 0.3).abs() < 1e-12);
        for rb in &a.ranks {
            assert!((rb.buckets.total() - a.makespan).abs() < 1e-12, "buckets must sum");
        }
        // Critical path: 1.0s compute on rank 1, one 0.3s cross edge.
        let cp = &a.critical_path;
        assert_eq!(cp.end_rank, 0);
        assert_eq!(cp.cross_edges, 1);
        assert!((cp.comm - 0.3).abs() < 1e-12);
        assert!((cp.compute - 1.0).abs() < 1e-12);
        assert!((cp.compute + cp.comm - a.makespan).abs() < 1e-12);
    }

    #[test]
    fn collective_imbalance_is_charged_to_early_arrivals() {
        let mk = |rank: usize, work: f64| {
            let c = Clock::new();
            let r = Recorder::new(rank, c.clone());
            c.advance(Category::HydroKernel, work);
            c.advance(Category::Timestep, 0.1);
            r.edge_collective("allreduce-min", 0, 8, 0.1);
            r
        };
        let a = analyze(&[mk(0, 1.0), mk(1, 2.0), mk(2, 3.0)]).unwrap();
        assert!((a.makespan - 3.1).abs() < 1e-12);
        let waits: Vec<f64> = a.ranks.iter().map(|r| r.buckets.imbalance).collect();
        assert!((waits[0] - 2.0).abs() < 1e-12);
        assert!((waits[1] - 1.0).abs() < 1e-12);
        assert!((waits[2] - 0.0).abs() < 1e-12);
        for rb in &a.ranks {
            assert!((rb.buckets.total() - a.makespan).abs() < 1e-12);
        }
        let cp = &a.critical_path;
        assert_eq!(cp.end_rank, 0); // tie on adjusted end -> lowest rank
        assert_eq!(cp.rank_switches, 1); // jump to rank 2's arrival
        assert!((cp.compute - 3.0).abs() < 1e-12);
        assert!((cp.comm - 0.1).abs() < 1e-12);
    }

    #[test]
    fn steps_and_phases_attribute_comm() {
        let c0 = Clock::new();
        let r0 = Recorder::new(0, c0.clone());
        let c1 = Clock::new();
        let r1 = Recorder::new(1, c1.clone());
        for step in 0..2i64 {
            {
                let _s = r1.span_arg("step", step);
                {
                    let _p = r1.span("lagrangian", Category::HydroKernel);
                    c1.advance(Category::HydroKernel, 1.0);
                    r1.edge_send(0, 3, step as u64, 64);
                }
                c1.advance(Category::Timestep, 0.05);
                r1.edge_collective("allreduce-min", step as u64, 8, 0.05);
            }
            {
                let _s = r0.span_arg("step", step);
                {
                    let _p = r0.span_arg("fill-start", 1);
                    c0.advance(Category::HaloExchange, 0.2);
                    r0.edge_recv(1, 3, step as u64, 64, 0.2);
                }
                c0.advance(Category::Timestep, 0.05);
                r0.edge_collective("allreduce-min", step as u64, 8, 0.05);
            }
        }
        let a = analyze(&[r0, r1]).unwrap();
        assert_eq!(a.steps.len(), 2);
        for s in &a.steps {
            for (_, b) in &s.ranks {
                let err = (b.total() - s.window).abs() / s.window.max(1e-12);
                assert!(err < 0.01, "step {} rank buckets off by {err}", s.step);
            }
        }
        assert!(a.phases.contains_key("fill-start"));
        assert!(a.phases.contains_key("step")); // collectives outside phase spans
        assert!(a.phases["fill-start"].late_sender_wait > 0.0);
        assert_eq!(a.levels[&1].events, 2); // one recv per step at level 1
        assert_eq!(a.edges_matched, 2);
    }

    #[test]
    fn analysis_and_report_are_deterministic() {
        let build = || {
            let mk = |rank: usize, work: f64| {
                let c = Clock::new();
                let r = Recorder::new(rank, c.clone());
                let _s = r.span_arg("step", 0);
                c.advance(Category::HydroKernel, work);
                c.advance(Category::Timestep, 0.01);
                r.edge_collective("allreduce-min", 0, 8, 0.01);
                drop(_s);
                r
            };
            vec![mk(0, 0.5), mk(1, 0.25), mk(2, 0.75), mk(3, 1.0)]
        };
        let a = report_text(&analyze(&build()).unwrap());
        let b = report_text(&analyze(&build()).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("causal attribution: 4 ranks"));
    }

    #[test]
    fn unmatched_recv_is_an_error() {
        let c = Clock::new();
        let r = Recorder::new(0, c.clone());
        c.advance(Category::HaloExchange, 0.1);
        r.edge_recv(1, 9, 0, 64, 0.1);
        let err = analyze(&[r]).unwrap_err();
        assert_eq!(err, CausalError::UnmatchedRecv { rank: 0, src: 1, tag: 9, occurrence: 0 });
    }

    #[test]
    fn empty_input_yields_empty_analysis() {
        let a = analyze(&[Recorder::disabled()]).unwrap();
        assert_eq!(a.nranks, 0);
        assert_eq!(a.makespan, 0.0);
    }
}
