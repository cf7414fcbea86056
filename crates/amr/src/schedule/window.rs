//! Executing fills: the stages of one or more [`RefineSchedule`]s run
//! as one [`FillWindow`], and the stage helpers the
//! [`CoarsenSchedule`](super::CoarsenSchedule) shares.

use super::*;
use crate::boundary::BoundaryFill;
use crate::patchdata::PatchData;
use crate::transfer::{OpGroup, PeerSlot, STREAM_VALUE_BYTES};
use bytes::Bytes;
use std::borrow::Borrow;

/// The rank's clock: the one the registry's data charges, else the
/// communicator's.
pub(crate) fn rank_clock<'a>(
    registry: &'a VariableRegistry,
    comm: Option<&'a Comm>,
) -> Option<&'a Clock> {
    registry.factory().clock().or(comm.map(Comm::clock))
}

/// Count a fill and open its span, when telemetry is on.
pub(super) fn fill_span(
    hierarchy: &PatchHierarchy,
    name: &'static str,
    level_no: usize,
) -> Option<rbamr_telemetry::SpanGuard> {
    let rec = hierarchy.recorder();
    rec.is_enabled().then(|| {
        rec.count("amr.refine_fills", 1);
        rec.span_arg(name, level_no as i64)
    })
}

/// The ghost fills of several levels, coarse to fine, executed as one:
/// every stage runs once for all members — one call per batch entry
/// point of the [`DataFactory`] (the local copies, the coarse captures
/// and the outgoing packs share one, every operator and ratio's
/// interpolation jobs another) and one [`PhysicalBoundary::fill_many`]
/// — and each peer gets one message, the members' streams to it
/// concatenated in member order, under the first member's tag.
/// [`RefineSchedule::try_fill`] is the window of one schedule.
///
/// The members are shared, not copied: the window keeps each (by `Arc`
/// when it is kept itself) with the base of its scratch arrays in the
/// window's and the slot of each of its peers in the window's messages.
/// Both ends of a message compose it from the same members' plans, so
/// they agree on its layout as the members' own streams do.
///
/// Running the members together is bitwise-equivalent to running them
/// one after another: a member reads coarse data-box interiors and its
/// own level's sources — never a ghost value another member writes —
/// and writes only its own level's ghosts and its own scratch.
pub struct FillWindow<S = Arc<RefineSchedule>> {
    members: Vec<Member<S>>,
    send_peers: Vec<PeerStream>,
    recv_peers: Vec<PeerStream>,
    tag: u64,
}

/// A window's member: the schedule and where its scratch arrays and
/// streams land in the window's.
struct Member<S> {
    sched: S,
    scratch: u32,
    sends: Vec<PeerSlot>,
    recvs: Vec<PeerSlot>,
}

impl FillWindow {
    /// Whether the window's members are `members` themselves, in order
    /// — then it need not be composed again.
    pub fn members_are(&self, members: &[Arc<RefineSchedule>]) -> bool {
        self.members.len() == members.len()
            && self.members.iter().zip(members).all(|(m, s)| Arc::ptr_eq(&m.sched, s))
    }

    /// The `i`-th member, coarse to fine.
    pub fn member(&self, i: usize) -> Option<&Arc<RefineSchedule>> {
        self.members.get(i).map(|m| &m.sched)
    }
}

impl<S: Borrow<RefineSchedule>> FillWindow<S> {
    /// The window over `members`, coarse to fine.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(members: Vec<S>) -> Self {
        let tag = members.first().expect("a fill window has a member").borrow().tag;
        let scheds = || members.iter().map(Borrow::borrow);
        let (send_peers, sends) = seat_peers(scheds().map(|s: &RefineSchedule| &s.send_peers[..]));
        let (recv_peers, recvs) = seat_peers(scheds().map(|s: &RefineSchedule| &s.recv_peers[..]));
        let mut scratch = 0;
        let members = members.into_iter().zip(sends.into_iter().zip(recvs));
        let members = members.map(|(sched, (sends, recvs))| {
            let base = narrow(scratch);
            scratch += sched.borrow().scratch.len();
            Member { sched, scratch: base, sends, recvs }
        });
        Self { members: members.collect(), send_peers, recv_peers, tag }
    }

    /// The member schedules, coarse to fine.
    pub fn members(&self) -> impl Iterator<Item = &RefineSchedule> {
        self.members.iter().map(|m| m.sched.borrow())
    }

    /// Whether some member receives a message on this rank — whether
    /// [`PendingFill::finish`] can wait on a peer at all.
    pub fn receives_remotely(&self) -> bool {
        !self.recv_peers.is_empty()
    }

    /// Start the fill and return without consuming any incoming
    /// message: local copies run, outgoing messages are packed and
    /// sent, and interpolation scratch is made with its *local* coarse
    /// sources captured. The caller may then run independent work —
    /// e.g. interior-region compute — while peer messages are in
    /// flight, and complete the fill with [`PendingFill::finish`].
    ///
    /// Splitting is bitwise-equivalent to running the fill at once:
    /// every value this half reads (same-level source regions, coarse
    /// data boxes) is untouched between the two halves because the
    /// finish half writes only ghost regions, and message
    /// packing/slicing order is unchanged.
    pub fn begin(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        comm: Option<&Comm>,
    ) -> PendingFill<'_, S> {
        let level_no = self.members[0].sched.borrow().level_no;
        let _span = fill_span(hierarchy, "refine-fill-start", level_no);
        self.begin_with(hierarchy, None, registry, comm)
    }

    /// One stage's parts: each member's `jobs`, its peers' slots given
    /// by `peers`.
    fn parts<'a, J>(
        &'a self,
        jobs: impl Fn(&'a RefineSchedule) -> &'a [J],
        peers: impl Fn(&'a Member<S>) -> Option<&'a [PeerSlot]>,
    ) -> Vec<Part<'a, J>> {
        let part = |m: &'a Member<S>| Part {
            jobs: jobs(m.sched.borrow()),
            scratch: m.scratch,
            peers: peers(m),
        };
        self.members.iter().map(part).collect()
    }

    /// The send half of the fill: scratch creation, then stage 1 (the
    /// local copies, the local coarse captures and the outgoing packs,
    /// one send stage) and the sends. `outgoing` is the level
    /// [`Loc::Outgoing`] sources name — set by a regrid's solution
    /// transfer only, and read by this half only.
    pub(super) fn begin_with(
        &self,
        hierarchy: &mut PatchHierarchy,
        outgoing: Option<&mut PatchLevel>,
        registry: &VariableRegistry,
        comm: Option<&Comm>,
    ) -> PendingFill<'_, S> {
        let factory = Arc::clone(registry.factory());

        // 1. Interpolation scratch, then one send stage: the same-level
        //    local copies, the scratch's *local* coarse sources, and the
        //    outgoing messages. The captures read coarse data-box
        //    interiors — never ghost regions — so nothing the finish
        //    half (or any interior-only compute run between the halves)
        //    writes can change them; capture-at-begin is
        //    bitwise-identical to capture-at-finish. No copy writes a
        //    value a pack reads, so the stage's order is free.
        let mut scratches = make_scratch(registry, self.members().flat_map(|s| &s.scratch));
        let mut ctx = TransferCtx { hierarchy, scratch: &mut scratches, outgoing };
        let mut copies = self.parts(|s| &s.copies, |_| None);
        copies.extend(self.parts(|s| &s.captures, |_| None));
        let sends = self.parts(|s| &s.sends, |m| Some(&m.sends));
        let streams = factory.send_many(&mut ctx, &copies, &sends, &self.send_peers);

        // 2. All traffic for one destination rank is aggregated into a
        //    single message (SAMRAI's per-processor MessageStream): plan
        //    construction order is identical on every rank — it is
        //    derived from the globally replicated level metadata — so
        //    sender packing order and receiver slicing order agree by
        //    construction.
        for (peer, stream) in self.send_peers.iter().zip(streams) {
            let comm = comm.expect("RefineSchedule: remote plans need a Comm");
            comm.send(peer.rank, self.tag, stream);
        }
        PendingFill { window: self, factory, scratches }
    }
}

/// The window's peer table over the members' (each in ascending rank
/// order), and per member the slot of each of its peers: ascending rank,
/// each peer's message the members' streams in member order.
fn seat_peers<'m>(
    members: impl Iterator<Item = &'m [PeerStream]> + Clone,
) -> (Vec<PeerStream>, Vec<Vec<PeerSlot>>) {
    let mut window: Vec<_> =
        members.clone().flatten().map(|p| PeerStream { bytes: 0, ..*p }).collect();
    window.sort_unstable_by_key(|p| p.rank);
    window.dedup_by_key(|p| p.rank);
    let mut seat = |p: &PeerStream| {
        let at = window.binary_search_by_key(&p.rank, |w| w.rank).expect("a member's peer");
        let first = narrow(window[at].bytes / STREAM_VALUE_BYTES);
        window[at].bytes += p.bytes;
        PeerSlot { peer: narrow(at), first }
    };
    let slots = members.map(|peers| peers.iter().map(&mut seat).collect()).collect();
    (window, slots)
}

/// One scratch array per `(variable, cell box)`.
/// Scratch has no ghosts: its data box is all the jobs write and read
/// (see [`Planner::interpolate`](super::Planner::interpolate)) and what
/// the plan validated against.
pub(super) fn make_scratch<'a>(
    registry: &VariableRegistry,
    specs: impl IntoIterator<Item = &'a (VariableId, GBox)>,
) -> Vec<Box<dyn PatchData>> {
    let factory = registry.factory();
    specs
        .into_iter()
        .map(|&(var, cell_box)| {
            let centring = registry.get(var).centring;
            factory.make(centring, IntVector::ZERO, cell_box)
        })
        .collect()
}

/// Receive every message of the stage, then unpack them all in one
/// [`DataFactory::unpack_many`] call. A peer is received when its first
/// job comes up in job order. A faulty stream (dropped/corrupt frame) is
/// noted and handed over as `None`, so its jobs are skipped — the frame
/// was consumed, so later messages still line up. Returns the first
/// fault met.
pub(super) fn receive_and_unpack(
    factory: &dyn DataFactory,
    ctx: &mut TransferCtx<'_>,
    parts: &[Part<'_, StreamJob>],
    peers: &[PeerStream],
    comm: Option<&Comm>,
    tag: u64,
) -> Option<CommError> {
    if peers.is_empty() {
        return None;
    }
    let comm = comm.expect("schedule: remote plans need a Comm");
    let mut first_err: Option<CommError> = None;
    let mut incoming: Vec<Option<Option<Bytes>>> = vec![None; peers.len()];
    for (part, job) in Part::each(parts) {
        let peer = part.slot(job).0;
        incoming[peer].get_or_insert_with(|| match comm.try_recv(peers[peer].rank, tag) {
            Ok(msg) => Some(msg),
            Err(e) => {
                first_err.get_or_insert(e);
                None
            }
        });
    }
    let msgs: Vec<Option<Bytes>> = incoming.into_iter().map(Option::flatten).collect();
    factory.unpack_many(ctx, parts, &msgs);
    first_err
}

/// An in-flight fill started by [`FillWindow::begin`]: local copies are
/// done, outgoing messages are posted, and interpolation scratch holds
/// the captured local coarse sources. Dropping a `PendingFill` without
/// calling [`PendingFill::finish`] leaves peers blocked on unconsumed
/// messages — always finish, even on error paths.
pub struct PendingFill<'a, S = Arc<RefineSchedule>> {
    window: &'a FillWindow<S>,
    factory: Arc<dyn DataFactory>,
    scratches: Vec<Box<dyn PatchData>>,
}

impl<S: Borrow<RefineSchedule>> PendingFill<'_, S> {
    /// Complete the fill: consume incoming messages, interpolate
    /// coarse-fine ghosts, apply physical boundaries, and stamp times.
    /// Only ghost regions are written. A message fault is reported
    /// after the whole communication pattern has executed, exactly as
    /// [`RefineSchedule::try_fill`] does.
    pub fn finish(
        mut self,
        hierarchy: &mut PatchHierarchy,
        physical: &dyn PhysicalBoundary,
        comm: Option<&Comm>,
        time: f64,
    ) -> Result<(), CommError> {
        let _span = hierarchy.recorder().is_enabled().then(|| {
            let level_no = self.window.members[0].sched.borrow().level_no as i64;
            hierarchy.recorder().span_arg("refine-fill-finish", level_no)
        });
        let transferred = self.receive_and_interpolate(hierarchy, comm);

        // 5. Physical boundaries of every member, after every member's
        //    interpolation (so corners overwrite interpolant values
        //    with the true boundary condition); 6. time stamps.
        let members = || self.window.members().filter(|s| !s.physical.is_empty());
        let mut kept: Vec<_> =
            members().map(|s| s.boundary_kept.lock().expect("a boundary fill panicked")).collect();
        let mut fills: Vec<_> = members()
            .zip(&mut kept)
            .map(|(s, kept)| BoundaryFill {
                level: s.level_no,
                domain_box: hierarchy.level(s.level_no).domain().bounding(),
                plans: &s.physical,
                kept,
            })
            .collect();
        physical.fill_many(hierarchy, &mut fills, time);
        for sched in self.window.members() {
            sched.stamp(hierarchy.level_mut(sched.level_no), time);
        }
        transferred
    }

    /// Stages 3 (recv + unpack, remote coarse sources included) and 4
    /// (scratch extension + interpolation): everything the fill still
    /// has to move. Reports the first message fault.
    pub(super) fn receive_and_interpolate(
        &mut self,
        hierarchy: &mut PatchHierarchy,
        comm: Option<&Comm>,
    ) -> Result<(), CommError> {
        let (w, factory) = (self.window, self.factory.as_ref());
        let mut ctx = TransferCtx { hierarchy, scratch: &mut self.scratches, outgoing: None };

        // 3. Incoming messages: same-level ghosts and the remote
        //    coarse sources of the interpolation scratch.
        let parts = w.parts(|s| &s.recvs, |m| Some(&m.recvs));
        let received = receive_and_unpack(factory, &mut ctx, &parts, &w.recv_peers, comm, w.tag);

        // 4. Coarse-fine interpolation through the captured scratch:
        //    one call for every member, its jobs grouped by operator and
        //    ratio in order of first use. (After a faulty stream the
        //    scratch holds stale values; the step rolls back anyway.)
        let covered: Vec<&[BoxList]> = w.members().map(|s| &s.covered[..]).collect();
        factory.extend_many(ctx.scratch, &covered);
        let mut groups: Vec<OpGroup<'_, dyn RefineOperator, RefineJob>> = Vec::new();
        for (m, sched) in w.members.iter().zip(w.members()) {
            let ratio = ctx.hierarchy.ratio_to_coarser(sched.level_no);
            for (op, jobs) in &sched.refines {
                let part = Part { jobs, scratch: m.scratch, peers: None };
                match groups.iter_mut().find(|g| g.op.name() == op.name() && g.ratio == ratio) {
                    Some(group) => group.parts.push(part),
                    None => groups.push(OpGroup { op: op.as_ref(), ratio, parts: vec![part] }),
                }
            }
        }
        factory.refine_many(&mut ctx, &groups);
        received.map_or(Ok(()), Err)
    }
}
