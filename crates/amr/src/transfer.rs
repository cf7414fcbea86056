//! Transfer jobs: the data movement of a schedule stage, as data.
//!
//! A schedule resolves every plan once, at build time, into a *job*: a
//! plain record naming its arrays by [`Loc`] (a local patch position,
//! an entry of the stage's scratch array, or — as a source, while a
//! regrid transfers the solution — a patch of the level being
//! replaced), its box list, and — for message traffic — its byte range
//! in the peer's aggregated stream.
//! Executing a stage is then one call handing the job lists of every
//! schedule executed together — a fill window's members, each a
//! [`Part`] — to the placement: the [`DataFactory`](crate::DataFactory)
//! batch entry points (`send_many`, `unpack_many`, `extend_many`,
//! `refine_many`, `coarsen_many`). The host factory loops the per-item
//! [`PatchData`] methods in job order and charges a send or unpack
//! stage as one loop nest; a device factory runs each call as one fused
//! launch, driven by the same job lists.
//!
//! Jobs carry positions, not references, so they hold no borrows of
//! the hierarchy; a [`TransferCtx`] resolves them when they run. They
//! are kept with the schedules in use, many thousands at a time, so
//! their index fields are 32 bits wide.

use crate::hierarchy::PatchHierarchy;
use crate::level::PatchLevel;
use crate::patch::Patch;
use crate::patchdata::{Element, PatchData};
use crate::variable::VariableId;
use rbamr_geometry::{BoxList, BoxOverlap, IntVector};
use std::ops::Range;

/// Bytes per value in a message stream: simulation variables are `f64`.
pub const STREAM_VALUE_BYTES: usize = <f64 as Element>::BYTES;

/// Narrow an index for storage in a job.
///
/// # Panics
/// Panics if it does not fit 32 bits.
pub fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("transfer job index exceeds 32 bits")
}

/// Where one end of a transfer job lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// A locally owned patch: its level and its position in
    /// [`PatchLevel::local`](crate::PatchLevel::local).
    Patch {
        /// Level number.
        level: u16,
        /// Position in the level's local patch array.
        pos: u32,
    },
    /// An entry of the stage's scratch array.
    Scratch(u32),
    /// A local patch of the level a regrid is replacing, by position in
    /// [`TransferCtx::outgoing`]'s local array. Only ever read: the
    /// source of a copy or of a pack.
    Outgoing(u32),
}

impl Loc {
    /// The local patch at position `pos` of level `level`.
    pub fn patch(level: usize, pos: usize) -> Self {
        let level = u16::try_from(level).expect("level number exceeds 16 bits");
        Self::Patch { level, pos: narrow(pos) }
    }

    /// Scratch array `i`.
    pub fn scratch(i: usize) -> Self {
        Self::Scratch(narrow(i))
    }
}

/// The arrays one schedule stage may touch: the hierarchy's local
/// patches, the stage's scratch data and, during a regrid's solution
/// transfer, the level the hierarchy no longer holds.
pub struct TransferCtx<'a> {
    /// The hierarchy whose local patches the jobs name.
    pub hierarchy: &'a mut PatchHierarchy,
    /// The stage's scratch arrays (interpolation or projection scratch).
    pub scratch: &'a mut [Box<dyn PatchData>],
    /// The level [`Loc::Outgoing`] names: the one a regrid has just
    /// replaced in `hierarchy`. `None` outside a solution transfer.
    pub outgoing: Option<&'a mut PatchLevel>,
}

impl TransferCtx<'_> {
    /// The data of `var` at `loc`.
    pub fn data_mut(&mut self, loc: Loc, var: VariableId) -> &mut dyn PatchData {
        match loc {
            Loc::Patch { level, pos } => {
                let locals = self.hierarchy.level_mut(level.into()).local_mut();
                locals[pos as usize].data_mut(var)
            }
            Loc::Scratch(i) => self.scratch[i as usize].as_mut(),
            Loc::Outgoing(pos) => {
                let old = self.outgoing.as_deref_mut().expect("no outgoing level is set");
                old.local_mut()[pos as usize].data_mut(var)
            }
        }
    }

    /// Destination (mutable) and source of one job at once.
    ///
    /// # Panics
    /// Panics if both ends are the same patch, are patches of different
    /// levels, or are both scratch — inter-level movement always goes
    /// through scratch, so no schedule plans such a pair — or if the
    /// outgoing level is anything but the source of a patch.
    pub fn pair(
        &mut self,
        dst: Loc,
        src: Loc,
        var: VariableId,
    ) -> (&mut dyn PatchData, &dyn PatchData) {
        match (dst, src) {
            (Loc::Patch { level, pos: d }, Loc::Patch { level: src_level, pos: s }) => {
                assert_eq!(level, src_level, "transfer pair spans two levels");
                let locals = self.hierarchy.level_mut(level.into()).local_mut();
                let (src, dst) = split_two(locals, s as usize, d as usize);
                (dst.data_mut(var), src.data(var))
            }
            (Loc::Patch { level, pos }, Loc::Scratch(i)) => {
                let locals = self.hierarchy.level_mut(level.into()).local_mut();
                (locals[pos as usize].data_mut(var), self.scratch[i as usize].as_ref())
            }
            (Loc::Scratch(i), Loc::Patch { level, pos }) => {
                let locals = self.hierarchy.level(level.into()).local();
                (self.scratch[i as usize].as_mut(), locals[pos as usize].data(var))
            }
            (Loc::Patch { level, pos }, Loc::Outgoing(s)) => {
                let old = self.outgoing.as_deref().expect("no outgoing level is set");
                let locals = self.hierarchy.level_mut(level.into()).local_mut();
                (locals[pos as usize].data_mut(var), old.local()[s as usize].data(var))
            }
            (Loc::Scratch(_), Loc::Scratch(_)) => {
                panic!("transfer pair between two scratch arrays")
            }
            (Loc::Outgoing(_), _) | (Loc::Scratch(_), Loc::Outgoing(_)) => {
                panic!("the outgoing level is only the source of a patch")
            }
        }
    }
}

/// Disjoint shared + mutable access to two local patches.
fn split_two(patches: &mut [Patch], src: usize, dst: usize) -> (&Patch, &mut Patch) {
    assert_ne!(src, dst, "split_two: same patch");
    if src < dst {
        let (a, b) = patches.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = patches.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

/// One overlap copied between two local arrays.
#[derive(Debug)]
pub struct CopyJob {
    /// The variable moved.
    pub var: VariableId,
    /// The array read.
    pub src: Loc,
    /// The array written.
    pub dst: Loc,
    /// Region to fill, in the destination's index space.
    pub overlap: BoxOverlap,
    /// Global index of the source patch (plan digests only).
    pub src_idx: u32,
    /// Global index of the destination patch (plan digests only).
    pub dst_idx: u32,
}

/// One overlap packed into, or unpacked from, a peer's aggregated
/// message.
#[derive(Debug)]
pub struct StreamJob {
    /// The variable moved.
    pub var: VariableId,
    /// The local array: the source of a pack, the target of an unpack.
    pub loc: Loc,
    /// Region moved, in the destination's index space.
    pub overlap: BoxOverlap,
    /// Index of the peer in the stage's [`PeerStream`] table.
    pub peer: u32,
    /// First value of this overlap in the peer's message.
    pub first: u32,
    /// Global index of the source patch (plan digests only).
    pub src_idx: u32,
    /// Global index of the destination patch (plan digests only).
    pub dst_idx: u32,
}

/// Where a schedule's peer lands in a stage that runs several: the
/// stage's peer slot, and the first value of the schedule's stream in
/// that peer's message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerSlot {
    /// Index in the stage's [`PeerStream`] table.
    pub peer: u32,
    /// First value of the schedule's stream in the stage's message.
    pub first: u32,
}

/// One schedule's job list within a stage that runs several: its
/// scratch arrays start at `scratch` in the stage's scratch array, and
/// its peer `p`'s stream at `peers[p]` (`None`: the schedule runs
/// alone, so its own numbering is the stage's).
pub struct Part<'a, J> {
    /// The schedule's jobs of this stage.
    pub jobs: &'a [J],
    /// First stage scratch array of the schedule.
    pub scratch: u32,
    /// Per peer of the schedule, its slot in the stage's messages.
    pub peers: Option<&'a [PeerSlot]>,
}

impl<'a, J> Part<'a, J> {
    /// The jobs of a schedule that runs alone.
    pub fn whole(jobs: &'a [J]) -> Self {
        Self { jobs, scratch: 0, peers: None }
    }

    /// Every job of `parts`, in order, with its part.
    pub fn each<'p>(parts: &'p [Self]) -> impl Iterator<Item = (&'p Self, &'a J)> {
        parts.iter().flat_map(|part| part.jobs.iter().map(move |job| (part, job)))
    }

    /// `loc`, with a scratch index moved to the stage's numbering.
    pub fn at(&self, loc: Loc) -> Loc {
        match loc {
            Loc::Scratch(i) => Loc::Scratch(i + self.scratch),
            loc => loc,
        }
    }
}

impl Part<'_, StreamJob> {
    /// The stage's peer slot of `job` and the job's byte range within
    /// that peer's message.
    pub fn slot(&self, job: &StreamJob) -> (usize, Range<usize>) {
        let at = self.peers.map_or(PeerSlot { peer: job.peer, first: 0 }, |p| p[job.peer as usize]);
        let first = (at.first + job.first) as usize * STREAM_VALUE_BYTES;
        (at.peer as usize, first..first + job.overlap.num_values() as usize * STREAM_VALUE_BYTES)
    }
}

/// One peer of a stage: the rank and the exact size of its message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerStream {
    /// The peer's rank.
    pub rank: usize,
    /// Total bytes of the aggregated message, the sum over its jobs.
    pub bytes: usize,
}

/// Appends stream jobs in plan order, assigning each its peer slot and
/// byte offset.
#[derive(Default)]
pub(crate) struct StreamPlan {
    pub(crate) jobs: Vec<StreamJob>,
    pub(crate) peers: Vec<PeerStream>,
}

impl StreamPlan {
    pub(crate) fn push(
        &mut self,
        rank: usize,
        var: VariableId,
        loc: Loc,
        overlap: BoxOverlap,
        (src_idx, dst_idx): (usize, usize),
    ) {
        let peer = self.peers.iter().position(|p| p.rank == rank).unwrap_or_else(|| {
            self.peers.push(PeerStream { rank, bytes: 0 });
            self.peers.len() - 1
        });
        let first = narrow(self.peers[peer].bytes / STREAM_VALUE_BYTES);
        self.peers[peer].bytes += overlap.num_values() as usize * STREAM_VALUE_BYTES;
        let (peer, src_idx, dst_idx) = (narrow(peer), narrow(src_idx), narrow(dst_idx));
        self.jobs.push(StreamJob { var, loc, overlap, peer, first, src_idx, dst_idx });
    }

    /// The finished job list and peer table, peers in ascending rank
    /// order — the order a stage posts its sends in.
    pub(crate) fn finish(mut self) -> (Vec<StreamJob>, Vec<PeerStream>) {
        let mut order: Vec<usize> = (0..self.peers.len()).collect();
        order.sort_unstable_by_key(|&p| self.peers[p].rank);
        let mut slot = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            slot[old] = narrow(new);
        }
        for job in &mut self.jobs {
            job.peer = slot[job.peer as usize];
        }
        (self.jobs, order.iter().map(|&p| self.peers[p]).collect())
    }
}

/// One coarse→fine interpolation: scratch `scratch` refined into
/// `fill` of a local fine patch.
#[derive(Debug)]
pub struct RefineJob {
    /// The variable interpolated.
    pub var: VariableId,
    /// Level of the fine patch.
    pub level: u16,
    /// Position of the fine patch in its level's local array.
    pub pos: u32,
    /// Index of the coarse scratch array.
    pub scratch: u32,
    /// Fine data-space region to fill.
    pub fill: BoxList,
    /// Global index of the fine patch (plan digests only).
    pub dst_idx: u32,
}

/// The jobs of an interpolation stage that share one operator `op` and
/// one ratio: one schedule's per operator, or every member's of a
/// window. A stage hands all its groups to one call, in order.
pub struct OpGroup<'a, O: ?Sized, J> {
    /// The operator.
    pub op: &'a O,
    /// How much finer the fine level is than the coarse one.
    pub ratio: IntVector,
    /// The jobs, one part per schedule.
    pub parts: Vec<Part<'a, J>>,
}

impl<'a, O: ?Sized, J> OpGroup<'a, O, J> {
    /// Every job of every group, in order, with its operator, ratio and
    /// part.
    pub fn each<'g>(
        groups: &'g [Self],
    ) -> impl Iterator<Item = (&'a O, IntVector, &'g Part<'a, J>, &'a J)> {
        groups
            .iter()
            .flat_map(|g| Part::each(&g.parts).map(|(part, job)| (g.op, g.ratio, part, job)))
    }
}

/// One fine→coarse projection: a local fine patch projected into
/// `fill` of scratch `scratch`.
#[derive(Debug)]
pub struct CoarsenJob {
    /// The variable projected.
    pub var: VariableId,
    /// Auxiliary fine variables the operator reads, in its order.
    pub aux: Vec<VariableId>,
    /// Position of the fine patch in its level's local array.
    pub pos: u32,
    /// Index of the coarse scratch array.
    pub scratch: u32,
    /// Coarse data-space region to fill.
    pub fill: BoxList,
    /// Global index of the fine patch (plan digests only).
    pub src_idx: u32,
}

/// Where a [`DescriptorTable`](crate::schedule::DescriptorTable)
/// renders its packed words — what a fused kernel indexes instead of
/// receiving per-job arguments; the simulated kernels walk the host job
/// lists, which hold the same numbers. Without an output it only counts.
pub struct DescriptorWords<'a> {
    pub(crate) out: Option<&'a mut [i32]>,
    pub(crate) len: usize,
}

impl DescriptorWords<'_> {
    /// Append one word; panics if `v` does not fit in 32 bits.
    pub(crate) fn word(&mut self, v: impl TryInto<i32>) {
        let v = v.try_into().unwrap_or_else(|_| panic!("descriptor word exceeds 32 bits"));
        if let Some(out) = self.out.as_deref_mut() {
            out[self.len] = v;
        }
        self.len += 1;
    }

    /// Append a 64-bit value as two words, low half first.
    pub fn wide(&mut self, v: i64) {
        self.word(v as i32);
        self.word((v >> 32) as i32);
    }

    fn loc(&mut self, loc: Loc) {
        match loc {
            Loc::Patch { level, pos } => {
                self.word(level);
                self.word(pos);
            }
            Loc::Scratch(i) => {
                self.word(-1);
                self.word(i);
            }
            Loc::Outgoing(pos) => {
                self.word(-2);
                self.word(pos);
            }
        }
    }

    fn boxes(&mut self, boxes: &BoxList) {
        self.word(boxes.len());
        for b in boxes.boxes() {
            for v in [b.lo.x, b.lo.y, b.hi.x, b.hi.y] {
                self.word(v);
            }
        }
    }

    fn overlap(&mut self, ov: &BoxOverlap) {
        self.word(ov.shift.x);
        self.word(ov.shift.y);
        self.boxes(&ov.dst_boxes);
    }

    pub(crate) fn copies(&mut self, jobs: &[CopyJob]) {
        for j in jobs {
            self.word(j.var.0);
            self.loc(j.src);
            self.loc(j.dst);
            self.overlap(&j.overlap);
        }
    }

    pub(crate) fn streams(&mut self, jobs: &[StreamJob]) {
        for j in jobs {
            self.word(j.var.0);
            self.loc(j.loc);
            self.word(j.peer);
            self.word(j.first);
            self.overlap(&j.overlap);
        }
    }

    pub(crate) fn extends(&mut self, covered: &[BoxList]) {
        for boxes in covered {
            self.boxes(boxes);
        }
    }

    pub(crate) fn refines(&mut self, jobs: &[RefineJob]) {
        for j in jobs {
            self.word(j.var.0);
            self.word(j.pos);
            self.word(j.scratch);
            self.boxes(&j.fill);
        }
    }

    pub(crate) fn coarsens(&mut self, jobs: &[CoarsenJob]) {
        for j in jobs {
            self.word(j.var.0);
            for a in &j.aux {
                self.word(a.0);
            }
            self.word(j.pos);
            self.word(j.scratch);
            self.boxes(&j.fill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::{Centring, GBox, IntVector};

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn stream_plan_prefix_sums_offsets_per_peer() {
        let ov = |bx: GBox| BoxOverlap {
            dst_boxes: BoxList::from_box(bx),
            shift: IntVector::ZERO,
            centring: Centring::Cell,
        };
        let mut plan = StreamPlan::default();
        let loc = Loc::patch(0, 0);
        plan.push(3, VariableId(0), loc, ov(b(0, 0, 2, 2)), (0, 1));
        plan.push(1, VariableId(0), loc, ov(b(0, 0, 1, 3)), (0, 2));
        plan.push(3, VariableId(1), loc, ov(b(0, 0, 4, 1)), (0, 1));
        let (jobs, peers) = plan.finish();
        assert_eq!(
            peers,
            vec![PeerStream { rank: 1, bytes: 24 }, PeerStream { rank: 3, bytes: 64 }]
        );
        let at: Vec<_> = jobs.iter().map(|j| Part::whole(&jobs).slot(j)).collect();
        assert_eq!(at, vec![(1, 0..32), (0, 0..24), (1, 32..64)]);
    }
}
