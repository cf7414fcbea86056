//! Communication schedules: ghost filling and level synchronisation.
//!
//! A [`RefineSchedule`] fills the ghost regions of every patch on one
//! level using the paper's three boundary-fill paths (Section II):
//! data from a neighbouring patch on the same level (copy locally, or
//! pack → message → unpack across ranks), interpolated data from the
//! next coarser level (through a coarse *scratch* region gathered to the
//! fine patch's rank, then refined with a [`RefineOperator`]), and the
//! physical boundary conditions (delegated to the application's
//! [`PhysicalBoundary`]).
//!
//! A [`CoarsenSchedule`] implements the solution synchronisation: "the
//! coarse cell value is replaced by a conservative average of the fine
//! cell values that cover the coarse cell". The fine owner coarsens
//! into scratch (where all auxiliary data, e.g. density for
//! mass-weighted coarsening, is local), then the scratch moves to the
//! coarse patch's owner.
//!
//! Each rank builds its schedules from the level metadata it holds and
//! plans only the transfers it owns an end of; both ends of a transfer
//! derive it from the same records, so send and receive plans agree
//! without negotiation. Each execution sends one message per peer,
//! tagged with the schedule kind and level; the fills of every level
//! execute together as one [`FillWindow`], whose message to a peer
//! carries each level's stream in turn.
//!
//! Every plan is resolved at build time into a transfer *job* (see
//! [`crate::transfer`]): local patch positions looked up, copy overlaps
//! validated and message offsets prefix-summed once, so executing a
//! schedule does no box calculus and no searching. Each stage hands its
//! whole job list to the placement through the [`DataFactory`] batch
//! entry points — interpolation and projection included, every
//! operator's jobs in one call; the schedules themselves never ask where
//! the data lives.
//!
//! [`ScheduleBuild`] is the sanctioned build entry point: indexed
//! overlap discovery over the level's records, one build pass for all
//! the schedules a hierarchy needs. Every schedule records the structure
//! digests of the levels it reads, which are their generations
//! ([`PatchLevel::structure_digest`]), so whoever holds one keeps it —
//! [`ScheduleBuild::keep`] — while it is current
//! ([`RefineSchedule::is_current`]): a regrid that reproduces a level
//! (the common case once the hierarchy converges) or a restore rebuilds
//! nothing of it.

use crate::boundary::{PhysicalBoundary, PhysicalPlan};
use crate::hierarchy::PatchHierarchy;
use crate::level::PatchLevel;
use crate::ops::{CoarsenOperator, RefineOperator};
use crate::patchdata::validate_overlap;
use crate::regrid::TransferSpec;
use crate::transfer::{
    narrow, CoarsenJob, CopyJob, DescriptorWords, Loc, OpGroup, Part, PeerStream, RefineJob,
    StreamJob, StreamPlan, TransferCtx,
};
use crate::variable::{DataFactory, Variable, VariableId, VariableRegistry};
use rbamr_geometry::{
    copy_overlap, ghost_overlaps, BoxIndex, BoxList, BoxOverlap, Centring, GBox, IntVector,
};
use rbamr_netsim::{Comm, CommError};
use rbamr_perfmodel::{Category, Clock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

mod window;
pub(crate) use window::rank_clock;
use window::{fill_span, make_scratch, receive_and_unpack};
pub use window::{FillWindow, PendingFill};

/// What to fill for one variable in a refine schedule.
pub struct FillSpec {
    /// The variable to fill.
    pub var: VariableId,
    /// Operator for coarse-fine interpolation; `None` restricts the
    /// fill to same-level copies and physical boundaries (work arrays).
    pub refine_op: Option<Arc<dyn RefineOperator>>,
}

/// What to synchronise for one variable in a coarsen schedule.
pub struct CoarsenSpec {
    /// The variable to coarsen fine → coarse.
    pub var: VariableId,
    /// The projection operator.
    pub op: Arc<dyn CoarsenOperator>,
    /// Auxiliary fine variables the operator reads (e.g. density for
    /// mass weighting), in the order the operator expects.
    pub aux: Vec<VariableId>,
}

impl std::fmt::Debug for FillSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FillSpec")
            .field("var", &self.var)
            .field("refine_op", &self.refine_op.as_ref().map(|op| op.name()))
            .finish()
    }
}

impl std::fmt::Debug for CoarsenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoarsenSpec")
            .field("var", &self.var)
            .field("op", &self.op.name())
            .field("aux", &self.aux)
            .finish()
    }
}

/// What a schedule is planned against: the rank it plans for and the
/// structure digests of the levels it reads — its own, and the coarser
/// one when it interpolates from it or syncs onto it. A level's digest
/// is its generation (see [`PatchLevel::structure_digest`]): the
/// schedule is current exactly while these hold, and then its plans are
/// byte for byte what a fresh build would produce.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Structure {
    rank: usize,
    level: u64,
    coarser: Option<u64>,
}

impl Structure {
    fn of(hierarchy: &PatchHierarchy, level_no: usize, coarse: bool) -> Self {
        Self {
            rank: hierarchy.rank(),
            level: hierarchy.structure_digest(level_no),
            coarser: coarse.then(|| hierarchy.structure_digest(level_no - 1)),
        }
    }

    /// Whether `hierarchy`'s level `level_no` (and its coarser one) is
    /// still what this was planned against.
    fn is_current(&self, hierarchy: &PatchHierarchy, level_no: usize) -> bool {
        level_no < hierarchy.num_levels()
            && *self == Self::of(hierarchy, level_no, self.coarser.is_some())
    }
}

/// The sanctioned schedule-build entry point: Morton [`BoxIndex`]
/// discovery, O(N log N + k), and the hand-over of what is kept.
///
/// ```
/// # use rbamr_amr::{ops::ConservativeCellRefine, schedule::FillSpec, *};
/// # use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
/// # use std::sync::Arc;
/// # let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
/// # let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
/// # let domain = BoxList::from_box(GBox::from_coords(0, 0, 16, 16));
/// # let ratio = IntVector::uniform(2);
/// # let mut h = PatchHierarchy::new(GridGeometry::unit(1.0), domain, ratio, 2, 0, 1);
/// # h.set_level(0, vec![GBox::from_coords(0, 0, 16, 16)], vec![0], &reg);
/// # h.set_level(1, vec![GBox::from_coords(8, 8, 24, 24)], vec![0], &reg);
/// # let specs = [FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }];
/// let sched = ScheduleBuild::indexed().refine(&h, &reg, 1, &specs);
/// // While levels 0 and 1 keep their digests, a later pass keeps it.
/// assert!(sched.is_current(&h));
/// let again = ScheduleBuild::indexed().keep(&h, &sched);
/// assert!(Arc::ptr_eq(&sched, &again));
/// ```
///
/// Discovery runs over the level's replicated records and walks only
/// the destinations this rank may own an end of a transfer into, so
/// each rank plans only the transfers it owns an endpoint of. The
/// all-pairs oracle
/// ([`RefineSchedule::new_bruteforce`]) has no index, walks every
/// destination and never goes through here.
///
/// One value is one build *pass*: each level's index and local
/// positions are made once, and its fill geometry is walked once per
/// class of variables, for every schedule the pass builds; all of it is
/// dropped with the value, except what it handed out, built or kept:
/// the pass's [`PassTables`] ([`ScheduleBuild::into_tables`]).
#[derive(Default)]
pub struct ScheduleBuild {
    memo: PassMemo,
    tables: PassTables,
}

impl ScheduleBuild {
    /// A pass with nothing built yet.
    pub fn indexed() -> Self {
        Self::default()
    }

    /// Build the ghost-fill schedule for `level_no`.
    pub fn refine(
        &mut self,
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        level_no: usize,
        specs: &[FillSpec],
    ) -> Arc<RefineSchedule> {
        let memo = &mut self.memo;
        let built = RefineSchedule::build(hierarchy, registry, level_no, specs, true, memo);
        self.hand_out(Arc::new(built))
    }

    /// Build the synchronisation schedule projecting `fine_level_no`
    /// onto `fine_level_no - 1`.
    ///
    /// # Panics
    /// Panics if `fine_level_no == 0`.
    pub fn coarsen(
        &mut self,
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        fine_level_no: usize,
        specs: &[CoarsenSpec],
    ) -> Arc<CoarsenSchedule> {
        let memo = &mut self.memo;
        let built = CoarsenSchedule::build(hierarchy, registry, fine_level_no, specs, true, memo);
        self.hand_out(Arc::new(built))
    }

    /// Hand `held` — a schedule current on `hierarchy`
    /// ([`RefineSchedule::is_current`], [`CoarsenSchedule::is_current`])
    /// — into the pass in place of a build, counted as `schedule.kept`.
    pub fn keep<S: DescriptorTable + 'static>(
        &mut self,
        hierarchy: &PatchHierarchy,
        held: &Arc<S>,
    ) -> Arc<S> {
        hierarchy.recorder().count("schedule.kept", 1);
        self.hand_out(Arc::clone(held))
    }

    /// Hand `sched` out, its table one of the pass's.
    fn hand_out<S: DescriptorTable + 'static>(&mut self, sched: Arc<S>) -> Arc<S> {
        self.tables.push(Arc::clone(&sched) as _);
        sched
    }

    /// The tables of every schedule the pass handed out, in order.
    pub fn into_tables(self) -> PassTables {
        self.tables
    }
}

/// Shared build-telemetry epilogue of both schedule builds.
fn record_build_telemetry(
    hierarchy: &PatchHierarchy,
    candidate_pairs: u64,
    build_start: std::time::Instant,
) {
    let rec = hierarchy.recorder();
    if rec.is_enabled() {
        rec.count("schedule.builds", 1);
        rec.count("schedule.candidate_pairs", candidate_pairs);
        // Host metadata cost: wall-clock, not the virtual device
        // clock — schedule construction never touches the perfmodel.
        rec.count("schedule.build_ns", build_start.elapsed().as_nanos() as u64);
    }
}

/// Shared digest finaliser: canonical order for plan renderings.
fn sorted_digest(mut lines: Vec<String>) -> Vec<String> {
    lines.sort_unstable();
    lines
}

/// The union of `centring.data_box(b)` over a region's boxes.
fn data_region(cells: &BoxList, centring: Centring) -> BoxList {
    BoxList::from_boxes(cells.boxes().iter().map(|b| centring.data_box(*b)))
}

/// Minimal cell box whose data box covers the data-space box `b`.
fn cell_cover(b: GBox, centring: Centring) -> GBox {
    match centring {
        Centring::Cell => b,
        Centring::Node => GBox::new(b.lo - IntVector::ONE, b.hi),
        Centring::Side(a) => GBox::new(b.lo - IntVector::unit(a), b.hi),
    }
}

/// Aggregated ghost-fill stream (one message per rank pair per fill).
const KIND_AGG_FILL: u64 = 5;
/// Aggregated synchronisation stream (one message per rank pair).
const KIND_AGG_SYNC: u64 = 6;
/// Aggregated regrid solution transfer (one message per rank pair per
/// rebuilt level). Kinds 3 and 4, the per-overlap regrid messages this
/// replaced, stay unused.
const KIND_AGG_REGRID: u64 = 7;

/// Message tag of a schedule's aggregated stream: the kind in the top
/// four bits (so the schedules and the netsim collectives, kind 15,
/// never collide) over the level number. One execution sends at most
/// one message per peer, so the tag needs no finer key.
const fn agg_tag(kind: u64, level_no: usize) -> u64 {
    assert!(kind < 15, "kind 15 is reserved for netsim collectives");
    (kind << 60) | level_no as u64
}

/// A table of descriptor words fused kernels index: every schedule's
/// job lists, and the integrator's batch plan.
pub trait DescriptorTable: Send + Sync {
    /// Render the table's words, in order.
    fn describe(&self, w: &mut DescriptorWords<'_>);
}

/// The descriptor tables one build pass holds, in pass order: a
/// [`ScheduleBuild`]'s schedules, the integrator's batch plan, or a
/// regrid transfer alone. The first fill after the pass makes them
/// resident, in place of the tables held before, with one
/// [`DataFactory::upload_tables`] call; nothing renders them sooner.
#[derive(Default)]
pub struct PassTables(Vec<Arc<dyn DescriptorTable>>);

impl PassTables {
    /// Add `table` after those held, unless it is one of them (two
    /// fills of the same variables share a schedule).
    pub fn push(&mut self, table: Arc<dyn DescriptorTable>) {
        if !self.0.iter().any(|t| std::ptr::addr_eq(Arc::as_ptr(t), Arc::as_ptr(&table))) {
            self.0.push(table);
        }
    }

    /// The tables, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn DescriptorTable>> {
        self.0.iter()
    }

    /// Render every table into `out` (which must hold them all), back
    /// to back, or only count the words without one; returns the count.
    pub fn render(&self, out: Option<&mut [i32]>) -> usize {
        let mut w = DescriptorWords { out, len: 0 };
        self.0.iter().for_each(|t| t.describe(&mut w));
        w.len
    }
}

/// Heap bytes of a list whose items each own `owned(item)` more, by
/// capacity: what the allocator holds, not what is in use.
fn list_bytes<T>(list: &Vec<T>, owned: impl Fn(&T) -> usize) -> usize {
    list.capacity() * std::mem::size_of::<T>() + list.iter().map(owned).sum::<usize>()
}

/// The data box of `var` allocated over `cell_box` — what
/// [`VariableRegistry::make_one`] produces, without making it.
fn data_box_of(var: &Variable, cell_box: GBox) -> GBox {
    var.centring.data_box(cell_box.grow(var.ghosts))
}

/// Ghost-fill schedule for one level (SAMRAI `RefineSchedule`).
///
/// The stages, in execution order, each one job list: interpolation
/// scratch, then the same-level local copies and the scratch's local
/// coarse sources captured; outgoing messages (one per peer, same-level
/// and coarse→fine plans interleaved in plan order); incoming messages
/// (targets are fine patches or scratch arrays); scratch extension;
/// interpolation, grouped by operator; physical boundaries.
pub struct RefineSchedule {
    level_no: usize,
    structure: Structure,
    /// Tag of the one message a peer gets per execution.
    tag: u64,
    vars: Vec<VariableId>,
    copies: Vec<CopyJob>,
    sends: Vec<StreamJob>,
    send_peers: Vec<PeerStream>,
    recvs: Vec<StreamJob>,
    recv_peers: Vec<PeerStream>,
    /// One scratch array per interpolation job: its variable and
    /// coarse cell box.
    scratch: Vec<(VariableId, GBox)>,
    /// Local coarse sources copied into scratch when the fill begins.
    captures: Vec<CopyJob>,
    /// Per scratch array, the region its coarse sources cover (for the
    /// clamped extension of uncovered corners).
    covered: Vec<BoxList>,
    /// Interpolation jobs by operator, operators in order of first use.
    refines: Vec<(Arc<dyn RefineOperator>, Vec<RefineJob>)>,
    physical: Vec<PhysicalPlan>,
    /// What the physical-boundary strategy keeps between fills (see
    /// [`PhysicalBoundary::fill_many`]).
    boundary_kept: Mutex<Option<Box<dyn Any + Send + Sync>>>,
}

impl RefineSchedule {
    /// Build the schedule for level `level_no` of `hierarchy`.
    ///
    /// Coarse-fine interpolation is planned when `level_no > 0` and the
    /// spec has a refine operator. The schedule is valid while it is
    /// current ([`RefineSchedule::is_current`]).
    ///
    /// Source discovery goes through a [`BoxIndex`] (O(log N + k) per
    /// destination), so metadata cost is O(N log N) in the patch count
    /// rather than the all-pairs O(N²).
    ///
    /// Thin wrapper kept for the tests and simple callers; production
    /// code should build through [`ScheduleBuild`], which shares the
    /// level tables and geometry of a pass and makes its tables.
    pub fn new(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        level_no: usize,
        specs: &[FillSpec],
    ) -> Self {
        Self::build(hierarchy, registry, level_no, specs, true, &mut PassMemo::default())
    }

    /// Build the schedule with the all-pairs O(N²) scan the indexed
    /// build replaced: without an index it walks every destination of
    /// the level, not only those this rank may own an end of. Retained
    /// as the test oracle: the proptests assert
    /// [`RefineSchedule::plan_digest`] is identical for both builds on
    /// arbitrary hierarchies.
    pub fn new_bruteforce(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        level_no: usize,
        specs: &[FillSpec],
    ) -> Self {
        Self::build(hierarchy, registry, level_no, specs, false, &mut PassMemo::default())
    }

    fn build(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        level_no: usize,
        specs: &[FillSpec],
        indexed: bool,
        memo: &mut PassMemo,
    ) -> Self {
        let build_start = std::time::Instant::now();
        let rank = hierarchy.rank();
        // Plan against the level's records, in ascending global-index
        // order, so the relative candidate order — and with it the
        // aggregated message stream layout — is identical on every rank
        // that plans a given pair.
        let same = Sources::shared(memo, hierarchy, level_no, indexed);
        let needs_coarse = level_no > 0 && specs.iter().any(|s| s.refine_op.is_some());
        let coarse = needs_coarse.then(|| Sources::shared(memo, hierarchy, level_no - 1, indexed));
        let vars = specs.iter().map(|s| s.var).collect();
        let mut plan =
            Planner::new(hierarchy, registry, (level_no, needs_coarse), KIND_AGG_FILL, vars);
        let structure = plan.sched.structure;

        for spec in specs {
            let var = registry.get(spec.var);
            // Every box of the plan depends on the variable through its
            // class only, so the calculus runs once per class and pass.
            let op = spec.refine_op.as_ref().filter(|_| level_no > 0);
            let class = (var.centring, var.ghosts, op.map(|op| op.stencil_width()));
            let geometry = memo
                .geometry
                .entry((structure, class))
                .or_insert_with(|| plan.geometry(hierarchy, &same, coarse.as_ref(), class));
            for &(dst_pos, ref g) in geometry.iter() {
                let dst_box = same.recs.box_at(dst_pos);
                let dst = (dst_pos, same.recs.owner_at(dst_pos));
                // --- Same-level copies -----------------------------------
                let end = (spec.var, same.loc(dst_pos), data_box_of(var, dst_box));
                plan.stamp(&same, &g.same, dst, &[end]);
                // --- Physical boundary regions (dst local only) ----------
                if !g.outside.is_empty() {
                    let (pos, dst_idx, outside) =
                        (same.table.local[dst_pos], dst.0, g.outside.clone());
                    plan.sched.physical.push(PhysicalPlan { pos, dst_idx, var: spec.var, outside });
                }
                // --- Coarse-fine interpolation ---------------------------
                let (Some(c), Some(op), Some(coarse)) = (&g.coarse, op, &coarse) else { continue };
                // The scratch array this destination interpolates from
                // is ours to make if the destination is.
                let slot = Loc::scratch(plan.next_scratch());
                let end = (spec.var, slot, var.centring.data_box(c.scratch_box));
                plan.stamp(coarse, &c.sources, dst, &[end]);
                if dst.1 == rank {
                    let at = (same.table.local[dst_pos], dst.0);
                    plan.interpolate(op, spec.var, at, (&c.want, c.scratch_box, &c.covered));
                }
            }
        }

        record_build_telemetry(hierarchy, plan.candidate_pairs, build_start);
        plan.finish()
    }

    /// Build the solution transfer of a regrid: the schedule that
    /// initialises the variables of `specs` on level `level_no` — the
    /// new level, already installed with its replicated plan — from
    /// `outgoing`, the level it replaced (copies and messages between
    /// equal indices), and from level `level_no - 1` (captured into
    /// scratch and interpolated) where the old level held nothing.
    ///
    /// The claim rule is the one a serial refine-then-overwrite in
    /// ascending record order obeys — the last source in record order
    /// wins, and old data wins over interpolated data — so candidates
    /// are walked in *descending* order ([`Planner::claim`]) and the
    /// interpolation fills what no old patch claimed, out of the
    /// scratch box the whole data box needs (the extension of uncovered
    /// scratch cells depends on that box). Specs sharing a centring and
    /// a stencil width share every box of the plan: discovery and the
    /// walks run once per (new patch, such group). Built for one
    /// execution ([`RefineSchedule::try_transfer`]), never kept.
    ///
    /// A rank walks only the new records it may own an end of a transfer
    /// into (DESIGN.md §13). Unindexed — the test oracle — it walks every
    /// record with every source a candidate, as
    /// [`RefineSchedule::new_bruteforce`] does, and plans the same.
    ///
    /// # Panics
    /// Panics if `level_no == 0`.
    pub(crate) fn regrid_transfer(
        hierarchy: &PatchHierarchy,
        outgoing: Option<&PatchLevel>,
        registry: &VariableRegistry,
        level_no: usize,
        specs: &[TransferSpec],
        indexed: bool,
    ) -> Self {
        assert!(level_no > 0, "regrid transfer: level 0 is never rebuilt");
        let rank = hierarchy.rank();
        let ratio = hierarchy.ratio_to_coarser(level_no);
        // The new level's index only narrows the walk, so a rank owning
        // the whole level goes without one.
        let new_level = hierarchy.level(level_no);
        let whole = new_level.records().iter().all(|(_, _, owner)| owner == rank);
        let new = Sources::of(new_level, rank, Some(level_no), indexed && !whole);
        let coarse = Sources::of(hierarchy.level(level_no - 1), rank, Some(level_no - 1), indexed);
        let old = outgoing.map(|old| Sources::of(old, rank, None, indexed));
        // Owned, or within a cell of an owned old record's data box or
        // of the widest scratch box an owned coarse record feeds.
        let stencil =
            specs.iter().map(|s| s.refine_op.stencil_width()).fold(IntVector::ZERO, IntVector::max);
        let one = IntVector::ONE;
        let feeds = coarse.owned_boxes().map(|c| c.grow(stencil + one).refine(ratio).grow(one));
        let olds = old.iter().flat_map(|old| old.owned_boxes().map(|b| b.grow(one)));
        let walked = new.reachable(new.owned_boxes().chain(olds).chain(feeds));
        let mut groups: Vec<(Centring, IntVector, Vec<&TransferSpec>)> = Vec::new();
        for spec in specs {
            let key = (registry.get(spec.var).centring, spec.refine_op.stencil_width());
            match groups.iter_mut().find(|g| (g.0, g.1) == key) {
                Some(group) => group.2.push(spec),
                None => groups.push((key.0, key.1, vec![spec])),
            }
        }

        let vars = specs.iter().map(|s| s.var).collect();
        let mut plan = Planner::new(hierarchy, registry, (level_no, true), KIND_AGG_REGRID, vars);
        let mut cand = Vec::new();

        for (npos, &nb) in new.recs.boxes().iter().enumerate().filter(|&(npos, _)| walked[npos]) {
            let dst = (npos, new.recs.owner_at(npos));
            let mine = dst.1 == rank;
            for (centring, stencil, group) in &groups {
                let centring = *centring;
                let fine_fill = centring.data_box(nb);
                // One destination per spec of the group: the new patch,
                // then its scratch array (ours to make when `mine`).
                let ends = |at: &dyn Fn(usize) -> Loc, data_box: &dyn Fn(VariableId) -> GBox| {
                    let end =
                        |(k, spec): (usize, &&TransferSpec)| (spec.var, at(k), data_box(spec.var));
                    group.iter().enumerate().map(end).collect::<Vec<_>>()
                };

                // --- Old level, same index space: copies and messages --
                let mut claimed = BoxList::new();
                if let Some(old) = &old {
                    old.candidates(fine_fill, &mut cand);
                    let ends = ends(&|_| new.loc(npos), &|v| data_box_of(registry.get(v), nb));
                    let overlap = |_, obox| copy_overlap(nb, obox, centring).dst_boxes;
                    let newest_first = cand.iter().rev().copied();
                    let claims =
                        plan.claim(old, newest_first, centring, overlap, &mut claimed, dst.1);
                    plan.stamp(old, &claims, dst, &ends);
                }

                // --- Coarser level: scratch, then interpolation --------
                let scratch_box = cell_cover(fine_fill, centring).coarsen(ratio).grow(*stencil);
                let scratch_data_box = centring.data_box(scratch_box);
                coarse.candidates(scratch_data_box, &mut cand);
                let first = plan.next_scratch();
                let ends = ends(&|k| Loc::scratch(first + k), &|_| scratch_data_box);
                let in_scratch = |_, cbox| scratch_region(scratch_data_box, cbox, centring);
                let mut covered = BoxList::new();
                let newest_first = cand.iter().rev().copied();
                let claims =
                    plan.claim(&coarse, newest_first, centring, in_scratch, &mut covered, dst.1);
                plan.stamp(&coarse, &claims, dst, &ends);
                if mine {
                    let mut fill = BoxList::from_box(fine_fill);
                    fill.subtract(&claimed);
                    fill.coalesce();
                    for spec in group {
                        let (op, at) = (&spec.refine_op, (new.table.local[npos], dst.0));
                        plan.interpolate(op, spec.var, at, (&fill, scratch_box, &covered));
                    }
                }
            }
        }

        // Its own counter, not `schedule.builds`: this is regrid work,
        // and the schedule statistics count the schedules that are kept.
        let rec = hierarchy.recorder();
        if rec.is_enabled() {
            rec.count("regrid.candidate_pairs", plan.candidate_pairs);
        }
        plan.finish()
    }

    /// Canonical rendering of every plan in this schedule, sorted.
    ///
    /// Two schedules with equal digests execute the same copies, sends,
    /// recvs, interpolations and physical fills. The proptests compare
    /// digests of the indexed and brute-force builds.
    pub fn plan_digest(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.copies {
            out.push(format!("copy v{} {}<-{} {:?}", p.var.0, p.dst_idx, p.src_idx, p.overlap));
        }
        // Kind 1 marks coarse→fine traffic: packed from the coarser
        // level, unpacked into scratch.
        let kind = |p: &StreamJob| match p.loc {
            Loc::Patch { level, .. } => u8::from(usize::from(level) != self.level_no),
            Loc::Scratch(_) => 1,
            Loc::Outgoing(_) => 0,
        };
        for p in &self.sends {
            out.push(format!(
                "send k{} v{} {}@r{}<-{} {:?}",
                kind(p),
                p.var.0,
                p.dst_idx,
                self.send_peers[p.peer as usize].rank,
                p.src_idx,
                p.overlap
            ));
        }
        for p in &self.recvs {
            out.push(format!(
                "recv k{} v{} {}<-{}@r{} {:?}",
                kind(p),
                p.var.0,
                p.dst_idx,
                p.src_idx,
                self.recv_peers[p.peer as usize].rank,
                p.overlap
            ));
        }
        for p in &self.captures {
            out.push(format!("capture v{} {}<-{} {:?}", p.var.0, p.dst_idx, p.src_idx, p.overlap));
        }
        for (op, jobs) in &self.refines {
            for p in jobs {
                out.push(format!(
                    "interp v{} {} op {} fill {:?} scratch {} covered {:?}",
                    p.var.0,
                    p.dst_idx,
                    op.name(),
                    p.fill,
                    self.scratch[p.scratch as usize].1,
                    self.covered[p.scratch as usize]
                ));
            }
        }
        for p in &self.physical {
            out.push(format!("phys v{} {} {:?}", p.var.0, p.dst_idx, p.outside));
        }
        sorted_digest(out)
    }

    /// Whether the levels this schedule reads — its own, and the coarser
    /// one when it interpolates — still carry the digests it was planned
    /// against on `hierarchy`'s rank: then it is what a fresh build would
    /// be, and whoever holds it keeps it.
    pub fn is_current(&self, hierarchy: &PatchHierarchy) -> bool {
        self.structure.is_current(hierarchy, self.level_no)
    }

    /// Number of interpolation jobs (diagnostics/tests).
    pub fn num_interp_jobs(&self) -> usize {
        self.scratch.len()
    }

    /// Messages one execution sends and receives (diagnostics/tests).
    pub fn num_messages(&self) -> (usize, usize) {
        (self.send_peers.len(), self.recv_peers.len())
    }

    /// Host heap bytes the schedule holds — job lists, their box lists
    /// and the peer tables — by capacity. The descriptor table and the
    /// boundary state belong to the placement and are not counted.
    pub fn heap_bytes(&self) -> usize {
        let copy = |j: &CopyJob| j.overlap.dst_boxes.heap_bytes();
        let stream = |j: &StreamJob| j.overlap.dst_boxes.heap_bytes();
        list_bytes(&self.vars, |_| 0)
            + list_bytes(&self.copies, copy)
            + list_bytes(&self.captures, copy)
            + list_bytes(&self.sends, stream)
            + list_bytes(&self.recvs, stream)
            + list_bytes(&self.send_peers, |_| 0)
            + list_bytes(&self.recv_peers, |_| 0)
            + list_bytes(&self.scratch, |_| 0)
            + list_bytes(&self.covered, BoxList::heap_bytes)
            + list_bytes(&self.refines, |(_, jobs)| list_bytes(jobs, |j| j.fill.heap_bytes()))
            + list_bytes(&self.physical, |p| p.outside.heap_bytes())
    }

    /// Execute the fill: [`RefineSchedule::try_fill`] inside a scope
    /// of `category` on the rank's clock. Kept for the frozen benchmark
    /// package's signature (ROADMAP 27(b)).
    ///
    /// # Panics
    /// Panics on an injected fault — fault-aware callers use
    /// [`RefineSchedule::try_fill`] and roll the step back instead.
    pub fn fill(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        physical: &dyn PhysicalBoundary,
        comm: Option<&Comm>,
        time: f64,
        category: Category,
    ) {
        let _scope = rank_clock(registry, comm).map(|clock| clock.scope(category));
        self.try_fill(hierarchy, registry, physical, comm, time)
            .unwrap_or_else(|e| panic!("refine fill: unhandled injected fault: {e}"));
    }

    /// Execute the fill: the window of this schedule alone (see
    /// [`FillWindow`]), charged in the clock's current scope. `comm` is
    /// required when the schedule contains remote plans; single-rank
    /// runs pass `None`. A message fault is reported after the
    /// whole communication pattern has executed, so no rank is left
    /// blocked on this rank's messages. On `Err` the filled data is
    /// unusable and the caller must roll back.
    pub fn try_fill(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        physical: &dyn PhysicalBoundary,
        comm: Option<&Comm>,
        time: f64,
    ) -> Result<(), CommError> {
        let _span = fill_span(hierarchy, "refine-fill", self.level_no);
        let window = FillWindow::new(vec![self]);
        let pending = window.begin_with(hierarchy, None, registry, comm);
        pending.finish(hierarchy, physical, comm, time)
    }

    /// Execute a regrid's solution transfer: the stages of a fill
    /// without the physical boundaries (the next halo fill sets the new
    /// level's ghosts), charged in the regrid's scope, run-through
    /// after a fault as [`RefineSchedule::try_fill`]. `outgoing` is the
    /// level [`RefineSchedule::regrid_transfer`] planned against. The
    /// transfer is a build pass of its own, uploading its table first.
    pub(crate) fn try_transfer(
        self: &Arc<Self>,
        hierarchy: &mut PatchHierarchy,
        outgoing: Option<&mut PatchLevel>,
        registry: &VariableRegistry,
        comm: Option<&Comm>,
        time: f64,
    ) -> Result<(), CommError> {
        let _span = hierarchy
            .recorder()
            .is_enabled()
            .then(|| hierarchy.recorder().span_arg("regrid-transfer", self.level_no as i64));
        let mut tables = PassTables::default();
        tables.push(Arc::clone(self) as _);
        registry.factory().upload_tables(&tables);
        let window = FillWindow::new(vec![self.as_ref()]);
        let mut pending = window.begin_with(hierarchy, outgoing, registry, comm);
        let transferred = pending.receive_and_interpolate(hierarchy, comm);
        self.stamp(hierarchy.level_mut(self.level_no), time);
        transferred
    }

    /// Stamp `time` on the variables this schedule fills.
    fn stamp(&self, level: &mut PatchLevel, time: f64) {
        for p in level.local_mut() {
            for &v in &self.vars {
                p.data_mut(v).set_time(time);
            }
        }
    }
}

impl DescriptorTable for RefineSchedule {
    fn describe(&self, w: &mut DescriptorWords<'_>) {
        w.copies(&self.copies);
        w.streams(&self.sends);
        w.copies(&self.captures);
        w.streams(&self.recvs);
        w.extends(&self.covered);
        for (_, jobs) in &self.refines {
            w.refines(jobs);
        }
    }
}

/// What each source provides of one destination array: `(record
/// position, region)`, for the pairs this rank owns an end of.
type Claims = Vec<(usize, BoxList)>;

/// The fill geometry of one destination record, shared by every
/// variable of a [`Class`].
struct DstGeometry {
    /// From the neighbours on the level.
    same: Claims,
    /// The ghost cells outside the domain; empty unless the record is
    /// this rank's.
    outside: BoxList,
    /// Where the level leaves in-domain ghost data wanted.
    coarse: Option<CoarseGeometry>,
}

struct CoarseGeometry {
    /// Fine data-space region to interpolate.
    want: BoxList,
    /// Cell box of the coarse scratch array it is interpolated from.
    scratch_box: GBox,
    /// From the coarser level, into the scratch array.
    sources: Claims,
    /// The union of what the coarse sources provide.
    covered: BoxList,
}

/// What the geometry depends on a variable through: its centring, its
/// ghost width and, where it interpolates, the stencil width.
type Class = (Centring, IntVector, Option<IntVector>);

/// The geometry of a level's destinations, by record position, per
/// structure (what a fill schedule of the level reads) and class: what
/// lets its fill schedules share one walk.
type GeometryMemo = HashMap<(Structure, Class), Vec<(usize, DstGeometry)>>;

/// What one [`ScheduleBuild`] pass computes once for all its builds.
#[derive(Default)]
struct PassMemo {
    /// Per level, keyed by (rank, level digest).
    levels: HashMap<(usize, u64), Arc<LevelTable>>,
    geometry: GeometryMemo,
}

/// What planning against a level needs besides its records.
struct LevelTable {
    /// Over the held boxes, with one cell of slack so centring-adjusted
    /// data boxes (one layer past the cell box on the upper side) are
    /// caught; `None` scans all pairs (the brute-force oracle).
    index: Option<BoxIndex>,
    /// Per record, where its patch sits in the level's local array —
    /// meaningful for the records this rank owns.
    local: Vec<usize>,
    /// Positions of the records this rank owns.
    owned: Vec<usize>,
}

/// One level as a source of planned transfers.
struct Sources<'a> {
    recs: crate::level::LevelRecords<'a>,
    /// Its number in the hierarchy; `None` for the level being replaced.
    level: Option<usize>,
    table: Arc<LevelTable>,
}

impl<'a> Sources<'a> {
    /// # Panics
    /// Panics if a record `rank` owns has no local patch — a
    /// schedule/hierarchy mismatch.
    fn of(level: &'a PatchLevel, rank: usize, named: Option<usize>, indexed: bool) -> Self {
        let recs = level.records();
        let index = indexed.then(|| BoxIndex::new(recs.boxes(), IntVector::ONE));
        let (mut local, mut owned) = (Vec::with_capacity(recs.len()), Vec::new());
        for pos in 0..recs.len() {
            local.push(owned.len());
            if recs.owner_at(pos) == rank {
                let patch = level.local().get(owned.len());
                assert!(patch.is_some_and(|p| p.id().index == pos), "patch {pos} is not local");
                owned.push(pos);
            }
        }
        Self { recs, level: named, table: Arc::new(LevelTable { index, local, owned }) }
    }

    /// Level `level_no` of `h`, its table made once per pass.
    fn shared(memo: &mut PassMemo, h: &'a PatchHierarchy, level_no: usize, indexed: bool) -> Self {
        let key = (h.rank(), h.structure_digest(level_no));
        let fresh = || Self::of(h.level(level_no), h.rank(), None, indexed).table;
        let table = Arc::clone(memo.levels.entry(key).or_insert_with(fresh));
        Self { recs: h.level(level_no).records(), level: Some(level_no), table }
    }

    /// Positions of the records that may meet `query`, ascending.
    fn candidates(&self, query: GBox, out: &mut Vec<usize>) {
        match &self.table.index {
            Some(index) => index.query_into(query, out),
            None => {
                out.clear();
                out.extend(0..self.recs.len());
            }
        }
    }

    /// Positions of the records that meet `region`, ascending.
    fn meeting(&self, region: GBox, out: &mut Vec<usize>) {
        self.candidates(region, out);
        out.retain(|&pos| self.recs.box_at(pos).intersects(region));
    }

    /// Per record, whether this rank may own an end of a transfer into
    /// it: whether it meets one of `regions`, which the caller derives
    /// from the records this rank owns. Only an index narrows the walk
    /// down, so the brute-force oracle plans for every record; so does
    /// a rank owning every record, without the queries.
    fn reachable(&self, regions: impl Iterator<Item = GBox>) -> Vec<bool> {
        if self.table.index.is_none() || self.table.owned.len() == self.recs.len() {
            return vec![true; self.recs.len()];
        }
        let (mut flags, mut found) = (vec![false; self.recs.len()], Vec::new());
        for region in regions {
            self.meeting(region, &mut found);
            found.iter().for_each(|&pos| flags[pos] = true);
        }
        flags
    }

    /// Boxes of the records this rank owns.
    fn owned_boxes(&self) -> impl Iterator<Item = GBox> + '_ {
        self.table.owned.iter().map(|&pos| self.recs.box_at(pos))
    }

    /// The owned record at `pos` as an end of a job (meaningless for a
    /// record another rank owns).
    fn loc(&self, pos: usize) -> Loc {
        match self.level {
            Some(level) => Loc::patch(level, self.table.local[pos]),
            None => Loc::Outgoing(narrow(self.table.local[pos])),
        }
    }
}

/// A [`RefineSchedule`] under construction: its message streams stay
/// open until [`Planner::finish`].
struct Planner<'a> {
    rank: usize,
    /// Refinement ratio of the level to its coarser one.
    ratio: IntVector,
    registry: &'a VariableRegistry,
    sched: RefineSchedule,
    sends: StreamPlan,
    recvs: StreamPlan,
    /// Candidates walked (build telemetry).
    candidate_pairs: u64,
}

impl<'a> Planner<'a> {
    /// An empty schedule for level `level_no` filling `vars`, reading
    /// the coarser level if `coarse`, its messages tagged with `kind`.
    fn new(
        hierarchy: &PatchHierarchy,
        registry: &'a VariableRegistry,
        (level_no, coarse): (usize, bool),
        kind: u64,
        vars: Vec<VariableId>,
    ) -> Self {
        let sched = RefineSchedule {
            level_no,
            structure: Structure::of(hierarchy, level_no, coarse),
            tag: agg_tag(kind, level_no),
            vars,
            copies: Vec::new(),
            sends: Vec::new(),
            send_peers: Vec::new(),
            recvs: Vec::new(),
            recv_peers: Vec::new(),
            scratch: Vec::new(),
            captures: Vec::new(),
            covered: Vec::new(),
            refines: Vec::new(),
            physical: Vec::new(),
            boundary_kept: Mutex::new(None),
        };
        let (sends, recvs) = Default::default();
        let (rank, ratio) = (hierarchy.rank(), hierarchy.ratio_to_coarser(level_no));
        Self { rank, ratio, registry, sched, sends, recvs, candidate_pairs: 0 }
    }

    fn finish(mut self) -> RefineSchedule {
        (self.sched.sends, self.sched.send_peers) = self.sends.finish();
        (self.sched.recvs, self.sched.recv_peers) = self.recvs.finish();
        self.sched
    }

    /// The scratch array the next [`Planner::interpolate`] makes.
    fn next_scratch(&self) -> usize {
        self.sched.scratch.len()
    }

    /// Interpolate `fill` of the local patch `(position, global index)`
    /// out of a new scratch array over `scratch_box`, `covered` by its
    /// planned sources. Operators are told apart by name, as in the
    /// plan digests, and kept in order of first use.
    ///
    /// # Panics
    /// Panics, in every profile, if `op` could read outside the scratch
    /// data box: the scratch has no ghosts, so a tap beyond it would be
    /// clamped to values the plan never meant it to read.
    fn interpolate(
        &mut self,
        op: &Arc<dyn RefineOperator>,
        var: VariableId,
        (pos, dst_idx): (usize, usize),
        (fill, scratch_box, covered): (&BoxList, GBox, &BoxList),
    ) {
        let centring = self.registry.get(var).centring;
        let sbox = centring.data_box(scratch_box);
        for b in fill.boxes() {
            let cells = cell_cover(*b, centring).coarsen(self.ratio).grow(op.stencil_width());
            let reads = centring.data_box(cells);
            assert!(
                sbox.contains_box(reads),
                "{} reads {reads:?} outside its scratch data box {sbox:?}",
                op.name()
            );
        }
        let (pos, scratch, dst_idx) = (narrow(pos), narrow(self.next_scratch()), narrow(dst_idx));
        let level = u16::try_from(self.sched.level_no).expect("level number exceeds 16 bits");
        let job = RefineJob { var, level, pos, scratch, fill: fill.clone(), dst_idx };
        let refines = &mut self.sched.refines;
        match refines.iter_mut().find(|(o, _)| o.name() == op.name()) {
            Some((_, jobs)) => jobs.push(job),
            None => refines.push((Arc::clone(op), vec![job])),
        }
        self.sched.covered.push(covered.clone());
        self.sched.scratch.push((var, scratch_box));
    }

    /// The fill geometry of the records of `same` this rank may own an
    /// end of a fill into, by position, for one class of variables (see
    /// [`DstGeometry`]). Any other destination would plan nothing here,
    /// so it is skipped before any box calculus: a same-level source's
    /// region lies in both data boxes, within `ghosts + 1` cells of the
    /// destination, and a coarse one's in the scratch data box, whose
    /// cell box lies in `dst.grow(ghosts + 1).coarsen(ratio).grow(stencil)`.
    fn geometry(
        &mut self,
        hierarchy: &PatchHierarchy,
        same: &Sources<'_>,
        coarse: Option<&Sources<'_>>,
        (centring, ghosts, stencil): Class,
    ) -> Vec<(usize, DstGeometry)> {
        let level_no = same.level.expect("a fill targets a level of the hierarchy");
        let domain = hierarchy.level(level_no).domain();
        let boxes = same.recs.boxes();
        let (reach, ratio) = (ghosts + IntVector::ONE, self.ratio);
        let feeds = coarse.zip(stencil).into_iter().flat_map(|(coarse, stencil)| {
            let from = move |c: GBox| c.grow(stencil + IntVector::ONE).refine(ratio).grow(reach);
            coarse.owned_boxes().map(from)
        });
        let walked = same.reachable(same.owned_boxes().map(|b| b.grow(reach)).chain(feeds));
        let (mut sources, mut coarse_sources) = (Vec::new(), Vec::new());
        let mut per_dst = |(dst_pos, &dst_box): (usize, &GBox)| {
            let dst_rank = same.recs.owner_at(dst_pos);
            // Candidate-source discovery (see [`Sources::candidates`]):
            // queries grow by the ghost width, and the result is a
            // superset of the overlapping pairs in ascending position
            // order, so the plans come out identical to the brute-force
            // scan's — empty overlaps are skipped either way. (A
            // patch's overlap with itself is empty.)
            same.candidates(dst_box.grow(ghosts + IntVector::ONE), &mut sources);
            let ghost_region = |_, src_box| {
                ghost_overlaps(dst_box, ghosts, src_box, centring, IntVector::ZERO).dst_boxes
            };
            let (near, claimed) = (sources.iter().copied(), &mut BoxList::new());
            let mut g = DstGeometry {
                same: self.claim(same, near, centring, ghost_region, claimed, dst_rank),
                outside: BoxList::new(),
                coarse: None,
            };
            if dst_rank == self.rank {
                g.outside = BoxList::from_box(dst_box.grow(ghosts));
                g.outside.subtract(domain);
                g.outside.coalesce();
            }
            let (Some(stencil), Some(coarse)) = (stencil, coarse) else { return g };
            // Region wanted: in-domain ghost data not provided by this
            // patch or any same-level patch. Only sources near the
            // ghost region can cover any of it; subtracting a disjoint
            // data box is a no-op, so restricting to the candidates
            // leaves `want` bitwise identical to the all-boxes
            // subtraction.
            let in_domain = domain.intersect_box(dst_box.grow(ghosts));
            let mut want = data_region(&in_domain, centring);
            want.subtract_box(centring.data_box(dst_box));
            for &src_pos in &sources {
                want.subtract_box(centring.data_box(boxes[src_pos]));
            }
            want.coalesce();
            if want.is_empty() {
                return g;
            }
            // Scratch region on the coarse level, written by every
            // coarse source whose data box meets it, each claiming what
            // earlier ones left; `covered` is the running union.
            let fine_cover = want
                .boxes()
                .iter()
                .fold(GBox::EMPTY, |acc, &b| acc.bounding(cell_cover(b, centring)));
            let scratch_box = fine_cover.coarsen(ratio).grow(stencil);
            let scratch_data_box = centring.data_box(scratch_box);
            coarse.candidates(scratch_data_box, &mut coarse_sources);
            let in_scratch = |_, cbox| scratch_region(scratch_data_box, cbox, centring);
            let mut covered = BoxList::new();
            let near = coarse_sources.iter().copied();
            let sources = self.claim(coarse, near, centring, in_scratch, &mut covered, dst_rank);
            g.coarse = Some(CoarseGeometry { want, scratch_box, sources, covered });
            g
        };
        // Collected from an exact-size iterator: one allocation.
        let walked: Vec<usize> = (0..boxes.len()).filter(|&pos| walked[pos]).collect();
        walked.into_iter().map(|pos| (pos, per_dst((pos, &boxes[pos])))).collect()
    }

    /// Give every value of one destination — a record `dst_rank` owns —
    /// exactly one source, and return the (source, region) pairs this
    /// rank owns an end of.
    ///
    /// Node- and side-centred data boxes of neighbours share planes,
    /// and their copies of a shared value need not be bitwise-equal.
    /// Local copies run before remote unpacks, so overlapping writes
    /// would make the winner depend on the rank layout. Instead `cands`
    /// (record positions, ascending or descending) are walked in order
    /// and each keeps of `region_of(position, box)` only what earlier
    /// ones left; `claimed` is the running union. Every rank holds every
    /// record, so both ends of a message derive the same regions
    /// (DESIGN.md §13), and the order
    /// the stages apply copies and unpacks in cannot matter.
    /// Cell-centred sources are disjoint and skip the calculus, and a
    /// rank owning no end skips the destination wholesale.
    fn claim(
        &mut self,
        src: &Sources<'_>,
        cands: impl ExactSizeIterator<Item = usize> + Clone,
        centring: Centring,
        region_of: impl Fn(usize, GBox) -> BoxList,
        claimed: &mut BoxList,
        dst_rank: usize,
    ) -> Claims {
        self.candidate_pairs += cands.len() as u64;
        let mine = dst_rank == self.rank;
        let mut claims = Claims::new();
        if !mine && !cands.clone().any(|c| src.recs.owner_at(c) == self.rank) {
            return claims;
        }
        for pos in cands {
            // A pair between two other ranks matters for its claim only.
            let theirs = !mine && src.recs.owner_at(pos) != self.rank;
            if theirs && centring == Centring::Cell {
                continue;
            }
            let mut region = region_of(pos, src.recs.box_at(pos));
            if centring != Centring::Cell {
                region.subtract(claimed);
                region.coalesce();
            }
            if region.is_empty() {
                continue;
            }
            claimed.union(&region);
            if !theirs {
                claims.push((pos, region));
            }
        }
        claims
    }

    /// File each of `claims` on the destination `dst` — `(global index,
    /// owner)` — under the stage that moves it: a validated copy job
    /// when both ends are here, a pack for `dst`'s owner, or an unpack
    /// from the source's. `ends` lists the destination arrays sharing
    /// this geometry (variable, where it lives, its data box), read
    /// only when `dst` is this rank's.
    fn stamp(
        &mut self,
        src: &Sources<'_>,
        claims: &[(usize, BoxList)],
        dst: (usize, usize),
        ends: &[(VariableId, Loc, GBox)],
    ) {
        let Some(&(first_var, first_loc, _)) = ends.first() else { return };
        let centring = self.registry.get(first_var).centring;
        // A local copy into scratch is a capture: its own stage.
        let local = match first_loc {
            Loc::Scratch(_) => &mut self.sched.captures,
            _ => &mut self.sched.copies,
        };
        for &(pos, ref region) in claims {
            let src_rank = src.recs.owner_at(pos);
            let ids = (pos, dst.0);
            for &(var, dst_loc, dst_data_box) in ends {
                let overlap =
                    BoxOverlap { dst_boxes: region.clone(), shift: IntVector::ZERO, centring };
                if dst.1 != self.rank {
                    self.sends.push(dst.1, var, src.loc(pos), overlap, ids);
                } else if src_rank != self.rank {
                    self.recvs.push(src_rank, var, dst_loc, overlap, ids);
                } else {
                    let src_data_box = data_box_of(self.registry.get(var), src.recs.box_at(pos));
                    validate_overlap(&overlap, src_data_box, dst_data_box, centring);
                    local.push(CopyJob {
                        var,
                        src: src.loc(pos),
                        dst: dst_loc,
                        overlap,
                        src_idx: narrow(ids.0),
                        dst_idx: narrow(ids.1),
                    });
                }
            }
        }
    }
}

/// What the coarse record `cbox` can fill of an interpolation scratch.
fn scratch_region(scratch_data_box: GBox, cbox: GBox, centring: Centring) -> BoxList {
    BoxList::from_box(scratch_data_box.intersect(centring.data_box(cbox)))
}

/// Fine-to-coarse synchronisation schedule (SAMRAI `CoarsenSchedule`).
///
/// The stages, each one job list: the fine owner projects into scratch,
/// grouped by operator; scratch bound for a remote coarse owner is
/// packed into that rank's message; scratch bound for a local coarse
/// patch is copied; incoming messages are unpacked into the coarse
/// patches owned here.
pub struct CoarsenSchedule {
    fine_level_no: usize,
    structure: Structure,
    /// One scratch array per projection job: its variable and the
    /// coarse cell region it covers.
    scratch: Vec<(VariableId, GBox)>,
    /// Projection jobs by operator, operators in order of first use.
    projects: Vec<(Arc<dyn CoarsenOperator>, Vec<CoarsenJob>)>,
    /// Scratch results applied to coarse patches owned here.
    applies: Vec<CopyJob>,
    sends: Vec<StreamJob>,
    send_peers: Vec<PeerStream>,
    recvs: Vec<StreamJob>,
    recv_peers: Vec<PeerStream>,
}

impl CoarsenSchedule {
    /// Build the schedule projecting `fine_level_no` onto
    /// `fine_level_no - 1`.
    ///
    /// Coarse-destination discovery goes through a [`BoxIndex`] over
    /// the coarse boxes, queried with each fine box's coarsened shadow.
    ///
    /// Thin wrapper kept for the tests and simple callers; production
    /// code should build through [`ScheduleBuild`].
    ///
    /// # Panics
    /// Panics if `fine_level_no == 0`.
    pub fn new(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        fine_level_no: usize,
        specs: &[CoarsenSpec],
    ) -> Self {
        Self::build(hierarchy, registry, fine_level_no, specs, true, &mut PassMemo::default())
    }

    /// All-pairs O(N²) build, retained as the test oracle (see
    /// [`RefineSchedule::new_bruteforce`]).
    pub fn new_bruteforce(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        fine_level_no: usize,
        specs: &[CoarsenSpec],
    ) -> Self {
        Self::build(hierarchy, registry, fine_level_no, specs, false, &mut PassMemo::default())
    }

    fn build(
        hierarchy: &PatchHierarchy,
        registry: &VariableRegistry,
        fine_level_no: usize,
        specs: &[CoarsenSpec],
        indexed: bool,
        memo: &mut PassMemo,
    ) -> Self {
        assert!(fine_level_no > 0, "CoarsenSchedule: level 0 has no coarser level");
        let build_start = std::time::Instant::now();
        let rank = hierarchy.rank();
        let fine = Sources::shared(memo, hierarchy, fine_level_no, indexed);
        let coarse = Sources::shared(memo, hierarchy, fine_level_no - 1, indexed);
        let ratio = hierarchy.ratio_to_coarser(fine_level_no);
        let shadow_of = |fpos: usize| fine.recs.box_at(fpos).coarsen(ratio);
        // A pair matters to this rank only if its coarse destination is
        // the rank's own or under the shadow of one of its fine records,
        // and only fine records under such a destination are walked.
        let fine_shadows = fine.table.owned.iter().map(|&fpos| shadow_of(fpos));
        let relevant = coarse.reachable(coarse.owned_boxes().chain(fine_shadows));
        let fed = (0..relevant.len()).filter(|&cpos| relevant[cpos]);
        let walked = fine.reachable(fed.map(|cpos| coarse.recs.box_at(cpos).refine(ratio)));
        let mut candidate_pairs: u64 = 0;
        let mut coarse_cand = Vec::new();
        let there = |rec_pos: usize| Loc::patch(fine_level_no - 1, coarse.table.local[rec_pos]);
        let mut scratch = Vec::new();
        let mut projects: Vec<(Arc<dyn CoarsenOperator>, Vec<CoarsenJob>)> = Vec::new();
        let mut applies = Vec::new();
        let mut sends = StreamPlan::default();
        let mut recvs = StreamPlan::default();
        for spec in specs {
            let var = registry.get(spec.var);
            assert_eq!(
                spec.aux.len(),
                spec.op.num_aux(),
                "coarsen op {} expects {} aux variables",
                spec.op.name(),
                spec.op.num_aux()
            );
            let centring = var.centring;
            // The data region a plan applies is its region's data box
            // minus what earlier fine sources (ascending record order)
            // already claimed: node- and side-centred projections from
            // adjacent fine patches overlap on shared planes, and local
            // results are applied before remote ones, so without
            // disjoint regions the coarse value at a shared node would
            // depend on the rank layout. The claims per coarse
            // destination accumulate over the fine sources in ascending
            // record order, so a rank walks every candidate pair of a
            // destination it is an end at, not only its own pairs.
            let overlapping_centring = centring != Centring::Cell;
            let mut claims: HashMap<usize, BoxList> = HashMap::new();
            for fpos in (0..walked.len()).filter(|&fpos| walked[fpos]) {
                let f_rank = fine.recs.owner_at(fpos);
                let shadow = shadow_of(fpos);
                coarse.meeting(shadow, &mut coarse_cand);
                coarse_cand.retain(|&cpos| relevant[cpos]);
                candidate_pairs += coarse_cand.len() as u64;
                for &cpos in &coarse_cand {
                    let cbox = coarse.recs.box_at(cpos);
                    let c_rank = coarse.recs.owner_at(cpos);
                    if !overlapping_centring && f_rank != rank && c_rank != rank {
                        continue;
                    }
                    let region = shadow.intersect(cbox);
                    if region.is_empty() {
                        continue;
                    }
                    let mut fill = BoxList::from_box(centring.data_box(region));
                    if overlapping_centring {
                        let claimed = claims.entry(cpos).or_default();
                        fill.subtract(claimed);
                        fill.coalesce();
                        if fill.is_empty() {
                            continue;
                        }
                        claimed.union(&fill);
                    }
                    if f_rank != rank && c_rank != rank {
                        continue;
                    }
                    let ov = BoxOverlap { dst_boxes: fill, shift: IntVector::ZERO, centring };
                    let ids = (fpos, cpos);
                    if f_rank != rank {
                        recvs.push(f_rank, spec.var, there(cpos), ov, ids);
                        continue;
                    }
                    // The fine owner coarsens into scratch (where all
                    // auxiliary data is local); the scratch then moves
                    // to the coarse patch's owner.
                    let slot = Loc::scratch(scratch.len());
                    let job = CoarsenJob {
                        var: spec.var,
                        aux: spec.aux.clone(),
                        pos: narrow(fine.table.local[fpos]),
                        scratch: narrow(scratch.len()),
                        fill: BoxList::from_box(centring.data_box(region)),
                        src_idx: narrow(fpos),
                    };
                    match projects.iter_mut().find(|(o, _)| o.name() == spec.op.name()) {
                        Some((_, jobs)) => jobs.push(job),
                        None => projects.push((Arc::clone(&spec.op), vec![job])),
                    }
                    scratch.push((spec.var, region));
                    if c_rank == rank {
                        let scratch_data_box = centring.data_box(region);
                        validate_overlap(&ov, scratch_data_box, data_box_of(var, cbox), centring);
                        applies.push(CopyJob {
                            var: spec.var,
                            src: slot,
                            dst: there(cpos),
                            overlap: ov,
                            src_idx: narrow(fpos),
                            dst_idx: narrow(cpos),
                        });
                    } else {
                        sends.push(c_rank, spec.var, slot, ov, ids);
                    }
                }
            }
        }
        record_build_telemetry(hierarchy, candidate_pairs, build_start);
        let (sends, send_peers) = sends.finish();
        let (recvs, recv_peers) = recvs.finish();
        let structure = Structure::of(hierarchy, fine_level_no, true);
        Self {
            fine_level_no,
            structure,
            scratch,
            projects,
            applies,
            sends,
            send_peers,
            recvs,
            recv_peers,
        }
    }

    /// Canonical rendering of every sync plan, sorted (see
    /// [`RefineSchedule::plan_digest`]).
    pub fn plan_digest(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (op, jobs) in &self.projects {
            for p in jobs {
                out.push(format!(
                    "project v{} aux {:?} op {} f{} region {}",
                    p.var.0,
                    p.aux.iter().map(|a| a.0).collect::<Vec<_>>(),
                    op.name(),
                    p.src_idx,
                    self.scratch[p.scratch as usize].1
                ));
            }
        }
        for p in &self.applies {
            out.push(format!("apply v{} c{}<-f{} {:?}", p.var.0, p.dst_idx, p.src_idx, p.overlap));
        }
        for p in &self.sends {
            out.push(format!(
                "send v{} c{}@r{}<-f{} {:?}",
                p.var.0, p.dst_idx, self.send_peers[p.peer as usize].rank, p.src_idx, p.overlap
            ));
        }
        for p in &self.recvs {
            out.push(format!(
                "recv v{} c{}<-f{}@r{} {:?}",
                p.var.0, p.dst_idx, p.src_idx, self.recv_peers[p.peer as usize].rank, p.overlap
            ));
        }
        sorted_digest(out)
    }

    /// Whether both levels of the sync still carry the digests it was
    /// planned against (see [`RefineSchedule::is_current`]).
    pub fn is_current(&self, hierarchy: &PatchHierarchy) -> bool {
        self.structure.is_current(hierarchy, self.fine_level_no)
    }

    /// Number of projection jobs this rank takes part in, as the fine
    /// or the coarse owner (diagnostics).
    pub fn num_jobs(&self) -> usize {
        self.scratch.len() + self.recvs.len()
    }

    /// Execute the synchronisation: [`CoarsenSchedule::try_run`]
    /// inside a scope of `category` on the rank's clock. Kept for the
    /// frozen benchmark package's signature (ROADMAP 27(b)).
    ///
    /// # Panics
    /// Panics on an injected fault — fault-aware callers use
    /// [`CoarsenSchedule::try_run`] and roll the step back instead.
    pub fn run(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        comm: Option<&Comm>,
        category: Category,
    ) {
        let _scope = rank_clock(registry, comm).map(|clock| clock.scope(category));
        self.try_run(hierarchy, registry, comm)
            .unwrap_or_else(|e| panic!("coarsen sync: unhandled injected fault: {e}"));
    }

    /// Execute the synchronisation, charged in the clock's current
    /// scope (the step's: the paper's "Synchronisation" component),
    /// with run-through semantics after a fault (see
    /// [`RefineSchedule::try_fill`]).
    pub fn try_run(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        comm: Option<&Comm>,
    ) -> Result<(), CommError> {
        let _span = hierarchy.recorder().is_enabled().then(|| {
            let rec = hierarchy.recorder();
            rec.count("amr.coarsen_syncs", 1);
            rec.span_arg("coarsen-sync", self.fine_level_no as i64)
        });
        let factory = registry.factory().as_ref();
        let ratio = hierarchy.ratio_to_coarser(self.fine_level_no);
        let mut scratches = make_scratch(registry, &self.scratch);
        let mut ctx = TransferCtx { hierarchy, scratch: &mut scratches, outgoing: None };
        let (sends, recvs) = ([Part::whole(&self.sends[..])], [Part::whole(&self.recvs[..])]);

        // Phase 1: fine owners coarsen into scratch, every operator in
        // one call.
        let groups: Vec<_> = self
            .projects
            .iter()
            .map(|(op, jobs)| OpGroup { op: op.as_ref(), ratio, parts: vec![Part::whole(jobs)] })
            .collect();
        factory.coarsen_many(&mut ctx, self.fine_level_no, &groups);

        // Phase 2, one send stage: the local results applied, and the
        // results bound for remote coarse owners packed into the
        // aggregated per-rank stream (one message per rank pair; plan
        // order is globally deterministic). Both only read scratch.
        let applies = [Part::whole(&self.applies[..])];
        let streams = factory.send_many(&mut ctx, &applies, &sends, &self.send_peers);
        let tag = agg_tag(KIND_AGG_SYNC, self.fine_level_no);
        for (peer, stream) in self.send_peers.iter().zip(streams) {
            let comm = comm.expect("CoarsenSchedule: remote plans need a Comm");
            comm.send(peer.rank, tag, stream);
        }

        // Phase 3: receive the aggregated remote results and unpack
        // them in plan order. Faulty streams are skipped.
        let received = receive_and_unpack(factory, &mut ctx, &recvs, &self.recv_peers, comm, tag);
        received.map_or(Ok(()), Err)
    }

    /// Host heap bytes the schedule holds (see
    /// [`RefineSchedule::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        let stream = |j: &StreamJob| j.overlap.dst_boxes.heap_bytes();
        let project = |j: &CoarsenJob| list_bytes(&j.aux, |_| 0) + j.fill.heap_bytes();
        list_bytes(&self.scratch, |_| 0)
            + list_bytes(&self.projects, |(_, jobs)| list_bytes(jobs, project))
            + list_bytes(&self.applies, |j| j.overlap.dst_boxes.heap_bytes())
            + list_bytes(&self.sends, stream)
            + list_bytes(&self.recvs, stream)
            + list_bytes(&self.send_peers, |_| 0)
            + list_bytes(&self.recv_peers, |_| 0)
    }
}

impl DescriptorTable for CoarsenSchedule {
    fn describe(&self, w: &mut DescriptorWords<'_>) {
        for (_, jobs) in &self.projects {
            w.coarsens(jobs);
        }
        w.streams(&self.sends);
        w.copies(&self.applies);
        w.streams(&self.recvs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::ZeroGradientBoundary;
    use crate::hierarchy::GridGeometry;
    use crate::hostdata::{HostData, HostDataFactory};
    use crate::ops::{ConservativeCellRefine, LinearNodeRefine, VolumeWeightedCoarsen};
    use crate::patchdata::PatchData;
    use rbamr_geometry::Centring;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn setup() -> (PatchHierarchy, VariableRegistry, VariableId) {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 16, 16)),
            IntVector::uniform(2),
            3,
            0,
            1,
        );
        (h, reg, var)
    }

    #[test]
    fn same_level_fill_across_two_patches() {
        let (mut h, reg, var) = setup();
        h.set_level(0, vec![b(0, 0, 8, 16), b(8, 0, 16, 16)], vec![0, 0], &reg);
        // Initialise both with a global linear field.
        for p in h.level_mut(0).local_mut() {
            let cb = p.cell_box();
            let d = p.host_mut::<f64>(var);
            for q in cb.iter() {
                *d.at_mut(q) = (q.x + 100 * q.y) as f64;
            }
        }
        let sched = RefineSchedule::new(&h, &reg, 0, &[FillSpec { var, refine_op: None }]);
        sched.fill(&mut h, &reg, &ZeroGradientBoundary, None, 0.0, Category::HaloExchange);
        // Patch 0's right ghosts hold patch 1's data.
        let p0 = h.level(0).local_by_index(0).unwrap();
        let d0 = p0.host::<f64>(var);
        assert_eq!(d0.at(IntVector::new(8, 5)), (8 + 500) as f64);
        assert_eq!(d0.at(IntVector::new(9, 0)), 9.0);
        // Physical ghosts got the zero-gradient values.
        assert_eq!(d0.at(IntVector::new(-1, 3)), 300.0);
        // Times are stamped.
        assert_eq!(p0.data(var).time(), 0.0);
    }

    #[test]
    fn coarse_fine_interpolation_fills_uncovered_ghosts() {
        let (mut h, reg, var) = setup();
        h.set_level(0, vec![b(0, 0, 16, 16)], vec![0], &reg);
        // Fine patch in the middle of the domain: all its ghosts need
        // coarse interpolation.
        h.set_level(1, vec![b(8, 8, 24, 24)], vec![0], &reg);
        // Coarse field linear in cell centres: value(x) = x_centre.
        {
            let p = h.level_mut(0).local_by_index_mut(0).unwrap();
            let cb = p.data(var).ghost_cell_box();
            let d = p.host_mut::<f64>(var);
            for q in cb.iter() {
                *d.at_mut(q) = q.x as f64 + 0.5;
            }
        }
        let sched = RefineSchedule::new(
            &h,
            &reg,
            1,
            &[FillSpec { var, refine_op: Some(Arc::new(ConservativeCellRefine)) }],
        );
        assert_eq!(sched.num_interp_jobs(), 1);
        sched.fill(&mut h, &reg, &ZeroGradientBoundary, None, 0.0, Category::HaloExchange);
        let p = h.level(1).local_by_index(0).unwrap();
        let d = p.host::<f64>(var);
        // A fine ghost cell at fine x-index 6 has centre 6.5/2 = 3.25 in
        // coarse coordinates; the linear reconstruction reproduces it.
        for q in [IntVector::new(6, 10), IntVector::new(24, 12), IntVector::new(10, 6)] {
            let expect = (q.x as f64 + 0.5) / 2.0;
            assert!((d.at(q) - expect).abs() < 1e-12, "ghost {q}: {} vs {expect}", d.at(q));
        }
    }

    #[test]
    fn node_centred_fill_does_not_clobber_owned_boundary_nodes() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("v", Centring::Node, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 16, 16)),
            IntVector::uniform(2),
            2,
            0,
            1,
        );
        h.set_level(0, vec![b(0, 0, 8, 16), b(8, 0, 16, 16)], vec![0, 0], &reg);
        // Mark patch 0's owned shared-boundary node distinctly.
        {
            let p0 = h.level_mut(0).local_by_index_mut(0).unwrap();
            *p0.host_mut::<f64>(var).at_mut(IntVector::new(8, 4)) = 42.0;
            let p1 = h.level_mut(0).local_by_index_mut(1).unwrap();
            let nb = Centring::Node.data_box(p1.cell_box());
            let d = p1.host_mut::<f64>(var);
            for q in nb.iter() {
                *d.at_mut(q) = -1.0;
            }
        }
        let sched = RefineSchedule::new(&h, &reg, 0, &[FillSpec { var, refine_op: None }]);
        sched.fill(&mut h, &reg, &ZeroGradientBoundary, None, 0.0, Category::HaloExchange);
        let p0 = h.level(0).local_by_index(0).unwrap();
        // The shared node column x=8 belongs to patch 0: not overwritten.
        assert_eq!(p0.host::<f64>(var).at(IntVector::new(8, 4)), 42.0);
        // Nodes beyond it were filled from patch 1.
        assert_eq!(p0.host::<f64>(var).at(IntVector::new(9, 4)), -1.0);
    }

    #[test]
    fn linear_node_interp_across_levels() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("v", Centring::Node, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 16, 16)),
            IntVector::uniform(2),
            2,
            0,
            1,
        );
        h.set_level(0, vec![b(0, 0, 16, 16)], vec![0], &reg);
        h.set_level(1, vec![b(8, 8, 24, 24)], vec![0], &reg);
        {
            let p = h.level_mut(0).local_by_index_mut(0).unwrap();
            let nb = p.data(var).data_box();
            let d = p.host_mut::<f64>(var);
            for q in nb.iter() {
                *d.at_mut(q) = q.x as f64 - 2.0 * q.y as f64;
            }
        }
        let sched = RefineSchedule::new(
            &h,
            &reg,
            1,
            &[FillSpec { var, refine_op: Some(Arc::new(LinearNodeRefine)) }],
        );
        sched.fill(&mut h, &reg, &ZeroGradientBoundary, None, 0.0, Category::HaloExchange);
        let p = h.level(1).local_by_index(0).unwrap();
        let d = p.host::<f64>(var);
        // Fine node q maps to coarse coordinate q/2; the linear field
        // refines exactly.
        for q in [IntVector::new(6, 8), IntVector::new(26, 20), IntVector::new(12, 26)] {
            let expect = q.x as f64 / 2.0 - 2.0 * (q.y as f64 / 2.0);
            assert!((d.at(q) - expect).abs() < 1e-12, "node {q}: {} vs {expect}", d.at(q));
        }
    }

    #[test]
    fn coarsen_schedule_projects_fine_means() {
        let (mut h, reg, var) = setup();
        h.set_level(0, vec![b(0, 0, 16, 16)], vec![0], &reg);
        h.set_level(1, vec![b(8, 8, 24, 24)], vec![0], &reg);
        {
            let p = h.level_mut(1).local_by_index_mut(0).unwrap();
            let cb = p.cell_box();
            let d = p.host_mut::<f64>(var);
            for q in cb.iter() {
                *d.at_mut(q) = 7.0; // constant: coarse mean must be 7
            }
        }
        let sched = CoarsenSchedule::new(
            &h,
            &reg,
            1,
            &[CoarsenSpec { var, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] }],
        );
        assert_eq!(sched.num_jobs(), 1);
        sched.run(&mut h, &reg, None, Category::Synchronize);
        let p = h.level(0).local_by_index(0).unwrap();
        let d = p.host::<f64>(var);
        // Coarse cells under the fine patch (coarse [4,12)^2) are 7.
        assert_eq!(d.at(IntVector::new(4, 4)), 7.0);
        assert_eq!(d.at(IntVector::new(11, 11)), 7.0);
        // Outside the shadow, untouched (0).
        assert_eq!(d.at(IntVector::new(3, 4)), 0.0);
    }

    #[test]
    fn scratch_extension_clamps_uncovered() {
        let mut d = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        for q in b(0, 0, 4, 2).iter() {
            *d.at_mut(q) = 9.0;
        }
        let covered = BoxList::from_box(b(0, 0, 4, 2));
        d.extend_uncovered(&covered);
        assert_eq!(d.at(IntVector::new(2, 3)), 9.0);
    }

    /// The left ghost strip of `two_level_setup`'s fine patch reads the
    /// coarse cells [3, 4) x [4, 12), grown by the stencil: scratch
    /// [2, 5) x [3, 13) is exactly enough, one column less is not.
    #[test]
    #[should_panic(expected = "outside its scratch data box")]
    fn interpolation_reading_past_its_scratch_is_refused() {
        let (h, reg, var) = two_level_setup();
        let mut plan = Planner::new(&h, &reg, (1, true), KIND_AGG_FILL, vec![var]);
        let op: Arc<dyn RefineOperator> = Arc::new(ConservativeCellRefine);
        let (fill, covered) = (BoxList::from_box(b(6, 8, 8, 24)), BoxList::new());
        plan.interpolate(&op, var, (0, 0), (&fill, b(2, 3, 5, 13), &covered));
        plan.interpolate(&op, var, (0, 0), (&fill, b(3, 3, 5, 13), &covered));
    }

    #[test]
    fn aggregated_tags_differ_by_kind_and_level() {
        let tags = [
            agg_tag(KIND_AGG_FILL, 1),
            agg_tag(KIND_AGG_FILL, 2),
            agg_tag(KIND_AGG_SYNC, 1),
            agg_tag(KIND_AGG_REGRID, 1),
        ];
        for (i, a) in tags.iter().enumerate() {
            assert!(tags[i + 1..].iter().all(|b| a != b), "{tags:x?}");
        }
    }

    // The limit must hold in *release* builds too: a kind-15 tag would
    // collide with the netsim collectives' without any diagnostic.
    #[test]
    #[should_panic(expected = "reserved for netsim collectives")]
    fn agg_tag_rejects_the_reserved_kind() {
        agg_tag(15, 0);
    }

    fn two_level_setup() -> (PatchHierarchy, VariableRegistry, VariableId) {
        let (mut h, reg, var) = setup();
        h.set_level(0, vec![b(0, 0, 16, 16)], vec![0], &reg);
        h.set_level(1, vec![b(8, 8, 24, 24)], vec![0], &reg);
        (h, reg, var)
    }
}
