//! The regridding procedure: flag → cluster → rebuild → transfer.
//!
//! Paper Section II: "This regridding procedure has three steps:
//! flagging, where a heuristic is applied to determine which level l
//! cells ought to be covered by the level l+1 patches; clustering, where
//! the new set of level l patches is created from a set of flagged cells
//! on level l−1; and solution transfer, where data is copied from the
//! old to the new hierarchy." Applied "recursively from the second
//! finest to the coarsest level".
//!
//! Nesting is guaranteed the SAMRAI way: when level `T` has been
//! planned, its coarsened footprint (grown by the nesting buffer) is
//! added to the tags that will drive the planning of level `T-1`, so the
//! new coarser level always covers the new finer one.
//!
//! Clustering runs once per planning pass, on rank 0: every rank sends
//! the [`TagBitmap`] of each of its tagged patches (the paper's
//! compressed tags, Section IV-C), and rank 0 broadcasts the clustered
//! boxes. From there every rank plans the same structure.
//!
//! The box calculus stays on the CPU; the solution transfer does not
//! have a planner or a data path of its own. A rebuilt level is
//! installed first, and its data arrives through a transfer schedule
//! (`RefineSchedule::regrid_transfer`) whose sources are the replaced
//! level (same index space: copies, or one aggregated message per
//! peer) and the level below (captured into scratch and interpolated
//! where the old level held nothing) — the stages, batch entry points
//! and fault contract of a halo fill, one launch per stage whatever the
//! patch count. Like a fill build, it walks only the new patches the
//! rank owns an end of a transfer into. The schedule is built, run once
//! and dropped.

use crate::balance::partition_sfc;
use crate::cluster::{cluster_tags, split_to_max, ClusterParams};
use crate::hierarchy::PatchHierarchy;
use crate::level::PatchLevel;
use crate::ops::RefineOperator;
use crate::partition::{
    exchange_level_view, finalize_structure_digest, interest_for_level, structure_items_digest,
    view_from_global, BoxRecord, ExchangeError, InterestMargins, MetadataDivergence, MetadataMode,
};
use crate::patchdata::PatchDataError;
use crate::schedule::{RefineSchedule, ScheduleError};
use crate::tagging::TagBitmap;
use crate::variable::{VariableId, VariableRegistry};
use rbamr_geometry::{BoxList, GBox, IntVector};
use rbamr_netsim::{Comm, CommError};
use rbamr_perfmodel::Category;
use std::sync::Arc;

/// Produces refinement tags — the application-supplied flagging
/// heuristic (CleverLeaf flags on density/energy/pressure gradients; the
/// GPU build evaluates it with one CUDA thread per cell and ships the
/// result as a compressed [`TagBitmap`], which is also what the regrid
/// gathers to rank 0 for clustering).
pub trait CellTagger {
    /// Tag cells on the *local* patches of `level`, returning one bitmap
    /// per local patch (in [`PatchLevel::local`] order).
    fn tag_cells(&self, hierarchy: &PatchHierarchy, level: usize, time: f64) -> Vec<TagBitmap>;
}

/// How to initialise one variable on rebuilt levels.
pub struct TransferSpec {
    /// The variable.
    pub var: VariableId,
    /// Operator interpolating the variable from the next coarser level
    /// where no old data exists.
    pub refine_op: Arc<dyn RefineOperator>,
}

/// Regridding parameters.
#[derive(Clone, Debug)]
pub struct RegridParams {
    /// Berger–Rigoutsos parameters, applied in the tag level's index
    /// space.
    pub cluster: ClusterParams,
    /// Nesting buffer in coarse cells (the paper requires >= 1).
    pub nesting_buffer: i64,
    /// Grow clustered boxes by this many tag-level cells before
    /// refining, so features stay refined between regrids.
    pub tag_buffer: i64,
    /// Maximum patch extent on the *new* (fine) level, in fine cells.
    pub max_patch_size: i64,
    /// How rebuilt levels hold their metadata. `Replicated` (the
    /// default) installs full box arrays on every rank; `Partitioned`
    /// installs owned + ghosted [`crate::partition::LevelView`]s,
    /// re-exchanging adjacent views (digest-verified) around each
    /// rebuild so the solution transfer and later schedule builds see
    /// every record they need. A driver holding this mode converts its
    /// existing levels itself ([`partition_hierarchy_metadata`]); field
    /// output is bitwise identical between the modes.
    pub metadata_mode: MetadataMode,
    /// Interest margins for partitioned views. `margins.stencil + 2`
    /// must be at least the widest refine-operator stencil so the
    /// coarse view retains every scratch source the transfer reads.
    pub margins: InterestMargins,
}

impl Default for RegridParams {
    fn default() -> Self {
        Self {
            cluster: ClusterParams::default(),
            nesting_buffer: 1,
            tag_buffer: 1,
            max_patch_size: 1 << 30,
            metadata_mode: MetadataMode::default(),
            margins: InterestMargins::default(),
        }
    }
}

/// What a regrid pass did to the hierarchy, reported per level so
/// callers can skip work for levels whose structure survived.
#[derive(Clone, Debug)]
pub struct RegridOutcome {
    /// Number of levels in the new hierarchy.
    pub num_levels: usize,
    /// Indexed by level number (`len() == num_levels`): `true` when the
    /// level's structure (boxes, owners, or their ordering) changed.
    /// Level 0 is never regridded, so `levels_changed[0]` is always
    /// `false`.
    pub levels_changed: Vec<bool>,
    /// Cells flagged for refinement on every rank, across all planning
    /// passes: rank 0 counts them as it clusters and broadcasts the
    /// count with the boxes (identical on every rank).
    pub tags_flagged: u64,
}

impl RegridOutcome {
    /// Did any surviving level change structure?
    pub fn any_changed(&self) -> bool {
        self.levels_changed.iter().any(|&c| c)
    }

    /// Are `level`'s communication schedules stale — did the level
    /// itself, or the coarser level its fills interpolate from, change
    /// structure?
    pub fn schedules_stale(&self, level: usize) -> bool {
        self.levels_changed[level] || (level > 0 && self.levels_changed[level - 1])
    }
}

/// A regrid pass failed on an injected (or simulated) fault. The pass
/// runs through its full communication pattern before reporting —
/// failure verdicts that could diverge across ranks are made collective
/// first — so an error here never leaves a peer stranded mid-exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegridError {
    /// A point-to-point or collective transport fault.
    Comm(CommError),
    /// The partitioned-metadata handshake detected divergent views.
    Divergence(MetadataDivergence),
    /// Packing or unpacking solution-transfer data failed.
    Data(PatchDataError),
}

impl std::fmt::Display for RegridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Comm(e) => write!(f, "regrid transport fault: {e}"),
            Self::Divergence(e) => write!(f, "regrid metadata fault: {e}"),
            Self::Data(e) => write!(f, "regrid data fault: {e}"),
        }
    }
}

impl std::error::Error for RegridError {}

impl From<CommError> for RegridError {
    fn from(e: CommError) -> Self {
        Self::Comm(e)
    }
}

impl From<MetadataDivergence> for RegridError {
    fn from(e: MetadataDivergence) -> Self {
        Self::Divergence(e)
    }
}

impl From<ScheduleError> for RegridError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::Comm(c) => Self::Comm(c),
            ScheduleError::Data(d) => Self::Data(d),
        }
    }
}

impl From<ExchangeError> for RegridError {
    fn from(e: ExchangeError) -> Self {
        match e {
            ExchangeError::Comm(c) => Self::Comm(c),
            ExchangeError::Divergence(d) => Self::Divergence(d),
        }
    }
}

/// The regridding driver.
pub struct Regridder {
    params: RegridParams,
}

impl Regridder {
    /// Create a driver with the given parameters.
    ///
    /// # Panics
    /// Panics if the nesting buffer is < 1 (the paper's properly-nested
    /// requirement).
    pub fn new(params: RegridParams) -> Self {
        assert!(params.nesting_buffer >= 1, "nesting buffer must be >= 1");
        assert!(params.tag_buffer >= 0, "negative tag buffer");
        Self { params }
    }

    /// The parameters.
    pub fn params(&self) -> &RegridParams {
        &self.params
    }

    /// Rebuild every level finer than level 0.
    ///
    /// Flags with `tagger`, clusters, load balances, rebuilds the levels
    /// and transfers the solution (`specs`). Charges `Category::Regrid`
    /// on data movement.
    ///
    /// A level whose planned structure (boxes and owners) reproduces the
    /// existing one is left entirely in place — no rebuild, no data
    /// transfer (the transfer would be the identity) — and reported as
    /// unchanged in the returned [`RegridOutcome`], so callers can keep
    /// (or cache-fetch) its communication schedules.
    pub fn regrid(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        tagger: &dyn CellTagger,
        specs: &[TransferSpec],
        comm: Option<&Comm>,
        time: f64,
    ) -> RegridOutcome {
        self.try_regrid(hierarchy, registry, tagger, specs, comm, time)
            .unwrap_or_else(|e| panic!("regrid: unhandled injected fault: {e}"))
    }

    /// Fault-aware [`Regridder::regrid`]: injected transport, metadata,
    /// or device faults surface as a typed [`RegridError`] instead of a
    /// panic. Fault verdicts that could diverge across ranks (clustering
    /// on rank 0, metadata handshake) are made collective before any rank
    /// acts on them, so every rank either completes the pass or errors —
    /// never a hang.
    ///
    /// # Errors
    /// [`RegridError`] on the fault; the hierarchy may hold partially
    /// rebuilt levels and must be restored from a checkpoint before the
    /// next use.
    pub fn try_regrid(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        tagger: &dyn CellTagger,
        specs: &[TransferSpec],
        comm: Option<&Comm>,
        time: f64,
    ) -> Result<RegridOutcome, RegridError> {
        let rec = hierarchy.recorder().clone();
        let _span = rec.is_enabled().then(|| rec.span("regrid", Category::Regrid));
        let max_levels = hierarchy.max_levels();
        let finest_target = (hierarchy.finest_level() + 1).min(max_levels - 1);
        // Planned boxes per level (fine index space of that level).
        let mut planned: Vec<Option<Vec<GBox>>> = vec![None; max_levels];
        // Nesting footprints to merge into coarser plans, indexed by the
        // tag level they apply to.
        let mut nesting_cover: Vec<BoxList> = vec![BoxList::new(); max_levels];
        let mut tags_flagged: u64 = 0;

        // --- Plan, from second finest down to coarsest ----------------
        for target in (1..=finest_target).rev() {
            let tag_level = target - 1;
            let ratio = hierarchy.ratio_to_coarser(target);
            let tag_domain = hierarchy.level_domain(tag_level);

            // Flag (on levels that currently exist — tag_level always
            // does, since target <= finest + 1).
            let bitmaps = tagger.tag_cells(hierarchy, tag_level, time);
            assert_eq!(
                bitmaps.len(),
                hierarchy.level(tag_level).local().len(),
                "tagger returned wrong number of bitmaps"
            );
            rec.count("regrid.tags_flagged", bitmaps.iter().map(|bm| bm.count() as u64).sum());

            // Cluster in tag-level index space, once: rank 0 clusters
            // every rank's tags and broadcasts the boxes. The verdict
            // is collective, so on error every rank returns together.
            let params = &self.params.cluster;
            let (tags, clustered) = match comm {
                Some(comm) => try_cluster_on_root(comm, &bitmaps, params)?,
                None => cluster_bitmaps(&bitmaps, params),
            };
            tags_flagged += tags;

            // Buffer, merge the nesting footprint of the finer level,
            // clip to the domain.
            let mut region = BoxList::from_boxes(
                clustered.iter().map(|b| b.grow(IntVector::uniform(self.params.tag_buffer))),
            );
            region.union(&nesting_cover[tag_level]);
            let mut clipped = BoxList::new();
            for b in region.boxes() {
                clipped.union(&tag_domain.intersect_box(*b));
            }
            clipped.coalesce();

            if clipped.is_empty() {
                planned[target] = Some(Vec::new());
                continue;
            }

            // Refine to the target level and split to the patch size cap.
            let mut fine_boxes = Vec::new();
            for b in clipped.boxes() {
                split_to_max(b.refine(ratio), self.params.max_patch_size, &mut fine_boxes);
            }
            planned[target] = Some(fine_boxes);

            // Nesting: the new level must be covered (plus buffer) by
            // the next coarser level when that gets rebuilt.
            if target >= 2 {
                let buffer = IntVector::uniform(self.params.nesting_buffer);
                let coarser_ratio = hierarchy.ratio_to_coarser(target - 1);
                let footprint = clipped.grow(buffer).coarsen(coarser_ratio);
                nesting_cover[target - 2].union(&footprint);
            }
        }

        // --- Rebuild + transfer, coarsest first ------------------------
        let nranks = hierarchy.nranks();
        let rank = hierarchy.rank();
        let partitioned = self.params.metadata_mode == MetadataMode::Partitioned;
        let mut new_num_levels = 1;
        let mut levels_changed = vec![false; max_levels];
        // Data-plane faults (pack/unpack/p2p) are rank-local: record the
        // first and keep the pass in lock-step — the structure decisions
        // are rank-invariant, so every rank still reaches every
        // collective. Only collectively-agreed failures return early.
        let mut first_err: Option<RegridError> = None;
        #[allow(clippy::needless_range_loop)] // target is a level number, not a plain index
        for target in 1..=finest_target {
            let boxes = planned[target].take().unwrap_or_default();
            if boxes.is_empty() {
                break;
            }
            let owners = partition_sfc(&boxes, nranks);
            rec.count("regrid.patches", boxes.len() as u64);
            let unchanged = target <= hierarchy.finest_level()
                && structure_matches(hierarchy, target, &boxes, &owners);
            if unchanged {
                // The full rebuild against an identical old level is the
                // identity (refine-from-coarse then overwrite everywhere
                // from the old data): keep the level and its data in
                // place, just restamp the time the rebuild would set.
                rec.count("regrid.levels_unchanged", 1);
                hierarchy.level_mut(target).set_time(time);
            } else {
                // Planned structure of the next finer level, if one
                // will exist — it seeds the new level's interest.
                let finer_plan = (target < finest_target)
                    .then(|| planned[target + 1].as_deref())
                    .flatten()
                    .filter(|b| !b.is_empty())
                    .map(|b| (b.to_vec(), partition_sfc(b, nranks)));
                if partitioned {
                    // The transfer reads the coarse level around every
                    // new patch and the old level under every new patch:
                    // widen and re-exchange those views first. Plan and
                    // digest comparison are rank-invariant, so every
                    // rank reaches these collectives together.
                    self.try_refresh_view(
                        hierarchy,
                        target - 1,
                        Some((&boxes, &owners)),
                        &[],
                        comm,
                    )?;
                    if target <= hierarchy.finest_level() {
                        let new_owned: Vec<GBox> = boxes
                            .iter()
                            .zip(&owners)
                            .filter(|&(_, &o)| o == rank)
                            .map(|(&b, _)| b)
                            .collect();
                        self.try_refresh_view(hierarchy, target, None, &new_owned, comm)?;
                    }
                }
                if let Err(e) = self.rebuild_level(
                    hierarchy, registry, target, boxes, owners, finer_plan, specs, comm, time,
                ) {
                    first_err.get_or_insert(e);
                }
                levels_changed[target] = true;
            }
            new_num_levels = target + 1;
        }
        hierarchy.truncate_levels(new_num_levels);
        if partitioned {
            // Settle every surviving view against the final structure —
            // unchanged levels whose neighbours changed (or vanished)
            // retain different records now. Each refresh is a
            // digest-verified exchange, so this doubles as the
            // post-regrid metadata handshake.
            for l in 0..new_num_levels {
                self.try_refresh_view(hierarchy, l, None, &[], comm)?;
            }
        }
        if let Some(comm) = comm {
            comm.try_barrier(Category::Regrid)?;
        }
        levels_changed.truncate(new_num_levels);
        match first_err {
            Some(e) => Err(e),
            None => Ok(RegridOutcome { num_levels: new_num_levels, levels_changed, tags_flagged }),
        }
    }

    /// Build the new level `target`, install it, and initialise its
    /// data from the level it replaces and the level below through one
    /// transfer schedule ([`RefineSchedule::regrid_transfer`]) — built,
    /// run once and dropped. The transfer runs through after a fault,
    /// so the level is always installed with the agreed structure and
    /// every peer's exchange completes; the first fault is returned.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_level(
        &self,
        hierarchy: &mut PatchHierarchy,
        registry: &VariableRegistry,
        target: usize,
        boxes: Vec<GBox>,
        owners: Vec<usize>,
        finer_plan: Option<(Vec<GBox>, Vec<usize>)>,
        specs: &[TransferSpec],
        comm: Option<&Comm>,
        time: f64,
    ) -> Result<(), RegridError> {
        let rank = hierarchy.rank();
        let ratio = hierarchy.ratio_to_coarser(target);
        let domain = hierarchy.level_domain(target);
        // Under partitioned metadata the level ends up holding a view.
        // The full planned structure is transiently known on every rank
        // (the plan is replicated), so the view is carved locally; the
        // post-regrid refresh pass re-exchanges and digest-verifies it
        // against every peer's owned records.
        let view = (self.params.metadata_mode == MetadataMode::Partitioned).then(|| {
            let owned_of = |boxes: &[GBox], owners: &[usize]| -> Vec<GBox> {
                boxes.iter().zip(owners).filter(|&(_, &o)| o == rank).map(|(&b, _)| b).collect()
            };
            let coarser_owned = owned_boxes_of(hierarchy.level(target - 1), rank);
            let finer = finer_plan
                .map(|(fb, fo)| (owned_of(&fb, &fo), hierarchy.ratio_to_coarser(target + 1)));
            let spec = interest_for_level(
                &owned_of(&boxes, &owners),
                Some((&coarser_owned, ratio)),
                finer.as_ref().map(|(b, r)| (b.as_slice(), *r)),
                self.params.margins,
            );
            view_from_global(target, ratio, &domain, &boxes, &owners, rank, &spec)
        });
        let new_level = PatchLevel::new(target, ratio, boxes, owners, domain, rank, registry);
        // The transfer plans against the new level's full plan and
        // reads the old level, held here until the data has moved.
        let mut outgoing = hierarchy.install_level(target, new_level);
        let old = outgoing.as_ref();
        let transfer =
            RefineSchedule::regrid_transfer(hierarchy, old, registry, target, specs, true);
        let transferred = transfer.try_transfer(hierarchy, outgoing.as_mut(), registry, comm, time);
        if let Some(view) = view {
            hierarchy.level_mut(target).adopt_view(view, rank);
        }
        Ok(transferred?)
    }

    /// [`try_refresh_partitioned_view`] with this driver's margins.
    fn try_refresh_view(
        &self,
        hierarchy: &mut PatchHierarchy,
        level_no: usize,
        finer_override: Option<(&[GBox], &[usize])>,
        extra_interest: &[GBox],
        comm: Option<&Comm>,
    ) -> Result<(), ExchangeError> {
        try_refresh_partitioned_view(
            hierarchy,
            level_no,
            finer_override,
            extra_interest,
            self.params.margins,
            comm,
        )
    }
}

/// Re-exchange (or first build) `level_no`'s partitioned view so it
/// reflects the current — or, via `finer_override`, the planned —
/// adjacent structure, widened by the `extra_interest` footprints a
/// solution transfer is about to read under. Owned records travel by
/// allgatherv and the result is digest-verified before adoption; a
/// replicated level is converted in place, its local patches and data
/// untouched. Verification and transport faults surface as a typed
/// [`ExchangeError`]; the verdict is collective — every rank returns
/// `Err` together, so no rank plans against a divergent view.
///
/// # Errors
/// [`ExchangeError`] when the digest-verified exchange fails.
pub fn try_refresh_partitioned_view(
    hierarchy: &mut PatchHierarchy,
    level_no: usize,
    finer_override: Option<(&[GBox], &[usize])>,
    extra_interest: &[GBox],
    margins: InterestMargins,
    comm: Option<&Comm>,
) -> Result<(), ExchangeError> {
    let rank = hierarchy.rank();
    let owned: Vec<BoxRecord> =
        hierarchy.level(level_no).records().iter().filter(|&(_, _, o)| o == rank).collect();
    let owned_boxes: Vec<GBox> = owned.iter().map(|&(_, b, _)| b).collect();
    let coarser: Option<(Vec<GBox>, IntVector)> = (level_no > 0).then(|| {
        (owned_boxes_of(hierarchy.level(level_no - 1), rank), hierarchy.ratio_to_coarser(level_no))
    });
    let finer: Option<(Vec<GBox>, IntVector)> = match finer_override {
        Some((fb, fo)) => Some((
            fb.iter().zip(fo).filter(|&(_, &o)| o == rank).map(|(&b, _)| b).collect(),
            hierarchy.ratio_to_coarser(level_no + 1),
        )),
        None => (level_no < hierarchy.finest_level()).then(|| {
            (
                owned_boxes_of(hierarchy.level(level_no + 1), rank),
                hierarchy.ratio_to_coarser(level_no + 1),
            )
        }),
    };
    let mut spec = interest_for_level(
        &owned_boxes,
        coarser.as_ref().map(|(b, r)| (b.as_slice(), *r)),
        finer.as_ref().map(|(b, r)| (b.as_slice(), *r)),
        margins,
    );
    let g = IntVector::uniform(margins.ghost + 2);
    for &b in extra_interest {
        spec.interest.add(b.grow(g));
    }
    let domain = hierarchy.level_domain(level_no);
    let ratio = hierarchy.level(level_no).ratio();
    let view = exchange_level_view(comm, level_no, ratio, &domain, &owned, &spec, rank)?;
    hierarchy.level_mut(level_no).adopt_view(view, rank);
    Ok(())
}

/// Convert every level of the hierarchy to partitioned metadata — or
/// refresh existing views — coarsest first, each level's exchange
/// digest-verified. Local patches and their data are untouched, so a
/// running simulation can switch its metadata in place.
pub fn partition_hierarchy_metadata(
    hierarchy: &mut PatchHierarchy,
    margins: InterestMargins,
    comm: Option<&Comm>,
) {
    try_partition_hierarchy_metadata(hierarchy, margins, comm)
        .unwrap_or_else(|e| panic!("partition: {e}"));
}

/// Fault-aware [`partition_hierarchy_metadata`]: the first level whose
/// digest-verified exchange fails surfaces as a typed
/// [`ExchangeError`]. Each level's verdict is collective, so every rank
/// aborts at the same level together — a restore/recovery path can call
/// this under fault injection without risking divergent communication.
///
/// # Errors
/// [`ExchangeError`] from the first failing level exchange.
pub fn try_partition_hierarchy_metadata(
    hierarchy: &mut PatchHierarchy,
    margins: InterestMargins,
    comm: Option<&Comm>,
) -> Result<(), ExchangeError> {
    for l in 0..hierarchy.num_levels() {
        try_refresh_partitioned_view(hierarchy, l, None, &[], margins, comm)?;
    }
    Ok(())
}

/// Does `hierarchy.level(target)` already have exactly this planned
/// structure? Replicated levels compare the full arrays; partitioned
/// levels (which hold only a partial view) compare the structure digest
/// the plan finalizes to — the same rank-invariant commitment the
/// exchange verifies against.
fn structure_matches(
    hierarchy: &PatchHierarchy,
    target: usize,
    boxes: &[GBox],
    owners: &[usize],
) -> bool {
    let level = hierarchy.level(target);
    if level.is_partitioned() {
        let items = structure_items_digest(
            boxes.iter().zip(owners).enumerate().map(|(i, (&b, &o))| (i, b, o)),
        );
        let digest = finalize_structure_digest(
            target,
            level.ratio(),
            &hierarchy.level_domain(target),
            &items,
        );
        digest == level.structure_digest()
    } else {
        level.global_boxes() == boxes && level.owners() == owners
    }
}

/// Boxes of the records `rank` owns on `level`, ascending by index.
fn owned_boxes_of(level: &PatchLevel, rank: usize) -> Vec<GBox> {
    level.records().iter().filter(|&(_, _, o)| o == rank).map(|(_, b, _)| b).collect()
}

/// The tag count and the Berger–Rigoutsos boxes of `bitmaps`' cells.
fn cluster_bitmaps(bitmaps: &[TagBitmap], params: &ClusterParams) -> (u64, Vec<GBox>) {
    let cells: Vec<IntVector> = bitmaps.iter().flat_map(TagBitmap::tagged_cells).collect();
    (cells.len() as u64, cluster_tags(&cells, params))
}

/// [`cluster_bitmaps`] over every rank's tags, run once: each rank
/// gathers the wire record of each of its tagged patches to rank 0
/// ([`TagBitmap::encode_into`]; an untagged patch sends nothing), and
/// rank 0 clusters them in rank order and broadcasts the tag count and
/// the boxes. Clustering depends only on the set of tags, so these are
/// the boxes every rank would cluster from the union.
///
/// A final agreement reduction makes every fault a collective verdict:
/// either every rank returns the same boxes, or every rank returns
/// `Err` together. A fault on the gather or a malformed record leaves
/// rank 0 with nothing to broadcast, and a fault on the broadcast leaves
/// one rank without the boxes; either fails the agreement.
fn try_cluster_on_root(
    comm: &Comm,
    local: &[TagBitmap],
    params: &ClusterParams,
) -> Result<(u64, Vec<GBox>), CommError> {
    let mut payload = Vec::new();
    local.iter().filter(|bm| bm.any()).for_each(|bm| bm.encode_into(&mut payload));
    let gathered = comm.try_gather(0, payload.into(), Category::Regrid);
    // The gather runs through, so rank 0 always broadcasts: nothing
    // when it lost a part.
    let parts = gathered.as_ref().ok().and_then(Option::as_deref);
    let clustered = parts.and_then(decode_records).map(|bitmaps| {
        let (tags, boxes) = cluster_bitmaps(&bitmaps, params);
        let words = boxes.iter().flat_map(|b| [b.lo.x, b.lo.y, b.hi.x, b.hi.y]);
        std::iter::once(tags as i64).chain(words).flat_map(i64::to_le_bytes).collect::<Vec<_>>()
    });
    let root = (comm.rank() == 0).then(|| clustered.unwrap_or_default().into());
    let received = comm.broadcast(0, root, Category::Regrid);
    let words: Vec<i64> = (received.as_deref().unwrap_or_default().chunks_exact(8))
        .map(|w| i64::from_le_bytes(w.try_into().expect("8 bytes")))
        .collect();
    let boxes = words.get(1..).unwrap_or_default().chunks_exact(4);
    let boxes = boxes.map(|w| GBox::from_coords(w[0], w[1], w[2], w[3])).collect();
    let result = words.first().map(|&tags| (tags as u64, boxes));
    // Agreement: every rank learns whether any rank faulted, so no rank
    // plans against boxes its peers do not share.
    let first_err = gathered.err().or(received.err());
    let vote = if first_err.is_none() && result.is_some() { 1.0 } else { 0.0 };
    match comm.try_allreduce_min(vote, Category::Regrid) {
        Ok(v) if v >= 0.5 => Ok(result.expect("every rank holds the boxes")),
        agreed => Err(first_err
            .or(agreed.err())
            .unwrap_or(CommError::CollectiveFault { name: "tag-exchange" })),
    }
}

/// The bitmaps of the wire records in `parts`, in order; `None` if any
/// record is malformed.
fn decode_records(parts: &[bytes::Bytes]) -> Option<Vec<TagBitmap>> {
    let mut out = Vec::new();
    for mut part in parts.iter().map(|p| &p[..]) {
        while !part.is_empty() {
            out.push(TagBitmap::decode(&mut part)?);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GridGeometry;
    use crate::hostdata::HostDataFactory;
    use crate::ops::{ConservativeCellRefine, ConstantRefine, LinearNodeRefine};
    use rbamr_geometry::Centring;
    use rbamr_netsim::Cluster;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    /// Tags a fixed box of cells on level 0, nothing elsewhere.
    struct BoxTagger {
        region: GBox,
    }

    impl CellTagger for BoxTagger {
        fn tag_cells(&self, h: &PatchHierarchy, level: usize, _time: f64) -> Vec<TagBitmap> {
            h.level(level)
                .local()
                .iter()
                .map(|p| {
                    let cells: Vec<i32> = p
                        .cell_box()
                        .iter()
                        .map(|q| {
                            let hit = level == 0 && self.region.contains(q);
                            i32::from(hit)
                        })
                        .collect();
                    TagBitmap::compress(p.cell_box(), &cells)
                })
                .collect()
        }
    }

    fn setup() -> (PatchHierarchy, VariableRegistry, VariableId) {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 32, 32)),
            IntVector::uniform(2),
            3,
            0,
            1,
        );
        h.set_level(0, vec![b(0, 0, 32, 32)], vec![0], &reg);
        (h, reg, var)
    }

    #[test]
    fn owner_only_transfer_plans_match_the_full_walk() {
        // Coarse tiles over the whole domain; new fine tiles meet the old
        // ones edge to edge in x and half a tile apart in y, so sources
        // sit on the edges of the reach (dropping any term or `+ 1` of
        // it fails this test).
        let tiles = |(x0, y0): (i64, i64), (nx, ny): (i64, i64)| -> Vec<GBox> {
            let at = |t: i64| (x0 + t % nx * 8, y0 + t / nx * 8);
            (0..nx * ny).map(at).map(|(x, y)| b(x, y, x + 8, y + 8)).collect()
        };
        let (coarse, old, new) =
            (tiles((0, 0), (4, 4)), tiles((16, 16), (3, 3)), tiles((0, 12), (6, 3)));
        for nranks in 1..=8 {
            for mode in [MetadataMode::Replicated, MetadataMode::Partitioned] {
                Cluster::new(rbamr_perfmodel::Machine::ipa_cpu_node()).run(nranks, |comm| {
                    let owners =
                        |n: usize, k: usize| (0..n).map(|i| (i * k + 1) % nranks).collect();
                    let (rank, margins) = (comm.rank(), InterestMargins::default());
                    let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
                    let qc = reg.register("qc", Centring::Cell, IntVector::uniform(2));
                    let qn = reg.register("qn", Centring::Node, IntVector::ONE);
                    let qk = reg.register("qk", Centring::Cell, IntVector::ONE);
                    let specs = [
                        TransferSpec { var: qc, refine_op: Arc::new(ConservativeCellRefine) },
                        TransferSpec { var: qn, refine_op: Arc::new(LinearNodeRefine) },
                        TransferSpec { var: qk, refine_op: Arc::new(ConstantRefine) },
                    ];
                    let domain = BoxList::from_box(b(0, 0, 32, 32));
                    let ratio = IntVector::uniform(2);
                    let mut h = PatchHierarchy::new(
                        GridGeometry::unit(1.0),
                        domain,
                        ratio,
                        2,
                        rank,
                        nranks,
                    );
                    h.set_level(0, coarse.clone(), owners(coarse.len(), 5), &reg);
                    h.set_level(1, old.clone(), owners(old.len(), 3), &reg);
                    let new_owners: Vec<usize> = owners(new.len(), 7);
                    if mode == MetadataMode::Partitioned {
                        let (finer, comm) = (Some((&new[..], &new_owners[..])), Some(&comm));
                        let mine = new.iter().zip(&new_owners);
                        let mine: Vec<GBox> =
                            (mine.filter(|&(_, &o)| o == rank)).map(|(&b, _)| b).collect();
                        try_partition_hierarchy_metadata(&mut h, margins, comm).unwrap();
                        try_refresh_partitioned_view(&mut h, 0, finer, &[], margins, comm).unwrap();
                        try_refresh_partitioned_view(&mut h, 1, None, &mine, margins, comm)
                            .unwrap();
                    }
                    let level = PatchLevel::new(
                        1,
                        ratio,
                        new.clone(),
                        new_owners,
                        h.level_domain(1),
                        rank,
                        &reg,
                    );
                    let outgoing = h.install_level(1, level);
                    let plan = |indexed| {
                        let t = RefineSchedule::regrid_transfer(
                            &h,
                            outgoing.as_ref(),
                            &reg,
                            1,
                            &specs,
                            indexed,
                        );
                        t.plan_digest()
                    };
                    let full = plan(false);
                    assert!(!full.is_empty() || nranks > 1);
                    assert_eq!(plan(true), full, "rank {rank} of {nranks}, {mode:?}");
                });
            }
        }
    }

    #[test]
    fn regrid_creates_a_level_over_tags() {
        let (mut h, reg, var) = setup();
        // Seed level 0 with a linear field so transfer is checkable.
        {
            let p = h.level_mut(0).local_by_index_mut(0).unwrap();
            let cb = p.data(var).ghost_cell_box();
            let d = p.host_mut::<f64>(var);
            for q in cb.iter() {
                *d.at_mut(q) = q.x as f64 + 0.5;
            }
        }
        let tagger = BoxTagger { region: b(10, 10, 16, 16) };
        let rg = Regridder::new(RegridParams::default());
        let outcome = rg.regrid(
            &mut h,
            &reg,
            &tagger,
            &[TransferSpec { var, refine_op: Arc::new(ConservativeCellRefine) }],
            None,
            0.0,
        );
        assert_eq!(outcome.num_levels, 2);
        assert_eq!(outcome.levels_changed, vec![false, true]);
        assert!(outcome.tags_flagged > 0);
        assert!(outcome.schedules_stale(1));
        let lvl1 = h.level(1);
        // Tagged region (plus buffer) is covered, refined.
        let covered = lvl1.covered();
        assert!(covered.contains_box(b(10, 10, 16, 16).refine(IntVector::uniform(2))));
        // Data was interpolated: check a fine cell's value against the
        // coarse linear field (fine centre x = (qx+0.5)/2).
        let p = lvl1.local().first().expect("level 1 has local patches");
        let d = p.host::<f64>(var);
        let q = p.cell_box().lo;
        let expect = (q.x as f64 + 0.5) / 2.0;
        assert!((d.at(q) - expect).abs() < 1e-12, "{} vs {expect}", d.at(q));
    }

    #[test]
    fn regrid_without_tags_removes_fine_levels() {
        let (mut h, reg, var) = setup();
        h.set_level(1, vec![b(8, 8, 24, 24)], vec![0], &reg);
        assert_eq!(h.num_levels(), 2);
        let tagger = BoxTagger { region: GBox::EMPTY };
        let rg = Regridder::new(RegridParams::default());
        let outcome = rg.regrid(
            &mut h,
            &reg,
            &tagger,
            &[TransferSpec { var, refine_op: Arc::new(ConservativeCellRefine) }],
            None,
            0.0,
        );
        assert_eq!(outcome.num_levels, 1);
        assert_eq!(outcome.levels_changed, vec![false]);
        assert_eq!(h.num_levels(), 1);
    }

    #[test]
    fn structure_preserving_regrid_keeps_the_level_in_place() {
        let (mut h, reg, var) = setup();
        let tagger = BoxTagger { region: b(10, 10, 16, 16) };
        let rg = Regridder::new(RegridParams::default());
        let specs = [TransferSpec { var, refine_op: Arc::new(ConservativeCellRefine) }];
        let first = rg.regrid(&mut h, &reg, &tagger, &specs, None, 0.0);
        assert_eq!(first.levels_changed, vec![false, true]);
        let boxes_before = h.level(1).global_boxes().to_vec();
        let digest_before = h.structure_digest(1);
        // Scribble on the fine data: an unchanged regrid must not touch it.
        {
            let p = h.level_mut(1).local_by_index_mut(0).unwrap();
            p.host_mut::<f64>(var).fill(123.0);
        }
        // Same tags again: identical plan, level kept in place.
        let second = rg.regrid(&mut h, &reg, &tagger, &specs, None, 1.0);
        assert_eq!(second.num_levels, 2);
        assert_eq!(second.levels_changed, vec![false, false]);
        assert!(!second.any_changed());
        assert!(!second.schedules_stale(1));
        assert_eq!(h.level(1).global_boxes(), boxes_before.as_slice());
        assert_eq!(h.structure_digest(1), digest_before);
        let p = h.level(1).local_by_index(0).unwrap();
        let probe = p.cell_box().lo;
        assert_eq!(p.host::<f64>(var).at(probe), 123.0, "unchanged level lost its data");
        assert_eq!(p.data(var).time(), 1.0, "unchanged level time not restamped");
    }

    #[test]
    fn regrid_preserves_old_fine_data_where_levels_overlap() {
        let (mut h, reg, var) = setup();
        h.set_level(1, vec![b(24, 24, 40, 40)], vec![0], &reg);
        // Distinct fine data in the old level.
        {
            let p = h.level_mut(1).local_by_index_mut(0).unwrap();
            p.host_mut::<f64>(var).fill(99.0);
        }
        // Re-tag an overlapping region: cells 10..14 on level 0 (plus
        // the one-cell tag buffer) refine to 18..30 on level 1,
        // overlapping the old patch from 24.
        let tagger = BoxTagger { region: b(10, 10, 14, 14) };
        let rg = Regridder::new(RegridParams::default());
        rg.regrid(
            &mut h,
            &reg,
            &tagger,
            &[TransferSpec { var, refine_op: Arc::new(ConservativeCellRefine) }],
            None,
            0.0,
        );
        let lvl1 = h.level(1);
        // A fine cell inside both old and new coverage kept old data.
        let probe = IntVector::new(26, 26);
        let p = lvl1
            .local()
            .iter()
            .find(|p| p.cell_box().contains(probe))
            .expect("probe cell is covered");
        assert_eq!(p.host::<f64>(var).at(probe), 99.0);
        // A fine cell only in the new coverage was interpolated (zeros
        // from the untouched coarse level).
        let probe2 = IntVector::new(19, 19);
        let p2 =
            lvl1.local().iter().find(|p| p.cell_box().contains(probe2)).expect("probe2 covered");
        assert_eq!(p2.host::<f64>(var).at(probe2), 0.0);
    }

    #[test]
    fn three_level_regrid_nests_properly() {
        let (mut h, reg, var) = setup();
        // Existing level 1 so the driver may build level 2.
        h.set_level(1, vec![b(16, 16, 40, 40)], vec![0], &reg);
        // Tag the centre on both existing levels.
        struct CentreTagger;
        impl CellTagger for CentreTagger {
            fn tag_cells(&self, h: &PatchHierarchy, level: usize, _t: f64) -> Vec<TagBitmap> {
                let centre = match level {
                    0 => b(12, 12, 18, 18),
                    _ => b(26, 26, 34, 34),
                };
                h.level(level)
                    .local()
                    .iter()
                    .map(|p| {
                        let cells: Vec<i32> =
                            p.cell_box().iter().map(|q| i32::from(centre.contains(q))).collect();
                        TagBitmap::compress(p.cell_box(), &cells)
                    })
                    .collect()
            }
        }
        let rg = Regridder::new(RegridParams::default());
        let outcome = rg.regrid(
            &mut h,
            &reg,
            &CentreTagger,
            &[TransferSpec { var, refine_op: Arc::new(ConservativeCellRefine) }],
            None,
            0.0,
        );
        assert_eq!(outcome.num_levels, 3);
        // Level 2 nests in level 1 with the paper's one-cell buffer.
        let fine_boxes: Vec<GBox> = h.level(2).global_boxes().to_vec();
        let coverage = h.level(1).covered();
        let ok = crate::nesting::is_properly_nested(
            &fine_boxes,
            &coverage,
            &h.level_domain(1),
            IntVector::ONE,
            IntVector::uniform(2),
        );
        assert!(ok, "level 2 not properly nested in level 1");
    }
}
