//! Patch levels: all patches at one refinement resolution.

use crate::partition::{finalize_structure_digest, structure_items_digest, LevelView};
use crate::patch::{Patch, PatchId};
use crate::variable::VariableRegistry;
use rbamr_geometry::{BoxIndex, BoxList, GBox, IntVector};

/// How a level's box metadata is held on this rank.
enum LevelMetadata {
    /// The full box/owner arrays, replicated on every rank
    /// (SAMRAI-style).
    Replicated { boxes: Vec<GBox>, owners: Vec<usize> },
    /// Only this rank's owned records plus a ghosted interest
    /// neighborhood (see [`crate::partition`]).
    Partitioned { view: LevelView },
}

/// One refinement level of the hierarchy: the description of its
/// patches — replicated on every rank (SAMRAI-style) or held as a
/// partitioned [`LevelView`] — plus the locally owned [`Patch`] objects
/// with data.
pub struct PatchLevel {
    level_no: usize,
    /// Ratio to the next coarser level (`IntVector::ONE` for level 0).
    ratio: IntVector,
    metadata: LevelMetadata,
    /// The level's index-space domain (the refined physical domain).
    domain: BoxList,
    /// Locally owned patches, carrying data.
    local: Vec<Patch>,
    /// Digest of the level structure (boxes, owners, ratio, domain),
    /// computed once at construction. See [`PatchLevel::structure_digest`].
    structure_digest: u64,
    /// Number of patches on the level across all ranks.
    num_global: usize,
    /// Total cells on the level across all ranks.
    global_cells: i64,
}

/// Digest of a level structure: level number, ratio, domain, and the
/// indexed (box, owner) records combined order-independently. Every rank
/// computes the identical value from the replicated metadata — the rank
/// itself is deliberately *not* part of the digest. Split into
/// [`structure_items_digest`] and [`finalize_structure_digest`] so
/// per-rank owned partials can be combined to the same value through an
/// allreduce (the partitioned-metadata handshake).
fn compute_structure_digest(
    level_no: usize,
    ratio: IntVector,
    boxes: &[GBox],
    owners: &[usize],
    domain: &BoxList,
) -> u64 {
    let items = structure_items_digest(
        boxes.iter().zip(owners).enumerate().map(|(index, (&b, &o))| (index, b, o)),
    );
    finalize_structure_digest(level_no, ratio, domain, &items)
}

/// A uniform, borrow-only handle on a level's box records, hiding
/// whether the metadata is replicated (dense, position == global index)
/// or a partitioned view (sparse, positions map to ascending global
/// indices). Schedule and regrid planning iterate records through this
/// so one code path serves both modes.
#[derive(Clone, Copy)]
pub struct LevelRecords<'a> {
    indices: Option<&'a [usize]>,
    boxes: &'a [GBox],
    owners: &'a [usize],
    num_global: usize,
}

impl<'a> LevelRecords<'a> {
    /// Number of records held (== `num_global` only for complete views).
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether no records are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Number of records on the level across all ranks.
    #[must_use]
    pub fn num_global(&self) -> usize {
        self.num_global
    }

    /// Whether every global record is held.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.len() == self.num_global
    }

    /// The global patch index of the record at `pos`.
    #[must_use]
    pub fn global_index(&self, pos: usize) -> usize {
        self.indices.map_or(pos, |ix| ix[pos])
    }

    /// The box of the record at `pos`.
    #[must_use]
    pub fn box_at(&self, pos: usize) -> GBox {
        self.boxes[pos]
    }

    /// The owner rank of the record at `pos`.
    #[must_use]
    pub fn owner_at(&self, pos: usize) -> usize {
        self.owners[pos]
    }

    /// The held boxes, by position (feed these to a `BoxIndex`; map the
    /// returned positions back with [`Self::global_index`]).
    #[must_use]
    pub fn boxes(&self) -> &'a [GBox] {
        self.boxes
    }

    /// Position of a global index, if held.
    #[must_use]
    pub fn position_of(&self, global_index: usize) -> Option<usize> {
        match self.indices {
            None => (global_index < self.boxes.len()).then_some(global_index),
            Some(ix) => ix.binary_search(&global_index).ok(),
        }
    }

    /// Iterate the held `(global index, box, owner)` records in
    /// ascending global-index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, GBox, usize)> + 'a {
        let indices = self.indices;
        self.boxes
            .iter()
            .zip(self.owners)
            .enumerate()
            .map(move |(pos, (&b, &o))| (indices.map_or(pos, |ix| ix[pos]), b, o))
    }
}

/// Shared construction-time validation of a set of patch boxes.
/// Overlaps are found through a [`BoxIndex`]; each pair is reported at
/// its lower index, as the pairwise scan did.
fn validate_boxes(boxes: &[GBox], domain: &BoxList) {
    let (index, mut hits) = (BoxIndex::new(boxes, IntVector::ZERO), Vec::new());
    for (i, b) in boxes.iter().enumerate() {
        assert!(!b.is_empty(), "PatchLevel: empty patch box {i}");
        assert!(domain.contains_box(*b), "PatchLevel: patch box {b:?} escapes level domain");
        index.query_into(*b, &mut hits);
        if let Some(&j) = hits.iter().find(|&&j| j != i) {
            panic!("PatchLevel: overlapping patch boxes {b:?}, {:?}", boxes[j]);
        }
    }
}

impl PatchLevel {
    /// Build a level with replicated metadata: allocate data for the
    /// boxes owned by `my_rank`.
    ///
    /// # Panics
    /// Panics if `boxes` and `owners` disagree in length, any box is
    /// empty or escapes `domain`, or boxes overlap.
    pub fn new(
        level_no: usize,
        ratio: IntVector,
        boxes: Vec<GBox>,
        owners: Vec<usize>,
        domain: BoxList,
        my_rank: usize,
        registry: &VariableRegistry,
    ) -> Self {
        assert_eq!(boxes.len(), owners.len(), "PatchLevel: boxes/owners mismatch");
        validate_boxes(&boxes, &domain);
        let local = boxes
            .iter()
            .zip(&owners)
            .enumerate()
            .filter(|(_, (_, &o))| o == my_rank)
            .map(|(index, (&b, &o))| Patch::new(PatchId { level: level_no, index }, b, o, registry))
            .collect();
        let structure_digest = compute_structure_digest(level_no, ratio, &boxes, &owners, &domain);
        let num_global = boxes.len();
        let global_cells = boxes.iter().map(|b| b.num_cells()).sum();
        Self {
            level_no,
            ratio,
            metadata: LevelMetadata::Replicated { boxes, owners },
            domain,
            local,
            structure_digest,
            num_global,
            global_cells,
        }
    }

    /// Build a level from a verified partitioned [`LevelView`]: data is
    /// allocated for the view's records owned by `my_rank`. The level's
    /// structure digest is the view's verified global digest, so
    /// schedule-cache keys agree with the replicated twin.
    ///
    /// # Panics
    /// Panics if the view's boxes are empty, escape `domain`, or
    /// overlap, or if the view is global-empty (levels always hold at
    /// least one patch).
    pub fn new_partitioned(
        level_no: usize,
        ratio: IntVector,
        view: LevelView,
        domain: BoxList,
        my_rank: usize,
        registry: &VariableRegistry,
    ) -> Self {
        assert!(view.num_global() > 0, "PatchLevel: partitioned level with no global patches");
        validate_boxes(view.boxes(), &domain);
        let local = view
            .iter()
            .filter(|&(_, _, o)| o == my_rank)
            .map(|(index, b, o)| Patch::new(PatchId { level: level_no, index }, b, o, registry))
            .collect();
        let structure_digest = view.global_digest();
        let num_global = view.num_global();
        let global_cells = view.global_cells();
        Self {
            level_no,
            ratio,
            metadata: LevelMetadata::Partitioned { view },
            domain,
            local,
            structure_digest,
            num_global,
            global_cells,
        }
    }

    /// Convert a replicated level to partitioned metadata in place,
    /// keeping the local patches (and their data) untouched.
    ///
    /// # Panics
    /// Panics if the view describes a different structure (digest
    /// mismatch) or a different owned set than the local patches.
    pub fn adopt_view(&mut self, view: LevelView, my_rank: usize) {
        assert_eq!(
            view.global_digest(),
            self.structure_digest,
            "adopt_view: view describes a different structure than the level"
        );
        let owned: Vec<usize> =
            view.iter().filter(|&(_, _, o)| o == my_rank).map(|(i, _, _)| i).collect();
        let local: Vec<usize> = self.local.iter().map(|p| p.id().index).collect();
        assert_eq!(owned, local, "adopt_view: view owned set differs from local patches");
        self.metadata = LevelMetadata::Partitioned { view };
    }

    /// The partitioned view, if this level holds one.
    #[must_use]
    pub fn view(&self) -> Option<&LevelView> {
        match &self.metadata {
            LevelMetadata::Replicated { .. } => None,
            LevelMetadata::Partitioned { view } => Some(view),
        }
    }

    /// Whether this level holds partitioned metadata.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        matches!(self.metadata, LevelMetadata::Partitioned { .. })
    }

    /// The level number (0 = coarsest).
    pub fn level_no(&self) -> usize {
        self.level_no
    }

    /// Refinement ratio to the next coarser level.
    pub fn ratio(&self) -> IntVector {
        self.ratio
    }

    /// The level's index-space domain.
    pub fn domain(&self) -> &BoxList {
        &self.domain
    }

    /// The level's box records as seen from this rank: every record for
    /// replicated metadata, the owned + interest neighborhood for a
    /// partitioned view.
    #[must_use]
    pub fn records(&self) -> LevelRecords<'_> {
        match &self.metadata {
            LevelMetadata::Replicated { boxes, owners } => {
                LevelRecords { indices: None, boxes, owners, num_global: self.num_global }
            }
            LevelMetadata::Partitioned { view } => LevelRecords {
                indices: Some(view.indices()),
                boxes: view.boxes(),
                owners: view.owners(),
                num_global: self.num_global,
            },
        }
    }

    /// All patch boxes on the level, indexed by global patch index.
    ///
    /// # Panics
    /// Panics on a partitioned level holding only a partial view — use
    /// [`PatchLevel::records`] there. (A complete partitioned view,
    /// e.g. at one rank, is served normally.)
    pub fn global_boxes(&self) -> &[GBox] {
        match &self.metadata {
            LevelMetadata::Replicated { boxes, .. } => boxes,
            LevelMetadata::Partitioned { view } => {
                assert!(
                    view.is_complete(),
                    "PatchLevel::global_boxes: level {} holds a partial view ({} of {} \
                     records); use records()",
                    self.level_no,
                    view.len(),
                    view.num_global()
                );
                view.boxes()
            }
        }
    }

    /// Owner rank of the global patch `index`.
    ///
    /// # Panics
    /// Panics if a partitioned view does not hold the record.
    pub fn owner_of(&self, index: usize) -> usize {
        match &self.metadata {
            LevelMetadata::Replicated { owners, .. } => owners[index],
            LevelMetadata::Partitioned { view } => {
                let pos = view.position_of(index).unwrap_or_else(|| {
                    panic!(
                        "PatchLevel::owner_of: global index {index} is outside rank's \
                         partitioned view of level {}",
                        self.level_no
                    )
                });
                view.owners()[pos]
            }
        }
    }

    /// Owner rank of every global patch, indexed like
    /// [`PatchLevel::global_boxes`].
    ///
    /// # Panics
    /// Panics on a partial partitioned view — use
    /// [`PatchLevel::records`] there.
    pub fn owners(&self) -> &[usize] {
        match &self.metadata {
            LevelMetadata::Replicated { owners, .. } => owners,
            LevelMetadata::Partitioned { view } => {
                assert!(
                    view.is_complete(),
                    "PatchLevel::owners: level {} holds a partial view; use records()",
                    self.level_no
                );
                view.owners()
            }
        }
    }

    /// A 64-bit digest of the level's structure: boxes, owners, ratio,
    /// level number, and domain. Identical on every rank (it is computed
    /// from the replicated metadata, or carried as the verified global
    /// digest of a partitioned view); any change to a box, an owner, or
    /// the patch ordering changes the digest. Used to key cached
    /// communication schedules and to verify partitioned exchanges.
    pub fn structure_digest(&self) -> u64 {
        self.structure_digest
    }

    /// Number of patches on the level (globally).
    pub fn num_patches(&self) -> usize {
        self.num_global
    }

    /// Total cells on the level (globally).
    pub fn num_cells(&self) -> i64 {
        self.global_cells
    }

    /// The region covered by the level's patches *as held on this
    /// rank*: every patch for replicated metadata, the owned + interest
    /// neighborhood for a partitioned view (sufficient for the shadow
    /// and nesting queries made against it, which only ask about the
    /// rank's own neighborhood).
    pub fn covered(&self) -> BoxList {
        match &self.metadata {
            LevelMetadata::Replicated { boxes, .. } => BoxList::from_boxes(boxes.iter().copied()),
            LevelMetadata::Partitioned { view } => {
                BoxList::from_boxes(view.boxes().iter().copied())
            }
        }
    }

    /// Locally owned patches.
    pub fn local(&self) -> &[Patch] {
        &self.local
    }

    /// Locally owned patches, mutable.
    pub fn local_mut(&mut self) -> &mut [Patch] {
        &mut self.local
    }

    /// Position in [`PatchLevel::local`] of the patch with global
    /// index `index`, if owned here. Every constructor fills the local
    /// array in ascending global-index order, so this is a binary
    /// search.
    fn local_position(&self, index: usize) -> Option<usize> {
        self.local.binary_search_by_key(&index, |p| p.id().index).ok()
    }

    /// Locally owned patch by global index, if owned here.
    pub fn local_by_index(&self, index: usize) -> Option<&Patch> {
        self.local_position(index).map(|pos| &self.local[pos])
    }

    /// Locally owned patch by global index, mutable.
    pub fn local_by_index_mut(&mut self, index: usize) -> Option<&mut Patch> {
        self.local_position(index).map(|pos| &mut self.local[pos])
    }

    /// Set the simulation time on all local data.
    pub fn set_time(&mut self, time: f64) {
        for p in &mut self.local {
            p.set_time(time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use crate::partition::{interest_for_level, view_from_global, InterestMargins};
    use rbamr_geometry::Centring;
    use std::sync::Arc;

    fn registry() -> VariableRegistry {
        let mut r = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r
    }

    fn domain() -> BoxList {
        BoxList::from_box(GBox::from_coords(0, 0, 16, 16))
    }

    #[test]
    fn only_owned_boxes_get_data() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let level = PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 1], domain(), 0, &r);
        assert_eq!(level.num_patches(), 2);
        assert_eq!(level.local().len(), 1);
        assert_eq!(level.local()[0].id().index, 0);
        assert_eq!(level.owner_of(1), 1);
        assert!(level.local_by_index(1).is_none());
        assert_eq!(level.num_cells(), 128);
    }

    #[test]
    fn covered_region_is_union_of_boxes() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 8, 16, 16)];
        let level = PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 0], domain(), 0, &r);
        let cov = level.covered();
        assert_eq!(cov.num_cells(), 128);
        assert!(!cov.contains(IntVector::new(12, 4)));
    }

    #[test]
    #[should_panic(expected = "overlapping patch boxes")]
    fn overlapping_boxes_rejected() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(4, 0, 12, 8)];
        PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 0], domain(), 0, &r);
    }

    #[test]
    #[should_panic(expected = "escapes level domain")]
    fn out_of_domain_boxes_rejected() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 32, 8)];
        PatchLevel::new(0, IntVector::ONE, boxes, vec![0], domain(), 0, &r);
    }

    #[test]
    fn structure_digest_is_rank_independent_and_structure_sensitive() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let mk = |boxes: Vec<GBox>, owners: Vec<usize>, rank: usize| {
            PatchLevel::new(0, IntVector::ONE, boxes, owners, domain(), rank, &r)
        };
        let base = mk(boxes.clone(), vec![0, 1], 0);
        // Same structure seen from another rank: identical digest.
        let other_rank = mk(boxes.clone(), vec![0, 1], 1);
        assert_eq!(base.structure_digest(), other_rank.structure_digest());
        // Owner change, box change, and permutation all alter it.
        let owners_changed = mk(boxes.clone(), vec![1, 0], 0);
        assert_ne!(base.structure_digest(), owners_changed.structure_digest());
        let boxes_changed =
            mk(vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 16)], vec![0, 1], 0);
        assert_ne!(base.structure_digest(), boxes_changed.structure_digest());
        let permuted = mk(vec![boxes[1], boxes[0]], vec![1, 0], 0);
        assert_ne!(base.structure_digest(), permuted.structure_digest());
    }

    #[test]
    fn partitioned_level_matches_replicated_twin() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let owners = vec![0, 1];
        let replicated =
            PatchLevel::new(0, IntVector::ONE, boxes.clone(), owners.clone(), domain(), 0, &r);
        let owned: Vec<GBox> = vec![boxes[0]];
        let spec = interest_for_level(&owned, None, None, InterestMargins::default());
        let view = view_from_global(0, IntVector::ONE, &domain(), &boxes, &owners, 0, &spec);
        let partitioned = PatchLevel::new_partitioned(0, IntVector::ONE, view, domain(), 0, &r);
        assert!(partitioned.is_partitioned());
        assert_eq!(partitioned.structure_digest(), replicated.structure_digest());
        assert_eq!(partitioned.num_patches(), 2);
        assert_eq!(partitioned.num_cells(), 128);
        assert_eq!(partitioned.local().len(), 1);
        assert_eq!(partitioned.local()[0].id().index, 0);
        // The neighbor is in the view (interest), so owner lookups work.
        assert_eq!(partitioned.owner_of(1), 1);
    }

    #[test]
    fn records_are_uniform_across_modes() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 8, 16, 16)];
        let owners = vec![0, 1];
        let replicated =
            PatchLevel::new(0, IntVector::ONE, boxes.clone(), owners.clone(), domain(), 0, &r);
        let spec = interest_for_level(&[boxes[0]], None, None, InterestMargins::default());
        let view = view_from_global(0, IntVector::ONE, &domain(), &boxes, &owners, 0, &spec);
        let partitioned = PatchLevel::new_partitioned(0, IntVector::ONE, view, domain(), 0, &r);
        let rep: Vec<_> = replicated.records().iter().collect();
        let par: Vec<_> = partitioned.records().iter().collect();
        // The 16x16 domain is small enough that the interest halo keeps
        // everything: both views see identical records here.
        assert_eq!(rep, par);
        assert_eq!(replicated.records().position_of(1), Some(1));
        assert!(replicated.records().is_complete());
    }

    #[test]
    #[should_panic(expected = "holds a partial view")]
    fn partial_view_refuses_global_boxes() {
        let r = registry();
        let big = BoxList::from_box(GBox::from_coords(0, 0, 64, 64));
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(56, 56, 64, 64)];
        let owners = vec![0, 1];
        let spec =
            interest_for_level(&[boxes[0]], None, None, InterestMargins { ghost: 2, stencil: 1 });
        let view = view_from_global(0, IntVector::ONE, &big, &boxes, &owners, 0, &spec);
        let level = PatchLevel::new_partitioned(0, IntVector::ONE, view, big, 0, &r);
        let _ = level.global_boxes();
    }
}
