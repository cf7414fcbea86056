//! Patch levels: all patches at one refinement resolution.

use crate::patch::{Patch, PatchId};
use crate::variable::VariableRegistry;
use rbamr_geometry::{BoxIndex, BoxList, Fnv64, GBox, IntVector, UnorderedDigest};

/// One refinement level of the hierarchy: the description of its
/// patches, replicated on every rank (SAMRAI-style), plus the locally
/// owned [`Patch`] objects with data.
pub struct PatchLevel {
    level_no: usize,
    /// Ratio to the next coarser level (`IntVector::ONE` for level 0).
    ratio: IntVector,
    /// Every patch box on the level, indexed by global patch index.
    boxes: Vec<GBox>,
    /// The owner rank of every patch, indexed like `boxes`.
    owners: Vec<usize>,
    /// The level's index-space domain (the refined physical domain).
    domain: BoxList,
    /// Locally owned patches, carrying data.
    local: Vec<Patch>,
    /// Digest of the level structure (boxes, owners, ratio, domain),
    /// computed once at construction. See [`PatchLevel::structure_digest`].
    structure_digest: u64,
    /// Total cells on the level across all ranks.
    global_cells: i64,
}

/// Hash of one indexed `(box, owner)` record. The index is bound in
/// because schedule plans address patches by global index: a
/// permutation of the same boxes is a different structure.
fn structure_item_hash(index: usize, b: GBox, owner: usize) -> u64 {
    let mut f = Fnv64::new();
    f.write_usize(index);
    f.write_gbox(b);
    f.write_usize(owner);
    f.finish()
}

/// Order-independent digest of a set of `(index, box, owner)` records.
fn structure_items_digest<I>(records: I) -> UnorderedDigest
where
    I: IntoIterator<Item = (usize, GBox, usize)>,
{
    let mut items = UnorderedDigest::new();
    for (index, b, owner) in records {
        items.add(structure_item_hash(index, b, owner));
    }
    items
}

/// Bind level number, ratio, and domain around an items digest,
/// producing the level structure digest
/// ([`PatchLevel::structure_digest`]). Identical on every rank.
fn finalize_structure_digest(
    level_no: usize,
    ratio: IntVector,
    domain: &BoxList,
    items: &UnorderedDigest,
) -> u64 {
    let mut f = Fnv64::new();
    f.write_usize(level_no);
    f.write_ivec(ratio);
    for b in domain.iter() {
        f.write_gbox(*b);
    }
    f.write_u64(items.finish());
    f.finish()
}

/// Digest of a level structure: level number, ratio, domain, and the
/// indexed (box, owner) records combined order-independently. Every rank
/// computes the identical value from the replicated metadata — the rank
/// itself is deliberately *not* part of the digest.
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

/// A borrow-only handle on a level's box records, dense by global patch
/// index. Schedule and regrid planning iterate records through this.
#[derive(Clone, Copy)]
pub struct LevelRecords<'a> {
    boxes: &'a [GBox],
    owners: &'a [usize],
}

impl<'a> LevelRecords<'a> {
    /// Number of records on the level.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the level has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The box of the record with global index `index`.
    #[must_use]
    pub fn box_at(&self, index: usize) -> GBox {
        self.boxes[index]
    }

    /// The owner rank of the record with global index `index`.
    #[must_use]
    pub fn owner_at(&self, index: usize) -> usize {
        self.owners[index]
    }

    /// The boxes, by global index (feed these to a `BoxIndex`).
    #[must_use]
    pub fn boxes(&self) -> &'a [GBox] {
        self.boxes
    }

    /// Iterate the `(global index, box, owner)` records in ascending
    /// global-index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, GBox, usize)> + 'a {
        self.boxes.iter().zip(self.owners).enumerate().map(|(index, (&b, &o))| (index, b, o))
    }
}

/// Whether `boxes` can be the patches of a level on `domain`: each one
/// non-empty and inside the domain, no two overlapping.
/// [`PatchLevel::new`] asserts it; a checkpoint restore reports it.
/// Overlaps are found through a [`BoxIndex`]; each pair is reported at
/// its lower index, as the pairwise scan did.
///
/// # Errors
/// What is wrong with the first offending box.
pub fn validate_boxes(boxes: &[GBox], domain: &BoxList) -> Result<(), String> {
    let (index, mut hits) = (BoxIndex::new(boxes, IntVector::ZERO), Vec::new());
    for (i, b) in boxes.iter().enumerate() {
        if b.is_empty() {
            return Err(format!("empty patch box {i}"));
        }
        if !domain.contains_box(*b) {
            return Err(format!("patch box {b:?} escapes level domain"));
        }
        index.query_into(*b, &mut hits);
        if let Some(&j) = hits.iter().find(|&&j| j != i) {
            return Err(format!("overlapping patch boxes {b:?}, {:?}", boxes[j]));
        }
    }
    Ok(())
}

impl PatchLevel {
    /// Build a level: allocate data for the boxes owned by `my_rank`.
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
        validate_boxes(&boxes, &domain).unwrap_or_else(|e| panic!("PatchLevel: {e}"));
        let local = boxes
            .iter()
            .zip(&owners)
            .enumerate()
            .filter(|(_, (_, &o))| o == my_rank)
            .map(|(index, (&b, &o))| Patch::new(PatchId { level: level_no, index }, b, o, registry))
            .collect();
        let structure_digest = compute_structure_digest(level_no, ratio, &boxes, &owners, &domain);
        let global_cells = boxes.iter().map(|b| b.num_cells()).sum();
        Self { level_no, ratio, boxes, owners, domain, local, structure_digest, global_cells }
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

    /// The level's box records.
    #[must_use]
    pub fn records(&self) -> LevelRecords<'_> {
        LevelRecords { boxes: &self.boxes, owners: &self.owners }
    }

    /// All patch boxes on the level, indexed by global patch index.
    pub fn global_boxes(&self) -> &[GBox] {
        &self.boxes
    }

    /// Owner rank of every global patch, indexed like
    /// [`PatchLevel::global_boxes`].
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// A 64-bit digest of the level's structure: boxes, owners, ratio,
    /// level number, and domain. Identical on every rank; any change to
    /// a box, an owner, or the patch ordering changes the digest. It is
    /// the level's generation: a schedule planned against the level is
    /// kept while the digest holds (see [`crate::RefineSchedule::is_current`]).
    pub fn structure_digest(&self) -> u64 {
        self.structure_digest
    }

    /// Number of patches on the level (globally).
    pub fn num_patches(&self) -> usize {
        self.boxes.len()
    }

    /// Total cells on the level (globally).
    pub fn num_cells(&self) -> i64 {
        self.global_cells
    }

    /// The region covered by the level's patches.
    pub fn covered(&self) -> BoxList {
        BoxList::from_boxes(self.boxes.iter().copied())
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
        assert_eq!(level.owners()[1], 1);
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
}
