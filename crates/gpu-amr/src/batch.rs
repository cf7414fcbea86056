//! Batched launch planning for the whole hierarchy.
//!
//! The paper's Figure 9 shows per-patch kernel launches dominating below
//! ~200k cells: every patch pays the fixed launch latency. The fix is to
//! fuse every local patch of every level into *one* launch per kernel,
//! indexed by a variable-size patch-descriptor array — one logical
//! element index spans every patch, and the descriptor table maps it
//! back to (level, patch, local offset); the level gives the patch's
//! cell widths. A [`BatchPlan`] is that descriptor table: built whenever
//! any level's box structure changes, cached beside the structure-keyed
//! `ScheduleBuild`, and made resident as one more table of the
//! integrator's build pass ([`PassTables`](rbamr_amr::PassTables)), in
//! the pass's one upload.
//!
//! The plan also owns the *interior/boundary* split geometry used for
//! communication/computation overlap: [`interior_core`] shrinks a patch
//! box by a stencil-dependent margin, and [`split_region`] divides a
//! kernel's nominal region into the core part (safe to compute while
//! halo exchange is in flight) and the boundary frame (must wait for
//! the exchange).

use rbamr_amr::transfer::DescriptorWords;
use rbamr_amr::DescriptorTable;
use rbamr_geometry::digest::Fnv64;
use rbamr_geometry::{GBox, IntVector};
use std::sync::Arc;

/// Number of `i64` values one patch occupies in the packed descriptor
/// array: level (1), box lo/hi (4) and the running element offset (1).
pub const DESCRIPTOR_WORDS: usize = 6;

/// The descriptor table for the hierarchy's batched launches: per local
/// patch, coarse to fine and in patch-array order within a level, its
/// level, its cell box and its first element in the batched logical
/// index space (the running sum of cell counts). As a
/// [`DescriptorTable`] it renders each value as two words, the array
/// batched kernels index instead of receiving per-patch arguments.
pub struct BatchPlan {
    structure_key: u64,
    entries: Vec<[i64; DESCRIPTOR_WORDS]>,
}

impl BatchPlan {
    /// Build the plan from every local patch's `(level, cell box)`,
    /// coarse to fine and in patch-array order within a level.
    pub fn build(patches: &[(usize, GBox)]) -> Self {
        let mut offset = 0;
        let entries = patches.iter().map(|&(level, b)| {
            let entry = [level as i64, b.lo.x, b.lo.y, b.hi.x, b.hi.y, offset];
            offset += b.num_cells();
            entry
        });
        Self { structure_key: structure_key(patches), entries: entries.collect() }
    }
}

impl DescriptorTable for BatchPlan {
    fn describe(&self, w: &mut DescriptorWords<'_>) {
        self.entries.iter().flatten().for_each(|&v| w.wide(v));
    }
}

/// Digest of the hierarchy's local box structure — every patch's
/// `(level, cell box)` in plan order: what a [`BatchPlan`] is keyed by.
pub fn structure_key(patches: &[(usize, GBox)]) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(patches.len());
    for &(level, b) in patches {
        h.write_usize(level);
        h.write_gbox(b);
    }
    h.finish()
}

/// The hierarchy's current batch plan, invalidated by structure key —
/// the batching analogue of the schedule cache: a regrid that leaves
/// every level's boxes unchanged reuses the plan (and, resident, its
/// table) untouched; a change on any level rebuilds it.
#[derive(Default)]
pub struct BatchPlanCache {
    plan: Option<Arc<BatchPlan>>,
    hits: u64,
    builds: u64,
}

impl BatchPlanCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the cached plan if its structure key still matches
    /// `patches`, else build (and cache) a fresh one.
    pub fn get_or_build(&mut self, patches: &[(usize, GBox)]) -> Arc<BatchPlan> {
        let key = structure_key(patches);
        if let Some(plan) = self.plan.as_ref().filter(|p| p.structure_key == key) {
            self.hits += 1;
            return Arc::clone(plan);
        }
        self.builds += 1;
        let plan = Arc::new(BatchPlan::build(patches));
        self.plan = Some(Arc::clone(&plan));
        plan
    }

    /// Structure-key cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Plan builds since creation.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// The interior core of a patch: `cell_box` shrunk by `margin` cells on
/// every side. Returns an empty box when the patch is too small — the
/// caller then runs the whole kernel in the boundary pass, which
/// degrades gracefully to the unoverlapped order.
pub fn interior_core(cell_box: GBox, margin: i64) -> GBox {
    let core = cell_box.grow(IntVector::uniform(-margin));
    if core.is_empty() {
        GBox::from_coords(0, 0, 0, 0)
    } else {
        core
    }
}

/// Split a kernel's nominal `region` against an interior `core` data
/// box: the part inside the core (computable while halo exchange is in
/// flight) and the boundary frames covering the rest exactly once, in
/// `GBox::subtract_into`'s order without its `Vec` — bottom and top
/// strips of the full width, then the left and right strips between
/// them; a strip the core leaves no room for is empty.
pub fn split_region(region: GBox, core: GBox) -> (GBox, [GBox; 4]) {
    let inner = region.intersect(core);
    if inner.is_empty() {
        return (GBox::EMPTY, [region, GBox::EMPTY, GBox::EMPTY, GBox::EMPTY]);
    }
    let frames = [
        GBox::from_coords(region.lo.x, region.lo.y, region.hi.x, inner.lo.y),
        GBox::from_coords(region.lo.x, inner.hi.y, region.hi.x, region.hi.y),
        GBox::from_coords(region.lo.x, inner.lo.y, inner.lo.x, inner.hi.y),
        GBox::from_coords(inner.hi.x, inner.lo.y, region.hi.x, inner.hi.y),
    ];
    (inner, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_amr::PassTables;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn plan_offsets_span_patches() {
        let patches = [(0, b(0, 0, 8, 8)), (0, b(8, 0, 16, 8)), (1, b(0, 8, 8, 16))];
        let mut tables = PassTables::default();
        tables.push(Arc::new(BatchPlan::build(&patches)));
        let mut words = vec![0; tables.render(None)];
        assert_eq!(words.len(), 3 * 2 * DESCRIPTOR_WORDS);
        tables.render(Some(&mut words));
        // Each value is two words, the high one zero here.
        assert!(words.iter().skip(1).step_by(2).all(|&high| high == 0));
        let low: Vec<i32> = words.iter().step_by(2).copied().collect();
        let entries: Vec<_> = low.chunks(DESCRIPTOR_WORDS).collect();
        assert_eq!(entries, [[0, 0, 0, 8, 8, 0], [0, 8, 0, 16, 8, 64], [1, 0, 8, 8, 16, 128]]);
    }

    #[test]
    fn cache_reuses_plan_until_structure_changes() {
        let mut cache = BatchPlanCache::new();
        let patches = vec![(0, b(0, 0, 8, 8)), (1, b(8, 0, 16, 8))];
        let p1 = cache.get_or_build(&patches);
        let p2 = cache.get_or_build(&patches);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
        // The same boxes on other levels are another structure.
        let p3 = cache.get_or_build(&[(0, b(0, 0, 8, 8)), (2, b(8, 0, 16, 8))]);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!((cache.builds(), cache.hits()), (2, 1));
    }

    #[test]
    fn interior_core_empties_on_small_patches() {
        assert_eq!(interior_core(b(0, 0, 32, 32), 6), b(6, 6, 26, 26));
        assert!(interior_core(b(0, 0, 10, 10), 6).is_empty());
    }

    #[test]
    fn split_region_covers_exactly_once() {
        let region = b(-2, -2, 34, 34);
        let core = b(6, 6, 26, 26);
        let (inner, frames) = split_region(region, core);
        assert_eq!(inner, core);
        let total: i64 = frames.iter().map(|f| f.num_cells()).sum::<i64>() + inner.num_cells();
        assert_eq!(total, region.num_cells());
        for f in &frames {
            assert!(!f.intersects(inner) || f.intersect(inner).is_empty());
        }
    }

    #[test]
    fn split_region_degrades_to_boundary_only() {
        let region = b(0, 0, 8, 8);
        let (inner, frames) = split_region(region, interior_core(b(0, 0, 8, 8), 6));
        assert!(inner.is_empty());
        assert_eq!(frames, [region, GBox::EMPTY, GBox::EMPTY, GBox::EMPTY]);
    }
}
