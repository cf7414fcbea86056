//! Batched launch planning for the whole hierarchy.
//!
//! The paper's Figure 9 shows per-patch kernel launches dominating below
//! ~200k cells: every patch pays the fixed launch latency. The fix is to
//! fuse every local patch of every level into *one* launch per kernel,
//! indexed by a variable-size patch-descriptor array — one logical
//! element index spans every patch, and the descriptor table maps it
//! back to (level, patch, local offset); the level gives the patch's
//! cell widths. A [`BatchPlan`] is that descriptor table: kept while
//! every level keeps its structure digest, as the schedules are, built
//! again when one changes, and made resident as one more table of the
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
use rbamr_amr::{DescriptorTable, PatchHierarchy};
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
        Self { entries: entries.collect() }
    }
}

impl DescriptorTable for BatchPlan {
    fn describe(&self, w: &mut DescriptorWords<'_>) {
        self.entries.iter().flatten().for_each(|&v| w.wide(v));
    }
}

/// The hierarchy's batch plan, kept while the hierarchy keeps its level
/// count and every level its structure digest — the levels'
/// generations, which keep the schedules too (see
/// [`RefineSchedule::is_current`](rbamr_amr::RefineSchedule::is_current))
/// — and built again when one changes.
#[derive(Default)]
pub struct BatchPlanCache {
    /// The plan, and the digests of the levels it was built from.
    plan: Option<(Vec<u64>, Arc<BatchPlan>)>,
    builds: u64,
}

impl BatchPlanCache {
    /// Nothing held yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan of this rank's patches of `hierarchy`: the one held if
    /// it is current, else a fresh one, held from now on.
    pub fn get_or_build(&mut self, hierarchy: &PatchHierarchy) -> Arc<BatchPlan> {
        let levels = 0..hierarchy.num_levels();
        let digests: Vec<u64> = levels.clone().map(|l| hierarchy.structure_digest(l)).collect();
        if let Some((_, plan)) = self.plan.as_ref().filter(|(held, _)| *held == digests) {
            return Arc::clone(plan);
        }
        let local = |l| hierarchy.level(l).local().iter().map(move |p| (l, p.cell_box()));
        let plan = Arc::new(BatchPlan::build(&levels.flat_map(local).collect::<Vec<_>>()));
        self.builds += 1;
        self.plan = Some((digests, Arc::clone(&plan)));
        plan
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
        use rbamr_amr::{GridGeometry, HostDataFactory, VariableRegistry};
        use rbamr_geometry::{BoxList, Centring};
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        reg.register("q", Centring::Cell, IntVector::uniform(1));
        let domain = BoxList::from_box(b(0, 0, 16, 16));
        let ratio = IntVector::uniform(2);
        let mut h = PatchHierarchy::new(GridGeometry::unit(1.0), domain, ratio, 3, 0, 1);
        h.set_level(0, vec![b(0, 0, 8, 16), b(8, 0, 16, 16)], vec![0, 0], &reg);
        h.set_level(1, vec![b(8, 8, 16, 16)], vec![0], &reg);
        let mut plans = BatchPlanCache::new();
        let first = plans.get_or_build(&h);
        // A level reinstalled with the same records has the same digest.
        h.set_level(1, vec![b(8, 8, 16, 16)], vec![0], &reg);
        assert!(Arc::ptr_eq(&first, &plans.get_or_build(&h)));
        assert_eq!(plans.builds(), 1);
        // A changed level, or one more, is a new plan.
        h.set_level(1, vec![b(8, 8, 24, 16)], vec![0], &reg);
        let second = plans.get_or_build(&h);
        h.set_level(2, vec![b(16, 16, 24, 24)], vec![0], &reg);
        let third = plans.get_or_build(&h);
        assert!(!Arc::ptr_eq(&first, &second) && !Arc::ptr_eq(&second, &third));
        assert_eq!(plans.builds(), 3);
        let mut tables = PassTables::default();
        tables.push(third);
        assert_eq!(tables.render(None), 4 * 2 * DESCRIPTOR_WORDS);
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
