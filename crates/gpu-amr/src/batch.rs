//! Batched per-level launch planning.
//!
//! The paper's Figure 9 shows per-patch kernel launches dominating below
//! ~200k cells: every patch pays the fixed launch latency. The fix (the
//! first open ROADMAP item) is to fuse all patches of a level into *one*
//! launch per kernel, indexed by a variable-size patch-descriptor array
//! — one logical element index spans every patch, and the descriptor
//! table maps it back to (patch, local offset). A [`BatchPlan`] is that
//! descriptor table: built once per level whenever the level's box
//! structure changes, cached alongside the structure-keyed
//! `ScheduleBuild`, and its device-resident copy uploaded once per
//! rebuild (the only extra PCIe traffic batching introduces).
//!
//! The plan also owns the *interior/boundary* split geometry used for
//! communication/computation overlap: [`interior_core`] shrinks a patch
//! box by a stencil-dependent margin, and [`split_region`] divides a
//! kernel's nominal region into the core part (safe to compute while
//! halo exchange is in flight) and the boundary frame (must wait for
//! the exchange).

use rbamr_device::{Device, DeviceBuffer};
use rbamr_geometry::digest::Fnv64;
use rbamr_geometry::{GBox, IntVector};
use rbamr_perfmodel::Category;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of `i64` words one patch occupies in the packed descriptor
/// array: box lo/hi (4) plus the running element offset (1).
pub const DESCRIPTOR_WORDS: usize = 5;

/// One patch's entry in a [`BatchPlan`]: where the patch sits in the
/// level's patch array, its cell box, and where its elements begin in
/// the batched logical index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchSlot {
    /// Index into the level's local patch array.
    pub patch_index: usize,
    /// The patch's interior cell box.
    pub cell_box: GBox,
    /// First logical element of this patch in a batched launch (running
    /// sum of cell counts over the preceding slots).
    pub elem_offset: u64,
}

/// The descriptor table for one level's batched launches.
///
/// Holds the host-side slot array, the structure key it was built from,
/// and the device-resident packed descriptor buffer (uploaded once at
/// build time — batched kernels index it instead of receiving per-patch
/// arguments).
pub struct BatchPlan {
    level_no: usize,
    structure_key: u64,
    slots: Vec<PatchSlot>,
    total_cells: u64,
    descriptors: DeviceBuffer<i64>,
}

impl BatchPlan {
    /// Build the plan for `level_no` from the level's local patch cell
    /// boxes (in patch-array order) and upload the packed descriptor
    /// array to `device`.
    pub fn build(device: &Device, level_no: usize, cell_boxes: &[GBox]) -> Self {
        let mut slots = Vec::with_capacity(cell_boxes.len());
        let mut offset = 0u64;
        let mut packed = Vec::with_capacity(cell_boxes.len() * DESCRIPTOR_WORDS);
        for (patch_index, &cell_box) in cell_boxes.iter().enumerate() {
            slots.push(PatchSlot { patch_index, cell_box, elem_offset: offset });
            packed.extend_from_slice(&[
                cell_box.lo.x,
                cell_box.lo.y,
                cell_box.hi.x,
                cell_box.hi.y,
                offset as i64,
            ]);
            offset += cell_box.num_cells() as u64;
        }
        let mut descriptors = device.alloc::<i64>(packed.len().max(1));
        if !packed.is_empty() {
            device.upload(&mut descriptors, 0, &packed, Category::Other);
        }
        Self {
            level_no,
            structure_key: structure_key(level_no, cell_boxes),
            slots,
            total_cells: offset,
            descriptors,
        }
    }

    /// The level this plan describes.
    pub fn level_no(&self) -> usize {
        self.level_no
    }

    /// The structure key the plan was built from.
    pub fn structure_key(&self) -> u64 {
        self.structure_key
    }

    /// Per-patch slots in patch-array order.
    pub fn slots(&self) -> &[PatchSlot] {
        &self.slots
    }

    /// Total interior cells across all slots (the batched logical index
    /// space for a cell-centred interior launch).
    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Size of the device-resident descriptor array in bytes.
    pub fn descriptor_bytes(&self) -> u64 {
        self.descriptors.size_bytes()
    }
}

/// Digest of a level's box structure: what a [`BatchPlan`] is keyed by.
pub fn structure_key(level_no: usize, cell_boxes: &[GBox]) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(level_no);
    h.write_usize(cell_boxes.len());
    for b in cell_boxes {
        h.write_gbox(*b);
    }
    h.finish()
}

/// Cache of batch plans keyed by level, invalidated by structure key —
/// the batching analogue of the schedule cache: a regrid that leaves a
/// level's boxes unchanged reuses the plan (and its device descriptor
/// upload) untouched.
#[derive(Default)]
pub struct BatchPlanCache {
    plans: HashMap<usize, Arc<BatchPlan>>,
    hits: u64,
    builds: u64,
    uploaded_bytes: u64,
}

impl BatchPlanCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the cached plan for `level_no` if its structure key still
    /// matches, else build (and cache) a fresh one.
    pub fn get_or_build(
        &mut self,
        device: &Device,
        level_no: usize,
        cell_boxes: &[GBox],
    ) -> Arc<BatchPlan> {
        let key = structure_key(level_no, cell_boxes);
        if let Some(plan) = self.plans.get(&level_no) {
            if plan.structure_key() == key {
                self.hits += 1;
                return Arc::clone(plan);
            }
        }
        self.builds += 1;
        let plan = Arc::new(BatchPlan::build(device, level_no, cell_boxes));
        self.uploaded_bytes += plan.descriptor_bytes();
        self.plans.insert(level_no, Arc::clone(&plan));
        plan
    }

    /// Drop every cached plan (e.g. when the device is replaced).
    pub fn clear(&mut self) {
        self.plans.clear();
    }

    /// Structure-key cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Plan builds since creation.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Total descriptor bytes uploaded to the device across all builds
    /// (the batching overhead on top of the oracle's H2D traffic).
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
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

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn plan_offsets_span_patches() {
        let dev = Device::k20x();
        let boxes = [b(0, 0, 8, 8), b(8, 0, 16, 8), b(0, 8, 8, 16)];
        let plan = BatchPlan::build(&dev, 1, &boxes);
        assert_eq!(plan.level_no(), 1);
        assert_eq!(plan.slots().len(), 3);
        assert_eq!(plan.slots()[0].elem_offset, 0);
        assert_eq!(plan.slots()[1].elem_offset, 64);
        assert_eq!(plan.slots()[2].elem_offset, 128);
        assert_eq!(plan.total_cells(), 192);
        assert_eq!(plan.descriptor_bytes(), (3 * DESCRIPTOR_WORDS * 8) as u64);
    }

    #[test]
    fn cache_reuses_plan_until_structure_changes() {
        let dev = Device::k20x();
        let mut cache = BatchPlanCache::new();
        let boxes = vec![b(0, 0, 8, 8), b(8, 0, 16, 8)];
        let p1 = cache.get_or_build(&dev, 0, &boxes);
        let p2 = cache.get_or_build(&dev, 0, &boxes);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
        let p3 = cache.get_or_build(&dev, 0, &[b(0, 0, 8, 8)]);
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
