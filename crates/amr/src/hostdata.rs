//! Host-memory patch data — the CPU baseline implementation.

use crate::ops::{shared_source_box, CoarsenOperator, RefineOperator};
use crate::patchdata::{
    copy_region, region_rows, validate_overlap, Element, PatchData, PatchDataError,
};
use crate::variable::DataFactory;
use bytes::Bytes;
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_perfmodel::{Category, Clock, CostModel, KernelShape};
use std::any::Any;
use std::sync::Arc;

/// Optional cost accounting for host data movement: a clock to charge
/// and the cost model to price operations, mirroring how device data
/// charges its device's clock. Shared by all data the
/// factory creates for one rank.
#[derive(Clone)]
pub struct HostCostHook {
    /// The rank's virtual clock.
    pub clock: Clock,
    /// The machine pricing host loops.
    pub cost: Arc<CostModel>,
}

/// Array data in host memory for any centring — the CPU counterpart of
/// the paper's `CudaArrayData`-backed classes (Figure 3). A single
/// generic type covers cell-, node- and side-centred data because the
/// centring only changes the data box; the type parameter covers both
/// simulation values (`f64`) and refinement tags (`i32`).
pub struct HostData<T: Element> {
    cell_box: GBox,
    ghosts: IntVector,
    centring: Centring,
    dbox: GBox,
    data: Vec<T>,
    time: f64,
    category: Category,
    hook: Option<HostCostHook>,
}

impl<T: Element> HostData<T> {
    /// Allocate zero-initialised host data over `cell_box` grown by
    /// `ghosts`, with the given centring.
    pub fn new(cell_box: GBox, ghosts: IntVector, centring: Centring) -> Self {
        Self::with_hook(cell_box, ghosts, centring, None)
    }

    /// As [`HostData::new`], with cost accounting.
    pub fn with_hook(
        cell_box: GBox,
        ghosts: IntVector,
        centring: Centring,
        hook: Option<HostCostHook>,
    ) -> Self {
        assert!(!cell_box.is_empty(), "HostData: empty cell box");
        assert!(ghosts.all_ge(IntVector::ZERO), "HostData: negative ghost width");
        let dbox = centring.data_box(cell_box.grow(ghosts));
        let data = vec![T::default(); dbox.num_cells() as usize];
        Self { cell_box, ghosts, centring, dbox, data, time: 0.0, category: Category::Other, hook }
    }

    /// Cell-centred convenience constructor.
    pub fn cell(cell_box: GBox, ghosts: IntVector) -> Self {
        Self::new(cell_box, ghosts, Centring::Cell)
    }

    /// Node-centred convenience constructor.
    pub fn node(cell_box: GBox, ghosts: IntVector) -> Self {
        Self::new(cell_box, ghosts, Centring::Node)
    }

    /// Side-centred convenience constructor for faces normal to `axis`.
    pub fn side(axis: usize, cell_box: GBox, ghosts: IntVector) -> Self {
        Self::new(cell_box, ghosts, Centring::Side(axis))
    }

    /// Linear index of `p` within the stored array.
    #[inline]
    pub fn index(&self, p: IntVector) -> usize {
        self.dbox.offset_of(p)
    }

    /// Value at index `p`.
    #[inline]
    pub fn at(&self, p: IntVector) -> T {
        self.data[self.index(p)]
    }

    /// Mutable value at index `p`.
    #[inline]
    pub fn at_mut(&mut self, p: IntVector) -> &mut T {
        let i = self.index(p);
        &mut self.data[i]
    }

    /// The raw storage, row-major over [`PatchData::data_box`].
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fill every stored value (interior and ghosts) with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Sum of `f` over the *interior* data values (diagnostics).
    pub fn interior_fold<A>(&self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let interior = self.centring.data_box(self.cell_box);
        let mut acc = init;
        for p in interior.iter() {
            acc = f(acc, self.at(p));
        }
        acc
    }

    fn charge(&self, values: i64) {
        if let Some(h) = &self.hook {
            // A copy/pack touches one read and one write stream.
            let shape = KernelShape::streaming(values, 2, 0);
            h.clock.advance(self.category, h.cost.host_kernel(shape));
        }
    }
}

impl<T: Element> PatchData for HostData<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn cell_box(&self) -> GBox {
        self.cell_box
    }

    fn ghosts(&self) -> IntVector {
        self.ghosts
    }

    fn centring(&self) -> Centring {
        self.centring
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn set_time(&mut self, time: f64) {
        self.time = time;
    }

    fn set_transfer_category(&mut self, category: Category) {
        self.category = category;
    }

    fn copy_from(&mut self, src: &dyn PatchData, overlap: &BoxOverlap) {
        let src = src
            .as_any()
            .downcast_ref::<HostData<T>>()
            .expect("HostData::copy_from: source is not HostData of the same element type");
        validate_overlap(overlap, src.dbox, self.dbox, self.centring);
        for b in overlap.dst_boxes.boxes() {
            copy_region(&mut self.data, self.dbox, &src.data, src.dbox, *b, overlap.shift);
        }
        self.charge(overlap.num_values());
    }

    fn stream_size(&self, overlap: &BoxOverlap) -> usize {
        overlap.num_values() as usize * T::BYTES
    }

    fn try_pack(&self, overlap: &BoxOverlap) -> Result<Bytes, PatchDataError> {
        let mut out = Vec::with_capacity(self.stream_size(overlap));
        for b in overlap.dst_boxes.boxes() {
            for row in region_rows(self.dbox, b.shift(-overlap.shift)) {
                T::encode(&self.data[row], &mut out);
            }
        }
        self.charge(overlap.num_values());
        Ok(Bytes::from(out))
    }

    fn extend_uncovered(&mut self, covered: &BoxList) {
        for (t, s) in crate::patchdata::extension_pairs(self.data_box(), covered) {
            self.data[t] = self.data[s];
        }
    }

    fn refine_from(
        &mut self,
        op: &dyn RefineOperator,
        src: &dyn PatchData,
        fills: &BoxList,
        ratio: IntVector,
    ) {
        // Unlike a copy or a pack, an operator charges the host clock
        // nothing (here and in `coarsen_from`): the host placement's
        // virtual time does not price interpolation.
        let (src, dst) = (host(src), host_mut(self));
        op.fill(&mut dst.data, dst.dbox, fills, &src.data, src.dbox, ratio);
    }

    fn coarsen_from(
        &mut self,
        op: &dyn CoarsenOperator,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        fills: &BoxList,
        ratio: IntVector,
    ) {
        let sources = || std::iter::once(src).chain(aux.iter().copied());
        let sbox = shared_source_box(op, sources().map(|s| s.data_box()));
        let srcs: Vec<&[f64]> = sources().map(|s| host(s).as_slice()).collect();
        let dst = host_mut(self);
        op.fill(&mut dst.data, dst.dbox, fills, &srcs, sbox, ratio);
    }

    fn try_unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) -> Result<(), PatchDataError> {
        assert_eq!(stream.len(), self.stream_size(overlap), "unpack: stream length mismatch");
        let mut rest = stream;
        for b in overlap.dst_boxes.boxes() {
            for row in region_rows(self.dbox, *b) {
                let (packed, tail) = rest.split_at(row.len() * T::BYTES);
                T::decode(packed, &mut self.data[row]);
                rest = tail;
            }
        }
        self.charge(overlap.num_values());
        Ok(())
    }
}

/// The host `f64` data behind a placement-agnostic handle.
///
/// # Panics
/// Panics if `d` is another placement's data or holds tags.
fn host(d: &dyn PatchData) -> &HostData<f64> {
    d.as_any().downcast_ref().expect("operator applied to data that is not host f64 data")
}

/// As [`host`], mutable.
fn host_mut(d: &mut dyn PatchData) -> &mut HostData<f64> {
    d.as_any_mut().downcast_mut().expect("operator applied to data that is not host f64 data")
}

/// Factory producing [`HostData<f64>`] for simulation variables — the
/// CPU baseline data placement.
#[derive(Clone, Default)]
pub struct HostDataFactory {
    /// Optional cost accounting shared by all created data.
    pub hook: Option<HostCostHook>,
}

impl HostDataFactory {
    /// Factory without cost accounting (unit tests, examples).
    pub fn new() -> Self {
        Self::default()
    }

    /// Factory charging the given clock/cost model.
    pub fn with_costs(clock: Clock, cost: Arc<CostModel>) -> Self {
        Self { hook: Some(HostCostHook { clock, cost }) }
    }
}

impl DataFactory for HostDataFactory {
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData> {
        Box::new(HostData::<f64>::with_hook(cell_box, ghosts, centring, self.hook.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::{copy_overlap, ghost_overlaps};

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn allocation_covers_ghost_data_box() {
        let d = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::uniform(2));
        assert_eq!(d.data_box(), b(-2, -2, 6, 6));
        assert_eq!(d.as_slice().len(), 64);
        let n = HostData::<f64>::node(b(0, 0, 4, 4), IntVector::ZERO);
        assert_eq!(n.as_slice().len(), 25);
        let s = HostData::<f64>::side(0, b(0, 0, 4, 4), IntVector::ZERO);
        assert_eq!(s.as_slice().len(), 20);
    }

    #[test]
    fn indexed_access() {
        let mut d = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ONE);
        *d.at_mut(IntVector::new(-1, -1)) = 5.0;
        *d.at_mut(IntVector::new(1, 1)) = 7.0;
        assert_eq!(d.at(IntVector::new(-1, -1)), 5.0);
        assert_eq!(d.at(IntVector::new(1, 1)), 7.0);
        assert_eq!(d.at(IntVector::new(0, 0)), 0.0);
    }

    #[test]
    fn copy_between_neighbours_fills_ghosts() {
        let ghosts = IntVector::uniform(2);
        let mut dst = HostData::<f64>::cell(b(0, 0, 4, 4), ghosts);
        let mut src = HostData::<f64>::cell(b(4, 0, 8, 4), ghosts);
        for p in b(4, 0, 8, 4).iter() {
            *src.at_mut(p) = (p.x * 100 + p.y) as f64;
        }
        let ov =
            ghost_overlaps(dst.cell_box(), ghosts, src.cell_box(), Centring::Cell, IntVector::ZERO);
        dst.copy_from(&src, &ov);
        assert_eq!(dst.at(IntVector::new(4, 2)), 402.0);
        assert_eq!(dst.at(IntVector::new(5, 3)), 503.0);
        // Interior untouched.
        assert_eq!(dst.at(IntVector::new(3, 3)), 0.0);
    }

    #[test]
    fn pack_unpack_roundtrip_equals_copy() {
        let ghosts = IntVector::uniform(2);
        let mut src = HostData::<f64>::cell(b(4, 0, 8, 4), ghosts);
        for p in src.data_box().iter() {
            *src.at_mut(p) = (p.x as f64) * 0.5 + (p.y as f64) * 10.0;
        }
        let dst_box = b(0, 0, 4, 4);
        let ov = ghost_overlaps(dst_box, ghosts, src.cell_box(), Centring::Cell, IntVector::ZERO);

        let mut via_copy = HostData::<f64>::cell(dst_box, ghosts);
        via_copy.copy_from(&src, &ov);

        let mut via_stream = HostData::<f64>::cell(dst_box, ghosts);
        let stream = src.pack(&ov);
        assert_eq!(stream.len(), src.stream_size(&ov));
        via_stream.unpack(&ov, &stream);

        for p in via_copy.data_box().iter() {
            assert_eq!(via_copy.at(p), via_stream.at(p), "mismatch at {p}");
        }
    }

    #[test]
    fn i32_tag_data_roundtrip() {
        let mut src = HostData::<i32>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        *src.at_mut(IntVector::new(2, 2)) = 1;
        let ov = copy_overlap(b(2, 2, 6, 6), src.cell_box(), Centring::Cell);
        let mut dst = HostData::<i32>::cell(b(2, 2, 6, 6), IntVector::ZERO);
        dst.unpack(&ov, &src.pack(&ov));
        assert_eq!(dst.at(IntVector::new(2, 2)), 1);
        assert_eq!(dst.at(IntVector::new(3, 3)), 0);
    }

    #[test]
    fn interior_fold_skips_ghosts() {
        let mut d = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ONE);
        d.fill(1.0);
        let total: f64 = d.interior_fold(0.0, |a, v| a + v);
        assert_eq!(total, 4.0); // 2x2 interior, not the 4x4 allocation
    }

    #[test]
    fn cost_hook_charges_clock() {
        let clock = Clock::new();
        let cost = Arc::new(CostModel::new(rbamr_perfmodel::Machine::ipa_cpu_node()));
        let hook = HostCostHook { clock: clock.clone(), cost };
        let mut dst = HostData::<f64>::with_hook(
            b(0, 0, 4, 4),
            IntVector::ONE,
            Centring::Cell,
            Some(hook.clone()),
        );
        let src =
            HostData::<f64>::with_hook(b(4, 0, 8, 4), IntVector::ONE, Centring::Cell, Some(hook));
        dst.set_transfer_category(Category::HaloExchange);
        let ov = ghost_overlaps(
            dst.cell_box(),
            IntVector::ONE,
            src.cell_box(),
            Centring::Cell,
            IntVector::ZERO,
        );
        dst.copy_from(&src, &ov);
        assert!(clock.snapshot().get(Category::HaloExchange) > 0.0);
    }

    #[test]
    #[should_panic(expected = "stream length mismatch")]
    fn unpack_checks_length() {
        let mut d = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let ov = copy_overlap(d.cell_box(), d.cell_box(), Centring::Cell);
        d.unpack(&ov, &[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "not HostData")]
    fn copy_from_wrong_type_panics() {
        let mut dst = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let src = HostData::<i32>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let ov = copy_overlap(dst.cell_box(), src.cell_box(), Centring::Cell);
        dst.copy_from(&src, &ov);
    }
}
