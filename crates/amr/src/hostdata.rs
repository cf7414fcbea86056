//! Host-memory patch data — the CPU baseline implementation.

use crate::ops::{shared_source_box, CoarsenOperator, RefineOperator};
use crate::patchdata::{copy_region, region_rows, validate_overlap, Element, PatchData};
use crate::transfer::{CopyJob, Part, PeerStream, StreamJob, TransferCtx, STREAM_VALUE_BYTES};
use crate::variable::DataFactory;
use bytes::Bytes;
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_perfmodel::{Clock, CostModel, KernelShape};
use std::any::Any;
use std::sync::Arc;

/// Cost accounting for the host placement: a clock to charge and the
/// cost model to price loops, mirroring how device data charges its
/// device's clock. Held by the rank's [`HostDataFactory`] and by the
/// hydro executor — the only two places the host placement charges.
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
}

impl<T: Element> HostData<T> {
    /// Allocate zero-initialised host data over `cell_box` grown by
    /// `ghosts`, with the given centring.
    pub fn new(cell_box: GBox, ghosts: IntVector, centring: Centring) -> Self {
        assert!(!cell_box.is_empty(), "HostData: empty cell box");
        assert!(ghosts.all_ge(IntVector::ZERO), "HostData: negative ghost width");
        let dbox = centring.data_box(cell_box.grow(ghosts));
        let data = vec![T::default(); dbox.num_cells() as usize];
        Self { cell_box, ghosts, centring, dbox, data, time: 0.0 }
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

    /// Append the values of `overlap`, in stream order, to `out`.
    fn pack_into(&self, overlap: &BoxOverlap, out: &mut Vec<u8>) {
        for b in overlap.dst_boxes.boxes() {
            for row in region_rows(self.dbox, b.shift(-overlap.shift)) {
                T::encode(&self.data[row], out);
            }
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

    fn copy_from(&mut self, src: &dyn PatchData, overlap: &BoxOverlap) {
        let src = src
            .as_any()
            .downcast_ref::<HostData<T>>()
            .expect("HostData::copy_from: source is not HostData of the same element type");
        validate_overlap(overlap, src.dbox, self.dbox, self.centring);
        for b in overlap.dst_boxes.boxes() {
            copy_region(&mut self.data, self.dbox, &src.data, src.dbox, *b, overlap.shift);
        }
    }

    fn stream_size(&self, overlap: &BoxOverlap) -> usize {
        overlap.num_values() as usize * T::BYTES
    }

    fn pack(&self, overlap: &BoxOverlap) -> Bytes {
        let mut out = Vec::with_capacity(self.stream_size(overlap));
        self.pack_into(overlap, &mut out);
        Bytes::from(out)
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
        // An operator charges the host clock nothing (here and in
        // `coarsen_from`): the host placement's virtual time does not
        // price interpolation.
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

    fn unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) {
        assert_eq!(stream.len(), self.stream_size(overlap), "unpack: stream length mismatch");
        let mut rest = stream;
        for b in overlap.dst_boxes.boxes() {
            for row in region_rows(self.dbox, *b) {
                let (packed, tail) = rest.split_at(row.len() * T::BYTES);
                T::decode(packed, &mut self.data[row]);
                rest = tail;
            }
        }
    }
}

/// The host `f64` data behind a placement-agnostic handle.
///
/// # Panics
/// Panics if `d` is another placement's data or holds tags.
fn host(d: &dyn PatchData) -> &HostData<f64> {
    d.as_any().downcast_ref().expect("host placement handed data that is not host f64 data")
}

/// As [`host`], mutable.
fn host_mut(d: &mut dyn PatchData) -> &mut HostData<f64> {
    d.as_any_mut().downcast_mut().expect("host placement handed data that is not host f64 data")
}

/// Factory producing [`HostData<f64>`] for simulation variables — the
/// CPU baseline data placement.
///
/// With costs, the factory prices host data movement where the device
/// pays a launch: a send stage (its local copies and its packs) or an
/// unpack stage is one loop nest over every job of every part — the
/// fork/join overhead once, the bytes of every job (of an unpack, of
/// every message received). Per-item
/// calls outside a stage (diagnostic digests, checkpoints) charge
/// nothing.
#[derive(Clone, Default)]
pub struct HostDataFactory {
    /// Optional cost accounting for the factory's stages.
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

    /// Charge one loop nest moving `values` values, each one read and
    /// one write.
    fn charge(&self, values: i64) {
        if let Some(h) = &self.hook {
            h.clock.charge(h.cost.host_kernel(KernelShape::streaming(values, 2, 0)));
        }
    }
}

impl DataFactory for HostDataFactory {
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData> {
        Box::new(HostData::<f64>::new(cell_box, ghosts, centring))
    }

    fn clock(&self) -> Option<&Clock> {
        self.hook.as_ref().map(|h| &h.clock)
    }

    fn send_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        copies: &[Part<'_, CopyJob>],
        sends: &[Part<'_, StreamJob>],
        peers: &[PeerStream],
    ) -> Vec<Bytes> {
        let mut values = None;
        for (part, job) in Part::each(copies) {
            let (dst, src) = ctx.pair(part.at(job.dst), part.at(job.src), job.var);
            dst.copy_from(src, &job.overlap);
            *values.get_or_insert(0) += job.overlap.num_values();
        }
        // Each peer's jobs come in stream order, straight into its
        // message.
        let mut out: Vec<Vec<u8>> = peers.iter().map(|p| Vec::with_capacity(p.bytes)).collect();
        for (part, job) in Part::each(sends) {
            let src = host(ctx.data_mut(part.at(job.loc), job.var));
            src.pack_into(&job.overlap, &mut out[part.slot(job).0]);
        }
        if !peers.is_empty() {
            let bytes: usize = peers.iter().map(|p| p.bytes).sum();
            *values.get_or_insert(0) += (bytes / STREAM_VALUE_BYTES) as i64;
        }
        if let Some(values) = values {
            self.charge(values);
        }
        out.into_iter().map(Bytes::from).collect()
    }

    fn unpack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        parts: &[Part<'_, StreamJob>],
        msgs: &[Option<Bytes>],
    ) {
        for (part, job) in Part::each(parts) {
            let (peer, range) = part.slot(job);
            if let Some(msg) = &msgs[peer] {
                ctx.data_mut(part.at(job.loc), job.var).unpack(&job.overlap, &msg[range]);
            }
        }
        if let Some(bytes) = msgs.iter().flatten().map(Bytes::len).reduce(|a, b| a + b) {
            self.charge((bytes / STREAM_VALUE_BYTES) as i64);
        }
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

    /// A copy, pack or unpack stage is one loop over every job's
    /// values, charged in the clock's scope, whatever the number of
    /// peers; a per-item copy outside a stage charges nothing.
    #[test]
    fn cost_hook_charges_clock() {
        use crate::transfer::{Loc, StreamPlan};
        use crate::{GridGeometry, PatchHierarchy, VariableRegistry};
        use rbamr_perfmodel::Category;
        let clock = Clock::new();
        let cost = Arc::new(CostModel::new(rbamr_perfmodel::Machine::ipa_cpu_node()));
        let factory = HostDataFactory::with_costs(clock.clone(), Arc::clone(&cost));
        let mut reg = VariableRegistry::new(Arc::new(factory.clone()));
        let var = reg.register("rho", Centring::Cell, IntVector::ONE);
        let boxes = vec![b(0, 0, 4, 4), b(4, 0, 8, 4), b(8, 0, 12, 4)];
        let domain = BoxList::from_box(b(0, 0, 12, 4));
        let mut h = PatchHierarchy::new(GridGeometry::unit(1.0), domain, IntVector::ONE, 1, 0, 1);
        h.set_level(0, boxes.clone(), vec![0; 3], &reg);
        let jobs: Vec<CopyJob> = [(1, 0), (0, 1), (2, 1), (1, 2)]
            .map(|(src, dst): (usize, usize)| CopyJob {
                var,
                src: Loc::patch(0, src),
                dst: Loc::patch(0, dst),
                overlap: ghost_overlaps(
                    boxes[dst],
                    IntVector::ONE,
                    boxes[src],
                    Centring::Cell,
                    IntVector::ZERO,
                ),
                src_idx: src as u32,
                dst_idx: dst as u32,
            })
            .into();
        let mut ctx = TransferCtx { hierarchy: &mut h, scratch: &mut [], outgoing: None };
        let halo = clock.scope(Category::HaloExchange);
        factory.send_many(&mut ctx, &[Part::whole(&jobs)], &[], &[]);
        drop(halo);
        let values = jobs.iter().map(|j| j.overlap.num_values()).sum();
        let stage = cost.host_kernel(KernelShape::streaming(values, 2, 0));
        assert_eq!(clock.snapshot().get(Category::HaloExchange), stage);

        let (dst, src) = ctx.pair(jobs[0].dst, jobs[0].src, var);
        dst.copy_from(src, &jobs[0].overlap);
        assert_eq!(clock.snapshot().total(), stage);

        // The same overlaps through two peers' messages: the send stage
        // and the unpack stage are each one loop over both.
        let (mut sends, mut recvs) = (StreamPlan::default(), StreamPlan::default());
        for (job, rank) in jobs.iter().zip([3, 5, 3, 5]) {
            let ends = (job.src_idx as usize, job.dst_idx as usize);
            sends.push(rank, var, job.src, job.overlap.clone(), ends);
            recvs.push(rank, var, job.dst, job.overlap.clone(), ends);
        }
        let ((sends, peers), (recvs, _)) = (sends.finish(), recvs.finish());
        let cat = Category::Synchronize;
        let sync = clock.scope(cat);
        let msgs = factory.send_many(&mut ctx, &[], &[Part::whole(&sends)], &peers);
        assert_eq!(clock.snapshot().get(cat), stage);
        assert_eq!(peers.len(), 2);
        let msgs: Vec<_> = msgs.into_iter().map(Some).collect();
        factory.unpack_many(&mut ctx, &[Part::whole(&recvs)], &msgs);
        assert_eq!(clock.snapshot().get(cat), 2.0 * stage);

        // A stage whose every frame was lost unpacks and charges nothing.
        factory.unpack_many(&mut ctx, &[Part::whole(&recvs)], &[None, None]);
        assert_eq!(clock.snapshot().get(cat), 2.0 * stage);
        drop(sync);

        // A stage that copies and sends is one loop over the copied and
        // the packed values.
        let both =
            factory.send_many(&mut ctx, &[Part::whole(&jobs)], &[Part::whole(&sends)], &peers);
        assert_eq!(both.into_iter().map(Some).collect::<Vec<_>>(), msgs);
        let fused = cost.host_kernel(KernelShape::streaming(2 * values, 2, 0));
        assert_eq!(clock.snapshot().get(Category::Other), fused);
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
