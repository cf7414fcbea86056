//! Device-resident patch data — the `CudaArrayData`/`CudaCellData`/
//! `CudaNodeData`/`CudaSideData` family (paper Figure 3) — and the fused
//! movement kernels [`DeviceDataFactory`] runs a schedule stage through:
//! a send stage's local copies and packs in one launch, a receive
//! stage's unpacks in another.

use crate::ops::{launch_coarsen, launch_refine, CoarsenVisit, RefineVisit};
use bytes::Bytes;
use rbamr_amr::ops::{CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::{
    copy_region, extension_pairs, pack_region, unpack_region, validate_overlap, Element, PatchData,
};
use rbamr_amr::transfer::{
    CoarsenJob, CopyJob, Loc, OpGroup, Part, PeerStream, RefineJob, StreamJob, TransferCtx,
    STREAM_VALUE_BYTES,
};
use rbamr_amr::variable::DataFactory;
use rbamr_amr::{DescriptorTable, PassTables};
use rbamr_device::memory::DeviceCopy;
use rbamr_device::{Device, DeviceBuffer};
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_perfmodel::{Category, Clock, KernelShape};
use std::any::Any;
use std::sync::{Arc, Mutex, Weak};

/// Elements that can live in device patch data: the intersection of the
/// framework's [`Element`] types and the device's [`DeviceCopy`] types
/// (`f64` quantities and `i32` tags).
pub trait DeviceElement: Element + DeviceCopy {}
impl DeviceElement for f64 {}
impl DeviceElement for i32 {}

/// One simulation quantity on one patch, stored in (simulated) device
/// memory at all times.
///
/// This is the paper's `Cuda*Data`: a box-shaped, centring-adjusted
/// array whose backing store is a contiguous device allocation
/// (`CudaArrayData`'s `double* d_cuda_buffer`). The [`PatchData`]
/// methods are implemented with data-parallel kernels:
///
/// * `copy_from` — device-to-device region copy (one thread per
///   element).
/// * `pack` — device pack kernel into a contiguous staging buffer,
///   followed by one D2H PCIe transfer of exactly the packed bytes
///   (Figure 4); SAMRAI (the `amr` crate here) then handles MPI.
/// * `unpack` — one H2D transfer of the packed buffer, then a
///   data-parallel unpack kernel.
/// * `refine_from` / `coarsen_from` — any `rbamr_amr` operator inside
///   one `refine-interp` / `coarsen-project` launch.
///
/// Each of these is a *batch of one* through the fused kernels of this
/// module and [`crate::ops`] (`launch_send`, `unpack_message`,
/// `launch_extend`, `launch_refine`, `launch_coarsen`). The schedules
/// do not call them per overlap: they hand whole stages to
/// [`DeviceDataFactory`], which runs the same kernels once per stage —
/// one `pack` launch and one D2H for a send stage's local copies and
/// all its outgoing messages (one `copy-region` launch where it sends
/// nothing), one H2D and one `unpack` launch for all it received, one
/// interpolation or projection launch for every operator. A regrid's
/// solution transfer is such a schedule too. The per-item methods remain
/// for the callers that move one region at a time (checkpoints, digests,
/// probes).
///
/// Host code cannot touch the values: reads outside kernels are a
/// compile error (no [`Kernel`](rbamr_device::Kernel) token), which is
/// the residency property the paper's design enforces by convention.
pub struct DeviceData<T: DeviceElement> {
    cell_box: GBox,
    ghosts: IntVector,
    centring: Centring,
    dbox: GBox,
    buf: DeviceBuffer<T>,
    time: f64,
}

impl<T: DeviceElement> DeviceData<T> {
    /// Allocate zeroed device data over `cell_box` grown by `ghosts`.
    ///
    /// # Panics
    /// Panics if the device is out of memory (matching the original's
    /// fatal `cudaMalloc` failure) or the box is empty.
    pub fn new(device: &Device, cell_box: GBox, ghosts: IntVector, centring: Centring) -> Self {
        assert!(!cell_box.is_empty(), "DeviceData: empty cell box");
        assert!(ghosts.all_ge(IntVector::ZERO), "DeviceData: negative ghost width");
        let dbox = centring.data_box(cell_box.grow(ghosts));
        let buf = device.alloc::<T>(dbox.num_cells() as usize);
        Self { cell_box, ghosts, centring, dbox, buf, time: 0.0 }
    }

    /// The device this data lives on.
    pub fn device(&self) -> &Device {
        self.buf.device()
    }

    /// The backing device buffer (for kernels in this crate and the
    /// hydro device integrator).
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// Mutable backing device buffer.
    pub fn buffer_mut(&mut self) -> &mut DeviceBuffer<T> {
        &mut self.buf
    }

    /// Upload a full host image into the device array — permitted only
    /// for initialisation and restart (the sanctioned full-array
    /// transfers). Values are row-major over [`PatchData::data_box`].
    pub fn upload_from(&mut self, values: &[T]) {
        assert_eq!(values.len(), self.buf.len(), "upload_all: size mismatch");
        let dev = self.buf.device().clone();
        dev.h2d(&mut self.buf, 0, values.len(), |out| out.copy_from_slice(values));
    }

    /// [`DeviceData::upload_from`] inside a clock scope of `category`;
    /// kept for the frozen benchmark package's signature (ROADMAP 27(b)).
    pub fn upload_all(&mut self, values: &[T], category: Category) {
        let _scope = self.device().clock().scope(category);
        self.upload_from(values);
    }

    /// Download the full array to the host — visualisation, checkpoint
    /// and test interop only.
    pub fn download_all(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.buf.len()];
        self.buf.device().d2h(&self.buf, 0, &mut out);
        out
    }

    /// Linear index of `p` within the device array.
    #[inline]
    pub fn index(&self, p: IntVector) -> usize {
        self.dbox.offset_of(p)
    }
}

/// The send kernel: one launch running every `(dst, src, overlap)` copy
/// the first callback is handed, `copied` values in all, and gathering
/// every region the second is handed, in order, into `staging[..total]`
/// (the contiguous `cuda_stream` buffer of Figure 4), then one D2H
/// bringing exactly the packed values to the host, where they become
/// the message stream. One logical thread per element; the row
/// decomposition is the safe-Rust shape of the Figure 4 kernel. With
/// `staging` the launch is a `pack` charging both shapes; without, it
/// only copies — a `copy-region` launch, none when there is nothing to
/// copy — and there is no message.
fn launch_send<T: DeviceElement>(
    device: &Device,
    copied: i64,
    staging: Option<(&mut DeviceBuffer<T>, usize)>,
    jobs: impl FnOnce(
        &mut dyn FnMut(&mut DeviceData<T>, &DeviceData<T>, &BoxOverlap),
        &mut dyn FnMut(&DeviceData<T>, &BoxOverlap),
    ),
) -> Option<Bytes> {
    let (mut staging, total) = match staging {
        Some((staging, total)) => {
            device.recorder().count("pack.bytes", (total * T::BYTES) as u64);
            (Some(staging), total)
        }
        None => (None, 0),
    };
    let name = if staging.is_some() { "pack" } else { "copy-region" };
    if copied > 0 || total > 0 {
        let shape =
            KernelShape::streaming(copied, 2, 0) + KernelShape::streaming(total as i64, 2, 0);
        device.launch(name, shape, |k| {
            let mut out = staging.as_deref_mut().map(|s| &mut s.as_mut_slice(&k)[..total]);
            let mut offset = 0usize;
            let mut copy = |dst: &mut DeviceData<T>, src: &DeviceData<T>, overlap: &BoxOverlap| {
                let (dst_dbox, src_dbox) = (dst.dbox, src.dbox);
                let src_slice = src.buffer().as_slice(&k);
                let dst_slice = dst.buffer_mut().as_mut_slice(&k);
                for fill in overlap.dst_boxes.boxes() {
                    copy_region(dst_slice, dst_dbox, src_slice, src_dbox, *fill, overlap.shift);
                }
            };
            let mut pack = |src: &DeviceData<T>, overlap: &BoxOverlap| {
                let out = out.as_deref_mut().expect("a copy-only launch packs nothing");
                let src_slice = src.buffer().as_slice(&k);
                for fill in overlap.dst_boxes.boxes() {
                    let n = fill.num_cells() as usize;
                    let packed = &mut out[offset..offset + n];
                    pack_region(packed, src_slice, src.dbox, *fill, overlap.shift);
                    offset += n;
                }
            };
            jobs(&mut copy, &mut pack);
            assert_eq!(offset, total, "pack: jobs do not fill the message");
        });
    }
    staging.map(|staging| {
        let mut host = vec![T::default(); total];
        device.d2h(staging, 0, &mut host);
        let mut out = Vec::with_capacity(total * T::BYTES);
        T::encode(&host, &mut out);
        Bytes::from(out)
    })
}

/// The `unpack` kernel and its transfer: one H2D of `msgs`, back to
/// back, into `staging`, then one launch scattering them. Each job names
/// the first value of its overlap within the concatenation.
fn unpack_message<T: DeviceElement>(
    device: &Device,
    staging: &mut DeviceBuffer<T>,
    msgs: &[&[u8]],
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<T>, &BoxOverlap, usize)),
) {
    let total = msgs.iter().map(|m| m.len()).sum::<usize>() / T::BYTES;
    device.recorder().count("unpack.bytes", (total * T::BYTES) as u64);
    device.h2d(staging, 0, total, |mut rest| {
        for msg in msgs {
            let (values, tail) = rest.split_at_mut(msg.len() / T::BYTES);
            T::decode(msg, values);
            rest = tail;
        }
    });
    if total > 0 {
        let shape = KernelShape::streaming(total as i64, 2, 0);
        device.launch("unpack", shape, |k| {
            let input = &staging.as_slice(&k)[..total];
            jobs(&mut |dst, overlap, first| {
                let dst_dbox = dst.dbox;
                let dst_slice = dst.buffer_mut().as_mut_slice(&k);
                let mut offset = first;
                for fill in overlap.dst_boxes.boxes() {
                    let n = fill.num_cells() as usize;
                    unpack_region(dst_slice, dst_dbox, &input[offset..offset + n], *fill);
                    offset += n;
                }
            });
        });
    }
}

/// The `extend-uncovered` kernel: one launch applying every `(target,
/// source)` offset pair of every array `jobs` yields, `total` pairs in
/// all. No launch when there is nothing to extend.
fn launch_extend<T: DeviceElement>(
    device: &Device,
    total: usize,
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<T>, &[(usize, usize)])),
) {
    if total == 0 {
        return;
    }
    let shape = KernelShape::streaming(total as i64, 2, 0);
    device.launch("extend-uncovered", shape, |k| {
        jobs(&mut |data, pairs| {
            let slice = data.buffer_mut().as_mut_slice(&k);
            // Sources are covered cells, targets uncovered: disjoint.
            for &(t, s) in pairs {
                slice[t] = slice[s];
            }
        });
    });
}

impl<T: DeviceElement> PatchData for DeviceData<T> {
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
            .downcast_ref::<DeviceData<T>>()
            .expect("DeviceData::copy_from: source is not DeviceData of the same element type");
        validate_overlap(overlap, src.dbox, self.dbox, self.centring);
        let device = self.buf.device().clone();
        launch_send(&device, overlap.num_values(), None, |copy, _| {
            copy(self, src, overlap);
        });
    }

    fn stream_size(&self, overlap: &BoxOverlap) -> usize {
        overlap.num_values() as usize * T::BYTES
    }

    /// A batch of one, staged through a buffer of exactly the overlap's
    /// size.
    fn pack(&self, overlap: &BoxOverlap) -> Bytes {
        let total = overlap.num_values() as usize;
        let device = self.buf.device();
        let mut staging = device.alloc(total);
        launch_send(device, 0, Some((&mut staging, total)), |_, pack| {
            pack(self, overlap);
        })
        .expect("a pack makes a message")
    }

    /// As [`DeviceData::pack`].
    fn unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) {
        assert_eq!(stream.len(), self.stream_size(overlap), "unpack: stream length mismatch");
        let device = self.buf.device().clone();
        let mut staging = device.alloc(overlap.num_values() as usize);
        unpack_message(&device, &mut staging, &[stream], |unpack| {
            unpack(self, overlap, 0);
        });
    }

    fn extend_uncovered(&mut self, covered: &rbamr_geometry::BoxList) {
        let pairs = extension_pairs(self.dbox, covered);
        let device = self.buf.device().clone();
        launch_extend(&device, pairs.len(), |extend| extend(self, &pairs));
    }

    fn refine_from(
        &mut self,
        op: &dyn RefineOperator,
        src: &dyn PatchData,
        fills: &BoxList,
        ratio: IntVector,
    ) {
        let (dst, src) = (device_mut(self), device_ref(src));
        launch_refine(&mut |visit| visit(op, ratio, dst, src, fills));
    }

    fn coarsen_from(
        &mut self,
        op: &dyn CoarsenOperator,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        fills: &BoxList,
        ratio: IntVector,
    ) {
        let (dst, src) = (device_mut(self), device_ref(src));
        let aux = || aux.iter().map(|&a| device_ref(a));
        launch_coarsen(&mut |visit| visit(op, ratio, dst, src, &mut aux(), fills));
    }
}

/// Factory producing [`DeviceData<f64>`] for simulation variables — the
/// GPU-resident data placement. Swapping [`HostDataFactory`]
/// (rbamr-amr) for this type is the entire difference between the CPU
/// and GPU builds of the application, exactly as the paper's Figure 6
/// shows for CleverLeaf's two patch integrators.
///
/// It is also where a schedule stage becomes fused device work: every
/// batch entry point of [`DataFactory`] runs as one launch per call (a
/// send stage's copies and packs together, unpacks and scratch extension
/// on the factory's device; interpolation and projection where the first
/// job's destination lives), and a stage's messages cross PCIe together
/// — every peer's, back to back in peer order, in one transfer — through
/// one persistent, grow-only device buffer: the simulated device is
/// synchronous, so the buffer is free again as soon as the stage's D2H
/// returns or its unpack launch ends, and a steady step allocates no
/// staging at all. A stage with no peers stages and transfers nothing,
/// and launches only its copies.
///
/// The descriptor tables live the same way: one grow-only device table
/// holds the last build pass's ([`PassTables`]), rendered straight into
/// it by one transfer, which a pass holding exactly the resident tables
/// skips — one transfer per mesh change, not one per schedule.
///
/// [`HostDataFactory`]: rbamr_amr::HostDataFactory
#[derive(Clone)]
pub struct DeviceDataFactory {
    device: Device,
    /// Message staging, shared by the factory's clones.
    staging: Arc<Mutex<Option<DeviceBuffer<f64>>>>,
    /// The resident tables, shared by the factory's clones.
    tables: Arc<Mutex<ResidentTables>>,
}

/// The resident tables, in order, and the device table holding them.
type ResidentTables = (Vec<Weak<dyn DescriptorTable>>, Option<DeviceBuffer<i32>>);

/// The device data behind a placement-agnostic handle.
///
/// # Panics
/// Panics if the data is not `DeviceData<f64>` — a device factory or
/// device data was handed another placement's data.
pub(crate) fn device_ref(d: &dyn PatchData) -> &DeviceData<f64> {
    d.as_any().downcast_ref().expect("device transfer applied to non-device data")
}

/// As [`device_ref`], mutable.
pub(crate) fn device_mut(d: &mut dyn PatchData) -> &mut DeviceData<f64> {
    d.as_any_mut().downcast_mut().expect("device transfer applied to non-device data")
}

impl DeviceDataFactory {
    /// A factory allocating on `device`.
    pub fn new(device: Device) -> Self {
        let (staging, tables) = (Arc::default(), Arc::default());
        Self { device, staging, tables }
    }

    /// The device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run `f` on the staging buffer, grown first if it holds fewer
    /// than `len` values. Growth is the only allocation a fused
    /// transfer makes.
    fn with_staging<R>(&self, len: usize, f: impl FnOnce(&mut DeviceBuffer<f64>) -> R) -> R {
        let mut slot = self.staging.lock().expect("a fused transfer panicked mid-message");
        if slot.as_ref().is_none_or(|buf| buf.len() < len) {
            // Release the old buffer before asking for the larger one.
            *slot = None;
            *slot = Some(self.device.alloc(len.next_power_of_two()));
        }
        f(slot.as_mut().expect("staging was ensured above"))
    }
}

impl DataFactory for DeviceDataFactory {
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData> {
        Box::new(DeviceData::<f64>::new(&self.device, cell_box, ghosts, centring))
    }

    fn clock(&self) -> Option<&Clock> {
        Some(self.device.clock())
    }

    fn send_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        copies: &[Part<'_, CopyJob>],
        sends: &[Part<'_, StreamJob>],
        peers: &[PeerStream],
    ) -> Vec<Bytes> {
        let copied = Part::each(copies).map(|(_, job)| job.overlap.num_values()).sum();
        // Peer-major, then by place in the peer's message: the jobs of
        // each part are in order within each of its streams, and the
        // parts' streams follow one another in a message.
        let jobs = Part::each(sends).map(|(part, job)| (part.slot(job), part, job));
        let mut by_peer: Vec<_> = jobs.collect();
        by_peer.sort_by_key(|((peer, range), ..)| (*peer, range.start));
        let send = |staging: Option<(&mut DeviceBuffer<f64>, usize)>| {
            launch_send(&self.device, copied, staging, |copy, pack| {
                for (part, job) in Part::each(copies) {
                    let (dst, src) = ctx.pair(part.at(job.dst), part.at(job.src), job.var);
                    copy(device_mut(dst), device_ref(src), &job.overlap);
                }
                for (_, part, job) in by_peer {
                    let src = ctx.data_mut(part.at(job.loc), job.var);
                    pack(device_ref(src), &job.overlap);
                }
            })
        };
        if peers.is_empty() {
            send(None);
            return Vec::new();
        }
        let total = peers.iter().map(|peer| peer.bytes).sum::<usize>() / STREAM_VALUE_BYTES;
        let packed = self.with_staging(total, |staging| send(Some((staging, total))));
        let packed = packed.expect("a stage with peers makes a message");
        let mut end = 0;
        let streams = peers.iter().map(|peer| {
            let start = end;
            end += peer.bytes;
            packed.slice(start..end)
        });
        streams.collect()
    }

    fn unpack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        parts: &[Part<'_, StreamJob>],
        msgs: &[Option<Bytes>],
    ) {
        // Peer-major, then by place in the peer's message, as packed. A
        // message that never arrived is not part of the upload, and its
        // jobs are skipped.
        let jobs = Part::each(parts).map(|(part, job)| (part.slot(job), part, job));
        let mut by_peer: Vec<_> = jobs.filter(|((peer, _), ..)| msgs[*peer].is_some()).collect();
        if by_peer.is_empty() {
            return;
        }
        by_peer.sort_by_key(|((peer, range), ..)| (*peer, range.start));
        // Each received message's first byte in the one upload: they go
        // back to back, in peer order.
        let mut base = Vec::with_capacity(msgs.len());
        let mut end = 0;
        for msg in msgs {
            base.push(end);
            end += msg.as_ref().map_or(0, Bytes::len);
        }
        let received: Vec<&[u8]> = msgs.iter().flatten().map(|msg| &msg[..]).collect();
        self.with_staging(end / STREAM_VALUE_BYTES, |staging| {
            unpack_message(&self.device, staging, &received, |unpack| {
                for ((peer, range), part, job) in by_peer {
                    let dst = ctx.data_mut(part.at(job.loc), job.var);
                    let first = (base[peer] + range.start) / STREAM_VALUE_BYTES;
                    unpack(device_mut(dst), &job.overlap, first);
                }
            });
        });
    }

    fn extend_many(&self, scratch: &mut [Box<dyn PatchData>], covered: &[&[BoxList]]) {
        let pairs: Vec<_> = scratch
            .iter()
            .zip(covered.iter().copied().flatten())
            .map(|(scratch, covered)| extension_pairs(scratch.data_box(), covered))
            .collect();
        let total = pairs.iter().map(Vec::len).sum();
        launch_extend(&self.device, total, |extend| {
            for (scratch, pairs) in scratch.iter_mut().zip(&pairs) {
                extend(device_mut(scratch.as_mut()), pairs);
            }
        });
    }

    fn refine_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        groups: &[OpGroup<'_, dyn RefineOperator, RefineJob>],
    ) {
        launch_refine(&mut |visit: &mut RefineVisit<'_>| {
            for (op, ratio, part, job) in OpGroup::each(groups) {
                let (dst, src) = ctx.pair(
                    Loc::Patch { level: job.level, pos: job.pos },
                    part.at(Loc::Scratch(job.scratch)),
                    job.var,
                );
                visit(op, ratio, device_mut(dst), device_ref(src), &job.fill);
            }
        });
    }

    fn coarsen_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        fine_level: usize,
        groups: &[OpGroup<'_, dyn CoarsenOperator, CoarsenJob>],
    ) {
        launch_coarsen(&mut |visit: &mut CoarsenVisit<'_>| {
            for (op, ratio, part, job) in OpGroup::each(groups) {
                let fine = &ctx.hierarchy.level(fine_level).local()[job.pos as usize];
                let aux = &mut job.aux.iter().map(|&a| device_ref(fine.data(a)));
                let dst = ctx.scratch[(part.scratch + job.scratch) as usize].as_mut();
                visit(op, ratio, device_mut(dst), device_ref(fine.data(job.var)), aux, &job.fill);
            }
        });
    }

    fn upload_tables(&self, tables: &PassTables) {
        let mut held = self.tables.lock().expect("a descriptor upload panicked");
        let (resident, table) = &mut *held;
        // A weak reference keeps a table's address from being reused, so
        // the address names the table.
        let same = |(r, t): (&Weak<_>, &Arc<_>)| std::ptr::addr_eq(r.as_ptr(), Arc::as_ptr(t));
        if resident.len() == tables.iter().count() && resident.iter().zip(tables.iter()).all(same) {
            return;
        }
        *resident = tables.iter().map(Arc::downgrade).collect();
        let len = tables.render(None);
        if len == 0 {
            return;
        }
        if table.as_ref().is_none_or(|t| t.len() < len) {
            // Release the old table before asking for the larger one.
            *table = None;
            *table = Some(self.device.alloc(len));
        }
        let table = table.as_mut().expect("the table was ensured above");
        let render = |out: &mut [i32]| assert_eq!(tables.render(Some(out)), len);
        self.device.h2d(table, 0, len, render);
        let rec = self.device.recorder();
        rec.count("device.table_uploads", 1);
        rec.gauge_max("device.table_bytes", (len * std::mem::size_of::<i32>()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::{copy_overlap, ghost_overlaps};

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn dev() -> Device {
        Device::k20x()
    }

    fn filled(device: &Device, cell_box: GBox, ghosts: IntVector) -> DeviceData<f64> {
        let mut d = DeviceData::<f64>::new(device, cell_box, ghosts, Centring::Cell);
        let values: Vec<f64> = d.dbox.iter().map(|p| (p.x * 100 + p.y) as f64).collect();
        d.upload_all(&values, Category::Other);
        d
    }

    #[test]
    fn allocation_and_layout_match_host() {
        let device = dev();
        let d =
            DeviceData::<f64>::new(&device, b(0, 0, 4, 4), IntVector::uniform(2), Centring::Node);
        assert_eq!(d.data_box(), b(-2, -2, 7, 7));
        assert_eq!(d.buffer().len(), 81);
        assert_eq!(device.stats().allocated_bytes, 81 * 8);
    }

    #[test]
    fn device_copy_matches_host_copy() {
        let device = dev();
        let ghosts = IntVector::uniform(2);
        let src = filled(&device, b(4, 0, 8, 4), ghosts);
        let mut dst = DeviceData::<f64>::new(&device, b(0, 0, 4, 4), ghosts, Centring::Cell);
        let ov =
            ghost_overlaps(b(0, 0, 4, 4), ghosts, b(4, 0, 8, 4), Centring::Cell, IntVector::ZERO);
        dst.copy_from(&src, &ov);
        let host = dst.download_all();
        let dbox = dst.data_box();
        assert_eq!(host[dbox.offset_of(IntVector::new(4, 2))], 402.0);
        assert_eq!(host[dbox.offset_of(IntVector::new(5, 3))], 503.0);
        assert_eq!(host[dbox.offset_of(IntVector::new(3, 3))], 0.0); // interior untouched
    }

    #[test]
    fn pack_stream_matches_host_format() {
        // A device pack must be byte-identical to the host pack of the
        // same values, so device and host ranks interoperate.
        let device = dev();
        let ghosts = IntVector::uniform(1);
        let cell_box = b(0, 0, 4, 4);
        let ddata = filled(&device, cell_box, ghosts);
        let mut hdata = rbamr_amr::HostData::<f64>::cell(cell_box, ghosts);
        for p in hdata.data_box().iter() {
            *hdata.at_mut(p) = (p.x * 100 + p.y) as f64;
        }
        let ov = copy_overlap(b(2, 2, 6, 6), cell_box, Centring::Cell);
        assert_eq!(ddata.pack(&ov), hdata.pack(&ov));
    }

    #[test]
    fn pack_unpack_roundtrip_on_device() {
        let device = dev();
        let ghosts = IntVector::uniform(2);
        let src = filled(&device, b(4, 0, 8, 4), ghosts);
        let ov =
            ghost_overlaps(b(0, 0, 4, 4), ghosts, b(4, 0, 8, 4), Centring::Cell, IntVector::ZERO);
        let stream = src.pack(&ov);
        assert_eq!(stream.len(), src.stream_size(&ov));
        let mut dst = DeviceData::<f64>::new(&device, b(0, 0, 4, 4), ghosts, Centring::Cell);
        dst.unpack(&ov, &stream);
        let host = dst.download_all();
        let dbox = dst.data_box();
        assert_eq!(host[dbox.offset_of(IntVector::new(4, 1))], 401.0);
    }

    #[test]
    fn pack_transfers_only_packed_bytes() {
        // Residency: the D2H traffic of a pack is exactly the overlap
        // size, not the whole array.
        let device = dev();
        let ghosts = IntVector::uniform(2);
        let src = filled(&device, b(0, 0, 64, 64), ghosts);
        device.reset_transfer_stats();
        let ov = ghost_overlaps(
            b(64, 0, 128, 64),
            ghosts,
            b(0, 0, 64, 64),
            Centring::Cell,
            IntVector::ZERO,
        );
        let stream = src.pack(&ov);
        let stats = device.stats();
        assert_eq!(stats.d2h_bytes, stream.len() as u64);
        assert_eq!(stats.d2h_transfers, 1);
        assert_eq!(stats.h2d_bytes, 0);
        // 2 ghost columns x 64 rows x 8 bytes.
        assert_eq!(stream.len(), 2 * 64 * 8);
    }

    #[test]
    fn kernels_charge_the_set_category() {
        let device = dev();
        let ghosts = IntVector::uniform(1);
        let src = filled(&device, b(4, 0, 8, 4), ghosts);
        let mut dst = DeviceData::<f64>::new(&device, b(0, 0, 4, 4), ghosts, Centring::Cell);
        let _halo = device.clock().scope(Category::HaloExchange);
        let before = device.clock().snapshot().get(Category::HaloExchange);
        let ov =
            ghost_overlaps(b(0, 0, 4, 4), ghosts, b(4, 0, 8, 4), Centring::Cell, IntVector::ZERO);
        dst.copy_from(&src, &ov);
        assert!(device.clock().snapshot().get(Category::HaloExchange) > before);
    }

    #[test]
    fn factory_allocates_on_its_device() {
        let device = dev();
        let factory = DeviceDataFactory::new(device.clone());
        let data = factory.make(Centring::Cell, IntVector::uniform(2), b(0, 0, 8, 8));
        assert_eq!(data.cell_box(), b(0, 0, 8, 8));
        assert_eq!(device.stats().allocated_bytes, 12 * 12 * 8);
        let scratch = factory.make(Centring::Node, IntVector::ZERO, b(0, 0, 8, 8));
        assert_eq!(scratch.data_box(), b(0, 0, 9, 9));
        assert_eq!(device.stats().allocated_bytes, (12 * 12 + 9 * 9) * 8);
    }

    #[test]
    fn i32_tag_data_roundtrips() {
        let device = dev();
        let mut d = DeviceData::<i32>::new(&device, b(0, 0, 4, 4), IntVector::ZERO, Centring::Cell);
        let mut vals = vec![0i32; 16];
        vals[5] = 1;
        d.upload_all(&vals, Category::Regrid);
        let back = d.download_all();
        assert_eq!(back, vals);
    }
}
