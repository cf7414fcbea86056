//! Device-resident patch data — the `CudaArrayData`/`CudaCellData`/
//! `CudaNodeData`/`CudaSideData` family (paper Figure 3).

use crate::ops::{launch_coarsen, launch_refine, CoarsenVisit, RefineVisit};
use bytes::Bytes;
use rbamr_amr::ops::{CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::{
    copy_region, extension_pairs, pack_region, unpack_region, validate_overlap, Element, PatchData,
    PatchDataError,
};
use rbamr_amr::transfer::{
    CoarsenJob, CopyJob, PeerStream, RefineJob, StreamJob, TransferCtx, UnpackBatch,
    STREAM_VALUE_BYTES,
};
use rbamr_amr::variable::DataFactory;
use rbamr_device::memory::DeviceCopy;
use rbamr_device::{Device, DeviceBuffer, DeviceError, Stream};
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_perfmodel::{Category, KernelShape};
use std::any::Any;
use std::sync::{Arc, Mutex};

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
/// module and [`crate::ops`] (`launch_copy`, `pack_message`,
/// `unpack_message`, `launch_extend`, `launch_refine`,
/// `launch_coarsen`). The schedules do not call them per overlap: they
/// hand whole stages to [`DeviceDataFactory`], which runs the same
/// kernels once per stage — one `copy-region` launch per job list, one
/// `pack` launch and one D2H for all of a stage's outgoing messages, one
/// H2D and one `unpack` launch for all it received, one interpolation or
/// projection launch per operator. A regrid's solution transfer is such
/// a schedule too. The per-item methods remain for the callers that move
/// one region at a time (checkpoints, digests, probes).
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
    stream: Stream,
    time: f64,
    category: Category,
    /// Host-side image when the data is spilled out of device memory
    /// (the paper's future-work extension, Section VI). `Some` means
    /// the device allocation has been released.
    spilled: Option<Vec<T>>,
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
        let stream = Stream::new(device);
        Self {
            cell_box,
            ghosts,
            centring,
            dbox,
            buf,
            stream,
            time: 0.0,
            category: Category::Other,
            spilled: None,
        }
    }

    /// True if the data currently lives in host memory (spilled).
    pub fn is_spilled(&self) -> bool {
        self.spilled.is_some()
    }

    /// Spill the array to host memory, releasing its device allocation
    /// — the paper's future-work mechanism for oversubscribing the
    /// 6 GB device ("allowing patches to be 'spilled' into CPU memory
    /// and then be transferred back to the device when necessary").
    /// One D2H transfer; idempotent.
    pub fn spill(&mut self, category: Category) {
        if self.spilled.is_some() {
            return;
        }
        let device = self.buf.device().clone();
        let mut host = vec![T::default(); self.buf.len()];
        device.download(&self.buf, 0, &mut host, category);
        // Release the device bytes by replacing the buffer with an
        // empty allocation.
        self.buf = device.alloc::<T>(0);
        self.spilled = Some(host);
    }

    /// Bring spilled data back into device memory (one H2D transfer).
    /// Idempotent.
    ///
    /// # Panics
    /// Panics if the device is out of memory.
    pub fn unspill(&mut self, category: Category) {
        let Some(host) = self.spilled.take() else { return };
        let device = self.buf.device().clone();
        let mut buf = device.alloc::<T>(host.len());
        device.upload(&mut buf, 0, &host, category);
        self.buf = buf;
    }

    fn assert_resident(&self, what: &str) {
        assert!(
            self.spilled.is_none(),
            "{what} on spilled patch data (cell box {:?}): call unspill() first",
            self.cell_box
        );
    }

    /// The device this data lives on.
    pub fn device(&self) -> &Device {
        self.buf.device()
    }

    /// The data's stream (per-patch streams, as in the paper's
    /// Figure 5a host code).
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// The current transfer category (what the next kernel charges).
    pub fn category(&self) -> Category {
        self.category
    }

    /// The backing device buffer (for kernels in this crate and the
    /// hydro device integrator).
    ///
    /// # Panics
    /// Panics if the data is spilled — the device pointer would be
    /// dangling, exactly the fault the real mechanism must prevent.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        self.assert_resident("kernel access");
        &self.buf
    }

    /// Mutable backing device buffer.
    ///
    /// # Panics
    /// Panics if the data is spilled.
    pub fn buffer_mut(&mut self) -> &mut DeviceBuffer<T> {
        self.assert_resident("kernel access");
        &mut self.buf
    }

    /// Upload a full host image into the device array — permitted only
    /// for initialisation and restart (the sanctioned full-array
    /// transfers). Values are row-major over [`PatchData::data_box`].
    pub fn upload_all(&mut self, values: &[T], category: Category) {
        assert_eq!(values.len(), self.buf.len(), "upload_all: size mismatch");
        let dev = self.buf.device().clone();
        dev.upload(&mut self.buf, 0, values, category);
    }

    /// Download the full array to the host — visualisation, checkpoint
    /// and test interop only.
    pub fn download_all(&self, category: Category) -> Vec<T> {
        let mut out = vec![T::default(); self.buf.len()];
        self.buf.device().download(&self.buf, 0, &mut out, category);
        out
    }

    /// Linear index of `p` within the device array.
    #[inline]
    pub fn index(&self, p: IntVector) -> usize {
        self.dbox.offset_of(p)
    }
}

fn allocation_fault(e: DeviceError) -> PatchDataError {
    PatchDataError::Allocation { detail: e.to_string() }
}

fn transfer_fault(e: DeviceError) -> PatchDataError {
    PatchDataError::Transfer { detail: e.to_string() }
}

/// The `copy-region` kernel: one launch copying every `(dst, src,
/// overlap)` that `jobs` yields, `total` values in all (one logical
/// thread per element; the row decomposition is the safe-Rust shape of
/// the Figure 4 kernel). No launch when there is nothing to copy.
fn launch_copy<T: DeviceElement>(
    device: &Device,
    stream: &Stream,
    category: Category,
    total: i64,
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<T>, &DeviceData<T>, &BoxOverlap)),
) {
    if total == 0 {
        return;
    }
    let shape = KernelShape::streaming(total, 2, 0);
    stream.submit();
    device.launch_named(stream, "copy-region", category, shape, |k| {
        jobs(&mut |dst, src, overlap| {
            let (dst_dbox, src_dbox) = (dst.dbox, src.dbox);
            let src_slice = src.buffer().as_slice(&k);
            let dst_slice = dst.buffer_mut().as_mut_slice(&k);
            for fill in overlap.dst_boxes.boxes() {
                copy_region(dst_slice, dst_dbox, src_slice, src_dbox, *fill, overlap.shift);
            }
        });
    });
}

/// The `pack` kernel and its transfer: one launch gathers every region
/// `jobs` yields, in order, into `staging[..total]` (the contiguous
/// `cuda_stream` buffer of Figure 4), then one D2H brings exactly the
/// packed values to the host, where they become the message stream.
///
/// `fallible` picks only how a PCIe failure leaves: `true` returns it
/// typed; `false` latches an injected fault on the device (drained by
/// the caller's next [`Device::take_injected_fault`] poll) and never
/// returns `Err`.
fn pack_message<T: DeviceElement>(
    device: &Device,
    stream: &Stream,
    category: Category,
    staging: &mut DeviceBuffer<T>,
    total: usize,
    fallible: bool,
    jobs: impl FnOnce(&mut dyn FnMut(&DeviceData<T>, &BoxOverlap)),
) -> Result<Bytes, PatchDataError> {
    device.recorder().count("pack.bytes", (total * T::BYTES) as u64);
    if total > 0 {
        let shape = KernelShape::streaming(total as i64, 2, 0);
        stream.submit();
        device.launch_named(stream, "pack", category, shape, |k| {
            let out = &mut staging.as_mut_slice(&k)[..total];
            let mut offset = 0usize;
            jobs(&mut |src, overlap| {
                let src_slice = src.buffer().as_slice(&k);
                for fill in overlap.dst_boxes.boxes() {
                    let n = fill.num_cells() as usize;
                    let packed = &mut out[offset..offset + n];
                    pack_region(packed, src_slice, src.dbox, *fill, overlap.shift);
                    offset += n;
                }
            });
            assert_eq!(offset, total, "pack: jobs do not fill the message");
        });
    }
    let mut host = vec![T::default(); total];
    if fallible {
        device.try_download(staging, 0, &mut host, category).map_err(transfer_fault)?;
    } else {
        device.download(staging, 0, &mut host, category);
    }
    let mut out = Vec::with_capacity(total * T::BYTES);
    T::encode(&host, &mut out);
    Ok(Bytes::from(out))
}

/// The `unpack` kernel and its transfer: one H2D of `msgs`, back to
/// back, into `staging`, then one launch scattering them. Each job names
/// the first value of its overlap within the concatenation.
///
/// `fallible` as for [`pack_message`]; on `Err` nothing was unpacked.
fn unpack_message<T: DeviceElement>(
    device: &Device,
    stream: &Stream,
    category: Category,
    staging: &mut DeviceBuffer<T>,
    msgs: &[&[u8]],
    fallible: bool,
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<T>, &BoxOverlap, usize)),
) -> Result<(), PatchDataError> {
    let total = msgs.iter().map(|m| m.len()).sum::<usize>() / T::BYTES;
    device.recorder().count("unpack.bytes", (total * T::BYTES) as u64);
    let mut host = vec![T::default(); total];
    let mut rest = &mut host[..];
    for msg in msgs {
        let (values, tail) = rest.split_at_mut(msg.len() / T::BYTES);
        T::decode(msg, values);
        rest = tail;
    }
    if fallible {
        device.try_upload(staging, 0, &host, category).map_err(transfer_fault)?;
    } else {
        device.upload(staging, 0, &host, category);
    }
    if total > 0 {
        let shape = KernelShape::streaming(total as i64, 2, 0);
        stream.submit();
        device.launch_named(stream, "unpack", category, shape, |k| {
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
    Ok(())
}

/// The `extend-uncovered` kernel: one launch applying every `(target,
/// source)` offset pair of every array `jobs` yields, `total` pairs in
/// all. No launch when there is nothing to extend.
fn launch_extend<T: DeviceElement>(
    device: &Device,
    stream: &Stream,
    category: Category,
    total: usize,
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<T>, &[(usize, usize)])),
) {
    if total == 0 {
        return;
    }
    let shape = KernelShape::streaming(total as i64, 2, 0);
    stream.submit();
    device.launch_named(stream, "extend-uncovered", category, shape, |k| {
        jobs(&mut |data, pairs| {
            let slice = data.buffer_mut().as_mut_slice(&k);
            // Sources are covered cells, targets uncovered: disjoint.
            for &(t, s) in pairs {
                slice[t] = slice[s];
            }
        });
    });
}

/// The per-item `pack`/`unpack` pairs as batches of one, staged through
/// a buffer of exactly the overlap's size. `fallible` also picks how a
/// staging-allocation failure leaves (see [`pack_message`]).
impl<T: DeviceElement> DeviceData<T> {
    fn staging(&self, len: usize, fallible: bool) -> Result<DeviceBuffer<T>, PatchDataError> {
        let device = self.buf.device();
        if fallible {
            device.try_alloc::<T>(len).map_err(allocation_fault)
        } else {
            Ok(device.alloc::<T>(len))
        }
    }

    fn pack_impl(&self, overlap: &BoxOverlap, fallible: bool) -> Result<Bytes, PatchDataError> {
        let total = overlap.num_values() as usize;
        let mut staging = self.staging(total, fallible)?;
        let (device, stream) = (self.buf.device(), &self.stream);
        pack_message(device, stream, self.category, &mut staging, total, fallible, |pack| {
            pack(self, overlap);
        })
    }

    fn unpack_impl(
        &mut self,
        overlap: &BoxOverlap,
        stream: &[u8],
        fallible: bool,
    ) -> Result<(), PatchDataError> {
        assert_eq!(stream.len(), self.stream_size(overlap), "unpack: stream length mismatch");
        let mut staging = self.staging(overlap.num_values() as usize, fallible)?;
        let (device, queue, category) =
            (self.buf.device().clone(), self.stream.clone(), self.category);
        unpack_message(&device, &queue, category, &mut staging, &[stream], fallible, |unpack| {
            unpack(self, overlap, 0);
        })
    }
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

    fn set_transfer_category(&mut self, category: Category) {
        self.category = category;
    }

    fn copy_from(&mut self, src: &dyn PatchData, overlap: &BoxOverlap) {
        let src = src
            .as_any()
            .downcast_ref::<DeviceData<T>>()
            .expect("DeviceData::copy_from: source is not DeviceData of the same element type");
        validate_overlap(overlap, src.dbox, self.dbox, self.centring);
        let (device, stream, category) =
            (self.buf.device().clone(), self.stream.clone(), self.category);
        launch_copy(&device, &stream, category, overlap.num_values(), |copy| {
            copy(self, src, overlap);
        });
    }

    fn stream_size(&self, overlap: &BoxOverlap) -> usize {
        overlap.num_values() as usize * T::BYTES
    }

    fn pack(&self, overlap: &BoxOverlap) -> Bytes {
        self.pack_impl(overlap, false).expect("latching device ops return no error")
    }

    fn try_pack(&self, overlap: &BoxOverlap) -> Result<Bytes, PatchDataError> {
        self.pack_impl(overlap, true)
    }

    fn try_unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) -> Result<(), PatchDataError> {
        self.unpack_impl(overlap, stream, true)
    }

    fn extend_uncovered(&mut self, covered: &rbamr_geometry::BoxList) {
        let pairs = extension_pairs(self.dbox, covered);
        let (device, stream, category) =
            (self.buf.device().clone(), self.stream.clone(), self.category);
        launch_extend(&device, &stream, category, pairs.len(), |extend| extend(self, &pairs));
    }

    fn unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) {
        self.unpack_impl(overlap, stream, false).expect("latching device ops return no error")
    }

    fn refine_from(
        &mut self,
        op: &dyn RefineOperator,
        src: &dyn PatchData,
        fills: &BoxList,
        ratio: IntVector,
    ) {
        let (dst, src) = (device_mut(self), device_ref(src));
        launch_refine(op, &mut |visit| visit(dst, src, fills), ratio);
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
        launch_coarsen(
            op,
            &mut |visit| visit(dst, src, &mut aux.iter().map(|&a| device_ref(a)), fills),
            ratio,
        );
    }
}

/// Factory producing [`DeviceData<f64>`] for simulation variables — the
/// GPU-resident data placement. Swapping [`HostDataFactory`]
/// (rbamr-amr) for this type is the entire difference between the CPU
/// and GPU builds of the application, exactly as the paper's Figure 6
/// shows for CleverLeaf's two patch integrators.
///
/// It is also where a schedule stage becomes fused device work: every
/// batch entry point of [`DataFactory`] is overridden with one launch
/// per call (copies, packs, unpacks and scratch extension on the
/// factory's transfer stream; interpolation and projection where the
/// first job's destination lives), and a stage's messages
/// cross PCIe together — every peer's, back to back in peer order, in
/// one transfer — through one persistent, grow-only device buffer: the
/// simulated device is synchronous, so the buffer is free again as soon
/// as the stage's D2H returns or its unpack launch ends, and a steady
/// step allocates no staging at all. A stage with no peers stages,
/// launches and transfers nothing.
///
/// [`HostDataFactory`]: rbamr_amr::HostDataFactory
#[derive(Clone)]
pub struct DeviceDataFactory {
    device: Device,
    /// The stream fused transfer launches are submitted to.
    stream: Stream,
    /// Message staging, shared by the factory's clones.
    staging: Arc<Mutex<Option<DeviceBuffer<f64>>>>,
}

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
        let stream = Stream::new(&device);
        Self { device, stream, staging: Arc::new(Mutex::new(None)) }
    }

    /// The device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run `f` on the staging buffer, grown first if it holds fewer
    /// than `len` values. Growth is the only allocation a fused
    /// transfer makes, and its failure is the transfer's failure.
    fn with_staging<R>(
        &self,
        len: usize,
        f: impl FnOnce(&mut DeviceBuffer<f64>) -> Result<R, PatchDataError>,
    ) -> Result<R, PatchDataError> {
        let mut slot = self.staging.lock().expect("a fused transfer panicked mid-message");
        if slot.as_ref().is_none_or(|buf| buf.len() < len) {
            // Release the old buffer before asking for the larger one.
            *slot = None;
            let grown = self.device.try_alloc(len.next_power_of_two());
            *slot = Some(grown.map_err(allocation_fault)?);
        }
        f(slot.as_mut().expect("staging was ensured above"))
    }
}

impl DataFactory for DeviceDataFactory {
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData> {
        Box::new(DeviceData::<f64>::new(&self.device, cell_box, ghosts, centring))
    }

    fn copy_many(&self, ctx: &mut TransferCtx<'_>, jobs: &[CopyJob], category: Category) {
        let total = jobs.iter().map(|job| job.overlap.num_values()).sum();
        launch_copy(&self.device, &self.stream, category, total, |copy| {
            for job in jobs {
                let (dst, src) = ctx.pair(job.dst, job.src, job.var);
                dst.set_transfer_category(category);
                copy(device_mut(dst), device_ref(src), &job.overlap);
            }
        });
    }

    fn pack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        jobs: &[StreamJob],
        peers: &[PeerStream],
        category: Category,
    ) -> (Vec<Bytes>, Option<PatchDataError>) {
        if peers.is_empty() {
            return (Vec::new(), None);
        }
        // Peer-major, job order inside a peer unchanged: `StreamJob::first`
        // stays the offset inside the peer's slice of the staging region.
        let mut by_peer: Vec<&StreamJob> = jobs.iter().collect();
        by_peer.sort_by_key(|job| job.peer);
        let total = peers.iter().map(|peer| peer.bytes).sum::<usize>() / STREAM_VALUE_BYTES;
        let packed = self.with_staging(total, |staging| {
            let (device, stream) = (&self.device, &self.stream);
            pack_message(device, stream, category, staging, total, true, |pack| {
                for job in by_peer {
                    let src = ctx.data_mut(job.loc, job.var);
                    src.set_transfer_category(category);
                    pack(device_ref(src), &job.overlap);
                }
            })
        });
        let mut end = 0;
        let streams = peers.iter().map(|peer| {
            let start = end;
            end += peer.bytes;
            match &packed {
                Ok(stage) => stage.slice(start..end),
                // Run-through: every peer still gets a message of the
                // exact size, and the fault surfaces at the commit.
                Err(_) => Bytes::from(vec![0u8; peer.bytes]),
            }
        });
        (streams.collect(), packed.err())
    }

    fn unpack_batch<'a>(&'a self, category: Category) -> Box<dyn UnpackBatch<'a> + 'a> {
        Box::new(DeviceUnpack { factory: self, category, pending: Vec::new() })
    }

    fn extend_many(&self, scratch: &mut [Box<dyn PatchData>], covered: &[BoxList]) {
        // The scratch arrays carry the category their fill charges.
        let Some(category) = scratch.first().map(|s| device_ref(s.as_ref()).category) else {
            return;
        };
        let pairs: Vec<_> = scratch
            .iter()
            .zip(covered)
            .map(|(scratch, covered)| extension_pairs(scratch.data_box(), covered))
            .collect();
        let total = pairs.iter().map(Vec::len).sum();
        launch_extend(&self.device, &self.stream, category, total, |extend| {
            for (scratch, pairs) in scratch.iter_mut().zip(&pairs) {
                extend(device_mut(scratch.as_mut()), pairs);
            }
        });
    }

    fn refine_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        op: &dyn RefineOperator,
        level: usize,
        jobs: &[RefineJob],
        ratio: IntVector,
        category: Category,
    ) {
        let mut each = |visit: &mut RefineVisit<'_>| {
            for job in jobs {
                let fine = &mut ctx.hierarchy.level_mut(level).local_mut()[job.pos as usize];
                let dst = fine.data_mut(job.var);
                dst.set_transfer_category(category);
                let src = ctx.scratch[job.scratch as usize].as_ref();
                visit(device_mut(dst), device_ref(src), &job.fill);
            }
        };
        launch_refine(op, &mut each, ratio);
    }

    fn coarsen_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        op: &dyn CoarsenOperator,
        fine_level: usize,
        jobs: &[CoarsenJob],
        ratio: IntVector,
    ) {
        let mut each = |visit: &mut CoarsenVisit<'_>| {
            for job in jobs {
                let fine = &ctx.hierarchy.level(fine_level).local()[job.pos as usize];
                let aux = &mut job.aux.iter().map(|&a| device_ref(fine.data(a)));
                let dst = device_mut(ctx.scratch[job.scratch as usize].as_mut());
                visit(dst, device_ref(fine.data(job.var)), aux, &job.fill);
            }
        };
        launch_coarsen(op, &mut each, ratio);
    }

    fn upload_descriptors(
        &self,
        words: &mut dyn FnMut() -> Vec<i32>,
        category: Category,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        let words = words();
        if words.is_empty() {
            return None;
        }
        let mut table = self.device.alloc::<i32>(words.len());
        self.device.upload(&mut table, 0, &words, category);
        Some(Box::new(table))
    }
}

/// The device's [`UnpackBatch`]: `push` only records, `flush` moves
/// every received message with one H2D and scatters them with one
/// launch. A message that never arrived is simply not part of the
/// upload; a failed upload skips every job of the stage.
struct DeviceUnpack<'f, 'j> {
    factory: &'f DeviceDataFactory,
    category: Category,
    /// Per peer: its message and the jobs that read it.
    pending: Vec<Option<(Bytes, Vec<&'j StreamJob>)>>,
}

impl<'j> UnpackBatch<'j> for DeviceUnpack<'_, 'j> {
    fn push(
        &mut self,
        _ctx: &mut TransferCtx<'_>,
        job: &'j StreamJob,
        msg: &Bytes,
    ) -> Result<(), PatchDataError> {
        let peer = job.peer as usize;
        if self.pending.len() <= peer {
            self.pending.resize(peer + 1, None);
        }
        self.pending[peer].get_or_insert_with(|| (msg.clone(), Vec::new())).1.push(job);
        Ok(())
    }

    fn flush(&mut self, ctx: &mut TransferCtx<'_>) -> Result<(), PatchDataError> {
        let (factory, category) = (self.factory, self.category);
        let pending: Vec<_> = self.pending.drain(..).flatten().collect();
        if pending.is_empty() {
            return Ok(());
        }
        let msgs: Vec<&[u8]> = pending.iter().map(|(msg, _)| &msg[..]).collect();
        let total = msgs.iter().map(|msg| msg.len()).sum::<usize>() / STREAM_VALUE_BYTES;
        factory.with_staging(total, |staging| {
            let (device, stream) = (&factory.device, &factory.stream);
            unpack_message(device, stream, category, staging, &msgs, true, |unpack| {
                let mut base = 0;
                for (msg, jobs) in &pending {
                    for job in jobs {
                        let dst = ctx.data_mut(job.loc, job.var);
                        dst.set_transfer_category(category);
                        unpack(device_mut(dst), &job.overlap, base + job.first as usize);
                    }
                    base += msg.len() / STREAM_VALUE_BYTES;
                }
            })
        })
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
        let host = dst.download_all(Category::Other);
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
        let host = dst.download_all(Category::Other);
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
        dst.set_transfer_category(Category::HaloExchange);
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
        let back = d.download_all(Category::Regrid);
        assert_eq!(back, vals);
    }
}
