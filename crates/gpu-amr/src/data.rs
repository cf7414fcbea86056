//! Device-resident patch data — the `CudaArrayData`/`CudaCellData`/
//! `CudaNodeData`/`CudaSideData` family (paper Figure 3).

use crate::pack::{copy_region, pack_region, region_threads, unpack_region};
use bytes::Bytes;
use rbamr_amr::patchdata::{validate_overlap, Element, PatchData, PatchDataError};
use rbamr_amr::variable::{DataFactory, Variable};
use rbamr_device::memory::DeviceCopy;
use rbamr_device::{Device, DeviceBuffer, Stream};
use rbamr_geometry::{BoxOverlap, Centring, GBox, IntVector};
use rbamr_perfmodel::{Category, KernelShape};
use std::any::Any;

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

/// The one body behind each `pack`/`try_pack` and `unpack`/`try_unpack`
/// pair. `fallible` picks only how a staging-allocation or PCIe
/// failure leaves: `true` uses the device's `try_*` ops and returns the
/// failure typed; `false` uses the ops that panic on genuine exhaustion
/// and latch an injected fault on the device (drained by the caller's
/// next [`Device::take_injected_fault`] poll), so it never returns
/// `Err`.
impl<T: DeviceElement> DeviceData<T> {
    fn staging(&self, len: usize, fallible: bool) -> Result<DeviceBuffer<T>, PatchDataError> {
        let device = self.buf.device();
        if fallible {
            device
                .try_alloc::<T>(len)
                .map_err(|e| PatchDataError::Allocation { detail: e.to_string() })
        } else {
            Ok(device.alloc::<T>(len))
        }
    }

    fn pack_impl(&self, overlap: &BoxOverlap, fallible: bool) -> Result<Bytes, PatchDataError> {
        let device = self.buf.device().clone();
        let total = overlap.num_values() as usize;
        device.recorder().count("pack.bytes", (total * T::BYTES) as u64);
        // Stage the packed values in device memory (the contiguous
        // `cuda_stream` buffer of Figure 4), then one D2H transfer.
        let mut staging = self.staging(total, fallible)?;
        if total > 0 {
            let shape = KernelShape::streaming(total as i64, 2, 0);
            self.stream.submit();
            let (src_buf, src_dbox) = (&self.buf, self.dbox);
            let staging_ref = &mut staging;
            device.launch_named(&self.stream, "pack", self.category, shape, |k| {
                let src_slice = src_buf.as_slice(&k);
                let out = staging_ref.as_mut_slice(&k);
                let mut offset = 0usize;
                for fill in overlap.dst_boxes.boxes() {
                    let n = region_threads(*fill);
                    pack_region(
                        &mut out[offset..offset + n],
                        src_slice,
                        src_dbox,
                        *fill,
                        overlap.shift,
                    );
                    offset += n;
                }
            });
        }
        let mut host = vec![T::default(); total];
        if fallible {
            device
                .try_download(&staging, 0, &mut host, self.category)
                .map_err(|e| PatchDataError::Transfer { detail: e.to_string() })?;
        } else {
            device.download(&staging, 0, &mut host, self.category);
        }
        let mut out = Vec::with_capacity(total * T::BYTES);
        for v in host {
            v.write_to(&mut out);
        }
        Ok(Bytes::from(out))
    }

    fn unpack_impl(
        &mut self,
        overlap: &BoxOverlap,
        stream: &[u8],
        fallible: bool,
    ) -> Result<(), PatchDataError> {
        assert_eq!(stream.len(), self.stream_size(overlap), "unpack: stream length mismatch");
        let device = self.buf.device().clone();
        let total = overlap.num_values() as usize;
        device.recorder().count("unpack.bytes", (total * T::BYTES) as u64);
        let mut host = Vec::with_capacity(total);
        let mut cursor = 0usize;
        for _ in 0..total {
            host.push(T::read_from(&stream[cursor..]));
            cursor += T::BYTES;
        }
        // One H2D transfer of the packed buffer, then parallel unpack.
        let mut staging = self.staging(total, fallible)?;
        if fallible {
            device
                .try_upload(&mut staging, 0, &host, self.category)
                .map_err(|e| PatchDataError::Transfer { detail: e.to_string() })?;
        } else {
            device.upload(&mut staging, 0, &host, self.category);
        }
        let dst_dbox = self.dbox;
        if total > 0 {
            let shape = KernelShape::streaming(total as i64, 2, 0);
            self.stream.submit();
            let dst_buf = &mut self.buf;
            let staging_ref = &staging;
            device.launch_named(&self.stream, "unpack", self.category, shape, |k| {
                let input = staging_ref.as_slice(&k);
                let dst_slice = dst_buf.as_mut_slice(&k);
                let mut offset = 0usize;
                for fill in overlap.dst_boxes.boxes() {
                    let n = region_threads(*fill);
                    unpack_region(dst_slice, dst_dbox, &input[offset..offset + n], *fill);
                    offset += n;
                }
            });
        }
        Ok(())
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
        if overlap.is_empty() {
            return;
        }
        let device = self.buf.device().clone();
        let category = self.category;
        let dst_dbox = self.dbox;
        // One batched launch covers every region of the overlap (one
        // logical thread per element; the row decomposition is the
        // safe-Rust shape of the Figure 4 kernel).
        let shape = KernelShape::streaming(overlap.num_values(), 2, 0);
        self.stream.submit();
        let (dst_buf, src_buf, src_dbox) = (&mut self.buf, &src.buf, src.dbox);
        device.launch_named(&self.stream, "copy-region", category, shape, |k| {
            let src_slice = src_buf.as_slice(&k);
            let dst_slice = dst_buf.as_mut_slice(&k);
            for fill in overlap.dst_boxes.boxes() {
                copy_region(dst_slice, dst_dbox, src_slice, src_dbox, *fill, overlap.shift);
            }
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
        let pairs = rbamr_amr::patchdata::extension_pairs(self.dbox, covered);
        if pairs.is_empty() {
            return;
        }
        let device = self.buf.device().clone();
        self.stream.submit();
        let shape = KernelShape::streaming(pairs.len() as i64, 2, 0);
        let buf = &mut self.buf;
        device.launch_named(&self.stream, "extend-uncovered", self.category, shape, |k| {
            let slice = buf.as_mut_slice(&k);
            // Sources are covered cells, targets uncovered: disjoint.
            let vals: Vec<T> = pairs.iter().map(|&(_, s)| slice[s]).collect();
            for (&(t, _), v) in pairs.iter().zip(vals) {
                slice[t] = v;
            }
        });
    }

    fn unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]) {
        self.unpack_impl(overlap, stream, false).expect("latching device ops return no error")
    }
}

/// Factory producing [`DeviceData<f64>`] for simulation variables — the
/// GPU-resident data placement. Swapping [`HostDataFactory`]
/// (rbamr-amr) for this type is the entire difference between the CPU
/// and GPU builds of the application, exactly as the paper's Figure 6
/// shows for CleverLeaf's two patch integrators.
///
/// [`HostDataFactory`]: rbamr_amr::HostDataFactory
#[derive(Clone)]
pub struct DeviceDataFactory {
    device: Device,
}

impl DeviceDataFactory {
    /// A factory allocating on `device`.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// The device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl DataFactory for DeviceDataFactory {
    fn make(&self, var: &Variable, cell_box: GBox) -> Box<dyn PatchData> {
        Box::new(DeviceData::<f64>::new(&self.device, cell_box, var.ghosts, var.centring))
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
        let var = Variable {
            id: rbamr_amr::VariableId(0),
            name: "q".into(),
            centring: Centring::Cell,
            ghosts: IntVector::uniform(2),
        };
        let data = factory.make(&var, b(0, 0, 8, 8));
        assert_eq!(data.cell_box(), b(0, 0, 8, 8));
        assert!(device.stats().allocated_bytes >= 12 * 12 * 8);
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
