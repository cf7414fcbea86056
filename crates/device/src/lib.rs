//! A simulated accelerator with a distinct memory space.
//!
//! The paper's central claim is *residency*: "all data is stored
//! exclusively on the GPU", with host↔device traffic limited to packed
//! halo buffers, compressed tag bitmaps and dt scalars. Lacking a
//! physical GPU, this crate substitutes a **simulated device** that makes
//! residency an *enforceable, testable invariant* rather than a
//! convention:
//!
//! * [`DeviceBuffer`] holds data the host cannot read or write directly —
//!   the only safe accessors require a [`Kernel`] token, which is only
//!   handed out inside [`Device::launch`].
//! * Transfers go through [`Device::upload`] / [`Device::download`]
//!   (or their offset variants), which count every byte. Tests and the
//!   benchmark harness read [`Device::stats`] to assert that a timestep
//!   moves exactly the packed-halo + tag-bitmap + scalar traffic the
//!   paper describes, and nothing more.
//! * Kernel bodies execute for real on the launching thread; a body
//!   that covers a large region splits its rows across the host's cores
//!   (`rayon::join`, in the hydro kernels' row drivers). Each launch
//!   also advances the rank's virtual [`rbamr_perfmodel::Clock`] by the
//!   modelled K20x kernel cost, whatever the split.
//! * [`Stream`]s and [`Event`]s reproduce the ordering constructs of the
//!   paper's Figure 5a host code.

pub mod launch;
pub mod memory;
pub mod stream;

pub use launch::{Kernel, LaunchConfig};
pub use memory::{DeviceBuffer, DeviceError};
pub use stream::{Event, RecordPoint, Stream, StreamError};

use parking_lot::Mutex;
use rbamr_fault::{FaultInjector, FaultKind};
use rbamr_perfmodel::{Category, Clock, CostModel, KernelShape, Machine};
use rbamr_telemetry::Recorder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Transfer and allocation statistics for one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes copied host → device.
    pub h2d_bytes: u64,
    /// Bytes copied device → host.
    pub d2h_bytes: u64,
    /// Number of host → device transfers.
    pub h2d_transfers: u64,
    /// Number of device → host transfers.
    pub d2h_transfers: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Bytes currently allocated on the device.
    pub allocated_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_allocated_bytes: u64,
}

struct DeviceInner {
    cost: CostModel,
    clock: Clock,
    /// Transfer/compute overlap (the paper's Section VI future work):
    /// when enabled, PCIe transfer time hides behind accumulated kernel
    /// time instead of serialising after it.
    overlap_enabled: std::sync::atomic::AtomicBool,
    /// Kernel seconds available to hide transfers behind, bounded by
    /// [`OVERLAP_WINDOW`].
    overlap_credit: Mutex<f64>,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    h2d_transfers: AtomicU64,
    d2h_transfers: AtomicU64,
    kernel_launches: AtomicU64,
    allocated: AtomicU64,
    peak_allocated: AtomicU64,
    /// Telemetry handle; the flag mirrors `recorder.is_enabled()` so
    /// the disabled path costs one relaxed load, no lock.
    recorder: Mutex<Recorder>,
    telemetry_on: AtomicBool,
    /// Device id, for diagnostics when several devices exist in one
    /// process (one per simulated rank).
    id: u64,
    /// Serialises "stream 0" semantics where needed.
    _default_stream: Mutex<()>,
    /// Seeded fault injector, shared with the rank's communicator.
    injector: Mutex<Option<Arc<FaultInjector>>>,
    /// CUDA-style sticky error: a fault injected on an infallible path
    /// (factory allocation, spill transfer) is latched here and the
    /// operation completes with valid data; the resilience driver polls
    /// [`Device::take_injected_fault`] at phase boundaries.
    pending_fault: Mutex<Option<DeviceError>>,
}

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(0);

/// Maximum kernel time a device may bank for hiding transfers — the
/// depth of the asynchronous pipeline (a handful of kernel launches'
/// worth on real hardware).
const OVERLAP_WINDOW: f64 = 1.0e-3;

/// A handle to one simulated accelerator. Cloning shares the device.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Create a device modelled after `machine` (which must have an
    /// accelerator), charging virtual time to `clock`.
    ///
    /// # Panics
    /// Panics if `machine` has no accelerator.
    pub fn new(machine: Machine, clock: Clock) -> Self {
        assert!(
            machine.device.is_some(),
            "Device::new: machine {} has no accelerator",
            machine.name
        );
        Self {
            inner: Arc::new(DeviceInner {
                cost: CostModel::new(machine),
                clock,
                overlap_enabled: std::sync::atomic::AtomicBool::new(false),
                overlap_credit: Mutex::new(0.0),
                h2d_bytes: AtomicU64::new(0),
                d2h_bytes: AtomicU64::new(0),
                h2d_transfers: AtomicU64::new(0),
                d2h_transfers: AtomicU64::new(0),
                kernel_launches: AtomicU64::new(0),
                allocated: AtomicU64::new(0),
                peak_allocated: AtomicU64::new(0),
                recorder: Mutex::new(Recorder::disabled()),
                telemetry_on: AtomicBool::new(false),
                id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
                _default_stream: Mutex::new(()),
                injector: Mutex::new(None),
                pending_fault: Mutex::new(None),
            }),
        }
    }

    /// A K20x-modelled device with a private clock — convenient for
    /// tests and examples.
    pub fn k20x() -> Self {
        Self::new(Machine::ipa_gpu(), Clock::new())
    }

    /// This device's id (unique within the process).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The virtual clock charged by this device.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// The cost model (machine parameters) behind this device.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Attach a telemetry recorder; every launch, transfer, and
    /// allocation reports spans/counters through it from then on.
    pub fn set_recorder(&self, recorder: Recorder) {
        self.inner.telemetry_on.store(recorder.is_enabled(), Ordering::Relaxed);
        *self.inner.recorder.lock() = recorder;
    }

    /// The attached recorder (a disabled one if never set), for layers
    /// above the device (pack/unpack, tag kernels) to record through.
    pub fn recorder(&self) -> Recorder {
        if self.inner.telemetry_on.load(Ordering::Relaxed) {
            self.inner.recorder.lock().clone()
        } else {
            Recorder::disabled()
        }
    }

    #[inline]
    fn telemetry(&self) -> Option<Recorder> {
        if self.inner.telemetry_on.load(Ordering::Relaxed) {
            Some(self.inner.recorder.lock().clone())
        } else {
            None
        }
    }

    /// Attach a seeded fault injector (usually the same one wired into
    /// the rank's communicator): allocations and transfers consult it
    /// for injected out-of-memory and copy faults.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.inner.injector.lock() = Some(injector);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.injector.lock().clone()
    }

    /// Take (and clear) the latched sticky fault, if an injected fault
    /// fired on an infallible path since the last poll. The resilience
    /// driver checks this at phase boundaries; the data written by the
    /// faulting op itself is valid (the fault is synthetic), so rolling
    /// back to the last checkpoint is always safe.
    pub fn take_injected_fault(&self) -> Option<DeviceError> {
        self.inner.pending_fault.lock().take()
    }

    /// Evaluate the injector for `kind`; counts `fault.injected` when
    /// it fires.
    fn injected(&self, kind: FaultKind) -> bool {
        let fired = match &*self.inner.injector.lock() {
            Some(inj) => inj.should_fire(kind).is_some(),
            None => false,
        };
        if fired {
            if let Some(rec) = self.telemetry() {
                rec.count("fault.injected", 1);
            }
        }
        fired
    }

    /// Latch `err` as the sticky fault (first one wins).
    fn latch_fault(&self, err: DeviceError) {
        self.inner.pending_fault.lock().get_or_insert(err);
    }

    /// Enable or disable transfer/compute overlap — the paper's Section
    /// VI future work ("overlapping data transfer and computation").
    /// When enabled, PCIe transfers hide behind kernel time accumulated
    /// since the last transfer (up to a bounded pipeline window), so
    /// only the exposed remainder is charged to the clock. Data
    /// semantics are unchanged; only the timing model differs.
    pub fn set_transfer_overlap(&self, enabled: bool) {
        self.inner.overlap_enabled.store(enabled, std::sync::atomic::Ordering::Relaxed);
        if !enabled {
            *self.inner.overlap_credit.lock() = 0.0;
        }
    }

    /// True if transfer/compute overlap is enabled.
    pub fn transfer_overlap(&self) -> bool {
        self.inner.overlap_enabled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Charge a transfer, hiding as much as the overlap credit allows.
    fn charge_transfer(&self, category: Category, seconds: f64) {
        let exposed = if self.transfer_overlap() {
            let mut credit = self.inner.overlap_credit.lock();
            let hidden = seconds.min(*credit);
            *credit -= hidden;
            seconds - hidden
        } else {
            seconds
        };
        self.inner.clock.advance(category, exposed);
    }

    /// Bank kernel time as overlap credit.
    fn bank_credit(&self, seconds: f64) {
        if self.transfer_overlap() {
            let mut credit = self.inner.overlap_credit.lock();
            *credit = (*credit + seconds).min(OVERLAP_WINDOW);
        }
    }

    /// Allocate a zero-initialised device buffer of `len` elements.
    ///
    /// # Errors
    /// Returns [`DeviceError::OutOfMemory`] if the allocation would
    /// exceed the modelled device capacity (6 GB for the K20x), or if
    /// an attached fault injector simulates exhaustion at this
    /// allocation site.
    pub fn try_alloc<T: memory::DeviceCopy>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        if self.injected(FaultKind::AllocFail) {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                in_use: self.inner.allocated.load(Ordering::Relaxed),
                capacity: self.inner.cost.machine().device().memory_bytes,
            });
        }
        self.alloc_impl(len, bytes)
    }

    fn alloc_impl<T: memory::DeviceCopy>(
        &self,
        len: usize,
        bytes: u64,
    ) -> Result<DeviceBuffer<T>, DeviceError> {
        let capacity = self.inner.cost.machine().device().memory_bytes;
        let prev = self.inner.allocated.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > capacity {
            self.inner.allocated.fetch_sub(bytes, Ordering::Relaxed);
            return Err(DeviceError::OutOfMemory { requested: bytes, in_use: prev, capacity });
        }
        self.inner.peak_allocated.fetch_max(prev + bytes, Ordering::Relaxed);
        if let Some(rec) = self.telemetry() {
            rec.count("device.allocs", 1);
            rec.count("device.alloc_bytes", bytes);
            rec.gauge_max("device.peak_bytes", prev + bytes);
        }
        Ok(DeviceBuffer::new_zeroed(len, self.clone()))
    }

    /// Allocate, panicking on genuine exhaustion (most call sites size
    /// buffers from problem configuration and treat exhaustion as fatal,
    /// exactly as `cudaMalloc` failure was fatal in the original code).
    ///
    /// An *injected* allocation fault does not panic: it is latched as a
    /// sticky error (see [`Device::take_injected_fault`]) and the
    /// allocation proceeds, mirroring how a CUDA sticky error leaves the
    /// API callable while poisoning the context.
    pub fn alloc<T: memory::DeviceCopy>(&self, len: usize) -> DeviceBuffer<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        if self.injected(FaultKind::AllocFail) {
            self.latch_fault(DeviceError::OutOfMemory {
                requested: bytes,
                in_use: self.inner.allocated.load(Ordering::Relaxed),
                capacity: self.inner.cost.machine().device().memory_bytes,
            });
        }
        self.alloc_impl(len, bytes).unwrap_or_else(|e| panic!("device allocation failed: {e}"))
    }

    pub(crate) fn release_bytes(&self, bytes: u64) {
        self.inner.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Copy `src` into the device buffer starting at element `offset`
    /// (H2D). Advances the clock by the modelled PCIe cost, attributed
    /// to `category`.
    ///
    /// An injected copy fault is latched as a sticky error (see
    /// [`Device::take_injected_fault`]); the copy itself still happens.
    ///
    /// # Panics
    /// Panics if the destination range is out of bounds.
    pub fn upload<T: memory::DeviceCopy>(
        &self,
        dst: &mut DeviceBuffer<T>,
        offset: usize,
        src: &[T],
        category: Category,
    ) {
        if self.injected(FaultKind::CopyFail) {
            self.latch_fault(DeviceError::TransferFault {
                direction: "h2d",
                bytes: std::mem::size_of_val(src) as u64,
            });
        }
        self.upload_impl(dst, offset, src, category);
    }

    /// [`Device::upload`] surfacing an injected copy fault as a typed
    /// error instead of latching it. The copy is not performed on
    /// failure (a failed `cudaMemcpy` leaves the destination
    /// undefined).
    pub fn try_upload<T: memory::DeviceCopy>(
        &self,
        dst: &mut DeviceBuffer<T>,
        offset: usize,
        src: &[T],
        category: Category,
    ) -> Result<(), DeviceError> {
        if self.injected(FaultKind::CopyFail) {
            return Err(DeviceError::TransferFault {
                direction: "h2d",
                bytes: std::mem::size_of_val(src) as u64,
            });
        }
        self.upload_impl(dst, offset, src, category);
        Ok(())
    }

    fn upload_impl<T: memory::DeviceCopy>(
        &self,
        dst: &mut DeviceBuffer<T>,
        offset: usize,
        src: &[T],
        category: Category,
    ) {
        let rec = self.telemetry();
        let _span = rec.as_ref().map(|r| r.span("h2d-copy", category));
        dst.host_write(offset, src);
        let bytes = std::mem::size_of_val(src) as u64;
        self.inner.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.h2d_transfers.fetch_add(1, Ordering::Relaxed);
        self.charge_transfer(category, self.inner.cost.pcie(bytes));
        if let Some(rec) = &rec {
            rec.count("device.h2d_bytes", bytes);
            rec.count("device.h2d_transfers", 1);
        }
    }

    /// Copy from the device buffer starting at element `offset` into
    /// `dst` (D2H). Advances the clock by the modelled PCIe cost.
    ///
    /// An injected copy fault is latched as a sticky error (see
    /// [`Device::take_injected_fault`]); the copy itself still happens.
    ///
    /// # Panics
    /// Panics if the source range is out of bounds.
    pub fn download<T: memory::DeviceCopy>(
        &self,
        src: &DeviceBuffer<T>,
        offset: usize,
        dst: &mut [T],
        category: Category,
    ) {
        if self.injected(FaultKind::CopyFail) {
            self.latch_fault(DeviceError::TransferFault {
                direction: "d2h",
                bytes: std::mem::size_of_val(dst) as u64,
            });
        }
        self.download_impl(src, offset, dst, category);
    }

    /// [`Device::download`] surfacing an injected copy fault as a typed
    /// error instead of latching it. The copy is not performed on
    /// failure.
    pub fn try_download<T: memory::DeviceCopy>(
        &self,
        src: &DeviceBuffer<T>,
        offset: usize,
        dst: &mut [T],
        category: Category,
    ) -> Result<(), DeviceError> {
        if self.injected(FaultKind::CopyFail) {
            return Err(DeviceError::TransferFault {
                direction: "d2h",
                bytes: std::mem::size_of_val(dst) as u64,
            });
        }
        self.download_impl(src, offset, dst, category);
        Ok(())
    }

    fn download_impl<T: memory::DeviceCopy>(
        &self,
        src: &DeviceBuffer<T>,
        offset: usize,
        dst: &mut [T],
        category: Category,
    ) {
        let rec = self.telemetry();
        let _span = rec.as_ref().map(|r| r.span("d2h-copy", category));
        src.host_read(offset, dst);
        let bytes = std::mem::size_of_val(dst) as u64;
        self.inner.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.d2h_transfers.fetch_add(1, Ordering::Relaxed);
        self.charge_transfer(category, self.inner.cost.pcie(bytes));
        if let Some(rec) = &rec {
            rec.count("device.d2h_bytes", bytes);
            rec.count("device.d2h_transfers", 1);
        }
    }

    /// Launch a kernel: run `body` with a [`Kernel`] access token, count
    /// the launch, and advance the clock by the modelled device cost of
    /// `shape` attributed to `category`.
    ///
    /// The body executes synchronously (the original code's streams are
    /// modelled by [`Stream`] ordering bookkeeping; computation/transfer
    /// overlap is not exploited, matching the paper, which defers
    /// overlap to future work).
    pub fn launch<R>(
        &self,
        stream: &Stream,
        category: Category,
        shape: KernelShape,
        body: impl FnOnce(Kernel<'_>) -> R,
    ) -> R {
        self.launch_named(stream, "kernel", category, shape, body)
    }

    /// [`Device::launch`] with a kernel name for telemetry: the launch
    /// is recorded as a span and counted under
    /// `device.kernel_launches.<name>`.
    pub fn launch_named<R>(
        &self,
        _stream: &Stream,
        name: &'static str,
        category: Category,
        shape: KernelShape,
        body: impl FnOnce(Kernel<'_>) -> R,
    ) -> R {
        self.inner.kernel_launches.fetch_add(1, Ordering::Relaxed);
        let rec = self.telemetry();
        let _span = rec.as_ref().map(|r| r.span(name, category));
        if let Some(rec) = &rec {
            rec.count("device.kernel_launches", 1);
            // Static label pieces: no per-launch string allocation on
            // the hot path; the full name is composed at snapshot time.
            rec.count_scoped("device.kernel_launches.", name, 1);
        }
        let kernel_cost = self.inner.cost.device_kernel(shape);
        self.inner.clock.advance(category, kernel_cost);
        self.bank_credit(kernel_cost);
        body(Kernel::new(self))
    }

    /// Record an event at `stream`'s current position
    /// (`cudaEventRecord` on a fresh event) and count it under
    /// `device.events_recorded`. The returned event carries the record
    /// point — stream, device, and sequence — so later waits validate
    /// against where the event was *recorded*, not merely created.
    pub fn record_event(&self, stream: &Stream) -> Event {
        let event = Event::new(self);
        event.record(stream);
        if let Some(rec) = self.telemetry() {
            rec.count("device.events_recorded", 1);
        }
        event
    }

    /// Make `stream` wait on `event` (`cudaStreamWaitEvent`), surfacing
    /// the ordering edge as telemetry: a `stream-wait` span plus
    /// `device.stream_waits` and `device.stream_waits.<label>` counters.
    /// The label names the dependency being enforced (e.g.
    /// `halo-exchange` for a boundary batch gated on netsim completion,
    /// `interior-batch` for a copy gated on compute).
    ///
    /// # Panics
    /// Panics with the typed [`StreamError`] if the event was never
    /// recorded or its record point lives on another device.
    pub fn stream_wait(
        &self,
        stream: &Stream,
        event: &Event,
        label: &'static str,
        category: Category,
    ) {
        if let Some(rec) = self.telemetry() {
            let _span = rec.span("stream-wait", category);
            rec.count("device.stream_waits", 1);
            rec.count_scoped("device.stream_waits.", label, 1);
        }
        if let Err(e) = stream.try_wait_event(event) {
            panic!("{e}");
        }
    }

    /// Snapshot the transfer/allocation counters.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            h2d_bytes: self.inner.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.inner.d2h_bytes.load(Ordering::Relaxed),
            h2d_transfers: self.inner.h2d_transfers.load(Ordering::Relaxed),
            d2h_transfers: self.inner.d2h_transfers.load(Ordering::Relaxed),
            kernel_launches: self.inner.kernel_launches.load(Ordering::Relaxed),
            allocated_bytes: self.inner.allocated.load(Ordering::Relaxed),
            peak_allocated_bytes: self.inner.peak_allocated.load(Ordering::Relaxed),
        }
    }

    /// Reset the transfer counters (not the allocation gauges). Used by
    /// tests that assert per-phase traffic.
    pub fn reset_transfer_stats(&self) {
        self.inner.h2d_bytes.store(0, Ordering::Relaxed);
        self.inner.d2h_bytes.store(0, Ordering::Relaxed);
        self.inner.h2d_transfers.store(0, Ordering::Relaxed);
        self.inner.d2h_transfers.store(0, Ordering::Relaxed);
        self.inner.kernel_launches.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.inner.id)
            .field("machine", &self.inner.cost.machine().name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip_counts_bytes() {
        let dev = Device::k20x();
        let mut buf = dev.alloc::<f64>(16);
        let src: Vec<f64> = (0..8).map(|i| i as f64).collect();
        dev.upload(&mut buf, 4, &src, Category::Other);
        let mut out = vec![0.0; 8];
        dev.download(&buf, 4, &mut out, Category::Other);
        assert_eq!(out, src);
        let s = dev.stats();
        assert_eq!(s.h2d_bytes, 64);
        assert_eq!(s.d2h_bytes, 64);
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers, 1);
    }

    #[test]
    fn transfers_advance_the_clock() {
        let dev = Device::k20x();
        let mut buf = dev.alloc::<f64>(1024);
        let before = dev.clock().total();
        dev.upload(&mut buf, 0, &vec![1.0; 1024], Category::HaloExchange);
        let after = dev.clock().total();
        assert!(after > before);
        // The time lands in the right category.
        assert!(dev.clock().snapshot().get(Category::HaloExchange) > 0.0);
        assert_eq!(dev.clock().snapshot().get(Category::HydroKernel), 0.0);
    }

    #[test]
    fn launches_are_counted_and_costed() {
        let dev = Device::k20x();
        let stream = Stream::new(&dev);
        let shape = KernelShape::streaming(1000, 2, 1);
        let out = dev.launch(&stream, Category::HydroKernel, shape, |_k| 42);
        assert_eq!(out, 42);
        assert_eq!(dev.stats().kernel_launches, 1);
        let t = dev.clock().snapshot().get(Category::HydroKernel);
        assert!(t >= dev.cost_model().machine().device().kernel_latency);
    }

    #[test]
    fn allocation_tracks_capacity() {
        let dev = Device::k20x();
        let cap = dev.cost_model().machine().device().memory_bytes;
        let a = dev.alloc::<u8>((cap / 2) as usize);
        assert_eq!(dev.stats().allocated_bytes, cap / 2);
        let err = dev.try_alloc::<u8>((cap / 2 + 1) as usize).unwrap_err();
        match err {
            DeviceError::OutOfMemory { capacity, .. } => assert_eq!(capacity, cap),
            other => panic!("expected OutOfMemory, got {other}"),
        }
        drop(a);
        assert_eq!(dev.stats().allocated_bytes, 0);
        assert_eq!(dev.stats().peak_allocated_bytes, cap / 2);
    }

    #[test]
    fn kernel_token_grants_data_access() {
        let dev = Device::k20x();
        let stream = Stream::new(&dev);
        let mut buf = dev.alloc::<f64>(8);
        dev.launch(&stream, Category::Other, KernelShape::default(), |k| {
            for (i, v) in buf.as_mut_slice(&k).iter_mut().enumerate() {
                *v = i as f64;
            }
        });
        let mut out = vec![0.0; 8];
        dev.download(&buf, 0, &mut out, Category::Other);
        assert_eq!(out[7], 7.0);
    }

    #[test]
    fn device_ids_are_unique() {
        let a = Device::k20x();
        let b = Device::k20x();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn reset_clears_transfer_counters_only() {
        let dev = Device::k20x();
        let mut buf = dev.alloc::<f64>(4);
        dev.upload(&mut buf, 0, &[1.0], Category::Other);
        dev.reset_transfer_stats();
        let s = dev.stats();
        assert_eq!(s.h2d_bytes, 0);
        assert_eq!(s.allocated_bytes, 32);
    }

    #[test]
    fn overlap_hides_transfer_time_behind_kernels() {
        let dev = Device::k20x();
        let stream = Stream::new(&dev);
        let mut buf = dev.alloc::<f64>(1 << 16);
        let payload = vec![0.0f64; 1 << 16];

        // Without overlap: kernel + transfer serialise.
        let shape = KernelShape::streaming(1 << 20, 4, 1);
        dev.launch(&stream, Category::HydroKernel, shape, |_k| ());
        let t0 = dev.clock().total();
        dev.upload(&mut buf, 0, &payload, Category::HaloExchange);
        let serial = dev.clock().total() - t0;

        // With overlap: the same transfer hides behind banked kernel time.
        dev.set_transfer_overlap(true);
        dev.launch(&stream, Category::HydroKernel, shape, |_k| ());
        let t1 = dev.clock().total();
        dev.upload(&mut buf, 0, &payload, Category::HaloExchange);
        let overlapped = dev.clock().total() - t1;

        assert!(overlapped < serial * 0.1, "overlap hid nothing: {overlapped} vs {serial}");
        // Credit is consumed: a second immediate transfer is exposed again.
        let t2 = dev.clock().total();
        dev.upload(&mut buf, 0, &payload, Category::HaloExchange);
        let second = dev.clock().total() - t2;
        assert!(second > overlapped, "credit not consumed");
        dev.set_transfer_overlap(false);
    }

    #[test]
    fn overlap_window_is_bounded() {
        let dev = Device::k20x();
        let stream = Stream::new(&dev);
        dev.set_transfer_overlap(true);
        // Bank far more kernel time than the window allows.
        for _ in 0..100 {
            dev.launch(
                &stream,
                Category::HydroKernel,
                KernelShape::streaming(1 << 20, 8, 1),
                |_k| (),
            );
        }
        // A transfer bigger than the window is only partially hidden.
        let big = vec![0.0f64; 4 << 20]; // 32 MB ~ 6 ms of PCIe
        let mut buf = dev.alloc::<f64>(4 << 20);
        let t0 = dev.clock().total();
        dev.upload(&mut buf, 0, &big, Category::HaloExchange);
        let charged = dev.clock().total() - t0;
        let full = dev.cost_model().pcie((32 << 20) as u64);
        assert!(charged > full - 1.1e-3, "more than the window was hidden");
        dev.set_transfer_overlap(false);
    }

    #[test]
    #[should_panic(expected = "has no accelerator")]
    fn cpu_only_machine_rejected() {
        let _ = Device::new(Machine::ipa_cpu_node(), Clock::new());
    }

    #[test]
    fn injected_alloc_fault_is_a_typed_error_on_try_alloc() {
        use rbamr_fault::{FaultPlan, FaultRule};
        let dev = Device::k20x();
        let plan = FaultPlan::new(3, vec![FaultRule::once(rbamr_fault::FaultKind::AllocFail, 1)]);
        dev.set_fault_injector(rbamr_fault::FaultInjector::new(Arc::new(plan), 0));
        let _a = dev.try_alloc::<f64>(8).expect("occurrence 0 is clean");
        let err = dev.try_alloc::<f64>(8).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { requested: 64, .. }), "got {err}");
        let _b = dev.try_alloc::<f64>(8).expect("one-shot rule stops firing");
        // The failed allocation must not leak accounting.
        assert_eq!(dev.stats().allocated_bytes, 2 * 64);
    }

    #[test]
    fn injected_fault_on_infallible_paths_is_sticky_not_fatal() {
        use rbamr_fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
        let dev = Device::k20x();
        let plan = FaultPlan::new(
            5,
            vec![FaultRule::once(FaultKind::AllocFail, 0), FaultRule::once(FaultKind::CopyFail, 1)],
        );
        dev.set_fault_injector(FaultInjector::new(Arc::new(plan), 0));
        // Injected alloc fault: latched, allocation still succeeds.
        let mut buf = dev.alloc::<f64>(4);
        let latched = dev.take_injected_fault().expect("alloc fault latched");
        assert!(matches!(latched, DeviceError::OutOfMemory { .. }));
        assert!(dev.take_injected_fault().is_none(), "take clears the latch");
        // Copy occurrence 0 clean, occurrence 1 latched — data intact.
        dev.upload(&mut buf, 0, &[1.0, 2.0], Category::Other);
        dev.upload(&mut buf, 2, &[3.0, 4.0], Category::Other);
        let latched = dev.take_injected_fault().expect("copy fault latched");
        assert!(matches!(latched, DeviceError::TransferFault { direction: "h2d", .. }));
        let mut out = vec![0.0; 4];
        dev.download(&buf, 0, &mut out, Category::Other);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0], "sticky faults never corrupt data");
    }

    #[test]
    fn try_transfer_surfaces_injected_copy_fault() {
        use rbamr_fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
        let dev = Device::k20x();
        let plan = FaultPlan::new(8, vec![FaultRule::once(FaultKind::CopyFail, 0)]);
        dev.set_fault_injector(FaultInjector::new(Arc::new(plan), 0));
        let buf = dev.alloc::<f64>(4);
        let mut out = vec![7.0; 4];
        let err = dev.try_download(&buf, 0, &mut out, Category::Other).unwrap_err();
        assert_eq!(err, DeviceError::TransferFault { direction: "d2h", bytes: 32 });
        assert_eq!(out, vec![7.0; 4], "failed copy leaves the destination untouched");
        assert!(dev.try_download(&buf, 0, &mut out, Category::Other).is_ok());
        assert_eq!(out, vec![0.0; 4]);
        assert!(dev.take_injected_fault().is_none(), "try paths do not latch");
    }
}
