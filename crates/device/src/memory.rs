//! Device memory: typed buffers the host cannot touch directly.

use crate::launch::Kernel;
use crate::Device;
use std::fmt;

/// Types that may live in device memory (the analogue of CUDA's
/// requirement that device data be trivially copyable).
pub trait DeviceCopy: Copy + Send + Sync + Default + 'static {}

impl DeviceCopy for f64 {}
impl DeviceCopy for f32 {}
impl DeviceCopy for i64 {}
impl DeviceCopy for i32 {}
impl DeviceCopy for u64 {}
impl DeviceCopy for u32 {}
impl DeviceCopy for u8 {}

/// Errors from device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The allocation would exceed the modelled device memory capacity
    /// (or a fault injector simulated exhaustion).
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes already allocated.
        in_use: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A host↔device transfer failed (injected fault — the simulated
    /// analogue of a `cudaMemcpy` error).
    TransferFault {
        /// `"h2d"` or `"d2h"`.
        direction: &'static str,
        /// Size of the failed transfer.
        bytes: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, in_use, capacity } => write!(
                f,
                "device out of memory: requested {requested} B with {in_use} B in use of {capacity} B"
            ),
            DeviceError::TransferFault { direction, bytes } => {
                write!(f, "device {direction} transfer of {bytes} B failed (injected fault)")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// A contiguous allocation in device memory.
///
/// This is the analogue of the raw `double* d_cuda_buffer` inside the
/// paper's `CudaArrayData` (Figure 3). Host code cannot read or write
/// the contents: the only accessors are
///
/// * [`DeviceBuffer::as_slice`] / [`DeviceBuffer::as_mut_slice`], which
///   require a [`Kernel`] token (only available inside
///   [`Device::launch`](crate::Device::launch)), and
/// * [`Device::h2d`](crate::Device::h2d) /
///   [`Device::d2h`](crate::Device::d2h), which model and
///   count PCIe traffic.
///
/// Dropping the buffer returns its bytes to the device's allocation
/// gauge.
pub struct DeviceBuffer<T: DeviceCopy> {
    data: Vec<T>,
    device: Device,
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    pub(crate) fn new_zeroed(len: usize, device: Device) -> Self {
        Self { data: vec![T::default(); len], device }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the buffer in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }

    /// The device owning this buffer.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Read access from inside a kernel.
    ///
    /// # Panics
    /// Panics if the kernel token belongs to a different device —
    /// dereferencing another GPU's pointer is a bug the real hardware
    /// would also fault on.
    #[inline]
    pub fn as_slice(&self, kernel: &Kernel<'_>) -> &[T] {
        kernel.check_device(&self.device);
        &self.data
    }

    /// Write access from inside a kernel.
    ///
    /// # Panics
    /// Panics if the kernel token belongs to a different device.
    #[inline]
    pub fn as_mut_slice(&mut self, kernel: &Kernel<'_>) -> &mut [T] {
        kernel.check_device(&self.device);
        &mut self.data
    }

    /// The host's view of `offset..offset + len`, for an H2D transfer.
    pub(crate) fn host_range_mut(&mut self, offset: usize, len: usize) -> &mut [T] {
        let end = offset.checked_add(len).expect("DeviceBuffer: transfer range overflow");
        assert!(
            end <= self.data.len(),
            "DeviceBuffer: H2D range {offset}..{end} out of bounds (len {})",
            self.data.len()
        );
        &mut self.data[offset..end]
    }

    pub(crate) fn host_read(&self, offset: usize, dst: &mut [T]) {
        let end = offset.checked_add(dst.len()).expect("DeviceBuffer: transfer range overflow");
        assert!(
            end <= self.data.len(),
            "DeviceBuffer: D2H range {offset}..{end} out of bounds (len {})",
            self.data.len()
        );
        dst.copy_from_slice(&self.data[offset..end]);
    }
}

impl<T: DeviceCopy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device.release_bytes(self.size_bytes());
    }
}

impl<T: DeviceCopy> fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DeviceBuffer<{}>[{}] on device {}",
            std::any::type_name::<T>(),
            self.len(),
            self.device.id()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_perfmodel::Category;

    #[test]
    fn buffers_start_zeroed() {
        let dev = Device::k20x();
        let buf = dev.alloc::<f64>(5);
        let mut out = vec![9.0; 5];
        dev.download(&buf, 0, &mut out, Category::Other);
        assert_eq!(out, vec![0.0; 5]);
    }

    #[test]
    fn size_accounting() {
        let dev = Device::k20x();
        let buf = dev.alloc::<u32>(10);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.size_bytes(), 40);
        assert!(!buf.is_empty());
        assert!(dev.alloc::<u8>(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn upload_out_of_bounds_panics() {
        let dev = Device::k20x();
        let mut buf = dev.alloc::<f64>(4);
        dev.upload(&mut buf, 2, &[1.0, 2.0, 3.0], Category::Other);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn download_out_of_bounds_panics() {
        let dev = Device::k20x();
        let buf = dev.alloc::<f64>(4);
        let mut out = vec![0.0; 5];
        dev.download(&buf, 0, &mut out, Category::Other);
    }

    #[test]
    #[should_panic(expected = "different device")]
    fn cross_device_access_faults() {
        let dev_a = Device::k20x();
        let dev_b = Device::k20x();
        let buf_b = dev_b.alloc::<f64>(4);
        dev_a.launch_named(&crate::Stream, "test", Category::Other, Default::default(), |k| {
            let _ = buf_b.as_slice(&k); // wrong device: must panic
        });
    }

    #[test]
    fn error_display_is_informative() {
        let e = DeviceError::OutOfMemory { requested: 10, in_use: 5, capacity: 12 };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("5") && s.contains("12"));
    }
}
