//! Kernel launch machinery: access tokens and the stream handle.

use crate::Device;

/// Capability token proving code is executing "on the device".
///
/// A `Kernel` is only constructed inside
/// [`Device::launch_named`](crate::Device::launch_named); holding one is what lets a
/// kernel body call [`DeviceBuffer::as_slice`](crate::DeviceBuffer::as_slice)
/// and [`DeviceBuffer::as_mut_slice`](crate::DeviceBuffer::as_mut_slice).
/// This is the mechanism that turns the paper's residency claim into a
/// compile-time property: host code that tries to peek at device data
/// simply has no token.
pub struct Kernel<'d> {
    device: &'d Device,
}

impl<'d> Kernel<'d> {
    pub(crate) fn new(device: &'d Device) -> Self {
        Self { device }
    }

    pub(crate) fn check_device(&self, other: &Device) {
        assert!(
            std::ptr::eq(
                std::sync::Arc::as_ptr(&self.device.inner),
                std::sync::Arc::as_ptr(&other.inner)
            ),
            "kernel on device {} accessed a buffer on a different device {}",
            self.device.id(),
            other.id()
        );
    }

    /// The device this kernel runs on.
    pub fn device(&self) -> &Device {
        self.device
    }
}

/// The stream argument of [`Device::launch_named`](crate::Device::launch_named).
///
/// The simulated device runs every launch to completion, in program
/// order, so a stream orders nothing: this handle is zero-sized and
/// every stream is the same queue.
#[derive(Clone, Copy, Debug)]
pub struct Stream;

impl Stream {
    /// A stream on `device`: the one in-order queue every launch runs on.
    pub fn new(_device: &Device) -> Self {
        Stream
    }
}
