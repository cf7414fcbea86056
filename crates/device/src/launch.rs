//! Kernel launch machinery: access tokens, the stream handle and grid
//! configuration.

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

/// Grid configuration for a launch, mirroring the `<<<nblocks,
/// BLOCK_SIZE>>>` computation in the paper's Figure 5a. The simulated
/// device does not need the block decomposition to execute, but the
/// config is part of the public API so kernels document their intended
/// thread geometry and tests can assert it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total number of logical threads (one per element, per the paper:
    /// "we launch one CUDA thread per element").
    pub threads: usize,
    /// Threads per block.
    pub block_size: usize,
}

impl LaunchConfig {
    /// The paper's fixed block size.
    pub const BLOCK_SIZE: usize = 256;

    /// One thread per element with the default block size.
    pub fn for_elements(elements: usize) -> Self {
        Self { threads: elements, block_size: Self::BLOCK_SIZE }
    }

    /// Number of blocks: `(threads + block_size - 1) / block_size`,
    /// exactly the Figure 5a computation.
    pub fn blocks(&self) -> usize {
        self.threads.div_ceil(self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_config_matches_figure_5a() {
        let cfg = LaunchConfig::for_elements(1000);
        assert_eq!(cfg.block_size, 256);
        assert_eq!(cfg.blocks(), 4); // (1000 + 255) / 256
        assert_eq!(LaunchConfig::for_elements(0).blocks(), 0);
        assert_eq!(LaunchConfig::for_elements(256).blocks(), 1);
        assert_eq!(LaunchConfig::for_elements(257).blocks(), 2);
    }
}
