//! The cost laws translating operations into virtual seconds.

use crate::machine::Machine;
use serde::{Deserialize, Serialize};

/// The work performed by one kernel (device launch or host loop nest).
///
/// The model follows the roofline: a kernel costs the larger of its
/// memory time and its compute time, plus a fixed launch/dispatch
/// latency. CloverLeaf-style kernels have arithmetic intensity well
/// below every machine's balance point, so `bytes` dominates in
/// practice; `flops` exists so compute-bound kernels (e.g. an EOS with
/// transcendentals) are not mispriced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelShape {
    /// Bytes moved to/from memory (reads + writes).
    pub bytes: f64,
    /// Double-precision floating-point operations executed.
    pub flops: f64,
}

impl KernelShape {
    /// A kernel touching `arrays` whole `f64` arrays of `elements`
    /// values each, performing `flops_per_element` FLOPs per element.
    pub fn streaming(elements: i64, arrays: u32, flops_per_element: u32) -> Self {
        let e = elements.max(0) as f64;
        Self { bytes: e * 8.0 * f64::from(arrays), flops: e * f64::from(flops_per_element) }
    }
}

/// Kernels run as one launch: their bytes and FLOPs add up.
impl std::ops::Add for KernelShape {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self { bytes: self.bytes + other.bytes, flops: self.flops + other.flops }
    }
}

impl std::iter::Sum for KernelShape {
    fn sum<I: Iterator<Item = Self>>(shapes: I) -> Self {
        shapes.fold(Self::default(), |a, b| a + b)
    }
}

/// Cost model bound to one machine description.
#[derive(Clone, Debug)]
pub struct CostModel {
    machine: Machine,
}

impl CostModel {
    /// Build a cost model for a machine.
    pub fn new(machine: Machine) -> Self {
        Self { machine }
    }

    /// The machine this model prices.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Virtual seconds for one device kernel launch.
    ///
    /// # Panics
    /// Panics if the machine has no accelerator.
    pub fn device_kernel(&self, shape: KernelShape) -> f64 {
        let d = self.machine.device();
        d.kernel_latency + (shape.bytes / d.mem_bandwidth).max(shape.flops / d.flops)
    }

    /// Virtual seconds for the equivalent loop nest on the host.
    pub fn host_kernel(&self, shape: KernelShape) -> f64 {
        let h = &self.machine.host;
        h.call_overhead + (shape.bytes / h.mem_bandwidth).max(shape.flops / h.flops)
    }

    /// Virtual seconds for a PCIe transfer of `bytes` (either direction).
    ///
    /// # Panics
    /// Panics if the machine has no accelerator.
    pub fn pcie(&self, bytes: u64) -> f64 {
        let d = self.machine.device();
        d.pcie_latency + bytes as f64 / d.pcie_bandwidth
    }

    /// Virtual seconds for one point-to-point network message.
    pub fn message(&self, bytes: u64) -> f64 {
        let n = &self.machine.network;
        n.latency + bytes as f64 / n.bandwidth
    }

    /// Virtual seconds for an allreduce over `nranks` ranks moving
    /// `bytes` per stage (binary-tree / recursive-doubling model:
    /// `ceil(log2(P))` stages of one message each). Zero for a single
    /// rank.
    pub fn allreduce(&self, nranks: u32, bytes: u64) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let stages = 32 - (nranks - 1).leading_zeros(); // ceil(log2(nranks))
        f64::from(stages) * self.message(bytes)
    }

    /// Virtual seconds for a barrier (an allreduce of nothing).
    pub fn barrier(&self, nranks: u32) -> f64 {
        self.allreduce(nranks, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> CostModel {
        CostModel::new(Machine::ideal())
    }

    #[test]
    fn streaming_shape_counts_bytes_and_flops() {
        let s = KernelShape::streaming(100, 3, 5);
        assert_eq!(s.bytes, 100.0 * 8.0 * 3.0);
        assert_eq!(s.flops, 500.0);
        // Negative element counts (empty boxes) clamp to zero work.
        assert_eq!(KernelShape::streaming(-5, 3, 5).bytes, 0.0);
    }

    #[test]
    fn roofline_takes_the_max() {
        let m = ideal();
        // bytes 10 vs flops 3 -> memory bound.
        assert_eq!(m.device_kernel(KernelShape { bytes: 10.0, flops: 3.0 }), 10.0);
        // flops 30 -> compute bound.
        assert_eq!(m.device_kernel(KernelShape { bytes: 10.0, flops: 30.0 }), 30.0);
        assert_eq!(m.host_kernel(KernelShape { bytes: 4.0, flops: 9.0 }), 9.0);
    }

    #[test]
    fn latency_is_additive() {
        let mut mach = Machine::ideal();
        mach.device.as_mut().unwrap().kernel_latency = 5.0;
        mach.host.call_overhead = 2.0;
        let m = CostModel::new(mach);
        assert_eq!(m.device_kernel(KernelShape { bytes: 1.0, flops: 0.0 }), 6.0);
        assert_eq!(m.host_kernel(KernelShape { bytes: 1.0, flops: 0.0 }), 3.0);
    }

    #[test]
    fn pcie_and_message_costs() {
        let m = ideal();
        assert_eq!(m.pcie(7), 7.0);
        assert_eq!(m.message(3), 3.0);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = ideal();
        assert_eq!(m.allreduce(1, 8), 0.0);
        assert_eq!(m.allreduce(2, 8), 8.0); // 1 stage
        assert_eq!(m.allreduce(4, 8), 16.0); // 2 stages
        assert_eq!(m.allreduce(5, 8), 24.0); // ceil(log2 5) = 3
        assert_eq!(m.allreduce(4096, 8), 12.0 * 8.0);
    }

    #[test]
    fn small_kernels_are_latency_dominated() {
        // The Fig. 9 small-problem regime: a tiny kernel's cost is
        // almost entirely fixed overhead on both architectures (the
        // GPU's disadvantage at small sizes comes from its larger
        // per-step launch count and PCIe hops, not the per-launch cost).
        let gpu = CostModel::new(Machine::ipa_gpu());
        let cpu = CostModel::new(Machine::ipa_cpu_node());
        let tiny = KernelShape::streaming(1_000, 4, 10);
        let d = gpu.machine().device();
        assert!(gpu.device_kernel(tiny) < 2.0 * d.kernel_latency);
        assert!(cpu.host_kernel(tiny) < 2.0 * cpu.machine().host.call_overhead);
    }

    #[test]
    fn large_kernels_favour_the_device() {
        let gpu = CostModel::new(Machine::ipa_gpu());
        let cpu = CostModel::new(Machine::ipa_cpu_node());
        let big = KernelShape::streaming(10_000_000, 4, 10);
        let speedup = cpu.host_kernel(big) / gpu.device_kernel(big);
        assert!(speedup > 2.0 && speedup < 2.7, "speedup {speedup}");
    }

    #[test]
    fn empty_work_costs_only_latency() {
        let gpu = CostModel::new(Machine::ipa_gpu());
        let zero = KernelShape::default();
        assert_eq!(gpu.device_kernel(zero), gpu.machine().device().kernel_latency);
    }
}
