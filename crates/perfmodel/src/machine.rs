//! Machine descriptions — the reproduction of Table I.
//!
//! Peak numbers come from vendor documentation for the hardware in the
//! paper's Table I; *achievable* fractions and the kernel-launch latency
//! are calibration knobs fitted so that the Figure 9 serial sweep
//! reproduces the paper's reported crossover (~200k cells) and speedup
//! bounds (up to 2.67x single GPU vs dual-socket node).

use serde::{Deserialize, Serialize};

/// An accelerator (the paper's NVIDIA Tesla K20x).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Marketing name.
    pub name: String,
    /// Achievable global-memory bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Achievable double-precision throughput, FLOP/s.
    pub flops: f64,
    /// Fixed cost of launching one kernel, seconds.
    pub kernel_latency: f64,
    /// Achievable PCIe bandwidth (one direction), bytes/second.
    pub pcie_bandwidth: f64,
    /// Fixed cost of one PCIe transfer, seconds.
    pub pcie_latency: f64,
    /// Device memory capacity, bytes (Table I: 6 GB per K20x).
    pub memory_bytes: u64,
}

impl DeviceModel {
    /// NVIDIA Tesla K20x: 250 GB/s peak (achievable ~190 with ECC),
    /// 1.31 TFLOP/s DP peak, PCIe gen 2 x16 (8 GB/s peak, ~5.6
    /// achievable), 6 GB GDDR5. The 4.5 us effective launch cost
    /// reflects pipelined asynchronous launches (dispatch cost, not the
    /// full ~8 us round trip) — calibrated so the Figure 9 sweep lands
    /// on the paper's small-problem slowdown; this codebase issues
    /// finer-grained kernels (27 launches per step, one per kernel
    /// group, where CloverLeaf's fused Fortran-CUDA kernels number ~15),
    /// so a per-launch cost at the high end would double-count overhead
    /// the original code did not pay.
    pub fn k20x() -> Self {
        Self {
            name: "NVIDIA Tesla K20x".into(),
            mem_bandwidth: 187e9,
            flops: 1.0e12,
            kernel_latency: 4.5e-6,
            pcie_bandwidth: 5.6e9,
            pcie_latency: 12.0e-6,
            memory_bytes: 6 * (1 << 30),
        }
    }
}

/// A host CPU partition (what a rank's host code runs on).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// Marketing name.
    pub name: String,
    /// Achievable memory bandwidth of the partition, bytes/second.
    pub mem_bandwidth: f64,
    /// Achievable double-precision throughput, FLOP/s.
    pub flops: f64,
    /// Fixed cost of one kernel-sized loop nest (threading fork/join,
    /// cache warmup), seconds.
    pub call_overhead: f64,
}

impl HostModel {
    /// One dual-socket node of IPA: 2x 8-core Intel Xeon E5-2670
    /// "Sandy Bridge" at 2.6 GHz. STREAM triad ~70 GB/s per node; a
    /// 16-thread parallel loop pays ~5 us of fork/join and sync.
    pub fn xeon_e5_2670_node() -> Self {
        Self {
            name: "2x Intel Xeon E5-2670 (16 cores)".into(),
            mem_bandwidth: 70e9,
            flops: 0.25e12,
            call_overhead: 5.0e-6,
        }
    }

    /// Half an IPA node (one socket, 8 cores) — the share of the host
    /// that drives one of the node's two GPUs.
    pub fn xeon_e5_2670_socket() -> Self {
        Self {
            name: "Intel Xeon E5-2670 (8 cores)".into(),
            mem_bandwidth: 35e9,
            flops: 0.125e12,
            call_overhead: 3.0e-6,
        }
    }

    /// One Titan node: 16-core AMD Opteron 6274 "Interlagos" at
    /// 2.2 GHz. STREAM ~52 GB/s.
    pub fn opteron_6274() -> Self {
        Self {
            name: "AMD Opteron 6274 (16 cores)".into(),
            mem_bandwidth: 52e9,
            flops: 0.14e12,
            call_overhead: 6.0e-6,
        }
    }
}

/// An interconnect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Marketing name.
    pub name: String,
    /// Point-to-point latency, seconds.
    pub latency: f64,
    /// Achievable point-to-point bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Mellanox FDR InfiniBand (IPA).
    pub fn fdr_infiniband() -> Self {
        Self { name: "Mellanox FDR Infiniband".into(), latency: 1.5e-6, bandwidth: 6.0e9 }
    }

    /// Cray Gemini (Titan).
    pub fn gemini() -> Self {
        Self { name: "Cray Gemini".into(), latency: 2.5e-6, bandwidth: 4.5e9 }
    }

    /// Intra-node "network" for single-node multi-GPU runs: messages go
    /// through shared memory.
    pub fn shared_memory() -> Self {
        Self { name: "shared memory".into(), latency: 0.4e-6, bandwidth: 12.0e9 }
    }
}

/// A full machine description — one row of Table I.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Machine name ("IPA", "Titan").
    pub name: String,
    /// Host partition backing each rank.
    pub host: HostModel,
    /// Attached accelerator, if the rank runs the device path.
    pub device: Option<DeviceModel>,
    /// Interconnect between ranks.
    pub network: NetworkModel,
    /// GPUs per node (Table I).
    pub gpus_per_node: u32,
    /// CPU cores per node (Table I).
    pub cores_per_node: u32,
    /// Total nodes in the machine (Table I: IPA 8, Titan 18,688).
    pub total_nodes: u32,
}

impl Machine {
    /// An IPA rank driving one of the node's two K20x GPUs (half the
    /// host per GPU).
    pub fn ipa_gpu() -> Self {
        Self {
            name: "IPA (GPU rank)".into(),
            host: HostModel::xeon_e5_2670_socket(),
            device: Some(DeviceModel::k20x()),
            network: NetworkModel::fdr_infiniband(),
            gpus_per_node: 2,
            cores_per_node: 16,
            total_nodes: 8,
        }
    }

    /// An IPA rank running the CPU-only baseline on a full socket.
    pub fn ipa_cpu_socket() -> Self {
        Self {
            name: "IPA (CPU socket rank)".into(),
            host: HostModel::xeon_e5_2670_socket(),
            device: None,
            network: NetworkModel::fdr_infiniband(),
            gpus_per_node: 0,
            cores_per_node: 16,
            total_nodes: 8,
        }
    }

    /// A full IPA node as one CPU rank (the Figure 9 serial baseline:
    /// "one node (16 cores) of dual-socket Intel Xeon E5-2670").
    pub fn ipa_cpu_node() -> Self {
        Self {
            name: "IPA (CPU node)".into(),
            host: HostModel::xeon_e5_2670_node(),
            device: None,
            network: NetworkModel::fdr_infiniband(),
            gpus_per_node: 0,
            cores_per_node: 16,
            total_nodes: 8,
        }
    }

    /// A Titan rank: one node = one Opteron 6274 + one K20x.
    pub fn titan() -> Self {
        Self {
            name: "Titan".into(),
            host: HostModel::opteron_6274(),
            device: Some(DeviceModel::k20x()),
            network: NetworkModel::gemini(),
            gpus_per_node: 1,
            cores_per_node: 16,
            total_nodes: 18_688,
        }
    }

    /// An idealised machine with unit costs, for deterministic unit
    /// tests of the cost laws (1 B/s everywhere, zero latency).
    pub fn ideal() -> Self {
        Self {
            name: "ideal".into(),
            host: HostModel {
                name: "ideal host".into(),
                mem_bandwidth: 1.0,
                flops: 1.0,
                call_overhead: 0.0,
            },
            device: Some(DeviceModel {
                name: "ideal device".into(),
                mem_bandwidth: 1.0,
                flops: 1.0,
                kernel_latency: 0.0,
                pcie_bandwidth: 1.0,
                pcie_latency: 0.0,
                memory_bytes: u64::MAX,
            }),
            network: NetworkModel { name: "ideal net".into(), latency: 0.0, bandwidth: 1.0 },
            gpus_per_node: 1,
            cores_per_node: 1,
            total_nodes: 1,
        }
    }

    /// The device model, panicking with a clear message if this machine
    /// has none.
    pub fn device(&self) -> &DeviceModel {
        self.device.as_ref().unwrap_or_else(|| panic!("machine {} has no accelerator", self.name))
    }

    /// Render the Table I row for this machine (used by the
    /// `table1_machines` bench binary).
    pub fn table_row(&self) -> String {
        let acc = self.device.as_ref().map(|d| d.name.clone()).unwrap_or_else(|| "-".into());
        format!(
            "{:<18} {:<34} {:<22} {:>5} {:>6} {:>6}  {}",
            self.name,
            self.host.name,
            acc,
            self.total_nodes,
            self.cores_per_node,
            self.gpus_per_node,
            self.network.name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_parameters() {
        for m in [Machine::ipa_gpu(), Machine::ipa_cpu_node(), Machine::titan()] {
            assert!(m.host.mem_bandwidth > 1e9);
            assert!(m.network.bandwidth > 1e8);
            assert!(m.network.latency > 0.0);
            if let Some(d) = &m.device {
                assert!(d.mem_bandwidth > m.host.mem_bandwidth);
                assert!(d.pcie_bandwidth < d.mem_bandwidth);
                assert!(d.kernel_latency > 0.0);
            }
        }
    }

    #[test]
    fn bandwidth_ratio_matches_paper_speedup_bound() {
        // Paper Fig. 9: maximum serial speedup 2.67x. The model's
        // large-problem bound is the device:host bandwidth ratio.
        let gpu = Machine::ipa_gpu();
        let cpu = Machine::ipa_cpu_node();
        let ratio = gpu.device().mem_bandwidth / cpu.host.mem_bandwidth;
        assert!((ratio - 2.67).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn k20x_capacity_is_6gb() {
        assert_eq!(DeviceModel::k20x().memory_bytes, 6 * (1 << 30));
    }

    #[test]
    fn titan_node_counts_match_table1() {
        let t = Machine::titan();
        assert_eq!(t.total_nodes, 18_688);
        assert_eq!(t.gpus_per_node, 1);
        assert_eq!(t.cores_per_node, 16);
    }

    #[test]
    #[should_panic(expected = "has no accelerator")]
    fn device_accessor_panics_without_gpu() {
        let _ = Machine::ipa_cpu_node().device();
    }

    #[test]
    fn machines_roundtrip_through_serde() {
        // Machine descriptions are plain data: a config file can define
        // new platforms. JSON-ish roundtrip via serde's test format.
        for m in [Machine::ipa_gpu(), Machine::ipa_cpu_node(), Machine::titan()] {
            let encoded = serde_json_like(&m);
            assert!(encoded.contains(&m.name));
            assert!(encoded.contains(&m.network.name));
        }
    }

    /// Minimal structural serialisation check without a JSON dependency:
    /// serde's Debug-like output via the `serde::Serialize` impl driven
    /// through a string collector.
    fn serde_json_like(m: &Machine) -> String {
        // Use TOML-free, JSON-free check: roundtrip through bincode-like
        // in-memory structure using serde_transcode is unavailable; the
        // pragmatic check is Clone + PartialEq equality.
        let copy = m.clone();
        assert_eq!(&copy, m);
        format!("{m:?}")
    }

    #[test]
    fn table_rows_render() {
        for m in [Machine::ipa_gpu(), Machine::titan()] {
            let row = m.table_row();
            assert!(row.contains(&m.name));
            assert!(row.contains(&m.network.name));
        }
    }
}
