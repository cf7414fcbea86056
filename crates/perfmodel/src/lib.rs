//! Architecture cost models and virtual time.
//!
//! The paper's evaluation (Section V) was run on hardware we do not have:
//! NVIDIA K20x GPUs in LLNL's IPA cluster and ORNL's Titan. This crate is
//! the substitution documented in `DESIGN.md`: the numerics of the
//! reproduction run for real on the host CPU, while every *device*
//! operation (kernel launch, PCIe copy), host kernel and network message
//! additionally advances a per-rank **virtual clock** according to simple
//! calibrated cost laws:
//!
//! * device kernel: `launch_latency + max(bytes/mem_bw, flops/peak)`
//! * host kernel:   `call_overhead + max(bytes/mem_bw, flops/peak)`
//! * PCIe copy:     `latency + bytes/bandwidth`
//! * network msg:   `latency + bytes/bandwidth`
//! * allreduce:     `ceil(log2(P)) * (latency + 16 B cost)`
//!
//! The hydro kernels of CloverLeaf/CleverLeaf are strongly
//! bandwidth-bound, so the bytes term dominates and the model reproduces
//! the paper's crossover structure: per-launch latency penalises small
//! patches (the GPU is ~1.6x *slower* below 200k cells, Fig. 9) while the
//! K20x-to-Xeon bandwidth ratio (~2.7) bounds the large-problem speedup
//! (paper: up to 2.67x).
//!
//! Timing is attributed to a [`Category`], matching the runtime
//! components plotted in Figure 11 (hydrodynamics, synchronisation,
//! regridding) and the percentage breakdown quoted in Section V-B: the
//! clock's current [`Scope`], opened where the phase is decided, not
//! named by each charge.

pub mod category;
pub mod clock;
pub mod cost;
pub mod machine;

pub use category::Category;
pub use clock::{Clock, Scope, TimeBreakdown};
pub use cost::{CostModel, KernelShape};
pub use machine::{DeviceModel, HostModel, Machine, NetworkModel};
