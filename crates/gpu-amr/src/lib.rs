//! Device-resident patch data and data-parallel AMR operators — the
//! reproduction of the paper's `CudaPatchData` library (Section IV-B).
//!
//! The original library has two packages, mirrored here:
//!
//! * **pdat** ([`data`]) — `CudaArrayData` (a contiguous device
//!   allocation for a box region, Figure 3) behind the three
//!   data-centring classes, implementing SAMRAI's `PatchData` interface
//!   so that "simulation data is stored in GPU memory at all times" and
//!   only packed halo buffers, compressed tag bitmaps and scalars cross
//!   the PCIe bus.
//! * **geom** ([`ops`]) — the two launches that run the coarsen and
//!   refine operators data-parallel: linear node refine (Figure 5),
//!   conservative linear cell/side refine, node injection, and the
//!   volume- and mass-weighted coarsen kernels (Figures 7 and 8) the
//!   paper claims as the first data-parallel implementations.
//!
//! [`tags`] holds the flag-compression path of Section IV-C (int tags →
//! bitmaps → a single `tagged` flag when nothing is set).
//!
//! Neither package has arithmetic or operators of its own: the one
//! operator set (`rbamr_amr::ops`) and the Figure 4 copy / pack / unpack
//! region kernels (`rbamr_amr::patchdata`) are written once in
//! `rbamr-amr`, and this crate runs them on device buffers inside
//! launches — one job through `DeviceData`'s `PatchData` methods, one
//! stage through `DeviceDataFactory`'s `DataFactory` methods. Host and
//! device results are equal by construction; `tests/op_bits.rs` freezes
//! the bits and `tests/op_equivalence_prop.rs` checks the launch
//! plumbing around them. ([`ops`] re-exports two operators under their
//! old `Device*` names for the frozen `benchmarks/` package.)

pub mod batch;
pub mod data;
pub mod ops;
pub mod tags;

pub use batch::{interior_core, split_region, BatchPlan, BatchPlanCache, PatchSlot};
pub use data::{DeviceData, DeviceDataFactory};
pub use tags::{compress_tags, compress_tags_many, TagField};
