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
//! * **geom** ([`ops`]) — the data-parallel coarsen and refine
//!   operators: linear node refine (Figure 5), conservative linear
//!   cell/side refine, node injection, and the volume- and mass-weighted
//!   coarsen kernels (Figures 7 and 8) the paper claims as the first
//!   data-parallel implementations.
//!
//! [`pack`] holds the data-parallel buffer pack/unpack kernels of
//! Figure 4, and [`tags`] the flag-compression path of Section IV-C
//! (int tags → bitmaps → a single `tagged` flag when nothing is set).
//!
//! Every operator is tested for exact agreement with the host reference
//! implementation in `rbamr-amr` on randomised data.

pub mod batch;
pub mod data;
pub mod ops;
pub mod pack;
pub mod tags;

pub use batch::{interior_core, split_region, BatchPlan, BatchPlanCache, PatchSlot};
pub use data::{DeviceData, DeviceDataFactory};
pub use tags::{compress_tags, compress_tags_many, TagField};
