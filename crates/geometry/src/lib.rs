//! Index-space calculus for block-structured adaptive mesh refinement.
//!
//! This crate is the foundation of the `rbamr` workspace: it provides the
//! integer index-space primitives that SAMRAI calls *box calculus* —
//! [`IntVector`] (a 2D integer vector), [`GBox`] (a logically rectangular
//! region of index space), [`BoxList`] (a set of boxes closed under union
//! and difference), centring conversions between cell-, node- and
//! side-centred index spaces, ghost-region/overlap computation, a
//! Morton space-filling curve used for load balancing, and a
//! bucket-grid spatial box index ([`BoxIndex`]) answering "which
//! boxes intersect region R" in O(k) for the schedule and
//! regrid metadata paths, and deterministic structure digests
//! ([`Fnv64`], [`UnorderedDigest`]) used to key cached communication
//! schedules on level structure.
//!
//! All boxes use an **inclusive lower / exclusive upper** convention: the
//! box `[lo, hi)` contains the cells with `lo.x <= i < hi.x` and
//! `lo.y <= j < hi.y`. A box with any `hi <= lo` component is *empty*.
//!
//! The crate is deliberately 2D: the paper's CleverLeaf mini-app solves
//! Euler's equations on 2D structured grids, and every index computation
//! in the reproduced kernels (Figures 5 and 8 of the paper) is 2D.

pub mod boxlist;
pub mod centring;
pub mod digest;
pub mod gbox;
pub mod index;
pub mod ivec;
pub mod overlap;
pub mod sfc;

pub use boxlist::BoxList;
pub use centring::Centring;
pub use digest::{mix64, Fnv64, UnorderedDigest};
pub use gbox::GBox;
pub use index::BoxIndex;
pub use ivec::IntVector;
pub use overlap::{copy_overlap, ghost_overlap_into, ghost_overlaps, BoxOverlap};
pub use sfc::morton_key;

/// The spatial dimensionality of every index space in this workspace.
pub const DIM: usize = 2;
