//! Block-structured adaptive mesh refinement framework.
//!
//! This crate is the from-scratch substitute for the SAMRAI library the
//! paper builds on (Section IV): it owns everything that runs on the
//! *host* in the original system — the patch hierarchy, variable
//! registry, communication schedules, error tagging, Berger–Rigoutsos
//! clustering, proper-nesting enforcement, load balancing and the
//! regridding driver — while remaining agnostic about where patch *data*
//! lives. Data placement is behind the [`PatchData`] trait (the paper's
//! Figure 2 interface): this crate ships host-memory implementations
//! ([`HostData`]) used by the CPU baseline; the `rbamr-gpu-amr` crate
//! plugs in device-resident implementations without this crate changing
//! — exactly the design point the paper makes about SAMRAI's
//! `PatchData` abstraction being "at the perfect level".
//!
//! # Structure
//!
//! * [`variable`] — variables, contexts and data factories.
//! * [`patchdata`] — the `PatchData` trait.
//! * [`hostdata`] — host-memory array data for every centring.
//! * [`patch`], [`level`], [`hierarchy`] — the mesh containers.
//! * [`ops`] — refine/coarsen operator traits and the one operator set
//!   every placement runs (linear node refine, conservative linear cell
//!   refine, injection, volume- and mass-weighted coarsen): each a name,
//!   a stencil, a row body and a cost; the data runs it.
//! * [`boundary`] — physical-boundary fill strategy.
//! * [`schedule`] — ghost-fill (refine) and synchronisation (coarsen)
//!   schedules, local and distributed.
//! * [`transfer`] — schedule stages as job lists: what the batch entry
//!   points of [`DataFactory`] take.
//! * [`tagging`] — tag buffers and the bitmap compression of
//!   Section IV-C.
//! * [`cluster`] — Berger–Rigoutsos point clustering.
//! * [`nesting`] — proper-nesting calculus.
//! * [`balance`] — spatial load balancing.
//! * [`regrid`] — the flag → cluster → rebuild → transfer driver.
//! * [`restart`] — a minimal restart database (Figure 2's
//!   `getFromRestart`/`putToRestart`).

pub mod balance;
pub mod boundary;
pub mod cluster;
pub mod hierarchy;
pub mod hostdata;
pub mod level;
pub mod nesting;
pub mod ops;
pub mod patch;
pub mod patchdata;
pub mod regrid;
pub mod restart;
pub mod schedule;
pub mod stats;
pub mod tagging;
pub mod transfer;
pub mod variable;

pub use boundary::{BoundaryFill, BoundaryKept, PhysicalBoundary, PhysicalPlan};
pub use cluster::{cluster_tags, ClusterParams};
pub use hierarchy::{GridGeometry, PatchHierarchy};
pub use hostdata::{HostData, HostDataFactory};
pub use level::{LevelRecords, PatchLevel};
pub use ops::{CoarsenOperator, RefineOperator};
pub use patch::{Patch, PatchId};
pub use patchdata::{Element, PatchData};
pub use regrid::{RegridOutcome, RegridParams, Regridder};
pub use schedule::{
    CoarsenSchedule, DescriptorTable, FillWindow, PassTables, PendingFill, RefineSchedule,
    ScheduleBuild,
};
pub use stats::{hierarchy_stats, HierarchyStats};
pub use tagging::TagBitmap;
pub use variable::{DataFactory, Variable, VariableId, VariableRegistry};
