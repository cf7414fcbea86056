//! A message-passing runtime standing in for MPI.
//!
//! The paper runs CleverLeaf with "a combination of MPI and CUDA" on up
//! to 4,096 nodes. This crate is the MPI substitution documented in
//! `DESIGN.md`: every rank executes the same program, communicating
//! through typed mailboxes ([`Comm::send`] /
//! [`Comm::recv`]) and collectives ([`Comm::allreduce_min`],
//! [`Comm::barrier`], [`Comm::allgatherv`] — the variable-payload
//! gather behind distributed checkpoints).
//! CleverLeaf's timestep is bulk-synchronous
//! (halo fill → global dt reduction → advance → periodic regrid), so this
//! model is semantically exact for the reproduced application.
//!
//! Rank execution is event-driven (see [`sched`]): M simulated ranks
//! are multiplexed over N worker slots, and every blocking
//! communication op cooperatively yields its slot — which is what lets
//! one box simulate thousands of ranks (the paper's 4,096-node Titan
//! regime) instead of collapsing under one freely scheduled OS thread
//! per rank. With one worker the schedule is a deterministic
//! round-robin; every other worker count is required (and
//! property-tested) to produce bitwise-identical results, causal edge
//! streams, and virtual clocks.
//!
//! Collectives go through the unified [`Comm::collective`] entry
//! point that the named wrappers delegate to (see [`collectives`]).
//! Reductions and barriers are one rendezvous through a shared 3-word
//! accumulator, charged at the log-depth cost; payload-moving
//! collectives (gather / broadcast / allgatherv) are messages —
//! log-depth in production, with the flat O(N²) fans kept as the test
//! reference ([`CollectiveAlgo`]).
//!
//! Every communication operation also advances the calling rank's
//! virtual [`rbamr_perfmodel::Clock`] using the bound machine's
//! [`rbamr_perfmodel::CostModel`]:
//! point-to-point messages are charged to the receiver
//! (`latency + bytes/bandwidth`); reductions are charged
//! `ceil(log2 P)` message steps to every participant
//! ([`rbamr_perfmodel::CostModel::allreduce`]), while payload-moving
//! collectives charge their real per-frame receive costs. This is what
//! turns a run on this single box into the strong/weak-scaling curves
//! of Figures 10 and 11. Virtual time never depends on wall-clock
//! scheduling, so the worker count cannot change any metric.

mod affinity;
pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod sched;

pub use cluster::{Cluster, RankResult};
pub use collectives::{CollectiveAlgo, CollectiveOp, CollectiveOutput, ReduceSpec};
pub use comm::{Comm, CommError, PeerPanicked};
pub use rbamr_fault::{FaultInjector, FaultKind, FaultPlan, FaultReport, FaultRule, FaultSite};
