//! CleverLeaf: explicit compressible-Euler shock hydrodynamics with AMR.
//!
//! This crate reproduces the application layer of the paper (Section
//! IV-C): the CloverLeaf staggered-grid Lagrangian–Eulerian scheme for
//! the 2D Euler equations, packaged as patch-local "black box"
//! integrators behind the [`PatchIntegrator`] trait — the paper's
//! Figure 6 structure, where the hierarchy/level drivers are oblivious
//! to whether a patch advances on the CPU ([`HostPatchIntegrator`]) or
//! on the resident GPU ([`DevicePatchIntegrator`]).
//!
//! The timestep follows CloverLeaf's `hydro` loop:
//!
//! 1. `ideal_gas` (EOS) + artificial `viscosity` + `calc_dt`
//!    (the only global reduction);
//! 2. predictor `pdv` → predicted EOS → `revert` → `accelerate`
//!    → corrector `pdv`;
//! 3. `flux_calc`, then directionally split second-order (van Leer)
//!    advection of mass/energy (`advec_cell`) and momentum
//!    (`advec_mom`), alternating sweep order each step;
//! 4. `reset` (copy new state to old).
//!
//! [`HydroSim`] drives the whole hierarchy with synchronised
//! timestepping (one global dt, all levels advanced in lockstep),
//! halo fills via the framework's refine schedules, fine→coarse
//! synchronisation (volume-weighted density, mass-weighted energy,
//! node-injected velocities) and periodic regridding driven by the
//! gradient flagging heuristic. Every placement advances the whole
//! hierarchy through [`level_executor`], which holds the one call site
//! of each step kernel: on the host as plain calls over host slices
//! that charge the CPU cost model, on a device as one launch per kernel
//! group (kernels with no cross-element dependency; 27 per step) per
//! pass over every level, with each window's halo fills overlapped
//! with interior compute. Both
//! patch integrators run the same executor on a batch of one patch.
//! [`Placement::DeviceCopyBack`] is the device arm with per-phase PCIe
//! round trips (the non-resident baseline).
//!
//! Deviation from CloverLeaf, documented per `DESIGN.md`: the
//! artificial viscosity is the classic von Neumann–Richtmyer
//! quadratic+linear form rather than CloverLeaf's tensor-limited
//! variant — same role (shock spreading over ~2 cells), same memory
//! traffic, simpler coefficients.

pub mod boundary;
pub mod checkpoint;
pub mod device_integrator;
pub mod host_integrator;
pub mod integrator;
pub mod kernels;
pub mod level_executor;
pub mod output;
pub mod resilience;
pub mod state;

pub use boundary::ReflectiveBoundary;
pub use device_integrator::DevicePatchIntegrator;
pub use host_integrator::HostPatchIntegrator;
pub use integrator::{HydroConfig, HydroSim, Placement, SimError, StepStats};
pub use resilience::{RecoveryPolicy, RecoveryStats, ResilienceError, ResilientSim, SimSpec};
pub use state::{Fields, FlagThresholds, PatchIntegrator, RegionInit, Summary};
