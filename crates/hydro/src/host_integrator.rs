//! The CPU patch integrator — the baseline the paper compares against.
//!
//! Every numerical phase is a call into the level executor
//! ([`crate::level_executor`]) on a batch of one patch with the host
//! executor handle, so a patch advanced through this trait runs the
//! same kernel calls over the same regions — and charges the same CPU
//! costs — as a hierarchy advanced by [`crate::HydroSim`]. Initialisation
//! and the field summary are per-patch loops defined here.

use crate::kernels as k;
use crate::level_executor::{self as exec, Exec, Pass};
use crate::state::{initial_images, Fields, FlagThresholds, PatchIntegrator, RegionInit, Summary};
use rbamr_amr::hostdata::HostCostHook;
use rbamr_amr::patchdata::PatchData as _;
use rbamr_amr::{Patch, TagBitmap, VariableId};
use rbamr_geometry::GBox;
use std::slice::from_ref;

/// Advances a patch on the host. Optionally charges a virtual clock so
/// the CPU baseline's runtime is modelled with the same machinery as
/// the device build.
pub struct HostPatchIntegrator {
    hook: Option<HostCostHook>,
}

impl HostPatchIntegrator {
    /// Integrator without cost accounting.
    pub fn new() -> Self {
        Self { hook: None }
    }

    /// Integrator charging `hook`'s clock one loop per executor phase
    /// (here a phase over one patch).
    pub fn with_costs(hook: HostCostHook) -> Self {
        Self { hook: Some(hook) }
    }

    fn ex(&self) -> Exec<'_> {
        Exec::Host(self.hook.as_ref())
    }
}

impl Default for HostPatchIntegrator {
    fn default() -> Self {
        Self::new()
    }
}

impl PatchIntegrator for HostPatchIntegrator {
    fn name(&self) -> &'static str {
        "host"
    }

    fn init_regions(
        &self,
        patch: &mut Patch,
        f: &Fields,
        origin: (f64, f64),
        dx: (f64, f64),
        regions: &[RegionInit],
        _gamma: f64,
    ) {
        for (var, image) in initial_images(f, patch.cell_box(), origin, dx, regions) {
            patch.host_mut::<f64>(var).as_mut_slice().copy_from_slice(&image);
        }
    }

    fn ideal_gas(&self, patch: &mut Patch, f: &Fields, gamma: f64, predict: bool) {
        exec::ideal_gas(&mut [patch], f, self.ex(), Pass::Full, gamma, predict);
    }

    fn viscosity(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64)) {
        exec::viscosity(&mut [patch], f, self.ex(), Pass::Full, &[dx]);
    }

    fn calc_dt(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), cfl: f64) -> f64 {
        exec::calc_dt(&mut [patch], f, self.ex(), &[dx], cfl)[0]
    }

    fn pdv(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64, predict: bool) {
        exec::pdv(&mut [patch], f, self.ex(), &[dx], dt, predict);
    }

    fn revert(&self, patch: &mut Patch, f: &Fields) {
        exec::revert(&mut [patch], f, self.ex());
    }

    fn accelerate(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        exec::accelerate(&mut [patch], f, self.ex(), &[dx], dt);
    }

    fn flux_calc(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        exec::flux_calc(&mut [patch], f, self.ex(), Pass::Full, &[dx], dt);
    }

    fn advec_cell(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize) {
        exec::advec_cell(&mut [patch], f, self.ex(), Pass::Full, &[dx], dir, sweep);
    }

    fn advec_mom(&self, patch: &mut Patch, f: &Fields, _dx: (f64, f64), dir: usize, _sweep: usize) {
        exec::advec_mom(&mut [patch], f, self.ex(), Pass::Full, dir, &mut Vec::new(), false);
    }

    fn reset(&self, patch: &mut Patch, f: &Fields) {
        exec::reset(&mut [patch], f, self.ex());
    }

    fn flag_cells(&self, patch: &Patch, f: &Fields, thresholds: &FlagThresholds) -> TagBitmap {
        let mut bitmaps = exec::flag_cells(from_ref(patch), f, self.ex(), thresholds);
        bitmaps.pop().expect("one bitmap per patch")
    }

    fn field_summary(&self, patch: &Patch, f: &Fields, dx: (f64, f64), region: GBox) -> Summary {
        let region = region.intersect(patch.cell_box());
        let view = |v: VariableId| {
            let d = patch.host::<f64>(v);
            k::View::new(d.as_slice(), d.data_box())
        };
        self.ex().charge_loop(region.num_cells(), 5, 15);
        k::field_summary(
            view(f.density0),
            view(f.energy0),
            view(f.pressure),
            view(f.xvel0),
            view(f.yvel0),
            region,
            dx,
        )
    }
}
