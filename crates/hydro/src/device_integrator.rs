//! The GPU-resident patch integrator — the paper's device build.
//!
//! Every numerical phase is a call into the level executor
//! ([`crate::level_executor`]) on a batch of one patch, so a patch
//! advanced through this trait runs the same launches as a level
//! advanced by [`crate::HydroSim`]. The only PCIe traffic per step is
//! the dt scalar plus the packed halos and compressed tag bitmaps the
//! framework moves — unless the integrator carries the copy-back
//! transfer policy. Initialisation and the field summary are per-patch
//! launches defined here.

use crate::kernels as k;
use crate::level_executor::{self as exec, dev, dev_mut, Exec, Pass};
use crate::state::{initial_images, Fields, FlagThresholds, PatchIntegrator, RegionInit, Summary};
use rbamr_amr::patchdata::PatchData as _;
use rbamr_amr::{Patch, TagBitmap};
use rbamr_device::Stream;
use rbamr_geometry::GBox;
use rbamr_perfmodel::{Category, KernelShape};
use std::slice::{from_mut, from_ref};

/// Advances a patch with device-resident data.
pub struct DevicePatchIntegrator {
    /// Round-trip every phase's arrays over PCIe
    /// ([`crate::Placement::DeviceCopyBack`]).
    copy_back: bool,
}

impl DevicePatchIntegrator {
    /// Create the resident device integrator (the device handle lives
    /// in each patch's data).
    pub fn new() -> Self {
        Self { copy_back: false }
    }

    /// The non-resident variant: same kernels, per-phase full-array
    /// PCIe round trips.
    pub(crate) fn copy_back() -> Self {
        Self { copy_back: true }
    }

    /// Run one executor phase on a batch of this one patch, on the
    /// patch's own device and stream.
    fn run<R>(
        &self,
        patch: &mut Patch,
        f: &Fields,
        phase: impl FnOnce(&mut [Patch], Exec<'_>) -> R,
    ) -> R {
        let data = dev(patch.data(f.density0));
        let (device, stream) = (data.device().clone(), data.stream().clone());
        let ex = Exec::Device { device: &device, stream: &stream, copy_back: self.copy_back };
        phase(from_mut(patch), ex)
    }
}

impl Default for DevicePatchIntegrator {
    fn default() -> Self {
        Self::new()
    }
}

impl PatchIntegrator for DevicePatchIntegrator {
    fn name(&self) -> &'static str {
        if self.copy_back {
            "device-copy-back"
        } else {
            "device"
        }
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
        // Initialisation is a sanctioned full-array H2D transfer: build
        // the images on the host and upload once per field.
        for (var, image) in initial_images(f, patch.cell_box(), origin, dx, regions) {
            dev_mut(patch.data_mut(var)).upload_all(&image, Category::Other);
        }
    }

    fn ideal_gas(&self, patch: &mut Patch, f: &Fields, gamma: f64, predict: bool) {
        self.run(patch, f, |p, ex| exec::ideal_gas(p, f, ex, Pass::Full, gamma, predict));
    }

    fn viscosity(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64)) {
        self.run(patch, f, |p, ex| exec::viscosity(p, f, ex, Pass::Full, dx));
    }

    fn calc_dt(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), cfl: f64) -> f64 {
        self.run(patch, f, |p, ex| exec::calc_dt(p, f, ex, dx, cfl)[0])
    }

    fn pdv(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64, predict: bool) {
        self.run(patch, f, |p, ex| exec::pdv(p, f, ex, dx, dt, predict));
    }

    fn revert(&self, patch: &mut Patch, f: &Fields) {
        self.run(patch, f, |p, ex| exec::revert(p, f, ex));
    }

    fn accelerate(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        self.run(patch, f, |p, ex| exec::accelerate(p, f, ex, dx, dt));
    }

    fn flux_calc(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        self.run(patch, f, |p, ex| exec::flux_calc(p, f, ex, Pass::Full, dx, dt));
    }

    fn advec_cell(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize) {
        self.run(patch, f, |p, ex| {
            exec::advec_cell(p, f, ex, Pass::Full, dx, dir, sweep, &mut Vec::new());
        });
    }

    fn advec_mom(&self, patch: &mut Patch, f: &Fields, _dx: (f64, f64), dir: usize, _sweep: usize) {
        self.run(patch, f, |p, ex| exec::advec_mom(p, f, ex, Pass::Full, dir, &mut Vec::new()));
    }

    fn reset(&self, patch: &mut Patch, f: &Fields) {
        self.run(patch, f, |p, ex| exec::reset(p, f, ex));
    }

    fn flag_cells(&self, patch: &Patch, f: &Fields, thresholds: &FlagThresholds) -> TagBitmap {
        let data = dev(patch.data(f.density0));
        let ex = Exec::Device { device: data.device(), stream: data.stream(), copy_back: false };
        let mut bitmaps = exec::flag_cells(from_ref(patch), f, ex, thresholds);
        bitmaps.pop().expect("one bitmap per patch")
    }

    fn field_summary(&self, patch: &Patch, f: &Fields, dx: (f64, f64), region: GBox) -> Summary {
        let region = region.intersect(patch.cell_box());
        let get = |v| dev(patch.data(v));
        let (rho, e, p, u, vv) =
            (get(f.density0), get(f.energy0), get(f.pressure), get(f.xvel0), get(f.yvel0));
        let device = rho.device().clone();
        let stream = Stream::new(&device);
        stream.submit();
        let mut result = device.alloc::<f64>(5);
        let shape = KernelShape::streaming(region.num_cells(), 5, 15);
        device.launch_named(&stream, "field-summary", Category::Other, shape, |kk| {
            let s = k::field_summary(
                k::View::new(rho.buffer().as_slice(&kk), rho.data_box()),
                k::View::new(e.buffer().as_slice(&kk), e.data_box()),
                k::View::new(p.buffer().as_slice(&kk), p.data_box()),
                k::View::new(u.buffer().as_slice(&kk), u.data_box()),
                k::View::new(vv.buffer().as_slice(&kk), vv.data_box()),
                region,
                dx,
            );
            let out = result.as_mut_slice(&kk);
            out[0] = s.volume;
            out[1] = s.mass;
            out[2] = s.internal_energy;
            out[3] = s.kinetic_energy;
            out[4] = s.pressure;
        });
        let mut host = [0.0f64; 5];
        device.download(&result, 0, &mut host, Category::Other);
        Summary {
            volume: host[0],
            mass: host[1],
            internal_energy: host[2],
            kinetic_energy: host[3],
            pressure: host[4],
        }
    }
}
