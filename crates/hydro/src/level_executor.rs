//! The level executor: every hydro kernel call of the step, for every
//! placement — one call site per kernel, one region definition per
//! phase.
//!
//! Each phase function takes the level's patches and an executor handle,
//! `Exec`, that says where the arrays live and what running a kernel
//! charges; the list of "which kernel runs over which region reading
//! which fields" is written once, here, and both arms apply the same
//! [`crate::kernels`] bodies to the same regions, so the arithmetic is
//! bitwise identical whichever placement runs it:
//!
//! * `Exec::Host` — plain calls over `HostData` slices, patch by
//!   patch; the CPU cost model is charged once per patch per phase.
//! * `Exec::Device` — **one launch per kernel per level**: the launch
//!   body loops over the level's patches (the logical element index of
//!   the level's [`BatchPlan`](rbamr_gpu_amr::BatchPlan) spans them
//!   all), so the fixed launch latency — the Figure 9 overhead that
//!   makes small grids launch-bound — is paid once per level.
//!
//! [`crate::HostPatchIntegrator`] and [`crate::DevicePatchIntegrator`]
//! run the same functions on a batch of one patch.
//!
//! For communication/computation overlap, each phase can run as two
//! passes: [`Pass::Interior`] computes only patch cores that a
//! stencil-margin analysis proves cannot observe ghost cells (so it is
//! safe to run while the halo exchange is in flight), and
//! [`Pass::Boundary`] finishes the frame after the exchange lands.
//! Margins grow along a window's kernel chain (`margin(k) = 6 + 4(k-1)`)
//! so that, with a maximum stencil radius of 4 (2-cell van Leer upwind
//! reach + centring conversions + slack):
//!
//! * an interior-pass kernel only reads cells earlier interior kernels
//!   have already written (`m_k - r >= m_{k-1}`),
//! * a boundary-pass kernel never reads cells a *later* kernel's
//!   interior pass overwrote (`m_k - 1 + r < m_{k+1}`), and
//! * no interior-pass read reaches a ghost cell the concurrent fill
//!   writes (`m_1 - r >= 2`).
//!
//! A patch too small for a margin degrades gracefully: its interior is
//! empty and the whole kernel runs in the boundary pass, i.e. in the
//! unoverlapped fill-then-compute order. The host placement models no
//! overlap, so its driver only ever asks for `Pass::Full`.
//!
//! `Exec::Device` carries the transfer policy as `copy_back`: when
//! set, the full arrays a phase touches make a PCIe round trip before
//! its kernels — the non-resident Wang et al. baseline the paper's
//! Related Work criticises ([`crate::Placement::DeviceCopyBack`]). The
//! kernels are the same, so the measured gap to the resident placement
//! is exactly the residency benefit the paper claims.

use crate::kernels as k;
use crate::state::{ComputeRegion, Fields, FlagThresholds, GHOSTS};
use rbamr_amr::hostdata::HostCostHook;
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::{HostData, Patch, TagBitmap, VariableId};
use rbamr_device::memory::DeviceCopy;
use rbamr_device::{Device, DeviceBuffer, Kernel, Stream};
use rbamr_geometry::{Centring, GBox, IntVector};
use rbamr_gpu_amr::{compress_tags_many, interior_core, split_region, DeviceData, TagField};
use rbamr_perfmodel::{Category, KernelShape};

/// Where a phase's arrays live and what running it charges — the only
/// thing that differs between the placements.
#[derive(Clone, Copy)]
pub(crate) enum Exec<'a> {
    /// Host memory: every kernel is a plain call over `HostData`
    /// slices. With a hook, each phase charges the CPU cost model once
    /// per patch, after its kernels; no launch, span or counter exists.
    Host(Option<&'a HostCostHook>),
    /// Device memory: one launch per kernel per level on `stream`.
    /// `copy_back` adds the per-phase PCIe round trips.
    Device {
        /// The device the patches' arrays live on.
        device: &'a Device,
        /// The stream the phase's launches are submitted to.
        stream: &'a Stream,
        /// Round-trip every array the phase touches before its kernels.
        copy_back: bool,
    },
}

impl Exec<'_> {
    fn copy_back(self) -> bool {
        matches!(self, Exec::Device { copy_back: true, .. })
    }

    /// The CPU baseline's price of one streaming loop over `cells`
    /// cells. A no-op unless this is a host executor with a cost hook.
    pub(crate) fn charge_loop(self, category: Category, cells: i64, arrays: u32, flops: u32) {
        if let Exec::Host(Some(hook)) = self {
            let shape = KernelShape::streaming(cells, arrays, flops);
            hook.clock.advance(category, hook.cost.host_kernel(shape));
        }
    }

    /// The CPU baseline's price of one phase: per patch, in patch
    /// order, one loop over `cells_of(patch)` cells.
    fn charge_host(
        self,
        patches: &[Patch],
        category: Category,
        cells_of: impl Fn(&Patch) -> i64,
        arrays: u32,
        flops: u32,
    ) {
        for p in patches {
            self.charge_loop(category, cells_of(p), arrays, flops);
        }
    }

    /// A zeroed staging array of `len` values in this executor's
    /// memory space.
    fn stage<T: DeviceCopy>(self, len: usize) -> Staged<T> {
        match self {
            Exec::Host(_) => Staged::Host(vec![T::default(); len]),
            Exec::Device { device, .. } => Staged::Device(device.alloc(len)),
        }
    }

    /// Run `body` where this executor's kernels run: inside one named
    /// launch on a device, as a plain call on the host — where there is
    /// no launch, so no kernel token, span, counter or latency.
    fn launch(
        self,
        name: &'static str,
        category: Category,
        shape: KernelShape,
        body: impl FnOnce(Option<&Kernel<'_>>),
    ) {
        match self {
            Exec::Host(_) => body(None),
            Exec::Device { device, stream, .. } => {
                stream.submit();
                device.launch_named(stream, name, category, shape, |kk| body(Some(&kk)));
            }
        }
    }
}

/// A scratch array a phase stages values in, living where the patch
/// data lives. A device array is only readable inside a launch: both
/// accessors take the launch's kernel token, `None` on the host.
pub(crate) enum Staged<T: DeviceCopy = f64> {
    Host(Vec<T>),
    Device(DeviceBuffer<T>),
}

impl<T: DeviceCopy> Staged<T> {
    fn as_slice(&self, kk: Option<&Kernel<'_>>) -> &[T] {
        match self {
            Staged::Host(v) => v,
            Staged::Device(b) => {
                b.as_slice(kk.expect("device staging array read outside a launch"))
            }
        }
    }

    fn as_mut_slice(&mut self, kk: Option<&Kernel<'_>>) -> &mut [T] {
        match self {
            Staged::Host(v) => v,
            Staged::Device(b) => {
                b.as_mut_slice(kk.expect("device staging array written outside a launch"))
            }
        }
    }
}

/// Which part of a phase a call executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pass {
    /// The whole region in one launch (phases outside overlap windows).
    Full,
    /// Only patch cores deep enough that no read can observe a ghost
    /// cell — safe while the halo exchange is in flight.
    Interior,
    /// The boundary frames, after the exchange completed.
    Boundary,
}

/// First-kernel interior margin: stencil radius (4, with slack) plus 2
/// so no interior read can land on a ghost or exchange-written cell.
const MARGIN_BASE: i64 = 6;
/// Margin growth per kernel ordinal: the maximum stencil radius, so
/// each interior kernel reads only inside the previous one's core.
const MARGIN_STEP: i64 = 4;

/// Upper bound on hydro launches per level per step — the in-process
/// fig9 gate constant. Counting every kernel of the step's phase chain
/// with both passes of the five overlap windows gives 82; 96 leaves
/// headroom without ever permitting per-patch scaling.
pub const MAX_LAUNCHES_PER_LEVEL_STEP: u64 = 96;

/// Every kernel name the executor launches under. No halo-fill, sync,
/// or regrid kernel uses them.
const HYDRO_KERNEL_NAMES: &[&str] = &[
    "accelerate",
    "advec-cell",
    "advec-ener-flux",
    "advec-ener-update",
    "advec-mass-flux",
    "advec-post-vol",
    "advec-pre-vol",
    "calc-dt",
    "copy-field",
    "flux-calc",
    "ideal-gas-pressure",
    "ideal-gas-soundspeed",
    "mom-flux",
    "mom-node-flux",
    "mom-node-mass-post",
    "mom-node-mass-pre",
    "mom-save-vel",
    "mom-vel-update",
    "pdv-density",
    "pdv-energy",
    "revert-save",
    "viscosity",
];

/// Hydro kernel launches `rec` has counted so far: the
/// `device.kernel_launches.<name>` counters summed over the executor's
/// kernel names — exactly the launches [`MAX_LAUNCHES_PER_LEVEL_STEP`]
/// budgets.
pub fn hydro_launches(rec: &rbamr_telemetry::Recorder) -> u64 {
    let launches = |name| rec.counter(&format!("device.kernel_launches.{name}"));
    HYDRO_KERNEL_NAMES.iter().map(launches).sum()
}

fn margin(ordinal: u32) -> i64 {
    MARGIN_BASE + MARGIN_STEP * (i64::from(ordinal) - 1)
}

/// The region boxes kernel `ordinal` computes on `pass` for one patch,
/// given its nominal (single-pass) region: at most four, the unused
/// slots empty. Union over passes covers the nominal region exactly
/// once.
fn pass_regions(
    pass: Pass,
    ordinal: u32,
    cell_box: GBox,
    centring: Centring,
    nominal: GBox,
) -> [GBox; 4] {
    let only = |region: GBox| [region, GBox::EMPTY, GBox::EMPTY, GBox::EMPTY];
    if pass == Pass::Full || nominal.is_empty() {
        return only(nominal);
    }
    let core = interior_core(cell_box, margin(ordinal));
    if core.is_empty() {
        return only(if pass == Pass::Boundary { nominal } else { GBox::EMPTY });
    }
    let (inner, frames) = split_region(nominal, centring.data_box(core));
    if pass == Pass::Interior {
        only(inner)
    } else {
        frames
    }
}

fn regions_for(
    patches: &[Patch],
    pass: Pass,
    ordinal: u32,
    centring: Centring,
    nominal_of: impl Fn(&Patch) -> GBox,
) -> Vec<[GBox; 4]> {
    patches
        .iter()
        .map(|p| pass_regions(pass, ordinal, p.cell_box(), centring, nominal_of(p)))
        .collect()
}

pub(crate) fn dev(data: &dyn PatchData) -> &DeviceData<f64> {
    data.as_any().downcast_ref::<DeviceData<f64>>().expect("device executor on non-device data")
}

pub(crate) fn dev_mut(data: &mut dyn PatchData) -> &mut DeviceData<f64> {
    data.as_any_mut().downcast_mut::<DeviceData<f64>>().expect("device executor on non-device data")
}

fn host(data: &dyn PatchData) -> &HostData<f64> {
    data.as_any().downcast_ref::<HostData<f64>>().expect("host executor on non-host data")
}

fn host_mut(data: &mut dyn PatchData) -> &mut HostData<f64> {
    data.as_any_mut().downcast_mut::<HostData<f64>>().expect("host executor on non-host data")
}

/// Read-only kernel view of `data`: a device array inside the launch
/// that issued `kk`, a host array when there is no launch.
fn view<'a>(data: &'a dyn PatchData, kk: Option<&Kernel<'_>>) -> k::View<'a> {
    let values = match kk {
        Some(kk) => dev(data).buffer().as_slice(kk),
        None => host(data).as_slice(),
    };
    k::View::new(values, data.data_box())
}

/// One kernel over a level: `body` is applied to each patch's region
/// boxes, with `vars[0]` as the output array and the rest as read-only
/// views. On a device this is a single launch whose body loops the
/// patches, skipped entirely (no launch, no latency) when every region
/// is empty; on the host the same loop runs as plain calls. Nothing is
/// allocated per patch.
#[allow(clippy::too_many_arguments)]
fn batched_launch<const N: usize>(
    patches: &mut [Patch],
    ex: Exec<'_>,
    name: &'static str,
    category: Category,
    vars: [VariableId; N],
    arrays: u32,
    flops: u32,
    regions: &[[GBox; 4]],
    body: impl Fn(Option<&Kernel<'_>>, usize, &mut [f64], GBox, &[k::View<'_>], GBox),
) {
    let total: i64 = regions.iter().flatten().map(|b| b.num_cells()).sum();
    if total == 0 {
        return;
    }
    ex.launch(name, category, KernelShape::streaming(total, arrays, flops), |kk| {
        for (i, p) in patches.iter_mut().enumerate() {
            if regions[i].iter().all(|r| r.is_empty()) {
                continue;
            }
            let mut datas = p.data_many_mut(vars);
            let (out, ins) = datas.split_first_mut().expect("a kernel has an output variable");
            // Slot `j` views `ins[j]`; the last slot is never handed out.
            let mut views = [k::View::new(&[], GBox::EMPTY); N];
            for (v, d) in views.iter_mut().zip(ins.iter()) {
                *v = view(&**d, kk);
            }
            let obox = out.data_box();
            let out = match kk {
                Some(kk) => dev_mut(&mut **out).buffer_mut().as_mut_slice(kk),
                None => host_mut(&mut **out).as_mut_slice(),
            };
            for r in &regions[i] {
                body(kk, i, out, obox, &views[..N - 1], *r);
            }
        }
    });
}

/// Per-phase full-array PCIe round trips for the copy-back placement:
/// D2H of the current values (the "result copy" of the previous phase
/// in the Wang et al. scheme) followed by H2D (staging for the next
/// kernel), once per patch per variable the phase touches. Both
/// transfers are real: counted by the device and charged to the clock.
fn roundtrip(patches: &mut [Patch], vars: &[VariableId]) {
    for p in patches.iter_mut() {
        for &var in vars {
            let d = dev_mut(p.data_mut(var));
            let host = d.download_all(Category::HydroKernel);
            d.upload_all(&host, Category::HydroKernel);
        }
    }
}

/// Equation of state: pressure then sound speed. With `predict` unset
/// it reads the step-start fields over the ghost box (kernel ordinals
/// 1–2 of the `fill-start` window); the predictor EOS reads the working
/// copies over the interior grown by one and only ever runs
/// [`Pass::Full`].
pub(crate) fn ideal_gas(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    gamma: f64,
    predict: bool,
) {
    let (rho, e) = if predict { (f.density1, f.energy1) } else { (f.density0, f.energy0) };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &[f.pressure, f.soundspeed, rho, e]);
    }
    let region = if predict { ComputeRegion::Grown(1) } else { ComputeRegion::GhostBox };
    let nominal = |p: &Patch| region.cell_box(p.cell_box());
    let regs = regions_for(patches, pass, 1, Centring::Cell, nominal);
    batched_launch(
        patches,
        ex,
        "ideal-gas-pressure",
        Category::HydroKernel,
        [f.pressure, rho, e],
        3,
        3,
        &regs,
        |_kk, _i, p, pbox, v, r| k::ideal_gas_pressure(p, pbox, v[0], v[1], r, gamma),
    );
    let regs = regions_for(patches, pass, 2, Centring::Cell, nominal);
    batched_launch(
        patches,
        ex,
        "ideal-gas-soundspeed",
        Category::HydroKernel,
        [f.soundspeed, f.pressure, rho],
        3,
        5,
        &regs,
        |_kk, _i, ss, ssbox, v, r| k::ideal_gas_soundspeed(ss, ssbox, v[0], v[1], r, gamma),
    );
    ex.charge_host(patches, Category::HydroKernel, |p| nominal(p).num_cells() * 2, 3, 8);
}

/// Artificial viscosity — kernel ordinal 3 of the `fill-start` window.
pub(crate) fn viscosity(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: (f64, f64),
) {
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &[f.viscosity, f.density0, f.soundspeed, f.xvel0, f.yvel0]);
    }
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    let regs = regions_for(patches, pass, 3, Centring::Cell, grown);
    batched_launch(
        patches,
        ex,
        "viscosity",
        Category::HydroKernel,
        [f.viscosity, f.density0, f.soundspeed, f.xvel0, f.yvel0],
        5,
        15,
        &regs,
        |_kk, _i, q, qbox, v, r| k::viscosity(q, qbox, v[0], v[1], v[2], v[3], r, dx),
    );
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells(), 5, 15);
}

/// EOS + viscosity — the compute half of the `fill-start` overlap
/// window.
pub(crate) fn eos_viscosity(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    gamma: f64,
    dx: (f64, f64),
) {
    ideal_gas(patches, f, ex, pass, gamma, false);
    viscosity(patches, f, ex, pass, dx);
}

/// CFL reduction: every patch's minimum lands in one `n`-patch staging
/// array — on a device from a single launch, and one `8n`-byte transfer
/// crosses PCIe per level: "calculating the timestep contains the only
/// global reduction" (Section V-B). Returns the per-patch minima in
/// patch order, so every placement folds them identically.
pub(crate) fn calc_dt(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: (f64, f64),
    cfl: f64,
) -> Vec<f64> {
    let vars = [f.density0, f.pressure, f.viscosity, f.soundspeed, f.xvel0, f.yvel0];
    if ex.copy_back() {
        roundtrip(patches, &vars);
    }
    if patches.is_empty() {
        return Vec::new();
    }
    let n = patches.len();
    let mut result = ex.stage(n);
    let total: i64 = patches.iter().map(|p| p.cell_box().num_cells()).sum();
    ex.launch("calc-dt", Category::Timestep, KernelShape::streaming(total, 6, 20), |kk| {
        for (i, p) in patches.iter().enumerate() {
            // `v[1]`, the pressure, is charged and round-tripped but not read.
            let v = vars.map(|var| view(p.data(var), kk));
            result.as_mut_slice(kk)[i] =
                k::calc_dt(v[0], v[2], v[3], v[4], v[5], p.cell_box(), dx, cfl);
        }
    });
    ex.charge_host(patches, Category::Timestep, |p| p.cell_box().num_cells(), 6, 20);
    match result {
        Staged::Host(minima) => minima,
        Staged::Device(buf) => {
            let mut minima = vec![0.0f64; n];
            buf.device().download(&buf, 0, &mut minima, Category::Timestep);
            minima
        }
    }
}

/// The refinement heuristic over a level: every patch's tags land in one
/// staged `i32` array, patch after patch — on a device from a single
/// `flag-cells` launch, compressed there for the whole level, so only
/// one flag word per patch and the flagged patches' bits cross PCIe
/// (Section IV-C; see [`compress_tags_many`]). Returns the bitmaps in
/// patch order; the copy-back policy adds nothing here.
pub(crate) fn flag_cells(
    patches: &[Patch],
    f: &Fields,
    ex: Exec<'_>,
    thresholds: &FlagThresholds,
) -> Vec<TagBitmap> {
    if patches.is_empty() {
        return Vec::new();
    }
    let cells = |p: &Patch| p.cell_box().num_cells();
    let total: i64 = patches.iter().map(cells).sum();
    let mut tags = ex.stage::<i32>(total as usize);
    ex.launch("flag-cells", Category::Regrid, KernelShape::streaming(total, 3, 10), |kk| {
        let mut rest = tags.as_mut_slice(kk);
        for p in patches {
            let (mine, tail) = rest.split_at_mut(cells(p) as usize);
            let (rho, e) = (view(p.data(f.density0), kk), view(p.data(f.energy0), kk));
            k::flag_cells(mine, rho, e, p.cell_box(), thresholds.density, thresholds.energy);
            rest = tail;
        }
    });
    ex.charge_host(patches, Category::Regrid, cells, 3, 10);
    // Each patch's tags: its cell box, row-major, from its offset.
    let mut end = 0;
    let boxes = patches.iter().map(|p| {
        let offset = end;
        end += cells(p) as usize;
        (p.cell_box(), offset)
    });
    match &tags {
        Staged::Host(tags) => boxes
            .map(|(b, offset)| TagBitmap::compress(b, &tags[offset..][..b.num_cells() as usize]))
            .collect(),
        Staged::Device(buf) => {
            let fields: Vec<_> =
                boxes.map(|(b, offset)| TagField { buf, offset, cell_box: b, dbox: b }).collect();
            compress_tags_many(buf.device(), &fields, Category::Regrid)
        }
    }
}

/// The Lagrangian pre-fill chain — predictor PdV, predictor EOS,
/// revert, accelerate, corrector PdV. No fill runs concurrently with
/// these, so they run as full-region launches (10 per level).
pub(crate) fn lagrangian_pre(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    gamma: f64,
    dx: (f64, f64),
    dt: f64,
) {
    pdv(patches, f, ex, dx, dt, true);
    ideal_gas(patches, f, ex, Pass::Full, gamma, true);
    revert(patches, f, ex);
    accelerate(patches, f, ex, dx, dt);
    pdv(patches, f, ex, dx, dt, false);
}

/// Restore working density/energy to step-start values.
pub(crate) fn revert(patches: &mut [Patch], f: &Fields, ex: Exec<'_>) {
    if ex.copy_back() {
        roundtrip(patches, &[f.density1, f.energy1, f.density0, f.energy0]);
    }
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    let regs = regions_for(patches, Pass::Full, 1, Centring::Cell, grown);
    for (dst, src) in [(f.density1, f.density0), (f.energy1, f.energy0)] {
        batched_launch(
            patches,
            ex,
            "copy-field",
            Category::HydroKernel,
            [dst, src],
            2,
            0,
            &regs,
            |_kk, _i, d, dbox, v, r| k::copy_field(d, dbox, v[0], r),
        );
    }
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells() * 2, 2, 0);
}

/// Node velocity update from pressure and viscosity gradients.
pub(crate) fn accelerate(patches: &mut [Patch], f: &Fields, ex: Exec<'_>, dx: (f64, f64), dt: f64) {
    if ex.copy_back() {
        roundtrip(
            patches,
            &[f.xvel1, f.yvel1, f.xvel0, f.yvel0, f.density0, f.pressure, f.viscosity],
        );
    }
    let node = |p: &Patch| Centring::Node.data_box(p.cell_box());
    let regs = regions_for(patches, Pass::Full, 1, Centring::Node, node);
    for (axis, (v1, v0)) in [(0usize, (f.xvel1, f.xvel0)), (1, (f.yvel1, f.yvel0))] {
        batched_launch(
            patches,
            ex,
            "accelerate",
            Category::HydroKernel,
            [v1, v0, f.density0, f.pressure, f.viscosity],
            5,
            20,
            &regs,
            |_kk, _i, out, nbox, v, r| {
                k::accelerate(out, nbox, v[0], v[1], v[2], v[3], r, dt, dx, axis);
            },
        );
    }
    ex.charge_host(patches, Category::HydroKernel, |p| node(p).num_cells() * 2, 5, 20);
}

/// PdV energy/density update (predictor: half dt with the start
/// velocities; corrector: full dt with time-averaged velocities).
pub(crate) fn pdv(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: (f64, f64),
    dt: f64,
    predict: bool,
) {
    if ex.copy_back() {
        roundtrip(
            patches,
            &[
                f.energy1,
                f.density1,
                f.energy0,
                f.density0,
                f.pressure,
                f.viscosity,
                f.xvel0,
                f.xvel1,
                f.yvel0,
                f.yvel1,
            ],
        );
    }
    let dt_eff = if predict { 0.5 * dt } else { dt };
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    let regs = regions_for(patches, Pass::Full, 1, Centring::Cell, grown);
    batched_launch(
        patches,
        ex,
        "pdv-energy",
        Category::HydroKernel,
        [
            f.energy1,
            f.energy0,
            f.density0,
            f.pressure,
            f.viscosity,
            f.xvel0,
            f.xvel1,
            f.yvel0,
            f.yvel1,
        ],
        9,
        30,
        &regs,
        |_kk, _i, e1, ebox, v, r| {
            let (u1, v1) = if predict { (v[4], v[6]) } else { (v[5], v[7]) };
            k::pdv_energy(e1, ebox, v[0], v[1], v[2], v[3], v[4], u1, v[6], v1, r, dt_eff, dx);
        },
    );
    batched_launch(
        patches,
        ex,
        "pdv-density",
        Category::HydroKernel,
        [f.density1, f.density0, f.xvel0, f.xvel1, f.yvel0, f.yvel1],
        6,
        25,
        &regs,
        |_kk, _i, r1, rbox, v, r| {
            let (u1, v1) = if predict { (v[1], v[3]) } else { (v[2], v[4]) };
            k::pdv_density(r1, rbox, v[0], v[1], u1, v[3], v1, r, dt_eff, dx);
        },
    );
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells() * 2, 9, 30);
}

/// Volume fluxes — the compute half of the `post-accel` overlap window.
/// Kernel ordinals 1–2.
pub(crate) fn flux_calc(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: (f64, f64),
    dt: f64,
) {
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &[f.vol_flux_x, f.vol_flux_y, f.xvel0, f.xvel1, f.yvel0, f.yvel1]);
    }
    for (ordinal, (axis, (flux, v0, v1))) in
        [(0usize, (f.vol_flux_x, f.xvel0, f.xvel1)), (1, (f.vol_flux_y, f.yvel0, f.yvel1))]
            .into_iter()
            .enumerate()
    {
        let regs = regions_for(patches, pass, ordinal as u32 + 1, Centring::Side(axis), |p| {
            Centring::Side(axis).data_box(p.cell_box().grow(IntVector::uniform(GHOSTS)))
        });
        batched_launch(
            patches,
            ex,
            "flux-calc",
            Category::HydroKernel,
            [flux, v0, v1],
            3,
            6,
            &regs,
            |_kk, _i, out, sbox, v, r| k::flux_calc(out, sbox, v[0], v[1], r, dt, dx, axis),
        );
    }
    let ghost = |p: &Patch| ComputeRegion::GhostBox.cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| ghost(p).num_cells() * 2, 3, 6);
}

/// Staged pre-advection copies of energy1/density1 (device-to-device
/// on a device: the resident equivalent of CloverLeaf's in-place
/// read-modify loop) — the revert-save. Captured in two pieces across
/// the passes of the `mid-sweeps` window: the interior piece *before*
/// the fill finishes (legal: the fill only writes ghost cells) and the
/// frame piece after, so each captured cell holds exactly the value a
/// single pass captures.
pub(crate) struct CellStash {
    old_e: Staged,
    old_r: Staged,
    ebox: GBox,
}

/// Staged pre-update velocities for the momentum sweep. Full capture at
/// the interior pass: no in-window kernel before the capture writes the
/// velocities, and the concurrent fills never fill them.
pub(crate) struct MomStash {
    old: Vec<Staged>,
    vbox: GBox,
}

/// Cell advection — standalone (first sweep, `Pass::Full`) or the
/// compute half of the `mid-sweeps` window. Kernel ordinals 1–7.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advec_cell(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: (f64, f64),
    dir: usize,
    sweep: usize,
    stash: &mut Vec<CellStash>,
) {
    let mass_flux = if dir == 0 { f.mass_flux_x } else { f.mass_flux_y };
    let vol_flux = if dir == 0 { f.vol_flux_x } else { f.vol_flux_y };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(
            patches,
            &[f.density1, f.energy1, mass_flux, vol_flux, f.pre_vol, f.post_vol, f.ener_flux],
        );
    }
    let ghost = |p: &Patch| ComputeRegion::GhostBox.cell_box(p.cell_box());
    let regs = regions_for(patches, pass, 1, Centring::Cell, ghost);
    batched_launch(
        patches,
        ex,
        "advec-pre-vol",
        Category::HydroKernel,
        [f.pre_vol, f.vol_flux_x, f.vol_flux_y],
        3,
        6,
        &regs,
        |_kk, _i, pre, cbox, v, r| k::advec_pre_vol(pre, cbox, v[0], v[1], r, dir, sweep, dx),
    );
    let regs = regions_for(patches, pass, 2, Centring::Cell, ghost);
    batched_launch(
        patches,
        ex,
        "advec-post-vol",
        Category::HydroKernel,
        [f.post_vol, f.vol_flux_x, f.vol_flux_y],
        3,
        6,
        &regs,
        |_kk, _i, post, cbox, v, r| k::advec_post_vol(post, cbox, v[0], v[1], r, dir, sweep, dx),
    );
    let regs = regions_for(patches, pass, 3, Centring::Side(dir), |p| {
        let face = Centring::Side(dir).data_box(p.cell_box().grow(IntVector::uniform(GHOSTS)));
        face.intersect(p.data(mass_flux).data_box())
    });
    batched_launch(
        patches,
        ex,
        "advec-mass-flux",
        Category::HydroKernel,
        [mass_flux, vol_flux, f.density1, f.pre_vol],
        4,
        20,
        &regs,
        |_kk, _i, mf, sbox, v, r| k::advec_mass_flux(mf, sbox, v[0], v[1], v[2], r, dir),
    );
    let regs = regions_for(patches, pass, 4, Centring::Cell, |p| p.cell_box().grow(IntVector::ONE));
    batched_launch(
        patches,
        ex,
        "advec-ener-flux",
        Category::HydroKernel,
        [f.ener_flux, mass_flux, f.energy1, f.density1, f.pre_vol],
        5,
        20,
        &regs,
        |_kk, _i, ef, cbox, v, r| k::advec_ener_flux(ef, cbox, v[0], v[1], v[2], v[3], r, dir),
    );
    // Revert-save (ordinal 5): stage pre-advection energy1/density1.
    revert_save(patches, f, ex, pass, stash);
    let interior = |p: &Patch| p.cell_box();
    let regs = regions_for(patches, pass, 6, Centring::Cell, interior);
    batched_launch(
        patches,
        ex,
        "advec-cell",
        Category::HydroKernel,
        [f.energy1, f.pre_vol, mass_flux, f.ener_flux],
        6,
        20,
        &regs,
        |kk, i, e1, ebox, v, r| {
            let st = &stash[i];
            let e_old = k::View::new(st.old_e.as_slice(kk), st.ebox);
            let r_old = k::View::new(st.old_r.as_slice(kk), st.ebox);
            k::advec_cell_energy(e1, ebox, e_old, r_old, v[0], v[1], v[2], r, dir);
        },
    );
    let regs = regions_for(patches, pass, 7, Centring::Cell, interior);
    batched_launch(
        patches,
        ex,
        "advec-ener-update",
        Category::HydroKernel,
        [f.density1, f.pre_vol, mass_flux, vol_flux],
        5,
        15,
        &regs,
        |kk, i, r1, rbox, v, r| {
            let st = &stash[i];
            let r_old = k::View::new(st.old_r.as_slice(kk), st.ebox);
            k::advec_cell_density(r1, rbox, r_old, v[0], v[1], v[2], r, dir);
        },
    );
    if pass != Pass::Interior {
        stash.clear();
    }
    ex.charge_host(patches, Category::HydroKernel, |p| ghost(p).num_cells() * 6, 8, 40);
}

fn revert_save(
    patches: &[Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    stash: &mut Vec<CellStash>,
) {
    if patches.is_empty() {
        return;
    }
    // Kernel ordinal 5 of the cell-advection chain, over the whole
    // energy1 allocation rather than a compute region.
    let caps = regions_for(patches, pass, 5, Centring::Cell, |p| p.data(f.energy1).data_box());
    if pass != Pass::Boundary {
        stash.clear();
        for p in patches.iter() {
            // energy1 and density1 are both cell arrays over one box.
            let ebox = p.data(f.energy1).data_box();
            let len = ebox.num_cells() as usize;
            stash.push(CellStash { old_e: ex.stage(len), old_r: ex.stage(len), ebox });
        }
    }
    let total: i64 = caps.iter().flatten().map(|b| b.num_cells()).sum();
    if total == 0 {
        return;
    }
    let shape = KernelShape::streaming(total * 2, 4, 0);
    ex.launch("revert-save", Category::HydroKernel, shape, |kk| {
        for ((p, st), caps) in patches.iter().zip(stash.iter_mut()).zip(&caps) {
            let (e1, r1) = (view(p.data(f.energy1), kk), view(p.data(f.density1), kk));
            for r in caps {
                k::copy_field(st.old_e.as_mut_slice(kk), st.ebox, e1, *r);
                k::copy_field(st.old_r.as_mut_slice(kk), st.ebox, r1, *r);
            }
        }
    });
}

/// Momentum advection — the compute half of the `post-sweep` overlap
/// windows. Kernel ordinals 1–9 (the two save-vel slots keep their
/// ordinal so later margins stay monotone).
#[allow(clippy::too_many_arguments)]
pub(crate) fn advec_mom(
    patches: &mut [Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dir: usize,
    stash: &mut Vec<MomStash>,
) {
    let mass_flux = if dir == 0 { f.mass_flux_x } else { f.mass_flux_y };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(
            patches,
            &[
                f.xvel1,
                f.yvel1,
                f.density1,
                mass_flux,
                f.node_flux,
                f.node_mass_post,
                f.node_mass_pre,
                f.mom_flux,
                f.post_vol,
                f.pre_vol,
            ],
        );
    }
    let node_region = |p: &Patch| Centring::Node.data_box(p.cell_box().grow(IntVector::ONE));
    let regs = regions_for(patches, pass, 1, Centring::Node, node_region);
    batched_launch(
        patches,
        ex,
        "mom-node-flux",
        Category::HydroKernel,
        [f.node_flux, mass_flux],
        2,
        4,
        &regs,
        |_kk, _i, nf, nbox, v, r| k::mom_node_flux(nf, nbox, v[0], r, dir),
    );
    let regs = regions_for(patches, pass, 2, Centring::Node, node_region);
    batched_launch(
        patches,
        ex,
        "mom-node-mass-post",
        Category::HydroKernel,
        [f.node_mass_post, f.density1, f.post_vol],
        3,
        8,
        &regs,
        |_kk, _i, nm, nbox, v, r| k::mom_node_mass_post(nm, nbox, v[0], v[1], r),
    );
    let regs = regions_for(patches, pass, 3, Centring::Node, node_region);
    batched_launch(
        patches,
        ex,
        "mom-node-mass-pre",
        Category::HydroKernel,
        [f.node_mass_pre, f.node_mass_post, f.node_flux],
        3,
        2,
        &regs,
        |_kk, _i, nm, nbox, v, r| k::mom_node_mass_pre(nm, nbox, v[0], v[1], r, dir),
    );
    if pass != Pass::Boundary {
        stash.clear();
        for p in patches.iter() {
            stash.push(MomStash { old: Vec::new(), vbox: p.data(f.xvel1).data_box() });
        }
    }
    for (vi, vel) in [f.xvel1, f.yvel1].into_iter().enumerate() {
        let base = 4 + 3 * vi as u32;
        let regs = regions_for(patches, pass, base, Centring::Node, node_region);
        batched_launch(
            patches,
            ex,
            "mom-flux",
            Category::HydroKernel,
            [f.mom_flux, vel, f.node_flux, f.node_mass_pre],
            4,
            25,
            &regs,
            |_kk, _i, mf, nbox, v, r| k::mom_flux(mf, nbox, v[0], v[1], v[2], r, dir),
        );
        // Save-vel (ordinal base+1): full capture of the untouched
        // velocity at the interior (or full) pass.
        if pass != Pass::Boundary && !patches.is_empty() {
            let total: i64 = stash.iter().map(|s| s.vbox.num_cells()).sum();
            for st in stash.iter_mut() {
                st.old.push(ex.stage(st.vbox.num_cells() as usize));
            }
            let shape = KernelShape::streaming(total, 2, 0);
            ex.launch("mom-save-vel", Category::HydroKernel, shape, |kk| {
                for (st, p) in stash.iter_mut().zip(patches.iter()) {
                    let old = st.old[vi].as_mut_slice(kk);
                    k::copy_field(old, st.vbox, view(p.data(vel), kk), st.vbox);
                }
            });
        }
        let regs = regions_for(patches, pass, base + 2, Centring::Node, |p| {
            Centring::Node.data_box(p.cell_box())
        });
        batched_launch(
            patches,
            ex,
            "mom-vel-update",
            Category::HydroKernel,
            [vel, f.mom_flux, f.node_mass_pre, f.node_mass_post],
            5,
            10,
            &regs,
            |kk, i, out, obox, v, r| {
                let st = &stash[i];
                let v_old = k::View::new(st.old[vi].as_slice(kk), st.vbox);
                k::mom_vel_update(out, obox, v_old, v[0], v[1], v[2], r, dir);
            },
        );
    }
    if pass != Pass::Interior {
        stash.clear();
    }
    ex.charge_host(patches, Category::HydroKernel, |p| node_region(p).num_cells() * 7, 7, 30);
}

/// End-of-step field reset: four full-region copies.
pub(crate) fn reset(patches: &mut [Patch], f: &Fields, ex: Exec<'_>) {
    if ex.copy_back() {
        roundtrip(
            patches,
            &[f.density0, f.energy0, f.xvel0, f.yvel0, f.density1, f.energy1, f.xvel1, f.yvel1],
        );
    }
    for (dst, src, node) in [
        (f.density0, f.density1, false),
        (f.energy0, f.energy1, false),
        (f.xvel0, f.xvel1, true),
        (f.yvel0, f.yvel1, true),
    ] {
        let regs = regions_for(patches, Pass::Full, 1, Centring::Cell, |p| {
            if node {
                Centring::Node.data_box(p.cell_box())
            } else {
                p.cell_box()
            }
        });
        batched_launch(
            patches,
            ex,
            "copy-field",
            Category::HydroKernel,
            [dst, src],
            2,
            0,
            &regs,
            |_kk, _i, d, dbox, v, r| k::copy_field(d, dbox, v[0], r),
        );
    }
    ex.charge_host(patches, Category::HydroKernel, |p| p.cell_box().num_cells() * 4, 2, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_are_monotone_with_stencil_gap() {
        for ord in 1..12u32 {
            assert_eq!(margin(ord + 1) - margin(ord), MARGIN_STEP);
        }
        assert!(margin(1) >= MARGIN_STEP + 2);
    }

    #[test]
    fn passes_partition_the_nominal_region() {
        let cell_box = GBox::from_coords(0, 0, 40, 40);
        for centring in [Centring::Cell, Centring::Node, Centring::Side(0), Centring::Side(1)] {
            let nominal = centring.data_box(cell_box.grow(IntVector::uniform(GHOSTS)));
            for ordinal in [1u32, 3, 7, 9] {
                let inner = pass_regions(Pass::Interior, ordinal, cell_box, centring, nominal);
                let frames = pass_regions(Pass::Boundary, ordinal, cell_box, centring, nominal);
                let full = pass_regions(Pass::Full, ordinal, cell_box, centring, nominal);
                let cells = |v: &[GBox]| v.iter().map(|b| b.num_cells()).sum::<i64>();
                assert_eq!(cells(&inner) + cells(&frames), cells(&full));
                assert_eq!(cells(&full), nominal.num_cells());
                for a in &inner {
                    for b in &frames {
                        assert!(a.intersect(*b).is_empty());
                    }
                }
            }
        }
    }

    /// One device patch with the same random state in every field for
    /// a given seed (positive for densities/energies/EOS fields).
    fn random_patch(seed: u64, cells: i64) -> (Patch, Fields) {
        let device = rbamr_device::Device::k20x();
        random_patch_on(
            std::sync::Arc::new(rbamr_gpu_amr::DeviceDataFactory::new(device)),
            seed,
            cells,
        )
    }

    /// [`random_patch`] on `factory`'s placement: the same seed gives
    /// the same values on every placement.
    fn random_patch_on(
        factory: std::sync::Arc<dyn rbamr_amr::DataFactory>,
        seed: u64,
        cells: i64,
    ) -> (Patch, Fields) {
        use rand::{Rng, SeedableRng};
        let mut reg = rbamr_amr::VariableRegistry::new(factory);
        let f = Fields::register(&mut reg);
        let id = rbamr_amr::patch::PatchId { level: 0, index: 0 };
        let mut patch = Patch::new(id, GBox::from_coords(0, 0, cells, cells), 0, &reg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for v in 0..reg.len() {
            let data = patch.data_mut(VariableId(v));
            let image: Vec<f64> = (0..data.data_box().num_cells())
                .map(|_| if v < 7 { rng.gen_range(0.2..2.0) } else { rng.gen_range(-1.0..1.0) })
                .collect();
            match data.as_any_mut().downcast_mut::<HostData<f64>>() {
                Some(host) => host.as_mut_slice().copy_from_slice(&image),
                None => dev_mut(data).upload_all(&image, Category::Other),
            }
        }
        (patch, f)
    }

    fn field_bits(patch: &Patch) -> Vec<Vec<u64>> {
        (0..22)
            .map(|v| {
                let data = patch.data(VariableId(v));
                let values = match data.as_any().downcast_ref::<HostData<f64>>() {
                    Some(host) => host.as_slice().to_vec(),
                    None => dev(data).download_all(Category::Other),
                };
                values.into_iter().map(f64::to_bits).collect()
            })
            .collect()
    }

    /// The two [`crate::PatchIntegrator`]s are thin: each method hands
    /// its arguments to one executor body. From the same random state,
    /// every method leaves host and device fields, and then the dt and
    /// summary each integrator computes, bitwise equal — a wrapper that
    /// passes one argument differently fails here (`flag_cells` is
    /// checked below).
    #[test]
    fn both_patch_integrators_forward_every_method_alike() {
        use crate::state::PatchIntegrator;
        const DX: (f64, f64) = (0.05, 0.05);
        const DT: f64 = 1e-3;
        let methods: [fn(&dyn PatchIntegrator, &mut Patch, &Fields); 12] = [
            |ig, p, f| ig.ideal_gas(p, f, 1.4, false),
            |ig, p, f| ig.ideal_gas(p, f, 1.4, true),
            |ig, p, f| ig.viscosity(p, f, DX),
            |ig, p, f| ig.pdv(p, f, DX, DT, true),
            |ig, p, f| ig.pdv(p, f, DX, DT, false),
            |ig, p, f| ig.revert(p, f),
            |ig, p, f| ig.accelerate(p, f, DX, DT),
            |ig, p, f| ig.flux_calc(p, f, DX, DT),
            |ig, p, f| ig.advec_cell(p, f, DX, 0, 1),
            |ig, p, f| ig.advec_cell(p, f, DX, 1, 2),
            |ig, p, f| {
                // Momentum advection reads the volumes and fluxes the
                // cell sweep computes.
                ig.advec_cell(p, f, DX, 0, 1);
                ig.advec_mom(p, f, DX, 0, 1);
            },
            |ig, p, f| ig.reset(p, f),
        ];
        let observe = |ig: &dyn PatchIntegrator, p: &mut Patch, f: &Fields| {
            let s = ig.field_summary(p, f, DX, p.cell_box());
            let dt = ig.calc_dt(p, f, DX, 0.5);
            let words = [dt, s.volume, s.mass, s.internal_energy, s.kinetic_energy, s.pressure];
            (words.map(f64::to_bits), field_bits(p))
        };
        let host = std::sync::Arc::new(rbamr_amr::HostDataFactory::new());
        let (host_ig, dev_ig) =
            (crate::HostPatchIntegrator::new(), crate::DevicePatchIntegrator::new());
        for (i, method) in methods.iter().enumerate() {
            let (mut hp, f) = random_patch_on(host.clone(), i as u64, 12);
            let (mut dp, _) = random_patch(i as u64, 12);
            method(&host_ig, &mut hp, &f);
            method(&dev_ig, &mut dp, &f);
            let same = observe(&host_ig, &mut hp, &f) == observe(&dev_ig, &mut dp, &f);
            assert!(same, "method {i}: host and device diverge");
        }
    }

    /// The split itself, phase by phase: with no fill between the
    /// passes, `Interior` then `Boundary` leaves every field bitwise
    /// equal to `Full`. 40 cells: early kernels split, deep-margin ones
    /// degrade to boundary-only; 96 cells: every kernel of every chain
    /// has a non-empty core.
    #[test]
    fn interior_then_boundary_equals_full_in_every_windowed_phase() {
        const DX: (f64, f64) = (0.05, 0.05);
        type Phase = fn(&mut [Patch], &Fields, Exec<'_>, &[Pass]);
        let phases: [(&str, Phase); 4] = [
            ("eos_viscosity", |p, f, ex, passes| {
                for &pass in passes {
                    eos_viscosity(p, f, ex, pass, 1.4, DX);
                }
            }),
            ("flux_calc", |p, f, ex, passes| {
                for &pass in passes {
                    flux_calc(p, f, ex, pass, DX, 1e-3);
                }
            }),
            ("advec_cell", |p, f, ex, passes| {
                let mut stash = Vec::new();
                for &pass in passes {
                    advec_cell(p, f, ex, pass, DX, 1, 2, &mut stash);
                }
            }),
            ("advec_mom", |p, f, ex, passes| {
                let mut stash = Vec::new();
                for &pass in passes {
                    advec_mom(p, f, ex, pass, 0, &mut stash);
                }
            }),
        ];
        for cells in [40, 96] {
            for (seed, (name, phase)) in phases.iter().enumerate() {
                let (mut full, f) = random_patch(seed as u64, cells);
                let (mut split, _) = random_patch(seed as u64, cells);
                let run = |patch: &mut Patch, passes: &[Pass]| {
                    let data = dev(patch.data(f.density0));
                    let (device, stream) = (data.device().clone(), data.stream().clone());
                    let ex = Exec::Device { device: &device, stream: &stream, copy_back: false };
                    phase(std::slice::from_mut(patch), &f, ex, passes);
                };
                run(&mut full, &[Pass::Full]);
                run(&mut split, &[Pass::Interior, Pass::Boundary]);
                let (a, b) = (field_bits(&full), field_bits(&split));
                for v in 0..a.len() {
                    assert!(a[v] == b[v], "{name} on {cells}x{cells}: field {v} differs");
                }
            }
        }
    }

    /// A level of `n` square patches of `cells` cells a side in a row, on
    /// `factory`'s placement. Patch `i` is smooth (nothing to flag) when
    /// `rough(i)` is false and random otherwise.
    fn tag_level(
        factory: std::sync::Arc<dyn rbamr_amr::DataFactory>,
        n: usize,
        cells: i64,
        rough: impl Fn(usize) -> bool,
    ) -> (Vec<Patch>, Fields) {
        use rand::{Rng, SeedableRng};
        let mut reg = rbamr_amr::VariableRegistry::new(factory);
        let f = Fields::register(&mut reg);
        let patches = (0..n).map(|i| {
            let id = rbamr_amr::patch::PatchId { level: 0, index: i };
            let x0 = i as i64 * cells;
            let mut patch = Patch::new(id, GBox::from_coords(x0, 0, x0 + cells, cells), 0, &reg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            for var in [f.density0, f.energy0] {
                let data = patch.data_mut(var);
                let image: Vec<f64> = (0..data.data_box().num_cells())
                    .map(|_| if rough(i) { rng.gen_range(0.2..2.0) } else { 1.0 })
                    .collect();
                match data.as_any_mut().downcast_mut::<HostData<f64>>() {
                    Some(host) => host.as_mut_slice().copy_from_slice(&image),
                    None => dev_mut(data).upload_all(&image, Category::Other),
                }
            }
            patch
        });
        (patches.collect(), f)
    }

    /// The level-wide tagging pass: three launches, two downloads and
    /// three allocations at most, whatever the patch count, and the
    /// bitmaps of the per-patch entry points of both placements.
    #[test]
    fn flag_cells_is_three_launches_per_level_and_equals_the_per_patch_bitmaps() {
        use crate::state::PatchIntegrator;
        let th = FlagThresholds::default();
        type Rough = fn(usize) -> bool;
        let mixes: [(&str, Rough); 3] =
            [("untagged", |_| false), ("mixed", |i| i % 3 == 1), ("tagged", |_| true)];
        // 7^2 and 13^2 cells: every patch's bits end mid-byte.
        for cells in [7, 13, 16] {
            for (what, rough) in mixes {
                let budgets = [8usize, 32, 128].map(|n| {
                    let device = Device::k20x();
                    let rec = rbamr_telemetry::Recorder::new(0, device.clock().clone());
                    device.set_recorder(rec.clone());
                    let factory = rbamr_gpu_amr::DeviceDataFactory::new(device.clone());
                    let (patches, f) = tag_level(std::sync::Arc::new(factory), n, cells, rough);
                    let host = std::sync::Arc::new(rbamr_amr::HostDataFactory::new());
                    let (host_patches, _) = tag_level(host, n, cells, rough);

                    let count = |name: &str| rec.counter(name);
                    let launches = |name: &str| count(&format!("device.kernel_launches.{name}"));
                    let stream = Stream::new(&device);
                    let ex = Exec::Device { device: &device, stream: &stream, copy_back: false };
                    let allocs = count("device.allocs");
                    device.reset_transfer_stats();
                    let level = flag_cells(&patches, &f, ex, &th);
                    let any = level.iter().any(TagBitmap::any);
                    let budget = [
                        launches("flag-cells"),
                        launches("any-tagged"),
                        launches("compress-tags"),
                        device.stats().d2h_transfers,
                        count("device.allocs") - allocs,
                    ];
                    assert_eq!(budget, [1, 1, any.into(), 1 + u64::from(any), 2 + u64::from(any)]);
                    assert_eq!(device.stats().h2d_transfers, 0);

                    let tagged: Vec<bool> = level.iter().map(TagBitmap::any).collect();
                    let expect: Vec<bool> = (0..n).map(rough).collect();
                    assert_eq!(tagged, expect, "{what}, {n} patches of {cells}^2");
                    let dev_ig = crate::DevicePatchIntegrator::new();
                    let host_ig = crate::HostPatchIntegrator::new();
                    for (i, bitmap) in level.iter().enumerate() {
                        assert!(*bitmap == dev_ig.flag_cells(&patches[i], &f, &th), "{what} {i}");
                        assert!(*bitmap == host_ig.flag_cells(&host_patches[i], &f, &th));
                    }
                    assert!(level == flag_cells(&host_patches, &f, Exec::Host(None), &th));
                    budget
                });
                assert!(
                    budgets[1] == budgets[0] && budgets[2] == budgets[0],
                    "{what}: {budgets:?}"
                );
            }
        }
    }

    #[test]
    fn small_patches_degrade_to_boundary_only() {
        let cell_box = GBox::from_coords(0, 0, 8, 8);
        let nominal = cell_box.grow(IntVector::uniform(GHOSTS));
        let ord = 9; // deepest margin of the momentum chain
        let interior = pass_regions(Pass::Interior, ord, cell_box, Centring::Cell, nominal);
        assert!(interior.iter().all(|r| r.is_empty()));
        assert_eq!(
            pass_regions(Pass::Boundary, ord, cell_box, Centring::Cell, nominal),
            [nominal, GBox::EMPTY, GBox::EMPTY, GBox::EMPTY]
        );
    }
}
