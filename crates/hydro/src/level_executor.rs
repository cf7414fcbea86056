//! The level executor: every hydro kernel call of the step, for every
//! placement — one call site per kernel, one region definition per
//! phase.
//!
//! Each phase function takes every level's local patches, coarse to
//! fine, each with its level's cell widths, and an executor handle,
//! `Exec`, that says where the arrays live and what running a kernel
//! charges; the list of "which kernel runs over which region reading
//! which fields" is written once, here, and both arms apply the same
//! [`crate::kernels`] bodies to the same regions, so the arithmetic is
//! bitwise identical whichever placement runs it:
//!
//! * `Exec::Host` — plain calls over `HostData` slices, patch by
//!   patch; the CPU cost model is charged once per phase, one loop over
//!   the summed cells of every level's patches — where the device pays
//!   one launch, the host pays one fork/join.
//! * `Exec::Device` — **one launch per kernel group per pass for the
//!   whole hierarchy**: the launch body loops over every level's
//!   patches (the logical element index of the hierarchy's
//!   [`BatchPlan`](rbamr_gpu_amr::BatchPlan) spans them all), so the
//!   fixed launch latency — the Figure 9 overhead that makes small
//!   grids launch-bound — is paid once per (group, pass), whatever the
//!   level or patch count. Within a phase the levels never read each
//!   other, so the fusion changes the launch order, not the numerics.
//!
//! A group is a list of member kernels with no cross-element
//! dependency, run as one launch (CloverLeaf's kernels update several
//! fields per pass the same way). The members run in order, each over
//! every patch, and the launch charges the sum of their shapes. A member
//! may read an earlier member's output only at the same element, and may
//! not overwrite what an earlier member reads at a neighbour, so each
//! group is one legal data-parallel kernel, not just a sequential loop.
//! A lone kernel is the one-member group. A step is 20 launches:
//!
//! | launch (per step) | members |
//! |---|---|
//! | `ideal-gas-viscosity` | pressure, sound speed, viscosity (`fill-start`) |
//! | `calc-dt` | the per-patch CFL minima |
//! | `pdv-predict` | predictor PdV energy + density, predictor EOS, revert |
//! | `accelerate` | x and y velocity |
//! | `pdv` | corrector PdV energy + density |
//! | `flux-calc` | x and y volume flux (`post-accel`) |
//! | `advec-cell-vol` (×2) | pre- and post-sweep volume, revert-save of energy and density |
//! | `advec-mass-flux` (×2) | mass flux, then energy flux (reads the mass flux at its own face) |
//! | `advec-cell` (×2) | cell energy + cell density, both from the saved ρ |
//! | `advec-mom-node` (×2) | node flux, post-sweep node mass, both velocity saves |
//! | `mom-node-mass-pre` (×2) | one kernel |
//! | `mom-flux` (×2) | x and y momentum flux |
//! | `mom-vel-update` (×2) | x and y velocity; the second sweep's also the four reset copies |
//!
//! The saves need no staging: the revert-save copies energy1 and
//! density1 into `energy0` / `density0`, and the velocity saves copy
//! the velocities into `xvel0` / `yvel0`. No kernel reads those arrays
//! between the corrector PdV (for the velocities, `flux-calc`) and the
//! reset that overwrites them, no fill of the advection windows fills
//! them, and each save covers only the region its reader reads — the
//! interior cells or nodes the reset overwrites — so their ghosts keep
//! the step-start values. The y-momentum flux is the step's only staged
//! array, so the two momentum fluxes can share a launch.
//!
//! [`crate::HostPatchIntegrator`] and [`crate::DevicePatchIntegrator`]
//! run the same functions on a batch of one patch.
//!
//! For communication/computation overlap, each phase can run as two
//! passes: [`Pass::Interior`] computes only patch cores that a
//! stencil-margin analysis proves cannot observe ghost cells (so it is
//! safe to run while the halo exchange is in flight), and
//! [`Pass::Boundary`] finishes the frame after the exchange lands. The
//! driver splits a window's phase only on a device, and only when the
//! rank receives a message in that window — with nothing in flight
//! there is nothing to hide, and the split would only double the
//! window's launches; every other phase runs as one `Pass::Full`.
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
//! overlap, so its driver only ever asks for `Pass::Full`. Interior +
//! Boundary equals Full bitwise (the unit test
//! `one_pass_over_every_level_equals_a_pass_per_level`), so where the
//! driver splits never changes a value.
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
use std::borrow::Borrow;

/// Where a phase's arrays live and what running it charges — the only
/// thing that differs between the placements.
#[derive(Clone, Copy)]
pub(crate) enum Exec<'a> {
    /// Host memory: every kernel is a plain call over `HostData`
    /// slices. With a hook, each phase charges the CPU cost model one
    /// loop over all its patches, after its kernels; no launch, span or
    /// counter exists.
    Host(Option<&'a HostCostHook>),
    /// Device memory: one launch per kernel group per pass. `copy_back`
    /// adds the per-phase PCIe round trips.
    Device {
        /// The device the patches' arrays live on.
        device: &'a Device,
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

    /// The CPU baseline's price of one phase: one loop over the summed
    /// `cells_of(patch)` of every patch, if there is any.
    fn charge_host<P: Borrow<Patch>>(
        self,
        patches: &[P],
        category: Category,
        cells_of: impl Fn(&Patch) -> i64,
        arrays: u32,
        flops: u32,
    ) {
        if !patches.is_empty() {
            let cells = patches.iter().map(|p| cells_of(p.borrow())).sum();
            self.charge_loop(category, cells, arrays, flops);
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
            Exec::Device { device, .. } => {
                device.launch_named(&Stream, name, category, shape, |kk| body(Some(&kk)));
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

/// Upper bound on hydro launches per step for the whole hierarchy —
/// the in-process fig9 gate constant — where no window's phase runs in
/// two passes that both launch: on one rank, or where no patch has an
/// interior core. Every group of the step's phase chain, once, is 20
/// launches (the serial fig9 sweep reads exactly 20 on every rung); 26
/// leaves headroom without ever permitting per-level or per-patch scaling.
pub const MAX_LAUNCHES_PER_STEP: u64 = 26;

/// Upper bound on hydro launches per step where windows split: a
/// window whose rank receives a message launches its kernels in an
/// interior pass too, where some patch has a core — 33 when all five
/// windows split; 38 leaves headroom.
pub const MAX_SPLIT_LAUNCHES_PER_STEP: u64 = 38;

/// Upper bound on halo data-movement launches per step — fig9's second
/// gate, with the same bound whatever the level count: a fill window is
/// at most six launches for the whole hierarchy (local copies with the
/// coarse captures, pack, unpack, extension, interpolation and physical
/// boundaries), and a sync at most four (projection, pack, local
/// applies, unpack). The serial fig9 sweep — one rank, so no packs, two
/// syncs and a regrid every ten steps — reads 25.2 on every rung; 30
/// leaves headroom.
pub const MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP: u64 = 30;

/// The kernels [`MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP`] budgets: every
/// launch of a fill, a sync or a regrid's transfer.
pub const DATA_MOVEMENT_KERNEL_NAMES: &[&str] = &[
    "copy-region",
    "pack",
    "unpack",
    "extend-uncovered",
    "refine-interp",
    "coarsen-project",
    "physical-boundary",
];

/// Every name the executor launches a step kernel group under. No
/// halo-fill, sync, or regrid kernel uses them.
pub const HYDRO_KERNEL_NAMES: &[&str] = &[
    "accelerate",
    "advec-cell",
    "advec-cell-vol",
    "advec-mass-flux",
    "advec-mom-node",
    "calc-dt",
    "flux-calc",
    "ideal-gas",
    "ideal-gas-viscosity",
    "mom-flux",
    "mom-node-mass-pre",
    "mom-vel-update",
    "pdv",
    "pdv-predict",
    "reset-field",
    "revert",
    "viscosity",
];

/// The tagging pass's kernels: [`flag_cells`] and the two compressing
/// the level's tags.
pub const TAG_KERNEL_NAMES: &[&str] = &["flag-cells", "any-tagged", "compress-tags"];

/// Hydro kernel launches `rec` has counted so far: the
/// `device.kernel_launches.<name>` counters summed over the executor's
/// kernel names — exactly the launches [`MAX_LAUNCHES_PER_STEP`]
/// budgets.
pub fn hydro_launches(rec: &rbamr_telemetry::Recorder) -> u64 {
    launches_of(rec, HYDRO_KERNEL_NAMES)
}

/// Halo data-movement launches `rec` has counted so far — exactly the
/// launches [`MAX_DATA_MOVEMENT_LAUNCHES_PER_STEP`] budgets.
pub fn data_movement_launches(rec: &rbamr_telemetry::Recorder) -> u64 {
    launches_of(rec, DATA_MOVEMENT_KERNEL_NAMES)
}

fn launches_of(rec: &rbamr_telemetry::Recorder, names: &[&str]) -> u64 {
    names.iter().map(|name| rec.counter(&format!("device.kernel_launches.{name}"))).sum()
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
    patches: &[&mut Patch],
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

/// A member's work on patch `i`, given the launch's kernel token.
type MemberRun<'a> = Box<dyn FnMut(Option<&Kernel<'_>>, usize, &mut Patch) + 'a>;

/// An array a member writes or reads at a neighbour: a registered
/// field, or a phase's staging array, named by what it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Array {
    Field(VariableId),
    Staged(&'static str),
}

/// What a member declares: its kernel, the array it writes (`None`: a
/// staging array written and read only at the same element), and the
/// arrays it reads at a neighbouring element — it reads every other
/// input at its own element only.
#[derive(Clone, Debug)]
struct Access {
    kernel: &'static str,
    out: Option<Array>,
    stencil: Vec<Array>,
}

/// One kernel of a launch group: its declared accesses, its price, and
/// its work on patch `i`.
struct Member<'a> {
    access: Access,
    cells: i64,
    shape: KernelShape,
    run: MemberRun<'a>,
}

impl<'a> Member<'a> {
    fn new(
        kernel: &'static str,
        (out, stencil): (Option<Array>, &[Array]),
        (cells, arrays, flops): (i64, u32, u32),
        run: impl FnMut(Option<&Kernel<'_>>, usize, &mut Patch) + 'a,
    ) -> Self {
        let access = Access { kernel, out, stencil: stencil.to_vec() };
        let shape = KernelShape::streaming(cells, arrays, flops);
        Self { access, cells, shape, run: Box::new(run) }
    }
}

/// The group rule, or the first (earlier, later) pair of members that
/// breaks it: a member reads at a neighbour what the other writes.
fn group_rule(members: &[&Access]) -> Result<(), (&'static str, &'static str)> {
    let reads = |r: &Access, w: &Access| w.out.is_some_and(|o| r.stencil.contains(&o));
    for (j, later) in members.iter().enumerate() {
        if let Some(e) = members[..j].iter().find(|e| reads(later, e) || reads(e, later)) {
            return Err((e.kernel, later.kernel));
        }
    }
    Ok(())
}

/// A member writing field `vars[0]` over each patch's region boxes from
/// read-only views of the rest, reading the `stencil` ones at
/// neighbouring elements. Nothing is allocated per patch.
fn kernel<'a, const N: usize>(
    name: &'static str,
    vars: [VariableId; N],
    stencil: &[VariableId],
    (arrays, flops): (u32, u32),
    regions: Vec<[GBox; 4]>,
    body: impl Fn(Option<&Kernel<'_>>, usize, &mut [f64], GBox, &[k::View<'_>], GBox) + 'a,
) -> Member<'a> {
    let cells = regions.iter().flatten().map(|b| b.num_cells()).sum();
    let stencil: Vec<Array> = stencil.iter().copied().map(Array::Field).collect();
    let out = Some(Array::Field(vars[0]));
    Member::new(name, (out, &stencil), (cells, arrays, flops), move |kk, i, p| {
        if regions[i].iter().all(|r| r.is_empty()) {
            return;
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
    })
}

/// Run `members` as one launch over the hierarchy — the one way a step
/// kernel runs: each member in turn over every patch, charged the sum of
/// their shapes, and skipped entirely (no launch, no latency) when every
/// member's region is empty. On the host the same loops run as plain
/// calls.
fn launch_group(
    patches: &mut [&mut Patch],
    ex: Exec<'_>,
    name: &'static str,
    category: Category,
    mut members: Vec<Member<'_>>,
) {
    debug_assert_eq!(
        group_rule(&members.iter().map(|m| &m.access).collect::<Vec<_>>()),
        Ok(()),
        "launch {name} breaks the group rule"
    );
    #[cfg(test)]
    tests::record(name, &members);
    if members.iter().all(|m| m.cells == 0) {
        return;
    }
    let shape = members.iter().map(|m| m.shape).sum();
    ex.launch(name, category, shape, |kk| {
        for m in &mut members {
            for (i, p) in patches.iter_mut().enumerate() {
                (m.run)(kk, i, p);
            }
        }
    });
}

/// Per-phase full-array PCIe round trips for the copy-back placement:
/// D2H of the current values (the "result copy" of the previous phase
/// in the Wang et al. scheme) followed by H2D (staging for the next
/// kernel), once per patch per variable the phase touches. Both
/// transfers are real: counted by the device and charged to the clock.
fn roundtrip(patches: &mut [&mut Patch], vars: &[VariableId]) {
    for p in patches.iter_mut() {
        for &var in vars {
            let d = dev_mut(p.data_mut(var));
            let host = d.download_all(Category::HydroKernel);
            d.upload_all(&host, Category::HydroKernel);
        }
    }
}

/// Equation of state: pressure then sound speed, one `ideal-gas`
/// launch. With `predict` unset it reads the step-start fields over the
/// ghost box (kernel ordinals 1–2 of the `fill-start` window); the
/// predictor EOS reads the working copies over the interior grown by
/// one and only ever runs [`Pass::Full`].
pub(crate) fn ideal_gas(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    gamma: f64,
    predict: bool,
) {
    let eos = ideal_gas_members(patches, f, ex, pass, gamma, predict);
    launch_group(patches, ex, "ideal-gas", Category::HydroKernel, eos);
}

/// [`ideal_gas`]'s members, after its round trip and host charge —
/// here and below, a `*_members` function's caller launches them.
fn ideal_gas_members<'a>(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    gamma: f64,
    predict: bool,
) -> Vec<Member<'a>> {
    let (rho, e) = if predict { (f.density1, f.energy1) } else { (f.density0, f.energy0) };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &[f.pressure, f.soundspeed, rho, e]);
    }
    let region = if predict { ComputeRegion::Grown(1) } else { ComputeRegion::GhostBox };
    let nominal = |p: &Patch| region.cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| nominal(p).num_cells() * 2, 3, 8);
    vec![
        kernel(
            "ideal-gas-pressure",
            [f.pressure, rho, e],
            &[],
            (3, 3),
            regions_for(patches, pass, 1, Centring::Cell, nominal),
            move |_kk, _i, p, pbox, v, r| k::ideal_gas_pressure(p, pbox, v[0], v[1], r, gamma),
        ),
        kernel(
            "ideal-gas-soundspeed",
            [f.soundspeed, f.pressure, rho],
            &[],
            (3, 5),
            regions_for(patches, pass, 2, Centring::Cell, nominal),
            move |_kk, _i, ss, ssbox, v, r| {
                k::ideal_gas_soundspeed(ss, ssbox, v[0], v[1], r, gamma)
            },
        ),
    ]
}

/// Artificial viscosity — kernel ordinal 3 of the `fill-start` window.
pub(crate) fn viscosity(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: &[(f64, f64)],
) {
    let q = viscosity_member(patches, f, ex, pass, dx);
    launch_group(patches, ex, "viscosity", Category::HydroKernel, vec![q]);
}

fn viscosity_member<'a>(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: &'a [(f64, f64)],
) -> Member<'a> {
    let vars = [f.viscosity, f.density0, f.soundspeed, f.xvel0, f.yvel0];
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &vars);
    }
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells(), 5, 15);
    let regs = regions_for(patches, pass, 3, Centring::Cell, grown);
    kernel("viscosity", vars, &[f.xvel0, f.yvel0], (5, 15), regs, move |_kk, i, q, qbox, v, r| {
        k::viscosity(q, qbox, v[0], v[1], v[2], v[3], r, dx[i]);
    })
}

/// EOS + viscosity — the compute half of the `fill-start` overlap
/// window, one `ideal-gas-viscosity` launch.
pub(crate) fn eos_viscosity(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    gamma: f64,
    dx: &[(f64, f64)],
) {
    let mut group = ideal_gas_members(patches, f, ex, pass, gamma, false);
    group.push(viscosity_member(patches, f, ex, pass, dx));
    launch_group(patches, ex, "ideal-gas-viscosity", Category::HydroKernel, group);
}

/// CFL reduction: every patch's minimum lands in one `n`-patch staging
/// array — on a device from a single launch, and one `8n`-byte transfer
/// crosses PCIe per step: "calculating the timestep contains the only
/// global reduction" (Section V-B). Returns the per-patch minima in
/// level-major patch order, so every placement folds them identically.
pub(crate) fn calc_dt(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: &[(f64, f64)],
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
    let stencil = [Array::Field(f.xvel0), Array::Field(f.yvel0)];
    let minimum = Member::new("calc-dt", (None, &stencil), (total, 6, 20), |kk, i, p| {
        // `v[1]`, the pressure, is charged and round-tripped but not read.
        let v = vars.map(|var| view(p.data(var), kk));
        result.as_mut_slice(kk)[i] =
            k::calc_dt(v[0], v[2], v[3], v[4], v[5], p.cell_box(), dx[i], cfl);
    });
    launch_group(patches, ex, "calc-dt", Category::Timestep, vec![minimum]);
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

/// The refinement heuristic over `patches` — every tag level's local
/// patches at a regrid: their tags land in one staged `i32` array, patch
/// after patch — on a device from a single `flag-cells` launch,
/// compressed there for all of them, so only one flag word per patch and
/// the flagged patches' bits cross PCIe, in one download each (Section
/// IV-C; see [`compress_tags_many`]). Returns the bitmaps in patch
/// order; the copy-back policy adds nothing here.
pub(crate) fn flag_cells<P: Borrow<Patch>>(
    patches: &[P],
    f: &Fields,
    ex: Exec<'_>,
    thresholds: &FlagThresholds,
) -> Vec<TagBitmap> {
    if patches.is_empty() {
        return Vec::new();
    }
    let cells = |p: &Patch| p.cell_box().num_cells();
    let total: i64 = patches.iter().map(|p| cells(p.borrow())).sum();
    let mut tags = ex.stage::<i32>(total as usize);
    ex.launch("flag-cells", Category::Regrid, KernelShape::streaming(total, 3, 10), |kk| {
        let mut rest = tags.as_mut_slice(kk);
        for p in patches.iter().map(Borrow::borrow) {
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
        end += cells(p.borrow()) as usize;
        (p.borrow().cell_box(), offset)
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

/// The Lagrangian pre-fill chain — predictor PdV, predictor EOS and
/// revert as one `pdv-predict` launch, then accelerate, then corrector
/// PdV. No fill runs concurrently with these, so they run as
/// full-region launches (3 in all).
pub(crate) fn lagrangian_pre(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    gamma: f64,
    dx: &[(f64, f64)],
    dt: f64,
) {
    let mut group = pdv_members(patches, f, ex, dx, dt, true);
    group.extend(ideal_gas_members(patches, f, ex, Pass::Full, gamma, true));
    group.extend(revert_members(patches, f, ex));
    launch_group(patches, ex, "pdv-predict", Category::HydroKernel, group);
    accelerate(patches, f, ex, dx, dt);
    pdv(patches, f, ex, dx, dt, false);
}

/// Restore working density/energy to step-start values.
pub(crate) fn revert(patches: &mut [&mut Patch], f: &Fields, ex: Exec<'_>) {
    let copies = revert_members(patches, f, ex);
    launch_group(patches, ex, "revert", Category::HydroKernel, copies);
}

fn revert_members<'a>(patches: &mut [&mut Patch], f: &Fields, ex: Exec<'_>) -> Vec<Member<'a>> {
    if ex.copy_back() {
        roundtrip(patches, &[f.density1, f.energy1, f.density0, f.energy0]);
    }
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells() * 2, 2, 0);
    let copies =
        [("revert-density", f.density1, f.density0), ("revert-energy", f.energy1, f.energy0)];
    Vec::from(copies.map(|(name, dst, src)| {
        let regs = regions_for(patches, Pass::Full, 1, Centring::Cell, grown);
        kernel(name, [dst, src], &[], (2, 0), regs, |_kk, _i, d, dbox, v, r| {
            k::copy_field(d, dbox, v[0], r);
        })
    }))
}

/// Node velocity update from pressure and viscosity gradients, x and y
/// in one launch.
pub(crate) fn accelerate(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: &[(f64, f64)],
    dt: f64,
) {
    if ex.copy_back() {
        roundtrip(
            patches,
            &[f.xvel1, f.yvel1, f.xvel0, f.yvel0, f.density0, f.pressure, f.viscosity],
        );
    }
    let node = |p: &Patch| Centring::Node.data_box(p.cell_box());
    let axes =
        [("accelerate-x", 0usize, (f.xvel1, f.xvel0)), ("accelerate-y", 1, (f.yvel1, f.yvel0))];
    let group = axes.map(|(name, axis, (v1, v0))| {
        kernel(
            name,
            [v1, v0, f.density0, f.pressure, f.viscosity],
            &[f.density0, f.pressure, f.viscosity],
            (5, 20),
            regions_for(patches, Pass::Full, 1, Centring::Node, node),
            move |_kk, i, out, nbox, v, r| {
                k::accelerate(out, nbox, v[0], v[1], v[2], v[3], r, dt, dx[i], axis);
            },
        )
    });
    launch_group(patches, ex, "accelerate", Category::HydroKernel, group.into());
    ex.charge_host(patches, Category::HydroKernel, |p| node(p).num_cells() * 2, 5, 20);
}

/// PdV energy/density update (predictor: half dt with the start
/// velocities; corrector: full dt with time-averaged velocities), one
/// `pdv` launch.
pub(crate) fn pdv(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: &[(f64, f64)],
    dt: f64,
    predict: bool,
) {
    let group = pdv_members(patches, f, ex, dx, dt, predict);
    launch_group(patches, ex, "pdv", Category::HydroKernel, group);
}

fn pdv_members<'a>(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    dx: &'a [(f64, f64)],
    dt: f64,
    predict: bool,
) -> Vec<Member<'a>> {
    let vels = [f.xvel0, f.xvel1, f.yvel0, f.yvel1];
    if ex.copy_back() {
        let mut vars = vec![f.energy1, f.density1, f.energy0, f.density0, f.pressure, f.viscosity];
        vars.extend(vels);
        roundtrip(patches, &vars);
    }
    let dt_eff = if predict { 0.5 * dt } else { dt };
    let grown = |p: &Patch| ComputeRegion::Grown(1).cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| grown(p).num_cells() * 2, 9, 30);
    let [u0, u1, v0, v1] = vels;
    vec![
        kernel(
            "pdv-energy",
            [f.energy1, f.energy0, f.density0, f.pressure, f.viscosity, u0, u1, v0, v1],
            &vels,
            (9, 30),
            regions_for(patches, Pass::Full, 1, Centring::Cell, grown),
            move |_kk, i, e1, ebox, v, r| {
                let (u1, v1) = if predict { (v[4], v[6]) } else { (v[5], v[7]) };
                k::pdv_energy(
                    e1, ebox, v[0], v[1], v[2], v[3], v[4], u1, v[6], v1, r, dt_eff, dx[i],
                );
            },
        ),
        kernel(
            "pdv-density",
            [f.density1, f.density0, u0, u1, v0, v1],
            &vels,
            (6, 25),
            regions_for(patches, Pass::Full, 1, Centring::Cell, grown),
            move |_kk, i, r1, rbox, v, r| {
                let (u1, v1) = if predict { (v[1], v[3]) } else { (v[2], v[4]) };
                k::pdv_density(r1, rbox, v[0], v[1], u1, v[3], v1, r, dt_eff, dx[i]);
            },
        ),
    ]
}

/// Volume fluxes, x and y in one launch — the compute half of the
/// `post-accel` overlap window. Kernel ordinals 1–2.
pub(crate) fn flux_calc(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: &[(f64, f64)],
    dt: f64,
) {
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(patches, &[f.vol_flux_x, f.vol_flux_y, f.xvel0, f.xvel1, f.yvel0, f.yvel1]);
    }
    let axes = [
        ("flux-calc-x", 0usize, (f.vol_flux_x, f.xvel0, f.xvel1)),
        ("flux-calc-y", 1, (f.vol_flux_y, f.yvel0, f.yvel1)),
    ];
    let group = axes.map(|(name, axis, (flux, v0, v1))| {
        let regs = regions_for(patches, pass, axis as u32 + 1, Centring::Side(axis), |p| {
            Centring::Side(axis).data_box(p.cell_box().grow(IntVector::uniform(GHOSTS)))
        });
        kernel(name, [flux, v0, v1], &[v0, v1], (3, 6), regs, move |_kk, i, out, sbox, v, r| {
            k::flux_calc(out, sbox, v[0], v[1], r, dt, dx[i], axis);
        })
    });
    launch_group(patches, ex, "flux-calc", Category::HydroKernel, group.into());
    let ghost = |p: &Patch| ComputeRegion::GhostBox.cell_box(p.cell_box());
    ex.charge_host(patches, Category::HydroKernel, |p| ghost(p).num_cells() * 2, 3, 6);
}

/// Cell advection — standalone (first sweep, `Pass::Full`) or the
/// compute half of the `mid-sweeps` window. Kernel ordinals 1–7, in
/// three launches: the volumes with the revert-save (nothing before the
/// save writes energy1 or density1), the mass flux then the energy flux
/// (which reads the mass flux at its own face only), and the cell
/// energy and density updates (both read the saved density).
///
/// The revert-save (ordinal 5) copies energy1 and density1 into
/// `energy0` / `density0` over the interior, the cells the updates read
/// them at; split, the interior pass saves the core and the boundary
/// pass the frames, so each saved cell holds exactly the value a single
/// pass saves.
pub(crate) fn advec_cell(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dx: &[(f64, f64)],
    dir: usize,
    sweep: usize,
) {
    let mass_flux = if dir == 0 { f.mass_flux_x } else { f.mass_flux_y };
    let vol_flux = if dir == 0 { f.vol_flux_x } else { f.vol_flux_y };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(
            patches,
            &[
                f.density1,
                f.energy1,
                f.density0,
                f.energy0,
                mass_flux,
                vol_flux,
                f.pre_vol,
                f.post_vol,
                f.ener_flux,
            ],
        );
    }
    let ghost = |p: &Patch| ComputeRegion::GhostBox.cell_box(p.cell_box());
    let interior = |p: &Patch| p.cell_box();
    let fluxes = [f.vol_flux_x, f.vol_flux_y];
    let mut volumes = vec![
        kernel(
            "advec-pre-vol",
            [f.pre_vol, f.vol_flux_x, f.vol_flux_y],
            &fluxes,
            (3, 6),
            regions_for(patches, pass, 1, Centring::Cell, ghost),
            |_kk, i, pre, cbox, v, r| k::advec_pre_vol(pre, cbox, v[0], v[1], r, dir, sweep, dx[i]),
        ),
        kernel(
            "advec-post-vol",
            [f.post_vol, f.vol_flux_x, f.vol_flux_y],
            &fluxes,
            (3, 6),
            regions_for(patches, pass, 2, Centring::Cell, ghost),
            |_kk, i, post, cbox, v, r| {
                k::advec_post_vol(post, cbox, v[0], v[1], r, dir, sweep, dx[i]);
            },
        ),
    ];
    let saves = [
        ("revert-save-energy", f.energy0, f.energy1),
        ("revert-save-density", f.density0, f.density1),
    ];
    volumes.extend(saves.map(|(name, dst, src)| {
        let regs = regions_for(patches, pass, 5, Centring::Cell, interior);
        kernel(name, [dst, src], &[], (2, 0), regs, |_kk, _i, d, dbox, v, r| {
            k::copy_field(d, dbox, v[0], r);
        })
    }));
    launch_group(patches, ex, "advec-cell-vol", Category::HydroKernel, volumes);
    let regs = regions_for(patches, pass, 3, Centring::Side(dir), |p| {
        let face = Centring::Side(dir).data_box(p.cell_box().grow(IntVector::uniform(GHOSTS)));
        face.intersect(p.data(mass_flux).data_box())
    });
    let fluxes = vec![
        kernel(
            "advec-mass-flux",
            [mass_flux, vol_flux, f.density1, f.pre_vol],
            &[f.density1, f.pre_vol],
            (4, 20),
            regs,
            |_kk, _i, mf, sbox, v, r| k::advec_mass_flux(mf, sbox, v[0], v[1], v[2], r, dir),
        ),
        kernel(
            "advec-ener-flux",
            [f.ener_flux, mass_flux, f.energy1, f.density1, f.pre_vol],
            &[f.energy1, f.density1, f.pre_vol],
            (5, 20),
            regions_for(patches, pass, 4, Centring::Cell, |p| p.cell_box().grow(IntVector::ONE)),
            |_kk, _i, ef, cbox, v, r| {
                k::advec_ener_flux(ef, cbox, v[0], v[1], v[2], v[3], r, dir);
            },
        ),
    ];
    launch_group(patches, ex, "advec-mass-flux", Category::HydroKernel, fluxes);
    let updates = vec![
        kernel(
            "advec-cell-energy",
            [f.energy1, f.energy0, f.density0, f.pre_vol, mass_flux, f.ener_flux],
            &[mass_flux, f.ener_flux],
            (6, 20),
            regions_for(patches, pass, 6, Centring::Cell, interior),
            |_kk, _i, e1, ebox, v, r| {
                k::advec_cell_energy(e1, ebox, v[0], v[1], v[2], v[3], v[4], r, dir);
            },
        ),
        kernel(
            "advec-cell-density",
            [f.density1, f.density0, f.pre_vol, mass_flux, vol_flux],
            &[mass_flux, vol_flux],
            (5, 15),
            regions_for(patches, pass, 7, Centring::Cell, interior),
            |_kk, _i, r1, rbox, v, r| {
                k::advec_cell_density(r1, rbox, v[0], v[1], v[2], v[3], r, dir);
            },
        ),
    ];
    launch_group(patches, ex, "advec-cell", Category::HydroKernel, updates);
    ex.charge_host(patches, Category::HydroKernel, |p| ghost(p).num_cells() * 6, 8, 40);
}

/// The y-momentum flux's staging array, so the two momentum fluxes of a
/// sweep need not share `mom_flux`.
const MOM_FLUX_Y: Array = Array::Staged("mom-flux-y");

/// Momentum advection — the compute half of the `post-sweep` overlap
/// windows. Kernel ordinals 1–5, in four launches: node flux, post-sweep
/// node mass and both velocity saves (nothing before the saves writes a
/// velocity), the pre-sweep node mass, both momentum fluxes, and both
/// velocity updates. With `then_reset` (the step's second sweep), the
/// last launch also runs the end-of-step [`reset`] once the updates are
/// complete, on the interior or full pass.
///
/// The saves copy the velocities into `xvel0` / `yvel0` over the nodes
/// the updates write, whole at the interior (or full) pass: the
/// concurrent fills never fill a velocity. The x-momentum flux lands in
/// `mom_flux`, the y one in `flux_y`, a staging array per patch the
/// interior pass allocates and the boundary (or full) pass frees.
pub(crate) fn advec_mom(
    patches: &mut [&mut Patch],
    f: &Fields,
    ex: Exec<'_>,
    pass: Pass,
    dir: usize,
    flux_y: &mut Vec<Staged>,
    then_reset: bool,
) {
    let mass_flux = if dir == 0 { f.mass_flux_x } else { f.mass_flux_y };
    if ex.copy_back() && pass != Pass::Boundary {
        roundtrip(
            patches,
            &[
                f.xvel1,
                f.yvel1,
                f.xvel0,
                f.yvel0,
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
    let nodes = |p: &Patch| Centring::Node.data_box(p.cell_box());
    let mut node_group = vec![
        kernel(
            "mom-node-flux",
            [f.node_flux, mass_flux],
            &[mass_flux],
            (2, 4),
            regions_for(patches, pass, 1, Centring::Node, node_region),
            |_kk, _i, nf, nbox, v, r| k::mom_node_flux(nf, nbox, v[0], r, dir),
        ),
        kernel(
            "mom-node-mass-post",
            [f.node_mass_post, f.density1, f.post_vol],
            &[f.density1, f.post_vol],
            (3, 8),
            regions_for(patches, pass, 2, Centring::Node, node_region),
            |_kk, _i, nm, nbox, v, r| k::mom_node_mass_post(nm, nbox, v[0], v[1], r),
        ),
    ];
    if pass != Pass::Boundary {
        let saves = [("mom-save-xvel", f.xvel0, f.xvel1), ("mom-save-yvel", f.yvel0, f.yvel1)];
        node_group.extend(saves.map(|(name, dst, src)| {
            let regs = regions_for(patches, Pass::Full, 1, Centring::Node, nodes);
            kernel(name, [dst, src], &[], (2, 0), regs, |_kk, _i, d, dbox, v, r| {
                k::copy_field(d, dbox, v[0], r);
            })
        }));
        *flux_y = patches
            .iter()
            .map(|p| ex.stage(p.data(f.mom_flux).data_box().num_cells() as usize))
            .collect();
    }
    launch_group(patches, ex, "advec-mom-node", Category::HydroKernel, node_group);
    let pre = kernel(
        "mom-node-mass-pre",
        [f.node_mass_pre, f.node_mass_post, f.node_flux],
        &[f.node_flux],
        (3, 2),
        regions_for(patches, pass, 3, Centring::Node, node_region),
        |_kk, _i, nm, nbox, v, r| k::mom_node_mass_pre(nm, nbox, v[0], v[1], r, dir),
    );
    launch_group(patches, ex, "mom-node-mass-pre", Category::HydroKernel, vec![pre]);
    let (node_flux, node_mass_pre) = (f.node_flux, f.node_mass_pre);
    let regs = regions_for(patches, pass, 4, Centring::Node, node_region);
    let cells = regs.iter().flatten().map(|b| b.num_cells()).sum();
    let staged = &mut *flux_y;
    let stencil = [Array::Field(f.yvel1), Array::Field(node_mass_pre)];
    let fluxes = vec![
        kernel(
            "mom-flux-x",
            [f.mom_flux, f.xvel1, node_flux, node_mass_pre],
            &[f.xvel1, node_mass_pre],
            (4, 25),
            regs.clone(),
            |_kk, _i, mf, nbox, v, r| k::mom_flux(mf, nbox, v[0], v[1], v[2], r, dir),
        ),
        Member::new("mom-flux-y", (Some(MOM_FLUX_Y), &stencil), (cells, 4, 25), move |kk, i, p| {
            let nbox = p.data(f.mom_flux).data_box();
            let vel = view(p.data(f.yvel1), kk);
            let (nf, nm) = (view(p.data(node_flux), kk), view(p.data(node_mass_pre), kk));
            let out = staged[i].as_mut_slice(kk);
            for r in &regs[i] {
                k::mom_flux(out, nbox, vel, nf, nm, *r, dir);
            }
        }),
    ];
    launch_group(patches, ex, "mom-flux", Category::HydroKernel, fluxes);
    let staged = &*flux_y;
    let update_regions = || regions_for(patches, pass, 5, Centring::Node, nodes);
    let mut updates = vec![kernel(
        "mom-vel-update-x",
        [f.xvel1, f.xvel0, f.mom_flux, f.node_mass_pre, f.node_mass_post],
        &[f.mom_flux],
        (5, 10),
        update_regions(),
        |_kk, _i, out, obox, v, r| k::mom_vel_update(out, obox, v[0], v[1], v[2], v[3], r, dir),
    )];
    let mut update_y = kernel(
        "mom-vel-update-y",
        [f.yvel1, f.yvel0, f.node_mass_pre, f.node_mass_post],
        &[],
        (5, 10),
        update_regions(),
        move |kk, i, out, obox, v, r| {
            let flux = k::View::new(staged[i].as_slice(kk), obox);
            k::mom_vel_update(out, obox, v[0], flux, v[1], v[2], r, dir);
        },
    );
    update_y.access.stencil.push(MOM_FLUX_Y);
    updates.push(update_y);
    ex.charge_host(patches, Category::HydroKernel, |p| node_region(p).num_cells() * 7, 7, 30);
    if then_reset && pass != Pass::Interior {
        updates.extend(reset_members(patches, f, ex));
    }
    launch_group(patches, ex, "mom-vel-update", Category::HydroKernel, updates);
    if pass != Pass::Interior {
        flux_y.clear();
    }
}

/// End-of-step field reset: four full-region copies, one launch.
pub(crate) fn reset(patches: &mut [&mut Patch], f: &Fields, ex: Exec<'_>) {
    let copies = reset_members(patches, f, ex);
    launch_group(patches, ex, "reset-field", Category::HydroKernel, copies);
}

fn reset_members<'a>(patches: &mut [&mut Patch], f: &Fields, ex: Exec<'_>) -> Vec<Member<'a>> {
    if ex.copy_back() {
        roundtrip(
            patches,
            &[f.density0, f.energy0, f.xvel0, f.yvel0, f.density1, f.energy1, f.xvel1, f.yvel1],
        );
    }
    ex.charge_host(patches, Category::HydroKernel, |p| p.cell_box().num_cells() * 4, 2, 0);
    let copies = [
        ("reset-density", f.density0, f.density1, Centring::Cell),
        ("reset-energy", f.energy0, f.energy1, Centring::Cell),
        ("reset-xvel", f.xvel0, f.xvel1, Centring::Node),
        ("reset-yvel", f.yvel0, f.yvel1, Centring::Node),
    ];
    Vec::from(copies.map(|(name, dst, src, centring)| {
        let regs = regions_for(patches, Pass::Full, 1, Centring::Cell, |p| {
            centring.data_box(p.cell_box())
        });
        kernel(name, [dst, src], &[], (2, 0), regs, |_kk, _i, d, dbox, v, r| {
            k::copy_field(d, dbox, v[0], r);
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// One launch group as [`launch_group`] saw it: its launch name and
    /// its members' declared accesses.
    type Group = (&'static str, Vec<Access>);

    thread_local! {
        static GROUPS: RefCell<Vec<Group>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn record(name: &'static str, members: &[Member<'_>]) {
        let accesses = members.iter().map(|m| m.access.clone()).collect();
        GROUPS.with(|g| g.borrow_mut().push((name, accesses)));
    }

    /// The pseudo-group marking a barrier between two launches: a fill
    /// window, a sync, or the dt read-back.
    const BARRIER: &str = "barrier";

    fn barrier() {
        GROUPS.with(|g| g.borrow_mut().push((BARRIER, Vec::new())));
    }

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

    /// Fill `var` with one `value()` per element, on either placement.
    fn fill(patch: &mut Patch, var: VariableId, mut value: impl FnMut() -> f64) {
        let data = patch.data_mut(var);
        let image: Vec<f64> = (0..data.data_box().num_cells()).map(|_| value()).collect();
        match data.as_any_mut().downcast_mut::<HostData<f64>>() {
            Some(host) => host.as_mut_slice().copy_from_slice(&image),
            None => dev_mut(data).upload_all(&image, Category::Other),
        }
    }

    /// Patch `index` of `level` over `cell_box`, on `reg`'s placement,
    /// with the same random state in every field for a given seed on
    /// every placement (positive for densities/energies/EOS fields).
    fn random_patch_in(
        reg: &rbamr_amr::VariableRegistry,
        (level, index): (usize, usize),
        cell_box: GBox,
        seed: u64,
    ) -> Patch {
        use rand::{Rng, SeedableRng};
        let id = rbamr_amr::patch::PatchId { level, index };
        let mut patch = Patch::new(id, cell_box, 0, reg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for v in 0..reg.len() {
            let range = if v < 7 { 0.2..2.0 } else { -1.0..1.0 };
            fill(&mut patch, VariableId(v), || rng.gen_range(range.clone()));
        }
        patch
    }

    /// A registry of the hydro fields on `factory`'s placement.
    fn registry(
        factory: std::sync::Arc<dyn rbamr_amr::DataFactory>,
    ) -> (rbamr_amr::VariableRegistry, Fields) {
        let mut reg = rbamr_amr::VariableRegistry::new(factory);
        let f = Fields::register(&mut reg);
        (reg, f)
    }

    /// One random patch of `cells`² cells on `factory`'s placement.
    fn random_patch_on(
        factory: std::sync::Arc<dyn rbamr_amr::DataFactory>,
        seed: u64,
        cells: i64,
    ) -> (Patch, Fields) {
        let (reg, f) = registry(factory);
        (random_patch_in(&reg, (0, 0), GBox::from_coords(0, 0, cells, cells), seed), f)
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
            let device = std::sync::Arc::new(rbamr_gpu_amr::DeviceDataFactory::new(Device::k20x()));
            let (mut dp, _) = random_patch_on(device, i as u64, 12);
            method(&host_ig, &mut hp, &f);
            method(&dev_ig, &mut dp, &f);
            let same = observe(&host_ig, &mut hp, &f) == observe(&dev_ig, &mut dp, &f);
            assert!(same, "method {i}: host and device diverge");
        }
    }

    /// The fusion oracle, and the split itself: on both placements,
    /// every phase run once over every level's patches leaves every
    /// field (and `calc_dt` its minima) bitwise equal to the same phase
    /// run level by level — with one full pass, and in the windowed
    /// phases also with an interior then a boundary pass, which equal
    /// the full pass. The 3-level hierarchy mixes patches too small for
    /// any interior core, 40² ones where deep-margin kernels degrade to
    /// boundary-only, and 64- and 96-wide ones (on 96² every kernel of
    /// every chain has a non-empty core).
    #[test]
    fn one_pass_over_every_level_equals_a_pass_per_level() {
        // A phase's y-momentum flux staging and dt minima, one set per
        // call group.
        type Scratch = (Vec<Staged>, Vec<f64>);
        type Phase = fn(&mut [&mut Patch], &[(f64, f64)], &Fields, Exec<'_>, Pass, &mut Scratch);
        let phases: [(&str, bool, Phase); 8] = [
            ("eos_viscosity", true, |p, dx, f, ex, pass, _| eos_viscosity(p, f, ex, pass, 1.4, dx)),
            ("flux_calc", true, |p, dx, f, ex, pass, _| flux_calc(p, f, ex, pass, dx, 1e-3)),
            ("advec_cell", true, |p, dx, f, ex, pass, _| advec_cell(p, f, ex, pass, dx, 1, 2)),
            ("advec_mom", true, |p, _, f, ex, pass, s| {
                advec_mom(p, f, ex, pass, 0, &mut s.0, false)
            }),
            ("advec_mom_reset", true, |p, _, f, ex, pass, s| {
                advec_mom(p, f, ex, pass, 1, &mut s.0, true);
            }),
            ("calc_dt", false, |p, dx, f, ex, _, s| s.1.extend(calc_dt(p, f, ex, dx, 0.5))),
            ("lagrangian_pre", false, |p, dx, f, ex, _, _| lagrangian_pre(p, f, ex, 1.4, dx, 1e-3)),
            ("reset", false, |p, _, f, ex, _, _| reset(p, f, ex)),
        ];
        // Each level's patch shapes, laid out in a row.
        let shapes: [&[(i64, i64)]; 3] =
            [&[(96, 96), (8, 8)], &[(64, 64), (40, 40), (10, 10)], &[(64, 24), (12, 12)]];
        let dx = |l: usize| (0.05 / f64::from(1 << l), 0.05 / f64::from(1 << l));
        let device = Device::k20x();
        let placements: [(Exec<'_>, std::sync::Arc<dyn rbamr_amr::DataFactory>); 2] = [
            (Exec::Host(None), std::sync::Arc::new(rbamr_amr::HostDataFactory::new())),
            (
                Exec::Device { device: &device, copy_back: false },
                std::sync::Arc::new(rbamr_gpu_amr::DeviceDataFactory::new(device.clone())),
            ),
        ];
        for (ex, factory) in placements {
            let (reg, f) = registry(factory);
            let hierarchy = || -> Vec<Vec<Patch>> {
                let level = |(l, level): (usize, &&[(i64, i64)])| {
                    let mut x0 = 0;
                    let patch = |(i, &(w, h)): (usize, &(i64, i64))| {
                        x0 += w;
                        let cell_box = GBox::from_coords(x0 - w, 0, x0, h);
                        random_patch_in(&reg, (l, i), cell_box, (8 * l + i) as u64)
                    };
                    level.iter().enumerate().map(patch).collect()
                };
                shapes.iter().enumerate().map(level).collect()
            };
            for (name, windowed, phase) in phases {
                let full: &[Pass] = &[Pass::Full];
                let split: &[Pass] = &[Pass::Interior, Pass::Boundary];
                let runs = if windowed { &[full, split][..] } else { &[full] };
                let mut outcomes = Vec::new();
                for (passes, fused) in runs.iter().flat_map(|r| [(r, false), (r, true)]) {
                    let mut levels = hierarchy();
                    let mut groups: Vec<Vec<&mut Patch>> = if fused {
                        vec![levels.iter_mut().flatten().collect()]
                    } else {
                        levels.iter_mut().map(|l| l.iter_mut().collect()).collect()
                    };
                    let mut scratch: Vec<Scratch> =
                        groups.iter().map(|_| Default::default()).collect();
                    for &pass in *passes {
                        for (group, s) in groups.iter_mut().zip(&mut scratch) {
                            let dxs: Vec<_> = group.iter().map(|p| dx(p.id().level)).collect();
                            phase(group, &dxs, &f, ex, pass, s);
                        }
                    }
                    let minima = scratch.iter().flat_map(|s| s.1.iter().map(|m| m.to_bits()));
                    let bits: Vec<_> = levels.iter().flatten().map(field_bits).collect();
                    outcomes.push((minima.collect::<Vec<_>>(), bits));
                }
                for (k, outcome) in outcomes.iter().enumerate() {
                    let (passes, how) = (runs[k / 2], ["per level", "fused"][k % 2]);
                    assert!(*outcome == outcomes[0], "{name}: {passes:?} {how} differs");
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
        let (reg, f) = registry(factory);
        let patches = (0..n).map(|i| {
            let id = rbamr_amr::patch::PatchId { level: 0, index: i };
            let x0 = i as i64 * cells;
            let mut patch = Patch::new(id, GBox::from_coords(x0, 0, x0 + cells, cells), 0, &reg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
            for var in [f.density0, f.energy0] {
                fill(&mut patch, var, || if rough(i) { rng.gen_range(0.2..2.0) } else { 1.0 });
            }
            patch
        });
        (patches.collect(), f)
    }

    /// The tagging pass over a list of patches (a regrid hands it every
    /// tag level's): three launches, two downloads and three
    /// allocations at most, whatever the patch count, and the bitmaps of
    /// the per-patch entry points of both placements.
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
                    let ex = Exec::Device { device: &device, copy_back: false };
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

    /// A step's launches, in order, with their members: 20 groups.
    const STEP: [(&str, &[&str]); 20] = [
        ("ideal-gas-viscosity", &["ideal-gas-pressure", "ideal-gas-soundspeed", "viscosity"]),
        ("calc-dt", &["calc-dt"]),
        (
            "pdv-predict",
            &[
                "pdv-energy",
                "pdv-density",
                "ideal-gas-pressure",
                "ideal-gas-soundspeed",
                "revert-density",
                "revert-energy",
            ],
        ),
        ("accelerate", &["accelerate-x", "accelerate-y"]),
        ("pdv", &["pdv-energy", "pdv-density"]),
        ("flux-calc", &["flux-calc-x", "flux-calc-y"]),
        ("advec-cell-vol", CELL_VOL),
        ("advec-mass-flux", &["advec-mass-flux", "advec-ener-flux"]),
        ("advec-cell", &["advec-cell-energy", "advec-cell-density"]),
        ("advec-mom-node", MOM_NODE),
        ("mom-node-mass-pre", &["mom-node-mass-pre"]),
        ("mom-flux", &["mom-flux-x", "mom-flux-y"]),
        ("mom-vel-update", &["mom-vel-update-x", "mom-vel-update-y"]),
        ("advec-cell-vol", CELL_VOL),
        ("advec-mass-flux", &["advec-mass-flux", "advec-ener-flux"]),
        ("advec-cell", &["advec-cell-energy", "advec-cell-density"]),
        ("advec-mom-node", MOM_NODE),
        ("mom-node-mass-pre", &["mom-node-mass-pre"]),
        ("mom-flux", &["mom-flux-x", "mom-flux-y"]),
        (
            "mom-vel-update",
            &[
                "mom-vel-update-x",
                "mom-vel-update-y",
                "reset-density",
                "reset-energy",
                "reset-xvel",
                "reset-yvel",
            ],
        ),
    ];
    const CELL_VOL: &[&str] =
        &["advec-pre-vol", "advec-post-vol", "revert-save-energy", "revert-save-density"];
    const MOM_NODE: &[&str] =
        &["mom-node-flux", "mom-node-mass-post", "mom-save-xvel", "mom-save-yvel"];

    /// Launch groups in the executor's order, with a [`BARRIER`] where
    /// the step driver puts one: each windowed phase after its fill, the
    /// dt read-back after `calc-dt`, and the sync after the last sweep.
    /// First the windowed phases as interior and boundary passes, then a
    /// whole-pass step — on two levels of one patch each, one 64 × 48
    /// (where the interior passes launch) and one 24².
    fn recorded_groups(
        ex: Exec<'_>,
        factory: std::sync::Arc<dyn rbamr_amr::DataFactory>,
    ) -> Vec<Group> {
        let (reg, f) = registry(factory);
        let boxes = [GBox::from_coords(0, 0, 64, 48), GBox::from_coords(0, 0, 24, 24)];
        let mut levels: Vec<Patch> =
            (0..2).map(|l| random_patch_in(&reg, (l, 0), boxes[l], l as u64)).collect();
        let mut patches: Vec<&mut Patch> = levels.iter_mut().collect();
        let dx = [(0.05, 0.05), (0.025, 0.025)];
        let mut flux_y = Vec::new();
        let mut windows = |p: &mut [&mut Patch], pass: Pass| {
            eos_viscosity(p, &f, ex, pass, 1.4, &dx);
            flux_calc(p, &f, ex, pass, &dx, 1e-3);
            advec_cell(p, &f, ex, pass, &dx, 1, 2);
            advec_mom(p, &f, ex, pass, 0, &mut flux_y, pass == Pass::Boundary);
        };
        GROUPS.with(|g| g.borrow_mut().clear());
        windows(&mut patches, Pass::Interior);
        windows(&mut patches, Pass::Boundary);
        barrier();
        eos_viscosity(&mut patches, &f, ex, Pass::Full, 1.4, &dx);
        calc_dt(&mut patches, &f, ex, &dx, 0.5);
        barrier();
        lagrangian_pre(&mut patches, &f, ex, 1.4, &dx, 1e-3);
        barrier();
        flux_calc(&mut patches, &f, ex, Pass::Full, &dx, 1e-3);
        for (dir, sweep) in [(0, 1), (1, 2)] {
            if sweep == 2 {
                barrier();
            }
            advec_cell(&mut patches, &f, ex, Pass::Full, &dx, dir, sweep);
            barrier();
            advec_mom(&mut patches, &f, ex, Pass::Full, dir, &mut flux_y, sweep == 2);
        }
        barrier();
        GROUPS.with(|g| g.take())
    }

    /// Both placements, the executor's groups of [`recorded_groups`].
    fn groups_on_both_placements() -> Vec<Vec<Group>> {
        let device = Device::k20x();
        let placements: [(Exec<'_>, std::sync::Arc<dyn rbamr_amr::DataFactory>); 2] = [
            (Exec::Host(None), std::sync::Arc::new(rbamr_amr::HostDataFactory::new())),
            (
                Exec::Device { device: &device, copy_back: false },
                std::sync::Arc::new(rbamr_gpu_amr::DeviceDataFactory::new(device.clone())),
            ),
        ];
        placements.into_iter().map(|(ex, factory)| recorded_groups(ex, factory)).collect()
    }

    /// Every launch group obeys the group rule — no member reads at a
    /// neighbour what an earlier member of its launch writes, or
    /// overwrites what an earlier one reads there — so each launch is
    /// one legal data-parallel kernel. A whole-pass step is exactly
    /// [`STEP`] on both placements, and the windowed phases' interior
    /// and boundary passes obey the rule too. Moving `advec-mass-flux`
    /// (a stencil read of `pre_vol`) into `advec-cell-vol` fails here.
    #[test]
    fn every_launch_group_obeys_the_group_rule() {
        for groups in groups_on_both_placements() {
            let launches: Vec<_> = groups.iter().filter(|(n, _)| *n != BARRIER).collect();
            for (name, accesses) in &launches {
                let kernels: Vec<_> = accesses.iter().map(|a| a.kernel).collect();
                let accesses: Vec<&Access> = accesses.iter().collect();
                assert_eq!(group_rule(&accesses), Ok(()), "{name}: {kernels:?}");
            }
            let split = launches.len() - STEP.len();
            let whole: Vec<(&str, Vec<&str>)> = launches[split..]
                .iter()
                .map(|(n, a)| (*n, a.iter().map(|a| a.kernel).collect()))
                .collect();
            let step: Vec<(&str, Vec<&str>)> = STEP.iter().map(|(n, k)| (*n, k.to_vec())).collect();
            assert_eq!(whole, step);
        }
    }

    /// The converse: no two consecutive launches of a whole-pass step
    /// with no barrier between them could run as one under the group
    /// rule, so a group split in two fails here the way an illegal
    /// merge fails above. `calc-dt` stays apart by name: its launch
    /// carries the `Timestep` attribution. Splitting `advec-ener-flux`
    /// back out of `advec-mass-flux` fails here.
    #[test]
    fn no_two_consecutive_launches_could_merge() {
        const APART: &[&str] = &["calc-dt"];
        for groups in groups_on_both_placements() {
            // The whole-pass step: everything after the windowed passes'
            // closing barrier.
            let first = groups.iter().position(|(n, _)| *n == BARRIER).expect("a barrier");
            let step = &groups[first..];
            for pair in step.windows(2) {
                let [(a, first), (b, second)] = pair else { unreachable!() };
                if [a, b].iter().any(|n| **n == BARRIER || APART.contains(n)) {
                    continue;
                }
                let merged: Vec<&Access> = first.iter().chain(second).collect();
                assert!(group_rule(&merged).is_err(), "`{a}` and `{b}` could be one launch");
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
