//! Data-parallel refine and coarsen operators — the paper's `geom`
//! package ("these are, to the best of our knowledge, the first
//! data-parallel implementations for each of these operators").
//!
//! Each operator mirrors its host reference in `rbamr_amr::ops` exactly
//! (the test suite checks bit-identical agreement on random data) but
//! executes as device kernels: one logical thread per *fine* value for
//! refinement (Figure 5) and one per *coarse* value for coarsening
//! (Figures 7 and 8), with the stream/event protocol of the Figure 5a
//! host listing around each launch.

use crate::data::{device_mut, device_ref, DeviceData};
use rayon::prelude::*;
use rbamr_amr::ops::{CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::transfer::{CoarsenJob, RefineJob, TransferCtx};
use rbamr_device::{Device, Event, Stream};
use rbamr_geometry::{BoxList, GBox, IntVector};
use rbamr_perfmodel::{Category, KernelShape};

#[inline]
fn clamp_to(b: GBox, p: IntVector) -> IntVector {
    IntVector::new(p.x.clamp(b.lo.x, b.hi.x - 1), p.y.clamp(b.lo.y, b.hi.y - 1))
}

/// The value of `src` (row-major over `sbox`) at `p` clamped into
/// `sbox`: one-sided stencils at the edge of available source data.
#[inline]
fn clamped(src: &[f64], sbox: GBox, p: IntVector) -> f64 {
    let q = clamp_to(sbox, p);
    src[((q.y - sbox.lo.y) * sbox.size().x + (q.x - sbox.lo.x)) as usize]
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// What a refine launch does with one job: the fine destination, the
/// coarse source, the fine fill boxes.
type RefineVisit<'a> = dyn FnMut(&mut DeviceData<f64>, &DeviceData<f64>, &BoxList) + 'a;

/// The jobs of one refine launch: each call walks them in order.
/// [`launch_refine`] walks them once to size the launch, once inside
/// it, and once for the stream protocol after it.
type RefineJobs<'a> = dyn FnMut(&mut RefineVisit<'_>) + 'a;

/// The jobs of one operator in one fill, resolved through `ctx`.
fn each_refine(
    ctx: &mut TransferCtx<'_>,
    level: usize,
    jobs: &[RefineJob],
    category: Category,
    visit: &mut RefineVisit<'_>,
) {
    for j in jobs {
        let fine = &mut ctx.hierarchy.level_mut(level).local_mut()[j.pos as usize];
        let dst = fine.data_mut(j.var);
        dst.set_transfer_category(category);
        let src = ctx.scratch[j.scratch as usize].as_ref();
        visit(device_mut(dst), device_ref(src), &j.fill);
    }
}

/// Where a fused launch runs and what it charges: the first job's
/// destination decides (a batch shares one device and one category).
fn launch_site(dst: &DeviceData<f64>) -> (Device, Category, Stream) {
    (dst.device().clone(), dst.category(), dst.stream().clone())
}

/// The `refine-interp` kernel: one launch covering every fill region of
/// every job, wrapped in the Figure 5a protocol (synchronise the coarse
/// streams, launch on the fine stream, record an event, make the coarse
/// streams wait).
///
/// `row(dst_row, y, (x0, x1), src, src_box, dst_x0)` computes one row
/// of fine values of one job; rows are independent, as in the
/// one-thread-per-node CUDA kernel.
fn launch_refine(
    jobs: &mut RefineJobs<'_>,
    arrays_touched: u32,
    flops_per_elem: u32,
    row: impl Fn(&mut [f64], i64, (i64, i64), &[f64], GBox, i64) + Sync + Send,
) {
    let mut total = 0i64;
    let mut site = None;
    jobs(&mut |dst, src, fine_boxes| {
        total += fine_boxes.num_cells();
        src.stream().synchronize();
        site.get_or_insert_with(|| launch_site(dst));
    });
    let Some((device, category, fine_stream)) = site.filter(|_| total > 0) else { return };
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    let _cfg = rbamr_device::LaunchConfig::for_elements(total as usize);
    fine_stream.submit();
    device.launch_named(&fine_stream, "refine-interp", category, shape, |k| {
        jobs(&mut |dst, src, fine_boxes| {
            let (sbox, dst_dbox) = (src.data_box(), dst.data_box());
            let dst_w = dst_dbox.size().x as usize;
            let src_slice = src.buffer().as_slice(&k);
            let dst_slice = dst.buffer_mut().as_mut_slice(&k);
            for fill in fine_boxes.boxes() {
                debug_assert!(dst_dbox.contains_box(*fill), "refine fill escapes dst");
                let first_row = (fill.lo.y - dst_dbox.lo.y) as usize;
                let n_rows = fill.size().y as usize;
                dst_slice.par_chunks_mut(dst_w).skip(first_row).take(n_rows).enumerate().for_each(
                    |(r, dst_row)| {
                        let y = fill.lo.y + r as i64;
                        row(dst_row, y, (fill.lo.x, fill.hi.x), src_slice, sbox, dst_dbox.lo.x);
                    },
                );
            }
        });
    });
    let event = Event::new(&device);
    event.record(&fine_stream);
    jobs(&mut |_, src, _| src.stream().wait_event(&event));
}

/// As [`RefineVisit`], with the fine sources (the variable, then the
/// operator's auxiliaries) as a list.
type CoarsenVisit<'a> = dyn FnMut(&mut DeviceData<f64>, &[&DeviceData<f64>], &BoxList) + 'a;

/// The jobs of one coarsen launch: each call walks them in order.
type CoarsenJobs<'a> = dyn FnMut(&mut CoarsenVisit<'_>) + 'a;

/// The jobs of one operator in one synchronisation, resolved through
/// `ctx`.
fn each_coarsen(
    ctx: &mut TransferCtx<'_>,
    fine_level: usize,
    jobs: &[CoarsenJob],
    visit: &mut CoarsenVisit<'_>,
) {
    for j in jobs {
        let fine = &ctx.hierarchy.level(fine_level).local()[j.pos as usize];
        let srcs: Vec<&DeviceData<f64>> = std::iter::once(j.var)
            .chain(j.aux.iter().copied())
            .map(|v| device_ref(fine.data(v)))
            .collect();
        visit(device_mut(ctx.scratch[j.scratch as usize].as_mut()), &srcs, &j.fill);
    }
}

/// The `coarsen-project` kernel: as [`launch_refine`] but indexed per
/// *coarse* row (Figures 7/8: one thread per coarse value). Every
/// source of a job shares the layout `src_box`.
fn launch_coarsen(
    jobs: &mut CoarsenJobs<'_>,
    arrays_touched: u32,
    flops_per_elem: u32,
    row: impl Fn(&mut [f64], i64, (i64, i64), &[&[f64]], GBox, i64) + Sync + Send,
) {
    let mut total = 0i64;
    let mut site = None;
    jobs(&mut |dst, srcs, coarse_boxes| {
        total += coarse_boxes.num_cells();
        assert!(
            srcs.iter().all(|s| s.data_box() == srcs[0].data_box()),
            "coarsen sources differ in layout"
        );
        site.get_or_insert_with(|| launch_site(dst));
    });
    let Some((device, category, stream)) = site.filter(|_| total > 0) else { return };
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    stream.submit();
    device.launch_named(&stream, "coarsen-project", category, shape, |k| {
        jobs(&mut |dst, srcs, coarse_boxes| {
            let (sbox, dst_dbox) = (srcs[0].data_box(), dst.data_box());
            let dst_w = dst_dbox.size().x as usize;
            let src_slices: Vec<&[f64]> = srcs.iter().map(|s| s.buffer().as_slice(&k)).collect();
            let dst_slice = dst.buffer_mut().as_mut_slice(&k);
            for fill in coarse_boxes.boxes() {
                debug_assert!(dst_dbox.contains_box(*fill), "coarsen fill escapes dst");
                let first_row = (fill.lo.y - dst_dbox.lo.y) as usize;
                let n_rows = fill.size().y as usize;
                dst_slice.par_chunks_mut(dst_w).skip(first_row).take(n_rows).enumerate().for_each(
                    |(r, dst_row)| {
                        let y = fill.lo.y + r as i64;
                        row(dst_row, y, (fill.lo.x, fill.hi.x), &src_slices, sbox, dst_dbox.lo.x);
                    },
                );
            }
        });
    });
}

/// Both [`RefineOperator`] entry points in terms of the operator's one
/// `launch`: the per-item call is a batch of one.
macro_rules! refine_entry_points {
    () => {
        fn refine(
            &self,
            dst: &mut dyn PatchData,
            src: &dyn PatchData,
            fine_boxes: &BoxList,
            ratio: IntVector,
        ) {
            let (dst, src) = (device_mut(dst), device_ref(src));
            self.launch(&mut |visit| visit(dst, src, fine_boxes), ratio);
        }

        fn refine_many(
            &self,
            ctx: &mut TransferCtx<'_>,
            level: usize,
            jobs: &[RefineJob],
            ratio: IntVector,
            category: Category,
        ) {
            self.launch(&mut |visit| each_refine(ctx, level, jobs, category, visit), ratio);
        }
    };
}

/// Both [`CoarsenOperator`] entry points in terms of the operator's one
/// `launch`.
macro_rules! coarsen_entry_points {
    () => {
        fn coarsen(
            &self,
            dst: &mut dyn PatchData,
            src: &dyn PatchData,
            aux: &[&dyn PatchData],
            coarse_boxes: &BoxList,
            ratio: IntVector,
        ) {
            assert_eq!(aux.len(), self.num_aux(), "{}: wrong auxiliary data", self.name());
            let dst = device_mut(dst);
            let srcs: Vec<&DeviceData<f64>> =
                std::iter::once(src).chain(aux.iter().copied()).map(device_ref).collect();
            self.launch(&mut |visit| visit(dst, &srcs, coarse_boxes), ratio);
        }

        fn coarsen_many(
            &self,
            ctx: &mut TransferCtx<'_>,
            fine_level: usize,
            jobs: &[CoarsenJob],
            ratio: IntVector,
        ) {
            assert!(
                jobs.iter().all(|j| j.aux.len() == self.num_aux()),
                "{}: wrong auxiliary data",
                self.name()
            );
            self.launch(&mut |visit| each_coarsen(ctx, fine_level, jobs, visit), ratio);
        }
    };
}

/// Device bilinear node refinement — the exact kernel of Figure 5b.
pub struct DeviceLinearNodeRefine;

impl DeviceLinearNodeRefine {
    fn launch(&self, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
        let (rx, ry) = (ratio.x, ratio.y);
        let (realrat0, realrat1) = (1.0 / rx as f64, 1.0 / ry as f64);
        launch_refine(jobs, 2, 10, move |row, y, (x0, x1), src, sbox, dst_x0| {
            // Figure 5b, one thread per fine node along the row.
            let ic1 = y.div_euclid(ry);
            let ir1 = y - ic1 * ry;
            let yy = ir1 as f64 * realrat1;
            for x in x0..x1 {
                let ic0 = x.div_euclid(rx);
                let ir0 = x - ic0 * rx;
                let xx = ir0 as f64 * realrat0;
                let c = |i: i64, j: i64| clamped(src, sbox, IntVector::new(i, j));
                let v = (c(ic0, ic1) * (1.0 - xx) + c(ic0 + 1, ic1) * xx) * (1.0 - yy)
                    + (c(ic0, ic1 + 1) * (1.0 - xx) + c(ic0 + 1, ic1 + 1) * xx) * yy;
                row[(x - dst_x0) as usize] = v;
            }
        });
    }
}

impl RefineOperator for DeviceLinearNodeRefine {
    fn name(&self) -> &'static str {
        "device-linear-node-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    refine_entry_points!();
}

/// Device conservative linear cell refinement.
pub struct DeviceConservativeCellRefine;

impl DeviceConservativeCellRefine {
    fn launch(&self, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
        let (rx, ry) = (ratio.x, ratio.y);
        launch_refine(jobs, 2, 14, move |row, y, (x0, x1), src, sbox, dst_x0| {
            let icy = y.div_euclid(ry);
            let eta = ((y - icy * ry) as f64 + 0.5) / ry as f64 - 0.5;
            for x in x0..x1 {
                let icx = x.div_euclid(rx);
                let c = |i: i64, j: i64| clamped(src, sbox, IntVector::new(i, j));
                let v0 = c(icx, icy);
                let sx = minmod(v0 - c(icx - 1, icy), c(icx + 1, icy) - v0);
                let sy = minmod(v0 - c(icx, icy - 1), c(icx, icy + 1) - v0);
                let xi = ((x - icx * rx) as f64 + 0.5) / rx as f64 - 0.5;
                row[(x - dst_x0) as usize] = v0 + sx * xi + sy * eta;
            }
        });
    }
}

impl RefineOperator for DeviceConservativeCellRefine {
    fn name(&self) -> &'static str {
        "device-conservative-linear-cell-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    refine_entry_points!();
}

/// Device piecewise-constant refinement.
pub struct DeviceConstantRefine;

impl DeviceConstantRefine {
    fn launch(&self, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
        launch_refine(jobs, 2, 2, move |row, y, (x0, x1), src, sbox, dst_x0| {
            let icy = y.div_euclid(ratio.y);
            for x in x0..x1 {
                let ic = IntVector::new(x.div_euclid(ratio.x), icy);
                row[(x - dst_x0) as usize] = clamped(src, sbox, ic);
            }
        });
    }
}

impl RefineOperator for DeviceConstantRefine {
    fn name(&self) -> &'static str {
        "device-constant-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ZERO
    }

    refine_entry_points!();
}

/// Device linear side refinement (normal-axis interpolation).
pub struct DeviceLinearSideRefine {
    /// The face-normal axis of the data this operator serves.
    pub axis: usize,
}

impl DeviceLinearSideRefine {
    fn launch(&self, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
        let axis = self.axis;
        let r_n = ratio.get(axis);
        launch_refine(jobs, 2, 6, move |row, y, (x0, x1), src, sbox, dst_x0| {
            for x in x0..x1 {
                let p = IntVector::new(x, y);
                let ic = p.div_floor(ratio);
                let irn = p.get(axis) - ic.get(axis) * r_n;
                let t = irn as f64 / r_n as f64;
                row[(x - dst_x0) as usize] = clamped(src, sbox, ic) * (1.0 - t)
                    + clamped(src, sbox, ic + IntVector::unit(axis)) * t;
            }
        });
    }
}

impl RefineOperator for DeviceLinearSideRefine {
    fn name(&self) -> &'static str {
        "device-linear-side-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    refine_entry_points!();
}

/// Device node-injection coarsening.
pub struct DeviceNodeInjectionCoarsen;

impl DeviceNodeInjectionCoarsen {
    fn launch(&self, jobs: &mut CoarsenJobs<'_>, ratio: IntVector) {
        launch_coarsen(jobs, 2, 1, move |row, y, (x0, x1), srcs, sbox, dst_x0| {
            let (s, sw) = (srcs[0], sbox.size().x);
            let fy = y * ratio.y;
            for x in x0..x1 {
                let fx = x * ratio.x;
                row[(x - dst_x0) as usize] = s[((fy - sbox.lo.y) * sw + (fx - sbox.lo.x)) as usize];
            }
        });
    }
}

impl CoarsenOperator for DeviceNodeInjectionCoarsen {
    fn name(&self) -> &'static str {
        "device-node-injection-coarsen"
    }

    coarsen_entry_points!();
}

/// Device volume-weighted coarsening — the exact kernel of Figure 8:
/// one thread per coarse value, each summing its `r_x × r_y` fine
/// covering values weighted by cell volume.
pub struct DeviceVolumeWeightedCoarsen;

impl DeviceVolumeWeightedCoarsen {
    fn launch(&self, jobs: &mut CoarsenJobs<'_>, ratio: IntVector) {
        let vf = 1.0;
        let vc = (ratio.x * ratio.y) as f64 * vf;
        let flops = (2 * ratio.x * ratio.y + 1) as u32;
        launch_coarsen(jobs, 2, flops, move |row, y, (x0, x1), srcs, sbox, dst_x0| {
            // Figure 8, row-sliced: spv accumulates fine_data * Vf.
            let (s, sw) = (srcs[0], sbox.size().x);
            for x in x0..x1 {
                let f0 = IntVector::new(x * ratio.x, y * ratio.y);
                let mut spv = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        let q = f0 + IntVector::new(i, j);
                        spv += s[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize] * vf;
                    }
                }
                row[(x - dst_x0) as usize] = spv / vc;
            }
        });
    }
}

impl CoarsenOperator for DeviceVolumeWeightedCoarsen {
    fn name(&self) -> &'static str {
        "device-volume-weighted-coarsen"
    }

    coarsen_entry_points!();
}

/// Device mass-weighted coarsening: weights each fine value by its cell
/// mass (density × volume), conserving `Σ ρ e V` across levels.
pub struct DeviceMassWeightedCoarsen;

impl DeviceMassWeightedCoarsen {
    fn launch(&self, jobs: &mut CoarsenJobs<'_>, ratio: IntVector) {
        let n = (ratio.x * ratio.y) as f64;
        let flops = (5 * ratio.x * ratio.y + 2) as u32;
        launch_coarsen(jobs, 3, flops, move |row, y, (x0, x1), srcs, sbox, dst_x0| {
            let (s, m, sw) = (srcs[0], srcs[1], sbox.size().x);
            for x in x0..x1 {
                let f0 = IntVector::new(x * ratio.x, y * ratio.y);
                let mut mass = 0.0;
                let mut weighted = 0.0;
                let mut plain = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        let q = f0 + IntVector::new(i, j);
                        let idx = ((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize;
                        mass += m[idx];
                        weighted += s[idx] * m[idx];
                        plain += s[idx];
                    }
                }
                row[(x - dst_x0) as usize] = if mass > 0.0 { weighted / mass } else { plain / n };
            }
        });
    }
}

impl CoarsenOperator for DeviceMassWeightedCoarsen {
    fn name(&self) -> &'static str {
        "device-mass-weighted-coarsen"
    }

    fn num_aux(&self) -> usize {
        1
    }

    coarsen_entry_points!();
}

#[cfg(test)]
mod tests {
    //! Every device operator must agree exactly with its host reference
    //! on random data — the correctness contract of the reproduction.

    use super::*;
    use rand::{Rng, SeedableRng};
    use rbamr_amr::ops as host_ops;
    use rbamr_amr::HostData;
    use rbamr_device::Device;
    use rbamr_geometry::Centring;
    use rbamr_perfmodel::Category;

    const R2: IntVector = IntVector::uniform(2);
    const R4: IntVector = IntVector::uniform(4);

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    /// Build matching host and device data with identical random values.
    fn random_pair(
        device: &Device,
        cell_box: GBox,
        ghosts: IntVector,
        centring: Centring,
        seed: u64,
    ) -> (HostData<f64>, DeviceData<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = HostData::<f64>::new(cell_box, ghosts, centring);
        for v in h.as_mut_slice() {
            *v = rng.gen_range(-10.0..10.0);
        }
        let mut d = DeviceData::<f64>::new(device, cell_box, ghosts, centring);
        d.upload_all(h.as_slice(), Category::Other);
        (h, d)
    }

    fn assert_matches(h: &HostData<f64>, d: &DeviceData<f64>) {
        let dev_vals = d.download_all(Category::Other);
        for (i, (a, b)) in h.as_slice().iter().zip(&dev_vals).enumerate() {
            assert_eq!(a, b, "device/host mismatch at linear index {i}");
        }
    }

    fn check_refine(
        host_op: &dyn RefineOperator,
        dev_op: &dyn RefineOperator,
        centring: Centring,
        ratio: IntVector,
        seed: u64,
    ) {
        let device = Device::k20x();
        let coarse_box = b(0, 0, 10, 8);
        let fine_box = coarse_box.refine(ratio);
        let (hsrc, dsrc) = random_pair(&device, coarse_box, IntVector::ONE, centring, seed);
        let (mut hdst, mut ddst) =
            random_pair(&device, fine_box, IntVector::uniform(2), centring, seed + 1);
        // Fill region: the fine interior data box plus part of the ghosts.
        let fill = BoxList::from_box(centring.data_box(fine_box.grow(IntVector::ONE)));
        host_op.refine(&mut hdst, &hsrc, &fill, ratio);
        dev_op.refine(&mut ddst, &dsrc, &fill, ratio);
        assert_matches(&hdst, &ddst);
    }

    #[test]
    fn node_refine_matches_host() {
        check_refine(&host_ops::LinearNodeRefine, &DeviceLinearNodeRefine, Centring::Node, R2, 7);
        check_refine(&host_ops::LinearNodeRefine, &DeviceLinearNodeRefine, Centring::Node, R4, 8);
    }

    #[test]
    fn cell_refine_matches_host() {
        check_refine(
            &host_ops::ConservativeCellRefine,
            &DeviceConservativeCellRefine,
            Centring::Cell,
            R2,
            17,
        );
        check_refine(
            &host_ops::ConservativeCellRefine,
            &DeviceConservativeCellRefine,
            Centring::Cell,
            R4,
            18,
        );
    }

    #[test]
    fn constant_refine_matches_host() {
        check_refine(&host_ops::ConstantRefine, &DeviceConstantRefine, Centring::Cell, R2, 27);
    }

    #[test]
    fn side_refine_matches_host() {
        for axis in 0..2 {
            check_refine(
                &host_ops::LinearSideRefine { axis },
                &DeviceLinearSideRefine { axis },
                Centring::Side(axis),
                R2,
                37 + axis as u64,
            );
        }
    }

    fn check_coarsen(
        host_op: &dyn CoarsenOperator,
        dev_op: &dyn CoarsenOperator,
        centring: Centring,
        ratio: IntVector,
        with_density: bool,
        seed: u64,
    ) {
        let device = Device::k20x();
        let coarse_box = b(0, 0, 6, 5);
        let fine_box = coarse_box.refine(ratio);
        let (hsrc, dsrc) = random_pair(&device, fine_box, IntVector::ZERO, centring, seed);
        let (hrho, drho) = random_pair(&device, fine_box, IntVector::ZERO, centring, seed + 5);
        let (mut hdst, mut ddst) =
            random_pair(&device, coarse_box, IntVector::ZERO, centring, seed + 9);
        let fill = BoxList::from_box(centring.data_box(coarse_box));
        let haux: Vec<&dyn PatchData> = if with_density { vec![&hrho] } else { vec![] };
        let daux: Vec<&dyn PatchData> = if with_density { vec![&drho] } else { vec![] };
        host_op.coarsen(&mut hdst, &hsrc, &haux, &fill, ratio);
        dev_op.coarsen(&mut ddst, &dsrc, &daux, &fill, ratio);
        assert_matches(&hdst, &ddst);
    }

    #[test]
    fn volume_weighted_matches_host() {
        check_coarsen(
            &host_ops::VolumeWeightedCoarsen,
            &DeviceVolumeWeightedCoarsen,
            Centring::Cell,
            R2,
            false,
            47,
        );
        check_coarsen(
            &host_ops::VolumeWeightedCoarsen,
            &DeviceVolumeWeightedCoarsen,
            Centring::Cell,
            R4,
            false,
            48,
        );
    }

    #[test]
    fn mass_weighted_matches_host() {
        check_coarsen(
            &host_ops::MassWeightedCoarsen,
            &DeviceMassWeightedCoarsen,
            Centring::Cell,
            R2,
            true,
            57,
        );
    }

    #[test]
    fn node_injection_matches_host() {
        check_coarsen(
            &host_ops::NodeInjectionCoarsen,
            &DeviceNodeInjectionCoarsen,
            Centring::Node,
            R2,
            false,
            67,
        );
    }

    #[test]
    fn refine_batches_boxes_into_one_launch() {
        let device = Device::k20x();
        let (_, dsrc) = random_pair(&device, b(0, 0, 8, 8), IntVector::ONE, Centring::Cell, 1);
        let (_, mut ddst) =
            random_pair(&device, b(0, 0, 16, 16), IntVector::ONE, Centring::Cell, 2);
        device.reset_transfer_stats();
        let fill = BoxList::from_boxes([b(0, 0, 4, 4), b(8, 8, 12, 12)]);
        DeviceConservativeCellRefine.refine(&mut ddst, &dsrc, &fill, R2);
        assert_eq!(device.stats().kernel_launches, 1);
        // No PCIe traffic: refinement is device-resident.
        assert_eq!(device.stats().h2d_bytes, 0);
        assert_eq!(device.stats().d2h_bytes, 0);
    }
}
