//! Data-parallel refine and coarsen operators — the paper's `geom`
//! package ("these are, to the best of our knowledge, the first
//! data-parallel implementations for each of these operators").
//!
//! An operator here is a name, a stencil width, a cost and a launch: the
//! arithmetic is the row body of `rbamr_amr::ops::rows` that the host
//! operator of the same name runs, executed as a device kernel — one
//! logical thread per *fine* value for refinement (Figure 5) and one per
//! *coarse* value for coarsening (Figures 7 and 8) — with the
//! stream/event protocol of the Figure 5a host listing around each
//! launch. This module holds job resolution, the launches, their
//! `(arrays touched, flops)` charges and that protocol, and nothing
//! that computes a value.

use crate::data::{device_mut, device_ref, DeviceData};
use rbamr_amr::ops::{each_row, rows, shared_source_box, CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::transfer::{CoarsenJob, RefineJob, TransferCtx};
use rbamr_device::{Device, Event, Stream};
use rbamr_geometry::{BoxList, GBox, IntVector};
use rbamr_perfmodel::{Category, KernelShape};

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
/// streams wait). `row` is the operator's body from
/// `rbamr_amr::ops::rows`; `(arrays_touched, flops_per_elem)` is what
/// one fine value costs.
fn launch_refine(
    jobs: &mut RefineJobs<'_>,
    ratio: IntVector,
    arrays_touched: u32,
    flops_per_elem: u32,
    row: impl Fn(&mut [f64], IntVector, &[f64], GBox, IntVector),
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
    fine_stream.submit();
    device.launch_named(&fine_stream, "refine-interp", category, shape, |k| {
        jobs(&mut |dst, src, fine_boxes| {
            let (sbox, dst_dbox) = (src.data_box(), dst.data_box());
            let src_slice = src.buffer().as_slice(&k);
            each_row(dst.buffer_mut().as_mut_slice(&k), dst_dbox, fine_boxes, |out, at| {
                row(out, at, src_slice, sbox, ratio);
            });
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

/// The `coarsen-project` kernel of operator `op`: as [`launch_refine`]
/// but indexed per *coarse* row (Figures 7/8: one thread per coarse
/// value), with no stream protocol.
///
/// # Panics
/// Panics if the sources of a job differ in layout.
fn launch_coarsen(
    op: &dyn CoarsenOperator,
    jobs: &mut CoarsenJobs<'_>,
    ratio: IntVector,
    arrays_touched: u32,
    flops_per_elem: u32,
    row: impl Fn(&mut [f64], IntVector, &[&[f64]], GBox, IntVector),
) {
    let mut total = 0i64;
    let mut site = None;
    jobs(&mut |dst, srcs, coarse_boxes| {
        total += coarse_boxes.num_cells();
        shared_source_box(op.name(), srcs.iter().map(|s| s.data_box()));
        site.get_or_insert_with(|| launch_site(dst));
    });
    let Some((device, category, stream)) = site.filter(|_| total > 0) else { return };
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    stream.submit();
    device.launch_named(&stream, "coarsen-project", category, shape, |k| {
        jobs(&mut |dst, srcs, coarse_boxes| {
            let (sbox, dst_dbox) = (srcs[0].data_box(), dst.data_box());
            let src_slices: Vec<&[f64]> = srcs.iter().map(|s| s.buffer().as_slice(&k)).collect();
            each_row(dst.buffer_mut().as_mut_slice(&k), dst_dbox, coarse_boxes, |out, at| {
                row(out, at, &src_slices, sbox, ratio);
            });
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

/// Device bilinear node refinement — the kernel of Figure 5b.
pub struct DeviceLinearNodeRefine;

impl DeviceLinearNodeRefine {
    fn launch(&self, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
        launch_refine(jobs, ratio, 2, 10, rows::linear_node);
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
        launch_refine(jobs, ratio, 2, 14, rows::conservative_cell);
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
        launch_refine(jobs, ratio, 2, 2, rows::constant);
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
        launch_refine(jobs, ratio, 2, 6, |out, at, src, sbox, r| {
            rows::linear_side(self.axis, out, at, src, sbox, r);
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
        launch_coarsen(self, jobs, ratio, 2, 1, rows::node_injection);
    }
}

impl CoarsenOperator for DeviceNodeInjectionCoarsen {
    fn name(&self) -> &'static str {
        "device-node-injection-coarsen"
    }

    coarsen_entry_points!();
}

/// Device volume-weighted coarsening — the kernel of Figure 8: one
/// thread per coarse value, each summing its `r_x × r_y` fine covering
/// values weighted by cell volume.
pub struct DeviceVolumeWeightedCoarsen;

impl DeviceVolumeWeightedCoarsen {
    fn launch(&self, jobs: &mut CoarsenJobs<'_>, ratio: IntVector) {
        let flops = (2 * ratio.x * ratio.y + 1) as u32;
        launch_coarsen(self, jobs, ratio, 2, flops, rows::volume_weighted);
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
        let flops = (5 * ratio.x * ratio.y + 2) as u32;
        launch_coarsen(self, jobs, ratio, 3, flops, rows::mass_weighted);
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
    use super::*;
    use rbamr_geometry::Centring;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn refine_batches_boxes_into_one_launch() {
        let device = Device::k20x();
        let dsrc = DeviceData::<f64>::new(&device, b(0, 0, 8, 8), IntVector::ONE, Centring::Cell);
        let mut ddst =
            DeviceData::<f64>::new(&device, b(0, 0, 16, 16), IntVector::ONE, Centring::Cell);
        device.reset_transfer_stats();
        let fill = BoxList::from_boxes([b(0, 0, 4, 4), b(8, 8, 12, 12)]);
        DeviceConservativeCellRefine.refine(&mut ddst, &dsrc, &fill, IntVector::uniform(2));
        assert_eq!(device.stats().kernel_launches, 1);
        // No PCIe traffic: refinement is device-resident.
        assert_eq!(device.stats().h2d_bytes, 0);
        assert_eq!(device.stats().d2h_bytes, 0);
    }
}
