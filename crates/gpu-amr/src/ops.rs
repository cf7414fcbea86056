//! The two inter-level launches — the paper's `geom` package ("these
//! are, to the best of our knowledge, the first data-parallel
//! implementations for each of these operators").
//!
//! The operators themselves are `rbamr_amr::ops`'s: one set, each a
//! name, a stencil, a `fill` over its row body and a cost. This module
//! runs any of them as a device kernel — one logical thread per *fine*
//! value for refinement (Figure 5) and one per *coarse* value for
//! coarsening (Figures 7 and 8) — charging the operator's cost. The
//! stream synchronise, event record and stream wait of the Figure 5a
//! host listing have no counterpart: the simulated device runs launches
//! in program order. [`DeviceData`]'s per-item `refine_from` /
//! `coarsen_from` are a batch of one;
//! [`DeviceDataFactory`](crate::DeviceDataFactory)'s `refine_many` /
//! `coarsen_many` hand a stage's whole job list — every operator's, at
//! every ratio — to one launch. Nothing here computes a value.

use crate::data::DeviceData;
use rbamr_amr::ops::{shared_source_box, CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::PatchData;
use rbamr_geometry::{BoxList, IntVector};
use rbamr_perfmodel::KernelShape;

/// The two operators the frozen `benchmarks/` package imports by their
/// names from before the host and device sets became one.
pub use rbamr_amr::ops::{
    ConservativeCellRefine as DeviceConservativeCellRefine,
    VolumeWeightedCoarsen as DeviceVolumeWeightedCoarsen,
};

/// What a refine launch does with one job: its operator and ratio, the
/// fine destination, the coarse source, the fine fill boxes.
pub(crate) type RefineVisit<'a> = dyn FnMut(&dyn RefineOperator, IntVector, &mut DeviceData<f64>, &DeviceData<f64>, &BoxList)
    + 'a;

/// The jobs of one refine launch: each call walks them in order.
/// [`launch_refine`] walks them once to size the launch and once
/// inside it.
pub(crate) type RefineJobs<'a> = dyn FnMut(&mut RefineVisit<'_>) + 'a;

/// The shape of a launch over jobs of several operators: each job's
/// fill values priced at its operator's cost, bytes and flops summed.
fn add_job(shape: &mut KernelShape, values: i64, (arrays, flops): (u32, u32)) {
    let job = KernelShape::streaming(values, arrays, flops);
    shape.bytes += job.bytes;
    shape.flops += job.flops;
}

/// The `refine-interp` kernel: one launch covering every fill region
/// of every job, whatever its operator and ratio. Each job is one call
/// of its operator's `fill`.
pub(crate) fn launch_refine(jobs: &mut RefineJobs<'_>) {
    let mut shape = KernelShape::default();
    let mut site = None;
    jobs(&mut |op, ratio, dst, _, fills| {
        add_job(&mut shape, fills.num_cells(), op.cost(ratio));
        // The launch runs on the first destination's device (a batch
        // shares one).
        site.get_or_insert_with(|| dst.device().clone());
    });
    let Some(device) = site.filter(|_| shape.bytes > 0.0) else { return };
    device.launch("refine-interp", shape, |k| {
        jobs(&mut |op, ratio, dst, src, fills| {
            let (sbox, dbox) = (src.data_box(), dst.data_box());
            let src = src.buffer().as_slice(&k);
            op.fill(dst.buffer_mut().as_mut_slice(&k), dbox, fills, src, sbox, ratio);
        });
    });
}

/// As [`RefineVisit`], for a coarsen: the operator and ratio, the
/// coarse destination, the fine variable, the operator's fine
/// auxiliaries, the coarse fill boxes.
pub(crate) type CoarsenVisit<'a> = dyn for<'s> FnMut(
        &dyn CoarsenOperator,
        IntVector,
        &mut DeviceData<f64>,
        &'s DeviceData<f64>,
        &mut dyn Iterator<Item = &'s DeviceData<f64>>,
        &BoxList,
    ) + 'a;

/// The jobs of one coarsen launch: each call walks them in order.
pub(crate) type CoarsenJobs<'a> = dyn FnMut(&mut CoarsenVisit<'_>) + 'a;

/// The `coarsen-project` kernel: as [`launch_refine`] but indexed per
/// *coarse* row (Figures 7/8: one thread per coarse value).
///
/// # Panics
/// Panics, before launching, as [`shared_source_box`] for the sources
/// of any job.
pub(crate) fn launch_coarsen(jobs: &mut CoarsenJobs<'_>) {
    let mut shape = KernelShape::default();
    let mut site = None;
    jobs(&mut |op, ratio, dst, src, aux, fills| {
        add_job(&mut shape, fills.num_cells(), op.cost(ratio));
        shared_source_box(op, std::iter::once(src).chain(aux).map(|s| s.data_box()));
        site.get_or_insert_with(|| dst.device().clone());
    });
    let Some(device) = site.filter(|_| shape.bytes > 0.0) else { return };
    device.launch("coarsen-project", shape, |k| {
        jobs(&mut |op, ratio, dst, src, aux, fills| {
            let (sbox, dbox) = (src.data_box(), dst.data_box());
            let srcs: Vec<&[f64]> =
                std::iter::once(src).chain(aux).map(|s| s.buffer().as_slice(&k)).collect();
            op.fill(dst.buffer_mut().as_mut_slice(&k), dbox, fills, &srcs, sbox, ratio);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_amr::ops::ConservativeCellRefine;
    use rbamr_device::Device;
    use rbamr_geometry::{Centring, GBox};

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
        ConservativeCellRefine.refine(&mut ddst, &dsrc, &fill, IntVector::uniform(2));
        assert_eq!(device.stats().kernel_launches, 1);
        // No PCIe traffic: refinement is device-resident.
        assert_eq!(device.stats().h2d_bytes, 0);
        assert_eq!(device.stats().d2h_bytes, 0);
    }
}
