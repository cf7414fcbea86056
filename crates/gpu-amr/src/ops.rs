//! The two inter-level launches — the paper's `geom` package ("these
//! are, to the best of our knowledge, the first data-parallel
//! implementations for each of these operators").
//!
//! The operators themselves are `rbamr_amr::ops`'s: one set, each a
//! name, a stencil, a `fill` over its row body and a cost. This module
//! runs any of them as a device kernel — one logical thread per *fine*
//! value for refinement (Figure 5) and one per *coarse* value for
//! coarsening (Figures 7 and 8) — charging the operator's cost, with the
//! stream/event protocol of the Figure 5a host listing around the
//! refine launch. [`DeviceData`]'s per-item `refine_from` /
//! `coarsen_from` are a batch of one;
//! [`DeviceDataFactory`](crate::DeviceDataFactory)'s `refine_many` /
//! `coarsen_many` hand a stage's whole job list to one launch. Nothing
//! here computes a value.

use crate::data::DeviceData;
use rbamr_amr::ops::{shared_source_box, CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::PatchData;
use rbamr_device::{Device, Event, Stream};
use rbamr_geometry::{BoxList, IntVector};
use rbamr_perfmodel::{Category, KernelShape};

/// The two operators the frozen `benchmarks/` package imports by their
/// names from before the host and device sets became one.
pub use rbamr_amr::ops::{
    ConservativeCellRefine as DeviceConservativeCellRefine,
    VolumeWeightedCoarsen as DeviceVolumeWeightedCoarsen,
};

/// What a refine launch does with one job: the fine destination, the
/// coarse source, the fine fill boxes.
pub(crate) type RefineVisit<'a> = dyn FnMut(&mut DeviceData<f64>, &DeviceData<f64>, &BoxList) + 'a;

/// The jobs of one refine launch: each call walks them in order.
/// [`launch_refine`] walks them once to size the launch, once inside
/// it, and once for the stream protocol after it.
pub(crate) type RefineJobs<'a> = dyn FnMut(&mut RefineVisit<'_>) + 'a;

/// Where a fused launch runs and what it charges: the first job's
/// destination decides (a batch shares one device and one category).
fn launch_site(dst: &DeviceData<f64>) -> (Device, Category, Stream) {
    (dst.device().clone(), dst.category(), dst.stream().clone())
}

/// The `refine-interp` kernel of operator `op`: one launch covering
/// every fill region of every job, wrapped in the Figure 5a protocol
/// (synchronise the coarse streams, launch on the fine stream, record an
/// event, make the coarse streams wait). Each job is one call of
/// `op.fill`.
pub(crate) fn launch_refine(op: &dyn RefineOperator, jobs: &mut RefineJobs<'_>, ratio: IntVector) {
    let mut total = 0i64;
    let mut site = None;
    jobs(&mut |dst, src, fills| {
        total += fills.num_cells();
        src.stream().synchronize();
        site.get_or_insert_with(|| launch_site(dst));
    });
    let Some((device, category, fine_stream)) = site.filter(|_| total > 0) else { return };
    let (arrays_touched, flops_per_elem) = op.cost(ratio);
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    fine_stream.submit();
    device.launch_named(&fine_stream, "refine-interp", category, shape, |k| {
        jobs(&mut |dst, src, fills| {
            let (sbox, dbox) = (src.data_box(), dst.data_box());
            let src = src.buffer().as_slice(&k);
            op.fill(dst.buffer_mut().as_mut_slice(&k), dbox, fills, src, sbox, ratio);
        });
    });
    let event = Event::new(&device);
    event.record(&fine_stream);
    jobs(&mut |_, src, _| src.stream().wait_event(&event));
}

/// As [`RefineVisit`], for a coarsen: the coarse destination, the fine
/// variable, the operator's fine auxiliaries, the coarse fill boxes.
pub(crate) type CoarsenVisit<'a> = dyn for<'s> FnMut(
        &mut DeviceData<f64>,
        &'s DeviceData<f64>,
        &mut dyn Iterator<Item = &'s DeviceData<f64>>,
        &BoxList,
    ) + 'a;

/// The jobs of one coarsen launch: each call walks them in order.
pub(crate) type CoarsenJobs<'a> = dyn FnMut(&mut CoarsenVisit<'_>) + 'a;

/// The `coarsen-project` kernel of operator `op`: as [`launch_refine`]
/// but indexed per *coarse* row (Figures 7/8: one thread per coarse
/// value), with no stream protocol.
///
/// # Panics
/// Panics, before launching, as [`shared_source_box`] for the sources
/// of any job.
pub(crate) fn launch_coarsen(
    op: &dyn CoarsenOperator,
    jobs: &mut CoarsenJobs<'_>,
    ratio: IntVector,
) {
    let mut total = 0i64;
    let mut site = None;
    jobs(&mut |dst, src, aux, fills| {
        total += fills.num_cells();
        shared_source_box(op, std::iter::once(src).chain(aux).map(|s| s.data_box()));
        site.get_or_insert_with(|| launch_site(dst));
    });
    let Some((device, category, stream)) = site.filter(|_| total > 0) else { return };
    let (arrays_touched, flops_per_elem) = op.cost(ratio);
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    stream.submit();
    device.launch_named(&stream, "coarsen-project", category, shape, |k| {
        jobs(&mut |dst, src, aux, fills| {
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
