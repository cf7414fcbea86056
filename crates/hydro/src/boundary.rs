//! Reflective physical boundaries (the CloverLeaf condition).
//!
//! Ghost values outside the domain mirror the interior; velocity
//! components normal to a wall (and fluxes through it) flip sign. Cell
//! quantities mirror evenly. The fill is index-precomputed on the host
//! (pure box arithmetic, no data) and applied either directly to host
//! data or as a device kernel — ghost filling never moves field data
//! across the PCIe bus. A fill window's boundary stage is one call
//! ([`PhysicalBoundary::fill_many`]): each schedule's index lists are
//! worked out at its first fill and kept with it, and on the device
//! every level, patch and variable of the window shares one launch.

use crate::state::Fields;
use rbamr_amr::{
    BoundaryFill, HostData, Patch, PatchData, PatchHierarchy, PhysicalBoundary, PhysicalPlan,
    VariableId,
};
use rbamr_device::{Device, Stream};
use rbamr_geometry::{BoxList, Centring, GBox};
use rbamr_gpu_amr::DeviceData;
use rbamr_perfmodel::{Category, KernelShape};

/// Per-variable mirror parity: whether the value flips sign when
/// reflected across an x- or y-facing wall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parity {
    /// Sign flip across x-min/x-max walls.
    pub odd_x: bool,
    /// Sign flip across y-min/y-max walls.
    pub odd_y: bool,
}

/// Reflective boundary for the hydro field set.
pub struct ReflectiveBoundary {
    parities: Vec<Parity>,
}

impl ReflectiveBoundary {
    /// Build the parity table for the registered hydro fields:
    /// x-velocity and x-fluxes are odd in x, y-velocity and y-fluxes odd
    /// in y, everything else even.
    pub fn for_fields(f: &Fields, num_vars: usize) -> Self {
        let mut parities = vec![Parity::default(); num_vars];
        for v in [f.xvel0, f.xvel1, f.vol_flux_x, f.mass_flux_x] {
            parities[v.0] = Parity { odd_x: true, odd_y: false };
        }
        for v in [f.yvel0, f.yvel1, f.vol_flux_y, f.mass_flux_y] {
            parities[v.0] = Parity { odd_x: false, odd_y: true };
        }
        Self { parities }
    }

    /// Parity of one variable.
    pub fn parity(&self, var: VariableId) -> Parity {
        self.parities.get(var.0).copied().unwrap_or_default()
    }
}

/// Whether data with this centring sits on the reflection plane along
/// `axis` ("node-like") or between planes ("cell-like").
fn node_like(centring: Centring, axis: usize) -> bool {
    match centring {
        Centring::Cell => false,
        Centring::Node => true,
        Centring::Side(a) => a == axis,
    }
}

/// Compute the (target, source, sign) index pairs for a reflective fill
/// of `fill_boxes` (cell space, outside the domain). Pure index
/// arithmetic shared by the host and device paths.
pub fn mirror_pairs(
    data_box: GBox,
    centring: Centring,
    parity: Parity,
    fill_boxes: &BoxList,
    domain_cells: GBox,
) -> Vec<(usize, usize, f64)> {
    let domain_data = centring.data_box(domain_cells);
    let mut pairs = Vec::new();
    for b in fill_boxes.boxes() {
        for p in centring.data_box(*b).iter() {
            if domain_data.contains(p) || !data_box.contains(p) {
                continue;
            }
            let mut sign = 1.0;
            let mut q = p;
            for axis in 0..2 {
                let (lo, hi) = (domain_data.lo.get(axis), domain_data.hi.get(axis));
                let v = q.get(axis);
                let reflected = if node_like(centring, axis) {
                    // Wall plane at lo and hi-1 (the last node).
                    if v < lo {
                        2 * lo - v
                    } else if v > hi - 1 {
                        2 * (hi - 1) - v
                    } else {
                        v
                    }
                } else if v < lo {
                    2 * lo - 1 - v
                } else if v >= hi {
                    2 * hi - 1 - v
                } else {
                    v
                };
                if reflected != v {
                    let odd = if axis == 0 { parity.odd_x } else { parity.odd_y };
                    if odd {
                        sign = -sign;
                    }
                    q = q.with(axis, reflected);
                }
            }
            if q != p && data_box.contains(q) {
                pairs.push((data_box.offset_of(p), data_box.offset_of(q), sign));
            }
        }
    }
    pairs
}

/// Apply `pairs` to one array: sources are interior, targets are
/// ghosts — disjoint sets, so gather-then-scatter preserves the
/// one-thread-per-element semantics.
fn reflect(slice: &mut [f64], pairs: &[(usize, usize, f64)]) {
    let vals: Vec<f64> = pairs.iter().map(|&(_, s, sign)| sign * slice[s]).collect();
    for (&(t, _, _), v) in pairs.iter().zip(vals) {
        slice[t] = v;
    }
}

/// The `physical-boundary` kernel: one launch applying the pair lists
/// `jobs` yields, `total` pairs in all. No launch without pairs.
fn launch_reflect(
    device: &Device,
    total: usize,
    jobs: impl FnOnce(&mut dyn FnMut(&mut DeviceData<f64>, &[(usize, usize, f64)])),
) {
    if total == 0 {
        return;
    }
    let shape = KernelShape::streaming(total as i64, 2, 1);
    device.launch_named(&Stream, "physical-boundary", Category::HaloExchange, shape, |k| {
        jobs(&mut |data, pairs| reflect(data.buffer_mut().as_mut_slice(&k), pairs));
    });
}

/// The mirror pairs of every plan of one schedule, in plan order: what
/// [`ReflectiveBoundary`] keeps with the schedule.
struct SchedulePairs(Vec<Vec<(usize, usize, f64)>>);

impl ReflectiveBoundary {
    fn pairs_of(
        &self,
        data: &dyn PatchData,
        var: VariableId,
        boxes: &BoxList,
        domain: GBox,
    ) -> Vec<(usize, usize, f64)> {
        mirror_pairs(data.data_box(), data.centring(), self.parity(var), boxes, domain)
    }
}

impl PhysicalBoundary for ReflectiveBoundary {
    fn fill(
        &self,
        patch: &mut Patch,
        var: VariableId,
        boxes: &BoxList,
        domain_box: GBox,
        _time: f64,
    ) {
        let data = patch.data_mut(var);
        let pairs = self.pairs_of(data, var, boxes, domain_box);
        if let Some(host) = data.as_any_mut().downcast_mut::<HostData<f64>>() {
            reflect(host.as_mut_slice(), &pairs);
        } else if let Some(dev) = data.as_any_mut().downcast_mut::<DeviceData<f64>>() {
            let device = dev.device().clone();
            launch_reflect(&device, pairs.len(), |apply| apply(dev, &pairs));
        } else {
            panic!("ReflectiveBoundary: unsupported data placement");
        }
    }

    fn fill_many(&self, hierarchy: &mut PatchHierarchy, fills: &mut [BoundaryFill<'_>], _: f64) {
        // The pairs depend on the plans alone: computed at a schedule's
        // first fill, dropped with it.
        for fill in fills.iter_mut() {
            if !fill.kept.as_ref().is_some_and(|k| k.is::<SchedulePairs>()) {
                let level = hierarchy.level(fill.level);
                let pairs = fill.plans.iter().map(|plan| {
                    let data = level.local()[plan.pos].data(plan.var);
                    self.pairs_of(data, plan.var, &plan.outside, fill.domain_box)
                });
                *fill.kept = Some(Box::new(SchedulePairs(pairs.collect())));
            }
        }
        let jobs = fills.iter().flat_map(|fill| {
            let kept = fill.kept.as_ref().and_then(|k| k.downcast_ref::<SchedulePairs>());
            let pairs = &kept.expect("the pairs were just ensured").0;
            fill.plans.iter().zip(pairs).map(|(plan, pairs)| (fill.level, plan, pairs))
        });
        // A hierarchy's patches share one placement.
        let device = jobs.clone().next().and_then(|(level, plan, _)| {
            let data = data_of(hierarchy, level, plan).as_any().downcast_ref::<DeviceData<f64>>();
            data.map(|d| d.device().clone())
        });
        match device {
            None => {
                for (level, plan, pairs) in jobs {
                    let host = data_of(hierarchy, level, plan).as_any_mut().downcast_mut();
                    let host: &mut HostData<f64> =
                        host.expect("ReflectiveBoundary: unsupported data placement");
                    reflect(host.as_mut_slice(), pairs);
                }
            }
            Some(device) => {
                let total = jobs.clone().map(|(.., pairs)| pairs.len()).sum();
                launch_reflect(&device, total, |apply| {
                    for (level, plan, pairs) in jobs {
                        let dev = data_of(hierarchy, level, plan).as_any_mut().downcast_mut();
                        apply(dev.expect("ReflectiveBoundary: mixed data placements"), pairs);
                    }
                });
            }
        }
    }
}

/// The array a plan of level `level` fills.
fn data_of<'a>(
    hierarchy: &'a mut PatchHierarchy,
    level: usize,
    plan: &PhysicalPlan,
) -> &'a mut dyn PatchData {
    hierarchy.level_mut(level).local_mut()[plan.pos].data_mut(plan.var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_amr::patch::PatchId;
    use rbamr_amr::{GridGeometry, HostDataFactory, VariableRegistry};
    use rbamr_geometry::IntVector;
    use std::sync::Arc;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn cell_mirror_is_even() {
        let data_box = b(-2, -2, 10, 10);
        let domain = b(0, 0, 8, 8);
        let fill = BoxList::from_box(b(-2, 0, 0, 8));
        let pairs = mirror_pairs(data_box, Centring::Cell, Parity::default(), &fill, domain);
        // Ghost (-1, y) <- (0, y); (-2, y) <- (1, y); all +1 sign.
        assert_eq!(pairs.len(), 16);
        for (t, s, sign) in pairs {
            assert_eq!(sign, 1.0);
            assert_ne!(t, s);
        }
    }

    #[test]
    fn node_mirror_reflects_about_wall_plane() {
        let domain = b(0, 0, 8, 8);
        let data_box = Centring::Node.data_box(domain.grow(IntVector::uniform(2)));
        let fill = BoxList::from_box(b(-2, 2, 0, 3));
        let parity = Parity { odd_x: true, odd_y: false };
        let pairs = mirror_pairs(data_box, Centring::Node, parity, &fill, domain);
        // Node x=-1 mirrors node x=+1 (the wall node x=0 is interior).
        let node_dbox = data_box;
        let t = node_dbox.offset_of(IntVector::new(-1, 2));
        let s = node_dbox.offset_of(IntVector::new(1, 2));
        assert!(pairs.contains(&(t, s, -1.0)), "missing odd mirror pair");
        // The wall node itself is never a target.
        assert!(pairs.iter().all(|&(tt, _, _)| tt != node_dbox.offset_of(IntVector::new(0, 2))));
    }

    #[test]
    fn corner_mirrors_flip_once_per_odd_axis() {
        let domain = b(0, 0, 4, 4);
        let data_box = b(-2, -2, 6, 6);
        let fill = BoxList::from_box(b(-2, -2, 0, 0));
        let parity = Parity { odd_x: true, odd_y: true };
        let pairs = mirror_pairs(data_box, Centring::Cell, parity, &fill, domain);
        // Corner ghost reflects across both axes: sign (+1) * (-1) * (-1).
        let t = data_box.offset_of(IntVector::new(-1, -1));
        let s = data_box.offset_of(IntVector::new(0, 0));
        assert!(pairs.contains(&(t, s, 1.0)));
    }

    #[test]
    fn host_fill_applies_reflection() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let f = Fields::register(&mut reg);
        let boundary = ReflectiveBoundary::for_fields(&f, reg.len());
        let domain = b(0, 0, 8, 8);
        let mut patch = Patch::new(PatchId { level: 0, index: 0 }, domain, 0, &reg);
        // Seed interior velocity.
        for p in Centring::Node.data_box(domain).iter() {
            *patch.host_mut::<f64>(f.xvel0).at_mut(p) = (p.x + 1) as f64;
        }
        let fill = BoxList::from_box(b(-2, 0, 0, 8));
        boundary.fill(&mut patch, f.xvel0, &fill, domain, 0.0);
        let d = patch.host::<f64>(f.xvel0);
        // xvel is odd in x: ghost node -1 = -(node 1) = -2.
        assert_eq!(d.at(IntVector::new(-1, 3)), -2.0);
        assert_eq!(d.at(IntVector::new(-2, 3)), -3.0);
        // Density mirrors evenly.
        for p in domain.iter() {
            *patch.host_mut::<f64>(f.density0).at_mut(p) = (p.x + 1) as f64;
        }
        boundary.fill(&mut patch, f.density0, &fill, domain, 0.0);
        let d = patch.host::<f64>(f.density0);
        assert_eq!(d.at(IntVector::new(-1, 3)), 1.0);
        assert_eq!(d.at(IntVector::new(-2, 3)), 2.0);
    }

    /// A one-level device hierarchy of two patches spanning an 8x4
    /// domain, fields seeded with distinct values, and the plans of its
    /// low-y ghost rows.
    fn device_hierarchy() -> (rbamr_device::Device, PatchHierarchy, Fields, Vec<PhysicalPlan>, GBox)
    {
        let device = rbamr_device::Device::k20x();
        let factory = rbamr_gpu_amr::DeviceDataFactory::new(device.clone());
        let mut reg = VariableRegistry::new(Arc::new(factory));
        let f = Fields::register(&mut reg);
        let domain = b(0, 0, 8, 4);
        let geometry = GridGeometry::unit(1.0);
        let mut h = PatchHierarchy::new(
            geometry,
            BoxList::from_box(domain),
            IntVector::uniform(2),
            1,
            0,
            1,
        );
        h.set_level(0, vec![b(0, 0, 4, 4), b(4, 0, 8, 4)], vec![0, 0], &reg);
        let mut plans = Vec::new();
        for (pos, patch) in h.level_mut(0).local_mut().iter_mut().enumerate() {
            for var in [f.density0, f.yvel0] {
                let dev: &mut DeviceData<f64> =
                    patch.data_mut(var).as_any_mut().downcast_mut().unwrap();
                let image: Vec<f64> = (0..dev.data_box().num_cells())
                    .map(|i| (1 + i + 100 * var.0 as i64) as f64)
                    .collect();
                dev.upload_all(&image, Category::Other);
                let outside = BoxList::from_box(patch.cell_box().grow(IntVector::uniform(2)))
                    .intersect_box(b(-2, -2, 10, 0));
                plans.push(PhysicalPlan { pos, dst_idx: pos, var, outside });
            }
        }
        (device, h, f, plans, domain)
    }

    #[test]
    fn one_launch_fills_what_the_per_plan_loop_fills() {
        let images = |h: &PatchHierarchy, plans: &[PhysicalPlan]| -> Vec<Vec<f64>> {
            let image = |plan: &PhysicalPlan| {
                let data = h.level(0).local()[plan.pos].data(plan.var);
                let dev: &DeviceData<f64> = data.as_any().downcast_ref().unwrap();
                dev.download_all(Category::Other)
            };
            plans.iter().map(image).collect()
        };
        let (device, mut h, f, plans, domain) = device_hierarchy();
        let boundary = ReflectiveBoundary::for_fields(&f, 32);
        let before = device.stats().kernel_launches;
        for plan in &plans {
            let patch = &mut h.level_mut(0).local_mut()[plan.pos];
            boundary.fill(patch, plan.var, &plan.outside, domain, 0.0);
        }
        assert_eq!(device.stats().kernel_launches - before, plans.len() as u64);
        let per_plan = images(&h, &plans);

        // Two schedules' plans, as two members of one window.
        let (device, mut h, _, plans, domain) = device_hierarchy();
        let mut kept = [None, None];
        let mut window_fill = |h: &mut PatchHierarchy| {
            let [first, second] = &mut kept;
            let mut fills = [(&plans[..2], first), (&plans[2..], second)]
                .map(|(plans, kept)| BoundaryFill { level: 0, domain_box: domain, plans, kept });
            boundary.fill_many(h, &mut fills, 0.0);
        };
        let before = device.stats().kernel_launches;
        window_fill(&mut h);
        assert_eq!(device.stats().kernel_launches - before, 1);
        assert_eq!(images(&h, &plans), per_plan);
        // yvel is odd in y: the ghost row below the wall is negated.
        assert!(per_plan[1].iter().any(|&v| v < 0.0));
        // The pairs stay with each schedule: a second fill reuses them
        // and, the ghosts already mirroring the interior, changes nothing.
        window_fill(&mut h);
        assert_eq!(device.stats().kernel_launches - before, 2);
        assert_eq!(images(&h, &plans), per_plan);
        assert!(kept.iter().all(Option::is_some));
    }

    #[test]
    fn parities_match_cloverleaf_field_types() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let f = Fields::register(&mut reg);
        let bdy = ReflectiveBoundary::for_fields(&f, reg.len());
        assert_eq!(bdy.parity(f.xvel0), Parity { odd_x: true, odd_y: false });
        assert_eq!(bdy.parity(f.yvel1), Parity { odd_x: false, odd_y: true });
        assert_eq!(bdy.parity(f.mass_flux_x), Parity { odd_x: true, odd_y: false });
        assert_eq!(bdy.parity(f.density0), Parity::default());
        assert_eq!(bdy.parity(f.pressure), Parity::default());
    }
}
