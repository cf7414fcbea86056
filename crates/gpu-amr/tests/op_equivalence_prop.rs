//! Property tests: every operator leaves the same bits on device data as
//! on host data, on random data, boxes, ratios and partial fill regions.
//! Both placements run one operator set (`rbamr_amr::ops`; its bits are
//! frozen by `op_bits.rs`), so what these properties pin is the plumbing
//! around it, which is what can still differ: row offsets, fill
//! clipping, job order, `first` offsets, launches and transfers.

use proptest::prelude::*;
use rbamr_amr::ops::{
    CoarsenOperator, ConservativeCellRefine, ConstantRefine, LinearNodeRefine, LinearSideRefine,
    MassWeightedCoarsen, NodeInjectionCoarsen, RefineOperator, VolumeWeightedCoarsen,
};
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::HostData;
use rbamr_device::Device;
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_gpu_amr::DeviceData;
use rbamr_perfmodel::Category;

fn arb_ratio() -> impl Strategy<Value = i64> {
    prop::sample::select(vec![2i64, 3, 4])
}

/// Random sub-box of `b` (non-empty).
fn sub_box(b: GBox, fx: f64, fy: f64, fw: f64, fh: f64) -> GBox {
    let w = b.size().x;
    let h = b.size().y;
    let x0 = b.lo.x + ((w - 1) as f64 * fx) as i64;
    let y0 = b.lo.y + ((h - 1) as f64 * fy) as i64;
    let x1 = x0 + 1 + ((b.hi.x - x0 - 1) as f64 * fw) as i64;
    let y1 = y0 + 1 + ((b.hi.y - y0 - 1) as f64 * fh) as i64;
    GBox::from_coords(x0, y0, x1, y1)
}

fn pair(
    device: &Device,
    cell_box: GBox,
    ghosts: i64,
    centring: Centring,
    values: &[f64],
) -> (HostData<f64>, DeviceData<f64>) {
    let g = IntVector::uniform(ghosts);
    let mut h = HostData::<f64>::new(cell_box, g, centring);
    let n = h.as_slice().len();
    for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
        *v = values[i % values.len()] + i as f64 * 1e-3;
    }
    let mut d = DeviceData::<f64>::new(device, cell_box, g, centring);
    let image: Vec<f64> = h.as_slice().to_vec();
    d.upload_all(&image, Category::Other);
    let _ = n;
    (h, d)
}

fn assert_equal(h: &HostData<f64>, d: &DeviceData<f64>, what: &str) {
    let dv = d.download_all(Category::Other);
    for (i, (a, b)) in h.as_slice().iter().zip(&dv).enumerate() {
        assert_eq!(a, b, "{what}: divergence at linear index {i}");
    }
}

/// The fill fractions of [`sub_box`] that select the whole box.
const WHOLE: [f64; 4] = [0.0, 0.0, 1.0, 1.0];

/// Refine operator `which` (node, cell, constant, side x, side y) and
/// the centring it serves.
fn refine_op(which: usize) -> (Box<dyn RefineOperator>, Centring) {
    match which {
        0 => (Box::new(LinearNodeRefine), Centring::Node),
        1 => (Box::new(ConservativeCellRefine), Centring::Cell),
        2 => (Box::new(ConstantRefine), Centring::Cell),
        _ => (Box::new(LinearSideRefine { axis: which - 3 }), Centring::Side(which - 3)),
    }
}

/// Coarsen operator `which` (volume-weighted, mass-weighted, node
/// injection) and the centring it serves.
fn coarsen_op(which: usize) -> (Box<dyn CoarsenOperator>, Centring) {
    match which {
        0 => (Box::new(VolumeWeightedCoarsen), Centring::Cell),
        1 => (Box::new(MassWeightedCoarsen), Centring::Cell),
        _ => (Box::new(NodeInjectionCoarsen), Centring::Node),
    }
}

/// Refine operator `which` on host and device data: same values, same
/// fill — part of the fine data box grown one ghost, so the clamped
/// reads fire — same result.
fn refine_case(which: usize, ratio: i64, [fx, fy, fw, fh]: [f64; 4], vals: &[f64]) {
    let device = Device::k20x();
    let r = IntVector::uniform(ratio);
    let coarse_box = GBox::from_coords(0, 0, 7, 9);
    let fine_box = coarse_box.refine(r);
    let (op, centring) = refine_op(which);
    let (hsrc, dsrc) = pair(&device, coarse_box, 1, centring, vals);
    let (mut hdst, mut ddst) = pair(&device, fine_box, 2, centring, vals);
    let fill = centring.data_box(fine_box.grow(IntVector::ONE));
    let fill = BoxList::from_box(sub_box(fill, fx, fy, fw, fh));
    hdst.refine_from(op.as_ref(), &hsrc, &fill, r);
    ddst.refine_from(op.as_ref(), &dsrc, &fill, r);
    assert_equal(&hdst, &ddst, &format!("refine op {which} ratio {ratio}"));
}

/// Coarsen operator `which` on host and device data, as
/// [`refine_case`].
fn coarsen_case(which: usize, ratio: i64, [fx, fy, fw, fh]: [f64; 4], vals: &[f64]) {
    let device = Device::k20x();
    let r = IntVector::uniform(ratio);
    let coarse_box = GBox::from_coords(0, 0, 6, 5);
    let fine_box = coarse_box.refine(r);
    let (op, centring) = coarsen_op(which);
    let (hsrc, dsrc) = pair(&device, fine_box, 0, centring, vals);
    let (hrho, drho) = pair(&device, fine_box, 0, centring, vals);
    let (mut hdst, mut ddst) = pair(&device, coarse_box, 0, centring, vals);
    let fill = BoxList::from_box(sub_box(centring.data_box(coarse_box), fx, fy, fw, fh));
    let haux: Vec<&dyn PatchData> = (0..op.num_aux()).map(|_| &hrho as _).collect();
    let daux: Vec<&dyn PatchData> = (0..op.num_aux()).map(|_| &drho as _).collect();
    hdst.coarsen_from(op.as_ref(), &hsrc, &haux, &fill, r);
    ddst.coarsen_from(op.as_ref(), &dsrc, &daux, &fill, r);
    assert_equal(&hdst, &ddst, &format!("coarsen op {which} ratio {ratio}"));
}

/// The cases the unit tests of `rbamr_gpu_amr::ops` used to fix: ratio
/// 4 for the node and cell operators, both side axes, whole fills.
#[test]
fn refine_ops_agree_on_the_fixed_cases() {
    let vals = [-7.5, 2.25, 9.0, -0.5, 3.0, 6.5, -4.0, 1.0];
    for (which, ratio) in [(0, 2), (0, 4), (1, 2), (1, 4), (2, 2), (3, 2), (4, 2)] {
        refine_case(which, ratio, WHOLE, &vals);
    }
}

/// As above: ratio 4 for volume weighting, whole fills.
#[test]
fn coarsen_ops_agree_on_the_fixed_cases() {
    let vals = [0.5, 2.25, 9.0, 0.125, 3.0, 6.5, 4.0, 1.0];
    for (which, ratio) in [(0, 2), (0, 4), (1, 2), (2, 2)] {
        coarsen_case(which, ratio, WHOLE, &vals);
    }
}

/// Mass weighting with a density of another ghost width, on `device` or
/// on the host: the row body indexes every source through one data box.
fn coarsen_with_a_wider_density(device: Option<&Device>) {
    let r = IntVector::uniform(2);
    let coarse_box = GBox::from_coords(0, 0, 4, 4);
    let make = |cell_box: GBox, ghosts: i64| -> Box<dyn PatchData> {
        let g = IntVector::uniform(ghosts);
        match device {
            Some(device) => Box::new(DeviceData::<f64>::new(device, cell_box, g, Centring::Cell)),
            None => Box::new(HostData::<f64>::new(cell_box, g, Centring::Cell)),
        }
    };
    let (src, rho) = (make(coarse_box.refine(r), 0), make(coarse_box.refine(r), 1));
    let mut dst = make(coarse_box, 0);
    let fill = BoxList::from_box(coarse_box);
    MassWeightedCoarsen.coarsen(dst.as_mut(), src.as_ref(), &[rho.as_ref()], &fill, r);
}

#[test]
#[should_panic(expected = "mass-weighted-coarsen: coarsen sources differ in layout")]
fn host_coarsen_rejects_sources_of_different_layouts() {
    coarsen_with_a_wider_density(None);
}

#[test]
#[should_panic(expected = "mass-weighted-coarsen: coarsen sources differ in layout")]
fn device_coarsen_rejects_sources_of_different_layouts() {
    coarsen_with_a_wider_density(Some(&Device::k20x()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The refine operators agree on random data and partial fill
    /// regions for every ratio and centring they serve.
    #[test]
    fn refine_ops_agree(
        vals in prop::collection::vec(-5.0f64..5.0, 8),
        ratio in arb_ratio(),
        fx in 0.0f64..1.0, fy in 0.0f64..1.0, fw in 0.0f64..1.0, fh in 0.0f64..1.0,
        which in 0usize..5,
    ) {
        refine_case(which, ratio, [fx, fy, fw, fh], &vals);
    }

    /// The three coarsen operators agree on random data and partial
    /// coarse regions.
    #[test]
    fn coarsen_ops_agree(
        vals in prop::collection::vec(0.1f64..5.0, 8),
        ratio in arb_ratio(),
        fx in 0.0f64..1.0, fy in 0.0f64..1.0, fw in 0.0f64..1.0, fh in 0.0f64..1.0,
        which in 0usize..3,
    ) {
        coarsen_case(which, ratio, [fx, fy, fw, fh], &vals);
    }

    /// Pack on one placement, unpack on the other: device and host data
    /// interoperate through the same wire format in both directions.
    #[test]
    fn cross_placement_streams(
        vals in prop::collection::vec(-9.0f64..9.0, 8),
        g in 1i64..3,
        device_packs in any::<bool>(),
    ) {
        let device = Device::k20x();
        let src_box = GBox::from_coords(4, 0, 10, 6);
        let dst_box = GBox::from_coords(0, 0, 4, 6);
        let ov = rbamr_geometry::ghost_overlaps(
            dst_box, IntVector::uniform(g), src_box, Centring::Cell, IntVector::ZERO,
        );
        prop_assume!(!ov.is_empty());
        let (hsrc, dsrc) = pair(&device, src_box, g, Centring::Cell, &vals);
        let (mut hdst, mut ddst) = pair(&device, dst_box, g, Centring::Cell, &vals);
        if device_packs {
            let stream = dsrc.pack(&ov);
            hdst.unpack(&ov, &stream);
            // Reference: pure-host path.
            let href = hsrc.pack(&ov);
            prop_assert_eq!(&stream[..], &href[..]);
        } else {
            let stream = hsrc.pack(&ov);
            ddst.unpack(&ov, &stream);
            let mut href = pair(&device, dst_box, g, Centring::Cell, &vals).0;
            href.unpack(&ov, &stream);
            assert_equal(&href, &ddst, "host->device unpack");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Device tag compression equals the host bitmap for arbitrary tag
    /// patterns and box positions, and only the compressed bytes cross
    /// PCIe.
    #[test]
    fn tag_compression_matches_host(
        seeds in prop::collection::vec(0usize..400, 0..40),
        off_x in -5i64..5,
        off_y in -5i64..5,
    ) {
        use rbamr_amr::TagBitmap;
        use rbamr_gpu_amr::compress_tags;
        let cell_box = GBox::from_coords(off_x, off_y, off_x + 20, off_y + 20);
        let n = cell_box.num_cells() as usize;
        let mut tags = vec![0i32; n];
        for s in &seeds {
            tags[s % n] = 1;
        }
        let host_bm = TagBitmap::compress(cell_box, &tags);

        let device = Device::k20x();
        let mut d = DeviceData::<i32>::new(&device, cell_box, IntVector::ZERO, Centring::Cell);
        d.upload_all(&tags, Category::Regrid);
        device.reset_transfer_stats();
        let dev_bm = compress_tags(&d, Category::Regrid);

        prop_assert_eq!(&dev_bm, &host_bm);
        let stats = device.stats();
        if host_bm.any() {
            // 4-byte flag + one bit per cell.
            prop_assert_eq!(stats.d2h_bytes, 4 + n.div_ceil(8) as u64);
        } else {
            prop_assert_eq!(stats.d2h_bytes, 4);
        }
    }
}

// ---------------------------------------------------------------------
// The fused batch entry points — `DeviceDataFactory`'s overrides of
// `copy_many` / `pack_many` / `unpack_batch` / `extend_many` /
// `refine_many` / `coarsen_many` — against the trait defaults (the
// per-item loop) *on the same device data*, and against the host
// placement.

mod fused {
    use super::{coarsen_op, refine_op, sub_box};
    use proptest::prelude::*;
    use rbamr_amr::patchdata::{PatchData, PatchDataError};
    use rbamr_amr::transfer::{
        narrow, CoarsenJob, CopyJob, Loc, PeerStream, RefineJob, StreamJob, TransferCtx,
        STREAM_VALUE_BYTES,
    };
    use rbamr_amr::variable::DataFactory;
    use rbamr_amr::{
        GridGeometry, HostData, HostDataFactory, PatchHierarchy, VariableId, VariableRegistry,
    };
    use rbamr_device::{Device, DeviceStats};
    use rbamr_geometry::{ghost_overlaps, BoxList, Centring, GBox, IntVector};
    use rbamr_gpu_amr::{DeviceData, DeviceDataFactory};
    use rbamr_netsim::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use rbamr_perfmodel::{Category, Clock, Machine};
    use rbamr_telemetry::Recorder;
    use std::sync::Arc;

    const CAT: Category = Category::HaloExchange;
    const DOMAIN: (i64, i64) = (24, 16);
    /// Coarse footprints of the two fine patches.
    const FOOTPRINTS: [GBox; 2] = [GBox::from_coords(2, 2, 8, 8), GBox::from_coords(12, 4, 20, 12)];

    /// Device data from the fused factory, every batch entry point
    /// inherited: the trait's default loops over `DeviceData`'s
    /// per-item methods.
    struct PerItem(DeviceDataFactory);

    impl DataFactory for PerItem {
        fn make(
            &self,
            centring: Centring,
            ghosts: IntVector,
            cell_box: GBox,
        ) -> Box<dyn PatchData> {
            self.0.make(centring, ghosts, cell_box)
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Placement {
        Host,
        PerItem,
        Fused,
    }

    #[derive(Clone, Debug)]
    struct Case {
        cuts: (i64, i64),
        ghosts: i64,
        axis: usize,
        ratio: i64,
        vals: Vec<f64>,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            (6i64..18, 4i64..12),
            1i64..4,
            0usize..2,
            prop::sample::select(vec![2i64, 3, 4]),
            prop::collection::vec(0.1f64..9.0, 8),
        )
            .prop_map(|(cuts, ghosts, axis, ratio, vals)| Case {
                cuts,
                ghosts,
                axis,
                ratio,
                vals,
            })
    }

    /// A two-level hierarchy on one rank: four coarse patches cut at
    /// `cuts`, two fine patches, and four variables — cell, node, side
    /// and a second cell variable (the mass-weighting density).
    struct World {
        h: PatchHierarchy,
        reg: VariableRegistry,
        vars: [VariableId; 4],
        scratch: Vec<Box<dyn PatchData>>,
        device: Option<(Device, Recorder)>,
    }

    fn set_values(d: &mut dyn PatchData, vals: &[f64], salt: usize) {
        let n = d.data_box().num_cells() as usize;
        let image: Vec<f64> = (0..n)
            .map(|i| vals[(i + salt) % vals.len()] + ((i + 7 * salt) % 1013) as f64 * 1e-3)
            .collect();
        if let Some(h) = d.as_any_mut().downcast_mut::<HostData<f64>>() {
            h.as_mut_slice().copy_from_slice(&image);
        } else {
            let d = d.as_any_mut().downcast_mut::<DeviceData<f64>>().expect("device data");
            d.upload_all(&image, Category::Other);
        }
    }

    fn bits(d: &dyn PatchData) -> Vec<u64> {
        let values = match d.as_any().downcast_ref::<HostData<f64>>() {
            Some(h) => h.as_slice().to_vec(),
            None => d
                .as_any()
                .downcast_ref::<DeviceData<f64>>()
                .expect("device data")
                .download_all(Category::Other),
        };
        values.into_iter().map(f64::to_bits).collect()
    }

    impl World {
        fn new(placement: Placement, case: &Case) -> Self {
            let device = (placement != Placement::Host).then(|| {
                let clock = Clock::new();
                let device = Device::new(Machine::ipa_gpu(), clock.clone());
                let rec = Recorder::new(0, clock);
                device.set_recorder(rec.clone());
                (device, rec)
            });
            let fused = || DeviceDataFactory::new(device.as_ref().unwrap().0.clone());
            let factory: Arc<dyn DataFactory> = match placement {
                Placement::Host => Arc::new(HostDataFactory::new()),
                Placement::PerItem => Arc::new(PerItem(fused())),
                Placement::Fused => Arc::new(fused()),
            };
            let mut reg = VariableRegistry::new(factory);
            let g = IntVector::uniform(case.ghosts);
            let vars = [
                reg.register("cell", Centring::Cell, g),
                reg.register("node", Centring::Node, g),
                reg.register("side", Centring::Side(case.axis), g),
                reg.register("rho", Centring::Cell, g),
            ];
            let (w, hgt) = DOMAIN;
            let mut h = PatchHierarchy::new(
                GridGeometry::unit(1.0),
                BoxList::from_box(GBox::from_coords(0, 0, w, hgt)),
                IntVector::uniform(case.ratio),
                2,
                0,
                1,
            );
            let (cx, cy) = case.cuts;
            let coarse = vec![
                GBox::from_coords(0, 0, cx, cy),
                GBox::from_coords(cx, 0, w, cy),
                GBox::from_coords(0, cy, cx, hgt),
                GBox::from_coords(cx, cy, w, hgt),
            ];
            h.set_level(0, coarse, vec![0; 4], &reg);
            let r = IntVector::uniform(case.ratio);
            h.set_level(1, FOOTPRINTS.iter().map(|b| b.refine(r)).collect(), vec![0; 2], &reg);
            let mut salt = 0;
            for l in 0..2 {
                for p in h.level_mut(l).local_mut() {
                    for &v in &vars {
                        salt += 1;
                        set_values(p.data_mut(v), &case.vals, salt);
                    }
                }
            }
            Self { h, reg, vars, scratch: Vec::new(), device }
        }

        fn add_scratch(&mut self, var: VariableId, cell_box: GBox, case: &Case) -> usize {
            let mut s = self.reg.make_one(var, cell_box);
            s.set_transfer_category(CAT);
            set_values(s.as_mut(), &case.vals, 100 + self.scratch.len());
            self.scratch.push(s);
            self.scratch.len() - 1
        }

        /// Every stored value, patches then scratch, as bit patterns.
        fn snapshot(&self) -> Vec<Vec<u64>> {
            let patches = (0..2).flat_map(|l| self.h.level(l).local());
            patches
                .flat_map(|p| self.vars.iter().map(|&v| bits(p.data(v))))
                .chain(self.scratch.iter().map(|s| bits(s.as_ref())))
                .collect()
        }

        fn with_ctx<R>(
            &mut self,
            f: impl FnOnce(&dyn DataFactory, &mut TransferCtx<'_>) -> R,
        ) -> R {
            let factory = Arc::clone(self.reg.factory());
            f(
                factory.as_ref(),
                &mut TransferCtx {
                    hierarchy: &mut self.h,
                    scratch: &mut self.scratch,
                    outgoing: None,
                },
            )
        }

        /// The device's counters; all zero on the host.
        fn stats(&self) -> DeviceStats {
            self.device.as_ref().map(|(device, _)| device.stats()).unwrap_or_default()
        }

        fn counter(&self, name: &str) -> u64 {
            self.device.as_ref().expect("device world").1.counter(name)
        }
    }

    /// The three placements of one case, in [`Placement`] order.
    fn worlds(case: &Case) -> [World; 3] {
        [Placement::Host, Placement::PerItem, Placement::Fused].map(|p| World::new(p, case))
    }

    /// Run `f` on each world; the launches and PCIe traffic it caused,
    /// in [`Placement`] order.
    fn measured(ws: &mut [World; 3], mut f: impl FnMut(&mut World)) -> [DeviceStats; 3] {
        ws.each_mut().map(|w| {
            let before = w.stats();
            f(w);
            let after = w.stats();
            DeviceStats {
                h2d_bytes: after.h2d_bytes - before.h2d_bytes,
                d2h_bytes: after.d2h_bytes - before.d2h_bytes,
                h2d_transfers: after.h2d_transfers - before.h2d_transfers,
                d2h_transfers: after.d2h_transfers - before.d2h_transfers,
                kernel_launches: after.kernel_launches - before.kernel_launches,
                ..DeviceStats::default()
            }
        })
    }

    /// Ghost-fill copy jobs between every ordered pair of coarse
    /// patches and every variable, through the plain neighbour overlap
    /// and the four periodic images (non-zero shifts). As in a schedule
    /// build, the first source to reach a ghost value claims it, so no
    /// two jobs write the same value and none reads what another
    /// writes — the property that lets a placement reorder them.
    fn copy_jobs(w: &World, case: &Case) -> Vec<CopyJob> {
        let boxes: Vec<GBox> = w.h.level(0).local().iter().map(|p| p.cell_box()).collect();
        let shifts = [(0, 0), (DOMAIN.0, 0), (-DOMAIN.0, 0), (0, DOMAIN.1), (0, -DOMAIN.1)];
        let mut jobs = Vec::new();
        for &var in &w.vars {
            let centring = w.reg.get(var).centring;
            for (d, &dst_box) in boxes.iter().enumerate() {
                let mut claimed = BoxList::new();
                for (s, &src_box) in boxes.iter().enumerate() {
                    for (sx, sy) in shifts {
                        let mut overlap = ghost_overlaps(
                            dst_box,
                            IntVector::uniform(case.ghosts),
                            src_box,
                            centring,
                            IntVector::new(sx, sy),
                        );
                        overlap.dst_boxes.subtract(&claimed);
                        overlap.dst_boxes.coalesce();
                        if s != d && !overlap.is_empty() {
                            claimed.union(&overlap.dst_boxes);
                            jobs.push(CopyJob {
                                var,
                                src: Loc::patch(0, s),
                                dst: Loc::patch(0, d),
                                overlap,
                                src_idx: narrow(s),
                                dst_idx: narrow(d),
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The copy jobs as message traffic with two peers: job `i` travels
    /// in peer `i % 2`'s message. `send` picks the packing side (the
    /// job's source) or the unpacking side (its destination).
    fn stream_jobs(copies: &[CopyJob], send: bool) -> (Vec<StreamJob>, Vec<PeerStream>) {
        let mut peers = vec![PeerStream { rank: 5, bytes: 0 }, PeerStream { rank: 9, bytes: 0 }];
        let jobs = copies
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let peer = &mut peers[i % 2];
                let first = narrow(peer.bytes / STREAM_VALUE_BYTES);
                peer.bytes += c.overlap.num_values() as usize * STREAM_VALUE_BYTES;
                StreamJob {
                    var: c.var,
                    loc: if send { c.src } else { c.dst },
                    overlap: c.overlap.clone(),
                    peer: narrow(i % 2),
                    first,
                    src_idx: c.src_idx,
                    dst_idx: c.dst_idx,
                }
            })
            .collect();
        (jobs, peers)
    }

    /// The world variable of `centring`: cell, node or side.
    fn var_of(w: &World, centring: Centring) -> VariableId {
        match centring {
            Centring::Cell => w.vars[0],
            Centring::Node => w.vars[1],
            Centring::Side(_) => w.vars[2],
        }
    }

    fn assert_same(ws: &[World; 3], what: &str) {
        let [host, per_item, fused] = ws.each_ref().map(World::snapshot);
        assert!(per_item == fused, "{what}: fused differs from the per-item loop");
        assert!(host == fused, "{what}: device differs from the host");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// `copy_many`: same arrays, one launch.
        #[test]
        fn fused_copy_equals_the_per_item_loop(case in arb_case()) {
            let mut ws = worlds(&case);
            let jobs = copy_jobs(&ws[0], &case);
            prop_assume!(!jobs.is_empty());
            let [_, per_item, fused] =
                measured(&mut ws, |w| w.with_ctx(|f, ctx| f.copy_many(ctx, &jobs, CAT)));
            assert_same(&ws, "copy_many");
            prop_assert_eq!(per_item.kernel_launches, jobs.len() as u64);
            prop_assert_eq!(fused.kernel_launches, 1);
            prop_assert_eq!(ws[2].counter("device.kernel_launches.copy-region"), 1);
            prop_assert_eq!((fused.h2d_transfers, fused.d2h_transfers), (0, 0));
        }

        /// `pack_many` then `unpack_batch`: the fused stream is the
        /// concatenation of the per-overlap packs (and the host's), the
        /// unpacked arrays agree, bytes agree, and the fused side spends
        /// one launch and one PCIe transfer per stage, whatever the
        /// peer count.
        #[test]
        fn fused_streams_equal_the_per_item_loop(case in arb_case()) {
            let mut ws = worlds(&case);
            let copies = copy_jobs(&ws[0], &case);
            prop_assume!(copies.len() >= 2);
            let (sends, peers) = stream_jobs(&copies, true);
            let mut packed = Vec::new();
            let [_, per_item, fused] = measured(&mut ws, |w| {
                let (streams, fault) = w.with_ctx(|f, ctx| f.pack_many(ctx, &sends, &peers, CAT));
                assert_eq!(fault, None);
                packed.push(streams);
            });
            prop_assert_eq!(&packed[0], &packed[2], "fused stream differs from the host's");
            prop_assert_eq!(&packed[1], &packed[2], "fused stream differs from the per-item packs");
            for (stream, peer) in packed[2].iter().zip(&peers) {
                prop_assert_eq!(stream.len(), peer.bytes);
            }
            let total: u64 = peers.iter().map(|p| p.bytes as u64).sum();
            prop_assert_eq!(per_item.d2h_bytes, total);
            prop_assert_eq!(fused.d2h_bytes, total);
            prop_assert_eq!(ws[1].counter("pack.bytes"), total);
            prop_assert_eq!(ws[2].counter("pack.bytes"), total);
            prop_assert_eq!((per_item.kernel_launches, per_item.d2h_transfers), (sends.len() as u64, sends.len() as u64));
            prop_assert_eq!((fused.kernel_launches, fused.d2h_transfers), (1, 1));
            prop_assert_eq!(ws[2].counter("device.kernel_launches.pack"), 1);

            // Unpack the same messages into the destinations' ghosts.
            let (recvs, _) = stream_jobs(&copies, false);
            let streams = packed.pop().unwrap();
            let [_, per_item, fused] = measured(&mut ws, |w| {
                w.with_ctx(|f, ctx| {
                    let mut batch = f.unpack_batch(CAT);
                    for job in &recvs {
                        batch.push(ctx, job, &streams[job.peer as usize]).expect("unpack");
                    }
                    batch.flush(ctx).expect("flush");
                });
            });
            assert_same(&ws, "unpack_batch");
            prop_assert_eq!(per_item.h2d_bytes, total);
            prop_assert_eq!(fused.h2d_bytes, total);
            prop_assert_eq!(ws[1].counter("unpack.bytes"), total);
            prop_assert_eq!(ws[2].counter("unpack.bytes"), total);
            prop_assert_eq!((per_item.kernel_launches, per_item.h2d_transfers), (recvs.len() as u64, recvs.len() as u64));
            prop_assert_eq!((fused.kernel_launches, fused.h2d_transfers), (1, 1));
            prop_assert_eq!(ws[2].counter("device.kernel_launches.unpack"), 1);
        }

        /// `extend_many` over scratch arrays with partial cover: same
        /// arrays, one launch.
        #[test]
        fn fused_extend_equals_the_per_item_loop(
            case in arb_case(),
            f in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 3),
        ) {
            let mut ws = worlds(&case);
            let mut jobs = Vec::new();
            for (k, &(fx, fy, fw, fh)) in f.iter().enumerate() {
                let cell_box = GBox::from_coords(3 * k as i64, 2, 3 * k as i64 + 7, 9);
                let var = ws[0].vars[k];
                let centring = ws[0].reg.get(var).centring;
                let covered = BoxList::from_box(sub_box(centring.data_box(cell_box), fx, fy, fw, fh));
                for w in &mut ws {
                    w.add_scratch(var, cell_box, &case);
                }
                jobs.push(covered);
            }
            let [_, per_item, fused] =
                measured(&mut ws, |w| w.with_ctx(|f, ctx| f.extend_many(ctx.scratch, &jobs)));
            assert_same(&ws, "extend_many");
            // Every scratch has uncovered ghosts, so every job launches.
            prop_assert_eq!(per_item.kernel_launches, 3);
            prop_assert_eq!(fused.kernel_launches, 1);
            prop_assert_eq!(ws[2].counter("device.kernel_launches.extend-uncovered"), 1);
        }

        /// `refine_many` for all four operators: same arrays, one
        /// launch per call.
        #[test]
        fn fused_refine_equals_the_per_item_loop(
            case in arb_case(),
            f in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 2),
        ) {
            let r = IntVector::uniform(case.ratio);
            for which in 0..4 {
                // The side operator serves the world's side axis.
                let (op, centring) = refine_op(if which == 3 { 3 + case.axis } else { which });
                let mut ws = worlds(&case);
                let var = var_of(&ws[0], centring);
                let mut jobs = Vec::new();
                for (p, &(fx, fy, fw, fh)) in f.iter().enumerate() {
                    let fine_box = FOOTPRINTS[p].refine(r);
                    let fill = sub_box(centring.data_box(fine_box.grow(IntVector::ONE)), fx, fy, fw, fh);
                    for w in &mut ws {
                        w.add_scratch(var, FOOTPRINTS[p].grow(IntVector::ONE), &case);
                    }
                    jobs.push(RefineJob {
                        var,
                        pos: narrow(p),
                        scratch: narrow(p),
                        fill: BoxList::from_box(fill),
                        dst_idx: narrow(p),
                    });
                }
                let [_, per_item, fused] = measured(&mut ws, |w| {
                    w.with_ctx(|f, ctx| f.refine_many(ctx, op.as_ref(), 1, &jobs, r, CAT));
                });
                assert_same(&ws, "refine_many");
                prop_assert_eq!(per_item.kernel_launches, 2);
                prop_assert_eq!(fused.kernel_launches, 1);
                prop_assert_eq!(ws[2].counter("device.kernel_launches.refine-interp"), 1);
            }
        }

        /// `coarsen_many` for all three operators: same arrays, one
        /// launch per call.
        #[test]
        fn fused_coarsen_equals_the_per_item_loop(
            case in arb_case(),
            f in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 2),
        ) {
            let r = IntVector::uniform(case.ratio);
            for which in 0..3 {
                let (op, centring) = coarsen_op(which);
                let mut ws = worlds(&case);
                let var = var_of(&ws[0], centring);
                let aux: Vec<VariableId> = (0..op.num_aux()).map(|_| ws[0].vars[3]).collect();
                let mut jobs = Vec::new();
                for (p, &(fx, fy, fw, fh)) in f.iter().enumerate() {
                    for w in &mut ws {
                        w.add_scratch(var, FOOTPRINTS[p], &case);
                    }
                    jobs.push(CoarsenJob {
                        var,
                        aux: aux.clone(),
                        pos: narrow(p),
                        scratch: narrow(p),
                        fill: BoxList::from_box(sub_box(centring.data_box(FOOTPRINTS[p]), fx, fy, fw, fh)),
                        src_idx: narrow(p),
                    });
                }
                let [_, per_item, fused] = measured(&mut ws, |w| {
                    w.with_ctx(|f, ctx| f.coarsen_many(ctx, op.as_ref(), 1, &jobs, r));
                });
                assert_same(&ws, "coarsen_many");
                prop_assert_eq!(per_item.kernel_launches, 2);
                prop_assert_eq!(fused.kernel_launches, 1);
                prop_assert_eq!(ws[2].counter("device.kernel_launches.coarsen-project"), 1);
            }
        }
    }

    fn fixed_case() -> Case {
        Case { cuts: (12, 8), ghosts: 2, axis: 0, ratio: 2, vals: vec![1.0, 2.5, 0.25, 7.0] }
    }

    /// Attach an injector whose `n`-th transfer from now fails.
    fn fail_transfer(w: &World, n: u64) {
        let plan = FaultPlan::new(77, vec![FaultRule::once_on(FaultKind::CopyFail, 0, n)]);
        w.device.as_ref().unwrap().0.set_fault_injector(FaultInjector::new(Arc::new(plan), 0));
    }

    /// A fused pack whose D2H fails ships every peer of the stage zeros
    /// of its exact message size and a typed error; the next pack is
    /// whole again.
    #[test]
    fn failed_pack_transfer_ships_exact_placeholders() {
        let case = fixed_case();
        let mut w = World::new(Placement::Fused, &case);
        let (sends, peers) = stream_jobs(&copy_jobs(&w, &case), true);
        let (good, fault) = w.with_ctx(|f, ctx| f.pack_many(ctx, &sends, &peers, CAT));
        assert_eq!(fault, None);
        fail_transfer(&w, 0);
        let (streams, fault) = w.with_ctx(|f, ctx| f.pack_many(ctx, &sends, &peers, CAT));
        assert!(matches!(fault, Some(PatchDataError::Transfer { .. })), "got {fault:?}");
        for (stream, peer) in streams.iter().zip(&peers) {
            assert_eq!(stream.len(), peer.bytes);
            assert!(stream.iter().all(|&b| b == 0), "placeholder must be zeros");
        }
        let (again, fault) = w.with_ctx(|f, ctx| f.pack_many(ctx, &sends, &peers, CAT));
        assert_eq!((again, fault), (good, None));
    }

    /// A fused unpack whose H2D fails unpacks nothing and reports a
    /// typed error; a peer whose message never arrived is simply not
    /// part of the upload, and only its jobs are skipped.
    #[test]
    fn failed_unpack_transfer_skips_the_stage_and_a_missing_peer_only_itself() {
        let case = fixed_case();
        let mut w = World::new(Placement::Fused, &case);
        let copies = copy_jobs(&w, &case);
        let (sends, peers) = stream_jobs(&copies, true);
        let (recvs, _) = stream_jobs(&copies, false);
        let (streams, _) = w.with_ctx(|f, ctx| f.pack_many(ctx, &sends, &peers, CAT));
        let unpack = |w: &mut World, only: Option<u32>| {
            w.with_ctx(|f, ctx| {
                let mut batch = f.unpack_batch(CAT);
                for job in recvs.iter().filter(|j| only.is_none_or(|p| j.peer == p)) {
                    batch.push(ctx, job, &streams[job.peer as usize]).expect("push defers");
                }
                batch.flush(ctx)
            })
        };
        let untouched = World::new(Placement::Fused, &case).snapshot();
        fail_transfer(&w, 0);
        let fault = unpack(&mut w, None);
        assert!(matches!(fault, Err(PatchDataError::Transfer { .. })), "got {fault:?}");
        assert!(w.snapshot() == untouched, "a failed upload unpacks nothing");

        // Peer 0's frame was dropped: peer 1's jobs read their message
        // from the start of the upload, as the per-item loop unpacks them.
        for peer in [0, 1] {
            let mut fused = World::new(Placement::Fused, &case);
            let mut per_item = World::new(Placement::PerItem, &case);
            let before = fused.device.as_ref().unwrap().0.stats();
            unpack(&mut fused, Some(peer)).expect("fault-free unpack");
            unpack(&mut per_item, Some(peer)).expect("fault-free unpack");
            assert!(fused.snapshot() == per_item.snapshot(), "only peer {peer} arrived");
            let after = fused.device.as_ref().unwrap().0.stats();
            assert_eq!(after.h2d_bytes - before.h2d_bytes, peers[peer as usize].bytes as u64);
        }
    }
}
