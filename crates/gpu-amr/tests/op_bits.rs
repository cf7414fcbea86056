//! Frozen bits of every data operator: the seven inter-level operators
//! and `copy_from` / `pack` / `unpack`, as FNV-1a constants over what
//! they leave behind, asserted for the one operator set on host *and*
//! device data.
//!
//! The constants were recorded from the host bodies at commit `20cd00f`
//! (identical in the dev and release profiles). They are the oracle for
//! any rewrite of an operator body: each value's expression tree must
//! stay what it was, so a body that moves one bit of one element fails
//! here by operator, ratio and fill list. Never edit a constant for a
//! restructuring or a speed-up.

use rbamr_amr::ops::{
    CoarsenOperator, ConservativeCellRefine, ConstantRefine, LinearNodeRefine, LinearSideRefine,
    MassWeightedCoarsen, NodeInjectionCoarsen, RefineOperator, VolumeWeightedCoarsen,
};
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::HostData;
use rbamr_device::Device;
use rbamr_geometry::digest::Fnv64;
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_gpu_amr::data::DeviceElement;
use rbamr_gpu_amr::DeviceData;
use rbamr_perfmodel::Category;

/// One row per operator and ratio; the columns are the fill lists of
/// [`refine_fills`] / [`coarsen_fills`]: interior, edges, negative
/// indices, one row, one column, two boxes. Then one row per movement
/// and element type; the columns are a zero and a periodic shift.
const FROZEN_BITS: &str = "\
linear-node-refine/2x2 e27aef04aa38ccc3 098c9cb5f90383a1 f7a982750a8bda73 2b817a9a4a6fec2b 5daec3959110e105 852f29a62fe7579d
linear-node-refine/3x3 4144f06f963cc7fe 0f89e35caaacfdda f816054a5739f750 0aa791831c2c121f 4c181ff60ab07aff 9603678b9ec1dc6b
linear-node-refine/4x4 28418e3ab4b5dfd7 f979ed24ee749017 a69be008287a2afb 038e21b43059f37f 86c00528c6d39cc4 6430392ffd276d4e
linear-node-refine/2x4 9c8ae77b23e90e41 712fc3d1a1dc5f09 87a3cc8b8c3e0e3c 9626687acfb3b0a3 e937c68e5c369b8c 06d0f808607ea662
conservative-linear-cell-refine/2x2 9100186045faf8cb 2cca781bc8ff3f93 35309756dc05230c a9eae4d163a9f595 956d504ce94187be 9d770cce2fec87c5
conservative-linear-cell-refine/3x3 6fd6527c8bd4bb1b 2c0095ed58094365 4e0ed8218f196c96 44621a10a258713b 966ec4a235f4b529 6c5069dcd5d8e3bf
conservative-linear-cell-refine/4x4 171b505035b90617 98a13704b8bb009d c72b873e964ad6ae bb14beb100e3afb1 d0800f205f18d445 c29fe3e55bb2edf4
conservative-linear-cell-refine/2x4 c7e57f090b90f2ec b402c34dd5f60928 8af9741b1c84951a cd7786390e133032 7976c223c2576fe5 abc96597d59979e2
constant-refine/2x2 ffd8c022bce33abf 070761df8e76a9ea d2a95b5ba40cc796 b3243256fdb94790 0bdda8c9f80cb237 6db977b4ba2fc126
constant-refine/3x3 75c974235bf7e3eb e385f2b84a31e97b a33975203958d47b 967b5eab13004ff8 ba585e24268c4e27 d17b880096c9dd68
constant-refine/4x4 ffb00f3ab8d2546b 94ba39744851ece1 96bf12d98cb120c5 70d6ed5976909b1c 5d1d435c2e909364 c430025ab943937d
constant-refine/2x4 bc0ada0f5dc86ee1 a0e05b40e3b5e71b cdd59638dc93939d a22776eeba489fc4 b62b34f7ae4f5725 79015a333c1bb5f7
linear-side-refine.0/2x2 1600d402203613fa 0444998dde47eb6e f27be0b2374c4d57 014a67f20664a501 1ac7dac703197488 9e68a6be981be735
linear-side-refine.0/3x3 f1860aab32dc154a 114adc758a321d6f 01563585a4f25f37 2f9e409fe53f0faf 53c355492ca83b60 4700099ce07d6445
linear-side-refine.0/4x4 9a7bfbd3de779d33 660d1f753d6a0353 ae94078b58ad56a7 e7be57c8ca414224 541077dae71a351f 8f520c413aa0f6c3
linear-side-refine.0/2x4 112a0721d70c478b 1a84ca4f5e583ed3 4ba9da34edf1ba42 5a1e679f1113924e 50e8e631ae44d09c 6b6bb5a19475651e
linear-side-refine.1/2x2 7d758b61013cf94b 41cea4ad26a54079 46f248d8217bf613 cb31a328aa1a9736 0725733ecfaf2f7c aeffeb1ccf4024a6
linear-side-refine.1/3x3 77dfd69d78922e1b c6b3d00ad4792cdb 28327333fef69607 1fcb1ad312e41523 01aba3909b35c303 0f990536d1cd5d5b
linear-side-refine.1/4x4 dbe268f67471c851 45f6f2b40bd5c2ac 42014b671cca6ca7 d4ed8f731f544c97 7b2dac204605d59b eb6122fdbc0d036a
linear-side-refine.1/2x4 5aed0dd69fdc8a49 afede5aeec70ff24 d49d51b5747ffb09 d06c1f7e3078164a 796c34bf29e7097e e7c75a8ba027401d
node-injection-coarsen/2x2 80f0d131717ff85f 01c7129223598535 025dcb1cd6fc252f 23f022fbccde109e d8d8acb6477bae35 b2b439d73410733e
node-injection-coarsen/3x3 8c16adf29ba1573c d5ed650244dcf07d 52db3b9a94f93767 1bfdec94ab708f20 0c60d48c4e581257 ab0a87c02bfd2139
node-injection-coarsen/4x4 6a9c891c7a06116e 680eb1244fe928e8 3c2a511181a6cea0 3e175f016fc17268 724e9923ff12ac55 7715c598af8cc9c5
node-injection-coarsen/2x4 655f60681d477416 a391ad733244e45b 0994bea774aff6bf 4605264ebe28eaa1 e11c4064bb8430c7 95e8170698169db3
volume-weighted-coarsen/2x2 d7db28e5ee56172e 2cef8fc09c88d56f 2a999dadb20900f5 aa06707b890cb5ef a27359f0d65e8246 95ec5baa8b2f55d3
volume-weighted-coarsen/3x3 a52171dee34a3cb5 ab515433689856d3 61c4314f9031bc64 81c75c9c138ad3f4 c2b5b565c981f80e eecef8cbb084c683
volume-weighted-coarsen/4x4 b2889eb287252fa7 449ded172a1358a3 5727ad4aabeb7867 9115d241a55ed5d7 fb616fb649ca7c6f bd3d87d86fa1b2f3
volume-weighted-coarsen/2x4 be631e8a36c1cac0 9e3925113bdd278b 9040f7ea04d41253 5f8433e8078ac6d3 6314ccab32692691 f0e13d5694238666
mass-weighted-coarsen/2x2 2942cb5f308443aa 946ff6fea57d17a7 2ef73faa91975cbd 3365e5293f3cf0ad 4ca678f3e6bc6283 a29001a2de15701e
mass-weighted-coarsen/3x3 b691886f05925243 96f5bcf54d029b6c 1a2448f8ca52d108 0ad2af34251514e7 02a35f5329db6a38 c641a5c3b306676c
mass-weighted-coarsen/4x4 6728851131dd46f4 ea82dce6a570dcf6 1160d4a5127736ae 27b91ac40fe43012 4eadad6a08e63233 1f363189b9b8b0c3
mass-weighted-coarsen/2x4 a4cea71c4184c4ca be333305c510e6b0 c7426889dbd06592 2fa2035dafe319e5 efabcd82d64d7d1b e1aa8c52c7445dd6
copy_from/f64 9076597b0f5d8f5f 152b94ff31089c5f
pack/f64 c0286213696d976e 5c0d869beb8ee481
unpack/f64 9076597b0f5d8f5f 152b94ff31089c5f
copy_from/i32 41056dfc0ed2ea1e 45c22dc9e1b8021e
pack/i32 fe81a3e2806c1d8a 6e9a2f97f5e57d74
unpack/i32 41056dfc0ed2ea1e 45c22dc9e1b8021e";

const RATIOS: [IntVector; 4] =
    [IntVector::uniform(2), IntVector::uniform(3), IntVector::uniform(4), IntVector::new(2, 4)];

/// The coarse cell box of every operator case: it straddles the origin,
/// so fills reach indices where `div_euclid` and truncation differ.
const COARSE: GBox = GBox::from_coords(-4, -3, 5, 4);

/// What an untouched destination value holds: the digests cover whole
/// arrays, so they also pin "nothing outside the fill is written".
const SENTINEL: f64 = -7.25;

/// splitmix64 — the test's own generator, so the frozen constants
/// depend on nothing outside this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` seeded values in `[lo, hi)`.
fn field(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| lo + (hi - lo) * ((splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64))
        .collect()
}

/// `n` seeded tag-like integers of both signs.
fn int_field(seed: u64, n: usize) -> Vec<i32> {
    let mut state = seed;
    (0..n).map(|_| (splitmix(&mut state) >> 40) as i32 - (1 << 23)).collect()
}

/// An element the digests can absorb.
trait Bits: DeviceElement {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for i32 {
    fn bits(self) -> u64 {
        self as u64
    }
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Where the arrays of a case live.
enum Placement {
    Host,
    Device(Device),
}

impl Placement {
    fn name(&self) -> &'static str {
        match self {
            Placement::Host => "host",
            Placement::Device(_) => "device",
        }
    }

    /// Patch data holding `image(len)`, row-major over its data box.
    fn make<T: Bits>(
        &self,
        cell_box: GBox,
        ghosts: IntVector,
        centring: Centring,
        image: impl FnOnce(usize) -> Vec<T>,
    ) -> Box<dyn PatchData> {
        let n = centring.data_box(cell_box.grow(ghosts)).num_cells() as usize;
        match self {
            Placement::Host => {
                let mut d = HostData::<T>::new(cell_box, ghosts, centring);
                d.as_mut_slice().copy_from_slice(&image(n));
                Box::new(d)
            }
            Placement::Device(device) => {
                let mut d = DeviceData::<T>::new(device, cell_box, ghosts, centring);
                d.upload_all(&image(n), Category::Other);
                Box::new(d)
            }
        }
    }

    /// Digest of every stored value of `d`.
    fn digest_of<T: Bits>(&self, d: &dyn PatchData) -> u64 {
        let values = match self {
            Placement::Host => {
                d.as_any().downcast_ref::<HostData<T>>().unwrap().as_slice().to_vec()
            }
            Placement::Device(_) => {
                d.as_any().downcast_ref::<DeviceData<T>>().unwrap().download_all(Category::Other)
            }
        };
        digest(values.into_iter().map(Bits::bits))
    }
}

/// Row name (the operator's, with the side axis), operator and centring
/// of every refine case.
const REFINE_ROWS: [(&str, &dyn RefineOperator, Centring); 5] = [
    ("linear-node-refine", &LinearNodeRefine, Centring::Node),
    ("conservative-linear-cell-refine", &ConservativeCellRefine, Centring::Cell),
    ("constant-refine", &ConstantRefine, Centring::Cell),
    ("linear-side-refine.0", &LinearSideRefine { axis: 0 }, Centring::Side(0)),
    ("linear-side-refine.1", &LinearSideRefine { axis: 1 }, Centring::Side(1)),
];

/// Row name, operator and centring of every coarsen case.
const COARSEN_ROWS: [(&str, &dyn CoarsenOperator, Centring); 3] = [
    ("node-injection-coarsen", &NodeInjectionCoarsen, Centring::Node),
    ("volume-weighted-coarsen", &VolumeWeightedCoarsen, Centring::Cell),
    ("mass-weighted-coarsen", &MassWeightedCoarsen, Centring::Cell),
];

fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
    GBox::from_coords(x0, y0, x1, y1)
}

/// The fine fill lists of a refine case whose destination stores
/// `dst_dbox`: clear of every clamp; the whole destination, which
/// reaches a coarse cell past the source's data on every side, so
/// every clamp arm fires; negative indices off the ratio's grid; one
/// row and one column across the origin; two disjoint boxes.
fn refine_fills(dst_dbox: GBox, r: IntVector) -> [BoxList; 6] {
    let (rx, ry) = (r.x, r.y);
    [
        BoxList::from_box(b(rx, ry, 4 * rx, 3 * ry)),
        BoxList::from_box(dst_dbox),
        BoxList::from_box(b(-2 * rx - 1, -2 * ry - 1, -1, -1)),
        BoxList::from_box(b(-rx - 1, -1, 2 * rx + 1, 0)),
        BoxList::from_box(b(-1, -ry - 1, 0, 2 * ry + 1)),
        BoxList::from_boxes([b(-3 * rx + 1, -2 * ry, -rx, -1), b(1, 1, 2 * rx + 2, ry + 2)]),
    ]
}

/// The coarse fill lists of a coarsen case reading a fine source that
/// stores `src_dbox`, in the order of [`refine_fills`]; the second is
/// the largest coarse box whose reads stay inside the source.
fn coarsen_fills(src_dbox: GBox, r: IntVector, centring: Centring) -> [BoxList; 6] {
    // A coarse cell reads its whole block, a coarse node one fine node.
    let reach = if centring == Centring::Cell { r } else { IntVector::ONE };
    let lo = src_dbox.lo.div_ceil(r);
    let hi = (src_dbox.hi - reach).div_floor(r) + IntVector::ONE;
    [
        BoxList::from_box(b(1, 1, 4, 3)),
        BoxList::from_box(GBox::new(lo, hi)),
        BoxList::from_box(b(-3, -2, -1, -1)),
        BoxList::from_box(b(-2, -1, 3, 0)),
        BoxList::from_box(b(-1, -2, 0, 3)),
        BoxList::from_boxes([b(-4, -3, -2, -1), b(0, 0, 3, 2)]),
    ]
}

fn ratio_name(r: IntVector) -> String {
    format!("{}x{}", r.x, r.y)
}

fn row(name: &str, hashes: impl IntoIterator<Item = u64>) -> String {
    let hashes: Vec<String> = hashes.into_iter().map(|h| format!("{h:016x}")).collect();
    format!("{name} {}", hashes.join(" "))
}

fn refine_rows(p: &Placement, rows: &mut Vec<String>) {
    for (name, op, centring) in REFINE_ROWS {
        for (k, &r) in RATIOS.iter().enumerate() {
            let src =
                p.make(COARSE, IntVector::ONE, centring, |n| field(1000 + k as u64, n, -3.0, 5.0));
            let fine_box = COARSE.refine(r);
            let dst_ghosts = r.scale(IntVector::uniform(2));
            let dst_dbox = centring.data_box(fine_box.grow(dst_ghosts));
            let hashes = refine_fills(dst_dbox, r).map(|fill| {
                let mut dst = p.make(fine_box, dst_ghosts, centring, |n| vec![SENTINEL; n]);
                dst.refine_from(op, src.as_ref(), &fill, r);
                p.digest_of::<f64>(dst.as_ref())
            });
            rows.push(row(&format!("{name}/{}", ratio_name(r)), hashes));
        }
    }
}

fn coarsen_rows(p: &Placement, rows: &mut Vec<String>) {
    for (name, op, centring) in COARSEN_ROWS {
        for (k, &r) in RATIOS.iter().enumerate() {
            let fine_box = COARSE.refine(r);
            let ghosts = IntVector::uniform(2);
            let src_dbox = centring.data_box(fine_box.grow(ghosts));
            let src = p.make(fine_box, ghosts, centring, |n| field(2000 + k as u64, n, -3.0, 5.0));
            // The density is zero over three whole coarse cells (the
            // vacuum arm) and positive elsewhere.
            let rho = p.make(fine_box, ghosts, centring, |n| {
                let mut rho = field(3000 + k as u64, n, 0.1, 2.0);
                for (v, q) in rho.iter_mut().zip(src_dbox.iter()) {
                    let c = q.div_floor(r);
                    if [(1, 1), (-3, -2), (2, 0)].contains(&(c.x, c.y)) {
                        *v = 0.0;
                    }
                }
                rho
            });
            let aux: Vec<&dyn PatchData> = (0..op.num_aux()).map(|_| rho.as_ref()).collect();
            let hashes = coarsen_fills(src_dbox, r, centring).map(|fill| {
                let mut dst = p.make(COARSE.grow(IntVector::ONE), IntVector::ZERO, centring, |n| {
                    vec![SENTINEL; n]
                });
                dst.coarsen_from(op, src.as_ref(), &aux, &fill, r);
                p.digest_of::<f64>(dst.as_ref())
            });
            rows.push(row(&format!("{name}/{}", ratio_name(r)), hashes));
        }
    }
}

/// `copy_from`, `pack` and `unpack` of element type `T` between two
/// neighbouring 6 × 5 patches with two ghosts, through a two-box
/// overlap: the destination's high-x ghosts with no shift, and its
/// low-x ghosts through the periodic image 12 cells away.
fn movement_rows<T: Bits>(
    p: &Placement,
    ty: &str,
    image: impl Fn(u64, usize) -> Vec<T>,
    rows: &mut Vec<String>,
) {
    let ghosts = IntVector::uniform(2);
    let (dst_box, src_box) = (b(0, 0, 6, 5), b(6, 0, 12, 5));
    let overlaps = [
        BoxOverlap {
            dst_boxes: BoxList::from_boxes([b(6, 0, 8, 5), b(6, 5, 8, 7)]),
            shift: IntVector::ZERO,
            centring: Centring::Cell,
        },
        BoxOverlap {
            dst_boxes: BoxList::from_boxes([b(-2, 0, 0, 5), b(-2, -2, 0, 0)]),
            shift: IntVector::new(-12, 0),
            centring: Centring::Cell,
        },
    ];
    let src = p.make(src_box, ghosts, Centring::Cell, |n| image(4000, n));
    let dst = || p.make(dst_box, ghosts, Centring::Cell, |n| image(5000, n));
    let copied = overlaps.each_ref().map(|ov| {
        let mut dst = dst();
        dst.copy_from(src.as_ref(), ov);
        p.digest_of::<T>(dst.as_ref())
    });
    let packed = overlaps.each_ref().map(|ov| {
        let stream = src.pack(ov);
        assert_eq!(stream.len(), src.stream_size(ov));
        digest(stream.iter().map(|&byte| u64::from(byte)))
    });
    let unpacked = overlaps.each_ref().map(|ov| {
        let mut dst = dst();
        dst.unpack(ov, &src.pack(ov));
        p.digest_of::<T>(dst.as_ref())
    });
    rows.push(row(&format!("copy_from/{ty}"), copied));
    rows.push(row(&format!("pack/{ty}"), packed));
    rows.push(row(&format!("unpack/{ty}"), unpacked));
}

#[test]
fn every_operator_matches_its_frozen_bits_on_both_placements() {
    let frozen: Vec<&str> = FROZEN_BITS.lines().collect();
    for p in [Placement::Host, Placement::Device(Device::k20x())] {
        let mut computed = Vec::new();
        refine_rows(&p, &mut computed);
        coarsen_rows(&p, &mut computed);
        movement_rows::<f64>(&p, "f64", |seed, n| field(seed, n, -9.0, 9.0), &mut computed);
        movement_rows::<i32>(&p, "i32", int_field, &mut computed);
        let moved: Vec<&str> =
            computed.iter().map(String::as_str).filter(|row| !frozen.contains(row)).collect();
        assert!(
            moved.is_empty() && computed.len() == frozen.len(),
            "{}: {} of {} rows left their frozen bits (operator/ratio, then interior / edges / \
             negative / one row / one column / two boxes; movement/type, then zero / periodic \
             shift):\n{}",
            p.name(),
            moved.len(),
            computed.len(),
            moved.join("\n")
        );
    }
}
