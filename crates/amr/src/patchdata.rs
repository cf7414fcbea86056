//! The `PatchData` interface (the paper's Figure 2).

use crate::ops::{CoarsenOperator, RefineOperator};
use bytes::Bytes;
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use std::any::Any;
use std::ops::Range;

/// Scalar element types storable in patch data.
///
/// Exactly two are needed: `f64` for simulation quantities and `i32`
/// for refinement tags (SAMRAI stores tags as integer cell data).
pub trait Element: Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Size of the serialised element in bytes.
    const BYTES: usize;
    /// Append the little-endian encoding to `out`.
    fn write_to(self, out: &mut Vec<u8>);
    /// Decode from the first `Self::BYTES` bytes of `src`.
    fn read_from(src: &[u8]) -> Self;

    /// The wire format of every placement: the encodings of `values`,
    /// in order, appended to `out` (which the caller sizes: a stream is
    /// usually many slices).
    fn encode(values: &[Self], out: &mut Vec<u8>) {
        for v in values {
            v.write_to(out);
        }
    }

    /// Decode `stream`, which holds exactly `out.len()` elements, into
    /// `out`.
    ///
    /// # Panics
    /// Panics if the lengths disagree.
    fn decode(stream: &[u8], out: &mut [Self]) {
        assert_eq!(stream.len(), out.len() * Self::BYTES, "decode: stream length mismatch");
        for (v, bytes) in out.iter_mut().zip(stream.chunks_exact(Self::BYTES)) {
            *v = Self::read_from(bytes);
        }
    }
}

impl Element for f64 {
    const BYTES: usize = 8;
    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(src: &[u8]) -> Self {
        f64::from_le_bytes(src[..8].try_into().expect("short f64 stream"))
    }
}

impl Element for i32 {
    const BYTES: usize = 4;
    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(src: &[u8]) -> Self {
        i32::from_le_bytes(src[..4].try_into().expect("short i32 stream"))
    }
}

/// One simulation quantity on one patch — the reproduction of SAMRAI's
/// `PatchData` interface (paper Figure 2).
///
/// Everything the framework does with data goes through this interface:
/// same-level copies (`copy`/`copy2` in the original), message packing
/// and unpacking for MPI transfers (`packStream`/`unpackStream`,
/// `getDataStreamSize`), running an inter-level operator on the data,
/// and restart serialisation. Implementations
/// decide where the values live: [`HostData`](crate::HostData) keeps
/// them in host memory; the `rbamr-gpu-amr` crate keeps them resident in
/// (simulated) device memory and implements these methods with
/// data-parallel kernels — the paper's core contribution.
pub trait PatchData: Send {
    /// Upcast for concrete-type access ("downcasting" in SAMRAI terms).
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The interior cell box this data covers (`getBox()`).
    fn cell_box(&self) -> GBox;

    /// Ghost width in cells (`getGhostCellWidth()`).
    fn ghosts(&self) -> IntVector;

    /// The data centring.
    fn centring(&self) -> Centring;

    /// Interior plus ghosts, in cell space (`getGhostBox()`).
    fn ghost_cell_box(&self) -> GBox {
        self.cell_box().grow(self.ghosts())
    }

    /// The index box of stored values: the centring-adjusted ghost box.
    fn data_box(&self) -> GBox {
        self.centring().data_box(self.ghost_cell_box())
    }

    /// Simulation time of the stored values (`getTime()`).
    fn time(&self) -> f64;

    /// Set the simulation time (`setTime()`).
    fn set_time(&mut self, time: f64);

    /// Copy the overlap region from `src` into `self` (`copy(src,
    /// overlap)`).
    ///
    /// # Panics
    /// Panics if `src` is not the same concrete type, the centrings
    /// differ, or the overlap is not contained in both data boxes —
    /// all schedule-construction bugs.
    fn copy_from(&mut self, src: &dyn PatchData, overlap: &BoxOverlap);

    /// Exact size in bytes of the stream [`PatchData::pack`] produces
    /// for this overlap (`getDataStreamSize`).
    fn stream_size(&self, overlap: &BoxOverlap) -> usize;

    /// Pack the source values for `overlap` into a contiguous stream
    /// (`packStream`). The overlap's boxes are in *destination* index
    /// space; this (source) side reads at `index - shift`. Values are
    /// streamed box by box in row-major order.
    fn pack(&self, overlap: &BoxOverlap) -> Bytes;

    /// Unpack a stream produced by a matching [`PatchData::pack`] into
    /// the overlap region (`unpackStream`).
    ///
    /// # Panics
    /// Panics if the stream is not exactly [`PatchData::stream_size`]
    /// bytes long.
    fn unpack(&mut self, overlap: &BoxOverlap, stream: &[u8]);

    /// Clamp-extend values into cells not covered by `covered` (used on
    /// interpolation scratch at physical-domain corners, where no
    /// coarse source exists): each uncovered index copies the value at
    /// its coordinates clamped into the covered bounding box. A no-op
    /// when `covered` is empty or covers the whole data box.
    fn extend_uncovered(&mut self, covered: &BoxList);

    /// Fill `fills` (fine data space) of `self` by interpolating the
    /// coarse `src` with `op` — one job; a schedule stage goes through
    /// [`DataFactory::refine_many`](crate::DataFactory::refine_many).
    ///
    /// # Panics
    /// Panics if `src` or `self` is not `f64` data of this placement.
    fn refine_from(
        &mut self,
        op: &dyn RefineOperator,
        src: &dyn PatchData,
        fills: &BoxList,
        ratio: IntVector,
    );

    /// Fill `fills` (coarse data space) of `self` by projecting the fine
    /// `src` with `op`, which also reads `aux` — one job; a stage goes
    /// through [`DataFactory::coarsen_many`](crate::DataFactory::coarsen_many).
    ///
    /// # Panics
    /// As [`PatchData::refine_from`], and as
    /// [`shared_source_box`](crate::ops::shared_source_box) for the
    /// sources.
    fn coarsen_from(
        &mut self,
        op: &dyn CoarsenOperator,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        fills: &BoxList,
        ratio: IntVector,
    );
}

/// Compute the (target, source) index pairs for
/// [`PatchData::extend_uncovered`]: pure index arithmetic shared by the
/// host and device implementations. Only the cells of `data_box` that
/// `covered` leaves, found by box calculus, are visited — box by box,
/// row by row — so a covered array costs one subtraction. A target's
/// source is its clamp into `covered`'s bounding box; when one box of
/// `covered` is that bound, every clamp lands in it and no source is
/// tested. Targets are uncovered and sources covered, so the pairs may
/// be applied in any order.
pub fn extension_pairs(data_box: GBox, covered: &BoxList) -> Vec<(usize, usize)> {
    if covered.is_empty() {
        return Vec::new();
    }
    let mut uncovered = BoxList::from_box(data_box);
    uncovered.subtract(covered);
    let bound = covered.bounding();
    let one_box = covered.boxes().contains(&bound);
    let mut pairs = Vec::with_capacity(uncovered.num_cells() as usize);
    for b in uncovered.boxes() {
        for y in b.lo.y..b.hi.y {
            let qy = y.clamp(bound.lo.y, bound.hi.y - 1);
            for x in b.lo.x..b.hi.x {
                let q = IntVector::new(x.clamp(bound.lo.x, bound.hi.x - 1), qy);
                if one_box || covered.contains(q) {
                    pairs.push((data_box.offset_of(IntVector::new(x, y)), data_box.offset_of(q)));
                }
            }
        }
    }
    pairs
}

/// Validate that an overlap is usable between a source and destination:
/// same centring, destination boxes inside the destination data box and
/// shifted boxes inside the source data box. Shared by host and device
/// implementations.
pub fn validate_overlap(
    overlap: &BoxOverlap,
    src_data_box: GBox,
    dst_data_box: GBox,
    centring: Centring,
) {
    assert_eq!(overlap.centring, centring, "overlap centring mismatch");
    for b in overlap.dst_boxes.boxes() {
        assert!(
            dst_data_box.contains_box(*b),
            "overlap box {b:?} outside destination data box {dst_data_box:?}"
        );
        let src_b = b.shift(-overlap.shift);
        assert!(
            src_data_box.contains_box(src_b),
            "overlap box {src_b:?} (shifted) outside source data box {src_data_box:?}"
        );
    }
}

/// The flat index range of each row of `fill`, in order, within an
/// array laid out row-major over `dbox` — the one row walk under the
/// region kernels below, `HostData`'s pack and unpack, and the operator
/// row driver [`each_row`](crate::ops::each_row).
///
/// # Panics
/// Panics if `fill` escapes `dbox`, in every profile: the flat range of
/// a row that leaves its box is still inside the array and would
/// silently move the neighbouring row's values.
pub fn region_rows(dbox: GBox, fill: GBox) -> impl Iterator<Item = Range<usize>> {
    assert!(dbox.contains_box(fill), "region {fill:?} escapes the data box {dbox:?}");
    let (w, stride) = (fill.size().x.max(0) as usize, dbox.size().x as usize);
    let first = if fill.is_empty() { 0 } else { dbox.offset_of(fill.lo) };
    (0..fill.size().y.max(0) as usize).map(move |r| first + r * stride..first + r * stride + w)
}

/// Copy `fill` (a box in the destination's index space) from `src` into
/// `dst`. `src_index = dst_index - shift`; `dst_dbox` / `src_dbox`
/// describe the row-major layouts of the two arrays.
///
/// This and its two siblings are the paper's Figure 4 kernels. There one
/// logical thread moves one element; here a row is one
/// `copy_from_slice`, and every placement runs these same bodies —
/// `HostData` directly, device data inside a launch.
///
/// # Panics
/// Panics if the fill region escapes either array.
pub fn copy_region<T: Copy>(
    dst: &mut [T],
    dst_dbox: GBox,
    src: &[T],
    src_dbox: GBox,
    fill: GBox,
    shift: IntVector,
) {
    let rows = region_rows(dst_dbox, fill).zip(region_rows(src_dbox, fill.shift(-shift)));
    for (to, from) in rows {
        dst[to].copy_from_slice(&src[from]);
    }
}

/// Pack `fill` (in the destination's index space; this side reads at
/// `index - shift`) from `src` into the contiguous `out` buffer,
/// row-major.
///
/// # Panics
/// Panics if the region escapes `src` or `out.len()` is not its size.
pub fn pack_region<T: Copy>(
    out: &mut [T],
    src: &[T],
    src_dbox: GBox,
    fill: GBox,
    shift: IntVector,
) {
    assert_eq!(out.len(), fill.num_cells() as usize, "pack_region: buffer size mismatch");
    let mut at = 0;
    for from in region_rows(src_dbox, fill.shift(-shift)) {
        let n = from.len();
        out[at..at + n].copy_from_slice(&src[from]);
        at += n;
    }
}

/// Unpack a contiguous row-major buffer into `fill` of `dst`.
///
/// # Panics
/// Panics if `fill` escapes `dst` or `input.len()` is not its size.
pub fn unpack_region<T: Copy>(dst: &mut [T], dst_dbox: GBox, input: &[T], fill: GBox) {
    assert_eq!(input.len(), fill.num_cells() as usize, "unpack_region: buffer size mismatch");
    let mut at = 0;
    for to in region_rows(dst_dbox, fill) {
        let n = to.len();
        dst[to].copy_from_slice(&input[at..at + n]);
        at += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let mut buf = Vec::new();
        (-3.25f64).write_to(&mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(f64::read_from(&buf), -3.25);
    }

    #[test]
    fn i32_roundtrip() {
        let mut buf = Vec::new();
        (-7i32).write_to(&mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(i32::read_from(&buf), -7);
    }

    #[test]
    fn validate_overlap_accepts_contained() {
        let dst = GBox::from_coords(0, 0, 4, 4);
        let src = GBox::from_coords(2, 0, 8, 4);
        let ov = rbamr_geometry::copy_overlap(dst, src, Centring::Cell);
        validate_overlap(&ov, src, dst, Centring::Cell);
    }

    #[test]
    #[should_panic(expected = "outside destination")]
    fn validate_overlap_rejects_escapes() {
        let ov = BoxOverlap {
            dst_boxes: BoxList::from_box(GBox::from_coords(0, 0, 9, 9)),
            shift: IntVector::ZERO,
            centring: Centring::Cell,
        };
        validate_overlap(
            &ov,
            GBox::from_coords(0, 0, 9, 9),
            GBox::from_coords(0, 0, 4, 4),
            Centring::Cell,
        );
    }

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn field(dbox: GBox) -> Vec<f64> {
        dbox.iter().map(|p| (p.x * 1000 + p.y) as f64).collect()
    }

    #[test]
    fn slice_codec_is_the_per_element_format() {
        let values = [-3.25f64, 0.0, 7.5];
        let mut stream = vec![9u8];
        f64::encode(&values, &mut stream);
        let mut per_element = vec![9u8];
        values.iter().for_each(|v| v.write_to(&mut per_element));
        assert_eq!(stream, per_element);
        let mut back = [1.0; 3];
        f64::decode(&stream[1..], &mut back);
        assert_eq!(back, values);
    }

    #[test]
    fn copy_region_moves_exactly_the_fill() {
        let dst_dbox = b(0, 0, 6, 6);
        let src_dbox = b(4, 0, 10, 6);
        let src = field(src_dbox);
        let mut dst = vec![0.0; 36];
        let fill = b(4, 1, 6, 4);
        copy_region(&mut dst, dst_dbox, &src, src_dbox, fill, IntVector::ZERO);
        for p in dst_dbox.iter() {
            let got = dst[dst_dbox.offset_of(p)];
            if fill.contains(p) {
                assert_eq!(got, (p.x * 1000 + p.y) as f64, "at {p}");
            } else {
                assert_eq!(got, 0.0, "at {p}");
            }
        }
    }

    #[test]
    fn copy_region_applies_shift() {
        let dbox = b(0, 0, 4, 4);
        let src = field(dbox);
        let mut dst = vec![0.0; 16];
        // Destination index p reads source p - (1, 0).
        let fill = b(1, 0, 4, 4);
        copy_region(&mut dst, dbox, &src, dbox, fill, IntVector::new(1, 0));
        assert_eq!(dst[dbox.offset_of(IntVector::new(1, 2))], 2.0); // src (0,2)
    }

    #[test]
    fn pack_then_unpack_is_identity() {
        let src_dbox = b(-2, -2, 6, 6);
        let src = field(src_dbox);
        let fill = b(0, 0, 4, 3);
        let mut buf = vec![0.0; fill.num_cells() as usize];
        pack_region(&mut buf, &src, src_dbox, fill, IntVector::ZERO);
        let dst_dbox = b(-1, -1, 5, 5);
        let mut dst = vec![0.0; 36];
        unpack_region(&mut dst, dst_dbox, &buf, fill);
        for p in fill.iter() {
            assert_eq!(dst[dst_dbox.offset_of(p)], (p.x * 1000 + p.y) as f64);
        }
    }

    #[test]
    fn pack_order_is_row_major() {
        let dbox = b(0, 0, 3, 3);
        let src: Vec<f64> = (0..9).map(f64::from).collect();
        let fill = b(1, 0, 3, 2);
        let mut buf = vec![0.0; 4];
        pack_region(&mut buf, &src, dbox, fill, IntVector::ZERO);
        assert_eq!(buf, vec![1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn empty_fill_is_a_noop() {
        let mut dst = vec![1.0; 4];
        copy_region(
            &mut dst,
            b(0, 0, 2, 2),
            &[0.0; 4],
            b(0, 0, 2, 2),
            GBox::EMPTY,
            IntVector::ZERO,
        );
        assert_eq!(dst, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn unpack_checks_buffer_size() {
        let mut dst = vec![0.0; 4];
        unpack_region(&mut dst, b(0, 0, 2, 2), &[0.0; 3], b(0, 0, 2, 2));
    }

    /// The per-point scan [`extension_pairs`] replaced: every index of
    /// the data box tested against `covered`.
    fn extension_pairs_scan(data_box: GBox, covered: &BoxList) -> Vec<(usize, usize)> {
        if covered.is_empty() {
            return Vec::new();
        }
        let bound = covered.bounding();
        let mut pairs = Vec::new();
        for p in data_box.iter() {
            if !covered.contains(p) {
                let q = IntVector::new(
                    p.x.clamp(bound.lo.x, bound.hi.x - 1),
                    p.y.clamp(bound.lo.y, bound.hi.y - 1),
                );
                if covered.contains(q) {
                    pairs.push((data_box.offset_of(p), data_box.offset_of(q)));
                }
            }
        }
        pairs
    }

    /// The walk [`extension_pairs`] makes, as it was before a single
    /// bounding box skipped the source tests: every uncovered cell in
    /// the cover's box order, each clamped source tested.
    fn extension_pairs_walk(data_box: GBox, covered: &BoxList) -> Vec<(usize, usize)> {
        if covered.is_empty() {
            return Vec::new();
        }
        let mut uncovered = BoxList::from_box(data_box);
        uncovered.subtract(covered);
        let bound = covered.bounding();
        let mut pairs = Vec::new();
        for p in uncovered.boxes().iter().flat_map(|b| b.iter()) {
            let q = IntVector::new(
                p.x.clamp(bound.lo.x, bound.hi.x - 1),
                p.y.clamp(bound.lo.y, bound.hi.y - 1),
            );
            if covered.contains(q) {
                pairs.push((data_box.offset_of(p), data_box.offset_of(q)));
            }
        }
        pairs
    }

    /// A box of `dbox` from four fractions: its corner, then its extent.
    fn sub_box(dbox: GBox, (fx, fy, fw, fh): (f64, f64, f64, f64)) -> GBox {
        let s = dbox.size();
        let lo = dbox.lo + IntVector::new((fx * s.x as f64) as i64, (fy * s.y as f64) as i64);
        let rest = dbox.hi - lo;
        let size = IntVector::new(1 + (fw * rest.x as f64) as i64, 1 + (fh * rest.y as f64) as i64);
        GBox::new(lo, (lo + size).min(dbox.hi))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The box-calculus walk and the per-point scan pick the same
        /// pairs over every centring and shape of cover: none, all of
        /// the data box, an L, one box inside it, and up to four
        /// overlapping boxes; and the walk's order is the order of the
        /// walk that tested every source.
        #[test]
        fn extension_pairs_equal_the_per_point_scan(
            lo in (-6i64..6, -6i64..6),
            size in (1i64..10, 1i64..10),
            centring in proptest::sample::select(
                vec![Centring::Cell, Centring::Node, Centring::Side(0), Centring::Side(1)],
            ),
            shape in 0u8..5,
            fractions in proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                1..5,
            ),
        ) {
            let cells = GBox::new(IntVector::new(lo.0, lo.1), IntVector::new(lo.0 + size.0, lo.1 + size.1));
            let dbox = centring.data_box(cells);
            let covered = match shape {
                0 => BoxList::new(),
                1 => BoxList::from_box(dbox),
                2 => {
                    // An L: the data box less a corner box.
                    let mut l = BoxList::from_box(dbox);
                    l.subtract_box(GBox::new(sub_box(dbox, fractions[0]).lo, dbox.hi));
                    l
                }
                3 => BoxList::from_box(sub_box(dbox, fractions[0])),
                _ => BoxList::from_boxes(fractions.iter().map(|&f| sub_box(dbox, f))),
            };
            let mut fast = extension_pairs(dbox, &covered);
            proptest::prop_assert_eq!(&fast, &extension_pairs_walk(dbox, &covered));
            let mut scan = extension_pairs_scan(dbox, &covered);
            fast.sort_unstable();
            scan.sort_unstable();
            proptest::prop_assert_eq!(fast, scan);
        }
    }

    #[test]
    #[should_panic(expected = "escapes the data box")]
    fn pack_checks_the_source_in_every_profile() {
        // One column past the source: an unchecked row copy would wrap
        // into the next row instead of failing.
        let mut buf = vec![0.0; 4];
        pack_region(&mut buf, &[0.0; 9], b(0, 0, 3, 3), b(2, 0, 4, 2), IntVector::ZERO);
    }
}
