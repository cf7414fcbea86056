//! Inter-level data operators: refine (coarse → fine) and coarsen
//! (fine → coarse).
//!
//! These traits reproduce SAMRAI's `RefineOperator` / `CoarsenOperator`
//! interfaces (paper Section IV-B). An operator is data: a name, a
//! stencil, a `fill` that drives its row body from [`rows`] over the
//! rows of a fill list, and the `(arrays, flops)` cost of one value.
//! Where it runs is the data's business, with the per-item / per-stage
//! split of every other data movement: [`PatchData::refine_from`] /
//! [`PatchData::coarsen_from`] run one job, and
//! [`DataFactory::refine_many`](crate::DataFactory::refine_many) /
//! [`DataFactory::coarsen_many`](crate::DataFactory::coarsen_many) run a
//! stage. `HostData` calls `fill` on its slices; the device data of
//! `rbamr-gpu-amr` calls it inside one launch per stage (the paper's
//! claimed first data-parallel implementations). So the one operator set
//! serves every placement, and host = device holds by construction.
//!
//! Dispatch granularity: `fill` is the one dynamic call, once per job
//! (one fill list); its loop calls the row body statically. A draft that
//! crossed `dyn` once per *row* was bit-identical but cost 10-20 % on
//! the 16 × 16-patch refine and coarsen probes.
//!
//! Index conventions: operators receive *data-space* fill boxes (already
//! centring-adjusted). Reads outside the source's data box are clamped
//! (one-sided differences at physical boundaries); the schedule
//! guarantees the source covers the coarsened fill region plus the
//! stencil wherever coarse data exists.

use crate::patchdata::{region_rows, PatchData};
use rbamr_geometry::{BoxList, GBox, IntVector};

/// Interpolate coarse data onto a finer level.
pub trait RefineOperator: Send + Sync {
    /// Operator name for diagnostics, plan digests and schedule-cache
    /// keys.
    fn name(&self) -> &'static str;

    /// Width (in coarse cells) of source data needed beyond the
    /// coarsened fill region.
    fn stencil_width(&self) -> IntVector;

    /// Fill `fills` (fine data space) of `dst`, laid out row-major over
    /// `dbox`, by interpolating the coarse `src`, laid out over `sbox`.
    ///
    /// # Panics
    /// Panics if a fill box is not inside `dbox`.
    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        src: &[f64],
        sbox: GBox,
        ratio: IntVector,
    );

    /// What one fine value costs a launch: `(arrays touched, flops)`.
    fn cost(&self, ratio: IntVector) -> (u32, u32);

    /// Fill `fine_boxes` of `dst` by interpolating `src`, wherever the
    /// two live (see [`PatchData::refine_from`]).
    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) where
        Self: Sized,
    {
        dst.refine_from(self, src, fine_boxes, ratio);
    }
}

/// Project fine data onto a coarser level.
pub trait CoarsenOperator: Send + Sync {
    /// Operator name for diagnostics, plan digests and schedule-cache
    /// keys.
    fn name(&self) -> &'static str;

    /// Auxiliary variables (by registry order chosen by the caller) the
    /// operator reads from the fine patch — e.g. mass-weighted
    /// coarsening reads the fine density. The schedule passes them
    /// after the variable.
    fn num_aux(&self) -> usize {
        0
    }

    /// Fill `fills` (coarse data space) of `dst`, laid out row-major
    /// over `dbox`, from the fine `srcs` — the variable, then the
    /// auxiliaries — all laid out over `sbox` (see [`shared_source_box`]).
    ///
    /// # Panics
    /// Panics if a fill box is not inside `dbox`.
    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        srcs: &[&[f64]],
        sbox: GBox,
        ratio: IntVector,
    );

    /// What one coarse value costs a launch: `(arrays touched, flops)`.
    fn cost(&self, ratio: IntVector) -> (u32, u32);

    /// Fill `coarse_boxes` of `dst` from the fine `src` and `aux`,
    /// wherever they live (see [`PatchData::coarsen_from`]).
    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) where
        Self: Sized,
    {
        dst.coarsen_from(self, src, aux, coarse_boxes, ratio);
    }
}

/// Row driver of every operator: for each row of each box of `fills`,
/// in order, `row(out, at)` receives the fill's stretch of that row of
/// an array laid out over `dbox` and the index `at` of `out[0]`.
///
/// # Panics
/// Panics if a fill box is not inside `dbox`.
pub fn each_row(
    dst: &mut [f64],
    dbox: GBox,
    fills: &BoxList,
    mut row: impl FnMut(&mut [f64], IntVector),
) {
    for fill in fills.boxes() {
        for (y, stretch) in (fill.lo.y..).zip(region_rows(dbox, *fill)) {
            row(&mut dst[stretch], IntVector::new(fill.lo.x, y));
        }
    }
}

/// The one data box the fine sources of a coarsen by `op` — the
/// variable, then the operator's auxiliaries, given by their data boxes
/// — are laid out over: the row bodies index all of them through it.
/// Every placement checks its sources here.
///
/// # Panics
/// Panics, naming the operator, if the sources differ in layout or are
/// not `1 + op.num_aux()` of them.
pub fn shared_source_box(op: &dyn CoarsenOperator, boxes: impl Iterator<Item = GBox>) -> GBox {
    let mut shared = None;
    let mut count = 0;
    for b in boxes {
        let first = *shared.get_or_insert(b);
        assert!(b == first, "{}: coarsen sources differ in layout", op.name());
        count += 1;
    }
    assert_eq!(count, 1 + op.num_aux(), "{}: wrong auxiliary data", op.name());
    shared.expect("a coarsen has a source")
}

/// The arithmetic of every operator, written once. A refine body is
/// `fn(out, at, src, sbox, ratio)`: it fills `out`, the fine values of
/// one row starting at index `at`, from the coarse array `src` laid out
/// row-major over `sbox`. A coarsen body takes `srcs` — the fine
/// variable, then the operator's auxiliaries, all laid out over `sbox` —
/// and fills coarse values. Rows are independent (one logical thread per
/// value in the paper's kernels), so a placement may run them in any
/// order: each operator's `fill` drives its body with [`each_row`], on
/// `HostData` and inside the device launches of `rbamr-gpu-amr` alike.
///
/// Each value's floating-point expression tree is frozen by
/// `crates/gpu-amr/tests/op_bits.rs`. Only index work that does not vary
/// along the row (the `y` quotient, `η`) is hoisted out of the `x` loop.
pub mod rows {
    use rbamr_geometry::{GBox, IntVector};

    /// Clamp `p` into `b` (component-wise).
    #[inline]
    fn clamp_to(b: GBox, p: IntVector) -> IntVector {
        IntVector::new(p.x.clamp(b.lo.x, b.hi.x - 1), p.y.clamp(b.lo.y, b.hi.y - 1))
    }

    /// The value of `src` (row-major over `sbox`) at `(i, j)` clamped
    /// into `sbox`: one-sided stencils at the edge of available source
    /// data.
    #[inline]
    fn clamped(src: &[f64], sbox: GBox, i: i64, j: i64) -> f64 {
        src[sbox.offset_of(clamp_to(sbox, IntVector::new(i, j)))]
    }

    /// The minmod slope limiter used by conservative linear refinement:
    /// returns the smaller-magnitude one-sided difference, or zero at an
    /// extremum.
    #[inline]
    pub(super) fn minmod(a: f64, b: f64) -> f64 {
        if a * b <= 0.0 {
            0.0
        } else if a.abs() < b.abs() {
            a
        } else {
            b
        }
    }

    /// [`LinearNodeRefine`](super::LinearNodeRefine): exactly the index
    /// arithmetic of Figure 5b.
    pub fn linear_node(out: &mut [f64], at: IntVector, src: &[f64], sbox: GBox, r: IntVector) {
        let (realrat0, realrat1) = (1.0 / r.x as f64, 1.0 / r.y as f64);
        let ic1 = at.y.div_euclid(r.y);
        let ir1 = at.y - ic1 * r.y;
        let yy = ir1 as f64 * realrat1;
        let c = |i, j| clamped(src, sbox, i, j);
        for (x, v) in (at.x..).zip(out) {
            let ic0 = x.div_euclid(r.x);
            let ir0 = x - ic0 * r.x;
            let xx = ir0 as f64 * realrat0;
            *v = (c(ic0, ic1) * (1.0 - xx) + c(ic0 + 1, ic1) * xx) * (1.0 - yy)
                + (c(ic0, ic1 + 1) * (1.0 - xx) + c(ic0 + 1, ic1 + 1) * xx) * yy;
        }
    }

    /// [`ConservativeCellRefine`](super::ConservativeCellRefine).
    pub fn conservative_cell(
        out: &mut [f64],
        at: IntVector,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        let icy = at.y.div_euclid(r.y);
        // Fine-cell centre offset from the coarse-cell centre, in coarse
        // cell widths: mean over the block is zero.
        let eta = ((at.y - icy * r.y) as f64 + 0.5) / r.y as f64 - 0.5;
        let c = |i, j| clamped(src, sbox, i, j);
        for (x, v) in (at.x..).zip(out) {
            let icx = x.div_euclid(r.x);
            let v0 = c(icx, icy);
            let sx = minmod(v0 - c(icx - 1, icy), c(icx + 1, icy) - v0);
            let sy = minmod(v0 - c(icx, icy - 1), c(icx, icy + 1) - v0);
            let xi = ((x - icx * r.x) as f64 + 0.5) / r.x as f64 - 0.5;
            *v = v0 + sx * xi + sy * eta;
        }
    }

    /// [`ConstantRefine`](super::ConstantRefine).
    pub fn constant(out: &mut [f64], at: IntVector, src: &[f64], sbox: GBox, r: IntVector) {
        let icy = at.y.div_euclid(r.y);
        for (x, v) in (at.x..).zip(out) {
            *v = clamped(src, sbox, x.div_euclid(r.x), icy);
        }
    }

    /// [`LinearSideRefine`](super::LinearSideRefine) for faces normal
    /// to `axis`.
    pub fn linear_side(
        axis: usize,
        out: &mut [f64],
        at: IntVector,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        let (r_n, step) = (r.get(axis), IntVector::unit(axis));
        let icy = at.y.div_euclid(r.y);
        for (x, v) in (at.x..).zip(out) {
            let (p, ic) = (IntVector::new(x, at.y), IntVector::new(x.div_euclid(r.x), icy));
            let t = (p.get(axis) - ic.get(axis) * r_n) as f64 / r_n as f64;
            *v = clamped(src, sbox, ic.x, ic.y) * (1.0 - t)
                + clamped(src, sbox, ic.x + step.x, ic.y + step.y) * t;
        }
    }

    /// [`NodeInjectionCoarsen`](super::NodeInjectionCoarsen).
    pub fn node_injection(
        out: &mut [f64],
        at: IntVector,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        let s = srcs[0];
        for (x, v) in (at.x..).zip(out) {
            *v = s[sbox.offset_of(IntVector::new(x, at.y).scale(r))];
        }
    }

    /// [`VolumeWeightedCoarsen`](super::VolumeWeightedCoarsen): Figure 8
    /// row-sliced, `spv` accumulating `fine_data * Vf`.
    pub fn volume_weighted(
        out: &mut [f64],
        at: IntVector,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        let s = srcs[0];
        let vf = 1.0; // fine cell volume (uniform)
        let vc = (r.x * r.y) as f64 * vf;
        for (x, v) in (at.x..).zip(out) {
            let f0 = IntVector::new(x, at.y).scale(r);
            let mut spv = 0.0;
            for j in 0..r.y {
                for i in 0..r.x {
                    spv += s[sbox.offset_of(f0 + IntVector::new(i, j))] * vf;
                }
            }
            *v = spv / vc;
        }
    }

    /// [`MassWeightedCoarsen`](super::MassWeightedCoarsen): `srcs[1]` is
    /// the fine density.
    pub fn mass_weighted(
        out: &mut [f64],
        at: IntVector,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        let (s, rho) = (srcs[0], srcs[1]);
        let n = (r.x * r.y) as f64;
        for (x, v) in (at.x..).zip(out) {
            let f0 = IntVector::new(x, at.y).scale(r);
            let (mut mass, mut weighted, mut plain) = (0.0, 0.0, 0.0);
            for j in 0..r.y {
                for i in 0..r.x {
                    let q = sbox.offset_of(f0 + IntVector::new(i, j));
                    mass += rho[q];
                    weighted += s[q] * rho[q];
                    plain += s[q];
                }
            }
            *v = if mass > 0.0 { weighted / mass } else { plain / n };
        }
    }
}

/// Bilinear interpolation for node-centred data — the paper's Figure 5
/// kernel. A fine node at index `i` maps to coarse interval
/// `ic = floor(i / r)` with offset `x = (i - ic·r)/r`, and is the
/// bilinear blend of the four surrounding coarse nodes. Fine nodes
/// coincident with coarse nodes (`x = y = 0`) copy them exactly.
pub struct LinearNodeRefine;

impl RefineOperator for LinearNodeRefine {
    fn name(&self) -> &'static str {
        "linear-node-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::linear_node(out, at, src, sbox, r));
    }

    fn cost(&self, _: IntVector) -> (u32, u32) {
        (2, 10)
    }
}

/// Conservative linear refinement for cell-centred data: each coarse
/// cell is reconstructed with minmod-limited slopes and sampled at fine
/// cell centres. The per-coarse-cell mean of the fine values equals the
/// coarse value, so total mass/energy is preserved exactly.
pub struct ConservativeCellRefine;

impl RefineOperator for ConservativeCellRefine {
    fn name(&self) -> &'static str {
        "conservative-linear-cell-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::conservative_cell(out, at, src, sbox, r));
    }

    fn cost(&self, _: IntVector) -> (u32, u32) {
        (2, 14)
    }
}

/// Piecewise-constant refinement: every fine value copies its covering
/// coarse value. Used for tag data and as the trivially conservative
/// fallback.
pub struct ConstantRefine;

impl RefineOperator for ConstantRefine {
    fn name(&self) -> &'static str {
        "constant-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ZERO
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::constant(out, at, src, sbox, r));
    }

    fn cost(&self, _: IntVector) -> (u32, u32) {
        (2, 2)
    }
}

/// Linear refinement for side-centred data: linear interpolation along
/// the face-normal axis between bracketing coarse faces, constant in
/// the transverse direction. Side data in CleverLeaf (volume and mass
/// fluxes) is recomputed every step, so this operator only seeds new
/// patches at regrid time.
pub struct LinearSideRefine {
    /// The face-normal axis of the data this operator serves.
    pub axis: usize,
}

impl RefineOperator for LinearSideRefine {
    fn name(&self) -> &'static str {
        "linear-side-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        src: &[f64],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::linear_side(self.axis, out, at, src, sbox, r));
    }

    fn cost(&self, _: IntVector) -> (u32, u32) {
        (2, 6)
    }
}

/// Node-centred injection: a coarse node copies the coincident fine
/// node (`fine = coarse · r`). The paper's node coarsen operator.
pub struct NodeInjectionCoarsen;

impl CoarsenOperator for NodeInjectionCoarsen {
    fn name(&self) -> &'static str {
        "node-injection-coarsen"
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::node_injection(out, at, srcs, sbox, r));
    }

    fn cost(&self, _: IntVector) -> (u32, u32) {
        (2, 1)
    }
}

/// Volume-weighted coarsening (paper Figures 7 and 8): a coarse value is
/// the volume-weighted sum of the fine values covering it,
/// `c_i = Σ_j f_j · vol(j) / vol(i)`. With the uniform cells of a level
/// this reduces to the arithmetic mean of the `r_x · r_y` fine values;
/// the kernel keeps the paper's explicit `V_f`/`V_c` form.
pub struct VolumeWeightedCoarsen;

impl CoarsenOperator for VolumeWeightedCoarsen {
    fn name(&self) -> &'static str {
        "volume-weighted-coarsen"
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::volume_weighted(out, at, srcs, sbox, r));
    }

    fn cost(&self, r: IntVector) -> (u32, u32) {
        (2, (2 * r.x * r.y + 1) as u32)
    }
}

/// Mass-weighted coarsening: for specific (per-mass) quantities such as
/// specific internal energy, conservation requires weighting by cell
/// mass, `c_i = Σ_j f_j ρ_j V_j / Σ_j ρ_j V_j`. The fine density is the
/// single auxiliary input. Falls back to the volume-weighted mean where
/// the covering fine mass is zero (vacuum).
pub struct MassWeightedCoarsen;

impl CoarsenOperator for MassWeightedCoarsen {
    fn name(&self) -> &'static str {
        "mass-weighted-coarsen"
    }

    fn num_aux(&self) -> usize {
        1
    }

    fn fill(
        &self,
        dst: &mut [f64],
        dbox: GBox,
        fills: &BoxList,
        srcs: &[&[f64]],
        sbox: GBox,
        r: IntVector,
    ) {
        each_row(dst, dbox, fills, |out, at| rows::mass_weighted(out, at, srcs, sbox, r));
    }

    fn cost(&self, r: IntVector) -> (u32, u32) {
        (3, (5 * r.x * r.y + 2) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::rows::minmod;
    use super::*;
    use crate::hostdata::HostData;
    use rbamr_geometry::Centring;

    const R2: IntVector = IntVector::uniform(2);

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn linear_field(d: &mut HostData<f64>, a: f64, bx: f64, by: f64) {
        for p in d.data_box().iter() {
            *d.at_mut(p) = a + bx * p.x as f64 + by * p.y as f64;
        }
    }

    #[test]
    fn node_refine_is_exact_on_linear_fields() {
        // Bilinear interpolation reproduces any linear function exactly.
        let coarse_box = b(0, 0, 4, 4);
        let fine_box = b(0, 0, 8, 8);
        let mut src = HostData::<f64>::node(coarse_box, IntVector::ZERO);
        // Coarse node index i corresponds to fine node 2i: field in
        // coarse index space is a + bx*i + by*j; the fine field must be
        // a + bx*(if/2) + by*(jf/2).
        linear_field(&mut src, 1.0, 0.5, -0.25);
        let mut dst = HostData::<f64>::node(fine_box, IntVector::ZERO);
        let fill = BoxList::from_box(Centring::Node.data_box(fine_box));
        LinearNodeRefine.refine(&mut dst, &src, &fill, R2);
        for p in dst.data_box().iter() {
            let expect = 1.0 + 0.5 * (p.x as f64 / 2.0) - 0.25 * (p.y as f64 / 2.0);
            assert!((dst.at(p) - expect).abs() < 1e-14, "node {p}: {} vs {expect}", dst.at(p));
        }
    }

    #[test]
    fn node_refine_copies_coincident_nodes() {
        let mut src = HostData::<f64>::node(b(0, 0, 3, 3), IntVector::ZERO);
        for p in src.data_box().iter() {
            *src.at_mut(p) = (p.x * 10 + p.y) as f64;
        }
        let mut dst = HostData::<f64>::node(b(0, 0, 6, 6), IntVector::ZERO);
        let fill = BoxList::from_box(Centring::Node.data_box(b(0, 0, 6, 6)));
        LinearNodeRefine.refine(&mut dst, &src, &fill, R2);
        for p in src.data_box().iter() {
            assert_eq!(dst.at(p.scale(R2)), src.at(p));
        }
    }

    #[test]
    fn cell_refine_conserves_per_coarse_cell() {
        let coarse_box = b(0, 0, 4, 4);
        let mut src = HostData::<f64>::cell(coarse_box, IntVector::ZERO);
        // Smooth-ish but non-linear data.
        for p in src.data_box().iter() {
            *src.at_mut(p) = (p.x * p.x) as f64 + 0.3 * (p.y as f64);
        }
        let fine_box = coarse_box.refine(R2);
        let mut dst = HostData::<f64>::cell(fine_box, IntVector::ZERO);
        ConservativeCellRefine.refine(&mut dst, &src, &BoxList::from_box(fine_box), R2);
        for cp in coarse_box.iter() {
            let mut sum = 0.0;
            for j in 0..2 {
                for i in 0..2 {
                    sum += dst.at(cp.scale(R2) + IntVector::new(i, j));
                }
            }
            assert!(
                (sum / 4.0 - src.at(cp)).abs() < 1e-13,
                "coarse cell {cp}: fine mean {} vs {}",
                sum / 4.0,
                src.at(cp)
            );
        }
    }

    #[test]
    fn cell_refine_limits_at_extrema() {
        // A spike: slopes must limit to zero, so all fine values equal
        // the coarse value (no overshoot).
        let mut src = HostData::<f64>::cell(b(0, 0, 3, 3), IntVector::ZERO);
        src.fill(1.0);
        *src.at_mut(IntVector::new(1, 1)) = 10.0;
        let mut dst = HostData::<f64>::cell(b(0, 0, 6, 6), IntVector::ZERO);
        ConservativeCellRefine.refine(&mut dst, &src, &BoxList::from_box(b(2, 2, 4, 4)), R2);
        for p in b(2, 2, 4, 4).iter() {
            assert_eq!(dst.at(p), 10.0);
        }
    }

    #[test]
    fn constant_refine_blocks() {
        let mut src = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        *src.at_mut(IntVector::new(0, 0)) = 3.0;
        *src.at_mut(IntVector::new(1, 1)) = 7.0;
        let mut dst = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        ConstantRefine.refine(&mut dst, &src, &BoxList::from_box(b(0, 0, 4, 4)), R2);
        assert_eq!(dst.at(IntVector::new(0, 1)), 3.0);
        assert_eq!(dst.at(IntVector::new(1, 0)), 3.0);
        assert_eq!(dst.at(IntVector::new(3, 3)), 7.0);
        assert_eq!(dst.at(IntVector::new(2, 3)), 7.0);
    }

    #[test]
    fn side_refine_interpolates_along_normal() {
        // x-side data linear in the x face coordinate.
        let cbox = b(0, 0, 2, 2);
        let mut src = HostData::<f64>::side(0, cbox, IntVector::ZERO);
        for p in src.data_box().iter() {
            *src.at_mut(p) = p.x as f64;
        }
        let fbox = cbox.refine(R2);
        let mut dst = HostData::<f64>::side(0, fbox, IntVector::ZERO);
        let fill = BoxList::from_box(Centring::Side(0).data_box(fbox));
        LinearSideRefine { axis: 0 }.refine(&mut dst, &src, &fill, R2);
        // Fine face i sits at coarse coordinate i/2.
        for p in dst.data_box().iter() {
            assert!((dst.at(p) - p.x as f64 / 2.0).abs() < 1e-14);
        }
    }

    #[test]
    fn node_injection_takes_coincident_values() {
        let mut src = HostData::<f64>::node(b(0, 0, 4, 4), IntVector::ZERO);
        for p in src.data_box().iter() {
            *src.at_mut(p) = (p.x * 100 + p.y) as f64;
        }
        let mut dst = HostData::<f64>::node(b(0, 0, 2, 2), IntVector::ZERO);
        let fill = BoxList::from_box(Centring::Node.data_box(b(0, 0, 2, 2)));
        NodeInjectionCoarsen.coarsen(&mut dst, &src, &[], &fill, R2);
        assert_eq!(dst.at(IntVector::new(1, 1)), 202.0);
        assert_eq!(dst.at(IntVector::new(2, 2)), 404.0);
    }

    #[test]
    fn volume_weighted_is_block_mean() {
        let mut src = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        for p in src.data_box().iter() {
            *src.at_mut(p) = (p.x + 4 * p.y) as f64;
        }
        let mut dst = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        VolumeWeightedCoarsen.coarsen(&mut dst, &src, &[], &BoxList::from_box(b(0, 0, 2, 2)), R2);
        // Block (0,0): fine values 0,1,4,5 -> 2.5.
        assert_eq!(dst.at(IntVector::new(0, 0)), 2.5);
        // Block (1,1): fine values 2+8,3+8,2+12,3+12 = 10,11,14,15 -> 12.5.
        assert_eq!(dst.at(IntVector::new(1, 1)), 12.5);
    }

    #[test]
    fn volume_weighted_conserves_totals() {
        let mut src = HostData::<f64>::cell(b(0, 0, 8, 8), IntVector::ZERO);
        for (k, p) in src.data_box().iter().enumerate() {
            *src.at_mut(p) = (k as f64).sin() + 2.0;
        }
        let mut dst = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        VolumeWeightedCoarsen.coarsen(&mut dst, &src, &[], &BoxList::from_box(b(0, 0, 4, 4)), R2);
        let fine_total: f64 = src.interior_fold(0.0, |a, v| a + v);
        let coarse_total: f64 = dst.interior_fold(0.0, |a, v| a + v);
        // Coarse cells have 4x the volume: total = sum * 4 (unit fine vol).
        assert!((coarse_total * 4.0 - fine_total).abs() < 1e-10);
    }

    #[test]
    fn mass_weighted_conserves_energy() {
        // Total internal energy = Σ ρ e V must be identical before and
        // after coarsening e with mass weighting.
        let mut e = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        let mut rho = HostData::<f64>::cell(b(0, 0, 4, 4), IntVector::ZERO);
        for (k, p) in b(0, 0, 4, 4).iter().enumerate() {
            *e.at_mut(p) = 1.0 + 0.1 * k as f64;
            *rho.at_mut(p) = 0.5 + 0.05 * ((k * 7) % 5) as f64;
        }
        let mut ce = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let mut crho = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let fill = BoxList::from_box(b(0, 0, 2, 2));
        VolumeWeightedCoarsen.coarsen(&mut crho, &rho, &[], &fill, R2);
        MassWeightedCoarsen.coarsen(&mut ce, &e, &[&rho], &fill, R2);
        let fine_energy: f64 = b(0, 0, 4, 4).iter().map(|p| rho.at(p) * e.at(p)).sum();
        let coarse_energy: f64 = b(0, 0, 2, 2).iter().map(|p| crho.at(p) * ce.at(p) * 4.0).sum();
        assert!((fine_energy - coarse_energy).abs() < 1e-12, "{fine_energy} vs {coarse_energy}");
    }

    #[test]
    fn mass_weighted_handles_vacuum() {
        let e = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO);
        let rho = HostData::<f64>::cell(b(0, 0, 2, 2), IntVector::ZERO); // all zero
        let mut ce = HostData::<f64>::cell(b(0, 0, 1, 1), IntVector::ZERO);
        MassWeightedCoarsen.coarsen(&mut ce, &e, &[&rho], &BoxList::from_box(b(0, 0, 1, 1)), R2);
        assert_eq!(ce.at(IntVector::new(0, 0)), 0.0); // no NaN
    }

    #[test]
    fn minmod_limits_correctly() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-2.0, -1.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }
}
