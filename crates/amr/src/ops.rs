//! Inter-level data operators: refine (coarse → fine) and coarsen
//! (fine → coarse).
//!
//! These traits reproduce SAMRAI's `RefineOperator` / `CoarsenOperator`
//! interfaces (paper Section IV-B). The implementations here are the
//! **host reference versions**; the `rbamr-gpu-amr` crate provides the
//! data-parallel device versions (the paper's claimed first data-parallel
//! implementations) which must produce bit-identical results — the
//! gpu-amr test suite checks each device operator against its host
//! reference on random data.
//!
//! Index conventions: operators receive *data-space* fill boxes (already
//! centring-adjusted). Reads outside the source's data box are clamped
//! (one-sided differences at physical boundaries); the schedule
//! guarantees the source covers the coarsened fill region plus the
//! stencil wherever coarse data exists.

use crate::hostdata::HostData;
use crate::patchdata::PatchData;
use crate::transfer::{CoarsenJob, RefineJob, TransferCtx};
use rbamr_geometry::{BoxList, GBox, IntVector};
use rbamr_perfmodel::Category;

/// Interpolate coarse data onto a finer level.
pub trait RefineOperator: Send + Sync {
    /// Operator name for diagnostics and registries.
    fn name(&self) -> &'static str;

    /// Width (in coarse cells) of source data needed beyond the
    /// coarsened fill region.
    fn stencil_width(&self) -> IntVector;

    /// Fill `fine_boxes` (fine data-space) of `dst` by interpolating
    /// `src` (coarse data).
    ///
    /// # Panics
    /// Panics if data types or centrings are incompatible.
    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    );

    /// Run every job of one fill that uses this operator: scratch
    /// `job.scratch` refined into the local patch `job.pos` of level
    /// `level`, charging `category`. The default is the loop over
    /// [`RefineOperator::refine`] in job order; a device operator
    /// overrides it with one launch.
    fn refine_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        level: usize,
        jobs: &[RefineJob],
        ratio: IntVector,
        category: Category,
    ) {
        for job in jobs {
            let fine = &mut ctx.hierarchy.level_mut(level).local_mut()[job.pos as usize];
            let dst = fine.data_mut(job.var);
            dst.set_transfer_category(category);
            self.refine(dst, ctx.scratch[job.scratch as usize].as_ref(), &job.fill, ratio);
        }
    }
}

/// Project fine data onto a coarser level.
pub trait CoarsenOperator: Send + Sync {
    /// Operator name for diagnostics and registries.
    fn name(&self) -> &'static str;

    /// Auxiliary variables (by registry order chosen by the caller) the
    /// operator reads from the fine patch — e.g. mass-weighted
    /// coarsening reads the fine density. Informational; the schedule
    /// passes them in `aux`.
    fn num_aux(&self) -> usize {
        0
    }

    /// Fill `coarse_boxes` (coarse data-space) of `dst` from the fine
    /// `src` (and `aux` data from the same fine patch).
    ///
    /// # Panics
    /// Panics if data types or centrings are incompatible, or
    /// `aux.len() != self.num_aux()`.
    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    );

    /// Run every job of one synchronisation that uses this operator:
    /// the local patch `job.pos` of level `fine_level` projected into
    /// scratch `job.scratch`. The default is the loop over
    /// [`CoarsenOperator::coarsen`] in job order; a device operator
    /// overrides it with one launch.
    fn coarsen_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        fine_level: usize,
        jobs: &[CoarsenJob],
        ratio: IntVector,
    ) {
        for job in jobs {
            let fine = &ctx.hierarchy.level(fine_level).local()[job.pos as usize];
            let aux: Vec<&dyn PatchData> = job.aux.iter().map(|&a| fine.data(a)).collect();
            let dst = ctx.scratch[job.scratch as usize].as_mut();
            self.coarsen(dst, fine.data(job.var), &aux, &job.fill, ratio);
        }
    }
}

fn host(d: &dyn PatchData) -> &HostData<f64> {
    d.as_any().downcast_ref().expect("host operator applied to non-host data")
}

fn host_mut(d: &mut dyn PatchData) -> &mut HostData<f64> {
    d.as_any_mut().downcast_mut().expect("host operator applied to non-host data")
}

/// Clamp `p` into `b` (component-wise). Used for one-sided stencils at
/// the edge of available source data.
#[inline]
fn clamp_to(b: GBox, p: IntVector) -> IntVector {
    IntVector::new(p.x.clamp(b.lo.x, b.hi.x - 1), p.y.clamp(b.lo.y, b.hi.y - 1))
}

/// The minmod slope limiter used by conservative linear refinement:
/// returns the smaller-magnitude one-sided difference, or zero at an
/// extremum.
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

/// Bilinear interpolation for node-centred data — the host reference of
/// the paper's Figure 5 kernel. A fine node at index `i` maps to coarse
/// interval `ic = floor(i / r)` with offset `x = (i - ic·r)/r`, and is
/// the bilinear blend of the four surrounding coarse nodes. Fine nodes
/// coincident with coarse nodes (`x = y = 0`) copy them exactly.
pub struct LinearNodeRefine;

impl RefineOperator for LinearNodeRefine {
    fn name(&self) -> &'static str {
        "linear-node-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = host(src);
        let dst = host_mut(dst);
        let sbox = src.data_box();
        let (rx, ry) = (ratio.x, ratio.y);
        let (realrat0, realrat1) = (1.0 / rx as f64, 1.0 / ry as f64);
        for fb in fine_boxes.boxes() {
            for p in fb.iter() {
                // Exactly the index arithmetic of Figure 5b.
                let ic0 = p.x.div_euclid(rx);
                let ic1 = p.y.div_euclid(ry);
                let ir0 = p.x - ic0 * rx;
                let ir1 = p.y - ic1 * ry;
                let x = ir0 as f64 * realrat0;
                let y = ir1 as f64 * realrat1;
                let c = |i, j| src.at(clamp_to(sbox, IntVector::new(i, j)));
                let v = (c(ic0, ic1) * (1.0 - x) + c(ic0 + 1, ic1) * x) * (1.0 - y)
                    + (c(ic0, ic1 + 1) * (1.0 - x) + c(ic0 + 1, ic1 + 1) * x) * y;
                *dst.at_mut(p) = v;
            }
        }
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

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = host(src);
        let dst = host_mut(dst);
        let sbox = src.data_box();
        let (rx, ry) = (ratio.x, ratio.y);
        for fb in fine_boxes.boxes() {
            for p in fb.iter() {
                let ic = IntVector::new(p.x.div_euclid(rx), p.y.div_euclid(ry));
                let c = |i, j| src.at(clamp_to(sbox, IntVector::new(i, j)));
                let v0 = c(ic.x, ic.y);
                let sx = minmod(v0 - c(ic.x - 1, ic.y), c(ic.x + 1, ic.y) - v0);
                let sy = minmod(v0 - c(ic.x, ic.y - 1), c(ic.x, ic.y + 1) - v0);
                // Fine-cell centre offset from the coarse-cell centre,
                // in coarse cell widths: mean over the block is zero.
                let xi = ((p.x - ic.x * rx) as f64 + 0.5) / rx as f64 - 0.5;
                let eta = ((p.y - ic.y * ry) as f64 + 0.5) / ry as f64 - 0.5;
                *dst.at_mut(p) = v0 + sx * xi + sy * eta;
            }
        }
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

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = host(src);
        let dst = host_mut(dst);
        let sbox = src.data_box();
        for fb in fine_boxes.boxes() {
            for p in fb.iter() {
                let ic = p.div_floor(ratio);
                *dst.at_mut(p) = src.at(clamp_to(sbox, ic));
            }
        }
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

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = host(src);
        let dst = host_mut(dst);
        let sbox = src.data_box();
        let axis = self.axis;
        let r_n = ratio.get(axis);
        for fb in fine_boxes.boxes() {
            for p in fb.iter() {
                let ic = p.div_floor(ratio);
                let irn = p.get(axis) - ic.get(axis) * r_n;
                let x = irn as f64 / r_n as f64;
                let lo = clamp_to(sbox, ic);
                let hi = clamp_to(sbox, ic + IntVector::unit(axis));
                *dst.at_mut(p) = src.at(lo) * (1.0 - x) + src.at(hi) * x;
            }
        }
    }
}

/// Node-centred injection: a coarse node copies the coincident fine
/// node (`fine = coarse · r`). The paper's node coarsen operator.
pub struct NodeInjectionCoarsen;

impl CoarsenOperator for NodeInjectionCoarsen {
    fn name(&self) -> &'static str {
        "node-injection-coarsen"
    }

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert!(aux.is_empty(), "injection takes no auxiliary data");
        let src = host(src);
        let dst = host_mut(dst);
        for cb in coarse_boxes.boxes() {
            for p in cb.iter() {
                *dst.at_mut(p) = src.at(p.scale(ratio));
            }
        }
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

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert!(aux.is_empty(), "volume-weighted coarsen takes no auxiliary data");
        let src = host(src);
        let dst = host_mut(dst);
        let vf = 1.0; // fine cell volume (uniform)
        let vc = (ratio.x * ratio.y) as f64 * vf;
        for cb in coarse_boxes.boxes() {
            for p in cb.iter() {
                let f0 = p.scale(ratio);
                let mut spv = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        spv += src.at(f0 + IntVector::new(i, j)) * vf;
                    }
                }
                *dst.at_mut(p) = spv / vc;
            }
        }
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

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert_eq!(aux.len(), 1, "mass-weighted coarsen needs the fine density");
        let src = host(src);
        let rho = host(aux[0]);
        let dst = host_mut(dst);
        let n = (ratio.x * ratio.y) as f64;
        for cb in coarse_boxes.boxes() {
            for p in cb.iter() {
                let f0 = p.scale(ratio);
                let mut mass = 0.0;
                let mut weighted = 0.0;
                let mut plain = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        let q = f0 + IntVector::new(i, j);
                        let m = rho.at(q);
                        mass += m;
                        weighted += src.at(q) * m;
                        plain += src.at(q);
                    }
                }
                *dst.at_mut(p) = if mass > 0.0 { weighted / mass } else { plain / n };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
