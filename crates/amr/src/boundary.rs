//! Physical-boundary fill strategies.

use crate::level::PatchLevel;
use crate::patch::Patch;
use crate::patchdata::PatchData;
use crate::variable::VariableId;
use rbamr_geometry::{BoxList, GBox, IntVector};
use std::any::Any;

/// The out-of-domain ghost cells of one local patch and variable: one
/// job of a fill's physical-boundary stage.
#[derive(Debug)]
pub struct PhysicalPlan {
    /// Position of the patch in its level's local array.
    pub pos: usize,
    /// Global index of the patch (plan digests only).
    pub dst_idx: usize,
    /// The variable filled.
    pub var: VariableId,
    /// Cell-space region outside the level domain.
    pub outside: BoxList,
}

/// What a strategy keeps with a schedule between fills (see
/// [`PhysicalBoundary::fill_many`]).
pub type BoundaryKept = Option<Box<dyn Any + Send + Sync>>;

/// Fills the parts of a patch's ghost region that lie outside the
/// physical domain — case (i) of the paper's three boundary-fill paths
/// ("filling the boundary cells with the physical boundary conditions is
/// handled by the application").
///
/// The schedule computes the out-of-domain cell boxes and hands them to
/// this strategy; the hydro crate implements reflective boundaries (the
/// CloverLeaf condition), while [`ZeroGradientBoundary`] provides a
/// physics-free default for tests.
pub trait PhysicalBoundary: Send + Sync {
    /// Fill `boxes` (cell-space, outside the domain) of `var` on
    /// `patch`. `domain_box` is the bounding box of the level domain,
    /// from which implementations derive which face each box lies on.
    fn fill(
        &self,
        patch: &mut Patch,
        var: VariableId,
        boxes: &BoxList,
        domain_box: GBox,
        time: f64,
    );

    /// The physical-boundary stage of one fill: every plan of the
    /// schedule, on the local patches of `level`. The default loops
    /// [`PhysicalBoundary::fill`] in plan order; a strategy for device
    /// data overrides it with one launch. `kept` starts as `None` and
    /// lives with the schedule: what depends on the plans alone (index
    /// lists) can be left there at the first fill and reused.
    fn fill_many(
        &self,
        level: &mut PatchLevel,
        plans: &[PhysicalPlan],
        domain_box: GBox,
        time: f64,
        kept: &mut BoundaryKept,
    ) {
        let _ = kept;
        for plan in plans {
            let patch = &mut level.local_mut()[plan.pos];
            self.fill(patch, plan.var, &plan.outside, domain_box, time);
        }
    }
}

/// Which face of the domain a ghost box hangs off, with outward normal
/// along the given axis. Corner boxes resolve to one axis at a time;
/// fills run per-axis so corners end up with the diagonally mirrored
/// value, matching CloverLeaf's `update_halo` pass ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Face {
    /// Low side of the axis (outward normal -x or -y).
    Low(usize),
    /// High side of the axis (outward normal +x or +y).
    High(usize),
}

/// Classify an out-of-domain cell against the domain bounding box.
/// Returns the face whose violation is largest (corners pick the axis
/// with the deeper excursion; ties pick x).
pub fn classify_face(domain: GBox, p: IntVector) -> Option<Face> {
    let mut best: Option<(i64, Face)> = None;
    let mut consider = |depth: i64, face: Face| {
        if depth > 0 && best.is_none_or(|(d, _)| depth > d) {
            best = Some((depth, face));
        }
    };
    consider(domain.lo.x - p.x, Face::Low(0));
    consider(p.x - (domain.hi.x - 1), Face::High(0));
    consider(domain.lo.y - p.y, Face::Low(1));
    consider(p.y - (domain.hi.y - 1), Face::High(1));
    best.map(|(_, f)| f)
}

/// Mirror an out-of-domain cell index across the domain face it hangs
/// off (the reflective-boundary index map): cell `lo - 1 - k` maps to
/// `lo + k`, cell `hi + k` maps to `hi - 1 - k`.
pub fn mirror_index(domain: GBox, p: IntVector) -> IntVector {
    let reflect = |v: i64, lo: i64, hi: i64| {
        if v < lo {
            2 * lo - 1 - v
        } else if v >= hi {
            2 * hi - 1 - v
        } else {
            v
        }
    };
    IntVector::new(reflect(p.x, domain.lo.x, domain.hi.x), reflect(p.y, domain.lo.y, domain.hi.y))
}

/// Zero-gradient (outflow) boundary: ghost cells copy the nearest
/// interior value. Physics-free default used by framework tests.
pub struct ZeroGradientBoundary;

impl PhysicalBoundary for ZeroGradientBoundary {
    fn fill(
        &self,
        patch: &mut Patch,
        var: VariableId,
        boxes: &BoxList,
        domain_box: GBox,
        _time: f64,
    ) {
        let centring = patch.data(var).centring();
        let data = patch
            .data_mut(var)
            .as_any_mut()
            .downcast_mut::<crate::hostdata::HostData<f64>>()
            .expect("ZeroGradientBoundary supports HostData<f64>");
        let domain_data_box = centring.data_box(domain_box);
        for b in boxes.boxes() {
            let db = centring.data_box(*b);
            for p in db.iter() {
                if !domain_data_box.contains(p) {
                    let clamped = IntVector::new(
                        p.x.clamp(domain_data_box.lo.x, domain_data_box.hi.x - 1),
                        p.y.clamp(domain_data_box.lo.y, domain_data_box.hi.y - 1),
                    );
                    if data.data_box().contains(clamped) {
                        let v = data.at(clamped);
                        *data.at_mut(p) = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use crate::patch::PatchId;
    use crate::variable::VariableRegistry;
    use rbamr_geometry::Centring;
    use std::sync::Arc;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn face_classification() {
        let d = b(0, 0, 8, 8);
        assert_eq!(classify_face(d, IntVector::new(-1, 4)), Some(Face::Low(0)));
        assert_eq!(classify_face(d, IntVector::new(8, 4)), Some(Face::High(0)));
        assert_eq!(classify_face(d, IntVector::new(4, -2)), Some(Face::Low(1)));
        assert_eq!(classify_face(d, IntVector::new(4, 9)), Some(Face::High(1)));
        assert_eq!(classify_face(d, IntVector::new(4, 4)), None);
        // Corner: deeper excursion wins.
        assert_eq!(classify_face(d, IntVector::new(-1, -3)), Some(Face::Low(1)));
    }

    #[test]
    fn mirror_indices() {
        let d = b(0, 0, 8, 8);
        assert_eq!(mirror_index(d, IntVector::new(-1, 3)), IntVector::new(0, 3));
        assert_eq!(mirror_index(d, IntVector::new(-2, 3)), IntVector::new(1, 3));
        assert_eq!(mirror_index(d, IntVector::new(8, 3)), IntVector::new(7, 3));
        assert_eq!(mirror_index(d, IntVector::new(9, 3)), IntVector::new(6, 3));
        assert_eq!(mirror_index(d, IntVector::new(-1, -1)), IntVector::new(0, 0));
        assert_eq!(mirror_index(d, IntVector::new(3, 3)), IntVector::new(3, 3));
    }

    #[test]
    fn zero_gradient_extends_edge_values() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let domain = b(0, 0, 4, 4);
        let mut patch = Patch::new(PatchId { level: 0, index: 0 }, domain, 0, &reg);
        for p in domain.iter() {
            *patch.host_mut::<f64>(var).at_mut(p) = (p.x + 10 * p.y) as f64;
        }
        // Ghost region outside the low-x face.
        let ghost = BoxList::from_box(b(-2, 0, 0, 4));
        ZeroGradientBoundary.fill(&mut patch, var, &ghost, domain, 0.0);
        let d = patch.host::<f64>(var);
        assert_eq!(d.at(IntVector::new(-1, 2)), 20.0); // copies column x=0
        assert_eq!(d.at(IntVector::new(-2, 3)), 30.0);
    }
}
