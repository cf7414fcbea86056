//! Proper-nesting calculus.
//!
//! Section II of the paper: "Grids at different levels of the hierarchy
//! must be properly nested. A fine grid must start and end at the corner
//! of a cell in the next coarser grid, and there must be at least one
//! level l−1 cell separating a grid cell at level l from a cell at level
//! l−2 in any direction unless the cell is at the physical boundary of
//! the domain."

use rbamr_geometry::{BoxIndex, BoxList, GBox, IntVector};

/// Align a level-`l` box outward to the refinement lattice so it starts
/// and ends on level-`l-1` cell corners.
pub fn align_outward(b: GBox, ratio: IntVector) -> GBox {
    b.coarsen(ratio).refine(ratio)
}

/// The region level `l+1` patches may occupy, given the level-`l` patch
/// region: `refine(coverage shrunk by the nesting buffer)`, with the
/// shrink suppressed at the physical boundary.
///
/// * `coarse_coverage` — union of level-`l` patch boxes (level-`l`
///   index space).
/// * `coarse_domain` — level-`l` domain.
/// * `buffer` — nesting buffer in level-`l` cells (the paper requires at
///   least one).
/// * `ratio` — refinement ratio `l → l+1`.
///
/// Returns the allowed region in level-`l+1` index space.
pub fn allowed_region(
    coarse_coverage: &BoxList,
    coarse_domain: &BoxList,
    buffer: IntVector,
    ratio: IntVector,
) -> BoxList {
    // Shrink: coverage minus the buffer-thick inner rim of its own
    // boundary. Compute complement, grow it by the buffer, subtract.
    // Cells adjacent to the physical boundary are exempt: the complement
    // is taken within the domain only.
    let domain_bound = coarse_domain.bounding();
    let mut complement = BoxList::from_box(domain_bound.grow(buffer));
    for b in coarse_coverage.boxes() {
        complement.subtract_box(*b);
    }
    // Do not penalise proximity to the physical boundary: remove the
    // outside-domain margin from the complement.
    let mut outside = BoxList::from_box(domain_bound.grow(buffer));
    for b in coarse_domain.boxes() {
        outside.subtract_box(*b);
    }
    complement.subtract(&outside);
    let grown = complement.grow(buffer);
    let mut allowed = coarse_coverage.clone();
    allowed.subtract(&grown);
    allowed.coalesce();
    allowed.refine(ratio)
}

/// Clip candidate boxes to an allowed region, splitting where needed.
/// Output boxes are disjoint pieces of the inputs, all inside `allowed`.
///
/// A [`BoxIndex`] over the allowed components limits each input box to
/// the components it actually meets; candidates come back in component
/// order, so the output is identical to intersecting against every
/// component in turn.
pub fn clip_to_region(boxes: &[GBox], allowed: &BoxList) -> Vec<GBox> {
    let ix = BoxIndex::new(allowed.boxes(), IntVector::ZERO);
    let mut cand = Vec::new();
    let mut out = Vec::new();
    for &b in boxes {
        ix.query_into(b, &mut cand);
        out.extend(cand.iter().map(|&i| allowed.boxes()[i].intersect(b)));
    }
    out
}

/// Check the paper's nesting condition: every box of `fine` (level
/// `l+1` index space) lies within the allowed region.
///
/// Containment is decided by subtracting only the allowed components a
/// [`BoxIndex`] reports as intersecting the fine box — a disjoint
/// component cannot remove anything, so the verdict matches the full
/// [`BoxList::contains_box`] scan.
pub fn is_properly_nested(
    fine_boxes: &[GBox],
    coarse_coverage: &BoxList,
    coarse_domain: &BoxList,
    buffer: IntVector,
    ratio: IntVector,
) -> bool {
    let allowed = allowed_region(coarse_coverage, coarse_domain, buffer, ratio);
    let ix = BoxIndex::new(allowed.boxes(), IntVector::ZERO);
    let mut cand = Vec::new();
    let mut remainder = Vec::new();
    let mut next = Vec::new();
    fine_boxes.iter().all(|&b| {
        ix.query_into(b, &mut cand);
        remainder.clear();
        remainder.push(b);
        for &i in &cand {
            next.clear();
            for piece in remainder.drain(..) {
                piece.subtract_into(allowed.boxes()[i], &mut next);
            }
            std::mem::swap(&mut remainder, &mut next);
            if remainder.is_empty() {
                return true;
            }
        }
        remainder.iter().all(|p| p.is_empty())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    const R2: IntVector = IntVector::uniform(2);

    #[test]
    fn alignment_rounds_outward() {
        assert_eq!(align_outward(b(1, 1, 5, 5), R2), b(0, 0, 6, 6));
        assert_eq!(align_outward(b(0, 2, 4, 6), R2), b(0, 2, 4, 6));
    }

    #[test]
    fn interior_patch_shrinks_by_buffer() {
        // Coarse coverage is an interior island; the allowed fine region
        // must pull in one cell from every side.
        let domain = BoxList::from_box(b(0, 0, 32, 32));
        let coverage = BoxList::from_box(b(8, 8, 16, 16));
        let allowed = allowed_region(&coverage, &domain, IntVector::ONE, R2);
        assert!(allowed.contains_box(b(9, 9, 15, 15).refine(R2)));
        assert!(!allowed.contains_box(b(8, 8, 16, 16).refine(R2)));
    }

    #[test]
    fn boundary_contact_is_exempt() {
        // Coverage touching the physical boundary keeps its full extent
        // there (the paper's "unless the cell is at the physical
        // boundary" clause).
        let domain = BoxList::from_box(b(0, 0, 32, 32));
        let coverage = BoxList::from_box(b(0, 0, 8, 8));
        let allowed = allowed_region(&coverage, &domain, IntVector::ONE, R2);
        // Fine boxes along x=0 and y=0 faces are allowed...
        assert!(allowed.contains_box(b(0, 0, 7, 7).refine(R2)));
        // ...but the interior-facing sides still shrink.
        assert!(!allowed.contains_box(b(0, 0, 8, 8).refine(R2)));
    }

    #[test]
    fn full_domain_coverage_allows_everything() {
        let domain = BoxList::from_box(b(0, 0, 16, 16));
        let allowed = allowed_region(&domain.clone(), &domain, IntVector::ONE, R2);
        assert!(allowed.contains_box(b(0, 0, 16, 16).refine(R2)));
    }

    #[test]
    fn clipping_splits_escaping_boxes() {
        let allowed = BoxList::from_box(b(0, 0, 8, 8));
        let clipped = clip_to_region(&[b(4, 4, 12, 6)], &allowed);
        assert_eq!(clipped, vec![b(4, 4, 8, 6)]);
    }

    #[test]
    fn nesting_check_detects_violations() {
        let domain = BoxList::from_box(b(0, 0, 32, 32));
        let coverage = BoxList::from_box(b(8, 8, 16, 16));
        let good = vec![b(10, 10, 14, 14).refine(R2)];
        let bad = vec![b(8, 8, 12, 12).refine(R2)]; // touches coverage edge
        assert!(is_properly_nested(&good, &coverage, &domain, IntVector::ONE, R2));
        assert!(!is_properly_nested(&bad, &coverage, &domain, IntVector::ONE, R2));
    }
}
