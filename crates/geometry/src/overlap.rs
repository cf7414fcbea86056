//! Overlap computation: which parts of one patch's data fill another
//! patch's ghost region.

use crate::boxlist::BoxList;
use crate::centring::Centring;
use crate::gbox::GBox;
use crate::ivec::IntVector;
use serde::{Deserialize, Serialize};

/// Description of a data transfer between two patches.
///
/// This is the analogue of SAMRAI's `BoxOverlap` (it appears throughout
/// the `PatchData` interface in Figure 2 of the paper): the set of
/// destination-index-space boxes to fill, plus the shift that maps a
/// destination index back to the source index space (non-zero only for
/// periodic images; the reproduced problems use reflective physical
/// boundaries, so the shift is usually zero).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxOverlap {
    /// Regions to fill, expressed in the *destination* index space and in
    /// the *data* (centring-adjusted) index space.
    pub dst_boxes: BoxList,
    /// `src_index = dst_index - shift`.
    pub shift: IntVector,
    /// The centring of the data being moved.
    pub centring: Centring,
}

impl BoxOverlap {
    /// An empty overlap (nothing to transfer).
    pub fn empty(centring: Centring) -> Self {
        Self { dst_boxes: BoxList::new(), shift: IntVector::ZERO, centring }
    }

    /// True if there is nothing to transfer.
    pub fn is_empty(&self) -> bool {
        self.dst_boxes.is_empty()
    }

    /// Total number of data values the overlap moves.
    pub fn num_values(&self) -> i64 {
        self.dst_boxes.num_cells()
    }
}

/// Compute the overlap needed to fill the ghost region of a destination
/// patch from the interior of a source patch on the same level.
///
/// * `dst_cell_box` — destination patch interior (cell space).
/// * `ghosts` — destination ghost width in cells.
/// * `src_cell_box` — source patch interior (cell space).
/// * `centring` — centring of the quantity being filled.
/// * `shift` — maps destination indices to source space (`src = dst -
///   shift`); pass [`IntVector::ZERO`] except for periodic images.
///
/// The result covers `(ghost data box ∩ shifted source data box)` minus
/// the destination's own interior data box, so a patch never overwrites
/// values it owns. For node- and side-centred data, values on the shared
/// patch boundary are owned by the destination (both patches hold
/// identical values there by construction of the scheme).
pub fn ghost_overlaps(
    dst_cell_box: GBox,
    ghosts: IntVector,
    src_cell_box: GBox,
    centring: Centring,
    shift: IntVector,
) -> BoxOverlap {
    let mut fill = BoxList::new();
    ghost_overlap_into(dst_cell_box, ghosts, src_cell_box, centring, shift, &mut fill);
    BoxOverlap { dst_boxes: fill, shift, centring }
}

/// The boxes of [`ghost_overlaps`]' region, written over `out`: a
/// caller reusing one list allocates only when it grows.
pub fn ghost_overlap_into(
    dst_cell_box: GBox,
    ghosts: IntVector,
    src_cell_box: GBox,
    centring: Centring,
    shift: IntVector,
    out: &mut BoxList,
) {
    let dst_data = centring.data_box(dst_cell_box);
    let dst_ghost_data = centring.data_box(dst_cell_box.grow(ghosts));
    let src_data = centring.data_box(src_cell_box).shift(shift);
    out.set_box(dst_ghost_data.intersect(src_data));
    out.subtract_box(dst_data);
    out.coalesce();
}

/// Compute the overlap for a plain interior-to-interior copy (used when
/// data moves between old and new patches during regridding): the
/// intersection of the two data boxes, without ghost growth.
pub fn copy_overlap(dst_cell_box: GBox, src_cell_box: GBox, centring: Centring) -> BoxOverlap {
    let dst_data = centring.data_box(dst_cell_box);
    let src_data = centring.data_box(src_cell_box);
    let fill = BoxList::from_box(dst_data.intersect(src_data));
    BoxOverlap { dst_boxes: fill, shift: IntVector::ZERO, centring }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    const G2: IntVector = IntVector::uniform(2);

    #[test]
    fn adjacent_patches_cell_overlap() {
        // Two 4x4 patches side by side; dst ghost width 2.
        let dst = b(0, 0, 4, 4);
        let src = b(4, 0, 8, 4);
        let ov = ghost_overlaps(dst, G2, src, Centring::Cell, IntVector::ZERO);
        // Fill region: x in [4,6), y in [0,4) => 8 cells.
        assert_eq!(ov.num_values(), 8);
        assert!(ov.dst_boxes.contains_box(b(4, 0, 6, 4)));
    }

    #[test]
    fn distant_patches_do_not_overlap() {
        let ov =
            ghost_overlaps(b(0, 0, 4, 4), G2, b(10, 10, 14, 14), Centring::Cell, IntVector::ZERO);
        assert!(ov.is_empty());
    }

    #[test]
    fn node_overlap_excludes_owned_boundary_nodes() {
        let dst = b(0, 0, 4, 4);
        let src = b(4, 0, 8, 4);
        let ov = ghost_overlaps(dst, G2, src, Centring::Node, IntVector::ZERO);
        // Destination node data box is [0,5)x[0,5); the shared column of
        // nodes at x=4 is owned by dst, so the fill starts at x=5.
        assert!(!ov.dst_boxes.contains(IntVector::new(4, 0)));
        assert!(ov.dst_boxes.contains(IntVector::new(5, 0)));
        // x in [5,7), y in [0,5) => 10 nodes.
        assert_eq!(ov.num_values(), 10);
    }

    #[test]
    fn side_overlap_respects_normal_axis() {
        let dst = b(0, 0, 4, 4);
        let src = b(4, 0, 8, 4);
        // x-sides: dst owns x=4 faces; fill x in [5,7), 4 rows => 8.
        let ovx = ghost_overlaps(dst, G2, src, Centring::Side(0), IntVector::ZERO);
        assert_eq!(ovx.num_values(), 8);
        // y-sides: dst data box is [0,4)x[0,5); fill x in [4,6), y in [0,5) => 10.
        let ovy = ghost_overlaps(dst, G2, src, Centring::Side(1), IntVector::ZERO);
        assert_eq!(ovy.num_values(), 10);
    }

    #[test]
    fn diagonal_corner_overlap() {
        let dst = b(0, 0, 4, 4);
        let src = b(4, 4, 8, 8);
        let ov = ghost_overlaps(dst, G2, src, Centring::Cell, IntVector::ZERO);
        // Corner: x,y in [4,6) => 4 cells.
        assert_eq!(ov.num_values(), 4);
    }

    #[test]
    fn shifted_overlap_for_periodic_image() {
        // Source physically at [8,12) but periodic image shifted to abut
        // dst's low side: shift maps dst index -> src index - shift.
        let dst = b(0, 0, 4, 4);
        let src = b(8, 0, 12, 4);
        let shift = IntVector::new(-12, 0); // src appears at [-4,0)
        let ov = ghost_overlaps(dst, G2, src, Centring::Cell, shift);
        assert_eq!(ov.num_values(), 8);
        assert!(ov.dst_boxes.contains_box(b(-2, 0, 0, 4)));
    }

    #[test]
    fn copy_overlap_is_interior_intersection() {
        let ov = copy_overlap(b(0, 0, 4, 4), b(2, 2, 6, 6), Centring::Cell);
        assert_eq!(ov.num_values(), 4);
        let ovn = copy_overlap(b(0, 0, 4, 4), b(2, 2, 6, 6), Centring::Node);
        // Node boxes [0,5)^2 and [2,7)^2 intersect in [2,5)^2 = 9.
        assert_eq!(ovn.num_values(), 9);
    }

    #[test]
    fn overlapping_patches_fill_only_ghosts() {
        // Pathological but legal: src overlaps dst interior. The interior
        // must not appear in the fill region.
        let dst = b(0, 0, 4, 4);
        let src = b(2, 0, 8, 4);
        let ov = ghost_overlaps(dst, IntVector::ONE, src, Centring::Cell, IntVector::ZERO);
        assert!(!ov.dst_boxes.contains(IntVector::new(3, 0)));
        assert!(ov.dst_boxes.contains(IntVector::new(4, 0)));
    }
}
