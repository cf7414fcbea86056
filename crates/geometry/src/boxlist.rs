//! Sets of boxes closed under union and difference.

use crate::gbox::GBox;
use crate::ivec::IntVector;
use serde::{Deserialize, Serialize};

/// A set of disjoint boxes representing an arbitrary (non-rectangular)
/// region of index space.
///
/// `BoxList` is the workhorse of level description: the paper's level
/// `G_l` is the union of its patch boxes (`G_0 = ∪_j G_{0,j}`), and
/// regridding, proper-nesting enforcement and overlap computation all
/// reduce to unions, intersections and differences of box lists.
///
/// Invariant: the stored boxes are pairwise disjoint and non-empty.
/// Construction enforces this by rewriting inputs through
/// [`BoxList::add`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxList {
    boxes: Vec<GBox>,
}

impl BoxList {
    /// The empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// A region consisting of a single box (empty boxes are dropped).
    pub fn from_box(b: GBox) -> Self {
        let mut l = Self::new();
        l.add(b);
        l
    }

    /// Build a region from arbitrary (possibly overlapping) boxes.
    pub fn from_boxes<I: IntoIterator<Item = GBox>>(boxes: I) -> Self {
        let mut l = Self::new();
        for b in boxes {
            l.add(b);
        }
        l
    }

    /// The region of `boxes`, which are already non-empty and pairwise
    /// disjoint — another region's, or some of them — in that order,
    /// held in an array of exactly their number.
    ///
    /// # Panics
    /// Panics if a box is empty or meets an earlier one.
    pub fn from_disjoint(boxes: &[GBox]) -> Self {
        for (i, &b) in boxes.iter().enumerate() {
            let fits = !b.is_empty() && !boxes[..i].iter().any(|&a| a.intersects(b));
            assert!(fits, "BoxList::from_disjoint: {b:?} is empty or meets an earlier box");
        }
        Self { boxes: boxes.to_vec() }
    }

    /// The empty region, with room for `n` boxes.
    pub fn with_capacity(n: usize) -> Self {
        Self { boxes: Vec::with_capacity(n) }
    }

    /// The disjoint boxes making up the region.
    pub fn boxes(&self) -> &[GBox] {
        &self.boxes
    }

    /// Number of component boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True if the region contains no cells.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Heap bytes held: the capacity of the box array, not its length.
    pub fn heap_bytes(&self) -> usize {
        self.boxes.capacity() * std::mem::size_of::<GBox>()
    }

    /// Total number of cells in the region.
    pub fn num_cells(&self) -> i64 {
        self.boxes.iter().map(|b| b.num_cells()).sum()
    }

    /// Add a box to the region, keeping components disjoint: only the
    /// part of `b` not already covered is inserted.
    ///
    /// The part is carved against the existing boxes in order, and its
    /// pieces are appended in carving order. A box that meets nothing is
    /// appended whole, and one that a single box holds adds nothing,
    /// without carving; otherwise the pieces are carved in the list's
    /// own spare capacity.
    #[inline]
    pub fn add(&mut self, b: GBox) {
        if b.is_empty() {
            return;
        }
        match self.boxes.iter().position(|m| m.intersects(b)) {
            None => self.boxes.push(b),
            Some(first) => self.add_carved(b, first),
        }
    }

    /// [`BoxList::add`] of a box that meets the box at `first` and none
    /// before it.
    fn add_carved(&mut self, b: GBox, first: usize) {
        if self.boxes[first].contains_box(b) {
            return;
        }
        // The pieces still to place live past the existing boxes, at
        // `n..`; each carve appends the next generation and drops the
        // last. A box that misses every piece leaves them as they are.
        let n = self.boxes.len();
        self.boxes.push(b);
        for i in first..n {
            let existing = self.boxes[i];
            let end = self.boxes.len();
            if !self.boxes[n..end].iter().any(|p| p.intersects(existing)) {
                continue;
            }
            for k in n..end {
                let piece = self.boxes[k];
                piece.subtract_into(existing, &mut self.boxes);
            }
            self.boxes.drain(n..end);
            if self.boxes.len() == n {
                return;
            }
        }
    }

    /// Union with another region.
    #[inline]
    pub fn union(&mut self, other: &BoxList) {
        for &b in &other.boxes {
            self.add(b);
        }
    }

    /// Remove `b` from the region: each box it meets is replaced, in
    /// place, by its remainders in [`GBox::subtract_into`]'s order; a
    /// box it misses is left where it is, and a list it misses is not
    /// touched.
    #[inline]
    pub fn subtract_box(&mut self, b: GBox) {
        if b.is_empty() {
            return;
        }
        if let Some(first) = self.boxes.iter().position(|m| m.intersects(b)) {
            self.subtract_from(b, first);
        }
    }

    /// [`BoxList::subtract_box`] of a box that meets the box at `first`
    /// and none before it.
    fn subtract_from(&mut self, b: GBox, first: usize) {
        let n = self.boxes.len();
        for i in first..n {
            let mine = self.boxes[i];
            mine.subtract_into(b, &mut self.boxes);
        }
        self.boxes.drain(first..n);
    }

    /// Remove another region from this one.
    #[inline]
    pub fn subtract(&mut self, other: &BoxList) {
        for &b in &other.boxes {
            self.subtract_box(b);
        }
    }

    /// The intersection of two regions.
    pub fn intersect(&self, other: &BoxList) -> BoxList {
        let mut out = BoxList::new();
        for &b in &self.boxes {
            for &o in &other.boxes {
                out.add(o.intersect(b));
            }
        }
        out
    }

    /// The intersection of the region with a single box.
    pub fn intersect_box(&self, b: GBox) -> BoxList {
        let mut out = BoxList::new();
        self.intersect_box_into(b, &mut out);
        out
    }

    /// [`BoxList::intersect_box`] into `out`, which is cleared first:
    /// a caller reusing one list allocates only when it grows.
    pub fn intersect_box_into(&self, b: GBox, out: &mut BoxList) {
        out.boxes.clear();
        let meets = self.boxes.iter().map(|m| m.intersect(b)).filter(|m| !m.is_empty());
        out.boxes.extend(meets);
    }

    /// Empty the region, keeping the allocation.
    pub fn clear(&mut self) {
        self.boxes.clear();
    }

    /// Make the region the single box `b` (nothing if `b` is empty),
    /// keeping the allocation.
    pub fn set_box(&mut self, b: GBox) {
        self.clear();
        self.add(b);
    }

    /// True if the cell `p` lies in the region.
    pub fn contains(&self, p: IntVector) -> bool {
        self.boxes.iter().any(|b| b.contains(p))
    }

    /// True if every cell of `b` lies in the region: the components are
    /// disjoint, so exactly when the cells they share with `b` add up
    /// to all of `b`'s.
    pub fn contains_box(&self, b: GBox) -> bool {
        if b.is_empty() || self.boxes.iter().any(|m| m.contains_box(b)) {
            return true;
        }
        let shared: i64 = self.boxes.iter().map(|m| m.intersect(b).num_cells()).sum();
        shared == b.num_cells()
    }

    /// Refine every box (see [`GBox::refine`]).
    pub fn refine(&self, ratio: IntVector) -> BoxList {
        BoxList { boxes: self.boxes.iter().map(|b| b.refine(ratio)).collect() }
    }

    /// Coarsen every box (see [`GBox::coarsen`]). The result may contain
    /// overlapping coarse boxes for unaligned inputs, so it is rebuilt
    /// through [`BoxList::from_boxes`].
    pub fn coarsen(&self, ratio: IntVector) -> BoxList {
        BoxList::from_boxes(self.boxes.iter().map(|b| b.coarsen(ratio)))
    }

    /// Grow every box by `g` and re-normalise to a disjoint set.
    pub fn grow(&self, g: IntVector) -> BoxList {
        BoxList::from_boxes(self.boxes.iter().map(|b| b.grow(g)))
    }

    /// The bounding box of the whole region.
    pub fn bounding(&self) -> GBox {
        self.boxes.iter().fold(GBox::EMPTY, |acc, &b| acc.bounding(b))
    }

    /// Merge adjacent boxes that form exact rectangles, reducing
    /// fragmentation after repeated subtraction. Runs to a fixed point.
    pub fn coalesce(&mut self) {
        loop {
            let mut merged = false;
            'outer: for i in 0..self.boxes.len() {
                for j in (i + 1)..self.boxes.len() {
                    let (a, b) = (self.boxes[i], self.boxes[j]);
                    if let Some(m) = try_merge(a, b) {
                        self.boxes[i] = m;
                        self.boxes.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                return;
            }
        }
    }

    /// Iterate over component boxes.
    pub fn iter(&self) -> impl Iterator<Item = &GBox> {
        self.boxes.iter()
    }
}

impl FromIterator<GBox> for BoxList {
    fn from_iter<I: IntoIterator<Item = GBox>>(iter: I) -> Self {
        Self::from_boxes(iter)
    }
}

/// If `a` and `b` tile an exact rectangle, return it.
fn try_merge(a: GBox, b: GBox) -> Option<GBox> {
    for axis in 0..2 {
        let other = 1 - axis;
        if a.lo.get(other) == b.lo.get(other)
            && a.hi.get(other) == b.hi.get(other)
            && (a.hi.get(axis) == b.lo.get(axis) || b.hi.get(axis) == a.lo.get(axis))
        {
            return Some(a.bounding(b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn add_keeps_disjointness() {
        let mut l = BoxList::new();
        l.add(b(0, 0, 4, 4));
        l.add(b(2, 2, 6, 6)); // overlaps; only the new part is added
        assert_eq!(l.num_cells(), 16 + 16 - 4);
        for (i, p) in l.boxes().iter().enumerate() {
            for q in &l.boxes()[i + 1..] {
                assert!(!p.intersects(*q));
            }
        }
    }

    #[test]
    fn add_fully_covered_is_noop() {
        let mut l = BoxList::from_box(b(0, 0, 8, 8));
        l.add(b(2, 2, 4, 4));
        assert_eq!(l.len(), 1);
        assert_eq!(l.num_cells(), 64);
    }

    #[test]
    fn empty_boxes_are_dropped() {
        let l = BoxList::from_boxes([GBox::EMPTY, b(0, 0, 1, 1), b(5, 5, 5, 9)]);
        assert_eq!(l.len(), 1);
        assert_eq!(l.num_cells(), 1);
    }

    #[test]
    fn subtraction() {
        let mut l = BoxList::from_box(b(0, 0, 4, 4));
        l.subtract_box(b(1, 1, 3, 3));
        assert_eq!(l.num_cells(), 12);
        assert!(!l.contains(IntVector::new(1, 1)));
        assert!(l.contains(IntVector::new(0, 0)));
        l.subtract(&BoxList::from_box(b(0, 0, 4, 4)));
        assert!(l.is_empty());
    }

    #[test]
    fn union_of_lists() {
        let mut a = BoxList::from_box(b(0, 0, 2, 2));
        let c = BoxList::from_box(b(1, 0, 3, 2));
        a.union(&c);
        assert_eq!(a.num_cells(), 6);
    }

    #[test]
    fn containment_queries() {
        let l = BoxList::from_boxes([b(0, 0, 2, 4), b(2, 0, 4, 4)]);
        assert!(l.contains_box(b(0, 0, 4, 4))); // spans both components
        assert!(l.contains_box(b(1, 1, 3, 3)));
        assert!(!l.contains_box(b(3, 3, 5, 5)));
        assert!(l.contains_box(GBox::EMPTY));
    }

    #[test]
    fn refine_coarsen() {
        let l = BoxList::from_box(b(1, 1, 3, 3));
        let r = IntVector::uniform(2);
        assert_eq!(l.refine(r).num_cells(), 16);
        assert_eq!(l.refine(r).coarsen(r), l);
        // Coarsening unaligned overlapping results stays disjoint.
        let l2 = BoxList::from_boxes([b(1, 1, 3, 3), b(3, 1, 5, 3)]);
        let c = l2.coarsen(r);
        assert!(c.contains_box(b(0, 0, 3, 2)));
    }

    #[test]
    fn intersect_box_clips() {
        let l = BoxList::from_boxes([b(0, 0, 4, 4), b(6, 6, 8, 8)]);
        let c = l.intersect_box(b(2, 2, 7, 7));
        assert_eq!(c.num_cells(), 4 + 1);
    }

    #[test]
    fn list_intersection() {
        let a = BoxList::from_boxes([b(0, 0, 4, 4), b(6, 6, 10, 10)]);
        let c = BoxList::from_boxes([b(2, 2, 8, 8)]);
        let i = a.intersect(&c);
        // [2,4)^2 (4 cells) plus [6,8)^2 (4 cells).
        assert_eq!(i.num_cells(), 8);
        assert!(i.contains(IntVector::new(3, 3)));
        assert!(i.contains(IntVector::new(7, 7)));
        assert!(!i.contains(IntVector::new(5, 5)));
        // Intersection is commutative.
        assert_eq!(c.intersect(&a).num_cells(), 8);
        // With the empty region: empty.
        assert!(a.intersect(&BoxList::new()).is_empty());
    }

    #[test]
    fn bounding_box_spans_components() {
        let l = BoxList::from_boxes([b(0, 0, 1, 1), b(5, 7, 6, 9)]);
        assert_eq!(l.bounding(), b(0, 0, 6, 9));
        assert_eq!(BoxList::new().bounding(), GBox::EMPTY);
    }

    #[test]
    fn coalesce_merges_tiles() {
        let mut l = BoxList::from_boxes([b(0, 0, 2, 2), b(2, 0, 4, 2), b(0, 2, 4, 4)]);
        assert_eq!(l.len(), 3);
        l.coalesce();
        assert_eq!(l.len(), 1);
        assert_eq!(l.boxes()[0], b(0, 0, 4, 4));
    }

    #[test]
    fn coalesce_leaves_non_mergeable() {
        let mut l = BoxList::from_boxes([b(0, 0, 2, 2), b(3, 3, 5, 5)]);
        l.coalesce();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn grow_renormalises() {
        let l = BoxList::from_boxes([b(0, 0, 2, 2), b(3, 0, 5, 2)]);
        let g = l.grow(IntVector::ONE);
        // Grown boxes [-1,3)x[-1,3) and [2,6)x[-1,3) overlap in a 1x4
        // strip; the result must stay disjoint with correct area.
        assert_eq!(g.num_cells(), 16 + 16 - 4);
        for (i, p) in g.boxes().iter().enumerate() {
            for q in &g.boxes()[i + 1..] {
                assert!(!p.intersects(*q));
            }
        }
    }
}
