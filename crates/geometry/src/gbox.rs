//! Logically rectangular index-space regions ("boxes").

use crate::ivec::IntVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A logically rectangular region of 2D index space: `[lo, hi)`.
///
/// `GBox` is the unit of the box calculus on which every AMR structure is
/// built: a patch covers a box, ghost regions are boxes grown from patch
/// boxes, overlaps between patches are box intersections, and the
/// refine/coarsen index maps of the paper's Section II are the
/// [`GBox::refine`] / [`GBox::coarsen`] operations.
///
/// The name avoids colliding with [`std::boxed::Box`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GBox {
    /// Inclusive lower corner.
    pub lo: IntVector,
    /// Exclusive upper corner.
    pub hi: IntVector,
}

impl GBox {
    /// Create a box from its inclusive lower and exclusive upper corners.
    pub const fn new(lo: IntVector, hi: IntVector) -> Self {
        Self { lo, hi }
    }

    /// Create a box from corner coordinates `[x0, y0) x [x1, y1)`.
    pub const fn from_coords(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Self::new(IntVector::new(x0, y0), IntVector::new(x1, y1))
    }

    /// The canonical empty box.
    pub const EMPTY: Self = Self::new(IntVector::ZERO, IntVector::ZERO);

    /// True if the box contains no cells (any `hi <= lo` component).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi.x <= self.lo.x || self.hi.y <= self.lo.y
    }

    /// Size vector `hi - lo` (component-wise cell counts). Meaningless
    /// for empty boxes.
    #[inline]
    pub fn size(self) -> IntVector {
        self.hi - self.lo
    }

    /// Number of cells in the box; zero for empty boxes.
    #[inline]
    pub fn num_cells(self) -> i64 {
        if self.is_empty() {
            0
        } else {
            self.size().product()
        }
    }

    /// True if the cell index `p` lies inside the box.
    #[inline]
    pub fn contains(self, p: IntVector) -> bool {
        p.all_ge(self.lo) && self.hi.all_gt(p)
    }

    /// True if every cell of `other` lies inside `self`. Empty boxes are
    /// contained in everything.
    #[inline]
    pub fn contains_box(self, other: GBox) -> bool {
        other.is_empty() || (other.lo.all_ge(self.lo) && self.hi.all_ge(other.hi))
    }

    /// Intersection of two boxes (empty if they do not overlap).
    #[inline]
    pub fn intersect(self, other: GBox) -> GBox {
        let b = GBox::new(self.lo.max(other.lo), self.hi.min(other.hi));
        if b.is_empty() {
            GBox::EMPTY
        } else {
            b
        }
    }

    /// True if the two boxes share at least one cell: their
    /// intersection is non-empty on both axes.
    #[inline]
    pub fn intersects(self, other: GBox) -> bool {
        self.lo.x.max(other.lo.x) < self.hi.x.min(other.hi.x)
            && self.lo.y.max(other.lo.y) < self.hi.y.min(other.hi.y)
    }

    /// Grow the box by `g` cells on every side (negative values shrink).
    /// This is how ghost boxes are formed from patch interiors.
    #[inline]
    pub fn grow(self, g: IntVector) -> GBox {
        GBox::new(self.lo - g, self.hi + g)
    }

    /// Grow the box by `g` cells only on the lower side of each axis.
    #[inline]
    pub fn grow_lower(self, g: IntVector) -> GBox {
        GBox::new(self.lo - g, self.hi)
    }

    /// Grow the box by `g` cells only on the upper side of each axis.
    #[inline]
    pub fn grow_upper(self, g: IntVector) -> GBox {
        GBox::new(self.lo, self.hi + g)
    }

    /// Translate the box by `shift`.
    #[inline]
    pub fn shift(self, shift: IntVector) -> GBox {
        GBox::new(self.lo + shift, self.hi + shift)
    }

    /// Map the box to the index space of the next finer level with
    /// refinement ratio `ratio`: cell `(i, j)` becomes the `ratio.x ×
    /// ratio.y` block of fine cells covering it.
    ///
    /// # Panics
    /// Panics if any ratio component is not positive.
    #[inline]
    pub fn refine(self, ratio: IntVector) -> GBox {
        assert!(ratio.all_gt(IntVector::ZERO), "refine: ratio must be positive");
        GBox::new(self.lo.scale(ratio), self.hi.scale(ratio))
    }

    /// Map the box to the index space of the next coarser level: the
    /// smallest coarse box whose refinement covers `self`.
    ///
    /// # Panics
    /// Panics if any ratio component is not positive.
    #[inline]
    pub fn coarsen(self, ratio: IntVector) -> GBox {
        assert!(ratio.all_gt(IntVector::ZERO), "coarsen: ratio must be positive");
        GBox::new(self.lo.div_floor(ratio), self.hi.div_ceil(ratio))
    }

    /// True if the box starts and ends on coarse-cell boundaries for the
    /// given ratio — the "fine grid must start and end at the corner of a
    /// cell in the next coarser grid" nesting rule from Section II.
    pub fn is_aligned(self, ratio: IntVector) -> bool {
        self.lo.x.rem_euclid(ratio.x) == 0
            && self.lo.y.rem_euclid(ratio.y) == 0
            && self.hi.x.rem_euclid(ratio.x) == 0
            && self.hi.y.rem_euclid(ratio.y) == 0
    }

    /// The smallest box containing both operands (their bounding box).
    #[inline]
    pub fn bounding(self, other: GBox) -> GBox {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        GBox::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Subtract `other` from `self`, pushing the (up to four) disjoint
    /// rectangular remainders onto `out`.
    ///
    /// The decomposition slices bottom strip, top strip, then left and
    /// right strips of the middle band, so the output pieces are disjoint
    /// and their union is exactly `self \ other`.
    #[inline]
    pub fn subtract_into(self, other: GBox, out: &mut Vec<GBox>) {
        if self.is_empty() {
            return;
        }
        let cut = self.intersect(other);
        if cut.is_empty() {
            out.push(self);
            return;
        }
        if cut == self {
            return;
        }
        // Bottom strip (full width).
        if cut.lo.y > self.lo.y {
            out.push(GBox::from_coords(self.lo.x, self.lo.y, self.hi.x, cut.lo.y));
        }
        // Top strip (full width).
        if cut.hi.y < self.hi.y {
            out.push(GBox::from_coords(self.lo.x, cut.hi.y, self.hi.x, self.hi.y));
        }
        // Left strip of the middle band.
        if cut.lo.x > self.lo.x {
            out.push(GBox::from_coords(self.lo.x, cut.lo.y, cut.lo.x, cut.hi.y));
        }
        // Right strip of the middle band.
        if cut.hi.x < self.hi.x {
            out.push(GBox::from_coords(cut.hi.x, cut.lo.y, self.hi.x, cut.hi.y));
        }
    }

    /// Linear (row-major) offset of cell `p` inside the box. The x axis
    /// varies fastest, matching the layout of the device array kernels
    /// (Figures 5 and 8 of the paper).
    ///
    /// # Panics
    /// Debug-asserts that `p` lies inside the box.
    #[inline]
    pub fn offset_of(self, p: IntVector) -> usize {
        debug_assert!(self.contains(p), "offset_of: {p} outside {self:?}");
        let rel = p - self.lo;
        (rel.y * self.size().x + rel.x) as usize
    }

    /// Iterate over all cell indices in the box in row-major order.
    pub fn iter(self) -> BoxIter {
        BoxIter { b: self, cur: self.lo, done: self.is_empty() }
    }

    /// Split the box at coordinate `at` along `axis`, returning the lower
    /// and upper halves. `at` must satisfy `lo[axis] < at < hi[axis]`.
    ///
    /// # Panics
    /// Panics if `at` does not strictly split the box.
    pub fn split(self, axis: usize, at: i64) -> (GBox, GBox) {
        assert!(
            self.lo.get(axis) < at && at < self.hi.get(axis),
            "split: {at} does not split {self:?} along axis {axis}"
        );
        let lower = GBox::new(self.lo, self.hi.with(axis, at));
        let upper = GBox::new(self.lo.with(axis, at), self.hi);
        (lower, upper)
    }

    /// The axis along which the box is longest (ties go to x).
    pub fn longest_axis(self) -> usize {
        if self.size().y > self.size().x {
            1
        } else {
            0
        }
    }
}

impl fmt::Debug for GBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.lo, self.hi)
    }
}

impl fmt::Display for GBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.lo, self.hi)
    }
}

/// Row-major iterator over the cells of a box.
pub struct BoxIter {
    b: GBox,
    cur: IntVector,
    done: bool,
}

impl Iterator for BoxIter {
    type Item = IntVector;

    fn next(&mut self) -> Option<IntVector> {
        if self.done {
            return None;
        }
        let out = self.cur;
        self.cur.x += 1;
        if self.cur.x >= self.b.hi.x {
            self.cur.x = self.b.lo.x;
            self.cur.y += 1;
            if self.cur.y >= self.b.hi.y {
                self.done = true;
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let remaining_rows = (self.b.hi.y - self.cur.y - 1) * self.b.size().x;
        let this_row = self.b.hi.x - self.cur.x;
        let n = (remaining_rows + this_row) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BoxIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn emptiness_and_size() {
        assert!(GBox::EMPTY.is_empty());
        assert!(b(0, 0, 0, 5).is_empty());
        assert!(b(3, 3, 2, 5).is_empty());
        let bx = b(1, 2, 4, 6);
        assert!(!bx.is_empty());
        assert_eq!(bx.size(), IntVector::new(3, 4));
        assert_eq!(bx.num_cells(), 12);
        assert_eq!(GBox::EMPTY.num_cells(), 0);
    }

    #[test]
    fn containment() {
        let bx = b(0, 0, 4, 4);
        assert!(bx.contains(IntVector::new(0, 0)));
        assert!(bx.contains(IntVector::new(3, 3)));
        assert!(!bx.contains(IntVector::new(4, 0)));
        assert!(bx.contains_box(b(1, 1, 3, 3)));
        assert!(bx.contains_box(GBox::EMPTY));
        assert!(!bx.contains_box(b(1, 1, 5, 3)));
    }

    #[test]
    fn intersection() {
        let a = b(0, 0, 4, 4);
        let c = b(2, 2, 6, 6);
        assert_eq!(a.intersect(c), b(2, 2, 4, 4));
        assert!(a.intersects(c));
        assert!(!a.intersects(b(4, 0, 8, 4))); // edge-adjacent, no shared cell
        assert_eq!(a.intersect(b(10, 10, 12, 12)), GBox::EMPTY);
    }

    #[test]
    fn grow_and_shift() {
        let a = b(2, 2, 4, 4);
        assert_eq!(a.grow(IntVector::uniform(2)), b(0, 0, 6, 6));
        assert_eq!(a.grow(IntVector::uniform(-1)), b(3, 3, 3, 3));
        assert_eq!(a.shift(IntVector::new(1, -1)), b(3, 1, 5, 3));
        assert_eq!(a.grow_lower(IntVector::ONE), b(1, 1, 4, 4));
        assert_eq!(a.grow_upper(IntVector::ONE), b(2, 2, 5, 5));
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let a = b(1, 2, 3, 5);
        let r = IntVector::uniform(2);
        let fine = a.refine(r);
        assert_eq!(fine, b(2, 4, 6, 10));
        assert_eq!(fine.coarsen(r), a);
    }

    #[test]
    fn coarsen_covers_unaligned_boxes() {
        let r = IntVector::uniform(2);
        // [1,5) coarsens to [0,3): the coarse cells 0,1,2 cover fine 1..5.
        assert_eq!(b(1, 1, 5, 5).coarsen(r), b(0, 0, 3, 3));
        // Negative indices round toward -inf.
        assert_eq!(b(-3, -3, -1, -1).coarsen(r), b(-2, -2, 0, 0));
    }

    #[test]
    fn alignment() {
        let r = IntVector::uniform(2);
        assert!(b(0, 2, 4, 6).is_aligned(r));
        assert!(!b(1, 2, 4, 6).is_aligned(r));
        assert!(b(-4, -2, 0, 2).is_aligned(r));
    }

    #[test]
    fn bounding_box() {
        assert_eq!(b(0, 0, 2, 2).bounding(b(4, 4, 6, 6)), b(0, 0, 6, 6));
        assert_eq!(GBox::EMPTY.bounding(b(1, 1, 2, 2)), b(1, 1, 2, 2));
        assert_eq!(b(1, 1, 2, 2).bounding(GBox::EMPTY), b(1, 1, 2, 2));
    }

    #[test]
    fn subtraction_cases() {
        let a = b(0, 0, 4, 4);
        let mut out = Vec::new();

        // Disjoint: whole box survives.
        a.subtract_into(b(10, 10, 12, 12), &mut out);
        assert_eq!(out, vec![a]);

        // Full cover: nothing survives.
        out.clear();
        a.subtract_into(b(-1, -1, 5, 5), &mut out);
        assert!(out.is_empty());

        // Hole in the middle: four pieces, disjoint, correct total area.
        out.clear();
        a.subtract_into(b(1, 1, 3, 3), &mut out);
        assert_eq!(out.len(), 4);
        let total: i64 = out.iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, 16 - 4);
        for (i, p) in out.iter().enumerate() {
            for q in &out[i + 1..] {
                assert!(!p.intersects(*q), "{p:?} overlaps {q:?}");
            }
        }

        // Corner bite.
        out.clear();
        a.subtract_into(b(2, 2, 6, 6), &mut out);
        let total: i64 = out.iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, 16 - 4);
    }

    #[test]
    fn row_major_offsets() {
        let a = b(2, 3, 5, 6); // 3x3
        assert_eq!(a.offset_of(IntVector::new(2, 3)), 0);
        assert_eq!(a.offset_of(IntVector::new(4, 3)), 2);
        assert_eq!(a.offset_of(IntVector::new(2, 4)), 3);
        assert_eq!(a.offset_of(IntVector::new(4, 5)), 8);
    }

    #[test]
    fn iteration_is_row_major_and_complete() {
        let a = b(1, 1, 3, 3);
        let cells: Vec<_> = a.iter().collect();
        assert_eq!(
            cells,
            vec![
                IntVector::new(1, 1),
                IntVector::new(2, 1),
                IntVector::new(1, 2),
                IntVector::new(2, 2),
            ]
        );
        assert_eq!(a.iter().len(), 4);
        assert_eq!(GBox::EMPTY.iter().count(), 0);
    }

    #[test]
    fn offsets_match_iteration_order() {
        let a = b(-2, 7, 4, 11);
        for (k, p) in a.iter().enumerate() {
            assert_eq!(a.offset_of(p), k);
        }
    }

    #[test]
    fn split_and_longest_axis() {
        let a = b(0, 0, 8, 4);
        assert_eq!(a.longest_axis(), 0);
        let (lo, hi) = a.split(0, 3);
        assert_eq!(lo, b(0, 0, 3, 4));
        assert_eq!(hi, b(3, 0, 8, 4));
        assert_eq!(b(0, 0, 2, 6).longest_axis(), 1);
    }

    #[test]
    #[should_panic(expected = "does not split")]
    fn split_rejects_degenerate_cut() {
        b(0, 0, 4, 4).split(0, 0);
    }
}
