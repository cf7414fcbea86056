//! Spatial box index: "which boxes intersect this region?" in
//! O(log N + k) instead of O(N).
//!
//! Every communication schedule and every regrid in the `amr` crate
//! asks the same question — which patches of a level overlap a given
//! ghost, scratch or transfer region — and the level metadata is
//! globally replicated, so the question used to be answered by scanning
//! all N boxes for each of N destinations. That quadratic metadata
//! cost is exactly the regridding overhead the paper's Fig. 11 shows
//! growing with scale; production frameworks (e.g. AMReX) answer it
//! with hashed or sorted spatial indices instead.
//!
//! [`BoxIndex`] is a uniform bucket grid over the boxes' bounding box,
//! its bucket the size of an average box, so a box lists itself in the
//! few buckets it meets and a query reads the few buckets its region
//! meets — O(k) for AMR levels, whose patches are of similar size —
//! reporting each box once, from the first bucket it shares with the
//! query. Queries return original box indices in ascending order, so a
//! plan built from index candidates is *identical* — not merely
//! equivalent — to one built from the brute-force scan (the `amr`
//! proptests assert this).

use crate::gbox::GBox;
use crate::ivec::IntVector;

/// A static spatial index over a set of boxes.
///
/// Built once from a level's (replicated) box array; queries never
/// mutate. The optional `ghost` growth is applied to every stored box
/// at build time, so a single index answers "which boxes come within
/// `ghost` cells of region R" without growing every query.
#[derive(Clone, Debug)]
pub struct BoxIndex {
    /// Every input box grown by `ghost`, by original index; an empty
    /// input is kept as [`GBox::EMPTY`] and never reported.
    boxes: Vec<GBox>,
    /// Number of non-empty boxes.
    len: usize,
    /// The bounding box of the grown boxes: the grid's extent.
    bound: GBox,
    /// Extent of one bucket, per axis.
    bucket: IntVector,
    /// Buckets along x (rows of the grid are along x).
    columns: usize,
    /// Bucket `k` (row-major) lists `entries[starts[k]..starts[k + 1]]`:
    /// the boxes meeting it with their indices, ascending.
    starts: Vec<u32>,
    entries: Vec<(GBox, u32)>,
}

impl BoxIndex {
    /// Build an index over `boxes`, each grown by `ghost` cells per
    /// side. Empty input boxes are never reported (they cannot
    /// intersect anything, even grown).
    ///
    /// Cost: O(N) buckets and O(N) entries for boxes of similar size.
    ///
    /// # Panics
    /// Panics if any `ghost` component is negative.
    pub fn new(boxes: &[GBox], ghost: IntVector) -> Self {
        assert!(ghost.all_ge(IntVector::ZERO), "BoxIndex: negative ghost width");
        assert!(boxes.len() <= u32::MAX as usize, "BoxIndex: too many boxes");
        let boxes: Vec<GBox> =
            boxes.iter().map(|b| if b.is_empty() { GBox::EMPTY } else { b.grow(ghost) }).collect();
        let live = || boxes.iter().filter(|b| !b.is_empty());
        let len = live().count();
        let bound = live().fold(GBox::EMPTY, |acc, &b| acc.bounding(b));
        // Buckets the size of an average box, doubled while there are
        // more than a few per box (boxes of very different sizes).
        let n = len.max(1) as i64;
        let total = live().fold(IntVector::ZERO, |acc, b| acc + b.size());
        let mut bucket = IntVector::new((total.x / n).max(1), (total.y / n).max(1));
        let extent = if len == 0 { IntVector::ZERO } else { bound.size() };
        let buckets = |bucket: IntVector| {
            let dims = extent.div_ceil(bucket);
            dims.x.saturating_mul(dims.y)
        };
        while buckets(bucket) > 4 * n + 16 {
            bucket = bucket * 2;
        }
        let columns = extent.div_ceil(bucket).x.max(0) as usize;
        let mut index = Self {
            boxes,
            len,
            bound,
            bucket,
            columns,
            starts: vec![0; buckets(bucket).max(0) as usize + 1],
            entries: Vec::new(),
        };
        // Counting sort by bucket, boxes in ascending order.
        for b in index.boxes.iter().filter(|b| !b.is_empty()) {
            index.buckets(*b).for_each(|k| index.starts[k + 1] += 1);
        }
        for k in 1..index.starts.len() {
            index.starts[k] += index.starts[k - 1];
        }
        let mut next = index.starts.clone();
        let total = *index.starts.last().expect("one start at least") as usize;
        index.entries = vec![(GBox::EMPTY, 0); total];
        for (i, &b) in index.boxes.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            for k in index.buckets(b) {
                index.entries[next[k] as usize] = (b, i as u32);
                next[k] += 1;
            }
        }
        index
    }

    /// The bucket range `region` (inside the bound) meets: its lower
    /// and upper bucket coordinates, inclusive.
    fn range(&self, region: GBox) -> (IntVector, IntVector) {
        let lo = (region.lo - self.bound.lo).div_floor(self.bucket);
        let hi = (region.hi - IntVector::ONE - self.bound.lo).div_floor(self.bucket);
        (lo, hi)
    }

    /// The buckets, row-major, that the stored box `b` meets.
    fn buckets(&self, b: GBox) -> impl Iterator<Item = usize> {
        let ((lo, hi), columns) = (self.range(b), self.columns);
        (lo.y..=hi.y)
            .flat_map(move |y| (lo.x..=hi.x).map(move |x| y as usize * columns + x as usize))
    }

    /// Number of (non-empty) boxes in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of all stored (grown) boxes intersecting `region`,
    /// ascending. Convenience wrapper over [`BoxIndex::query_into`].
    pub fn query(&self, region: GBox) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(region, &mut out);
        out
    }

    /// Collect into `out` (cleared first) the original indices of all
    /// stored boxes intersecting `region`, in ascending index order —
    /// the same order a brute-force scan visits them.
    ///
    /// Cost: the entries of the buckets `region` meets — O(k) for k
    /// results when the boxes are of similar size.
    pub fn query_into(&self, region: GBox, out: &mut Vec<usize>) {
        out.clear();
        let clipped = region.intersect(self.bound);
        if clipped.is_empty() {
            return;
        }
        let (lo, hi) = self.range(clipped);
        for y in lo.y..=hi.y {
            // A box is reported from the first bucket it shares with
            // the query, so once: the query's first row or column, or
            // the one the box starts in.
            let row = self.bound.lo.y + y * self.bucket.y;
            for x in lo.x..=hi.x {
                let column = self.bound.lo.x + x * self.bucket.x;
                let k = y as usize * self.columns + x as usize;
                for &(b, i) in &self.entries[self.starts[k] as usize..self.starts[k + 1] as usize] {
                    let first = (x == lo.x || b.lo.x >= column) && (y == lo.y || b.lo.y >= row);
                    if first && b.intersects(region) {
                        out.push(i as usize);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Reference implementation: linear scan over the stored (grown)
    /// boxes. The schedules keep this as their test oracle.
    pub fn query_bruteforce(&self, region: GBox) -> Vec<usize> {
        (0..self.boxes.len()).filter(|&i| self.boxes[i].intersects(region)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn tiles(n: i64, size: i64, origin: IntVector) -> Vec<GBox> {
        let mut out = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let lo = origin + IntVector::new(i * size, j * size);
                out.push(GBox::new(lo, lo + IntVector::uniform(size)));
            }
        }
        out
    }

    #[test]
    fn finds_exactly_the_intersecting_set() {
        let boxes = tiles(4, 8, IntVector::ZERO);
        let ix = BoxIndex::new(&boxes, IntVector::ZERO);
        assert_eq!(ix.len(), 16);
        // A region covering the lower-left 2x2 tiles plus one cell of
        // the next ring.
        let q = b(0, 0, 17, 17);
        let expect: Vec<usize> = (0..boxes.len()).filter(|&i| boxes[i].intersects(q)).collect();
        assert_eq!(ix.query(q), expect);
        assert_eq!(ix.query(q), ix.query_bruteforce(q));
    }

    #[test]
    fn touching_edges_and_corners_do_not_count_without_ghosts() {
        // [0,8)² and [8,16)² share an edge coordinate but no cell.
        let boxes = vec![b(0, 0, 8, 8), b(8, 0, 16, 8), b(8, 8, 16, 16)];
        let ix = BoxIndex::new(&boxes, IntVector::ZERO);
        // Query exactly box 0: the edge-adjacent box 1 and the
        // corner-adjacent box 2 must not appear.
        assert_eq!(ix.query(b(0, 0, 8, 8)), vec![0]);
        // One cell across the edge picks up box 1 only.
        assert_eq!(ix.query(b(7, 0, 9, 8)), vec![0, 1]);
        // One cell across the corner picks up everything it touches.
        assert_eq!(ix.query(b(7, 7, 9, 9)), vec![0, 1, 2]);
    }

    #[test]
    fn ghost_width_only_overlaps_are_found() {
        // Two boxes separated by a 1-cell gap: a ghost width of 2
        // reaches across the gap into the neighbour, ghost 1 only
        // reaches the empty gap cell, ghost 0 sees nothing.
        let boxes = vec![b(0, 0, 4, 4), b(5, 0, 9, 4)];
        let bare = BoxIndex::new(&boxes, IntVector::ZERO);
        assert_eq!(bare.query(b(0, 0, 4, 4)), vec![0]);
        let near = BoxIndex::new(&boxes, IntVector::ONE);
        assert_eq!(near.query(b(0, 0, 4, 4)), vec![0]);
        let grown = BoxIndex::new(&boxes, IntVector::uniform(2));
        assert_eq!(grown.query(b(0, 0, 4, 4)), vec![0, 1]);
        // The gap cell itself intersects both grown boxes.
        assert_eq!(grown.query(b(4, 0, 5, 4)), vec![0, 1]);
        // A region clear of both grown boxes finds nothing.
        assert!(grown.query(b(20, 20, 24, 24)).is_empty());
    }

    #[test]
    fn empty_inputs_and_queries() {
        let ix = BoxIndex::new(&[], IntVector::ZERO);
        assert!(ix.is_empty());
        assert!(ix.query(b(0, 0, 100, 100)).is_empty());
        // Empty boxes are dropped even though growing them would make
        // them non-empty.
        let ix = BoxIndex::new(&[GBox::EMPTY, b(0, 0, 2, 2)], IntVector::uniform(3));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.query(b(-1, -1, 0, 0)), vec![1]);
        assert!(ix.query(GBox::EMPTY).is_empty());
    }

    #[test]
    fn negative_index_space() {
        let boxes = tiles(4, 7, IntVector::uniform(-14));
        let ix = BoxIndex::new(&boxes, IntVector::ONE);
        for &q in &[b(-14, -14, -7, -7), b(-1, -1, 1, 1), b(-20, -20, 20, 20)] {
            assert_eq!(ix.query(q), ix.query_bruteforce(q), "query {q}");
        }
    }

    #[test]
    fn duplicate_and_nested_boxes() {
        let boxes = vec![b(0, 0, 8, 8), b(0, 0, 8, 8), b(2, 2, 4, 4)];
        let ix = BoxIndex::new(&boxes, IntVector::ZERO);
        assert_eq!(ix.query(b(3, 3, 4, 4)), vec![0, 1, 2]);
    }
}
