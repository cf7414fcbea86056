//! Load balancing: assign patch boxes to ranks.
//!
//! SAMRAI's default balancer orders boxes along a space-filling curve
//! and cuts the sequence into contiguous chunks of roughly equal cell
//! count, so each rank's patches are spatially compact (cheap halo
//! exchanges). Patches, not cells, are the unit of work (paper Section
//! II: "using the patch as a basic unit of work in the simulation, work
//! can be easily shared between multiple processes").

use rbamr_geometry::{morton_key, GBox};

/// Assign each box an owner rank using Morton ordering + greedy prefix
/// partitioning by cell count. Returns `owners[i]` for `boxes[i]`.
///
/// Deterministic: equal inputs give equal assignments on every rank, so
/// the assignment can be computed redundantly instead of communicated.
///
/// # Panics
/// Panics if `nranks == 0`.
pub fn partition_sfc(boxes: &[GBox], nranks: usize) -> Vec<usize> {
    assert!(nranks > 0, "partition_sfc: need at least one rank");
    if boxes.is_empty() {
        return Vec::new();
    }
    // Order boxes by the Morton key of their centre. Floor division
    // (`div_euclid`), not the truncating `/`: truncation rounds toward
    // zero, so centroids of boxes straddling the origin get pulled
    // across the Morton mid-plane and the curve order inverts for
    // negative index spaces.
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_by_key(|&i| {
        let c = boxes[i];
        let cx = (c.lo.x + c.hi.x).div_euclid(2);
        let cy = (c.lo.y + c.hi.y).div_euclid(2);
        (morton_key(cx, cy), i)
    });

    let total: i64 = boxes.iter().map(|b| b.num_cells()).sum();
    let mut owners = vec![0usize; boxes.len()];
    let mut rank = 0usize;
    let mut assigned_cells = 0i64;
    let consumed_ranks_target = |rank: usize| -> i64 {
        // Cumulative ideal cell count after `rank+1` ranks.
        ((rank as i64 + 1) * total) / nranks as i64
    };
    for &i in &order {
        let cells = boxes[i].num_cells();
        // If this rank already has work and taking the box would blow
        // past its cumulative target by more than half the box, start
        // the next rank instead — keeps an outsized box from piling
        // onto an already-loaded rank.
        if rank < nranks - 1
            && assigned_cells > 0
            && assigned_cells + cells > consumed_ranks_target(rank) + cells / 2
        {
            rank += 1;
        }
        owners[i] = rank.min(nranks - 1);
        assigned_cells += cells;
        while rank < nranks - 1 && assigned_cells >= consumed_ranks_target(rank) {
            rank += 1;
        }
    }
    owners
}

/// Maximum over ranks of assigned cells divided by the ideal per-rank
/// share — 1.0 is perfect balance. Used by tests and diagnostics.
pub fn imbalance(boxes: &[GBox], owners: &[usize], nranks: usize) -> f64 {
    assert_eq!(boxes.len(), owners.len());
    let total: i64 = boxes.iter().map(|b| b.num_cells()).sum();
    if total == 0 || nranks == 0 {
        return 1.0;
    }
    let mut per_rank = vec![0i64; nranks];
    for (b, &o) in boxes.iter().zip(owners) {
        per_rank[o] += b.num_cells();
    }
    let ideal = total as f64 / nranks as f64;
    per_rank.iter().map(|&c| c as f64 / ideal).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::IntVector;

    fn tiles(n: i64, size: i64) -> Vec<GBox> {
        let mut out = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let lo = IntVector::new(i * size, j * size);
                out.push(GBox::new(lo, lo + IntVector::uniform(size)));
            }
        }
        out
    }

    #[test]
    fn single_rank_owns_everything() {
        let boxes = tiles(4, 8);
        let owners = partition_sfc(&boxes, 1);
        assert!(owners.iter().all(|&o| o == 0));
    }

    #[test]
    fn equal_tiles_balance_perfectly() {
        let boxes = tiles(4, 8); // 16 equal tiles
        let owners = partition_sfc(&boxes, 4);
        let imb = imbalance(&boxes, &owners, 4);
        assert!((imb - 1.0).abs() < 1e-12, "imbalance {imb}");
        // All ranks used.
        for r in 0..4 {
            assert!(owners.contains(&r), "rank {r} got nothing");
        }
    }

    #[test]
    fn morton_order_keeps_ranks_compact() {
        // With 2x2 ranks over a 4x4 tile grid, each rank's tiles should
        // form a quadrant (Morton property).
        let boxes = tiles(4, 8);
        let owners = partition_sfc(&boxes, 4);
        for r in 0..4usize {
            let mine: Vec<GBox> =
                boxes.iter().zip(&owners).filter(|(_, &o)| o == r).map(|(b, _)| *b).collect();
            let bound = mine.iter().fold(GBox::EMPTY, |a, &b| a.bounding(b));
            let covered: i64 = mine.iter().map(|b| b.num_cells()).sum();
            assert_eq!(bound.num_cells(), covered, "rank {r} tiles not compact: {mine:?}");
        }
    }

    #[test]
    fn uneven_boxes_stay_reasonable() {
        let mut boxes = tiles(3, 4);
        boxes.push(GBox::from_coords(100, 100, 132, 132)); // one big box
        let owners = partition_sfc(&boxes, 3);
        let imb = imbalance(&boxes, &owners, 3);
        // The big box dominates; imbalance is bounded by its share.
        assert!(imb < 3.0, "imbalance {imb}");
    }

    #[test]
    fn more_ranks_than_boxes() {
        let boxes = tiles(1, 8);
        let owners = partition_sfc(&boxes, 5);
        assert_eq!(owners.len(), 1);
        assert!(owners[0] < 5);
    }

    #[test]
    fn deterministic() {
        let boxes = tiles(5, 4);
        assert_eq!(partition_sfc(&boxes, 7), partition_sfc(&boxes, 7));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        partition_sfc(&tiles(2, 4), 0);
    }

    #[test]
    fn origin_straddling_boxes_keep_morton_order() {
        // Regression: the centroid of A = [-2,1)x[0,3) is (-0.5, 1.5).
        // Truncating division rounded its x to 0 — across the Morton
        // mid-plane — which sorted A *after* the much more negative B
        // and flipped the rank assignment. Floor division keeps the
        // centroid at (-1, 1), before B = [-10,-8)x[20,22) on the curve.
        let a = GBox::from_coords(-2, 0, 1, 3);
        let b = GBox::from_coords(-10, 20, -8, 22);
        let owners = partition_sfc(&[a, b], 2);
        assert_eq!(owners, vec![0, 1], "curve order inverted across the origin");
    }

    #[test]
    fn negative_index_space_stays_compact() {
        // A tile grid shifted to straddle the origin with odd-sum
        // centroids: each of 4 ranks must still get one quadrant.
        let boxes: Vec<GBox> = tiles(4, 7)
            .iter()
            .map(|t| GBox::new(t.lo - IntVector::uniform(14), t.hi - IntVector::uniform(14)))
            .collect();
        let owners = partition_sfc(&boxes, 4);
        for r in 0..4usize {
            let mine: Vec<GBox> =
                boxes.iter().zip(&owners).filter(|(_, &o)| o == r).map(|(b, _)| *b).collect();
            let bound = mine.iter().fold(GBox::EMPTY, |a, &b| a.bounding(b));
            let covered: i64 = mine.iter().map(|b| b.num_cells()).sum();
            assert_eq!(bound.num_cells(), covered, "rank {r} tiles not compact: {mine:?}");
        }
    }
}
