//! Property-based tests for the box calculus invariants that the AMR
//! framework relies on.

use proptest::prelude::*;
use rbamr_geometry::{BoxList, Centring, GBox, IntVector, UnorderedDigest};
use std::collections::HashSet;

fn arb_box() -> impl Strategy<Value = GBox> {
    (-50i64..50, -50i64..50, 1i64..30, 1i64..30)
        .prop_map(|(x, y, w, h)| GBox::from_coords(x, y, x + w, y + h))
}

fn arb_ratio() -> impl Strategy<Value = IntVector> {
    (1i64..5, 1i64..5).prop_map(|(x, y)| IntVector::new(x, y))
}

proptest! {
    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersection_laws(a in arb_box(), b in arb_box()) {
        let ab = a.intersect(b);
        prop_assert_eq!(ab, b.intersect(a));
        prop_assert!(a.contains_box(ab));
        prop_assert!(b.contains_box(ab));
    }

    /// Subtraction produces disjoint pieces whose area is |a| - |a ∩ b|
    /// and which never intersect b.
    #[test]
    fn subtraction_partitions(a in arb_box(), b in arb_box()) {
        let mut out = Vec::new();
        a.subtract_into(b, &mut out);
        let area: i64 = out.iter().map(|p| p.num_cells()).sum();
        prop_assert_eq!(area, a.num_cells() - a.intersect(b).num_cells());
        for (i, p) in out.iter().enumerate() {
            prop_assert!(!p.is_empty());
            prop_assert!(!p.intersects(b));
            prop_assert!(a.contains_box(*p));
            for q in &out[i + 1..] {
                prop_assert!(!p.intersects(*q));
            }
        }
    }

    /// refine then coarsen is the identity for any positive ratio.
    #[test]
    fn refine_coarsen_identity(a in arb_box(), r in arb_ratio()) {
        prop_assert_eq!(a.refine(r).coarsen(r), a);
    }

    /// Coarsening covers: refining the coarsened box contains the
    /// original.
    #[test]
    fn coarsen_covers(a in arb_box(), r in arb_ratio()) {
        let c = a.coarsen(r);
        prop_assert!(c.refine(r).contains_box(a));
    }

    /// A refined box is always aligned to its ratio.
    #[test]
    fn refined_boxes_are_aligned(a in arb_box(), r in arb_ratio()) {
        prop_assert!(a.refine(r).is_aligned(r));
    }

    /// BoxList area accounting: adding boxes one at a time produces the
    /// area of the true set union (checked against per-cell membership).
    #[test]
    fn boxlist_union_area(boxes in prop::collection::vec(arb_box(), 1..6)) {
        let list = BoxList::from_boxes(boxes.iter().copied());
        // Count cells by membership in any input box over the bounding box.
        let bound = boxes.iter().fold(GBox::EMPTY, |acc, &b| acc.bounding(b));
        let mut count = 0i64;
        for p in bound.iter() {
            if boxes.iter().any(|b| b.contains(p)) {
                count += 1;
            }
        }
        prop_assert_eq!(list.num_cells(), count);
        // Components are disjoint.
        for (i, p) in list.boxes().iter().enumerate() {
            for q in &list.boxes()[i + 1..] {
                prop_assert!(!p.intersects(*q));
            }
        }
    }

    /// Subtracting a list from itself leaves nothing.
    #[test]
    fn boxlist_self_subtraction(boxes in prop::collection::vec(arb_box(), 1..6)) {
        let mut list = BoxList::from_boxes(boxes.iter().copied());
        let other = list.clone();
        list.subtract(&other);
        prop_assert!(list.is_empty());
    }

    /// Coalescing never changes the region (area and membership).
    #[test]
    fn coalesce_preserves_region(boxes in prop::collection::vec(arb_box(), 1..6)) {
        let list = BoxList::from_boxes(boxes.iter().copied());
        let mut merged = list.clone();
        merged.coalesce();
        prop_assert_eq!(merged.num_cells(), list.num_cells());
        prop_assert!(merged.len() <= list.len());
        let bound = list.bounding();
        for p in bound.iter() {
            prop_assert_eq!(merged.contains(p), list.contains(p));
        }
    }

    /// Data boxes nest: the cell data box is contained in the side data
    /// box which is contained in the node data box.
    #[test]
    fn centring_data_boxes_nest(a in arb_box()) {
        let cell = Centring::Cell.data_box(a);
        let node = Centring::Node.data_box(a);
        for axis in 0..2 {
            let side = Centring::Side(axis).data_box(a);
            prop_assert!(side.contains_box(cell));
            prop_assert!(node.contains_box(side));
        }
    }

    /// Ghost overlap fill regions lie inside the ghost box and outside
    /// the interior, for every centring.
    #[test]
    fn ghost_overlap_placement(dst in arb_box(), src in arb_box(), g in 1i64..4) {
        let ghosts = IntVector::uniform(g);
        for centring in [Centring::Cell, Centring::Node, Centring::Side(0), Centring::Side(1)] {
            let ov = rbamr_geometry::ghost_overlaps(dst, ghosts, src, centring, IntVector::ZERO);
            let interior = centring.data_box(dst);
            let ghost_data = centring.data_box(dst.grow(ghosts));
            let src_data = centring.data_box(src);
            for b in ov.dst_boxes.boxes() {
                prop_assert!(ghost_data.contains_box(*b));
                prop_assert!(!b.intersects(interior));
                prop_assert!(src_data.contains_box(*b));
            }
        }
    }

    /// The spatial index returns exactly the brute-force intersecting
    /// set, for any box population, ghost width and query region.
    #[test]
    fn box_index_matches_bruteforce(
        boxes in proptest::collection::vec(arb_box(), 0..40),
        q in arb_box(),
        g in 0i64..4,
    ) {
        let ix = rbamr_geometry::BoxIndex::new(&boxes, IntVector::uniform(g));
        let expect: Vec<usize> = (0..boxes.len())
            .filter(|&i| boxes[i].grow(IntVector::uniform(g)).intersects(q))
            .collect();
        prop_assert_eq!(ix.query(q), expect.clone());
        prop_assert_eq!(ix.query_bruteforce(q), expect);
    }
}

fn arb_small_box() -> impl Strategy<Value = GBox> {
    (-20i64..20, -20i64..20, 0i64..12, 0i64..12)
        .prop_map(|(x, y, w, h)| GBox::from_coords(x, y, x + w, y + h))
}

/// The cells of some boxes, as a set.
fn cell_set<'a>(boxes: impl IntoIterator<Item = &'a GBox>) -> HashSet<IntVector> {
    boxes.into_iter().flat_map(|b| b.iter()).collect()
}

/// The cells of a region, as a set, after checking that its boxes are
/// non-empty and disjoint (then their cell counts add up to the set's).
fn region_cells(l: &BoxList) -> Result<HashSet<IntVector>, TestCaseError> {
    let cells = cell_set(l.boxes());
    prop_assert!(l.boxes().iter().all(|b| !b.is_empty()), "an empty component in {:?}", l);
    prop_assert_eq!(l.num_cells(), cells.len() as i64, "overlapping components in {:?}", l);
    Ok(cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Region membership, cell by cell, against a `HashSet` of cells:
    /// `add`, `union`, `subtract`, `intersect_box` and `contains_box`
    /// (empty operands included), every result non-empty and disjoint.
    #[test]
    fn boxlist_membership_matches_a_cell_set(
        a in prop::collection::vec(arb_small_box(), 0..5),
        b in prop::collection::vec(arb_small_box(), 0..5),
        q in arb_small_box(),
    ) {
        let (la, lb) = (BoxList::from_boxes(a.iter().copied()), BoxList::from_boxes(b.iter().copied()));
        let (sa, sb, sq) = (cell_set(&a), cell_set(&b), cell_set([&q]));
        prop_assert_eq!(region_cells(&la)?, sa.clone());

        let mut added = la.clone();
        added.add(q);
        prop_assert_eq!(region_cells(&added)?, &sa | &sq);

        let mut union = la.clone();
        union.union(&lb);
        prop_assert_eq!(region_cells(&union)?, &sa | &sb);

        let mut difference = la.clone();
        difference.subtract(&lb);
        prop_assert_eq!(region_cells(&difference)?, &sa - &sb);

        let mut cut = la.clone();
        cut.subtract_box(q);
        prop_assert_eq!(region_cells(&cut)?, &sa - &sq);

        prop_assert_eq!(region_cells(&la.intersect_box(q))?, &sa & &sq);
        // The inputs lie in their region, often across several of its
        // components; `q` and the bounding box usually do not.
        for x in a.iter().chain(&b).chain([&q, &la.bounding()]) {
            prop_assert_eq!(la.contains_box(*x), cell_set([x]).is_subset(&sa), "contains {:?}", x);
        }
    }
}

/// Parts an item may be assigned to.
const PARTS: usize = 5;

/// The accumulators of `parts`, merged in the order of their `keys`.
fn merged(parts: &[Vec<u64>], keys: &[u64]) -> UnorderedDigest {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&p| keys[p]);
    let mut d = UnorderedDigest::new();
    for p in order {
        let mut part = UnorderedDigest::new();
        parts[p].iter().for_each(|&item| part.add(item));
        d.merge(&part);
    }
    d
}

proptest! {
    /// `UnorderedDigest::merge`, which the per-rank state digests rest
    /// on: any split of an item multiset (duplicates included) into
    /// parts, merged in any order, equals one pass over all the items;
    /// an item that one part also holds as a duplicate, like a patch
    /// digested on two ranks, changes it.
    #[test]
    fn merged_parts_equal_one_pass(
        items in prop::collection::vec((0u64..16, 0usize..PARTS), 1..40),
        keys in prop::collection::vec(any::<u64>(), PARTS),
        dup in any::<usize>(),
    ) {
        let (mut once, mut parts) = (UnorderedDigest::new(), vec![Vec::new(); PARTS]);
        for &(item, part) in &items {
            once.add(item);
            parts[part].push(item);
        }
        prop_assert_eq!(merged(&parts, &keys), once);

        let (item, part) = items[dup % items.len()];
        parts[(part + 1) % PARTS].push(item);
        prop_assert_ne!(merged(&parts, &keys).finish(), once.finish());
    }
}
