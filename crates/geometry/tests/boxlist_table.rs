//! Frozen box sequences of the `BoxList` calculus.
//!
//! A `BoxList`'s box order is observable: schedules file one job per
//! box of an overlap, so the order is part of every plan digest and of
//! the byte layout of every aggregated message. This table pins the
//! exact output sequence of each operation over a fixed corpus —
//! disjoint, partially overlapping, nested, edge- and corner-touching,
//! empty and degenerate operands, and lists of several components — as
//! literals recorded from the carve-into-fresh-arrays implementation.
//! A rewrite of the calculus must reproduce every row unedited.

use rbamr_geometry::{BoxList, GBox, IntVector};

type Coords = [i64; 4];

/// One corpus entry: a list built from `list` (inputs may overlap), a
/// single box operand and a list operand.
struct Case {
    name: &'static str,
    list: &'static [Coords],
    other: Coords,
    others: &'static [Coords],
}

const CASES: [Case; 16] = [
    Case {
        name: "disjoint",
        list: &[[0, 0, 4, 4]],
        other: [6, 6, 9, 8],
        others: &[[6, 6, 9, 8], [10, 0, 12, 3]],
    },
    Case {
        name: "partial",
        list: &[[0, 0, 4, 4]],
        other: [2, 2, 6, 6],
        others: &[[2, 2, 6, 6], [-2, 1, 1, 3]],
    },
    Case {
        name: "nested_inside",
        list: &[[0, 0, 8, 8]],
        other: [2, 3, 5, 6],
        others: &[[2, 3, 5, 6], [1, 1, 2, 2]],
    },
    Case {
        name: "nested_around",
        list: &[[2, 2, 4, 4]],
        other: [0, 0, 8, 8],
        others: &[[0, 0, 8, 8]],
    },
    Case {
        name: "touching_edge",
        list: &[[0, 0, 4, 4]],
        other: [4, 0, 8, 4],
        others: &[[4, 0, 8, 4], [0, 4, 4, 6]],
    },
    Case {
        name: "touching_corner",
        list: &[[0, 0, 4, 4]],
        other: [4, 4, 6, 6],
        others: &[[4, 4, 6, 6], [-2, -2, 0, 0]],
    },
    Case { name: "empty_list", list: &[], other: [0, 0, 2, 2], others: &[[0, 0, 2, 2]] },
    Case {
        name: "empty_operand",
        list: &[[0, 0, 4, 4], [5, 0, 7, 2]],
        other: [3, 3, 3, 9],
        others: &[],
    },
    Case {
        name: "cross",
        list: &[[0, 2, 6, 4], [2, 0, 4, 6]],
        other: [1, 1, 5, 5],
        others: &[[1, 1, 5, 5], [5, 3, 8, 5]],
    },
    Case {
        name: "tiles",
        list: &[[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 4, 4]],
        other: [1, 1, 3, 3],
        others: &[[4, 0, 6, 4], [0, 4, 6, 5]],
    },
    Case {
        name: "three_components",
        list: &[[0, 0, 4, 4], [6, 0, 10, 4], [0, 6, 10, 8]],
        other: [3, -1, 7, 7],
        others: &[[3, -1, 7, 7], [9, 3, 12, 9]],
    },
    Case {
        name: "strip_through",
        list: &[[0, 0, 9, 3]],
        other: [3, -1, 6, 5],
        others: &[[3, -1, 6, 5]],
    },
    Case {
        name: "ring",
        list: &[[-4, -4, 4, 4]],
        other: [-2, -2, 2, 2],
        others: &[[-2, -2, 2, 2], [-6, -1, -3, 1]],
    },
    Case {
        name: "spanning_contained",
        list: &[[0, 0, 2, 4], [2, 0, 4, 4]],
        other: [1, 1, 3, 3],
        others: &[[0, 0, 4, 4]],
    },
    Case {
        name: "spanning_escapes",
        list: &[[0, 0, 2, 4], [2, 0, 4, 4]],
        other: [3, 3, 5, 5],
        others: &[[3, 3, 5, 5], [-1, 0, 0, 4]],
    },
    Case {
        name: "unaligned",
        list: &[[1, 1, 3, 3], [3, 1, 5, 3], [-3, 2, 0, 7]],
        other: [2, 0, 4, 6],
        others: &[[2, 0, 4, 6], [-1, 1, 1, 2]],
    },
];

fn gbox(c: Coords) -> GBox {
    GBox::from_coords(c[0], c[1], c[2], c[3])
}

fn list_of(cs: &[Coords]) -> BoxList {
    BoxList::from_boxes(cs.iter().copied().map(gbox))
}

fn coords(l: &BoxList) -> Vec<Coords> {
    l.boxes().iter().map(|b| [b.lo.x, b.lo.y, b.hi.x, b.hi.y]).collect()
}

/// The pinned results of one case.
#[derive(Debug, PartialEq)]
struct Row {
    from_boxes: Vec<Coords>,
    add: Vec<Coords>,
    union: Vec<Coords>,
    subtract_box: Vec<Coords>,
    subtract: Vec<Coords>,
    intersect_box: Vec<Coords>,
    intersect: Vec<Coords>,
    union_coalesced: Vec<Coords>,
    subtract_coalesced: Vec<Coords>,
    grow: Vec<Coords>,
    coarsen: Vec<Coords>,
    contains_box: bool,
}

/// Every pinned result of one case.
fn results(case: &Case) -> Row {
    let list = list_of(case.list);
    let (other, others) = (gbox(case.other), list_of(case.others));
    let with = |f: &dyn Fn(&mut BoxList)| {
        let mut l = list.clone();
        f(&mut l);
        coords(&l)
    };
    Row {
        from_boxes: coords(&list),
        add: with(&|l| l.add(other)),
        union: with(&|l| l.union(&others)),
        subtract_box: with(&|l| l.subtract_box(other)),
        subtract: with(&|l| l.subtract(&others)),
        intersect_box: coords(&list.intersect_box(other)),
        intersect: coords(&list.intersect(&others)),
        union_coalesced: with(&|l| {
            l.union(&others);
            l.coalesce();
        }),
        subtract_coalesced: with(&|l| {
            l.subtract_box(other);
            l.coalesce();
        }),
        grow: coords(&list.grow(IntVector::new(1, 2))),
        coarsen: coords(&list.coarsen(IntVector::new(2, 3))),
        contains_box: list.contains_box(other),
    }
}

/// The recorded sequences, one row per case of [`CASES`], in order.
fn expected() -> Vec<Row> {
    vec![
        // disjoint
        Row {
            from_boxes: vec![[0, 0, 4, 4]],
            add: vec![[0, 0, 4, 4], [6, 6, 9, 8]],
            union: vec![[0, 0, 4, 4], [6, 6, 9, 8], [10, 0, 12, 3]],
            subtract_box: vec![[0, 0, 4, 4]],
            subtract: vec![[0, 0, 4, 4]],
            intersect_box: vec![],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 4, 4], [6, 6, 9, 8], [10, 0, 12, 3]],
            subtract_coalesced: vec![[0, 0, 4, 4]],
            grow: vec![[-1, -2, 5, 6]],
            coarsen: vec![[0, 0, 2, 2]],
            contains_box: false,
        },
        // partial
        Row {
            from_boxes: vec![[0, 0, 4, 4]],
            add: vec![[0, 0, 4, 4], [2, 4, 6, 6], [4, 2, 6, 4]],
            union: vec![[0, 0, 4, 4], [2, 4, 6, 6], [4, 2, 6, 4], [-2, 1, 0, 3]],
            subtract_box: vec![[0, 0, 4, 2], [0, 2, 2, 4]],
            subtract: vec![[0, 0, 4, 1], [1, 1, 4, 2], [0, 3, 2, 4], [1, 2, 2, 3]],
            intersect_box: vec![[2, 2, 4, 4]],
            intersect: vec![[2, 2, 4, 4], [0, 1, 1, 3]],
            union_coalesced: vec![[0, 0, 4, 4], [2, 4, 6, 6], [4, 2, 6, 4], [-2, 1, 0, 3]],
            subtract_coalesced: vec![[0, 0, 4, 2], [0, 2, 2, 4]],
            grow: vec![[-1, -2, 5, 6]],
            coarsen: vec![[0, 0, 2, 2]],
            contains_box: false,
        },
        // nested_inside
        Row {
            from_boxes: vec![[0, 0, 8, 8]],
            add: vec![[0, 0, 8, 8]],
            union: vec![[0, 0, 8, 8]],
            subtract_box: vec![[0, 0, 8, 3], [0, 6, 8, 8], [0, 3, 2, 6], [5, 3, 8, 6]],
            subtract: vec![
                [0, 0, 8, 1],
                [0, 2, 8, 3],
                [0, 1, 1, 2],
                [2, 1, 8, 2],
                [0, 6, 8, 8],
                [0, 3, 2, 6],
                [5, 3, 8, 6],
            ],
            intersect_box: vec![[2, 3, 5, 6]],
            intersect: vec![[2, 3, 5, 6], [1, 1, 2, 2]],
            union_coalesced: vec![[0, 0, 8, 8]],
            subtract_coalesced: vec![[0, 0, 8, 3], [0, 6, 8, 8], [0, 3, 2, 6], [5, 3, 8, 6]],
            grow: vec![[-1, -2, 9, 10]],
            coarsen: vec![[0, 0, 4, 3]],
            contains_box: true,
        },
        // nested_around
        Row {
            from_boxes: vec![[2, 2, 4, 4]],
            add: vec![[2, 2, 4, 4], [0, 0, 8, 2], [0, 4, 8, 8], [0, 2, 2, 4], [4, 2, 8, 4]],
            union: vec![[2, 2, 4, 4], [0, 0, 8, 2], [0, 4, 8, 8], [0, 2, 2, 4], [4, 2, 8, 4]],
            subtract_box: vec![],
            subtract: vec![],
            intersect_box: vec![[2, 2, 4, 4]],
            intersect: vec![[2, 2, 4, 4]],
            union_coalesced: vec![[0, 0, 8, 8]],
            subtract_coalesced: vec![],
            grow: vec![[1, 0, 5, 6]],
            coarsen: vec![[1, 0, 2, 2]],
            contains_box: false,
        },
        // touching_edge
        Row {
            from_boxes: vec![[0, 0, 4, 4]],
            add: vec![[0, 0, 4, 4], [4, 0, 8, 4]],
            union: vec![[0, 0, 4, 4], [4, 0, 8, 4], [0, 4, 4, 6]],
            subtract_box: vec![[0, 0, 4, 4]],
            subtract: vec![[0, 0, 4, 4]],
            intersect_box: vec![],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 8, 4], [0, 4, 4, 6]],
            subtract_coalesced: vec![[0, 0, 4, 4]],
            grow: vec![[-1, -2, 5, 6]],
            coarsen: vec![[0, 0, 2, 2]],
            contains_box: false,
        },
        // touching_corner
        Row {
            from_boxes: vec![[0, 0, 4, 4]],
            add: vec![[0, 0, 4, 4], [4, 4, 6, 6]],
            union: vec![[0, 0, 4, 4], [4, 4, 6, 6], [-2, -2, 0, 0]],
            subtract_box: vec![[0, 0, 4, 4]],
            subtract: vec![[0, 0, 4, 4]],
            intersect_box: vec![],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 4, 4], [4, 4, 6, 6], [-2, -2, 0, 0]],
            subtract_coalesced: vec![[0, 0, 4, 4]],
            grow: vec![[-1, -2, 5, 6]],
            coarsen: vec![[0, 0, 2, 2]],
            contains_box: false,
        },
        // empty_list
        Row {
            from_boxes: vec![],
            add: vec![[0, 0, 2, 2]],
            union: vec![[0, 0, 2, 2]],
            subtract_box: vec![],
            subtract: vec![],
            intersect_box: vec![],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 2, 2]],
            subtract_coalesced: vec![],
            grow: vec![],
            coarsen: vec![],
            contains_box: false,
        },
        // empty_operand
        Row {
            from_boxes: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            add: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            union: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            subtract_box: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            subtract: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            intersect_box: vec![],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            subtract_coalesced: vec![[0, 0, 4, 4], [5, 0, 7, 2]],
            grow: vec![[-1, -2, 5, 6], [5, -2, 8, 4]],
            coarsen: vec![[0, 0, 2, 2], [2, 0, 4, 1]],
            contains_box: true,
        },
        // cross
        Row {
            from_boxes: vec![[0, 2, 6, 4], [2, 0, 4, 2], [2, 4, 4, 6]],
            add: vec![
                [0, 2, 6, 4],
                [2, 0, 4, 2],
                [2, 4, 4, 6],
                [1, 1, 2, 2],
                [4, 1, 5, 2],
                [1, 4, 2, 5],
                [4, 4, 5, 5],
            ],
            union: vec![
                [0, 2, 6, 4],
                [2, 0, 4, 2],
                [2, 4, 4, 6],
                [1, 1, 2, 2],
                [4, 1, 5, 2],
                [1, 4, 2, 5],
                [4, 4, 5, 5],
                [5, 4, 8, 5],
                [6, 3, 8, 4],
            ],
            subtract_box: vec![[0, 2, 1, 4], [5, 2, 6, 4], [2, 0, 4, 1], [2, 5, 4, 6]],
            subtract: vec![[0, 2, 1, 4], [5, 2, 6, 3], [2, 0, 4, 1], [2, 5, 4, 6]],
            intersect_box: vec![[1, 2, 5, 4], [2, 1, 4, 2], [2, 4, 4, 5]],
            intersect: vec![[1, 2, 5, 4], [5, 3, 6, 4], [2, 1, 4, 2], [2, 4, 4, 5]],
            union_coalesced: vec![
                [0, 2, 6, 4],
                [2, 0, 4, 2],
                [2, 4, 4, 6],
                [1, 1, 2, 2],
                [4, 1, 5, 2],
                [1, 4, 2, 5],
                [4, 4, 8, 5],
                [6, 3, 8, 4],
            ],
            subtract_coalesced: vec![[0, 2, 1, 4], [5, 2, 6, 4], [2, 0, 4, 1], [2, 5, 4, 6]],
            grow: vec![[-1, 0, 7, 6], [1, -2, 5, 0], [1, 6, 5, 8]],
            coarsen: vec![[0, 0, 3, 2]],
            contains_box: false,
        },
        // tiles
        Row {
            from_boxes: vec![[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 4, 4]],
            add: vec![[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 4, 4]],
            union: vec![[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 4, 4], [4, 0, 6, 4], [0, 4, 6, 5]],
            subtract_box: vec![
                [0, 0, 2, 1],
                [0, 1, 1, 2],
                [2, 0, 4, 1],
                [3, 1, 4, 2],
                [0, 3, 4, 4],
                [0, 2, 1, 3],
                [3, 2, 4, 3],
            ],
            subtract: vec![[0, 0, 2, 2], [2, 0, 4, 2], [0, 2, 4, 4]],
            intersect_box: vec![[1, 1, 2, 2], [2, 1, 3, 2], [1, 2, 3, 3]],
            intersect: vec![],
            union_coalesced: vec![[0, 0, 6, 5]],
            subtract_coalesced: vec![[0, 0, 4, 1], [0, 1, 1, 3], [3, 1, 4, 3], [0, 3, 4, 4]],
            grow: vec![[-1, -2, 3, 4], [3, -2, 5, 4], [-1, 4, 5, 6]],
            coarsen: vec![[0, 0, 1, 1], [1, 0, 2, 1], [0, 1, 2, 2]],
            contains_box: true,
        },
        // three_components
        Row {
            from_boxes: vec![[0, 0, 4, 4], [6, 0, 10, 4], [0, 6, 10, 8]],
            add: vec![
                [0, 0, 4, 4],
                [6, 0, 10, 4],
                [0, 6, 10, 8],
                [3, -1, 7, 0],
                [3, 4, 7, 6],
                [4, 0, 6, 4],
            ],
            union: vec![
                [0, 0, 4, 4],
                [6, 0, 10, 4],
                [0, 6, 10, 8],
                [3, -1, 7, 0],
                [3, 4, 7, 6],
                [4, 0, 6, 4],
                [9, 4, 12, 6],
                [9, 8, 12, 9],
                [10, 6, 12, 8],
                [10, 3, 12, 4],
            ],
            subtract_box: vec![
                [0, 0, 3, 4],
                [7, 0, 10, 4],
                [0, 7, 10, 8],
                [0, 6, 3, 7],
                [7, 6, 10, 7],
            ],
            subtract: vec![
                [0, 0, 3, 4],
                [7, 0, 10, 3],
                [7, 3, 9, 4],
                [0, 7, 9, 8],
                [0, 6, 3, 7],
                [7, 6, 9, 7],
            ],
            intersect_box: vec![[3, 0, 4, 4], [6, 0, 7, 4], [3, 6, 7, 7]],
            intersect: vec![[3, 0, 4, 4], [6, 0, 7, 4], [9, 3, 10, 4], [3, 6, 7, 7], [9, 6, 10, 8]],
            union_coalesced: vec![
                [0, 0, 10, 4],
                [0, 6, 12, 8],
                [9, 8, 12, 9],
                [3, -1, 7, 0],
                [3, 4, 7, 6],
                [10, 3, 12, 4],
                [9, 4, 12, 6],
            ],
            subtract_coalesced: vec![
                [0, 0, 3, 4],
                [7, 0, 10, 4],
                [0, 7, 10, 8],
                [0, 6, 3, 7],
                [7, 6, 10, 7],
            ],
            grow: vec![[-1, -2, 5, 6], [5, -2, 11, 6], [-1, 6, 11, 10]],
            coarsen: vec![[0, 0, 2, 2], [3, 0, 5, 2], [0, 2, 5, 3]],
            contains_box: false,
        },
        // strip_through
        Row {
            from_boxes: vec![[0, 0, 9, 3]],
            add: vec![[0, 0, 9, 3], [3, -1, 6, 0], [3, 3, 6, 5]],
            union: vec![[0, 0, 9, 3], [3, -1, 6, 0], [3, 3, 6, 5]],
            subtract_box: vec![[0, 0, 3, 3], [6, 0, 9, 3]],
            subtract: vec![[0, 0, 3, 3], [6, 0, 9, 3]],
            intersect_box: vec![[3, 0, 6, 3]],
            intersect: vec![[3, 0, 6, 3]],
            union_coalesced: vec![[0, 0, 9, 3], [3, -1, 6, 0], [3, 3, 6, 5]],
            subtract_coalesced: vec![[0, 0, 3, 3], [6, 0, 9, 3]],
            grow: vec![[-1, -2, 10, 5]],
            coarsen: vec![[0, 0, 5, 1]],
            contains_box: false,
        },
        // ring
        Row {
            from_boxes: vec![[-4, -4, 4, 4]],
            add: vec![[-4, -4, 4, 4]],
            union: vec![[-4, -4, 4, 4], [-6, -1, -4, 1]],
            subtract_box: vec![[-4, -4, 4, -2], [-4, 2, 4, 4], [-4, -2, -2, 2], [2, -2, 4, 2]],
            subtract: vec![
                [-4, -4, 4, -2],
                [-4, 2, 4, 4],
                [-4, -2, -2, -1],
                [-4, 1, -2, 2],
                [-3, -1, -2, 1],
                [2, -2, 4, 2],
            ],
            intersect_box: vec![[-2, -2, 2, 2]],
            intersect: vec![[-2, -2, 2, 2], [-4, -1, -3, 1]],
            union_coalesced: vec![[-4, -4, 4, 4], [-6, -1, -4, 1]],
            subtract_coalesced: vec![
                [-4, -4, 4, -2],
                [-4, 2, 4, 4],
                [-4, -2, -2, 2],
                [2, -2, 4, 2],
            ],
            grow: vec![[-5, -6, 5, 6]],
            coarsen: vec![[-2, -2, 2, 2]],
            contains_box: true,
        },
        // spanning_contained
        Row {
            from_boxes: vec![[0, 0, 2, 4], [2, 0, 4, 4]],
            add: vec![[0, 0, 2, 4], [2, 0, 4, 4]],
            union: vec![[0, 0, 2, 4], [2, 0, 4, 4]],
            subtract_box: vec![
                [0, 0, 2, 1],
                [0, 3, 2, 4],
                [0, 1, 1, 3],
                [2, 0, 4, 1],
                [2, 3, 4, 4],
                [3, 1, 4, 3],
            ],
            subtract: vec![],
            intersect_box: vec![[1, 1, 2, 3], [2, 1, 3, 3]],
            intersect: vec![[0, 0, 2, 4], [2, 0, 4, 4]],
            union_coalesced: vec![[0, 0, 4, 4]],
            subtract_coalesced: vec![[0, 0, 4, 1], [0, 3, 4, 4], [0, 1, 1, 3], [3, 1, 4, 3]],
            grow: vec![[-1, -2, 3, 6], [3, -2, 5, 6]],
            coarsen: vec![[0, 0, 1, 2], [1, 0, 2, 2]],
            contains_box: true,
        },
        // spanning_escapes
        Row {
            from_boxes: vec![[0, 0, 2, 4], [2, 0, 4, 4]],
            add: vec![[0, 0, 2, 4], [2, 0, 4, 4], [3, 4, 5, 5], [4, 3, 5, 4]],
            union: vec![[0, 0, 2, 4], [2, 0, 4, 4], [3, 4, 5, 5], [4, 3, 5, 4], [-1, 0, 0, 4]],
            subtract_box: vec![[0, 0, 2, 4], [2, 0, 4, 3], [2, 3, 3, 4]],
            subtract: vec![[0, 0, 2, 4], [2, 0, 4, 3], [2, 3, 3, 4]],
            intersect_box: vec![[3, 3, 4, 4]],
            intersect: vec![[3, 3, 4, 4]],
            union_coalesced: vec![[-1, 0, 4, 4], [4, 3, 5, 4], [3, 4, 5, 5]],
            subtract_coalesced: vec![[0, 0, 2, 4], [2, 0, 4, 3], [2, 3, 3, 4]],
            grow: vec![[-1, -2, 3, 6], [3, -2, 5, 6]],
            coarsen: vec![[0, 0, 1, 2], [1, 0, 2, 2]],
            contains_box: false,
        },
        // unaligned
        Row {
            from_boxes: vec![[1, 1, 3, 3], [3, 1, 5, 3], [-3, 2, 0, 7]],
            add: vec![[1, 1, 3, 3], [3, 1, 5, 3], [-3, 2, 0, 7], [2, 0, 4, 1], [2, 3, 4, 6]],
            union: vec![
                [1, 1, 3, 3],
                [3, 1, 5, 3],
                [-3, 2, 0, 7],
                [2, 0, 4, 1],
                [2, 3, 4, 6],
                [-1, 1, 1, 2],
            ],
            subtract_box: vec![[1, 1, 2, 3], [4, 1, 5, 3], [-3, 2, 0, 7]],
            subtract: vec![[1, 1, 2, 3], [4, 1, 5, 3], [-3, 2, 0, 7]],
            intersect_box: vec![[2, 1, 3, 3], [3, 1, 4, 3]],
            intersect: vec![[2, 1, 3, 3], [3, 1, 4, 3]],
            union_coalesced: vec![
                [1, 1, 5, 3],
                [-1, 1, 1, 2],
                [-3, 2, 0, 7],
                [2, 0, 4, 1],
                [2, 3, 4, 6],
            ],
            subtract_coalesced: vec![[1, 1, 2, 3], [4, 1, 5, 3], [-3, 2, 0, 7]],
            grow: vec![[0, -1, 4, 5], [4, -1, 6, 5], [-4, 5, 1, 9], [-4, 0, 0, 5]],
            coarsen: vec![[0, 0, 2, 1], [2, 0, 3, 1], [-2, 0, 0, 3]],
            contains_box: false,
        },
    ]
}

#[test]
fn every_boxlist_operation_keeps_its_frozen_sequence() {
    let expected = expected();
    assert_eq!(expected.len(), CASES.len());
    let mut moved = Vec::new();
    for (case, want) in CASES.iter().zip(&expected) {
        let got = results(case);
        if &got != want {
            moved.push(format!(
                "{}:
  got  {got:?}
  want {want:?}",
                case.name
            ));
        }
    }
    assert!(moved.is_empty(), "box sequences moved:\n{}", moved.join("\n"));
}
