//! Plan-identity property test for the spatial-index schedule builds.
//!
//! The indexed `RefineSchedule`/`CoarsenSchedule` constructors must
//! produce byte-identical plans to the retained brute-force oracle
//! (`new_bruteforce`) on arbitrary two-level hierarchies viewed from
//! every rank of a 1–8 rank job: same copies, sends, recvs, interps,
//! physical fills and sync jobs, in the same canonical order. The
//! indexed builds skip the destinations a rank owns no end of; the
//! oracle has no index and walks them all. A cell- and a node-centred
//! variable are filled and synchronised, so both the disjoint and the
//! claim-accumulating paths of each build are compared.

use proptest::prelude::*;
use rbamr_amr::ops::{
    ConservativeCellRefine, LinearNodeRefine, NodeInjectionCoarsen, VolumeWeightedCoarsen,
};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    CoarsenSchedule, GridGeometry, HostDataFactory, PatchHierarchy, RefineSchedule,
    VariableRegistry,
};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use std::sync::Arc;

fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
    GBox::from_coords(x0, y0, x1, y1)
}

/// Boxes for the tiles selected by `mask` on an `n`×`n` grid of
/// `size`×`size` tiles.
fn masked_tiles(mask: u64, n: i64, size: i64) -> Vec<GBox> {
    let mut out = Vec::new();
    for t in 0..(n * n) {
        if mask >> t & 1 == 1 {
            let lo = IntVector::new(t % n * size, t / n * size);
            out.push(GBox::new(lo, lo + IntVector::uniform(size)));
        }
    }
    out
}

/// Default 24 cases; `PROPTEST_CASES` scales up in CI.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn indexed_schedule_matches_bruteforce(
        nranks in 1usize..9,
        coarse_mask in 1u32..65536,
        fine_mask in (any::<u32>(), any::<u32>()),
        owner_seed in proptest::collection::vec(0usize..8, 80),
    ) {
        // Level 0: selected 8x8 tiles of a 4x4 grid over [0,32)^2.
        // Level 1: selected 8x8 fine tiles of an 8x8 grid over [0,64)^2
        // (ratio 2); forced non-empty so the coarse-fine and coarsen
        // paths are always exercised.
        let coarse_boxes = masked_tiles(coarse_mask as u64, 4, 8);
        let fine_bits = (fine_mask.0 as u64) << 32 | fine_mask.1 as u64;
        let fine_boxes = masked_tiles(if fine_bits == 0 { 1 << 27 } else { fine_bits }, 8, 8);
        let coarse_owners: Vec<usize> =
            (0..coarse_boxes.len()).map(|i| owner_seed[i] % nranks).collect();
        let fine_owners: Vec<usize> =
            (0..fine_boxes.len()).map(|i| owner_seed[16 + i] % nranks).collect();

        // Every rank builds its own view of the same hierarchy, exactly
        // as the distributed runtime does (replicated metadata).
        for rank in 0..nranks {
            let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
            let qc = reg.register("qc", Centring::Cell, IntVector::uniform(2));
            let qn = reg.register("qn", Centring::Node, IntVector::ONE);
            // Ghosts 8 (x) and 5 (y) on 8-cell tiles put an owned
            // source's nodes exactly `ghosts + 1` cells out, and a
            // coarse tile's one cell off the widest scratch box: the
            // edges of the reach a rank plans destinations within.
            let wide = reg.register("wide", Centring::Node, IntVector::new(8, 5));
            let mut h = PatchHierarchy::new(
                GridGeometry::unit(1.0),
                BoxList::from_box(b(0, 0, 32, 32)),
                IntVector::uniform(2),
                2,
                rank,
                nranks,
            );
            h.set_level(0, coarse_boxes.clone(), coarse_owners.clone(), &reg);
            h.set_level(1, fine_boxes.clone(), fine_owners.clone(), &reg);

            let fills = [
                FillSpec { var: qc, refine_op: Some(Arc::new(ConservativeCellRefine)) },
                FillSpec { var: qn, refine_op: Some(Arc::new(LinearNodeRefine)) },
                FillSpec { var: wide, refine_op: Some(Arc::new(LinearNodeRefine)) },
            ];
            for level_no in 0..2 {
                let fast = RefineSchedule::new(&h, &reg, level_no, &fills);
                let slow = RefineSchedule::new_bruteforce(&h, &reg, level_no, &fills);
                prop_assert_eq!(
                    fast.plan_digest(),
                    slow.plan_digest(),
                    "refine plans diverge: level {} rank {}/{}",
                    level_no,
                    rank,
                    nranks
                );
            }

            let syncs = [
                CoarsenSpec { var: qc, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] },
                CoarsenSpec { var: qn, op: Arc::new(NodeInjectionCoarsen), aux: vec![] },
            ];
            let fast = CoarsenSchedule::new(&h, &reg, 1, &syncs);
            let slow = CoarsenSchedule::new_bruteforce(&h, &reg, 1, &syncs);
            prop_assert_eq!(
                fast.plan_digest(),
                slow.plan_digest(),
                "coarsen plans diverge: rank {}/{}",
                rank,
                nranks
            );
        }
    }
}
