//! Property tests of schedule currency: a schedule is kept exactly
//! while the levels it reads keep their structure digests.
//!
//! Over arbitrary two-level hierarchies viewed from every rank of a
//! 1–4 rank job:
//!
//! * a schedule built on one hierarchy is current on a *fresh*
//!   `PatchHierarchy` object (the steady-regrid / checkpoint-restore
//!   case) exactly when the levels it reads have equal digests there,
//!   and then its plans equal a fresh build's, digest for digest;
//! * a box or owner change on the fine level leaves the level-0 fill
//!   current and makes the fine fill and the sync stale; a coarse-level
//!   change makes every schedule stale (the fine fill interpolates from
//!   the coarse level, the sync projects onto it);
//! * a holder that keeps what is current and builds the rest holds one
//!   generation: what a pass replaces is freed when the pass returns.

use proptest::prelude::*;
use rbamr_amr::ops::{ConservativeCellRefine, VolumeWeightedCoarsen};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    CoarsenSchedule, GridGeometry, HostDataFactory, PatchHierarchy, RefineSchedule, ScheduleBuild,
    VariableRegistry,
};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use std::sync::Arc;

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

struct Structure {
    coarse_boxes: Vec<GBox>,
    coarse_owners: Vec<usize>,
    fine_boxes: Vec<GBox>,
    fine_owners: Vec<usize>,
}

/// A fresh registry + hierarchy with the given replicated structure, as
/// seen from `rank` (this is exactly what a checkpoint restore does:
/// brand-new objects, identical structure).
fn setup(
    s: &Structure,
    rank: usize,
    nranks: usize,
) -> (PatchHierarchy, VariableRegistry, FillSpec) {
    let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
    let q = reg.register("q", Centring::Cell, IntVector::uniform(2));
    let mut h = PatchHierarchy::new(
        GridGeometry::unit(1.0),
        BoxList::from_box(GBox::from_coords(0, 0, 32, 32)),
        IntVector::uniform(2),
        2,
        rank,
        nranks,
    );
    h.set_level(0, s.coarse_boxes.clone(), s.coarse_owners.clone(), &reg);
    h.set_level(1, s.fine_boxes.clone(), s.fine_owners.clone(), &reg);
    let fill = FillSpec { var: q, refine_op: Some(Arc::new(ConservativeCellRefine)) };
    (h, reg, fill)
}

fn sync_specs(fill: &FillSpec) -> [CoarsenSpec; 1] {
    [CoarsenSpec { var: fill.var, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] }]
}

/// The schedules of one structure: both fills and the sync.
type Generation = (Arc<RefineSchedule>, Arc<RefineSchedule>, Arc<CoarsenSchedule>);

/// One build pass of a holder of `held`: each schedule current on `h`
/// is kept, the others are built.
fn pass(
    held: Option<&Generation>,
    h: &PatchHierarchy,
    reg: &VariableRegistry,
    fill: &FillSpec,
) -> Generation {
    let mut build = ScheduleBuild::indexed();
    let specs = std::slice::from_ref(fill);
    let refine = |build: &mut ScheduleBuild, l, held: Option<&Arc<RefineSchedule>>| match held {
        Some(s) if s.is_current(h) => build.keep(h, s),
        _ => build.refine(h, reg, l, specs),
    };
    let fills =
        (refine(&mut build, 0, held.map(|g| &g.0)), refine(&mut build, 1, held.map(|g| &g.1)));
    let sync = match held.map(|g| &g.2) {
        Some(s) if s.is_current(h) => build.keep(h, s),
        _ => build.coarsen(h, reg, 1, &sync_specs(fill)),
    };
    (fills.0, fills.1, sync)
}

/// Fresh plan digests of a generation's schedules on `h`.
fn fresh_digests(h: &PatchHierarchy, reg: &VariableRegistry, fill: &FillSpec) -> [Vec<String>; 3] {
    let fresh = pass(None, h, reg, fill);
    [fresh.0.plan_digest(), fresh.1.plan_digest(), fresh.2.plan_digest()]
}

fn digests(g: &Generation) -> [Vec<String>; 3] {
    [g.0.plan_digest(), g.1.plan_digest(), g.2.plan_digest()]
}

fn structure(coarse_mask: u32, fine_bits: u64, owner_seed: &[usize], nranks: usize) -> Structure {
    let coarse_boxes = masked_tiles(coarse_mask as u64, 4, 8);
    let fine_boxes = masked_tiles(fine_bits, 8, 8);
    let coarse_owners = (0..coarse_boxes.len()).map(|i| owner_seed[i] % nranks).collect();
    let fine_owners = (0..fine_boxes.len()).map(|i| owner_seed[16 + i] % nranks).collect();
    Structure { coarse_boxes, coarse_owners, fine_boxes, fine_owners }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same structure in a fresh hierarchy object → every schedule is
    /// current, the pass keeps the identical `Arc`s, and the kept plans
    /// equal a fresh build digest-for-digest. Plans are rank-relative,
    /// so another rank's view of the structure is not current.
    #[test]
    fn identical_structure_is_a_pure_cache_hit(
        nranks in 1usize..5,
        coarse_mask in 1u32..65536,
        fine_bits in 1u64..(1 << 48),
        owner_seed in proptest::collection::vec(0usize..4, 80),
    ) {
        let s = structure(coarse_mask, fine_bits, &owner_seed, nranks);
        for rank in 0..nranks {
            let (h1, reg1, fill1) = setup(&s, rank, nranks);
            let first = pass(None, &h1, &reg1, &fill1);

            // Restore-like: brand-new hierarchy/registry, same structure.
            let (h2, reg2, fill2) = setup(&s, rank, nranks);
            let again = pass(Some(&first), &h2, &reg2, &fill2);
            prop_assert!(Arc::ptr_eq(&first.0, &again.0));
            prop_assert!(Arc::ptr_eq(&first.1, &again.1));
            prop_assert!(Arc::ptr_eq(&first.2, &again.2));
            prop_assert_eq!(digests(&again), fresh_digests(&h2, &reg2, &fill2));

            if nranks > 1 {
                let (other, ..) = setup(&s, (rank + 1) % nranks, nranks);
                prop_assert!(!first.0.is_current(&other) && !first.2.is_current(&other));
            }
        }
    }

    /// A box or owner change on the fine level makes the fine fill and
    /// the coarsen sync stale but leaves the level-0 fill current — kept,
    /// and equal to a fresh build; a coarse-level change makes
    /// everything stale.
    #[test]
    fn structure_change_invalidates_exactly_the_affected_levels(
        nranks in 1usize..5,
        coarse_mask in 1u32..65536,
        fine_bits in 1u64..(1 << 48),
        owner_seed in proptest::collection::vec(0usize..4, 80),
        flip_tile in 0u32..48,
        change_owner in any::<bool>(),
    ) {
        let s = structure(coarse_mask, fine_bits, &owner_seed, nranks);
        // Mutate the fine level: either flip one tile of the mask (a
        // box change) or, in multi-rank jobs, reassign one patch (an
        // owner change that keeps every box identical).
        let owner_change_possible = nranks > 1 && !s.fine_owners.is_empty();
        let mutated_bits = if change_owner && owner_change_possible {
            fine_bits
        } else {
            let flipped = fine_bits ^ (1 << flip_tile);
            if flipped == 0 { fine_bits | 2 } else { flipped }
        };
        let mut fine = structure(coarse_mask, mutated_bits, &owner_seed, nranks);
        if change_owner && owner_change_possible {
            fine.fine_owners[0] = (fine.fine_owners[0] + 1) % nranks;
        }

        for rank in 0..nranks {
            let (h1, reg1, fill1) = setup(&s, rank, nranks);
            let held = pass(None, &h1, &reg1, &fill1);

            // Fine-level change: only the level-0 fill is current.
            let (h2, reg2, fill2) = setup(&fine, rank, nranks);
            prop_assert_ne!(h1.structure_digest(1), h2.structure_digest(1));
            prop_assert_eq!(h1.structure_digest(0), h2.structure_digest(0));
            prop_assert!(held.0.is_current(&h2), "fine change: the level-0 fill stays current");
            prop_assert!(!held.1.is_current(&h2) && !held.2.is_current(&h2));
            let next = pass(Some(&held), &h2, &reg2, &fill2);
            prop_assert!(Arc::ptr_eq(&held.0, &next.0));
            prop_assert!(!Arc::ptr_eq(&held.1, &next.1) && !Arc::ptr_eq(&held.2, &next.2));
            prop_assert_eq!(digests(&next), fresh_digests(&h2, &reg2, &fill2));

            // Coarse-level change: nothing is current (the fine fill
            // interpolates from the coarse level, the sync writes it).
            let coarse = structure(coarse_mask ^ 1 | 2, fine_bits, &owner_seed, nranks);
            let (h3, ..) = setup(&coarse, rank, nranks);
            prop_assert_ne!(h1.structure_digest(0), h3.structure_digest(0));
            prop_assert_eq!(h1.structure_digest(1), h3.structure_digest(1));
            prop_assert!(!held.0.is_current(&h3) && !held.1.is_current(&h3));
            prop_assert!(!held.2.is_current(&h3), "coarse change: the sync is still current");
        }
    }
}

/// A front that moves back and forth: 200 passes alternating between
/// two structures, each keeping what the last one held if current.
/// Nothing ever is, so every pass builds all three, and each replaced
/// generation is freed when the pass that replaces it returns.
#[test]
fn alternating_structures_hold_one_generation() {
    let seed: Vec<usize> = (0..80).map(|i| i % 3).collect();
    let structures =
        [structure(0xffff, 0x0f0f_3c3c, &seed, 2), structure(0xfffe, 0x33cc_00ff, &seed, 2)];
    let mut held: Option<Generation> = None;
    for i in 0..200 {
        let (h, reg, fill) = setup(&structures[i % 2], 0, 2);
        let next = pass(held.as_ref(), &h, &reg, &fill);
        let replaced = held.take().map(|g| {
            assert!(!Arc::ptr_eq(&g.0, &next.0) && !Arc::ptr_eq(&g.1, &next.1), "pass {i}");
            assert!(!Arc::ptr_eq(&g.2, &next.2), "pass {i}");
            (Arc::downgrade(&g.0), Arc::downgrade(&g.1), Arc::downgrade(&g.2))
        });
        held = Some(next);
        if let Some((a, b, c)) = replaced {
            assert!(a.upgrade().is_none() && b.upgrade().is_none(), "pass {i}: a replaced fill");
            assert!(c.upgrade().is_none(), "pass {i}: the replaced sync lives");
        }
    }
}
