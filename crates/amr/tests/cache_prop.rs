//! Property tests of the structure-keyed schedule cache.
//!
//! Over arbitrary two-level hierarchies viewed from every rank of a
//! 1–4 rank job:
//!
//! * rebuilding schedules for a hierarchy with identical structure
//!   (the steady-regrid / checkpoint-restore case: a *fresh*
//!   `PatchHierarchy` object with the same boxes and owners) is a pure
//!   cache hit, and the cached schedule is plan-identical to a fresh
//!   uncached build;
//! * any box or owner change invalidates exactly the affected levels —
//!   a fine-level change leaves the level-0 fill cached but misses the
//!   fine fill and the coarsen sync; a coarse-level change misses
//!   everything (the fine fill interpolates from the coarse level, so
//!   its key binds the coarser digest too);
//! * the cache holds what is in use and nothing else: the tests hold a
//!   generation of schedules the way an integrator does — until the
//!   next pass has built its successor — and whatever is dropped
//!   leaves the cache when the following pass opens.

use proptest::prelude::*;
use rbamr_amr::ops::{ConservativeCellRefine, VolumeWeightedCoarsen};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    CoarsenSchedule, GridGeometry, HostDataFactory, PatchHierarchy, RefineSchedule, ScheduleBuild,
    ScheduleCache, VariableRegistry,
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

/// One rebuild pass; the caller holds the result until the next pass
/// has replaced it.
fn pass(
    cache: &mut ScheduleCache,
    h: &PatchHierarchy,
    reg: &VariableRegistry,
    fill: &FillSpec,
) -> Generation {
    let mut build = ScheduleBuild::with_cache(cache);
    (
        build.refine(h, reg, 0, std::slice::from_ref(fill)),
        build.refine(h, reg, 1, std::slice::from_ref(fill)),
        build.coarsen(h, reg, 1, &sync_specs(fill)),
    )
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

    /// Same structure in a fresh hierarchy object → every lookup hits,
    /// the hit returns the identical `Arc`, and the cached plan equals
    /// a fresh uncached build digest-for-digest.
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
            let mut cache = ScheduleCache::new();
            let (first_r0, first_r1, first_c) = pass(&mut cache, &h1, &reg1, &fill1);
            prop_assert_eq!(cache.misses(), 3);
            prop_assert_eq!(cache.hits(), 0);

            // Restore-like: brand-new hierarchy/registry, same structure.
            let (h2, reg2, fill2) = setup(&s, rank, nranks);
            let (again_r0, again_r1, again_c) = pass(&mut cache, &h2, &reg2, &fill2);
            prop_assert_eq!(cache.misses(), 3, "rebuild must not miss");
            prop_assert_eq!(cache.hits(), 3, "rebuild must hit every lookup");
            prop_assert!(Arc::ptr_eq(&first_r0, &again_r0));
            prop_assert!(Arc::ptr_eq(&first_r1, &again_r1));
            prop_assert!(Arc::ptr_eq(&first_c, &again_c));

            // Cached plans are exactly what an uncached build produces.
            let mut fresh = ScheduleBuild::indexed();
            prop_assert_eq!(
                again_r0.plan_digest(),
                fresh.refine(&h2, &reg2, 0, std::slice::from_ref(&fill2)).plan_digest()
            );
            prop_assert_eq!(
                again_r1.plan_digest(),
                fresh.refine(&h2, &reg2, 1, std::slice::from_ref(&fill2)).plan_digest()
            );
            prop_assert_eq!(
                again_c.plan_digest(),
                fresh.coarsen(&h2, &reg2, 1, &sync_specs(&fill2)).plan_digest()
            );
        }
    }

    /// A box or owner change on the fine level invalidates the fine
    /// fill and the coarsen sync but leaves the level-0 fill cached; a
    /// coarse-level change invalidates everything.
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
            let mut cache = ScheduleCache::new();
            let mut held = pass(&mut cache, &h1, &reg1, &fill1);
            prop_assert_eq!((cache.hits(), cache.misses()), (0, 3));

            // Fine-level change: level-0 fill hits, the rest miss.
            let (h2, reg2, fill2) = setup(&fine, rank, nranks);
            prop_assert_ne!(h1.structure_digest(1), h2.structure_digest(1));
            prop_assert_eq!(h1.structure_digest(0), h2.structure_digest(0));
            let level0 = Arc::clone(&held.0);
            held = pass(&mut cache, &h2, &reg2, &fill2);
            prop_assert_eq!(
                (cache.hits(), cache.misses()),
                (1, 5),
                "fine change: only the level-0 fill may hit"
            );
            prop_assert!(Arc::ptr_eq(&level0, &held.0));
            // Both generations are cached until the next pass opens.
            prop_assert_eq!(cache.len(), 5);

            // Coarse-level change: nothing hits (the fine fill's key
            // binds the coarser digest because it interpolates).
            let coarse = structure(coarse_mask ^ 1 | 2, fine_bits, &owner_seed, nranks);
            let (h3, reg3, fill3) = setup(&coarse, rank, nranks);
            prop_assert_ne!(h1.structure_digest(0), h3.structure_digest(0));
            drop(level0);
            held = pass(&mut cache, &h3, &reg3, &fill3);
            prop_assert_eq!(
                (cache.hits(), cache.misses()),
                (1, 8),
                "coarse change: every lookup must miss"
            );
            // The first generation's fine schedules went when this pass
            // opened; the second goes when the next one does.
            prop_assert_eq!(cache.len(), 6);
            drop(held);
            ScheduleBuild::with_cache(&mut cache);
            prop_assert!(cache.is_empty());
        }
    }
}

/// A front that moves back and forth: 200 passes alternating between
/// two structures, only the latest generation held. The cache never
/// holds more than the generation in use and the one it replaced, and
/// nothing is ever revived — every pass is three misses.
#[test]
fn alternating_structures_keep_the_cache_at_two_generations() {
    let seed: Vec<usize> = (0..80).map(|i| i % 3).collect();
    let structures =
        [structure(0xffff, 0x0f0f_3c3c, &seed, 2), structure(0xfffe, 0x33cc_00ff, &seed, 2)];
    let mut cache = ScheduleCache::new();
    let mut held = None;
    for i in 0..200 {
        let (h, reg, fill) = setup(&structures[i % 2], 0, 2);
        held = Some(pass(&mut cache, &h, &reg, &fill));
        assert!(cache.len() <= 6, "pass {i}: {} schedules cached", cache.len());
    }
    assert_eq!((cache.hits(), cache.misses()), (0, 600));
    drop(held);
}
