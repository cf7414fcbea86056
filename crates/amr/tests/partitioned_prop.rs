//! Partitioned-metadata equivalence and fault-injection tests.
//!
//! The partitioned planning path (owner-computes over owned + ghosted
//! views) must be plan-digest-identical to the replicated indexed build
//! *and* the brute-force oracle from every rank's perspective, on
//! arbitrary 2–3 level hierarchies at 2–8 ranks, and across both
//! structure-preserving and structure-changing regrids. A corrupted
//! exchange must surface as a typed [`MetadataDivergence`] on every
//! rank — never a hang, never a silently divergent plan.

use proptest::prelude::*;
use rbamr_amr::ops::{ConservativeCellRefine, LinearNodeRefine, VolumeWeightedCoarsen};
use rbamr_amr::partition::{BoxRecord, ExchangeError};
use rbamr_amr::regrid::{CellTagger, TransferSpec};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::tagging::TagBitmap;
use rbamr_amr::{
    interest_for_level, view_from_global, CoarsenSchedule, GridGeometry, HostDataFactory,
    InterestMargins, MetadataMode, PatchHierarchy, RefineSchedule, RegridParams, Regridder,
    ScheduleBuild, VariableRegistry,
};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};
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

fn registry() -> (VariableRegistry, rbamr_amr::VariableId, rbamr_amr::VariableId) {
    let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
    let qc = reg.register("qc", Centring::Cell, IntVector::uniform(2));
    let qn = reg.register("qn", Centring::Node, IntVector::ONE);
    (reg, qc, qn)
}

fn replicated_hierarchy(
    levels: &[(Vec<GBox>, Vec<usize>)],
    rank: usize,
    nranks: usize,
    reg: &VariableRegistry,
) -> PatchHierarchy {
    let mut h = PatchHierarchy::new(
        GridGeometry::unit(1.0),
        BoxList::from_box(b(0, 0, 32, 32)),
        IntVector::uniform(2),
        3,
        rank,
        nranks,
    );
    for (l, (boxes, owners)) in levels.iter().enumerate() {
        h.set_level(l, boxes.clone(), owners.clone(), reg);
    }
    h
}

/// Convert every level of `h` to a partitioned view carved with the
/// production interest rules — the full structure is available here
/// (the test is the oracle), so no exchange is needed.
fn partition_in_place(h: &mut PatchHierarchy, levels: &[(Vec<GBox>, Vec<usize>)], rank: usize) {
    let margins = InterestMargins::default();
    let owned_of = |l: usize| -> Vec<GBox> {
        levels[l]
            .0
            .iter()
            .zip(&levels[l].1)
            .filter(|&(_, &o)| o == rank)
            .map(|(&bx, _)| bx)
            .collect()
    };
    for l in 0..levels.len() {
        let owned = owned_of(l);
        let coarser: Option<(Vec<GBox>, IntVector)> =
            (l > 0).then(|| (owned_of(l - 1), h.ratio_to_coarser(l)));
        let finer: Option<(Vec<GBox>, IntVector)> =
            (l + 1 < levels.len()).then(|| (owned_of(l + 1), h.ratio_to_coarser(l + 1)));
        let spec = interest_for_level(
            &owned,
            coarser.as_ref().map(|(bx, r)| (bx.as_slice(), *r)),
            finer.as_ref().map(|(bx, r)| (bx.as_slice(), *r)),
            margins,
        );
        let view = view_from_global(
            l,
            h.level(l).ratio(),
            &h.level_domain(l),
            &levels[l].0,
            &levels[l].1,
            rank,
            &spec,
        );
        h.level_mut(l).adopt_view(view, rank);
    }
}

/// Default 24 cases; `PROPTEST_CASES` scales up in CI.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every rank's partitioned plans digest-match the replicated
    /// indexed build and the brute-force oracle on random 2–3 level
    /// hierarchies at 2–8 ranks.
    #[test]
    fn partitioned_plans_match_replicated_and_oracle(
        nranks in 2usize..9,
        coarse_mask in 1u32..65536,
        fine_mask in (any::<u32>(), any::<u32>()),
        finest_mask in any::<u32>(),
        three_levels in any::<bool>(),
        owner_seed in proptest::collection::vec(0usize..8, 120),
    ) {
        // Level 0: 8x8 tiles of a 4x4 grid over [0,32)^2. Level 1: 8x8
        // tiles of an 8x8 grid over [0,64)^2, forced non-empty. Level 2
        // (sometimes): 16x16 tiles of a 8x8 grid over [0,128)^2.
        let coarse_boxes = masked_tiles(coarse_mask as u64, 4, 8);
        let fine_bits = (fine_mask.0 as u64) << 32 | fine_mask.1 as u64;
        let fine_boxes = masked_tiles(if fine_bits == 0 { 1 << 27 } else { fine_bits }, 8, 8);
        let finest_boxes = masked_tiles(
            if finest_mask == 0 { 1 << 9 } else { finest_mask as u64 }, 8, 16);
        let mut levels = vec![(coarse_boxes, Vec::new()), (fine_boxes, Vec::new())];
        if three_levels {
            levels.push((finest_boxes, Vec::new()));
        }
        let mut seed = owner_seed.iter().cycle();
        for (boxes, owners) in &mut levels {
            *owners = boxes.iter().map(|_| seed.next().unwrap() % nranks).collect();
        }

        for rank in 0..nranks {
            let (reg, qc, qn) = registry();
            let h_rep = replicated_hierarchy(&levels, rank, nranks, &reg);
            let mut h_part = replicated_hierarchy(&levels, rank, nranks, &reg);
            partition_in_place(&mut h_part, &levels, rank);

            let fills = [
                FillSpec { var: qc, refine_op: Some(Arc::new(ConservativeCellRefine)) },
                FillSpec { var: qn, refine_op: Some(Arc::new(LinearNodeRefine)) },
            ];
            let mut part_build = ScheduleBuild::indexed();
            for level_no in 0..levels.len() {
                let indexed = RefineSchedule::new(&h_rep, &reg, level_no, &fills);
                let oracle = RefineSchedule::new_bruteforce(&h_rep, &reg, level_no, &fills);
                let part = part_build.refine(&h_part, &reg, level_no, &fills);
                prop_assert_eq!(
                    part.plan_digest(),
                    indexed.plan_digest(),
                    "partitioned refine plan diverges from indexed: level {} rank {}/{}",
                    level_no, rank, nranks
                );
                prop_assert_eq!(
                    part.plan_digest(),
                    oracle.plan_digest(),
                    "partitioned refine plan diverges from oracle: level {} rank {}/{}",
                    level_no, rank, nranks
                );
            }

            let syncs = [CoarsenSpec { var: qc, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] }];
            for fine_no in 1..levels.len() {
                let indexed = CoarsenSchedule::new(&h_rep, &reg, fine_no, &syncs);
                let oracle = CoarsenSchedule::new_bruteforce(&h_rep, &reg, fine_no, &syncs);
                let part = part_build.coarsen(&h_part, &reg, fine_no, &syncs);
                prop_assert_eq!(
                    part.plan_digest(),
                    indexed.plan_digest(),
                    "partitioned coarsen plan diverges from indexed: level {} rank {}/{}",
                    fine_no, rank, nranks
                );
                prop_assert_eq!(
                    part.plan_digest(),
                    oracle.plan_digest(),
                    "partitioned coarsen plan diverges from oracle: level {} rank {}/{}",
                    fine_no, rank, nranks
                );
            }
        }
    }
}

/// Tags a fixed box of level-0 cells.
struct BoxTagger {
    region: GBox,
}

impl CellTagger for BoxTagger {
    fn tag_cells(&self, h: &PatchHierarchy, level: usize, _time: f64) -> Vec<TagBitmap> {
        h.level(level)
            .local()
            .iter()
            .map(|p| {
                let cells: Vec<i32> = p
                    .cell_box()
                    .iter()
                    .map(|q| i32::from(level == 0 && self.region.contains(q)))
                    .collect();
                TagBitmap::compress(p.cell_box(), &cells)
            })
            .collect()
    }
}

/// Structure-changing then structure-preserving regrids keep the
/// partitioned hierarchy digest- and plan-identical to the replicated
/// twin, per rank, with live communication.
#[test]
fn regrids_keep_partitioned_twin_identical() {
    for nranks in [2usize, 4, 8] {
        let cluster = Cluster::new(Machine::ipa_cpu_node());
        let results = cluster.run(nranks, |comm| {
            let rank = comm.rank();
            let nranks = comm.size();
            let (reg, qc, _qn) = registry();
            let levels =
                vec![(masked_tiles(0xffff, 4, 8), (0..16).map(|i| i % nranks).collect::<Vec<_>>())];
            let mut h_rep = replicated_hierarchy(&levels, rank, nranks, &reg);
            let mut h_part = replicated_hierarchy(&levels, rank, nranks, &reg);
            partition_in_place(&mut h_part, &levels, rank);

            // Seed identical data so the solution transfer is comparable.
            for h in [&mut h_rep, &mut h_part] {
                for p in h.level_mut(0).local_mut() {
                    let cb = p.data(qc).ghost_cell_box();
                    let d = p.host_mut::<f64>(qc);
                    for q in cb.iter() {
                        *d.at_mut(q) = (q.x * 1000 + q.y) as f64;
                    }
                }
            }

            let specs = [TransferSpec { var: qc, refine_op: Arc::new(ConservativeCellRefine) }];
            let rep = Regridder::new(RegridParams::default());
            let part = Regridder::new(RegridParams {
                metadata_mode: MetadataMode::Partitioned,
                ..RegridParams::default()
            });
            let fills = [FillSpec { var: qc, refine_op: Some(Arc::new(ConservativeCellRefine)) }];

            // (num_levels, levels_changed, tags_flagged, structure
            // digests, plan digests) per regrid pass.
            type PassLog = (usize, Vec<bool>, u64, Vec<u64>, Vec<Vec<String>>);
            let mut log: Vec<PassLog> = Vec::new();
            // Pass 1 grows a level over one region (structure-changing);
            // pass 2 repeats it (structure-preserving); pass 3 moves it
            // (structure-changing again).
            for region in [b(8, 8, 16, 16), b(8, 8, 16, 16), b(14, 14, 24, 24)] {
                let tagger = BoxTagger { region };
                let o_rep = rep.regrid(&mut h_rep, &reg, &tagger, &specs, Some(&comm), 0.0);
                let o_part = part.regrid(&mut h_part, &reg, &tagger, &specs, Some(&comm), 0.0);
                assert_eq!(o_rep.num_levels, o_part.num_levels, "outcome num_levels");
                assert_eq!(o_rep.levels_changed, o_part.levels_changed, "outcome levels_changed");
                assert_eq!(o_rep.tags_flagged, o_part.tags_flagged, "outcome tags_flagged");
                let digests: Vec<u64> =
                    (0..h_rep.num_levels()).map(|l| h_rep.structure_digest(l)).collect();
                let part_digests: Vec<u64> =
                    (0..h_part.num_levels()).map(|l| h_part.structure_digest(l)).collect();
                assert_eq!(digests, part_digests, "structure digests");
                // Schedules planned over the partitioned views match the
                // replicated build after each regrid.
                let plans: Vec<Vec<String>> = (0..h_rep.num_levels())
                    .map(|l| RefineSchedule::new(&h_rep, &reg, l, &fills).plan_digest())
                    .collect();
                let part_plans: Vec<Vec<String>> = (0..h_part.num_levels())
                    .map(|l| {
                        ScheduleBuild::indexed().refine(&h_part, &reg, l, &fills).plan_digest()
                    })
                    .collect();
                assert_eq!(plans, part_plans, "post-regrid plan digests");
                // Transferred data is bitwise identical patch by patch.
                for l in 0..h_rep.num_levels() {
                    for p in h_rep.level(l).local() {
                        let q = h_part
                            .level(l)
                            .local_by_index(p.id().index)
                            .expect("partitioned twin misses a local patch");
                        let (dp, dq) = (p.host::<f64>(qc), q.host::<f64>(qc));
                        for cell in p.cell_box().iter() {
                            assert!(
                                dp.at(cell).to_bits() == dq.at(cell).to_bits(),
                                "data diverges at {cell:?} level {l}"
                            );
                        }
                    }
                }
                log.push((
                    o_rep.num_levels,
                    o_rep.levels_changed,
                    o_rep.tags_flagged,
                    digests,
                    plans,
                ));
            }
            assert!(log[0].1.iter().any(|&c| c), "first regrid must change structure");
            assert!(!log[1].1.iter().any(|&c| c), "second regrid must preserve structure");
            assert!(log[2].1.iter().any(|&c| c), "third regrid must change structure");
            log
        });
        // The per-rank logs agree on the rank-invariant facts.
        for r in &results {
            assert_eq!(r.value.len(), 3);
            for (a, b) in r.value.iter().zip(&results[0].value) {
                assert_eq!(a.0, b.0);
                assert_eq!(&a.1, &b.1);
                assert_eq!(a.2, b.2);
                assert_eq!(&a.3, &b.3, "ranks disagree on structure digests");
            }
        }
    }
}

/// One rank's injected metadata corruption surfaces as a typed
/// divergence error on *every* rank — no hang, no silently divergent
/// view — and the same seed reproduces the same fault sites.
#[test]
fn corrupted_exchange_fails_on_every_rank() {
    use rbamr_netsim::{FaultKind, FaultPlan, FaultRule};
    let nranks = 4;
    let plan = FaultPlan {
        seed: 0xC0FFEE,
        rules: vec![FaultRule::once_on(FaultKind::MetadataCorrupt, 2, 0)],
    };
    let run_once = || {
        let cluster = Cluster::new(Machine::ipa_cpu_node()).with_fault_plan(plan.clone());
        cluster.run(nranks, |comm| {
            let rank = comm.rank();
            let boxes = masked_tiles(0xffff, 4, 8);
            let owners: Vec<usize> = (0..boxes.len()).map(|i| i % comm.size()).collect();
            let owned: Vec<BoxRecord> = boxes
                .iter()
                .zip(&owners)
                .enumerate()
                .filter(|&(_, (_, &o))| o == rank)
                .map(|(i, (&bx, &o))| (i, bx, o))
                .collect();
            let owned_boxes: Vec<GBox> = owned.iter().map(|&(_, bx, _)| bx).collect();
            let spec = interest_for_level(&owned_boxes, None, None, InterestMargins::default());
            let domain = BoxList::from_box(b(0, 0, 32, 32));
            let out = rbamr_amr::exchange_level_view(
                Some(&comm),
                0,
                IntVector::ONE,
                &domain,
                &owned,
                &spec,
                rank,
            );
            (out, comm.fault_injector().expect("injector attached").report())
        })
    };
    let first = run_once();
    for r in &first {
        let (out, _) = &r.value;
        match out.as_ref().expect_err("corrupted exchange must fail on every rank") {
            ExchangeError::Divergence(err) => {
                assert_eq!(err.level_no, 0);
                if r.rank == 2 {
                    assert_ne!(
                        err.observed_digest, err.expected_digest,
                        "rank 2 saw the corruption"
                    );
                }
            }
            other => panic!("expected divergence, got {other}"),
        }
    }
    // Determinism: the same seed reproduces identical fault reports.
    let second = run_once();
    for (a, c) in first.iter().zip(&second) {
        assert_eq!(a.value.1, c.value.1, "rank {}: fault reports must reproduce", a.rank);
    }
}

/// Empty levels exchange and verify cleanly at several rank counts, and
/// a single-rank tamper still raises the typed error (edge cases of the
/// fault-injection path).
#[test]
fn exchange_edge_cases() {
    for nranks in [1usize, 2, 4] {
        let cluster = Cluster::new(Machine::ipa_cpu_node());
        let results = cluster.run(nranks, |comm| {
            let domain = BoxList::from_box(b(0, 0, 32, 32));
            let spec = interest_for_level(&[], None, None, InterestMargins::default());
            let view = rbamr_amr::exchange_level_view(
                Some(&comm),
                1,
                IntVector::uniform(2),
                &domain,
                &[],
                &spec,
                comm.rank(),
            )
            .expect("empty level must verify cleanly");
            assert!(view.is_empty());
            assert_eq!(view.num_global(), 0);
            // Keep the collective counters visible in telemetry.
            comm.barrier(Category::Other);
            view.metadata_bytes()
        });
        for r in &results {
            assert_eq!(r.value, 0);
        }
    }

    // Single-rank injected corruption: typed error even with no peers
    // to disagree with.
    use rbamr_netsim::{FaultKind, FaultPlan, FaultRule};
    let plan = FaultPlan { seed: 11, rules: vec![FaultRule::once(FaultKind::MetadataCorrupt, 0)] };
    let cluster = Cluster::new(Machine::ipa_cpu_node()).with_fault_plan(plan);
    let results = cluster.run(1, |comm| {
        let boxes = vec![b(0, 0, 16, 16), b(16, 0, 32, 16)];
        let owned: Vec<BoxRecord> = boxes.iter().enumerate().map(|(i, &bx)| (i, bx, 0)).collect();
        let spec = interest_for_level(&boxes, None, None, InterestMargins::default());
        let domain = BoxList::from_box(b(0, 0, 32, 32));
        rbamr_amr::exchange_level_view(Some(&comm), 0, IntVector::ONE, &domain, &owned, &spec, 0)
    });
    match results[0].value.as_ref().expect_err("single-rank corruption must fail") {
        ExchangeError::Divergence(err) => assert_eq!(err.rank, 0),
        other => panic!("expected divergence, got {other}"),
    }
}
