//! A regrid's work divides among the ranks: the same three regrids on a
//! netsim cluster of 1, 2, 4 and 8 ranks.
//!
//! Every rank count must produce the same boxes and the same tag count. The solution transfer walks only the new patches a rank owns
//! an end of, so the rank-summed `regrid.candidate_pairs` stays below N
//! times the 1-rank value, which is the full walk and is pinned here.
//! The tags travel as bitmaps: rank 0 gathers 32 + ⌈cells / 8⌉ bytes
//! per tagged patch and broadcasts the clustered boxes, not the tags.

use rbamr_amr::balance::partition_sfc;
use rbamr_amr::ops::{ConservativeCellRefine, LinearNodeRefine};
use rbamr_amr::regrid::{CellTagger, TransferSpec};
use rbamr_amr::{
    cluster_tags, GridGeometry, HostDataFactory, PatchHierarchy, RegridParams, Regridder,
    TagBitmap, VariableRegistry,
};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_netsim::{Cluster, ReduceSpec};
use rbamr_perfmodel::Machine;
use rbamr_telemetry::Recorder;
use std::sync::Arc;

/// `regrid.candidate_pairs` of the three regrids on one rank, recorded
/// when every rank still walked every new patch (then 2, 4 and 8 ranks
/// summed to exactly 2, 4 and 8 times this).
const ONE_RANK_CANDIDATE_PAIRS: u64 = 640;

const REGRIDS: usize = 3;

/// Level 0: 8 × 8 tiles of 8 × 8 cells.
fn tiles() -> Vec<GBox> {
    let corner = |t: i64| IntVector::new(t % 8 * 8, t / 8 * 8);
    (0..64).map(|t| GBox::new(corner(t), corner(t) + IntVector::uniform(8))).collect()
}

/// Tags the level-0 cells of a box that moves with each regrid.
struct MovingTagger;

impl MovingTagger {
    fn region(regrid: usize) -> GBox {
        let t = regrid as i64;
        GBox::from_coords(9 + 7 * t, 10 + 5 * t, 27 + 7 * t, 23 + 5 * t)
    }
}

impl CellTagger for MovingTagger {
    fn tag_cells(&self, h: &PatchHierarchy, level: usize, time: f64) -> Vec<TagBitmap> {
        let region = Self::region(time as usize);
        let bitmap = |p: GBox| {
            let tags: Vec<i32> =
                p.iter().map(|q| i32::from(level == 0 && region.contains(q))).collect();
            TagBitmap::compress(p, &tags)
        };
        h.level(level).local().iter().map(|p| bitmap(p.cell_box())).collect()
    }
}

/// What one rank saw of the regrids.
#[derive(Default)]
struct Seen {
    /// Per regrid: every level's boxes, and the tag count.
    structure: Vec<(Vec<Vec<GBox>>, u64)>,
    /// Per regrid, this rank's `net.collective_bytes`.
    collective_bytes: Vec<u64>,
    candidate_pairs: u64,
}

fn run(nranks: usize) -> Vec<Seen> {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(nranks, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let qc = reg.register("qc", Centring::Cell, IntVector::uniform(2));
        let qn = reg.register("qn", Centring::Node, IntVector::ONE);
        let specs = [
            TransferSpec { var: qc, refine_op: Arc::new(ConservativeCellRefine) },
            TransferSpec { var: qn, refine_op: Arc::new(LinearNodeRefine) },
        ];
        let domain = BoxList::from_box(GBox::from_coords(0, 0, 64, 64));
        let (geometry, ratio) = (GridGeometry::unit(1.0), IntVector::uniform(2));
        let mut h = PatchHierarchy::new(geometry, domain, ratio, 2, comm.rank(), nranks);
        h.set_recorder(rec.clone());
        h.set_level(0, tiles(), partition_sfc(&tiles(), nranks), &reg);
        let regridder = Regridder::new(RegridParams { max_patch_size: 8, ..Default::default() });
        let mut seen = Seen::default();
        for regrid in 0..REGRIDS {
            let before = rec.counter("net.collective_bytes");
            let time = regrid as f64;
            let outcome = regridder.regrid(&mut h, &reg, &MovingTagger, &specs, Some(&comm), time);
            seen.collective_bytes.push(rec.counter("net.collective_bytes") - before);
            let boxes = (0..h.num_levels()).map(|l| h.level(l).global_boxes().to_vec()).collect();
            seen.structure.push((boxes, outcome.tags_flagged));
        }
        seen.candidate_pairs = rec.counter("regrid.candidate_pairs");
        seen
    });
    results.into_iter().map(|r| r.value).collect()
}

#[test]
fn a_regrid_divides_among_the_ranks() {
    let runs = [1, 2, 4, 8].map(|nranks| (nranks, run(nranks)));
    let serial = &runs[0].1[0];
    assert!(serial.structure.iter().all(|(levels, _)| levels.len() == 2), "no level 1 built");
    assert_eq!(serial.candidate_pairs, ONE_RANK_CANDIDATE_PAIRS, "the 1-rank walk moved");
    for (nranks, ranks) in &runs {
        for (rank, seen) in ranks.iter().enumerate() {
            assert_eq!(seen.structure, serial.structure, "rank {rank} of {nranks}");
        }
        let summed: u64 = ranks.iter().map(|s| s.candidate_pairs).sum();
        let bound = *nranks as u64 * serial.candidate_pairs;
        assert!(*nranks == 1 || summed < bound, "{nranks} ranks walk {summed} pairs of {bound}");
        // Rank 0 counts what it gathers, the boxes it broadcasts and the
        // agreement word; the closing barrier carries nothing.
        for (regrid, &bytes) in ranks[0].collective_bytes.iter().enumerate() {
            let region = MovingTagger::region(regrid);
            let tagged = tiles().into_iter().filter(|p| p.intersects(region));
            let gathered: u64 = tagged.map(|p| 32 + (p.num_cells() as u64).div_ceil(8)).sum();
            let cells: Vec<IntVector> = region.iter().collect();
            let boxes = cluster_tags(&cells, &RegridParams::default().cluster).len() as u64;
            let expected = gathered + 8 + 32 * boxes + ReduceSpec::MIN_F64.bytes;
            assert_eq!(bytes, expected, "{nranks} ranks, regrid {regrid}");
        }
    }
}
