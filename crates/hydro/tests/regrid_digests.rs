//! Frozen per-regrid state digests: what a regrid's solution transfer
//! leaves on the new levels, as absolute bits.
//!
//! Two short runs that regrid every second step — a weak triple point
//! on 16² patches and a pair of weak Sedov blasts on 8² patches, up to
//! three levels each, the finer levels vanishing and reappearing as the
//! fronts drop under the flagging thresholds and cross again — are run
//! on {Host, Device} × {1, 2, 4 ranks} × {replicated, partitioned
//! metadata}, and the triple point on the host at 8 ranks in both
//! modes, where a rank walks few of a new level's transfer
//! destinations. After every regrid the four
//! persisted state fields of every patch are hashed exactly as
//! [`HydroSim::state_field_digest`] hashes them and combined over the
//! ranks, which gives the digest a 1-rank run reports whatever the rank
//! layout. All twelve cells of a deck must produce the one sequence in
//! [`FROZEN`].
//!
//! The constants were recorded at commit 50e6f37, from the regridder
//! that refined every new patch over its whole data box and then
//! overwrote it from each overlapping old patch in ascending record
//! order, one message per (variable, new patch, source patch). They pin
//! the transfer's claim rule — where node-centred data boxes share a
//! plane the highest-index old patch wins, and old data wins over
//! interpolated data — on every rank layout. They move only with a
//! deliberate change to that rule or to the physics, which re-records
//! them and says so; never for a change to how the transfer is planned,
//! batched or sent.

mod regrid_decks;

use rbamr_amr::MetadataMode;
use rbamr_geometry::{BoxList, BoxOverlap, Fnv64, IntVector, UnorderedDigest};
use rbamr_hydro::{HydroSim, Placement};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
use regrid_decks::{Deck, REGRIDS, REGRID_EVERY};

/// What one regrid left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AfterRegrid {
    /// Rank-layout-independent digest of the four state fields.
    digest: u64,
    levels: usize,
    patches: usize,
}

/// The per-patch items of [`HydroSim::state_field_digest`], unfinished,
/// so that the ranks' accumulators can be merged.
fn state_items(sim: &HydroSim) -> UnorderedDigest {
    let f = sim.fields();
    let mut set = UnorderedDigest::new();
    let h = sim.hierarchy();
    for l in 0..h.num_levels() {
        for patch in h.level(l).local() {
            for var in [f.density0, f.energy0, f.xvel0, f.yvel0] {
                let data = patch.data(var);
                let ov = BoxOverlap {
                    dst_boxes: BoxList::from_box(data.data_box()),
                    shift: IntVector::ZERO,
                    centring: data.centring(),
                };
                let mut item = Fnv64::new();
                item.write_usize(l);
                item.write_usize(patch.id().index);
                item.write_usize(var.0);
                for word in data.pack(&ov).chunks_exact(8) {
                    item.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
                }
                set.add(item.finish());
            }
        }
    }
    set
}

fn run(deck: Deck, placement: Placement, ranks: usize, mode: MetadataMode) -> Vec<AfterRegrid> {
    let results = Cluster::new(Machine::ipa_gpu()).run(ranks, move |comm| {
        let mut sim = deck.sim(placement, mode, &comm);
        let comm = (comm.size() > 1).then_some(&comm);
        sim.initialize(comm);
        let mut after = Vec::new();
        for step in 1..=REGRIDS * REGRID_EVERY {
            sim.step(comm);
            if step % REGRID_EVERY == 0 {
                let items = state_items(&sim);
                if ranks == 1 {
                    assert_eq!(items.finish(), sim.state_field_digest(), "digest recipe drifted");
                }
                let h = sim.hierarchy();
                let patches = (0..h.num_levels()).map(|l| h.level(l).num_patches()).sum();
                after.push((items, h.num_levels(), patches));
            }
        }
        after
    });
    let mut per_rank: Vec<_> = results.into_iter().map(|r| r.value).collect();
    let mut merged = per_rank.pop().expect("at least one rank");
    for rank in per_rank {
        for ((items, levels, patches), (other, l, p)) in merged.iter_mut().zip(rank) {
            assert_eq!((*levels, *patches), (l, p), "ranks disagree on the structure");
            items.merge(&other);
        }
    }
    merged
        .into_iter()
        .map(|(items, levels, patches)| AfterRegrid { digest: items.finish(), levels, patches })
        .collect()
}

/// One `(digest, levels, patches)` per regrid.
type Frozen = [(u64, usize, usize); REGRIDS];

const FROZEN: [(Deck, Frozen); 2] = [
    (
        Deck::TriplePoint,
        [
            (0x2841_9c76_b6a2_45b1, 3, 39),
            (0x918a_72f4_e500_9536, 3, 39),
            (0x8a1e_42f8_8d95_2ce2, 3, 39),
            (0xffdf_6da8_165b_990b, 3, 34),
            (0x0de0_a9b2_00c0_da92, 3, 34),
            (0x7efb_d121_899d_d8d3, 3, 34),
            (0xc18a_1195_aac7_a8af, 3, 31),
            (0x298d_44c6_6009_1555, 2, 25),
            (0x9e6d_5823_a633_f183, 3, 32),
            (0x9a6a_14ce_55f5_6402, 2, 25),
        ],
    ),
    (
        Deck::Sedov,
        [
            (0x2e35_147f_6e6e_0c7f, 3, 29),
            (0x32b6_3d36_690c_37fd, 3, 31),
            (0x52c2_62e0_7708_4941, 2, 17),
            (0x78ed_9c55_41f5_3a79, 1, 9),
            (0x1e0e_d861_3bc6_13cf, 2, 13),
            (0xe90b_b5b2_504d_0fb5, 3, 19),
            (0x0cb3_8640_8232_3350, 2, 17),
            (0xf127_00dc_6795_6acf, 2, 17),
            (0x62ef_66ec_482d_e915, 2, 11),
            (0x5830_71e8_fd17_b78a, 1, 9),
        ],
    ),
];

fn check(deck: Deck) {
    let frozen: Vec<AfterRegrid> = FROZEN
        .iter()
        .find(|(d, _)| *d == deck)
        .expect("deck has constants")
        .1
        .iter()
        .map(|&(digest, levels, patches)| AfterRegrid { digest, levels, patches })
        .collect();
    // The triple point also runs at 8 ranks on the host, where a rank
    // walks few of a new level's destinations.
    let eight = (deck == Deck::TriplePoint).then_some((Placement::Host, 8));
    let cells = [Placement::Host, Placement::Device]
        .into_iter()
        .flat_map(|placement| [1, 2, 4].map(|ranks| (placement, ranks)))
        .chain(eight);
    for (placement, ranks) in cells {
        for mode in [MetadataMode::Replicated, MetadataMode::Partitioned] {
            let measured = run(deck, placement, ranks, mode);
            assert!(
                measured == frozen,
                "{deck:?} {placement:?} {ranks} ranks {mode:?}: the per-regrid digests left the \
                 frozen reference:\n{}",
                measured
                    .iter()
                    .map(|a| format!("(0x{:016x}, {}, {}),\n", a.digest, a.levels, a.patches))
                    .collect::<String>()
            );
        }
    }
    // The runs are worth freezing only while the finest level comes and
    // goes between regrids.
    let levels: Vec<usize> = frozen.iter().map(|a| a.levels).collect();
    assert!(levels.windows(2).any(|w| w[1] > w[0]), "{deck:?}: no level appears: {levels:?}");
    assert!(levels.windows(2).any(|w| w[1] < w[0]), "{deck:?}: no level vanishes: {levels:?}");
}

#[test]
fn triple_point_regrids_match_the_frozen_digests() {
    check(Deck::TriplePoint);
}

#[test]
fn sedov_regrids_match_the_frozen_digests() {
    check(Deck::Sedov);
}
