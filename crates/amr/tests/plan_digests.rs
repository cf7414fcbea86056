//! Frozen schedule plans: what every fill and sync schedule of a
//! regridding run moves, as absolute bits.
//!
//! The two `regrid_digests` decks (`crates/hydro/tests/regrid_decks`)
//! are run on the host and the device placement at 1, 2 and 4 ranks,
//! and the triple point also at 8, under replicated and partitioned
//! metadata. At 8 ranks most destinations of a level are ones a rank
//! owns no end of, which the builds skip. After every regrid each
//! rank renders
//! [`rbamr_amr::RefineSchedule::plan_digest`] /
//! [`rbamr_amr::CoarsenSchedule::plan_digest`] of every schedule the
//! integrator holds — per level the seven fills in the order it looks
//! them up, then the syncs — and the lines of all ranks, in rank order,
//! are hashed with FNV-1a. Both placements and both metadata modes must
//! produce the one sequence in [`FROZEN`] for their rank count: one
//! operator set serves every placement, so a plan — which names its
//! operators — cannot tell where the data lives.
//!
//! The constants were recorded at commit 5833799, from the build that
//! walked every record of a level once per variable; the 8-rank row at
//! 46fe580, from the build that walked every record once per class of
//! variables, on every rank. A plan digest is
//! sorted, so it pins *what* moves — every copy, send, receive,
//! capture, interpolation and physical fill, with its boxes — and not
//! the order of jobs inside a stage. The constants move only with a
//! deliberate change to the claim rule, the decks or the variable
//! lists, which re-records them and says so; never for a change to how
//! a schedule is built, shared or cached.

#[path = "../../hydro/tests/regrid_decks/mod.rs"]
mod regrid_decks;

use rbamr_amr::MetadataMode;
use rbamr_hydro::Placement;
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
use regrid_decks::{Deck, REGRIDS, REGRID_EVERY};

/// FNV-1a over the bytes of `lines`, each closed by a newline.
fn fnv1a<'a>(hash: u64, lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let bytes = lines.into_iter().flat_map(|l| l.bytes().chain(std::iter::once(b'\n')));
    bytes.fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One hash per regrid: every schedule of every rank, in rank order.
fn run(deck: Deck, ranks: usize, placement: Placement, mode: MetadataMode) -> Vec<u64> {
    let results = Cluster::new(Machine::ipa_gpu()).run(ranks, move |comm| {
        let mut sim = deck.sim(placement, mode, &comm);
        let comm = (comm.size() > 1).then_some(&comm);
        sim.initialize(comm);
        let mut after = Vec::new();
        for step in 1..=REGRIDS * REGRID_EVERY {
            sim.step(comm);
            if step % REGRID_EVERY == 0 {
                // A marker line between schedules: moving a plan from
                // one schedule to its neighbour must not cancel out.
                let schedules = sim.plan_digests();
                after.push(schedules.iter().fold(FNV_OFFSET, |h, lines| {
                    fnv1a(h, lines.iter().chain(std::iter::once(&String::from("--"))))
                }));
            }
        }
        after
    });
    let per_rank: Vec<Vec<u64>> = results.into_iter().map(|r| r.value).collect();
    (0..REGRIDS)
        .map(|i| {
            per_rank.iter().fold(FNV_OFFSET, |h, rank| fnv1a(h, [&format!("{:016x}", rank[i])]))
        })
        .collect()
}

/// Per deck and rank count, one hash per regrid.
const FROZEN: [(Deck, usize, [u64; REGRIDS]); 7] = [
    (
        Deck::TriplePoint,
        1,
        [
            0x4e53_858b_94e1_dc79,
            0x4e53_858b_94e1_dc79,
            0x4e53_858b_94e1_dc79,
            0x668f_6988_d6dd_b779,
            0x668f_6988_d6dd_b779,
            0x668f_6988_d6dd_b779,
            0x3cc1_2261_7665_6742,
            0xc374_550d_bc23_9cb2,
            0xdcc4_6d7a_6b68_9064,
            0xc374_550d_bc23_9cb2,
        ],
    ),
    (
        Deck::TriplePoint,
        2,
        [
            0x9543_9227_45c7_6af6,
            0x9543_9227_45c7_6af6,
            0x9543_9227_45c7_6af6,
            0x510a_4f27_f448_bd07,
            0x510a_4f27_f448_bd07,
            0x510a_4f27_f448_bd07,
            0x0288_9d6a_b053_72b5,
            0x653e_eaef_b023_7a43,
            0x7d4a_231a_8b38_9913,
            0x653e_eaef_b023_7a43,
        ],
    ),
    (
        Deck::TriplePoint,
        4,
        [
            0xbb08_d7b1_5fa8_e93f,
            0xbb08_d7b1_5fa8_e93f,
            0xbb08_d7b1_5fa8_e93f,
            0x400b_f803_6236_d883,
            0x400b_f803_6236_d883,
            0x400b_f803_6236_d883,
            0x678f_1382_281b_b4a9,
            0x74be_e9d9_8535_3243,
            0xd905_6bc2_2d2b_a6f9,
            0x74be_e9d9_8535_3243,
        ],
    ),
    (
        Deck::Sedov,
        1,
        [
            0x4162_1f79_93ae_ed4a,
            0x517e_6005_342a_4c89,
            0x42d6_4c4c_a66c_29d5,
            0x4b42_2e1c_0919_3eb5,
            0xc0f3_8669_a631_74ff,
            0xbf32_6281_90a0_a253,
            0xc892_8fb5_f5b7_e330,
            0xc892_8fb5_f5b7_e330,
            0xc0b5_6d1f_eaed_1463,
            0x4b42_2e1c_0919_3eb5,
        ],
    ),
    (
        Deck::Sedov,
        2,
        [
            0x2e6c_538d_09b7_2cde,
            0x3313_846f_1699_d5e3,
            0xe17b_9998_f692_40a5,
            0x3858_334e_14d2_4cb8,
            0xb36e_c43c_f3cf_e2ff,
            0xcc8a_a449_17a6_7975,
            0x6176_5e5c_0daa_3333,
            0x6176_5e5c_0daa_3333,
            0xef2a_2785_99bd_6ed2,
            0x3858_334e_14d2_4cb8,
        ],
    ),
    (
        Deck::Sedov,
        4,
        [
            0x06c1_a439_dd08_8ef6,
            0xdad6_b4a5_3242_ab9f,
            0xe257_d166_460f_8500,
            0x0a64_013c_9815_c128,
            0xc2ce_ecf6_5c54_d1f1,
            0x5cc0_ee54_f03d_1508,
            0x2234_1a88_dd23_3496,
            0x2234_1a88_dd23_3496,
            0x7187_eba9_cf60_844e,
            0x0a64_013c_9815_c128,
        ],
    ),
    (
        Deck::TriplePoint,
        8,
        [
            0x0610_9e24_f13e_9bb7,
            0x0610_9e24_f13e_9bb7,
            0x0610_9e24_f13e_9bb7,
            0xe816_2c8c_8214_2fc9,
            0xe816_2c8c_8214_2fc9,
            0xe816_2c8c_8214_2fc9,
            0x95dc_fe33_3bfb_f8ce,
            0x1ead_4d95_46e6_9e4c,
            0x66d2_9f87_783d_35ee,
            0x1ead_4d95_46e6_9e4c,
        ],
    ),
];

#[test]
fn plans_after_every_regrid_match_the_frozen_digests() {
    // Every cell runs before the verdict, so one failure prints all
    // that moved, in the form of `FROZEN`.
    let mut moved = String::new();
    let cells = [Placement::Host, Placement::Device].into_iter().flat_map(|placement| {
        [MetadataMode::Replicated, MetadataMode::Partitioned].map(|mode| (placement, mode))
    });
    for (deck, ranks, frozen) in FROZEN {
        for (placement, mode) in cells.clone() {
            let measured = run(deck, ranks, placement, mode);
            if measured != frozen {
                let hex = |h: &u64| {
                    let h = format!("{h:016x}");
                    format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
                };
                let row = measured.iter().map(hex).collect::<Vec<_>>().join(", ");
                moved += &format!("{placement:?} {mode:?}: (Deck::{deck:?}, {ranks}, [{row}]),\n");
            }
        }
    }
    assert!(moved.is_empty(), "the plans left the frozen reference:\n{moved}");
}
