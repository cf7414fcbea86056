//! One frozen state digest per (deck, step): the reference every
//! rank-count and recovery identity is checked against.
//!
//! A deck's digest after step `s` is every rank's
//! [`HydroSim::state_accumulator`] merged ([`UnorderedDigest::merge`])
//! and bound to the simulated time's bits. Each patch lives on one rank
//! and the accumulator is order-independent, so the word is the same at
//! every rank count and placement — `rank_count_invariance` asserts it
//! at 1, 2, 3, 4, 5 and 8 ranks, across all three placements. A recovery
//! test compares its survivors with the word instead of with a
//! fault-free run of its own. Step 0 is the state after
//! initialisation.
//!
//! The words were recorded from the step path of 0d883c9, whose
//! `state_field_digest` had the accumulator's body. They move only with a deliberate physics
//! change, which re-records them and says so. The rank-layout pins
//! stay elsewhere: `FROZEN_HOST_DIGESTS` in `device_equivalence.rs`
//! and `FROZEN` in the root package's `cross_crate.rs`.

#![allow(dead_code)] // each suite that includes this module uses part of it

use rbamr_geometry::{Fnv64, UnorderedDigest};
use rbamr_hydro::{HydroConfig, HydroSim, Placement, RegionInit, SimSpec};
use rbamr_perfmodel::{Clock, Machine};

/// Steps each deck's digests cover after initialisation.
pub const STEPS: usize = 8;

/// The rank counts `rank_count_invariance` asserts every deck at.
pub const RANKS: [usize; 6] = [1, 2, 3, 4, 5, 8];

/// Every deck a recovery or rank-count test runs. Two levels, ratio 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deck {
    /// Sod on 24², patches of at most 8 cells, regrid every 5 steps:
    /// the recovery deck (`resilience`, `checkpoint_distributed`,
    /// `shrink_sweep`, `device_equivalence`'s fault schedules).
    Sod24,
    /// The triple point on 28 x 12, configured as [`Deck::Sod24`]
    /// (`shrink_sweep`).
    TriplePoint,
    /// Sod on 48², 16-cell patches on both levels, regrid every 4 steps
    /// (`cross_crate`).
    Sod48,
}

impl Deck {
    /// This rank's specification of the deck; the machine follows the
    /// placement (a CPU node for the host, a GPU otherwise).
    pub fn spec(self, placement: Placement, rank: usize, nranks: usize) -> SimSpec {
        let machine = match placement {
            Placement::Host => Machine::ipa_cpu_node(),
            _ => Machine::ipa_gpu(),
        };
        let (regrid_interval, max_patch_size) = if self == Deck::Sod48 { (4, 16) } else { (5, 8) };
        let mut config = HydroConfig { regrid_interval, max_patch_size, ..HydroConfig::default() };
        if self == Deck::Sod48 {
            config.regrid.max_patch_size = max_patch_size;
        } else {
            config.regrid.cluster.min_size = 4;
        }
        let (extent, coarse_cells, regions) = match self {
            Deck::Sod24 => ((1.0, 1.0), (24, 24), sod_regions()),
            Deck::TriplePoint => ((7.0, 3.0), (28, 12), triple_point_regions()),
            Deck::Sod48 => ((1.0, 1.0), (48, 48), sod_regions()),
        };
        SimSpec {
            machine,
            placement,
            extent,
            coarse_cells,
            max_levels: 2,
            ratio: 2,
            config,
            regions,
            rank,
            nranks,
        }
    }

    /// This rank's simulation of the deck, not yet initialised.
    pub fn sim(self, placement: Placement, clock: Clock, rank: usize, nranks: usize) -> HydroSim {
        self.spec(placement, rank, nranks).build(placement, clock)
    }

    /// The frozen digest of the deck after `step` steps.
    pub fn digest(self, step: usize) -> u64 {
        FROZEN[self as usize][step]
    }

    /// Assert that `ranks` — every rank of one run, in any order —
    /// hold the deck's state after `step` steps.
    pub fn assert_step(self, step: usize, ranks: impl IntoIterator<Item = RankState>, what: &str) {
        let measured = deck_digest(ranks);
        assert!(
            measured == self.digest(step),
            "{what}: {self:?} after step {step} left the frozen deck digest ({measured:#x})"
        );
    }
}

/// One rank's share of a deck digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankState {
    acc: UnorderedDigest,
    time: u64,
}

impl RankState {
    /// `sim`'s state accumulator and simulated time.
    pub fn of(sim: &HydroSim) -> Self {
        Self { acc: sim.state_accumulator(), time: sim.time().to_bits() }
    }
}

/// Merge every rank's accumulator and bind the simulated time, which
/// the ranks must agree on.
pub fn deck_digest(ranks: impl IntoIterator<Item = RankState>) -> u64 {
    let mut ranks = ranks.into_iter();
    let RankState { mut acc, time } = ranks.next().expect("at least one rank");
    for r in ranks {
        assert_eq!(r.time, time, "ranks disagree on the simulated time");
        acc.merge(&r.acc);
    }
    let mut f = Fnv64::new();
    f.write_u64(acc.finish());
    f.write_u64(time);
    f.finish()
}

/// Sod's two states, the left one dense and hot.
pub fn sod_regions() -> Vec<RegionInit> {
    let still = |rect, density, energy| RegionInit { rect, density, energy, xvel: 0.0, yvel: 0.0 };
    vec![still((0.0, 0.0, 0.5, 1.0), 1.0, 2.5), still((0.5, 0.0, 1.0, 1.0), 0.125, 2.0)]
}

/// `rbamr_problems::triple_point_regions`, which this crate cannot
/// depend on: the energies are `p / ((γ − 1) ρ)`, computed as there.
fn triple_point_regions() -> Vec<RegionInit> {
    let e = |p: f64, rho: f64| p / (0.4 * rho);
    let still = |rect, density, energy| RegionInit { rect, density, energy, xvel: 0.0, yvel: 0.0 };
    vec![
        still((0.0, 0.0, 1.0, 3.0), 1.0, e(1.0, 1.0)),
        still((1.0, 0.0, 7.0, 1.5), 1.0, e(0.1, 1.0)),
        still((1.0, 1.5, 7.0, 3.0), 0.125, e(0.1, 0.125)),
    ]
}

/// Per deck, in [`Deck`] order, the digest after initialisation and
/// after each of [`STEPS`] steps.
const FROZEN: [[u64; STEPS + 1]; 3] = [
    [
        0x739e_3eb6_108e_0419,
        0xaeb5_6296_b295_21d5,
        0xed56_72e7_f3d0_cc43,
        0xefed_aac1_5776_d6b9,
        0xb917_3511_2265_620e,
        0xbe9f_cf15_125b_7d96,
        0x346a_8024_fe99_ad97,
        0x5f7f_1cfe_27d0_e9f6,
        0xeb72_2ece_7919_bd8c,
    ],
    [
        0x2484_6a57_7d50_d4b8,
        0x496f_85bd_93ea_c05c,
        0x736c_1b35_a051_186e,
        0x3bae_3501_04c0_44cb,
        0x5615_6d0f_f7ab_0c14,
        0xecec_7b9d_41f3_4ad2,
        0x7f9b_651e_b757_5fc4,
        0x9459_cec1_32de_c7e5,
        0xa152_b83e_d5a2_d866,
    ],
    [
        0xd619_82d0_fc4d_4ccd,
        0x414e_29fd_7643_2e10,
        0xd190_9224_84e3_e705,
        0xc8e6_b438_df91_186c,
        0x7673_6895_b99c_a5fd,
        0x5031_269a_e088_2be3,
        0x9271_8613_3a89_9a7a,
        0xae5b_303b_d65d_51fc,
        0x6adf_3609_30de_c768,
    ],
];
