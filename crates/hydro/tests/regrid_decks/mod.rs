//! The two regridding decks whose per-regrid state digests
//! (`regrid_digests.rs`) and schedule plans
//! (`crates/amr/tests/plan_digests.rs`) are frozen: a weak triple point
//! on 16² patches and a pair of weak Sedov blasts on 8² patches, up to
//! three levels each, regridded every second step, the finer levels
//! vanishing and reappearing as the fronts drop under the flagging
//! thresholds and cross again. Changing a deck moves both sets of
//! constants.

use rbamr_hydro::{FlagThresholds, HydroConfig, HydroSim, Placement, RegionInit};
use rbamr_netsim::Comm;
use rbamr_perfmodel::Machine;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deck {
    TriplePoint,
    Sedov,
}

pub const LEVELS: usize = 3;
pub const REGRID_EVERY: usize = 2;
pub const REGRIDS: usize = 10;

impl Deck {
    fn extent(self) -> (f64, f64) {
        match self {
            Deck::TriplePoint => (7.0, 3.0),
            Deck::Sedov => (1.0, 1.0),
        }
    }

    fn cells(self) -> (i64, i64) {
        match self {
            Deck::TriplePoint => (112, 48),
            Deck::Sedov => (24, 24),
        }
    }

    fn patch(self) -> i64 {
        match self {
            Deck::TriplePoint => 16,
            Deck::Sedov => 8,
        }
    }

    /// Jumps that flag a cell: high enough that a weakening front drops
    /// below them within a few regrids.
    fn thresholds(self) -> FlagThresholds {
        match self {
            Deck::TriplePoint => FlagThresholds { density: 0.5, energy: 0.5 },
            Deck::Sedov => FlagThresholds { density: 0.4, energy: 0.4 },
        }
    }

    fn regions(self) -> Vec<RegionInit> {
        let still =
            |rect, density, energy| RegionInit { rect, density, energy, xvel: 0.0, yvel: 0.0 };
        match self {
            // The triple-point geometry with a 2:1 driver and a 10 %
            // density step: the shock is flagged while it is steep.
            Deck::TriplePoint => vec![
                still((0.0, 0.0, 1.0, 3.0), 1.0, 2.0),
                still((1.0, 0.0, 7.0, 1.5), 1.0, 1.0),
                still((1.0, 1.5, 7.0, 3.0), 0.9, 1.0 / 0.9),
            ],
            // Two warm squares in a box: each blast decays below the
            // threshold on its own, and is flagged again where the two
            // meet.
            Deck::Sedov => vec![
                still((0.0, 0.0, 1.0, 1.0), 1.0, 1.0),
                still((0.15, 0.45, 0.25, 0.55), 1.0, 1.5),
                still((0.75, 0.45, 0.85, 0.55), 1.0, 1.5),
            ],
        }
    }

    /// This rank's simulation of the deck, not yet initialised.
    pub fn sim(self, placement: Placement, comm: &Comm) -> HydroSim {
        let mut config = HydroConfig {
            regrid_interval: REGRID_EVERY,
            max_patch_size: self.patch(),
            thresholds: self.thresholds(),
            ..HydroConfig::default()
        };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = self.patch();
        HydroSim::new(
            Machine::ipa_gpu(),
            placement,
            comm.clock().clone(),
            self.extent(),
            self.cells(),
            LEVELS,
            2,
            config,
            self.regions(),
            comm.rank(),
            comm.size(),
        )
    }
}
