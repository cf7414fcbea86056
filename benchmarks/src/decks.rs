//! The four workloads and their seeded deck generator.
//!
//! A workload is a fixed configuration (problem, grid, patch size, rank
//! count, placement, regrid cadence) plus a deck generated from
//! `(workload, seed)`. The seed moves region edges by at most two
//! coarse cells and energies by at most 2 %, so patch layouts differ
//! from seed to seed while the amount of work stays comparable. The
//! simulator sees only the deck text, through `problems::parse_deck`.

use rbamr_geometry::mix64;
use rbamr_hydro::Placement;
use rbamr_perfmodel::Machine;

/// Which test problem a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    Sod,
    TriplePoint,
    Sedov,
}

/// One benchmark workload. Everything but the deck text is fixed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists: the layers it loads and the ones it
    /// bypasses (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub problem: Problem,
    /// Physical extent and coarse cells.
    pub extent: (f64, f64),
    pub cells: (i64, i64),
    pub levels: usize,
    /// Maximum patch edge on every level, in cells.
    pub max_patch: i64,
    pub ranks: usize,
    pub placement: Placement,
    /// The modelled platform the virtual clock charges.
    pub machine: fn() -> Machine,
    /// An explicit regrid follows every `regrid_every`-th step.
    pub regrid_every: usize,
    /// Measured regrid cycles per second of `--seconds` on the
    /// reference sandbox: the measured window is
    /// `round(seconds × cycles_per_second)` cycles of `regrid_every`
    /// steps and one regrid, a fixed amount of work for a given
    /// `--seconds`, so counts and virtual time repeat exactly.
    pub cycles_per_second: f64,
}

impl Workload {
    /// Regrid cycles in a measured window of `seconds` (at least one).
    pub fn cycles(&self, seconds: f64) -> usize {
        ((seconds * self.cycles_per_second).round() as usize).max(1)
    }
}

/// Untimed steps before the measured window (followed by one regrid):
/// the dt ramp, first-touch page faults and cold caches end here.
pub const WARMUP_STEPS: usize = 10;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sod_r1_bigpatch",
        why: "Sod 448x448, 3 levels, ~5 huge patches, 1 rank, device, regrid/5 steps, ~135 steps in 20 s: hydro kernel bodies do nearly all the work; netsim, pack/unpack, schedules almost none. 1-thread baseline.",
        problem: Problem::Sod,
        extent: (1.0, 1.0),
        cells: (448, 448),
        levels: 3,
        max_patch: 1 << 20,
        ranks: 1,
        placement: Placement::Device,
        machine: Machine::ipa_gpu,
        regrid_every: 5,
        cycles_per_second: 1.33,
    },
    Workload {
        name: "tp_r4_smallpatch",
        why: "Triple point 168x72, 3 levels, ~230 16x16 patches, 4 ranks, device, regrid/10 steps, ~420 steps in 20 s: per-patch overhead dominates - launches, allocs, pack/unpack/copy-region, fills, p2p messages.",
        problem: Problem::TriplePoint,
        extent: (7.0, 3.0),
        cells: (168, 72),
        levels: 3,
        max_patch: 16,
        ranks: 4,
        placement: Placement::Device,
        machine: Machine::titan,
        regrid_every: 10,
        cycles_per_second: 2.1,
    },
    Workload {
        name: "sedov_r4_regrid",
        why: "Sedov blast 128x128, 3 levels, 16x16 patches, 4 ranks, device, regrid/2 steps, ~340 steps in 20 s: a moving front changes levels at most regrids - tagging, clustering, schedule rebuilds, RSS growth.",
        problem: Problem::Sedov,
        extent: (1.0, 1.0),
        cells: (128, 128),
        levels: 3,
        max_patch: 16,
        ranks: 4,
        placement: Placement::Device,
        machine: Machine::titan,
        regrid_every: 2,
        cycles_per_second: 8.5,
    },
    Workload {
        name: "tp_r128_host",
        why: "Triple point 280x120, 3 levels, ~450 16x16 patches, 128 ranks on nproc workers, host data, regrid/10 steps, ~90 steps in 20 s: netsim scheduling, log-depth collectives, rank metadata; the CPU build.",
        problem: Problem::TriplePoint,
        extent: (7.0, 3.0),
        cells: (280, 120),
        levels: 3,
        max_patch: 16,
        ranks: 128,
        placement: Placement::Host,
        machine: Machine::titan,
        regrid_every: 10,
        cycles_per_second: 0.47,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed-derived parameters of a deck, kept beside the text so checks
/// can use them (the Sod error check needs the interface and the
/// energy scale).
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratedDeck {
    pub text: String,
    /// Sod: interface position. Triple point: driver edge. Sedov: hot
    /// spot centre x.
    pub x0: f64,
    /// Sod: common factor applied to both energies (1 elsewhere).
    pub energy_scale: f64,
}

/// Maximum edge displacement, in coarse cells.
const EDGE_JITTER_CELLS: f64 = 2.0;
/// Maximum relative energy change.
const ENERGY_JITTER: f64 = 0.02;

/// Uniform value in `[-1, 1)` from `(seed, workload, slot)`.
fn jitter(seed: u64, name: &str, slot: u64) -> f64 {
    let mut h = mix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for b in name.bytes() {
        h = mix64(h ^ u64::from(b));
    }
    h = mix64(h ^ slot.wrapping_mul(0xd6e8_feb8_6659_fd93));
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Generate the `*clover` deck of `workload` for `seed`.
pub fn generate(w: &Workload, seed: u64) -> GeneratedDeck {
    let dx = w.extent.0 / w.cells.0 as f64;
    let dy = w.extent.1 / w.cells.1 as f64;
    let shift_x = jitter(seed, w.name, 0) * EDGE_JITTER_CELLS * dx;
    let shift_y = jitter(seed, w.name, 1) * EDGE_JITTER_CELLS * dy;
    let scale = |slot| 1.0 + jitter(seed, w.name, slot) * ENERGY_JITTER;
    let (ex, ey) = w.extent;
    let (states, x0, energy_scale) = match w.problem {
        Problem::Sod => {
            // Both energies share one factor: the solution stays the
            // Sod self-similar profile with time rescaled by sqrt(s),
            // so the exact-solution check stays exact.
            let (x0, s) = (0.5 * ex + shift_x, scale(2));
            let states = format!(
                " state 1 density=0.125 energy={}\n state 2 density=1.0 energy={} geometry=rectangle xmin=0.0 xmax={x0} ymin=0.0 ymax={ey}\n",
                2.0 * s,
                2.5 * s,
            );
            (states, x0, s)
        }
        Problem::TriplePoint => {
            let (x0, y0) = (1.0 + shift_x, 1.5 + shift_y);
            let states = format!(
                " state 1 density=1.0 energy={}\n state 2 density=1.0 energy={} geometry=rectangle xmin=0.0 xmax={x0} ymin=0.0 ymax={ey}\n state 3 density=0.125 energy={} geometry=rectangle xmin={x0} xmax={ex} ymin={y0} ymax={ey}\n",
                0.25 * scale(2),
                2.5 * scale(3),
                2.0 * scale(4),
            );
            (states, x0, 1.0)
        }
        Problem::Sedov => {
            let (x0, y0, half) = (0.5 * ex + shift_x, 0.5 * ey + shift_y, 0.06 * ex);
            let states = format!(
                " state 1 density=1.0 energy=0.001\n state 2 density=1.0 energy={} geometry=rectangle xmin={} xmax={} ymin={} ymax={}\n",
                8.0 * scale(2),
                x0 - half,
                x0 + half,
                y0 - half,
                y0 + half,
            );
            (states, x0, 1.0)
        }
    };
    let text = format!(
        "! {} seed {seed} (generated by rbamr_bench)\n*clover\n{states} x_cells={}\n y_cells={}\n xmin=0.0\n xmax={ex}\n ymin=0.0\n ymax={ey}\n max_levels={}\n*endclover\n",
        w.name, w.cells.0, w.cells.1, w.levels,
    );
    GeneratedDeck { text, x0, energy_scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_problems::parse_deck;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for w in &WORKLOADS {
            assert_eq!(generate(w, 7), generate(w, 7));
            assert_ne!(generate(w, 7).text, generate(w, 8).text, "{}", w.name);
        }
        // Workloads do not share their jitter.
        assert_ne!(jitter(1, WORKLOADS[1].name, 0), jitter(1, WORKLOADS[3].name, 0));
    }

    #[test]
    fn decks_parse_and_stay_inside_the_domain() {
        for w in &WORKLOADS {
            for seed in 0..200 {
                let g = generate(w, seed);
                let deck = parse_deck(&g.text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(deck.ignored.is_empty(), "{}: {:?}", w.name, deck.ignored);
                assert_eq!(deck.cells, w.cells);
                assert_eq!(deck.extent, w.extent);
                assert_eq!(deck.max_levels, w.levels);
                for r in &deck.regions {
                    let (x0, y0, x1, y1) = r.rect;
                    assert!(0.0 <= x0 && x0 < x1 && x1 <= w.extent.0, "{} {:?}", w.name, r.rect);
                    assert!(0.0 <= y0 && y0 < y1 && y1 <= w.extent.1, "{} {:?}", w.name, r.rect);
                    assert!(r.energy > 0.0 && r.density > 0.0);
                }
                // Edges move by at most two coarse cells.
                let dx = w.extent.0 / w.cells.0 as f64;
                let nominal_x0 = match w.problem {
                    Problem::TriplePoint => 1.0,
                    _ => 0.5 * w.extent.0,
                };
                assert!((g.x0 - nominal_x0).abs() <= 2.0 * dx + 1e-12);
                assert!((g.energy_scale - 1.0).abs() <= ENERGY_JITTER);
            }
        }
    }

    #[test]
    fn jitter_spans_its_range() {
        let vals: Vec<f64> = (0..1000).map(|s| jitter(s, "w", 0)).collect();
        assert!(vals.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(vals.iter().any(|v| *v < -0.9) && vals.iter().any(|v| *v > 0.9));
    }

    #[test]
    fn workload_names_and_whys_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(workload(w.name).is_some());
            assert!(w.cycles(0.0) >= 1);
        }
        assert!(workload("nope").is_none());
    }
}
