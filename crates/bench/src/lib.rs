//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure of the paper's Section V (see
//! `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results; Table I is the perfmodel test
//! `table_rows_render`):
//!
//! * `fig9_serial` — Figure 9, the serial K20x vs dual-socket sweep.
//! * `fig10_strong` — Figure 10, strong scaling on IPA.
//! * `fig11_weak` — Figure 11, weak scaling on Titan.
//! * `breakdown` — the Section V-B runtime-component percentages.
//! * `report diff` — two metric files' differences by layer ([`report`]).
//!
//! Runtimes are **virtual** (the calibrated machine models of
//! `rbamr-perfmodel`); the numerics execute for real. Large
//! paper-scale configurations run a few real steps and scale to the
//! paper's 1000 (per-step cost is stationary once the hierarchy
//! exists); regrid cost is measured separately and amortised at the
//! regrid interval.

pub mod report;

use rbamr_hydro::{HydroConfig, HydroSim, Placement};
use rbamr_netsim::Comm;
use rbamr_perfmodel::{Category, Clock, Machine, TimeBreakdown};
use rbamr_problems::sod_regions;

/// A measured per-step virtual-time profile of a configuration.
#[derive(Clone, Copy, Debug)]
pub struct StepProfile {
    /// Average per-step breakdown (excluding regridding).
    pub per_step: TimeBreakdown,
    /// Virtual seconds of one regrid pass.
    pub regrid: f64,
    /// Stored cells over all levels.
    pub total_cells: i64,
}

impl StepProfile {
    /// Projected runtime of `steps` paper steps with regridding every
    /// `interval` steps.
    pub fn projected_runtime(&self, steps: usize, interval: usize) -> f64 {
        let regrids = steps.checked_div(interval).unwrap_or(0);
        self.per_step.total() * steps as f64 + self.regrid * regrids as f64
    }

    /// Projected per-category seconds for `steps` steps.
    pub fn projected_components(&self, steps: usize, interval: usize) -> Vec<(Category, f64)> {
        let regrids = steps.checked_div(interval).unwrap_or(0);
        Category::ALL
            .iter()
            .map(|&c| {
                let mut v = self.per_step.get(c) * steps as f64;
                if c == Category::Regrid {
                    v += self.regrid * regrids as f64;
                }
                (c, v)
            })
            .collect()
    }
}

/// Standard experiment configuration for the Sod studies. The harness
/// regrids explicitly (interval 0) so step and regrid costs can be
/// measured separately and recombined at the paper's cadence.
pub fn sod_config(max_patch: i64) -> HydroConfig {
    let mut config =
        HydroConfig { regrid_interval: 0, max_patch_size: max_patch, ..HydroConfig::default() };
    config.regrid.max_patch_size = max_patch;
    config.regrid.cluster.max_size = max_patch.min(1 << 20);
    config
}

/// Build a Sod simulation on an `nx x ny` coarse grid.
#[allow(clippy::too_many_arguments)]
pub fn sod_sim(
    machine: Machine,
    placement: Placement,
    clock: Clock,
    nx: i64,
    ny: i64,
    levels: usize,
    max_patch: i64,
    rank: usize,
    nranks: usize,
) -> HydroSim {
    HydroSim::new(
        machine,
        placement,
        clock,
        (1.0, 1.0),
        (nx, ny),
        levels,
        2,
        sod_config(max_patch),
        sod_regions(),
        rank,
        nranks,
    )
}

/// Measure the per-step virtual-time profile of `sim`: one warm-up
/// step, `measure_steps` measured steps, then one explicit regrid.
pub fn measure_profile(
    sim: &mut HydroSim,
    comm: Option<&Comm>,
    measure_steps: usize,
) -> StepProfile {
    assert!(measure_steps > 0, "need at least one measured step");
    sim.step(comm); // warm-up: first dt ramp
    let before = sim.clock().snapshot();
    for _ in 0..measure_steps {
        sim.step(comm);
    }
    let after = sim.clock().snapshot();
    let per_step = diff_scaled(&before, &after, 1.0 / measure_steps as f64);

    let before_rg = sim.clock().snapshot();
    sim.regrid(comm);
    let after_rg = sim.clock().snapshot();
    let regrid = after_rg.total() - before_rg.total();

    StepProfile { per_step, regrid, total_cells: sim.hierarchy().total_cells() }
}

/// `(after - before) * scale`, per category.
pub fn diff_scaled(before: &TimeBreakdown, after: &TimeBreakdown, scale: f64) -> TimeBreakdown {
    let mut out = TimeBreakdown::default();
    for c in Category::ALL {
        out.add(c, (after.get(c) - before.get(c)).max(0.0) * scale);
    }
    out
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Write a CSV series file (gnuplot/pandas-ready) when the user passed
/// `--csv <dir>`; returns the path written.
///
/// # Panics
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_csv(
    dir: &std::path::Path,
    name: &str,
    header: &str,
    rows: &[Vec<f64>],
) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("csv: create dir");
    let path = dir.join(name);
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out).expect("csv: write");
    path
}

/// Parse an optional `--csv <dir>` argument.
pub fn csv_dir_arg() -> Option<std::path::PathBuf> {
    path_arg("--csv")
}

/// Parse an optional `--trace <file>` argument (Chrome trace-event JSON
/// output path).
pub fn trace_path_arg() -> Option<std::path::PathBuf> {
    path_arg("--trace")
}

/// Parse an optional `--metrics <file>` argument (flat JSON metrics
/// snapshot output path).
pub fn metrics_path_arg() -> Option<std::path::PathBuf> {
    path_arg("--metrics")
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`). Returns `None` off Linux or when the field is
/// unreadable. Note this is a *process-lifetime high-water mark*: it
/// never decreases, so comparing two configurations requires running
/// each in a fresh process (see `fig11_weak --scale-smoke`).
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// Parse an optional `<flag> <path>` pair from the process arguments.
pub fn path_arg(flag: &str) -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(std::path::PathBuf::from)
}

/// Build the two-level hierarchy the schedule-build benchmarks use:
/// `fine_patches` (a perfect square with even side) 4×4-cell patches
/// tiling a square refined region, over a fully tiled coarse level with
/// one quarter as many 4×4 patches, owners round-robin over `nranks`.
/// Returns the hierarchy as seen from `rank`, plus a registry holding
/// one cell-centred variable with two ghost cells.
///
/// # Panics
/// Panics if `fine_patches` is not a perfect square with an even side.
pub fn schedule_bench_hierarchy(
    fine_patches: usize,
    rank: usize,
    nranks: usize,
) -> (rbamr_amr::PatchHierarchy, rbamr_amr::VariableRegistry, rbamr_amr::VariableId) {
    bench_hierarchy(fine_patches, rank, nranks, |boxes, n| {
        (0..boxes.len()).map(|i| i % n).collect()
    })
}

/// As [`schedule_bench_hierarchy`], with owners assigned by the
/// production space-filling-curve partitioner
/// ([`rbamr_amr::balance::partition_sfc`]) instead of round-robin, so
/// each rank owns a compact block. `schedule_bench` gates the owner-only
/// walk on it, where the pairs a rank walks depend on ownership
/// locality.
pub fn schedule_bench_hierarchy_sfc(
    fine_patches: usize,
    rank: usize,
    nranks: usize,
) -> (rbamr_amr::PatchHierarchy, rbamr_amr::VariableRegistry, rbamr_amr::VariableId) {
    bench_hierarchy(fine_patches, rank, nranks, rbamr_amr::balance::partition_sfc)
}

fn bench_hierarchy(
    fine_patches: usize,
    rank: usize,
    nranks: usize,
    owners: impl Fn(&[rbamr_geometry::GBox], usize) -> Vec<usize>,
) -> (rbamr_amr::PatchHierarchy, rbamr_amr::VariableRegistry, rbamr_amr::VariableId) {
    use rbamr_amr::{GridGeometry, HostDataFactory, PatchHierarchy, VariableRegistry};
    use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
    let side = (fine_patches as f64).sqrt().round() as i64;
    assert!(
        side * side == fine_patches as i64 && side % 2 == 0,
        "fine_patches must be a perfect square with an even side"
    );
    let tiles = |n: i64, size: i64| -> Vec<GBox> {
        let mut out = Vec::with_capacity((n * n) as usize);
        for j in 0..n {
            for i in 0..n {
                let lo = IntVector::new(i * size, j * size);
                out.push(GBox::new(lo, lo + IntVector::uniform(size)));
            }
        }
        out
    };
    let mut reg = VariableRegistry::new(std::sync::Arc::new(HostDataFactory::new()));
    let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
    // Coarse level: 2*side cells per axis in 4x4 tiles; fine level
    // refines the full domain (ratio 2) into side^2 4x4 tiles.
    let mut h = PatchHierarchy::new(
        GridGeometry::unit(1.0),
        BoxList::from_box(GBox::from_coords(0, 0, 2 * side, 2 * side)),
        IntVector::uniform(2),
        2,
        rank,
        nranks,
    );
    let coarse = tiles(side / 2, 4);
    let coarse_owners = owners(&coarse, nranks);
    h.set_level(0, coarse, coarse_owners, &reg);
    let fine = tiles(side, 4);
    let fine_owners = owners(&fine, nranks);
    h.set_level(1, fine, fine_owners, &reg);
    (h, reg, var)
}

/// The Figure 9/10 resolution ladder: coarse zone counts from ~3,125 to
/// 6.4 million (square grids, quadrupling per rung as in the paper).
/// The two largest rungs only run with `--full`.
pub fn fig9_resolutions(full: bool) -> Vec<(i64, i64)> {
    let mut sizes = vec![(56, 56), (112, 112), (224, 224), (448, 448), (896, 896)];
    if full {
        sizes.push((1792, 1792));
        sizes.push((2530, 2530));
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_projection_amortises_regrids() {
        let clock = Clock::new();
        clock.advance(Category::HydroKernel, 2.0);
        let p = StepProfile { per_step: clock.snapshot(), regrid: 5.0, total_cells: 100 };
        assert_eq!(p.projected_runtime(10, 0), 20.0);
        assert_eq!(p.projected_runtime(10, 5), 30.0);
        let comps = p.projected_components(10, 5);
        let regrid = comps.iter().find(|(c, _)| *c == Category::Regrid).unwrap().1;
        assert_eq!(regrid, 10.0);
    }

    #[test]
    fn sod_profile_measures_something() {
        let mut sim =
            sod_sim(Machine::ipa_gpu(), Placement::Device, Clock::new(), 32, 32, 2, 1 << 20, 0, 1);
        sim.initialize(None);
        let p = measure_profile(&mut sim, None, 2);
        assert!(p.per_step.total() > 0.0);
        assert!(p.regrid > 0.0);
        assert!(p.total_cells >= 32 * 32);
    }

    #[test]
    fn diff_scaled_subtracts() {
        let a = Clock::new();
        a.advance(Category::HydroKernel, 1.0);
        let before = a.snapshot();
        a.advance(Category::HydroKernel, 3.0);
        let after = a.snapshot();
        let d = diff_scaled(&before, &after, 0.5);
        assert_eq!(d.get(Category::HydroKernel), 1.5);
    }
}
