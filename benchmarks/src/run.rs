//! The run protocol shared by every workload: set-up, warm-up, the
//! measured window of timed steps and explicit regrids, and the
//! correctness checks that decide `failed`.
//!
//! The simulator is driven only through public APIs: the deck text goes
//! through `problems::parse_deck`, ranks are launched by
//! `netsim::Cluster::run`, and each rank owns a `hydro::HydroSim`. The
//! configuration names no tuning knob beyond patch size and
//! `regrid_interval: 0`, so the benchmark measures whatever the
//! production defaults are.

use crate::calib::Cal;
use crate::decks::{GeneratedDeck, Problem, Workload, WARMUP_STEPS};
use crate::spans::SpanLog;
use rbamr_device::DeviceStats;
use rbamr_geometry::GBox;
use rbamr_hydro::{HydroConfig, HydroSim, Summary};
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::TimeBreakdown;
use rbamr_problems::{parse_deck, Deck};
use rbamr_telemetry::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Relative mass drift per measured step above which the run counts as
/// failed. The scheme is not exactly conservative across coarse-fine
/// boundaries and regrids: the workloads drift by 2e-8 (Sedov) to 4e-7
/// (triple point) per step, so a fixed 1e-4 would trip after ~270
/// triple-point steps; three times the worst measured rate does not.
pub const MASS_DRIFT_TOL_PER_STEP: f64 = 1e-6;
/// `sod_l1_error` of the final midline density profile above which
/// `sod_r1_bigpatch` counts as failed.
pub const SOD_L1_TOL: f64 = 5e-3;

/// A timed operation of the measured window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Step,
    Regrid,
}

/// Rank 0's wall-clock samples over the measured window.
#[derive(Clone, Debug, Default)]
pub struct WallSamples {
    /// Every timed step and regrid, in order: kind, start (ns since the
    /// span log's origin) and duration in ns.
    pub ops: Vec<(OpKind, u64, f64)>,
    /// One `CAL` run before every timed step and regrid.
    pub cal_ns: Vec<f64>,
    /// Wall time of the whole window, `CAL` runs included.
    pub window_ns: f64,
    /// Process CPU time and system-wide steal/total jiffies over the
    /// window (noise evidence).
    pub cpu_ns: f64,
    pub steal_jiffies: f64,
    pub total_jiffies: f64,
    /// Σ over measured steps of the hierarchy's global cell count.
    pub cell_updates: f64,
}

impl WallSamples {
    /// Durations of the timed operations of one kind.
    pub fn durations(&self, kind: OpKind) -> Vec<f64> {
        self.ops.iter().filter(|(k, _, _)| *k == kind).map(|(_, _, d)| *d).collect()
    }
}

/// What a regrid did, accumulated over the measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegridTally {
    pub regrids: u64,
    pub levels_seen: u64,
    pub levels_unchanged: u64,
    pub patches_after: u64,
}

/// Counters and clocks a traced rank captured at the window's edges.
#[derive(Clone, Debug)]
pub struct TraceCapture {
    pub recorder: Recorder,
    pub counters_start: BTreeMap<String, u64>,
    pub counters_end: BTreeMap<String, u64>,
    pub spans_start: usize,
    pub device_end: Option<DeviceStats>,
}

/// One rank's report.
#[derive(Clone, Debug)]
pub struct RankOut {
    /// Wall nanoseconds from the start of set-up to the end of
    /// `initialize`, as this rank saw it.
    pub setup_ns: f64,
    pub wall: WallSamples,
    /// Named wall spans outside the measured window (`HydroSim::new`,
    /// `initialize`, `summary`, checkpoint save and restore): name,
    /// start and end in ns since the span log's origin. Rank 0 only.
    pub spans: Vec<(&'static str, u64, u64)>,
    pub clock_start: TimeBreakdown,
    pub clock_end: TimeBreakdown,
    pub failed_ops: usize,
    pub non_finite: usize,
    pub mass_start: f64,
    pub summary_end: Summary,
    /// What every rank must agree on: step count, simulation time and
    /// the structure digest of every level.
    pub agreement: Vec<u64>,
    pub state_digest: u64,
    pub sod_l1: Option<f64>,
    pub regrid: RegridTally,
    /// Final boxes of every level as rank 0 holds them (probe input).
    pub level_boxes: Vec<Vec<GBox>>,
    /// Live entries of the schedule cache at the end of the run.
    pub schedule_cache_entries: usize,
    pub batch_plan_builds: u64,
    /// Serialised size of the global checkpoint (traced runs, rank 0).
    pub checkpoint_bytes: usize,
    pub trace: Option<TraceCapture>,
}

/// Outcome of one run of a workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub ranks: Vec<RankOut>,
    pub steps: usize,
    pub regrids: usize,
}

impl RunResult {
    pub fn rank0(&self) -> &RankOut {
        &self.ranks[0]
    }

    /// Steps and regrids attempted, warm-up included.
    pub fn attempted(&self) -> usize {
        self.steps + self.regrids + WARMUP_STEPS + 1
    }

    /// Virtual makespan of the measured window per step, in ms: the
    /// slowest rank's clock at the window's end minus the slowest
    /// rank's clock at its start.
    pub fn virt_ms_per_step(&self) -> f64 {
        let max = |f: fn(&RankOut) -> f64| self.ranks.iter().map(f).fold(0.0, f64::max);
        (max(|r| r.clock_end.total()) - max(|r| r.clock_start.total())) * 1e3 / self.steps as f64
    }

    /// Per-category virtual seconds of the window, summed over ranks.
    pub fn virt_window(&self) -> TimeBreakdown {
        self.ranks
            .iter()
            .fold(TimeBreakdown::default(), |acc, r| acc.merged(&r.clock_end.since(&r.clock_start)))
    }

    /// Order-independent combination of the ranks' state digests.
    pub fn state_digest(&self) -> u64 {
        self.ranks.iter().fold(0u64, |acc, r| acc.wrapping_add(r.state_digest))
    }

    pub fn mass_drift(&self) -> f64 {
        let r = self.rank0();
        ((r.summary_end.mass - r.mass_start) / r.mass_start).abs()
    }

    /// The correctness verdicts; each entry counts as one failure.
    pub fn check_failures(&self) -> Vec<String> {
        let r0 = self.rank0();
        let mut out = Vec::new();
        let failed_ops = self.ranks.iter().map(|r| r.failed_ops).max().unwrap_or(0);
        for _ in 0..failed_ops {
            out.push("a step or regrid call returned Err".to_owned());
        }
        let non_finite: usize = self.ranks.iter().map(|r| r.non_finite).sum();
        let s = r0.summary_end;
        let summary_finite = [s.volume, s.mass, s.internal_energy, s.kinetic_energy, s.pressure]
            .iter()
            .all(|v| v.is_finite());
        if non_finite > 0 || !summary_finite {
            out.push(format!("non-finite dt ({non_finite} steps) or summary ({s:?})"));
        }
        let (drift, tol) = (self.mass_drift(), MASS_DRIFT_TOL_PER_STEP * self.steps as f64);
        if drift.is_nan() || drift > tol {
            out.push(format!(
                "relative mass drift {drift:.3e} > {tol:.1e} over {} steps",
                self.steps
            ));
        }
        if let Some(bad) = self.ranks.iter().position(|r| r.agreement != r0.agreement) {
            out.push(format!("rank {bad} disagrees with rank 0 on steps, time or level structure"));
        }
        if let Some(l1) = r0.sod_l1 {
            if l1.is_nan() || l1 > SOD_L1_TOL {
                out.push(format!("Sod L1 density error {l1:.3e} > {SOD_L1_TOL:.0e}"));
            }
        }
        out
    }
}

/// The `HydroConfig` of a workload: explicit regridding and the patch
/// size, nothing else.
fn config(w: &Workload) -> HydroConfig {
    let mut config =
        HydroConfig { regrid_interval: 0, max_patch_size: w.max_patch, ..HydroConfig::default() };
    config.regrid.max_patch_size = w.max_patch;
    config
}

fn new_sim(w: &Workload, deck: &Deck, comm: &Comm) -> HydroSim {
    HydroSim::new(
        (w.machine)(),
        w.placement,
        comm.clock().clone(),
        deck.extent,
        deck.cells,
        deck.max_levels,
        2,
        config(w),
        deck.regions.clone(),
        comm.rank(),
        comm.size(),
    )
}

/// A single-rank job runs without a communicator, as the production
/// driver (`examples/cleverleaf.rs`) does.
fn comm_opt(comm: &Comm) -> Option<&Comm> {
    (comm.size() > 1).then_some(comm)
}

/// Set a workload up and tear it down again: deck parse, rank spawn,
/// `HydroSim::new` and `initialize`. Returns rank 0's wall nanoseconds
/// from the start to the end of `initialize`.
pub fn setup_only(w: &Workload, deck_text: &str) -> f64 {
    let start = Instant::now();
    let deck = parse_deck(deck_text).expect("generated deck parses");
    let cluster = Cluster::new((w.machine)());
    let results = cluster.run(w.ranks, |comm| {
        let mut sim = new_sim(w, &deck, &comm);
        sim.initialize(comm_opt(&comm));
        start.elapsed().as_nanos() as f64
    });
    results[0].value
}

/// Process CPU time (user + system, all threads) in nanoseconds, from
/// `/proc/self/stat`; 0 where that is unreadable.
fn process_cpu_ns() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the line, in clock ticks of 10 ms.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 1e7
}

/// System-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`; zeros where that is unreadable.
fn system_jiffies() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return (0.0, 0.0) };
    let Some(line) = stat.lines().next() else { return (0.0, 0.0) };
    let v: Vec<f64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    (v.get(7).copied().unwrap_or(0.0), v.iter().take(8).sum())
}

/// Run one workload through the whole protocol and record its spans in
/// `log`. With `traced`, every rank attaches a telemetry `Recorder`
/// before `initialize`, and the run ends with a timed `summary`,
/// checkpoint save and checkpoint restore.
pub fn run(
    w: &Workload,
    generated: &GeneratedDeck,
    cycles: usize,
    traced: bool,
    log: &mut SpanLog,
) -> RunResult {
    let origin = log.origin();
    let now = move || origin.elapsed().as_nanos() as u64;
    let start = now();
    let deck =
        log.scope("parse_deck", |_| parse_deck(&generated.text).expect("generated deck parses"));
    let cluster = Cluster::new((w.machine)());
    let results = log.scope("Cluster::run", |_| {
        cluster.run(w.ranks, |mut comm| {
            rank_main(w, generated, &deck, cycles, traced, &mut comm, start, &now)
        })
    });
    let ranks: Vec<RankOut> = results.into_iter().map(|r| r.value).collect();

    let parent = log.spans().len() - 1;
    let r0 = &ranks[0];
    for &(name, s, e) in &r0.spans {
        log.record(name, s, e, Some(parent));
    }
    for &(kind, s, dur) in &r0.wall.ops {
        let name = if kind == OpKind::Step { "step" } else { "regrid" };
        log.record(name, s, s + dur as u64, Some(parent));
    }
    RunResult { ranks, steps: cycles * w.regrid_every, regrids: cycles }
}

#[allow(clippy::too_many_arguments)]
fn rank_main(
    w: &Workload,
    generated: &GeneratedDeck,
    deck: &Deck,
    cycles: usize,
    traced: bool,
    comm: &mut Comm,
    start: u64,
    now: &(impl Fn() -> u64 + Sync),
) -> RankOut {
    let rank0 = comm.rank() == 0;
    let recorder = traced.then(|| Recorder::new(comm.rank(), comm.clock().clone()));
    if let Some(rec) = &recorder {
        comm.set_recorder(rec.clone());
    }
    let mut spans = Vec::new();
    let t = now();
    let mut sim = new_sim(w, deck, comm);
    spans.push(("HydroSim::new", t, now()));
    if let Some(rec) = &recorder {
        sim.set_recorder(rec.clone());
    }
    let comm_opt = comm_opt(comm);
    let t = now();
    sim.initialize(comm_opt);
    let setup_end = now();
    spans.push(("initialize", t, setup_end));

    let mut failed_ops = 0usize;
    let mut non_finite = 0usize;
    for _ in 0..WARMUP_STEPS {
        failed_ops += usize::from(sim.try_step_capped(comm_opt, None).is_err());
    }
    failed_ops += usize::from(sim.try_regrid(comm_opt).is_err());

    let mass_start = sim.summary(comm_opt).mass;
    let clock_start = sim.clock().snapshot();
    let capture_start = recorder.as_ref().map(|r| (r.counters(), r.spans().len()));

    let mut wall = WallSamples::default();
    let mut tally = RegridTally::default();
    let mut cal = Cal::new();
    let (cpu0, (steal0, total0)) = (process_cpu_ns(), system_jiffies());
    let window_start = Instant::now();
    for _ in 0..cycles {
        for _ in 0..w.regrid_every {
            if rank0 {
                wall.cal_ns.push(cal.run_ns());
            }
            let (t, timer) = (now(), Instant::now());
            let stepped = sim.try_step_capped(comm_opt, None);
            if rank0 {
                wall.ops.push((OpKind::Step, t, timer.elapsed().as_nanos() as f64));
            }
            match stepped {
                Ok(stats) => {
                    non_finite += usize::from(!stats.dt.is_finite() || stats.dt <= 0.0);
                    wall.cell_updates += stats.total_cells as f64;
                }
                Err(_) => failed_ops += 1,
            }
        }
        if rank0 {
            wall.cal_ns.push(cal.run_ns());
        }
        let (t, timer) = (now(), Instant::now());
        let regridded = sim.try_regrid(comm_opt);
        if rank0 {
            wall.ops.push((OpKind::Regrid, t, timer.elapsed().as_nanos() as f64));
        }
        match regridded {
            Ok(outcome) => {
                tally.regrids += 1;
                // Level 0 is never regridded.
                tally.levels_seen += outcome.num_levels.saturating_sub(1) as u64;
                tally.levels_unchanged +=
                    outcome.levels_changed.iter().skip(1).filter(|c| !**c).count() as u64;
                tally.patches_after += (0..sim.hierarchy().num_levels())
                    .map(|l| sim.hierarchy().level(l).num_patches() as u64)
                    .sum::<u64>();
            }
            Err(_) => failed_ops += 1,
        }
    }
    wall.window_ns = window_start.elapsed().as_nanos() as f64;
    let (cpu1, (steal1, total1)) = (process_cpu_ns(), system_jiffies());
    wall.cpu_ns = cpu1 - cpu0;
    wall.steal_jiffies = steal1 - steal0;
    wall.total_jiffies = total1 - total0;

    let clock_end = sim.clock().snapshot();
    let device_end = sim.device().map(|d| d.stats());
    let trace =
        recorder.zip(capture_start).map(|(recorder, (counters_start, spans_start))| TraceCapture {
            counters_end: recorder.counters(),
            recorder,
            counters_start,
            spans_start,
            device_end,
        });
    let t = now();
    let summary_end = sim.summary(comm_opt);
    spans.push(("summary", t, now()));
    let state_digest = sim.state_field_digest();
    let h = sim.hierarchy();
    let mut agreement = vec![sim.steps_taken() as u64, sim.time().to_bits()];
    agreement.extend((0..h.num_levels()).map(|l| h.structure_digest(l)));
    let sod_l1 = (w.problem == Problem::Sod && comm.size() == 1).then(|| {
        // Map the jittered deck back onto the canonical Sod problem:
        // interface to x = 0.5, time scaled by sqrt(energy factor).
        let profile: Vec<(f64, f64)> = sim
            .density_profile()
            .into_iter()
            .map(|(x, rho)| (x - generated.x0 + 0.5, rho))
            .collect();
        rbamr_problems::sod::sod_l1_error(&profile, sim.time() * generated.energy_scale.sqrt())
    });
    let level_boxes = if rank0 {
        (0..h.num_levels())
            .map(|l| h.level(l).records().iter().map(|(_, b, _)| b).collect())
            .collect()
    } else {
        Vec::new()
    };
    let schedule_cache_entries = sim.schedule_cache().len();
    let batch_plan_builds = sim.batch_plans().builds();

    // Checkpoint probes ride on the traced run: every rank takes part
    // in the global save and restore, rank 0 times them.
    let mut checkpoint_bytes = 0;
    if traced {
        let t = now();
        let saved = sim.try_save_checkpoint(comm_opt);
        spans.push(("checkpoint-save", t, now()));
        match saved {
            Ok(db) => {
                checkpoint_bytes = db.to_bytes().len();
                let t = now();
                failed_ops += usize::from(sim.try_restore_checkpoint(&db, comm_opt).is_err());
                spans.push(("checkpoint-restore", t, now()));
            }
            Err(_) => failed_ops += 1,
        }
    }
    if !rank0 {
        spans.clear();
    }
    RankOut {
        setup_ns: (setup_end - start) as f64,
        wall,
        spans,
        clock_start,
        clock_end,
        failed_ops,
        non_finite,
        mass_start,
        summary_end,
        agreement,
        state_digest,
        sod_l1,
        regrid: tally,
        level_boxes,
        schedule_cache_entries,
        batch_plan_builds,
        checkpoint_bytes,
        trace,
    }
}
