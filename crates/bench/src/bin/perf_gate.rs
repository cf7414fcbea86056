//! CI perf-regression gate: runs the Sod and triple-point decks at
//! 1/2/4 ranks with full telemetry, derives a flat metric set (step
//! makespan, causal attribution buckets, critical-path composition,
//! per-phase times, key counters), and compares it against the
//! committed baseline `BENCH_perf_gate.json` with per-metric
//! tolerances.
//!
//! All times are **virtual** (deterministic), so the gate is exact on
//! counters and tight (2%) on seconds, and the same source tree always
//! produces a byte-identical metrics file. No environment variable or
//! run-time option selects a code path the gate runs through, so the
//! baseline moves only with a source change, and a re-bless is always
//! reviewed as that change's key-level diff.
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin perf_gate              # compare
//! cargo run --release -p rbamr-bench --bin perf_gate -- --bless   # rewrite baseline
//! ```
//!
//! Flags:
//! * `--bless` — overwrite the baseline with the current metrics.
//! * `--baseline <path>` — baseline location (default
//!   `BENCH_perf_gate.json` in the working directory).
//! * `--json <path>` — also write the current metrics to `<path>`
//!   (CI artifact).
//! * `--trace <dir>` — write one Chrome trace per deck/rank combo to
//!   `<dir>` (message arrows render in Perfetto).
//!
//! Exit status 1 on regression or baseline mismatch.

use rbamr_bench::{path_arg, sod_config};
use rbamr_hydro::{HydroConfig, HydroSim, Placement};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::Machine;
use rbamr_problems::sod::sod_regions;
use rbamr_problems::triple_point::{triple_point_regions, TRIPLE_POINT_EXTENT};
use rbamr_telemetry::{analyze, chrome_trace, CausalAnalysis, MetricsSnapshot, Recorder};
use std::collections::BTreeMap;

/// Relative tolerance for virtual-seconds metrics. Counters are exact.
const SECONDS_TOL: f64 = 0.02;
/// Absolute floor below which seconds differences are noise.
const SECONDS_ABS_FLOOR: f64 = 1e-9;
const STEPS: usize = 4;

struct Combo {
    deck: &'static str,
    ranks: usize,
    recorders: Vec<Recorder>,
    analysis: CausalAnalysis,
}

fn run_combo(deck: &'static str, ranks: usize) -> Combo {
    let (machine, placement) = match deck {
        "sod" => (Machine::ipa_gpu(), Placement::Device),
        _ => (Machine::titan(), Placement::Device),
    };
    let cluster = Cluster::new(machine.clone());
    let results = cluster.run(ranks, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut sim = match deck {
            "sod" => {
                let mut config = sod_config(32);
                config.regrid_interval = 2;
                HydroSim::new(
                    machine.clone(),
                    placement,
                    comm.clock().clone(),
                    (1.0, 1.0),
                    (96, 96),
                    3,
                    2,
                    config,
                    sod_regions(),
                    comm.rank(),
                    comm.size(),
                )
            }
            _ => {
                let mut config = HydroConfig {
                    regrid_interval: 2,
                    max_patch_size: 16,
                    ..HydroConfig::default()
                };
                config.regrid.max_patch_size = 16;
                HydroSim::new(
                    machine.clone(),
                    placement,
                    comm.clock().clone(),
                    TRIPLE_POINT_EXTENT,
                    (70, 30),
                    3,
                    2,
                    config,
                    triple_point_regions(),
                    comm.rank(),
                    comm.size(),
                )
            }
        };
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        for _ in 0..STEPS {
            sim.step(Some(&comm));
        }
        rec
    });
    let recorders: Vec<Recorder> = results.into_iter().map(|r| r.value).collect();
    // Honesty checks before any number is reported: spans must cover
    // the clock, buckets must sum to the makespan.
    let snap = MetricsSnapshot::from_recorders(&recorders);
    assert!(
        snap.agreement_within(0.01),
        "{deck} r{ranks}: span-derived breakdown disagrees with the clock by more than 1%"
    );
    let analysis =
        analyze(&recorders).unwrap_or_else(|e| panic!("{deck} r{ranks}: causal DAG failed: {e}"));
    if std::env::var("PERF_GATE_DEBUG").is_ok() {
        let mut by_cat: BTreeMap<String, f64> = BTreeMap::new();
        for rec in &recorders {
            for e in rec.edges() {
                if e.name != "send" {
                    *by_cat.entry(format!("{:?}.{}", e.category, e.name)).or_insert(0.0) += e.cost;
                }
            }
        }
        println!("  {deck} r{ranks} recv/collective cost by category: {by_cat:?}");
    }
    for rb in &analysis.ranks {
        let err = (rb.buckets.total() - analysis.makespan).abs();
        assert!(
            err <= 1e-6 * analysis.makespan.max(1e-12),
            "{deck} r{ranks}: rank {} buckets do not sum to the makespan",
            rb.rank
        );
    }
    Combo { deck, ranks, recorders, analysis }
}

/// Flatten one combo into `prefix.metric -> value` entries.
fn collect_metrics(out: &mut BTreeMap<String, f64>, combo: &Combo) {
    let p = format!("{}.r{}", combo.deck, combo.ranks);
    let a = &combo.analysis;
    out.insert(format!("{p}.makespan_s"), a.makespan);
    let mut sum = [0.0f64; 4];
    for rb in &a.ranks {
        sum[0] += rb.buckets.compute;
        sum[1] += rb.buckets.exposed_comm;
        sum[2] += rb.buckets.late_sender_wait;
        sum[3] += rb.buckets.imbalance;
    }
    out.insert(format!("{p}.bucket.compute_s"), sum[0]);
    out.insert(format!("{p}.bucket.exposed_comm_s"), sum[1]);
    out.insert(format!("{p}.bucket.late_sender_wait_s"), sum[2]);
    out.insert(format!("{p}.bucket.imbalance_s"), sum[3]);
    out.insert(format!("{p}.critical_path.compute_s"), a.critical_path.compute);
    out.insert(format!("{p}.critical_path.comm_s"), a.critical_path.comm);
    out.insert(
        format!("{p}.counter.critical_path.cross_edges"),
        a.critical_path.cross_edges as f64,
    );
    // Phase breakdown: depth-1 spans, summed across ranks by name.
    let mut phases: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rec in &combo.recorders {
        for span in rec.spans() {
            if span.depth == 1 {
                *phases.entry(span.name).or_insert(0.0) += span.elapsed().total();
            }
        }
    }
    for (name, secs) in phases {
        out.insert(format!("{p}.phase.{name}_s"), secs);
    }
    // Counters: summed across ranks. Wall-clock counters (`*_ns`) are
    // excluded — they are not deterministic.
    let snap = MetricsSnapshot::from_recorders(&combo.recorders);
    for (name, v) in &snap.counters {
        if name.ends_with("_ns") {
            continue;
        }
        out.insert(format!("{p}.counter.{name}"), *v as f64);
    }
    // Where schedule memory is: the peak over ranks and build passes.
    // (Bytes are capacities — exact for one toolchain, so they compare
    // within the seconds tolerance, not as counters.)
    for (name, v) in snap.gauges.iter().filter(|(name, _)| name.starts_with("schedule.")) {
        out.insert(format!("{p}.gauge.{name}"), *v as f64);
    }
}

/// Serialise metrics as one-entry-per-line JSON (trivially diffable
/// and line-parseable; the workspace vendors no JSON crate).
fn metrics_to_json(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        if k.contains(".counter.") {
            out.push_str(&format!("\"{k}\": {}", *v as u64));
        } else {
            out.push_str(&format!("\"{k}\": {v:.9e}"));
        }
    }
    out.push_str("\n}\n");
    out
}

/// Parse the one-entry-per-line JSON written by [`metrics_to_json`].
fn parse_metrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (key, value) =
            line.split_once(':').ok_or_else(|| format!("baseline: malformed line {line:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("baseline: bad value on line {line:?}: {e}"))?;
        out.insert(key, value);
    }
    Ok(out)
}

enum Verdict {
    Ok,
    Improved { base: f64, now: f64 },
    Regressed { base: f64, now: f64 },
}

fn judge(key: &str, base: f64, now: f64) -> Verdict {
    if key.contains(".counter.") {
        if now == base {
            Verdict::Ok
        } else if now < base {
            Verdict::Improved { base, now }
        } else {
            Verdict::Regressed { base, now }
        }
    } else {
        let tol = (base.abs() * SECONDS_TOL).max(SECONDS_ABS_FLOOR);
        if now > base + tol {
            Verdict::Regressed { base, now }
        } else if now < base - tol {
            Verdict::Improved { base, now }
        } else {
            Verdict::Ok
        }
    }
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");
    let baseline_path =
        path_arg("--baseline").unwrap_or_else(|| std::path::PathBuf::from("BENCH_perf_gate.json"));

    let mut metrics = BTreeMap::new();
    let mut combos = Vec::new();
    for deck in ["sod", "triple_point"] {
        for ranks in [1usize, 2, 4] {
            println!("running {deck} at {ranks} rank(s)...");
            let combo = run_combo(deck, ranks);
            collect_metrics(&mut metrics, &combo);
            combos.push(combo);
        }
    }
    let json = metrics_to_json(&metrics);

    if let Some(dir) = path_arg("--trace") {
        std::fs::create_dir_all(&dir).expect("trace: create dir");
        for combo in &combos {
            let path = dir.join(format!("trace_{}_r{}.json", combo.deck, combo.ranks));
            std::fs::write(&path, chrome_trace(&combo.recorders)).expect("trace: write");
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = path_arg("--json") {
        std::fs::write(&path, &json).expect("metrics: write");
        println!("wrote {}", path.display());
    }

    if bless {
        std::fs::write(&baseline_path, &json).expect("baseline: write");
        println!("blessed baseline: {} ({} metrics)", baseline_path.display(), metrics.len());
        return;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "no baseline at {} ({e}); run with --bless to create one",
                baseline_path.display()
            );
            std::process::exit(1);
        }
    };
    let baseline = match parse_metrics(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for (key, &base) in &baseline {
        match metrics.get(key) {
            None => regressions.push(format!("{key}: present in baseline, missing from run")),
            Some(&now) => match judge(key, base, now) {
                Verdict::Ok => {}
                Verdict::Improved { base, now } => {
                    improvements.push(format!("{key}: {base:.6e} -> {now:.6e}"));
                }
                Verdict::Regressed { base, now } => {
                    regressions.push(format!("{key}: {base:.6e} -> {now:.6e}"));
                }
            },
        }
    }
    for key in metrics.keys() {
        if !baseline.contains_key(key) {
            regressions.push(format!("{key}: new metric not in baseline (bless to accept)"));
        }
    }

    println!("\nperf gate: {} metrics checked against {}", baseline.len(), baseline_path.display());
    if !improvements.is_empty() {
        println!("improvements ({}):", improvements.len());
        for line in &improvements {
            println!("  {line}");
        }
        println!("  (bless the baseline to lock these in)");
    }
    if regressions.is_empty() {
        println!("PASS: no regressions (seconds tolerance {:.0}%)", SECONDS_TOL * 100.0);
    } else {
        println!("FAIL: {} regression(s):", regressions.len());
        for line in &regressions {
            println!("  {line}");
        }
        std::process::exit(1);
    }
}
