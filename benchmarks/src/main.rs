//! `rbamr_bench` — the repository's benchmark.
//!
//! Four workloads drive the simulator through its public APIs and
//! report host time (calibrated), virtual time (the modelled machine)
//! and per-layer cost. See `README.md` beside this package for the
//! protocol and `BENCHMARK.json` at the repository root for the
//! contract the numbers are judged by.
//!
//! ```text
//! rbamr_bench --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with telemetry
//! off. `--trace 1` runs the workload untraced and traced over a
//! shorter window, adds the wall probes, prints every per-layer metric
//! and writes the span file `out/<workload>.trace.json`. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod calib;
mod decks;
mod layers;
mod metrics;
mod probes;
mod run;
mod spans;

use calib::{median, norm_ms_per_op, percentile, Cal, NOMINAL_CAL_MS};
use decks::{GeneratedDeck, Workload, WORKLOADS};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{OpKind, RunResult};
use spans::{json_escape, SpanLog};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Default measured seconds; `BENCHMARK.json` passes the same value.
const RUN_SECONDS: u32 = 20;
/// Set-ups per run, the measured run's own included: at least the
/// first number, then more while they have taken less than
/// `SETUP_BUDGET_S` in total, up to the second. `setup_s` is their
/// median.
const SETUP_REPS: (usize, usize) = (5, 25);
const SETUP_BUDGET_S: f64 = 1.5;
/// `CAL` runs bracketing every set-up.
const SETUP_CAL_RUNS: usize = 8;
/// Share of `--seconds` each of the two runs of `--trace 1` measures.
const TRACE_WINDOW_SHARE: f64 = 0.15;
/// A window is noisy, and measured once more, when its `CAL` samples
/// spread (p90 / p10) beyond this factor or the hypervisor stole more
/// than this share of CPU time.
const NOISY_CALIB_SPREAD: f64 = 4.0;
const NOISY_STEAL_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rbamr_bench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--json" => args.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && decks::workload(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// `BENCHMARK.json`, generated from the code so the two cannot drift
/// (a test compares the committed file with this text).
fn benchmark_json() -> String {
    // Regression bounds: the share of the parent's median a metric may
    // worsen by. README.md gives the measured spreads behind them.
    let bound = |name: &str| if name == "peak_rss_mib" { 0.2 } else { 0.25 };
    let metric_rows = |defs: &[MetricDef], with_bound: bool| -> String {
        let rows: Vec<String> = defs
            .iter()
            .map(|m| {
                let bound = if with_bound {
                    format!(", \"bound\": {}", bound(m.name))
                } else {
                    String::new()
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect();
        rows.join(",\n")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, json_escape(w.why)))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmarks/Cargo.toml\", \"--bin\", \"rbamr_bench\", \"--\"],\n  \"paths\": [\"benchmarks\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metric_rows(&END_TO_END, true),
        metric_rows(&PER_LAYER, false),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-time figures of one run's measured window.
struct WindowStats {
    norm_ms_per_step: f64,
    norm_step_ms: f64,
    norm_regrid_ms: f64,
    calib_spread: f64,
    steal_share: f64,
}

fn window_stats(r: &RunResult) -> WindowStats {
    let wall = &r.rank0().wall;
    let (steps, regrids) = (wall.durations(OpKind::Step), wall.durations(OpKind::Regrid));
    let all: Vec<f64> = wall.ops.iter().map(|(_, _, d)| *d).collect();
    let norm = |work: &[f64], ops: usize| norm_ms_per_op(work, &wall.cal_ns, ops).unwrap_or(0.0);
    let p = |q| percentile(&wall.cal_ns, q).unwrap_or(0.0);
    WindowStats {
        norm_ms_per_step: norm(&all, steps.len()),
        norm_step_ms: norm(&steps, steps.len()),
        norm_regrid_ms: norm(&regrids, regrids.len()),
        calib_spread: p(0.9) / p(0.1).max(1.0),
        steal_share: wall.steal_jiffies / wall.total_jiffies.max(1.0),
    }
}

/// The `harness.*` noise evidence of an untraced run.
fn harness_metrics(
    w: &Workload,
    r: &RunResult,
    s: &WindowStats,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let wall = &r.rank0().wall;
    let (steps, regrids) = (wall.durations(OpKind::Step), wall.durations(OpKind::Regrid));
    let ms = |v: Option<f64>| v.unwrap_or(0.0) / 1e6;
    let total: f64 = wall.ops.iter().map(|(_, _, d)| *d).sum();
    out.insert("harness.raw_wall_ms_per_step", total / 1e6 / r.steps as f64);
    out.insert("harness.step_ms_p50", ms(median(&steps)));
    out.insert("harness.step_ms_p90", ms(percentile(&steps, 0.9)));
    out.insert("harness.regrid_ms_p50", ms(median(&regrids)));
    out.insert("harness.calib_ms_p50", ms(median(&wall.cal_ns)));
    out.insert("harness.calib_ms_min", ms(percentile(&wall.cal_ns, 0.0)));
    out.insert("harness.calib_spread", s.calib_spread);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(w.ranks);
    out.insert("harness.cpu_util", wall.cpu_ns / wall.window_ns / workers as f64);
    out.insert("harness.steal_share", s.steal_share);
    out.insert("harness.mcell_updates_per_s", wall.cell_updates / 1e6 / (wall.window_ns / 1e9));
}

/// Everything a finished invocation reports.
struct Report {
    metrics: Vec<(MetricDef, f64)>,
    attempted: usize,
    failures: Vec<String>,
}

/// Run the measured protocol once; when the window was noisy, once
/// more, and report the second.
fn measure(
    w: &Workload,
    deck: &GeneratedDeck,
    cycles: usize,
    log: &mut SpanLog,
    notes: &mut Vec<String>,
) -> (RunResult, WindowStats) {
    let first = run::run(w, deck, cycles, false, log);
    let stats = window_stats(&first);
    if stats.calib_spread <= NOISY_CALIB_SPREAD && stats.steal_share <= NOISY_STEAL_SHARE {
        return (first, stats);
    }
    notes.push(format!(
        "noisy window (calib_spread {:.2}, steal_share {:.3}): measured once more",
        stats.calib_spread, stats.steal_share
    ));
    let second = run::run(w, deck, cycles, false, log);
    let stats = window_stats(&second);
    (second, stats)
}

/// `--trace 0`: the end-to-end metrics, telemetry off.
fn end_to_end(w: &Workload, args: &Args, log: &mut SpanLog, notes: &mut Vec<String>) -> Report {
    let deck = decks::generate(w, args.seed);
    let mut cal = Cal::new();
    let mut cal_mean =
        move || (0..SETUP_CAL_RUNS).map(|_| cal.run_ns()).sum::<f64>() / SETUP_CAL_RUNS as f64;
    // Nominal-speed seconds of a set-up that took `ns` between two CAL
    // means, like every other host-time metric.
    let norm_s = |ns: f64, before: f64, after: f64| {
        ns / 1e9 * NOMINAL_CAL_MS * 1e6 / (0.5 * (before + after))
    };

    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut before = cal_mean();
    let budget = Instant::now();
    while setups.len() + 1 < SETUP_REPS.0
        || (setups.len() + 1 < SETUP_REPS.1 && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let ns = log.scope("setup", |_| run::setup_only(w, &deck.text));
        let after = cal_mean();
        setups_raw.push(ns / 1e9);
        setups.push(norm_s(ns, before, after));
        before = after;
    }
    let (r, stats) = measure(w, &deck, w.cycles(args.seconds), log, notes);
    setups_raw.push(r.rank0().setup_ns / 1e9);
    setups.push(norm_s(r.rank0().setup_ns, before, cal_mean()));

    let wall = &r.rank0().wall;
    notes.push(format!(
        "samples: {} steps, {} regrids, {} CAL runs, {} set-ups; window {:.2} s wall; raw set-up median {:.4} s",
        r.steps,
        r.regrids,
        wall.cal_ns.len(),
        setups.len(),
        wall.window_ns / 1e9,
        median(&setups_raw).unwrap_or(0.0),
    ));
    notes.push(format!(
        "final state digest {:016x} (information, not gated); mass drift {:.3e}{}",
        r.state_digest(),
        r.mass_drift(),
        r.rank0().sod_l1.map_or(String::new(), |l1| format!("; Sod L1 error {l1:.3e}")),
    ));
    let mut harness = BTreeMap::new();
    harness_metrics(w, &r, &stats, &mut harness);
    for (name, v) in &harness {
        notes.push(format!("{name} = {v}"));
    }
    let values = [
        stats.norm_ms_per_step,
        stats.norm_step_ms,
        stats.norm_regrid_ms,
        r.virt_ms_per_step(),
        peak_rss_mib(),
        median(&setups).unwrap_or(0.0),
    ];
    Report {
        metrics: END_TO_END.iter().copied().zip(values).collect(),
        attempted: r.attempted(),
        failures: r.check_failures(),
    }
}

/// `--trace 1`: an untraced and a traced run of the same shorter
/// window, then the wall probes; every per-layer metric.
fn per_layer(w: &Workload, args: &Args, log: &mut SpanLog, notes: &mut Vec<String>) -> Report {
    let deck = decks::generate(w, args.seed);
    let cycles = w.cycles(args.seconds * TRACE_WINDOW_SHARE);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (untraced, stats) = log.scope("untraced-run", |log| measure(w, &deck, cycles, log, notes));
    harness_metrics(w, &untraced, &stats, &mut out);
    let traced = log.scope("traced-run", |log| run::run(w, &deck, cycles, true, log));
    let traced_norm = window_stats(&traced).norm_ms_per_step;
    out.insert("telemetry.overhead_share", traced_norm / stats.norm_ms_per_step - 1.0);
    let analyze_ms = log.scope("telemetry::analyze", |_| layers::traced_metrics(&traced, &mut out));
    out.insert("telemetry.analyze_ms", analyze_ms);

    let mut failures = untraced.check_failures();
    failures.extend(traced.check_failures());
    // Tracing must not perturb the model or the physics.
    let (a, b) = (untraced.virt_ms_per_step(), traced.virt_ms_per_step());
    if a.to_bits() != b.to_bits() {
        failures.push(format!("virt_ms_per_step differs: untraced {a}, traced {b}"));
    }
    if untraced.state_digest() != traced.state_digest() {
        failures.push("state digest differs between the untraced and the traced run".to_owned());
    }
    notes.push(format!(
        "samples: {} steps, {} regrids per run; virt_ms_per_step {a} untraced, {b} traced; norm_ms_per_step {:.3} untraced, {traced_norm:.3} traced",
        traced.steps, traced.regrids, stats.norm_ms_per_step,
    ));

    // Single wall samples rank 0 took at the end of the traced run.
    let r0 = traced.rank0();
    let span_ms = |name: &str| {
        r0.spans.iter().find(|(n, _, _)| *n == name).map_or(0.0, |(_, s, e)| (e - s) as f64 / 1e6)
    };
    out.insert("hydro.checkpoint_save_ms", span_ms("checkpoint-save"));
    out.insert("hydro.checkpoint_restore_ms", span_ms("checkpoint-restore"));
    out.insert("hydro.summary_ms", span_ms("summary"));
    out.insert("hydro.checkpoint_mib", r0.checkpoint_bytes as f64 / f64::from(1 << 20));

    notes.push(format!("peak RSS after the traced run {:.0} MiB", peak_rss_mib()));
    let level_boxes = r0.level_boxes.clone();
    let attempted = untraced.attempted() + traced.attempted();
    drop((untraced, traced)); // frees the recorders before the probes run
    log.scope("probes", |log| probes::run_probes(w, &deck.text, &level_boxes, log, &mut out));

    // Self time per span name: where this invocation's wall time went.
    let totals = log.totals();
    let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
    for (name, t) in &totals {
        if t.self_ns as f64 >= 0.01 * all_self as f64 {
            notes.push(format!(
                "span {name}: n={} total {:.1} ms, self {:.1} ms = {:.1}% of the invocation",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self as f64
            ));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = out.get(m.name).copied().unwrap_or_else(|| {
                failures.push(format!("metric {} was not produced", m.name));
                0.0
            });
            (*m, v)
        })
        .collect();
    Report { metrics, attempted, failures }
}

/// Run one workload in this process and print its report.
fn run_workload(w: &'static Workload, args: &Args, origin: Instant) -> ExitCode {
    let mut log = SpanLog::new(w.name, origin);
    let mut notes = Vec::new();
    let mut report = if args.trace {
        per_layer(w, args, &mut log, &mut notes)
    } else {
        end_to_end(w, args, &mut log, &mut notes)
    };
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", w.name));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.chrome_trace()))
        {
            Ok(()) => {
                notes.push(format!("{} spans written to {}", log.spans().len(), path.display()));
            }
            Err(e) => report.failures.push(format!("writing {}: {e}", path.display())),
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &notes {
        println!("  # {note}");
    }
    let mut fields = Vec::new();
    for (m, v) in &mut report.metrics {
        if !v.is_finite() {
            report.failures.push(format!("metric {} is not finite", m.name));
            *v = 0.0;
        }
        println!("  {} = {} {}{}", m.name, v, m.unit, if m.exact { " [T]" } else { "" });
        fields.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit));
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    let failed = report.failures.len();
    println!("  ops = {} count\n  failed = {failed} count", report.attempted);
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted.max(1),
        fields.join(", ")
    );
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("rbamr_bench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{json}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one fresh child process per workload, one after
/// the other, so peak RSS is per workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut worst = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(&rest)
            .status()
            .expect("spawn a child of this benchmark");
        if !status.success() {
            worst = ExitCode::FAILURE;
        }
    }
    worst
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-benchmark-json") {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbamr_bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the production defaults: no netsim knob.
    let knob = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RBAMR_NETSIM_"));
    if let Some((k, _)) = knob {
        eprintln!("rbamr_bench: refusing to run with {} set", k.to_string_lossy());
        return ExitCode::from(2);
    }
    match decks::workload(&args.workload) {
        Some(w) => run_workload(w, &args, origin),
        None => run_all(&argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let a = parse_args(&argv("--workload tp_r4_smallpatch --seed 7 --seconds 16 --trace 1"))
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tp_r4_smallpatch", 7, 16.0, true)
        );
        let a = parse_args(&argv("--workload all")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, f64::from(RUN_SECONDS), false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "regenerate with --emit-benchmark-json");
    }
}
