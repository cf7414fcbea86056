//! Append one benchmark campaign to the committed trajectory,
//! `BENCH_rbamr.json` at the repository root: for every workload and
//! end-to-end metric of `BENCHMARK.json`, the median over the seeds of
//! the parent's runs and of the change's, and the change in per cent.
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin bench_trajectory -- \
//!     --runs <dir> --entry <label> [--out BENCH_rbamr.json]
//! ```
//!
//! `<dir>` holds the standard output of one `rbamr_bench --workload <w>
//! --seed <s> --trace 0` run per file, named `<arm>.<w>.<s>.txt` with
//! `<arm>` `parent` or `change` — or `<arm>.<w>.<s>.<n>.txt` for the
//! `n`-th run of a seed run more than once (`n` a number; other names
//! are skipped); only the last line, the run's JSON object, is read. A run that failed its checks stops the
//! tool. A `<arm>.<w>.<s>.trace.txt` file holds one `--trace 1` run, both
//! arms at one seed: its deterministic `[T]` counters follow the
//! workload's rows, one value per arm. The file is a JSON array with one
//! object per campaign and one line per (workload, metric), so a campaign
//! is a one-hunk diff.

use rbamr_bench::path_arg;
use std::collections::BTreeMap;

/// The end-to-end metrics, in `BENCHMARK.json`'s order.
const METRICS: [&str; 6] = [
    "norm_ms_per_step",
    "norm_step_ms",
    "norm_regrid_ms",
    "virt_ms_per_step",
    "peak_rss_mib",
    "setup_s",
];

/// `metric`'s value in the JSON object `rbamr_bench` prints last.
fn value(json: &str, metric: &str) -> f64 {
    let key = format!("\"{metric}\": {{\"value\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("no {metric} in {json:.80}")) + key.len();
    json[at..].split(',').next().and_then(|v| v.trim().parse().ok()).expect("a number")
}

/// The `name = value unit [T]` lines of a traced run's output.
fn traced(text: &str) -> Vec<(String, f64)> {
    let counter = |line: &str| {
        let (name, rest) = line.trim().strip_suffix("[T]")?.split_once(" = ")?;
        Some((name.to_owned(), rest.split_whitespace().next()?.parse().ok()?))
    };
    text.lines().filter_map(counter).collect()
}

/// One trajectory row.
fn row(workload: &str, metric: &str, p: f64, c: f64) -> String {
    let pct = if p == 0.0 { 0.0 } else { (c - p) / p * 100.0 };
    format!(
        "  {{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"parent\": {p:.6}, \
         \"change\": {c:.6}, \"change_pct\": {pct:.2}}}"
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

fn main() {
    let runs = path_arg("--runs").expect("usage: --runs <dir> --entry <label>");
    let entry = std::env::args().skip_while(|a| a != "--entry").nth(1).expect("--entry <label>");
    assert!(!entry.contains(['"', '\\']), "--entry: no quotes or backslashes");
    let out = path_arg("--out").unwrap_or_else(|| "BENCH_rbamr.json".into());

    // (workload, arm) -> one value list per metric; and the seeds seen.
    let mut values: BTreeMap<(String, String), [Vec<f64>; 6]> = BTreeMap::new();
    let mut seeds = Vec::new();
    // (workload, arm) -> the traced run's seed and counters.
    let mut traces = BTreeMap::new();
    for file in std::fs::read_dir(&runs).expect("--runs: not a directory") {
        let path = file.expect("--runs: unreadable entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let parts: Vec<&str> = name.strip_suffix(".txt").unwrap_or("").split('.').collect();
        let (arm, workload, seed) = match parts[..] {
            [arm @ ("parent" | "change"), w, s, "trace"] => {
                let text = std::fs::read_to_string(&path).expect("a traced run's output");
                let old =
                    traces.insert((w.to_owned(), arm.to_owned()), (s.to_owned(), traced(&text)));
                assert!(old.is_none(), "{w}: more than one traced {arm} run");
                continue;
            }
            [arm @ ("parent" | "change"), w, s] => (arm, w, s),
            [arm @ ("parent" | "change"), w, s, n] if n.parse::<u32>().is_ok() => (arm, w, s),
            _ => continue,
        };
        let text = std::fs::read_to_string(&path).expect("a run's output");
        let json = text.lines().last().unwrap_or("");
        let correct = json.contains("\"correct\": true");
        assert!(correct, "{}: the run failed its checks", path.display());
        let slot = values.entry((workload.into(), arm.into())).or_default();
        for (list, metric) in slot.iter_mut().zip(METRICS) {
            list.push(value(json, metric));
        }
        seeds.push(seed.parse::<u64>().expect("a numeric seed"));
    }
    seeds.sort_unstable();
    seeds.dedup();

    let mut rows = Vec::new();
    for ((workload, _), parent) in values.iter().filter(|((_, arm), _)| arm == "parent") {
        let change = values.get(&(workload.clone(), "change".into())).expect("both arms");
        assert_eq!(parent[0].len(), change[0].len(), "{workload}: the arms ran different seeds");
        for (k, metric) in METRICS.iter().enumerate() {
            rows.push(row(workload, metric, median(parent[k].clone()), median(change[k].clone())));
        }
        let trace = |arm: &str| traces.get(&(workload.clone(), arm.to_owned()));
        if let (Some((seed, parent)), Some((at, change))) = (trace("parent"), trace("change")) {
            assert_eq!(seed, at, "{workload}: the arms traced different seeds");
            for (metric, p) in parent {
                let c = change.iter().find(|(m, _)| m == metric).expect("traced in both arms").1;
                rows.push(row(workload, metric, *p, c));
            }
        }
    }
    let record = format!(
        "{{\"entry\": \"{entry}\", \"seeds\": {seeds:?}, \"rows\": [\n{}\n]}}",
        rows.join(",\n")
    );
    let old = std::fs::read_to_string(&out).unwrap_or_default();
    let text = match old.trim_end().strip_suffix(']') {
        Some(head) => format!("{},\n{record}\n]\n", head.trim_end()),
        None => format!("[\n{record}\n]\n"),
    };
    std::fs::write(&out, text).expect("--out: write");
    println!("{}: {} rows appended, seeds {seeds:?}", out.display(), rows.len());
}
