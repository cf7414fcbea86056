//! Explains the difference between two metric files by layer.
//!
//! ```text
//! cargo run --release -p rbamr-bench --bin report -- diff BENCH_perf_gate.json perf_gate_current.json
//! cargo run --release -p rbamr-bench --bin report -- diff parent.json change.json   # rbamr_bench --json
//! ```
//!
//! Prints the keys moved, added and removed, the bucket identity of
//! each side (per deck and rank count, Σ buckets = ranks × makespan),
//! the moved keys per combo and per (layer, kind), the launch counters
//! per kernel, and every move ranked by relative size with the rank
//! counts it moved at. Exit status 2 on a usage, parse or write error,
//! 1 when a side's bucket identity fails, 0 otherwise; a reader that
//! closes the pipe (`| head`) ends the output quietly.

use rbamr_bench::report::{diff, parse, write_report, Metrics};
use std::process::ExitCode;

fn load(path: &str) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, a, b] = args.as_slice() else {
        eprintln!("usage: report diff <before.json> <after.json>");
        return ExitCode::from(2);
    };
    if cmd != "diff" {
        eprintln!("report: unknown command {cmd:?} (only `diff`)");
        return ExitCode::from(2);
    }
    let (before, after) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report: {e}");
            return ExitCode::from(2);
        }
    };
    let d = diff(&before, &after);
    if let Err(e) = write_report(&mut std::io::stdout().lock(), a, b, &d) {
        eprintln!("report: {e}");
        return ExitCode::from(2);
    }
    if d.identity.0.holds() && d.identity.1.holds() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
