#!/usr/bin/env bash
# A/A check: run the full benchmark twice on the same build, the second
# time with the workloads in reverse order, and fail if
#   - any end-to-end metric's two medians differ by more than its bound
#     in BENCHMARK.json, or
#   - virt_ms_per_step or any exact (T) count differs at all between
#     the two sets.
# Usage: benchmarks/aa_check.sh [seeds="1 2 3"] [seconds=run_seconds]
# Run from anywhere; needs cargo and python3. Paste the output into the
# description of a change that touches the benchmark.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seeds="${1:-1 2 3}"
seconds="${2:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
out="$here/out/aa"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bench="${CARGO_TARGET_DIR:-$here/target}/release/rbamr_bench"
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
reversed=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')

run_set() { # <set name> <workloads in order>
    local set="$1"
    shift
    for seed in $seeds; do
        for w in "$@"; do
            echo "set $set: $w seed $seed" >&2
            "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                >"$out/$set.$w.$seed.e2e.txt"
        done
    done
    # One traced run per workload (first seed) for the exact counts.
    for w in "$@"; do
        echo "set $set: $w traced" >&2
        "$bench" --workload "$w" --seed "${seeds%% *}" --seconds "$seconds" --trace 1 \
            >"$out/$set.$w.trace.txt"
    done
}

# shellcheck disable=SC2086
run_set A $workloads
# shellcheck disable=SC2086
run_set B $reversed

python3 - "$root/BENCHMARK.json" "$out" "$seeds" <<'PY'
import json, statistics, sys
from pathlib import Path

spec = json.load(open(sys.argv[1]))
out = Path(sys.argv[2])
seeds = sys.argv[3].split()
bad = 0

def result(path):
    return json.loads(path.read_text().strip().splitlines()[-1])

def exact_lines(path):
    """Metric lines the benchmark marks as repeating exactly: `name = value unit [T]`."""
    return {l.split(" = ")[0].strip(): l.split(" = ")[1] for l in path.read_text().splitlines()
            if l.rstrip().endswith("[T]")}

print(f"{'workload':18s} {'metric':18s} {'median A':>12s} {'median B':>12s} {'worse by':>9s} {'bound':>6s}")
for w in (x["name"] for x in spec["workloads"]):
    runs = {s: [result(out / f"{s}.{w}.{seed}.e2e.txt") for seed in seeds] for s in "AB"}
    for r in runs["A"] + runs["B"]:
        if not r["correct"]:
            print(f"FAIL {w}: a run reported failed={r['failed']}")
            bad += 1
    for m in spec["end_to_end"]:
        med = {s: statistics.median(r["metrics"][m["name"]]["value"] for r in runs[s]) for s in "AB"}
        sign = 1 if m["better"] == "lower" else -1
        worse = max(sign * (med["B"] - med["A"]) / med["A"], sign * (med["A"] - med["B"]) / med["B"])
        flag = "" if worse <= m["bound"] else "  FAIL"
        bad += bool(flag)
        print(f"{w:18s} {m['name']:18s} {med['A']:12.5g} {med['B']:12.5g} {worse*100:8.2f}% {m['bound']*100:5.0f}%{flag}")
    # virt_ms_per_step must repeat exactly, seed by seed.
    for a, b, seed in zip(runs["A"], runs["B"], seeds):
        va, vb = (r["metrics"]["virt_ms_per_step"]["value"] for r in (a, b))
        if va != vb:
            print(f"FAIL {w} seed {seed}: virt_ms_per_step {va} != {vb}")
            bad += 1
    ta, tb = (exact_lines(out / f"{s}.{w}.trace.txt") for s in "AB")
    diff = sorted(k for k in ta.keys() | tb.keys() if ta.get(k) != tb.get(k))
    for k in diff:
        print(f"FAIL {w}: exact metric {k}: {ta.get(k)} != {tb.get(k)}")
    bad += len(diff)
    print(f"{w:18s} {len(ta)} exact (T) metrics compared, {len(diff)} differ")
print("A/A check:", "PASS" if bad == 0 else f"FAIL ({bad})")
sys.exit(1 if bad else 0)
PY
