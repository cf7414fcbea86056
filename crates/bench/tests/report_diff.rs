//! `report diff` against re-blesses whose layer attribution was written
//! by hand in CHANGES.md. Each fixture pair is cut from the committed
//! `BENCH_perf_gate.json` of a commit and its parent: every key whose
//! (kind, name) differs in some deck/rank combo, at every combo, plus
//! every bucket and makespan key (for the identity).

use rbamr_bench::report::{diff, parse, Diff, Metrics, Move};
use std::collections::BTreeSet;

fn load(name: &str) -> Metrics {
    let path = format!("{}/tests/fixtures/report/{name}.json", env!("CARGO_MANIFEST_DIR"));
    parse(&std::fs::read_to_string(&path).expect("fixture")).expect("parses")
}

fn pair(before: &str, after: &str) -> Diff {
    let d = diff(&load(before), &load(after));
    assert!(d.identity.0.holds() && d.identity.1.holds(), "bucket identity:\n{d}");
    d
}

fn seconds(m: &Move) -> bool {
    matches!(m.kind.as_str(), "bucket" | "critical_path" | "makespan" | "phase")
}

fn launches<'a>(d: &'a Diff, kernel: &str) -> &'a Move {
    d.get("counter", &format!("device.kernel_launches.{kernel}")).expect("moved")
}

/// `69328b1 → 822686b`: the CPU build's one unpack loop per stage moved
/// 13 seconds keys and one counter, `critical_path.cross_edges` 37 → 35,
/// all in the `triple_point_host` row; no device key moved.
#[test]
fn host_unpack_rebless_is_the_host_row_only() {
    let d = pair("69328b1", "822686b");
    assert_eq!((d.moved, d.added, d.removed), (14, 0, 0));
    assert_eq!(d.by_combo().into_iter().collect::<Vec<_>>(), [("triple_point_host.r4", 14)]);
    let (counters, rest): (Vec<&Move>, Vec<&Move>) = d.moves.iter().partition(|m| !seconds(m));
    assert_eq!(rest.len(), 13);
    let [edges] = counters.as_slice() else { panic!("one counter: {counters:?}") };
    assert_eq!(edges.name, "critical_path.cross_edges");
    assert_eq!(edges.layer, "telemetry");
    assert_eq!(edges.changed, [("triple_point_host.r4".to_string(), Some(37.0), Some(35.0))]);
    assert!(d.moves.iter().all(|m| m.layer != "device" && m.rank_pattern() == "all ranks"));
    assert_eq!(d.get("makespan", "makespan_s").expect("moved").direction(), "down");
}

/// `2addc2e^ → 2addc2e`: one launch per fill stage, and a split only
/// where a peer sends. 125 keys: the four stage kernels down at every
/// rank count, the windowed hydro kernels down at r1 only (one rank no
/// longer splits), the r1 stream-wait and event counters gone, the
/// makespans down, and `cross_edges` up at r2/r4 only; no netsim or amr
/// counter and no `exposed_comm_s` moved.
#[test]
fn stage_fusion_rebless_is_gpu_amr_everywhere_and_hydro_at_one_rank() {
    let d = pair("2addc2e-parent", "2addc2e");
    assert_eq!((d.moved, d.added, d.removed), (119, 0, 6));
    for kernel in ["copy-region", "refine-interp", "coarsen-project", "physical-boundary"] {
        let m = launches(&d, kernel);
        assert_eq!((m.layer, m.direction(), m.changed.len()), ("gpu-amr", "down", 6), "{kernel}");
        assert_eq!(m.rank_pattern(), "all ranks", "{kernel}");
    }
    let hydro: Vec<&Move> =
        d.moves.iter().filter(|m| m.layer == "hydro" && m.kind == "counter").collect();
    assert_eq!(hydro.iter().map(|m| m.changed.len()).sum::<usize>(), 14);
    for m in hydro {
        assert_eq!((m.direction(), m.rank_pattern().as_str()), ("down", "r1 only"), "{}", m.name);
    }
    let gone: BTreeSet<&str> =
        d.moves.iter().filter(|m| m.direction() == "removed").map(|m| m.name.as_str()).collect();
    let expect =
        ["device.events_recorded", "device.stream_waits", "device.stream_waits.halo-exchange"];
    assert_eq!(gone, BTreeSet::from(expect));
    for m in d.moves.iter().filter(|m| m.direction() == "removed") {
        assert_eq!(m.rank_pattern(), "r1 only", "{}", m.name);
    }
    let makespan = d.get("makespan", "makespan_s").expect("moved");
    assert_eq!((makespan.direction(), makespan.changed.len()), ("down", 6));
    let edges = d.get("counter", "critical_path.cross_edges").expect("moved");
    assert_eq!((edges.direction(), edges.rank_pattern().as_str()), ("up", "r2/r4 only"));
    let layers = d.by_layer();
    assert!(!layers
        .keys()
        .any(|&(layer, kind)| kind == "counter" && ["netsim", "amr"].contains(&layer)));
    assert!(d.get("bucket", "exposed_comm_s").is_none());
}

/// `56e45c4^ → 56e45c4`, the hard case: one launch per hydro kernel per
/// pass for the whole hierarchy. 289 keys moved in place: every hydro
/// launch name, the D2H transfers, stream waits and events, the
/// collectives, the allocations and the makespans fell, while the
/// descriptor bytes (H2D and allocation), `h2d-copy_s` and
/// `regrid-phase_s` rose.
#[test]
fn per_hierarchy_launch_rebless_is_hydro_down_and_descriptor_bytes_up() {
    let d = pair("56e45c4-parent", "56e45c4");
    assert_eq!((d.moved, d.added, d.removed), (289, 6, 18));
    let hydro: Vec<&Move> =
        d.moves.iter().filter(|m| m.layer == "hydro" && m.kind == "counter").collect();
    assert_eq!(hydro.len(), 22);
    assert!(hydro.iter().all(|m| m.direction() == "down" && m.changed.len() == 6));
    let moved = |kind: &str, name: &str| {
        let m = d.get(kind, name).unwrap_or_else(|| panic!("{name} moved"));
        assert_eq!(m.rank_pattern(), "all ranks", "{name}");
        (m.layer, m.direction())
    };
    for name in ["device.h2d_bytes", "device.alloc_bytes"] {
        assert_eq!(moved("counter", name), ("device", "up"));
    }
    assert_eq!(moved("phase", "h2d-copy_s"), ("device", "up"));
    assert_eq!(moved("phase", "regrid-phase_s"), ("amr", "up"));
    for name in
        ["device.d2h_transfers", "device.stream_waits", "device.events_recorded", "device.allocs"]
    {
        assert_eq!(moved("counter", name), ("device", "down"));
    }
    assert_eq!(moved("counter", "net.collectives"), ("netsim", "down"));
    assert_eq!(moved("makespan", "makespan_s"), ("perfmodel", "down"));
}

/// A bucket that no longer adds up to ranks × makespan fails the
/// identity; an `rbamr_bench --json` output parses to its metrics.
#[test]
fn identity_failures_show_and_benchmark_outputs_parse() {
    let mut broken = load("822686b");
    *broken.get_mut("triple_point_host.r4.bucket.compute_s").expect("bucket") *= 1.01;
    let d = diff(&load("69328b1"), &broken);
    assert!(d.identity.0.holds() && !d.identity.1.holds());
    assert!(format!("{d}").contains("after: FAILS"));

    let bench = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {
        "virt_ms_per_step": {"value": 1.0137, "unit": "ms"},
        "hydro.kernel_launches_per_step": {"value": 228, "unit": "count"}}}"#;
    let after = bench.replace("1.0137", "0.9169").replace("228", "120");
    let d = diff(&parse(bench).expect("parses"), &parse(&after).expect("parses"));
    assert_eq!(
        (d.moved, d.moves[0].name.as_str(), d.moves[0].layer),
        (2, "hydro.kernel_launches_per_step", "hydro")
    );
    assert_eq!(d.get("metric", "virt_ms_per_step").expect("moved").layer, "end-to-end");
}
