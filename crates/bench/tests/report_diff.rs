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

/// `dc95a01 → one-upload-per-pass`: a build pass's descriptor tables
/// cross PCIe in one upload, at its first fill, instead of one upload per
/// schedule. 121 keys moved and 12 were added: the H2D count fell at
/// every device combo and the two table keys appeared; no D2H, network,
/// pack / unpack or launch counter moved. The host row moved in its four
/// schedule counters only: construction and initialisation now plan the
/// start fill alone, so the first step builds what initialisation built
/// before — the host clock and traffic did not move.
#[test]
fn pass_table_rebless_is_fewer_uploads_and_no_other_traffic() {
    let d = pair("dc95a01", "one-upload-per-pass");
    assert_eq!((d.moved, d.added, d.removed), (121, 12, 0));
    let h2d = d.get("counter", "device.h2d_transfers").expect("moved");
    assert_eq!((h2d.layer, h2d.direction(), h2d.changed.len()), ("device", "down", 6));
    for (kind, name) in [("counter", "device.table_uploads"), ("gauge", "device.table_bytes")] {
        let m = d.get(kind, name).unwrap_or_else(|| panic!("{name} added"));
        assert_eq!((m.layer, m.direction(), m.changed.len()), ("device", "added", 6), "{name}");
    }
    let traffic = |name: &str| {
        ["device.kernel_launches", "device.d2h_", "net.", "pack.bytes", "unpack.bytes"]
            .iter()
            .any(|prefix| name.starts_with(prefix))
    };
    assert!(d.moves.iter().all(|m| !traffic(&m.name)), "traffic moved:\n{d}");
    let host: BTreeSet<&str> = d
        .moves
        .iter()
        .filter(|m| m.changed.iter().any(|(combo, ..)| combo.starts_with("triple_point_host")))
        .map(|m| m.name.as_str())
        .collect();
    let schedule = [
        "schedule.builds",
        "schedule.cache_hits",
        "schedule.cache_misses",
        "schedule.candidate_pairs",
    ];
    assert_eq!(host, BTreeSet::from(schedule));
}

/// `1b4600a → held-schedules`: a schedule is kept while the levels it
/// reads keep their structure digests, in place of the schedule cache.
/// Nothing moved: the cache's two counters and two gauges went
/// (`schedule.cache_misses` always equalled `schedule.builds`), and
/// `schedule.kept` and the `schedule.held_bytes` gauge came, on every
/// combo; `schedule.builds` and every device and network key, which
/// this pair's fixtures hold too, are string-equal.
#[test]
fn held_schedule_rebless_renames_the_schedule_keys_only() {
    let d = pair("1b4600a", "held-schedules");
    assert_eq!((d.moved, d.added, d.removed), (0, 14, 28));
    let named = |direction: &str| -> BTreeSet<(&str, &str)> {
        let moves = d.moves.iter().filter(|m| m.direction() == direction);
        moves.map(|m| (m.kind.as_str(), m.name.as_str())).collect()
    };
    let gone = [
        ("counter", "schedule.cache_hits"),
        ("counter", "schedule.cache_misses"),
        ("gauge", "schedule.cache_bytes"),
        ("gauge", "schedule.cache_entries"),
    ];
    assert_eq!(named("removed"), BTreeSet::from(gone));
    let new = [("counter", "schedule.kept"), ("gauge", "schedule.held_bytes")];
    assert_eq!(named("added"), BTreeSet::from(new));
    assert!(d.moves.iter().all(|m| (m.layer, m.changed.len()) == ("amr", 7)), "{d}");
    let untouched = |name: &str| -> Vec<String> {
        let path = format!("{}/tests/fixtures/report/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("fixture");
        let kept = |l: &&str| {
            [".counter.schedule.builds\"", ".device.", ".net."].iter().any(|k| l.contains(k))
        };
        text.lines().filter(kept).map(|l| l.trim_end_matches(',').to_string()).collect()
    };
    let before = untouched("1b4600a");
    assert!(before.len() > 7 * 3, "the fixture holds the untouched keys");
    assert_eq!(before, untouched("held-schedules"));
}

/// `31fec3f → in-order-device`: the simulated device runs every launch
/// in program order, so the stream/event protocol went. Nothing moved
/// and nothing came: the event and stream-wait counters went at r2 and
/// r4 of both device decks, every combo that had them (one rank never
/// splits a window, so it never waited), and every other device
/// counter, which this pair's fixtures hold too, is string-equal.
#[test]
fn in_order_device_rebless_removes_the_stream_counters_only() {
    let d = pair("31fec3f", "in-order-device");
    assert_eq!((d.moved, d.added, d.removed), (0, 0, 12));
    let gone: BTreeSet<&str> = d.moves.iter().map(|m| m.name.as_str()).collect();
    let expect =
        ["device.events_recorded", "device.stream_waits", "device.stream_waits.halo-exchange"];
    assert_eq!(gone, BTreeSet::from(expect));
    for m in &d.moves {
        assert_eq!((m.layer, m.direction(), m.changed.len()), ("device", "removed", 4), "{m:?}");
        assert_eq!(m.rank_pattern(), "all ranks", "{}", m.name);
    }
    let kept = |name: &str| -> Vec<String> {
        let path = format!("{}/tests/fixtures/report/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("fixture");
        let gone = |l: &&str| expect.iter().any(|k| l.contains(&format!(".{k}\"")));
        text.lines().filter(|l| !gone(l)).map(|l| l.trim_end_matches(',').to_string()).collect()
    };
    let before = kept("31fec3f");
    assert!(before.len() > 7 * 20, "the fixture holds the untouched device keys");
    assert_eq!(before, kept("in-order-device"));
}

/// `18bbe15 → one-send-launch`: a stage's local copies ride its pack
/// launch. 71 keys moved in place, at r2 and r4 only: `copy-region`
/// launches fell on both device decks (148 → 4 at triple_point r4; what
/// is left are stages that send nothing) and the total launches by
/// exactly as many; the makespans fell on every multi-rank row, the host
/// row's most (there a stage's copies and packs became one loop); and
/// `critical_path.cross_edges` rose on both r4 triple-point rows, since a
/// sync's message now leaves after its applies. No traffic key — PCIe
/// transfers and bytes, network counts and bytes, pack / unpack bytes
/// and launches, all of which this pair's fixtures hold — moved.
#[test]
fn send_stage_rebless_is_fewer_copy_launches_and_no_traffic() {
    let d = pair("18bbe15", "one-send-launch");
    assert_eq!((d.moved, d.added, d.removed), (71, 0, 0));
    let copies = launches(&d, "copy-region");
    assert_eq!((copies.layer, copies.direction()), ("gpu-amr", "down"));
    assert_eq!(copies.rank_pattern(), "r2/r4 only");
    assert!(copies.changed.contains(&("triple_point.r4".into(), Some(148.0), Some(4.0))));
    let total = d.get("counter", "device.kernel_launches").expect("moved");
    assert_eq!(total.changed.len(), copies.changed.len());
    for ((combo, before, after), (_, copied, left)) in total.changed.iter().zip(&copies.changed) {
        let fell = |a: &Option<f64>, b: &Option<f64>| a.unwrap() - b.unwrap();
        assert_eq!(fell(before, after), fell(copied, left), "{combo}");
    }
    let makespan = d.get("makespan", "makespan_s").expect("moved");
    assert_eq!((makespan.direction(), makespan.rank_pattern().as_str()), ("down", "r2/r4 only"));
    assert_eq!(makespan.changed.len(), 5);
    let edges = d.get("counter", "critical_path.cross_edges").expect("moved");
    assert_eq!((edges.direction(), edges.rank_pattern().as_str()), ("up", "r4 only"));
    assert!(d.moves.iter().all(|m| m.changed.iter().all(|(combo, ..)| !combo.ends_with(".r1"))));
    let traffic = |name: &str| -> Vec<String> {
        let path = format!("{}/tests/fixtures/report/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("fixture");
        let kept = |l: &&str| {
            let keys = [".device.h2d_", ".device.d2h_", ".net.", "pack.bytes\"", "pack\""];
            keys.iter().any(|k| l.contains(k))
        };
        text.lines().filter(kept).map(|l| l.trim_end_matches(',').to_string()).collect()
    };
    let before = traffic("18bbe15");
    assert!(before.len() > 7 * 10, "the fixture holds the traffic keys");
    assert_eq!(before, traffic("one-send-launch"));
}

/// `twenty-launches-parent → twenty-launches`: the step's last legal
/// launch groups merged (27 → 20 hydro launches per step where no
/// window splits) and one tagging pass per regrid. The pair holds every
/// bucket, makespan, critical-path, device, net and pack / unpack key
/// and three phases. 107 keys moved and 12 went, at every rank count:
/// `advec-ener-flux` and `reset-field` are gone (they ride
/// `advec-mass-flux` and the last `mom-vel-update`), `mom-flux` and
/// `mom-vel-update` halved, the three tag kernels fell to one launch
/// per regrid (7 → 4 on one rank: four regrids, three of which flagged
/// two levels), and the total launches fell by exactly those. D2H
/// transfers fell (the tag downloads) and allocations with the staging
/// the saves no longer need; the makespans fell on every row, the host
/// row's by its one tagging loop per regrid. No H2D, network or pack /
/// unpack key moved.
#[test]
fn twenty_launch_rebless_is_fewer_hydro_and_tag_launches_and_no_traffic() {
    let d = pair("twenty-launches-parent", "twenty-launches");
    assert_eq!((d.moved, d.added, d.removed), (107, 0, 12));
    for kernel in ["advec-ener-flux", "reset-field"] {
        let m = launches(&d, kernel);
        assert_eq!((m.layer, m.direction(), m.changed.len()), ("hydro", "removed", 6), "{kernel}");
    }
    for kernel in ["mom-flux", "mom-vel-update"] {
        let m = launches(&d, kernel);
        assert_eq!(m.changed.len(), 6, "{kernel}");
        for (combo, before, after) in &m.changed {
            assert_eq!(before.unwrap(), 2.0 * after.unwrap(), "{kernel} at {combo}");
        }
    }
    for kernel in ["flag-cells", "any-tagged", "compress-tags"] {
        let m = launches(&d, kernel);
        assert_eq!(
            (m.layer, m.direction(), m.rank_pattern().as_str()),
            ("tagging", "down", "all ranks")
        );
    }
    assert!(launches(&d, "flag-cells").changed.contains(&("sod.r1".into(), Some(7.0), Some(4.0))));
    let total = d.get("counter", "device.kernel_launches").expect("moved");
    assert_eq!(total.changed.len(), 6);
    for (combo, before, after) in &total.changed {
        let fell = |kernel: &str| {
            let m = launches(&d, kernel);
            let (_, a, b) = m.changed.iter().find(|(c, ..)| c == combo).expect("every combo");
            a.unwrap_or(0.0) - b.unwrap_or(0.0)
        };
        let kernels = ["advec-ener-flux", "reset-field", "mom-flux", "mom-vel-update"];
        let tags = ["flag-cells", "any-tagged", "compress-tags"];
        let merged: f64 = kernels.iter().chain(&tags).map(|k| fell(k)).sum();
        assert_eq!(before.unwrap() - after.unwrap(), merged, "{combo}");
    }
    for name in ["device.d2h_transfers", "device.allocs", "device.alloc_bytes"] {
        let m = d.get("counter", name).expect("moved");
        assert_eq!((m.direction(), m.changed.len()), ("down", 6), "{name}");
    }
    let makespan = d.get("makespan", "makespan_s").expect("moved");
    assert_eq!((makespan.direction(), makespan.changed.len()), ("down", 7));
    let host = d
        .moves
        .iter()
        .filter(|m| m.changed.iter().any(|(c, ..)| c.starts_with("triple_point_host")));
    assert!(host.clone().all(seconds), "the host row moves only seconds");
    let traffic = ["device.h2d_", "device.d2h_bytes", "net.", "pack.bytes", "unpack.bytes"];
    let moved = |m: &&Move| traffic.iter().any(|t| m.name.starts_with(t));
    assert_eq!(d.moves.iter().filter(moved).count(), 0, "a traffic key moved:\n{d}");
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

/// `perf_gate` reads its baseline with [`parse`]: a malformed file is an
/// error that says where, never a partial baseline.
#[test]
fn a_malformed_baseline_fails_with_a_message() {
    let good = "{\n\"sod.r1.counter.device.allocs\": 12,\n\"sod.r1.makespan_s\": 1.5e-3\n}\n";
    assert_eq!(parse(good).expect("parses").len(), 2);
    for (text, says) in [
        (good.replace(": 12", " 12"), "expected ':'"),
        (good.replace("12", "twelve"), "\"twelve\""),
        (good.replace("1.5e-3", "\"fast\""), "not a number"),
        (good.trim_end().trim_end_matches('}').to_string(), "expected ',' or '}'"),
        (format!("{good}x"), "trailing text"),
    ] {
        let err = parse(&text).expect_err("malformed");
        assert!(err.contains(says), "{err:?} does not say {says:?}");
    }
}
