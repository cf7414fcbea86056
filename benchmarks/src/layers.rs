//! (T) per-layer metrics: counts and virtual-time shares taken from a
//! traced run's recorders, device statistics, clocks and caches over
//! the measured window. All of them repeat exactly for a given seed.

use crate::run::{RunResult, TraceCapture};
use rbamr_perfmodel::Category;
use rbamr_telemetry::{analyze, Recorder};
use std::collections::BTreeMap;

/// Launch names of the data-movement kernels gpu-amr issues on behalf
/// of halo fills and regrid transfers.
const PACK_KERNELS: [&str; 3] = ["pack", "unpack", "copy-region"];
const INTERLEVEL_KERNELS: [&str; 3] = ["refine-interp", "extend-uncovered", "coarsen-project"];
const TAG_KERNELS: [&str; 3] = ["flag-cells", "compress-tags", "any-tagged"];
/// Launches that are neither hydro kernels nor counted above.
const OTHER_NON_HYDRO: [&str; 1] = ["physical-boundary"];

const MIB: f64 = 1024.0 * 1024.0;

/// Counter increments over the measured window, summed over ranks.
fn window_counters(captures: &[&TraceCapture]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for c in captures {
        for (name, end) in &c.counters_end {
            let start = c.counters_start.get(name).copied().unwrap_or(0);
            *out.entry(name.clone()).or_insert(0.0) += (end - start) as f64;
        }
    }
    out
}

/// Compute every (T) metric of a traced run into `out`. Returns the
/// wall milliseconds `telemetry::analyze` took.
pub fn traced_metrics(run: &RunResult, out: &mut BTreeMap<&'static str, f64>) -> f64 {
    let captures: Vec<&TraceCapture> =
        run.ranks.iter().map(|r| r.trace.as_ref().expect("traced run")).collect();
    let counters = window_counters(&captures);
    let get = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let launches_of = |names: &[&str]| -> f64 {
        names.iter().map(|n| get(&format!("device.kernel_launches.{n}"))).sum()
    };
    let steps = run.steps as f64;
    let regrids = run.regrids as f64;

    // perfmodel: where the window's virtual time went, by category.
    let virt = run.virt_window();
    let virt_total = virt.total().max(f64::MIN_POSITIVE);
    for (c, name) in [
        (Category::HydroKernel, "perfmodel.virt_share.hydro_kernel"),
        (Category::HaloExchange, "perfmodel.virt_share.halo_exchange"),
        (Category::Timestep, "perfmodel.virt_share.timestep"),
        (Category::Synchronize, "perfmodel.virt_share.synchronize"),
        (Category::Regrid, "perfmodel.virt_share.regrid"),
        (Category::Other, "perfmodel.virt_share.other"),
    ] {
        out.insert(name, virt.get(c) / virt_total);
    }

    // device
    let launches = get("device.kernel_launches");
    out.insert("device.launches_per_step", launches / steps);
    out.insert("device.allocs_per_step", get("device.allocs") / steps);
    out.insert("device.alloc_mib_per_step", get("device.alloc_bytes") / MIB / steps);
    out.insert("device.h2d_per_step", get("device.h2d_transfers") / steps);
    out.insert("device.d2h_per_step", get("device.d2h_transfers") / steps);
    out.insert("device.h2d_mib_per_step", get("device.h2d_bytes") / MIB / steps);
    out.insert("device.d2h_mib_per_step", get("device.d2h_bytes") / MIB / steps);
    let peak = captures
        .iter()
        .filter_map(|c| c.device_end.map(|d| d.peak_allocated_bytes))
        .max()
        .unwrap_or(0);
    out.insert("device.peak_mib", peak as f64 / MIB);

    // netsim
    out.insert("netsim.sends_per_step", get("net.sends") / steps);
    out.insert("netsim.send_kib_per_step", get("net.send_bytes") / 1024.0 / steps);
    out.insert("netsim.collectives_per_step", get("net.collectives") / steps);
    out.insert("netsim.collective_kib_per_step", get("net.collective_bytes") / 1024.0 / steps);

    // amr
    out.insert("amr.schedule_builds_per_regrid", get("schedule.builds") / regrids);
    let (hits, misses) = (get("schedule.cache_hits"), get("schedule.cache_misses"));
    out.insert("amr.schedule_cache_hit_rate", hits / (hits + misses).max(1.0));
    let entries = run.ranks.iter().map(|r| r.schedule_cache_entries).max().unwrap_or(0);
    out.insert("amr.schedule_cache_entries", entries as f64);
    out.insert(
        "amr.candidate_pairs_per_regrid",
        (get("schedule.candidate_pairs") + get("regrid.candidate_pairs")) / regrids,
    );
    let tally = run.rank0().regrid;
    out.insert(
        "amr.patches_final",
        run.rank0().level_boxes.iter().map(Vec::len).sum::<usize>() as f64,
    );
    out.insert("amr.patches_per_regrid", tally.patches_after as f64 / tally.regrids.max(1) as f64);
    out.insert(
        "amr.levels_unchanged_share",
        tally.levels_unchanged as f64 / tally.levels_seen.max(1) as f64,
    );
    out.insert("amr.refine_fills_per_step", get("amr.refine_fills") / steps);
    out.insert("amr.coarsen_syncs_per_step", get("amr.coarsen_syncs") / steps);

    // gpu-amr
    let pack = launches_of(&PACK_KERNELS);
    let interlevel = launches_of(&INTERLEVEL_KERNELS);
    let tags = launches_of(&TAG_KERNELS);
    out.insert("gpu-amr.pack_launches_per_step", pack / steps);
    out.insert("gpu-amr.interlevel_launches_per_step", interlevel / steps);
    out.insert("gpu-amr.data_movement_launch_share", (pack + interlevel) / launches.max(1.0));
    out.insert("gpu-amr.pack_kib_per_step", get("pack.bytes") / 1024.0 / steps);
    out.insert("gpu-amr.tag_launches_per_regrid", tags / regrids);
    out.insert(
        "gpu-amr.batchplan_builds",
        run.ranks.iter().map(|r| r.batch_plan_builds).sum::<u64>() as f64,
    );

    // hydro
    out.insert("hydro.cells_per_step", get("hydro.cells_advanced") / steps);
    let hydro_launches = launches - pack - interlevel - tags - launches_of(&OTHER_NON_HYDRO);
    out.insert("hydro.kernel_launches_per_step", hydro_launches / steps);

    // Spans of the window: phase shares (hydro) and volume (telemetry).
    let mut phase: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut window_spans = 0usize;
    for c in &captures {
        let spans = c.recorder.spans();
        window_spans += spans.len() - c.spans_start;
        for s in &spans[c.spans_start..] {
            // Phases are the children of a step; an explicit regrid is
            // a top-level span of its own.
            let is_phase = s.depth == 1 || (s.depth == 0 && s.name == "regrid");
            if is_phase {
                *phase.entry(s.name).or_insert(0.0) += s.elapsed().total();
            }
        }
    }
    for (span, name) in [
        ("fill-start", "hydro.virt_phase_share.fill-start"),
        ("lagrangian", "hydro.virt_phase_share.lagrangian"),
        ("advection", "hydro.virt_phase_share.advection"),
        ("synchronize", "hydro.virt_phase_share.synchronize"),
        ("dt-reduction", "hydro.virt_phase_share.dt-reduction"),
        ("regrid", "hydro.virt_phase_share.regrid"),
    ] {
        out.insert(name, phase.get(span).copied().unwrap_or(0.0) / virt_total);
    }
    out.insert("telemetry.spans_per_step", window_spans as f64 / steps);
    let edges = get("net.edge.sends") + get("net.edge.recvs") + get("net.edge.collectives");
    out.insert("telemetry.edges_per_step", edges / steps);

    // Causal attribution over the measured steps: what share of
    // rank-time was late-sender wait, exposed communication, imbalance.
    let recorders: Vec<Recorder> = captures.iter().map(|c| c.recorder.clone()).collect();
    let timer = std::time::Instant::now();
    let analysis = analyze(&recorders);
    let analyze_ms = timer.elapsed().as_secs_f64() * 1e3;
    let (mut late, mut exposed, mut imbalance, mut total) = (0.0, 0.0, 0.0, 0.0);
    if let Ok(a) = &analysis {
        let first_measured = (crate::decks::WARMUP_STEPS) as i64;
        for step in a.steps.iter().filter(|s| s.step >= first_measured) {
            for (_, b) in &step.ranks {
                late += b.late_sender_wait;
                exposed += b.exposed_comm;
                imbalance += b.imbalance;
                total += b.total();
            }
        }
    }
    let total = total.max(f64::MIN_POSITIVE);
    out.insert("netsim.virt_late_wait_share", late / total);
    out.insert("netsim.virt_exposed_comm_share", exposed / total);
    out.insert("netsim.virt_imbalance_share", imbalance / total);
    analyze_ms
}
