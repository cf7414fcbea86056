//! The names, units and directions of every metric the benchmark
//! reports. `BENCHMARK.json` lists the same names (a test compares the
//! two), and later changes are judged by them, so they are normative.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// A (T) value: a count or a virtual-time share that repeats
    /// exactly for a given seed. Printed with a `[T]` mark, which
    /// `aa_check.sh` compares verbatim between two sets of runs.
    pub exact: bool,
}

impl MetricDef {
    const fn exact(mut self) -> Self {
        self.exact = true;
        self
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower", exact: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher", exact: false }
}

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    lower("norm_ms_per_step", "ms"),
    lower("norm_step_ms", "ms"),
    lower("norm_regrid_ms", "ms"),
    lower("virt_ms_per_step", "ms"),
    lower("peak_rss_mib", "MiB"),
    lower("setup_s", "s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). (T) values
/// come from the traced run's recorders and repeat exactly; (P) values
/// are calibrated wall probes. Counts per step or per regrid are job
/// totals over all ranks.
pub const PER_LAYER: [MetricDef; 101] = [
    // geometry (P)
    lower("geometry.boxindex_build_us", "us"),
    lower("geometry.boxindex_query_ns", "ns"),
    lower("geometry.boxlist_subtract_us", "us"),
    // perfmodel (P), (T)
    lower("perfmodel.clock_advance_ns", "ns"),
    higher("perfmodel.virt_share.hydro_kernel", "share").exact(),
    lower("perfmodel.virt_share.halo_exchange", "share").exact(),
    lower("perfmodel.virt_share.timestep", "share").exact(),
    lower("perfmodel.virt_share.synchronize", "share").exact(),
    lower("perfmodel.virt_share.regrid", "share").exact(),
    lower("perfmodel.virt_share.other", "share").exact(),
    // device (T), (P)
    lower("device.launches_per_step", "count").exact(),
    lower("device.allocs_per_step", "count").exact(),
    lower("device.alloc_mib_per_step", "MiB").exact(),
    lower("device.h2d_per_step", "count").exact(),
    lower("device.d2h_per_step", "count").exact(),
    lower("device.h2d_mib_per_step", "MiB").exact(),
    lower("device.d2h_mib_per_step", "MiB").exact(),
    lower("device.peak_mib", "MiB").exact(),
    lower("device.launch_overhead_ns", "ns"),
    lower("device.alloc_ns", "ns"),
    lower("device.h2d_us_per_mib", "us/MiB"),
    lower("device.d2h_us_per_mib", "us/MiB"),
    // netsim (T), (P)
    lower("netsim.sends_per_step", "count").exact(),
    lower("netsim.send_kib_per_step", "KiB").exact(),
    lower("netsim.collectives_per_step", "count").exact(),
    lower("netsim.collective_kib_per_step", "KiB").exact(),
    lower("netsim.virt_late_wait_share", "share").exact(),
    lower("netsim.virt_exposed_comm_share", "share").exact(),
    lower("netsim.virt_imbalance_share", "share").exact(),
    lower("netsim.cluster_spawn_ms", "ms"),
    lower("netsim.p2p_roundtrip_ns", "ns"),
    lower("netsim.allreduce_us", "us"),
    lower("netsim.allgatherv_us", "us"),
    lower("netsim.barrier_us", "us"),
    // amr (T), (P)
    lower("amr.schedule_builds_per_regrid", "count").exact(),
    higher("amr.schedule_cache_hit_rate", "share").exact(),
    lower("amr.schedule_cache_entries", "count").exact(),
    lower("amr.candidate_pairs_per_regrid", "count").exact(),
    lower("amr.patches_final", "count").exact(),
    lower("amr.patches_per_regrid", "count").exact(),
    higher("amr.levels_unchanged_share", "share").exact(),
    lower("amr.refine_fills_per_step", "count").exact(),
    lower("amr.coarsen_syncs_per_step", "count").exact(),
    lower("amr.schedule_build_ms", "ms"),
    lower("amr.fill_exec_ms", "ms"),
    lower("amr.coarsen_run_ms", "ms"),
    lower("amr.cluster_tags_ms", "ms"),
    lower("amr.partition_sfc_us", "us"),
    // gpu-amr (T), (P)
    lower("gpu-amr.pack_launches_per_step", "count").exact(),
    lower("gpu-amr.interlevel_launches_per_step", "count").exact(),
    lower("gpu-amr.data_movement_launch_share", "share").exact(),
    lower("gpu-amr.pack_kib_per_step", "KiB").exact(),
    lower("gpu-amr.tag_launches_per_regrid", "count").exact(),
    lower("gpu-amr.batchplan_builds", "count").exact(),
    lower("gpu-amr.pack_ns_per_overlap", "ns"),
    lower("gpu-amr.unpack_ns_per_overlap", "ns"),
    lower("gpu-amr.copy_region_ns", "ns"),
    lower("gpu-amr.refine_ns_per_cell", "ns"),
    lower("gpu-amr.coarsen_ns_per_cell", "ns"),
    lower("gpu-amr.compress_tags_us", "us"),
    // hydro (T), (P)
    lower("hydro.cells_per_step", "count").exact(),
    lower("hydro.kernel_launches_per_step", "count").exact(),
    lower("hydro.virt_phase_share.fill-start", "share").exact(),
    higher("hydro.virt_phase_share.lagrangian", "share").exact(),
    higher("hydro.virt_phase_share.advection", "share").exact(),
    lower("hydro.virt_phase_share.synchronize", "share").exact(),
    lower("hydro.virt_phase_share.dt-reduction", "share").exact(),
    lower("hydro.virt_phase_share.regrid", "share").exact(),
    lower("hydro.kernel_ns_per_cell.eos", "ns"),
    lower("hydro.kernel_ns_per_cell.viscosity", "ns"),
    lower("hydro.kernel_ns_per_cell.calc_dt", "ns"),
    lower("hydro.kernel_ns_per_cell.pdv", "ns"),
    lower("hydro.kernel_ns_per_cell.accelerate", "ns"),
    lower("hydro.kernel_ns_per_cell.flux_calc", "ns"),
    lower("hydro.kernel_ns_per_cell.advec_cell", "ns"),
    lower("hydro.kernel_ns_per_cell.advec_mom", "ns"),
    lower("hydro.kernel_ns_per_cell.flag_cells", "ns"),
    lower("hydro.kernels_ns_per_cell_p16", "ns"),
    lower("hydro.checkpoint_save_ms", "ms"),
    lower("hydro.checkpoint_restore_ms", "ms"),
    lower("hydro.checkpoint_mib", "MiB").exact(),
    lower("hydro.summary_ms", "ms"),
    // problems (P)
    lower("problems.parse_deck_us", "us"),
    // telemetry
    lower("telemetry.overhead_share", "share"),
    lower("telemetry.spans_per_step", "count").exact(),
    lower("telemetry.edges_per_step", "count").exact(),
    lower("telemetry.span_ns_enabled", "ns"),
    lower("telemetry.span_ns_disabled", "ns"),
    lower("telemetry.count_ns", "ns"),
    lower("telemetry.analyze_ms", "ms"),
    // fault (P)
    lower("fault.site_decision_ns", "ns"),
    // harness: noise evidence of the untraced run, never gated
    lower("harness.raw_wall_ms_per_step", "ms"),
    lower("harness.step_ms_p50", "ms"),
    lower("harness.step_ms_p90", "ms"),
    lower("harness.regrid_ms_p50", "ms"),
    lower("harness.calib_ms_p50", "ms"),
    lower("harness.calib_ms_min", "ms"),
    lower("harness.calib_spread", "ratio"),
    higher("harness.cpu_util", "share"),
    lower("harness.steal_share", "share"),
    higher("harness.mcell_updates_per_s", "Mcell/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
