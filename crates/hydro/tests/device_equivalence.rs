//! The device-equivalence layer: the device build (fused launches,
//! halo fills overlapped with interior compute) must be observationally
//! identical to the host build (plain calls, fill-then-compute). Both
//! run one transcription of the step (`level_executor`), so what the
//! comparison checks is the memory-space arm and the overlapped
//! interior/boundary order; the region and field lists themselves are
//! pinned by the frozen absolute digests below.
//!
//! Property-tests random hierarchy configurations (deck, rank count,
//! grid size) and asserts, per rank and per step:
//!
//! * the device run's `state_field_digest`, and its final `summary`
//!   (the field-summary launch and download no step kernel shares), are
//!   bitwise identical to the host placement's;
//! * the host placement's digests equal the frozen reference recorded
//!   from the last independent host implementation;
//! * the device run is **schedule-invariant**: netsim's deterministic
//!   `workers = 1` round-robin and its default worker count produce
//!   identical digests, device counters, recorder counters, and
//!   causal-edge streams (tags, occurrences, bytes, and bit-exact
//!   virtual costs);
//! * with 64-wide patches, where every interior/boundary split is
//!   non-degenerate, the same digest identity holds;
//! * the copy-back placement changes transfers, never digests;
//! * hydro launches per step stay within `MAX_LAUNCHES_PER_STEP`,
//!   whatever the patch or level count, and a 1-level and a 3-level run
//!   of one deck launch the same number;
//! * data-movement launches per step stay within a small multiple of
//!   the fills and syncs executed — one `pack` per message sent, one
//!   `unpack` per message received — whatever the patch count;
//! * under fault schedules (message drops and corruption during the
//!   overlapped halo exchange), recovery reproduces the fault-free
//!   digest — which itself equals the host build's.

use proptest::prelude::*;
use rbamr_device::DeviceStats;
use rbamr_hydro::level_executor::{hydro_launches, MAX_LAUNCHES_PER_STEP};
use rbamr_hydro::{
    HydroConfig, HydroSim, Placement, RecoveryPolicy, RegionInit, ResilientSim, SimSpec,
};
use rbamr_netsim::{Cluster, FaultKind, FaultPlan, FaultRule};
use rbamr_perfmodel::Machine;
use rbamr_telemetry::Recorder;

/// Sod shock tube: the canonical two-state deck.
fn sod_regions() -> Vec<RegionInit> {
    vec![
        RegionInit { rect: (0.0, 0.0, 0.5, 1.0), density: 1.0, energy: 2.5, xvel: 0.0, yvel: 0.0 },
        RegionInit {
            rect: (0.5, 0.0, 1.0, 1.0),
            density: 0.125,
            energy: 2.0,
            xvel: 0.0,
            yvel: 0.0,
        },
    ]
}

/// A three-state blast deck: refines in a different pattern than Sod,
/// so regrids exercise different box structures and launch plans.
fn blast_regions() -> Vec<RegionInit> {
    vec![
        RegionInit { rect: (0.0, 0.0, 1.0, 1.0), density: 0.2, energy: 1.0, xvel: 0.0, yvel: 0.0 },
        RegionInit { rect: (0.3, 0.3, 0.7, 0.7), density: 1.0, energy: 3.0, xvel: 0.0, yvel: 0.0 },
        RegionInit { rect: (0.0, 0.7, 0.3, 1.0), density: 0.5, energy: 1.5, xvel: 0.0, yvel: 0.0 },
    ]
}

#[derive(Clone, Copy, Debug)]
struct RunConfig {
    deck: u8,
    ranks: usize,
    cells: i64,
    /// Maximum patch extent, in cells.
    patch: i64,
    steps: usize,
}

const LEVELS: usize = 2;

/// Everything observable about one rank of a run: per-step digests,
/// cumulative device transfer/launch statistics, deterministic recorder
/// counters, and the full causal-edge stream.
#[derive(Debug, PartialEq)]
struct RankTrace {
    digests: Vec<u64>,
    /// `None` on the host placement.
    device: Option<DeviceStats>,
    /// Hydro kernel launches issued by the steps (not by
    /// initialisation).
    hydro_launches: u64,
    counters: Vec<(String, u64)>,
    /// What the steps alone — not initialisation, not the digests taken
    /// between them (which pack every array) — added to each counter.
    step_counters: std::collections::BTreeMap<String, u64>,
    /// (name, peer, tag, occurrence, bytes, cost bits) per edge, in
    /// record order.
    edges: Vec<(String, usize, u64, u64, u64, u64)>,
    /// The bits of the rank-local `summary` after the last step.
    summary: [u64; 5],
}

/// `workers`: netsim worker slots, `None` for the default count.
fn run(cfg: RunConfig, workers: Option<usize>, placement: Placement) -> Vec<RankTrace> {
    run_levels(cfg, workers, placement, LEVELS)
}

/// [`run`] on a hierarchy of at most `levels` levels.
fn run_levels(
    cfg: RunConfig,
    workers: Option<usize>,
    placement: Placement,
    levels: usize,
) -> Vec<RankTrace> {
    let machine = Machine::ipa_gpu();
    let m = machine.clone();
    let mut cluster = Cluster::new(machine);
    if let Some(workers) = workers {
        cluster = cluster.with_workers(workers);
    }
    let results = cluster.run(cfg.ranks, move |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut config =
            HydroConfig { regrid_interval: 3, max_patch_size: cfg.patch, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = cfg.patch;
        let regions = if cfg.deck == 0 { sod_regions() } else { blast_regions() };
        let mut sim = HydroSim::new(
            m.clone(),
            placement,
            comm.clock().clone(),
            (1.0, 1.0),
            (cfg.cells, cfg.cells),
            levels,
            2,
            config,
            regions,
            comm.rank(),
            comm.size(),
        );
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        let launches_at_init = hydro_launches(&rec);
        let mut digests = Vec::new();
        let mut step_counters = std::collections::BTreeMap::new();
        for _ in 0..cfg.steps {
            let before = rec.counters();
            sim.step(Some(&comm));
            for (name, v) in rec.counters() {
                let added = v - before.get(&name).copied().unwrap_or(0);
                *step_counters.entry(name).or_insert(0) += added;
            }
            digests.push(sim.state_field_digest());
        }
        let hydro_launches = hydro_launches(&rec) - launches_at_init;
        let device = sim.device().map(|d| d.stats());
        // Wall-clock counters (`*_ns`) are inherently noisy; every
        // other counter must be schedule-invariant.
        let counters =
            rec.counters().into_iter().filter(|(name, _)| !name.ends_with("_ns")).collect();
        let edges = rec
            .edges()
            .into_iter()
            .map(|e| (e.name.to_string(), e.peer, e.tag, e.occurrence, e.bytes, e.cost.to_bits()))
            .collect();
        let s = sim.summary(None);
        let summary =
            [s.volume, s.mass, s.internal_energy, s.kinetic_energy, s.pressure].map(f64::to_bits);
        RankTrace { digests, device, hydro_launches, counters, step_counters, edges, summary }
    });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, t)| t).collect()
}

fn assert_same_digests(what: &str, cfg: RunConfig, a: &[RankTrace], b: &[RankTrace]) {
    for (rank, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.digests, b.digests, "{cfg:?}: rank {rank}: {what}");
        assert_eq!(a.summary, b.summary, "{cfg:?}: rank {rank}: {what} (summary)");
    }
}

/// The core property: device == host physics, and the device run
/// itself is schedule-invariant down to counters and edge costs.
fn check_equivalence(cfg: RunConfig) {
    let host = run(cfg, None, Placement::Host);
    let device = run(cfg, None, Placement::Device);
    let device_rr = run(cfg, Some(1), Placement::Device);

    assert_same_digests("device digests diverge from the host build", cfg, &host, &device);
    assert_same_digests("digests differ across netsim schedules", cfg, &device, &device_rr);
    for (rank, (dflt, rr)) in device.iter().zip(&device_rr).enumerate() {
        assert_eq!(
            dflt.device, rr.device,
            "{cfg:?}: rank {rank}: device counters differ across netsim schedules"
        );
        assert_eq!(
            dflt.counters, rr.counters,
            "{cfg:?}: rank {rank}: recorder counters differ across netsim schedules"
        );
        assert_eq!(
            dflt.edges, rr.edges,
            "{cfg:?}: rank {rank}: causal-edge streams differ across netsim schedules"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random hierarchies at 1–8 ranks, both decks: device == host, and
    /// device is schedule-invariant.
    #[test]
    fn random_hierarchies_match_host_across_schedules(
        deck in prop::sample::select(vec![0u8, 1]),
        ranks in prop::sample::select(vec![1usize, 2, 3, 5, 8]),
        cells in prop::sample::select(vec![24i64, 32]),
    ) {
        check_equivalence(RunConfig { deck, ranks, cells, patch: 8, steps: 3 });
    }
}

/// Fixed corner pins the proptest strategy's ends: the largest rank
/// count on the non-Sod deck.
#[test]
fn eight_rank_blast_matches() {
    check_equivalence(RunConfig { deck: 1, ranks: 8, cells: 32, patch: 8, steps: 3 });
}

/// 8-wide patches have no interior core, so every kernel above runs in
/// the boundary pass. 64-wide patches make the interior/boundary split
/// non-degenerate for the first kernels of every window.
#[test]
fn big_patches_with_interior_cores_match() {
    for ranks in [1usize, 2] {
        check_equivalence(RunConfig { deck: 0, ranks, cells: 64, patch: 64, steps: 6 });
    }
}

/// Absolute digests of the host placement, recorded at commit d181116
/// from the per-patch host integrator that was then an independent
/// transcription of the step (its own region and field lists, its own
/// fill-then-compute driver). Every placement now runs one
/// transcription, so host = device no longer guards against a wrong
/// region or field list; these constants do. One word per
/// configuration: every rank's per-step `state_field_digest`, folded in
/// rank-then-step order. The kernels use only `+ − × ÷`, `sqrt`, `min`
/// and `max`, so the words are platform-stable. They move only with a
/// deliberate physics change, which re-records them and says so.
const FROZEN_HOST_DIGESTS: [((u8, usize), u64); 6] = [
    ((0, 1), 0x747e_2f2e_9527_411a),
    ((0, 2), 0x32cf_2414_9631_1937),
    ((0, 4), 0x9bda_06a9_3b6a_eff1),
    ((1, 1), 0x02a1_7811_67cb_deaa),
    ((1, 2), 0xeab7_4c80_89c5_f9f8),
    ((1, 4), 0x35e5_2fd7_15fe_125e),
];

#[test]
fn host_digests_match_the_frozen_reference() {
    let measured = FROZEN_HOST_DIGESTS.map(|((deck, ranks), _)| {
        let cfg = RunConfig { deck, ranks, cells: 32, patch: 8, steps: 6 };
        let mut fold = rbamr_geometry::Fnv64::new();
        for trace in run(cfg, Some(1), Placement::Host) {
            trace.digests.iter().for_each(|&d| fold.write_u64(d));
        }
        ((deck, ranks), fold.finish())
    });
    assert!(
        measured == FROZEN_HOST_DIGESTS,
        "host digests left the frozen reference: {measured:x?}"
    );
}

const MANY_PATCHES: RunConfig = RunConfig { deck: 0, ranks: 2, cells: 32, patch: 8, steps: 4 };

/// The copy-back placement runs the same kernels with per-phase PCIe
/// round trips: identical digests, strictly more transfers.
#[test]
fn copy_back_changes_transfers_not_digests() {
    let resident = run(MANY_PATCHES, None, Placement::Device);
    let copy_back = run(MANY_PATCHES, None, Placement::DeviceCopyBack);
    assert_same_digests("copy-back changed the physics", MANY_PATCHES, &resident, &copy_back);
    for (rank, (r, c)) in resident.iter().zip(&copy_back).enumerate() {
        let (r, c) = (r.device.expect("device stats"), c.device.expect("device stats"));
        assert!(c.h2d_transfers > r.h2d_transfers, "rank {rank}: H2D {c:?} vs {r:?}");
        assert!(c.d2h_transfers > r.d2h_transfers, "rank {rank}: D2H {c:?} vs {r:?}");
    }
}

/// In the many-patch regime (patches per rank ≫ levels) hydro launches
/// per step are bounded by one constant for the whole hierarchy: a
/// 1-level and a 3-level run of the same deck launch the same number.
#[test]
fn hydro_launches_scale_with_levels_not_patches() {
    let bound = MANY_PATCHES.steps as u64 * MAX_LAUNCHES_PER_STEP;
    let launches = [1, 3].map(|levels| {
        let traces = run_levels(MANY_PATCHES, None, Placement::Device, levels);
        for (rank, t) in traces.iter().enumerate() {
            assert!(
                t.hydro_launches <= bound,
                "rank {rank}, {levels} levels: {} hydro launches in {} steps exceed {bound}",
                t.hydro_launches,
                MANY_PATCHES.steps
            );
        }
        traces.iter().map(|t| t.hydro_launches).collect::<Vec<_>>()
    });
    assert_eq!(launches[0], launches[1], "hydro launches depend on the level count");
}

/// The fill windows' pack-class launches per step do not depend on the
/// level count: a 1-level and a 3-level run of the same deck pack and
/// unpack once per window — five of each per step at two ranks, where
/// every window has the one peer. (Syncs, one per fine level, and a
/// regrid's transfers, one per rebuilt level, add their own: at two
/// ranks one pack per kind-6 or kind-7 message sent and one unpack per
/// one received, which is what is taken off.)
#[test]
fn fill_pack_launches_are_the_same_at_one_and_three_levels() {
    let per_level_count = [1, 3].map(|levels| {
        let traces = run_levels(MANY_PATCHES, None, Placement::Device, levels);
        let fills = traces.iter().map(|t| {
            let c = |name: &str| t.step_counters.get(name).copied().unwrap_or(0);
            let (sent, received) = (c("net.sends.kind6"), c("net.recvs.kind6"));
            let (sent, received) = (sent + c("net.sends.kind7"), received + c("net.recvs.kind7"));
            let pack = c("device.kernel_launches.pack") - sent;
            (pack, c("device.kernel_launches.unpack") - received)
        });
        fills.collect::<Vec<_>>()
    });
    assert_eq!(per_level_count[0], per_level_count[1], "fill launches depend on the level count");
    let windows = 5 * MANY_PATCHES.steps as u64;
    assert!(per_level_count[0].iter().all(|&c| c == (windows, windows)), "{per_level_count:?}");
}

/// The absolute data-movement gate, beside the hydro one: the launches
/// that move halo data are bounded by the fill windows and syncs a step
/// executes and by the messages it exchanges — never by the number of
/// levels, patches or overlaps. Checked at two patch sizes over steps
/// that do not regrid (a regrid's transfer obeys the same law per
/// rebuilt level; `telemetry_counters` in `gpu-amr` pins its budget).
#[test]
fn data_movement_launches_scale_with_fills_not_patches() {
    for patch in [8, 16] {
        let cfg = RunConfig { patch, steps: 2, ..MANY_PATCHES };
        for (rank, t) in run(cfg, None, Placement::Device).iter().enumerate() {
            let c = |name: &str| t.step_counters.get(name).copied().unwrap_or(0);
            let launches = |name: &str| c(&format!("device.kernel_launches.{name}"));
            let (fills, syncs) = (c("amr.refine_fills"), c("amr.coarsen_syncs"));
            // Kinds 5 and 6: the aggregated fill and sync streams.
            let sent = c("net.sends.kind5") + c("net.sends.kind6");
            let received = c("net.recvs.kind5") + c("net.recvs.kind6");
            let what = format!("patch {patch} rank {rank}");
            assert!(fills > 0 && syncs > 0 && sent > 0, "{what}: nothing exchanged");
            // Five windows per step, each over every level; one sync per
            // fine level.
            let steps = cfg.steps as u64;
            assert_eq!((fills, syncs), (5 * steps, (LEVELS as u64 - 1) * steps), "{what}");
            // One peer (two ranks): one message per window or sync.
            assert!(sent <= fills + syncs && received <= fills + syncs, "{what}: messages");
            assert_eq!(launches("pack"), sent, "{what}: one pack per message sent");
            assert_eq!(launches("unpack"), received, "{what}: one unpack per message received");
            // Per fill: the same-level copies and the scratch capture;
            // per sync: the local applies.
            assert!(launches("copy-region") <= 2 * fills + syncs, "{what}: copy-region");
            assert!(launches("extend-uncovered") <= fills, "{what}: extend-uncovered");
            // One launch per operator: at most the cell and the node or
            // side operator per fill, the three coarsen operators per
            // sync.
            assert!(launches("refine-interp") <= 2 * fills, "{what}: refine-interp");
            assert!(launches("coarsen-project") <= 3 * syncs, "{what}: coarsen-project");
        }
    }
}

fn resilient_digests(plan: FaultPlan, placement: Placement) -> Vec<u64> {
    let machine = Machine::ipa_gpu();
    let m = machine.clone();
    let results = Cluster::new(machine).with_fault_plan(plan).run(2, move |comm| {
        let mut config =
            HydroConfig { regrid_interval: 3, max_patch_size: 8, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = 8;
        let spec = SimSpec {
            machine: m.clone(),
            placement,
            extent: (1.0, 1.0),
            coarse_cells: (24, 24),
            max_levels: 2,
            ratio: 2,
            config,
            regions: sod_regions(),
            rank: comm.rank(),
            nranks: 2,
        };
        let policy = RecoveryPolicy {
            checkpoint_interval: 3,
            max_retries: 6,
            backoff_base: 0.05,
            ..RecoveryPolicy::default()
        };
        let recorder = Recorder::new(comm.rank(), comm.clock().clone());
        let mut sim =
            ResilientSim::new(spec, policy, recorder, Some(&comm)).expect("resilient sim builds");
        sim.run_steps(6, Some(&comm)).expect("faults are recoverable");
        sim.sim().state_field_digest()
    });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, d)| d).collect()
}

/// Fault schedules landing during the overlapped exchange: rollback +
/// replay reproduces the fault-free digest, which itself equals the
/// host build's.
#[test]
fn fault_recovery_reproduces_fault_free_digest() {
    let fault_free_host = resilient_digests(FaultPlan::none(), Placement::Host);
    let fault_free = resilient_digests(FaultPlan::none(), Placement::Device);
    assert_eq!(fault_free_host, fault_free, "fault-free device run must match the host build");
    for (name, rules) in [
        ("drop", vec![FaultRule::once_on(FaultKind::MsgDrop, 0, 12)]),
        ("corrupt", vec![FaultRule::once_on(FaultKind::MsgCorrupt, 1, 20)]),
        (
            "drop+corrupt",
            vec![
                FaultRule::once_on(FaultKind::MsgDrop, 0, 8),
                FaultRule::once_on(FaultKind::MsgCorrupt, 1, 30),
            ],
        ),
    ] {
        let faulted = resilient_digests(FaultPlan::new(9000, rules), Placement::Device);
        assert_eq!(faulted, fault_free, "{name}: recovery must reproduce the fault-free digest");
    }
}
