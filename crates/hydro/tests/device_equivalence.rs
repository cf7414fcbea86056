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
//!   of one deck launch the same number; where windows split, within
//!   `MAX_SPLIT_LAUNCHES_PER_STEP`;
//! * data-movement launches per step stay within the fills and syncs
//!   executed — one launch per stage of each, one `pack` per message
//!   sent (the stage's local copies inside), one `unpack` per message
//!   received — whatever the patch count;
//! * a window's phase splits into interior and boundary passes only
//!   where the rank receives a message in that window: every kernel
//!   group's launches per step are exact at one and two ranks;
//! * under fault schedules (message drops and corruption during the
//!   overlapped halo exchange), recovery reproduces the fault-free
//!   digest — which itself equals the host build's.

use proptest::prelude::*;
use rbamr_device::DeviceStats;
use rbamr_hydro::level_executor::{
    hydro_launches, DATA_MOVEMENT_KERNEL_NAMES, HYDRO_KERNEL_NAMES, MAX_LAUNCHES_PER_STEP,
    MAX_SPLIT_LAUNCHES_PER_STEP, TAG_KERNEL_NAMES,
};
use rbamr_hydro::{
    HydroConfig, HydroSim, Placement, RecoveryPolicy, RegionInit, ResilientSim, SimSpec,
};
use rbamr_netsim::{Cluster, FaultKind, FaultPlan, FaultRule};
use rbamr_perfmodel::{Category, Clock, Machine, TimeBreakdown};
use rbamr_telemetry::{EdgeKind, Recorder};

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

/// Hydro launches per step on one rank, where no window splits: the
/// step's kernel groups, each once.
const STEP_GROUPS: u64 = 20;

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

/// Every rank's six per-category clock totals ([`Category::ALL`] order,
/// as `f64` bits) after initialisation, 4 steps of the blast deck (a
/// regrid at step 3) and a reduced `summary`: which component of
/// Fig. 11 each charge lands in, pinned on every placement. No digest
/// is taken during the run, since a digest is a diagnostic charged
/// outside the step.
const FROZEN_CATEGORY_BITS: [(Placement, usize, [[u64; 6]; 4]); 6] = [
    (
        Placement::Host,
        1,
        [
            [
                0x3f56_13e2_339a_e44e,
                0x3f28_40f5_4702_bade,
                0x3ef9_b130_b131_4821,
                0x3eee_ee72_7759_2049,
                0x3ef6_1859_662f_8ccd,
                0x3f29_de30_0a35_1aaa,
            ],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
    ),
    (
        Placement::Host,
        4,
        [
            [
                0x3f3d_a7ca_b777_b76c,
                0x3f32_fcd3_a158_fff9,
                0x3efc_894a_1787_b622,
                0x3ef3_aeef_fc1a_e5d5,
                0x3f08_d8db_fe3b_4be0,
                0x3f14_9e83_ca60_9d0a,
            ],
            [
                0x3f3c_101b_8092_3762,
                0x3f33_6b8e_1651_93e6,
                0x3efc_487f_2c73_f075,
                0x3f00_67f2_3df0_b057,
                0x3f08_9180_b851_c75c,
                0x3f13_0d16_b8bb_918b,
            ],
            [
                0x3f3e_8b2e_00f2_ecae,
                0x3f33_e04b_887c_189c,
                0x3efc_7a90_5677_94d7,
                0x3f04_260d_1b75_8cb5,
                0x3f09_162b_8586_3015,
                0x3f16_28bb_402b_183d,
            ],
            [
                0x3f3f_e62e_b088_16bd,
                0x3f34_4e1a_3780_cf45,
                0x3efc_84df_2a69_45c0,
                0x3eea_b41d_8937_917a,
                0x3f06_c90c_d014_8c45,
                0x3f15_67d7_65e9_242c,
            ],
        ],
    ),
    (
        Placement::Device,
        1,
        [
            [
                0x3f3f_1dbb_3a91_dffb,
                0x3f43_8c0b_fcd3_755f,
                0x3f11_fb47_c0bd_63a5,
                0x3f03_7bb6_ea6a_5d16,
                0x3f22_9318_291b_a67a,
                0x3f7b_9808_d0d5_f1ba,
            ],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
    ),
    (
        Placement::Device,
        4,
        [
            [
                0x3f3b_265f_9fd1_a2c4,
                0x3f52_cd73_2d77_7f9d,
                0x3f14_9f2f_84ec_5d19,
                0x3f1b_5fc5_85b0_36b4,
                0x3f2b_1d3c_bd0a_69bb,
                0x3f59_a645_6211_1842,
            ],
            [
                0x3f3a_fab5_2232_717e,
                0x3f54_b470_fc49_e0c0,
                0x3f14_9bc5_3902_9561,
                0x3f24_b703_3c10_a5e0,
                0x3f2c_7021_ebb1_dd54,
                0x3f57_81a8_8f3b_4e61,
            ],
            [
                0x3f3b_3725_4e2e_5ff3,
                0x3f53_ded3_7e55_fe42,
                0x3f14_9f43_77e6_0bd2,
                0x3f20_eb2e_f703_0b10,
                0x3f2c_31ed_f4b8_1112,
                0x3f5d_5b5e_076c_73e2,
            ],
            [
                0x3f3b_5556_f5d8_7b7a,
                0x3f54_fe5e_55c7_f9b9,
                0x3f14_a0b4_5e9f_b4e6,
                0x3f16_4a89_ea37_01c2,
                0x3f2c_0f74_bbb6_a14f,
                0x3f60_ea6a_0df5_a831,
            ],
        ],
    ),
    (
        Placement::DeviceCopyBack,
        1,
        [
            [
                0x3fde_1031_8810_baa3,
                0x3f43_8c0b_fcd3_755f,
                0x3f11_fb47_c0bd_63a5,
                0x3f03_7bb6_ea6a_5d16,
                0x3f22_9318_291b_a67a,
                0x3f7b_9808_d0d5_f1ba,
            ],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
    ),
    (
        Placement::DeviceCopyBack,
        4,
        [
            [
                0x3fba_7594_f75e_3761,
                0x3f51_91bd_6eaf_42a4,
                0x3f14_9f2f_84ec_5d19,
                0x3f1b_5fc5_85b0_36b4,
                0x3f2b_1d3c_bd0a_69bb,
                0x3f59_a645_6211_1842,
            ],
            [
                0x3fb7_c251_ea1e_9a17,
                0x3f53_5a7c_c106_c47a,
                0x3f14_9bc5_3902_9561,
                0x3f24_b703_3c10_a5e0,
                0x3f2c_7021_ebb1_dd54,
                0x3f57_81a8_8f3b_4e61,
            ],
            [
                0x3fbf_cf29_cf49_2645,
                0x3f52_9d58_8259_e77a,
                0x3f14_9f43_77e6_0bd2,
                0x3f20_eb2e_f703_0b10,
                0x3f2c_31ed_f4b8_1112,
                0x3f5d_5b5e_076c_73e2,
            ],
            [
                0x3fc3_43a2_a2a4_3357,
                0x3f53_97ab_f123_a3b8,
                0x3f14_a0b4_5e9f_b4e6,
                0x3f16_4a89_ea37_01c2,
                0x3f2c_0f74_bbb6_a14f,
                0x3f60_ea6a_0df5_a831,
            ],
        ],
    ),
];

/// The per-rank category bits of [`FROZEN_CATEGORY_BITS`]' run; a
/// 1-rank run fills the first row only.
fn category_bits(placement: Placement, ranks: usize) -> [[u64; 6]; 4] {
    let m = Machine::ipa_gpu();
    let results = Cluster::new(m.clone()).with_workers(1).run(ranks, move |comm| {
        let mut config =
            HydroConfig { regrid_interval: 3, max_patch_size: 8, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = 8;
        let mut sim = HydroSim::new(
            m.clone(),
            placement,
            comm.clock().clone(),
            (1.0, 1.0),
            (32, 32),
            LEVELS,
            2,
            config,
            blast_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.initialize(Some(&comm));
        sim.run_steps(4, Some(&comm));
        sim.summary(Some(&comm));
        let t = comm.clock().snapshot();
        Category::ALL.map(|c| t.get(c).to_bits())
    });
    let mut out = [[0; 6]; 4];
    for r in results {
        out[r.rank] = r.value;
    }
    out
}

#[test]
fn category_totals_match_the_frozen_reference() {
    let measured = FROZEN_CATEGORY_BITS.map(|(p, ranks, _)| (p, ranks, category_bits(p, ranks)));
    assert!(
        measured == FROZEN_CATEGORY_BITS,
        "per-category clock totals left the frozen reference: {measured:#x?}"
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

/// The fill windows' pack-class and physical-boundary launches per step
/// do not depend on the level count: a 1-level and a 3-level run of the
/// same deck pack, unpack and apply the physical boundaries once per
/// window — five of each per step at two ranks, where every window has
/// the one peer. (Syncs, one per fine level, and a regrid's transfers,
/// one per rebuilt level, add their own packs and unpacks: at two ranks
/// one pack per kind-6 or kind-7 message sent and one unpack per one
/// received, which is what is taken off.) Interpolation is one launch
/// per window too: none on one level; on three, one per window, plus at
/// most one per fine level the step-3 regrid rebuilds.
#[test]
fn fill_pack_launches_are_the_same_at_one_and_three_levels() {
    let [one, three] = [1, 3].map(|levels| {
        let traces = run_levels(MANY_PATCHES, None, Placement::Device, levels);
        let fills = traces.iter().map(|t| {
            let c = |name: &str| t.step_counters.get(name).copied().unwrap_or(0);
            let (sent, received) = (c("net.sends.kind6"), c("net.recvs.kind6"));
            let (sent, received) = (sent + c("net.sends.kind7"), received + c("net.recvs.kind7"));
            let pack = c("device.kernel_launches.pack") - sent;
            let unpack = c("device.kernel_launches.unpack") - received;
            let physical = c("device.kernel_launches.physical-boundary");
            ((pack, unpack, physical), c("device.kernel_launches.refine-interp"))
        });
        fills.collect::<Vec<_>>()
    });
    let windows = 5 * MANY_PATCHES.steps as u64;
    for (rank, (one, three)) in one.iter().zip(&three).enumerate() {
        assert_eq!(one.0, three.0, "rank {rank}: fill launches depend on the level count");
        assert_eq!(one.0, (windows, windows, windows), "rank {rank}");
        assert_eq!(one.1, 0, "rank {rank}: one level interpolates nothing");
        let interp = three.1;
        assert!((windows..=windows + 2).contains(&interp), "rank {rank}: {interp} refine-interp");
    }
}

/// One step of a one-rank host run of the Sod deck on `machine`, over
/// `cells`² coarse cells cut into `patch`² patches, with at most
/// `levels` levels: the virtual seconds the step charged, per category,
/// and the level and level-0 patch counts it ran on.
fn host_step(
    machine: Machine,
    levels: usize,
    cells: i64,
    patch: i64,
) -> (TimeBreakdown, usize, usize) {
    let mut config =
        HydroConfig { regrid_interval: 1000, max_patch_size: patch, ..HydroConfig::default() };
    config.regrid.cluster.min_size = 4;
    config.regrid.max_patch_size = patch;
    let mut sim = HydroSim::new(
        machine,
        Placement::Host,
        Clock::new(),
        (1.0, 1.0),
        (cells, cells),
        levels,
        2,
        config,
        sod_regions(),
        0,
        1,
    );
    sim.initialize(None);
    let before = sim.clock().snapshot();
    sim.step(None);
    let h = sim.hierarchy();
    (sim.clock().snapshot().since(&before), h.num_levels(), h.level(0).local().len())
}

/// The IPA node with the host's fixed loop cost replaced by
/// `call_overhead` and, if `free_bytes`, every loop's bytes and flops
/// made free.
fn host_machine(call_overhead: f64, free_bytes: bool) -> Machine {
    let mut machine = Machine::ipa_cpu_node();
    machine.host.call_overhead = call_overhead;
    if free_bytes {
        machine.host.mem_bandwidth = f64::INFINITY;
        machine.host.flops = f64::INFINITY;
    }
    machine
}

/// The host placement pays a loop nest's fixed cost where the device
/// pays a launch. On a machine whose every loop costs exactly 1 s, one
/// step's halo-exchange seconds count the copy stages — one per window
/// on one rank — and its hydro-kernel seconds count the phases, the same
/// at one and three levels, and at 4 and 16 level-0 patches (more at
/// three levels). With free fixed costs instead, the seconds are the
/// bytes term alone: equal, to rounding, to the per-item sum recorded
/// at ff83fec, where every copy and every patch of a phase charged its
/// own loop.
#[test]
fn host_loops_are_one_per_stage_and_phase() {
    let layouts = [(1, 16), (1, 8), (3, 16), (3, 8)];
    let loops = layouts.map(|(levels, patch)| {
        let (t, num_levels, patches) = host_step(host_machine(1.0, true), levels, 32, patch);
        assert_eq!((num_levels, patches), (levels, (32 / patch as usize).pow(2)));
        (t.get(Category::HaloExchange), t.get(Category::HydroKernel))
    });
    for (layout, l) in layouts.iter().zip(&loops) {
        assert_eq!(
            *l, loops[0],
            "{layout:?} levels and patch size: loops {l:?}, 1-level {:?}",
            loops[0]
        );
    }
    // One copy stage per window, five windows per step; thirteen phases.
    assert_eq!(loops[0], (5.0, 13.0));

    for (&(levels, patch), &(halo, hydro)) in layouts.iter().zip(&PER_ITEM_BYTES_SECONDS) {
        let (t, ..) = host_step(host_machine(0.0, false), levels, 32, patch);
        let what = format!("{levels} levels, {patch}² patches");
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert!(close(t.get(Category::HaloExchange), halo), "{what}: halo {t:?}");
        assert!(close(t.get(Category::HydroKernel), hydro), "{what}: hydro {t:?}");
    }
}

/// One step of a `ranks`-rank run of the Sod deck on `machine` over 32²
/// coarse cells cut into 8² patches, at most 3 levels, per rank: the
/// halo-exchange seconds the step charged, the halo-exchange launches
/// of `copy-region`, `pack` and `unpack` it issued (none on the host
/// placement), and the halo-exchange messages it received.
fn halo_step(
    machine: Machine,
    placement: Placement,
    ranks: usize,
) -> Vec<(f64, [usize; 3], usize)> {
    let results = Cluster::new(machine.clone()).run(ranks, move |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut config =
            HydroConfig { regrid_interval: 1000, max_patch_size: 8, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = 8;
        let mut sim = HydroSim::new(
            machine.clone(),
            placement,
            comm.clock().clone(),
            (1.0, 1.0),
            (32, 32),
            3,
            2,
            config,
            sod_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        let (before, spans, edges) =
            (comm.clock().snapshot(), rec.spans().len(), rec.edges().len());
        sim.step(Some(&comm));
        let halo = comm.clock().snapshot().since(&before).get(Category::HaloExchange);
        let spans = rec.spans().split_off(spans);
        let launches = ["copy-region", "pack", "unpack"].map(|name| {
            spans.iter().filter(|s| s.name == name && s.category == Category::HaloExchange).count()
        });
        let received = rec.edges()[edges..]
            .iter()
            .filter(|e| e.kind == EdgeKind::Recv && e.category == Category::HaloExchange)
            .count();
        (halo, launches, received)
    });
    results.into_iter().map(|r| r.value).collect()
}

/// Where a fill window has several peers, the host still pays one loop
/// per stage: on a machine whose every loop costs 1 s and whose network
/// is free, a step's halo-exchange seconds on each rank count its send
/// and unpack stages — the device build's `copy-region`, `pack` and
/// `unpack` launches of the same step, one per stage, a send stage's
/// copies inside its pack on both — not the messages it received, which
/// outnumber the unpack stages on some rank at 3 and at 4 ranks.
#[test]
fn host_unpacks_are_one_loop_per_stage_whatever_the_peers() {
    let mut machine = host_machine(1.0, true);
    machine.network.latency = 0.0;
    machine.network.bandwidth = f64::INFINITY;
    for ranks in [3, 4] {
        let host = halo_step(machine.clone(), Placement::Host, ranks);
        let device = halo_step(Machine::ipa_gpu(), Placement::Device, ranks);
        let mut several_peers = false;
        for (rank, (&(loops, ..), &(_, launches, received))) in host.iter().zip(&device).enumerate()
        {
            let stages: usize = launches.iter().sum();
            assert_eq!(loops, stages as f64, "{ranks} ranks, rank {rank}: {launches:?} stages");
            several_peers |= received > launches[2];
        }
        assert!(several_peers, "{ranks} ranks: no window received from two peers");
    }
}

/// Per layout of [`host_loops_are_one_per_stage_and_phase`], one step's
/// (halo-exchange, hydro-kernel) seconds with `call_overhead = 0`,
/// recorded at ff83fec from the per-item charges.
const PER_ITEM_BYTES_SECONDS: [(f64, f64); 4] = [
    (1.082514285714283e-6, 4.573257142857142e-5),
    (3.6973714285714293e-6, 6.186422857142855e-5),
    (7.456914285714269e-6, 1.2546194285714275e-4),
    (1.380388571428592e-5, 1.546605714285714e-4),
];

/// On a device, a checkpoint save and a digest between steps charge all
/// their launches and PCIe copies to `Other`, whatever stage last
/// touched each array; a restore charges its loads there too, and only
/// its re-priming start fill and EOS elsewhere.
#[test]
fn device_checkpoints_and_digests_charge_other() {
    let m = Machine::ipa_gpu();
    let results = Cluster::new(m.clone()).with_workers(1).run(2, move |comm| {
        let mut config =
            HydroConfig { regrid_interval: 3, max_patch_size: 8, ..HydroConfig::default() };
        config.regrid.cluster.min_size = 4;
        config.regrid.max_patch_size = 8;
        let mut sim = HydroSim::new(
            m.clone(),
            Placement::Device,
            comm.clock().clone(),
            (1.0, 1.0),
            (32, 32),
            LEVELS,
            2,
            config,
            blast_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.initialize(Some(&comm));
        sim.run_steps(4, Some(&comm));
        let delta = |before: TimeBreakdown| comm.clock().snapshot().since(&before);
        let before = comm.clock().snapshot();
        let db = sim.try_save_checkpoint(Some(&comm)).expect("fault-free save");
        let save = delta(before);
        let before = comm.clock().snapshot();
        sim.state_field_digest();
        let digest = delta(before);
        let before = comm.clock().snapshot();
        sim.try_restore_checkpoint(&db, Some(&comm)).expect("fault-free restore");
        (save, digest, delta(before))
    });
    for r in results {
        let (save, digest, restore) = r.value;
        for (what, t) in [("save", save), ("digest", digest)] {
            assert!(t.get(Category::Other) > 0.0, "rank {}: {what} charged nothing", r.rank);
            assert_eq!(t.get(Category::Other), t.total(), "rank {}: {what} {t:?}", r.rank);
        }
        assert!(restore.get(Category::Other) > 0.0, "rank {}: {restore:?}", r.rank);
        for c in [Category::Timestep, Category::Synchronize, Category::Regrid] {
            assert_eq!(restore.get(c), 0.0, "rank {}: restore {restore:?}", r.rank);
        }
    }
}

/// A diagnostic digest reads every array through the per-item pack, and
/// per-item calls outside a stage charge nothing: taking it leaves the
/// host clock bit-identical.
#[test]
fn a_host_digest_leaves_the_clock_alone() {
    let mut sim = HydroSim::new(
        Machine::ipa_cpu_node(),
        Placement::Host,
        Clock::new(),
        (1.0, 1.0),
        (32, 32),
        3,
        2,
        HydroConfig { max_patch_size: 16, ..HydroConfig::default() },
        sod_regions(),
        0,
        1,
    );
    sim.initialize(None);
    sim.step(None);
    let before = sim.clock().snapshot();
    sim.state_field_digest();
    assert_eq!(sim.clock().snapshot(), before);
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
            // One launch per send stage: per fill, the same-level copies
            // and the scratch capture; per sync, the local applies. They
            // ride the stage's pack where it sends, so a `copy-region`
            // launch is a stage that sends nothing.
            let sends = launches("copy-region") + launches("pack");
            assert!(sends <= fills + syncs, "{what}: copy-region + pack");
            assert!(launches("extend-uncovered") <= fills, "{what}: extend-uncovered");
            // Every operator of a fill or a sync in one launch, and the
            // physical boundaries of every level of a fill in one.
            assert!(launches("refine-interp") <= fills, "{what}: refine-interp");
            assert!(launches("coarsen-project") <= syncs, "{what}: coarsen-project");
            assert!(launches("physical-boundary") <= fills, "{what}: physical-boundary");
        }
    }
}

/// The step's launch groups by name (the executor's `STEP` table):
/// per step, how many launches run outside a fill window and how many
/// in one of its five windows (`fill-start`, `post-accel`, the two
/// post-sweep momentum windows and `mid-sweeps`). On a patch 64 cells
/// wide every windowed group has an interior core: the deepest margin
/// of any window's chain is 30 cells (`advec-cell`, ordinal 7).
const STEP_LAUNCHES: [(&str, u64, u64); 13] = [
    ("ideal-gas-viscosity", 0, 1),
    ("calc-dt", 1, 0),
    ("pdv-predict", 1, 0),
    ("accelerate", 1, 0),
    ("pdv", 1, 0),
    ("flux-calc", 0, 1),
    ("advec-cell-vol", 1, 1),
    ("advec-mass-flux", 1, 1),
    ("advec-cell", 1, 1),
    ("advec-mom-node", 0, 2),
    ("mom-node-mass-pre", 0, 2),
    ("mom-flux", 0, 2),
    ("mom-vel-update", 0, 2),
];

/// A window splits into interior and boundary passes only where this
/// rank receives a message in it. On one rank every group launches once
/// per step, exactly the step's 20; on two ranks, where every window of
/// this 64-wide-patch deck has a remote peer, every windowed group
/// launches in both passes ([`STEP_LAUNCHES`]), and the step stays
/// within the split bound. The digests equal the host build's, which
/// runs every phase whole — and whole equals interior + boundary bitwise
/// (`one_pass_over_every_level_equals_a_pass_per_level`).
#[test]
fn windows_split_only_where_a_peer_sends() {
    let groups: u64 = STEP_LAUNCHES.iter().map(|&(_, whole, windowed)| whole + windowed).sum();
    assert_eq!(groups, STEP_GROUPS);
    for (ranks, split, bound) in
        [(1, false, MAX_LAUNCHES_PER_STEP), (2, true, MAX_SPLIT_LAUNCHES_PER_STEP)]
    {
        let cfg = RunConfig { deck: 0, ranks, cells: 128, patch: 64, steps: 2 };
        let device = run(cfg, None, Placement::Device);
        assert_same_digests(
            "the split rule moved a value",
            cfg,
            &run(cfg, None, Placement::Host),
            &device,
        );
        let steps = cfg.steps as u64;
        let expected = |(_, whole, windowed): (&str, u64, u64)| {
            steps * (whole + windowed * if split { 2 } else { 1 })
        };
        for (rank, t) in device.iter().enumerate() {
            let launches =
                |name: &str| t.step_counters.get(&format!("device.kernel_launches.{name}"));
            for group in STEP_LAUNCHES {
                let what = format!("{ranks} ranks, rank {rank}: {}", group.0);
                assert_eq!(launches(group.0).copied().unwrap_or(0), expected(group), "{what}");
            }
            assert_eq!(t.hydro_launches, STEP_LAUNCHES.into_iter().map(expected).sum::<u64>());
            assert!(
                t.hydro_launches <= bound * steps,
                "{ranks} ranks, rank {rank}: {} hydro launches in {steps} steps exceed {bound} per step",
                t.hydro_launches
            );
        }
    }
}

/// Every launch of a traced 4-rank run — its steps and the regrid they
/// include — is budgeted: each `device.kernel_launches.<name>` counter
/// names a kernel of exactly one of the hydro, data-movement and tagging
/// lists, so a renamed launch cannot escape every budget.
#[test]
fn every_launch_name_belongs_to_exactly_one_budget() {
    let cfg = RunConfig { deck: 1, ranks: 4, cells: 64, patch: 16, steps: 3 };
    let lists = [HYDRO_KERNEL_NAMES, DATA_MOVEMENT_KERNEL_NAMES, TAG_KERNEL_NAMES];
    for (rank, t) in run(cfg, None, Placement::Device).iter().enumerate() {
        let names: Vec<&str> = t
            .step_counters
            .keys()
            .filter_map(|k| k.strip_prefix("device.kernel_launches."))
            .collect();
        assert!(names.iter().any(|n| TAG_KERNEL_NAMES.contains(n)), "rank {rank}: no regrid ran");
        for name in names {
            let homes = lists.iter().filter(|l| l.contains(&name)).count();
            assert_eq!(homes, 1, "rank {rank}: `{name}` is in {homes} budget lists");
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
