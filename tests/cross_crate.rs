//! Integration tests spanning the whole stack: geometry → device →
//! netsim → amr → gpu-amr → hydro → problems.
//!
//! The key end-to-end contracts of the reproduction:
//!
//! * physics is **rank-count invariant**: a distributed run produces the
//!   same solution as a serial run;
//! * host and device builds produce **bit-identical** solutions;
//! * the device build is **resident**: per-step PCIe traffic is packed
//!   halos + tag bitmaps + dt scalars only;
//! * the Sod solution **converges** to the exact Riemann solution;
//! * conserved quantities stay conserved through regridding.

use rbamr::hydro::{HydroConfig, HydroSim, Placement, Summary};
use rbamr::netsim::Cluster;
use rbamr::perfmodel::{Category, Clock, Machine};
use rbamr::problems::sod::{sod_l1_error, sod_regions};

fn config(max_patch: i64) -> HydroConfig {
    let mut c =
        HydroConfig { regrid_interval: 4, max_patch_size: max_patch, ..HydroConfig::default() };
    c.regrid.max_patch_size = max_patch;
    c
}

fn sod(
    placement: Placement,
    n: i64,
    levels: usize,
    max_patch: i64,
    rank: usize,
    nranks: usize,
    clock: Clock,
) -> HydroSim {
    let machine = match placement {
        Placement::Host => Machine::ipa_cpu_node(),
        _ => Machine::ipa_gpu(),
    };
    HydroSim::new(
        machine,
        placement,
        clock,
        (1.0, 1.0),
        (n, n),
        levels,
        2,
        config(max_patch),
        sod_regions(),
        rank,
        nranks,
    )
}

/// The globally reduced summary and every rank's `state_field_digest`,
/// in rank order.
fn run_distributed(
    placement: Placement,
    nranks: usize,
    n: i64,
    steps: usize,
) -> (Summary, Vec<u64>) {
    let cluster = Cluster::new(Machine::ipa_cpu_node());
    let mut results = cluster.run(nranks, |comm| {
        let mut sim = sod(
            placement,
            n,
            2,
            16, // small patches so every rank owns several
            comm.rank(),
            comm.size(),
            comm.clock().clone(),
        );
        sim.initialize(Some(&comm));
        for _ in 0..steps {
            sim.step(Some(&comm));
        }
        (sim.summary(Some(&comm)), sim.state_field_digest())
    });
    results.sort_by_key(|r| r.rank);
    // Every rank reports the same reduced summary.
    let s0 = results[0].value.0;
    for r in &results {
        assert!((r.value.0.mass - s0.mass).abs() < 1e-12);
    }
    (s0, results.iter().map(|r| r.value.1).collect())
}

#[test]
fn distributed_run_matches_serial() {
    let steps = 8;
    let serial = {
        let mut sim = sod(Placement::Host, 48, 2, 16, 0, 1, Clock::new());
        sim.initialize(None);
        for _ in 0..steps {
            sim.step(None);
        }
        sim.summary(None)
    };
    for nranks in [2usize, 4] {
        let (dist, _) = run_distributed(Placement::Host, nranks, 48, steps);
        // Same physics; summation order differs across ranks, so allow
        // roundoff-level drift only.
        assert!(
            ((dist.mass - serial.mass) / serial.mass).abs() < 1e-11,
            "{nranks} ranks: mass {} vs serial {}",
            dist.mass,
            serial.mass
        );
        assert!(
            ((dist.total_energy() - serial.total_energy()) / serial.total_energy()).abs() < 1e-11,
            "{nranks} ranks: energy {} vs serial {}",
            dist.total_energy(),
            serial.total_energy()
        );
        assert!(((dist.pressure - serial.pressure) / serial.pressure).abs() < 1e-11);
    }
}

#[test]
fn device_distributed_matches_host_distributed() {
    let (host, host_digests) = run_distributed(Placement::Host, 2, 48, 6);
    let (dev, dev_digests) = run_distributed(Placement::Device, 2, 48, 6);
    assert!(((host.mass - dev.mass) / host.mass).abs() < 1e-12);
    assert!(((host.total_energy() - dev.total_energy()) / host.total_energy()).abs() < 1e-12);
    assert!(
        ((host.kinetic_energy - dev.kinetic_energy) / host.kinetic_energy.max(1e-30)).abs() < 1e-9
    );
    // The bitwise claim, and its anchor: per-rank digests recorded at
    // commit d181116, when the host placement still ran its own
    // transcription of the step (see `FROZEN_HOST_DIGESTS` in
    // crates/hydro/tests/device_equivalence.rs).
    const FROZEN: [u64; 2] = [0x3fd8_7dad_3e58_d3c4, 0x7a9c_162e_de1b_2e75];
    assert_eq!(host_digests, dev_digests, "host and device state differ bitwise");
    assert!(host_digests == FROZEN, "digests left the frozen reference: {host_digests:x?}");
}

/// What one step of one rank moved across PCIe and the network.
struct StepTraffic {
    d2h: (u64, u64),
    h2d: (u64, u64),
    /// Data messages sent and received: the fill and sync streams and,
    /// on a regrid step, the solution transfer's.
    messages: (u64, u64),
    packed: (u64, u64),
    /// `pack` and `unpack` launches: one per stage with any peer, each
    /// with one transfer for all of the stage's messages.
    stages: (u64, u64),
    /// dt downloads (one per step, for every level at once, when the
    /// rank holds any patch) and the local patches at the start of the
    /// step: one minimum per patch.
    dt: (u64, u64),
    /// `any-tagged` and `compress-tags` launches: each downloads its
    /// result.
    tags: (u64, u64),
    /// Local patches on the level a regrid flags (level 0 of two): one
    /// any-tagged word each.
    flagged: u64,
    /// Fill windows and coarsen syncs executed.
    windows: (u64, u64),
    /// Descriptor table uploads, whether the step's regrid changed the
    /// fine level, and whether it rebuilt it (rather than removed it).
    tables: (u64, bool, bool),
}

#[test]
fn distributed_device_build_is_resident() {
    // At 2 ranks every stage has one peer, so one transfer per message
    // and one per stage count the same; 4 ranks tell them apart.
    for nranks in [2, 4] {
        resident_traffic(nranks);
    }
}

fn resident_traffic(nranks: usize) {
    use rbamr::telemetry::Recorder;
    const STEPS: usize = 7;
    let cluster = Cluster::new(Machine::ipa_gpu());
    let results = cluster.run(nranks, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut sim =
            sod(Placement::Device, 32, 2, 16, comm.rank(), comm.size(), comm.clock().clone());
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        let device = sim.device().unwrap().clone();
        let observe = || {
            let s = device.stats();
            let c = |name| rec.counter(name);
            // Kind 15 is the collectives' own point-to-point plumbing
            // (the regrid's tag exchange): host payloads, no PCIe.
            [
                (s.d2h_transfers, s.d2h_bytes),
                (s.h2d_transfers, s.h2d_bytes),
                (c("net.sends") - c("net.sends.kind15"), c("net.recvs") - c("net.recvs.kind15")),
                (c("pack.bytes"), c("unpack.bytes")),
                (c("device.kernel_launches.pack"), c("device.kernel_launches.unpack")),
                (c("device.kernel_launches.any-tagged"), c("device.kernel_launches.compress-tags")),
                (c("amr.refine_fills"), c("amr.coarsen_syncs")),
                (c("device.table_uploads"), 0),
            ]
        };
        let fine = |sim: &HydroSim| {
            let h = sim.hierarchy();
            let level = (h.num_levels() > 1).then(|| h.level(1));
            level.map(|l| (l.global_boxes().to_vec(), l.owners().to_vec()))
        };
        let mut steps = Vec::new();
        for _ in 0..STEPS {
            let local = |l| sim.hierarchy().level(l).local().len() as u64;
            let patches: u64 = (0..sim.hierarchy().num_levels()).map(local).sum();
            let flagged = local(0);
            let (before, level) = (observe(), fine(&sim));
            sim.step(Some(&comm));
            let [d2h, h2d, messages, packed, stages, tags, windows, uploads] = {
                let after = observe();
                [0, 1, 2, 3, 4, 5, 6, 7]
                    .map(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
            };
            let dt = (u64::from(patches > 0), patches);
            let after = fine(&sim);
            let tables = (uploads.0, after != level, after != level && after.is_some());
            let t = StepTraffic {
                d2h,
                h2d,
                messages,
                packed,
                stages,
                dt,
                tags,
                flagged,
                windows,
                tables,
            };
            steps.push(t);
        }
        steps
    });
    let (mut fused, mut uploaded) = (false, false);
    for r in &results {
        for (i, t) in r.value.iter().enumerate() {
            let what = format!("{nranks} ranks, rank {} step {}", r.rank, i + 1);
            assert!(t.messages.0 > 0 && t.packed.0 > 0, "{what}: halos must cross PCIe");
            // One launch and one transfer per stage and direction,
            // however many peers the stage has.
            assert!(t.stages.0 <= t.messages.0 && t.stages.1 <= t.messages.1, "{what}: stages");
            // One window per halo fill and one sync per fine level, each
            // a stage — never one per level and fill — plus the regrid's
            // transfer of its one rebuilt level; each sends a peer at
            // most one message.
            let regrid = (i + 1).is_multiple_of(4);
            assert_eq!(t.windows, (5, 1), "{what}: five fill windows and one sync per step");
            let limit = t.windows.0 + t.windows.1 + u64::from(regrid);
            assert!(t.stages.0 <= limit && t.stages.1 <= limit, "{what}: {:?} stages", t.stages);
            let peers = nranks as u64 - 1;
            assert!(t.messages.0 <= limit * peers && t.messages.1 <= limit * peers, "{what}");
            if nranks == 2 {
                assert_eq!(t.stages, t.messages, "{what}: one peer, one message per stage");
            }
            fused |= t.stages.0 < t.messages.0 && t.stages.1 < t.messages.1;
            // The residency claim is an equality. Out: one transfer per
            // stage that sends — halo, synchronisation or, on the regrid
            // at the end of every fourth step, solution-transfer stage —
            // carrying exactly the packed bytes, and one download of
            // every level's dt minima (8 B per patch). A regrid
            // adds one download of the flagged level's any-tagged words
            // (4 B per patch) and, where any is set, one of the
            // compressed bitmaps: at most one bit per cell of a 16^2
            // patch.
            assert_eq!(regrid, t.tags.0 > 0, "{what}: flagging runs on regrid steps only");
            assert!(t.tags.0 <= 1 && t.tags.1 <= t.tags.0, "{what}: tag launches {:?}", t.tags);
            assert_eq!(t.d2h.0, t.stages.0 + t.dt.0 + t.tags.0 + t.tags.1, "{what}: D2H count");
            let words = if regrid { 4 * t.flagged } else { 0 };
            let bitmaps = t.d2h.1 - (t.packed.0 + 8 * t.dt.1 + words);
            assert!(t.tags.1 <= bitmaps && bitmaps <= 32 * t.flagged, "{what}: D2H {:?}", t.d2h);
            // In: one transfer per stage that receives, carrying exactly
            // the bytes unpacked — plus one upload per build pass that
            // brings new descriptor tables: the regrid's transfer of the
            // rebuilt fine level on the regrid step, and the rebuild's
            // pass at the first fill of the step after it — or the first
            // step's, which plans what initialisation did not run. A
            // pass that keeps every schedule uploads nothing.
            let rebuilt = i == 0 || r.value[i - 1].tables.1;
            assert_eq!(t.tables.0, u64::from(t.tables.2) + u64::from(rebuilt), "{what}: tables");
            assert_eq!(t.h2d.0, t.stages.1 + t.tables.0, "{what}: H2D count");
            assert_eq!(t.h2d.1 > t.packed.1, t.tables.0 > 0, "{what}: H2D {:?}", t.h2d);
            assert!(t.h2d.1 - t.packed.1 < 200_000, "{what}: H2D too large: {:?}", t.h2d);
        }
        uploaded |= r.value.iter().any(|t| t.tables.2);
    }
    assert!(uploaded, "{nranks} ranks: some regrid must rebuild the fine level");
    assert_eq!(fused, nranks > 2, "{nranks} ranks: some stage must have several peers");
}

#[test]
fn sod_converges_to_exact_riemann() {
    let mut errors = Vec::new();
    for n in [32i64, 64] {
        let mut sim = sod(Placement::Host, n, 2, 1 << 20, 0, 1, Clock::new());
        sim.initialize(None);
        sim.run_to_time(0.12, None);
        let profile = sim.density_profile();
        errors.push(sod_l1_error(&profile, sim.time()));
    }
    assert!(errors[0] < 0.05, "coarse L1 error too large: {}", errors[0]);
    assert!(errors[1] < errors[0] * 0.75, "no convergence: {:?}", errors);
}

#[test]
fn amr_matches_its_own_fine_features() {
    // The refined region must track the shock: compare the fine level's
    // coverage centre against the analytic shock position.
    let mut sim = sod(Placement::Host, 64, 2, 1 << 20, 0, 1, Clock::new());
    sim.initialize(None);
    sim.run_to_time(0.1, None);
    let exact = rbamr::problems::sod::sod_exact();
    let shock_x = 0.5 + 1.7522 * sim.time(); // Toro's Sod shock speed
    let covered = sim.hierarchy().level(1).covered();
    let dx1 = sim.hierarchy().dx(1).0;
    let shock_i = (shock_x / dx1) as i64;
    let mid_j = 64; // level-1 midline
    assert!(
        covered.contains(rbamr::geometry::IntVector::new(shock_i, mid_j)),
        "shock cell {shock_i} not refined (coverage {covered:?})"
    );
    let _ = exact;
}

#[test]
fn long_run_with_regridding_conserves_mass() {
    let mut sim = sod(Placement::Host, 48, 3, 1 << 20, 0, 1, Clock::new());
    sim.initialize(None);
    let m0 = sim.summary(None).mass;
    for _ in 0..30 {
        sim.step(None);
    }
    let m1 = sim.summary(None).mass;
    // Regridding interpolates conservatively; tolerate only small drift
    // from newly refined regions near limiter activity.
    assert!(
        ((m1 - m0) / m0).abs() < 5e-4,
        "mass drift over 30 steps with regridding: {m0} -> {m1}"
    );
}

#[test]
fn virtual_time_accumulates_in_every_category() {
    let mut sim = sod(Placement::Device, 48, 2, 16, 0, 1, Clock::new());
    sim.initialize(None);
    for _ in 0..4 {
        sim.step(None);
    }
    let t = sim.clock().snapshot();
    assert!(t.get(Category::HydroKernel) > 0.0);
    assert!(t.get(Category::HaloExchange) > 0.0);
    assert!(t.get(Category::Timestep) > 0.0);
    assert!(t.get(Category::Synchronize) > 0.0);
    assert!(t.get(Category::Regrid) > 0.0, "regrid at interval 4 must charge time");
    assert!(t.hydrodynamics() > t.get(Category::Timestep));
}

#[test]
fn distributed_triple_point_conserves_mass_and_energy() {
    // The paper's weak-scaling workload at miniature scale: three
    // device ranks, three levels, regridding live — conserved totals
    // must stay conserved through the whole machinery.
    use rbamr::problems::triple_point::{triple_point_regions, TRIPLE_POINT_EXTENT};
    let cluster = Cluster::new(Machine::titan());
    let results = cluster.run(3, |comm| {
        let mut c = HydroConfig { regrid_interval: 4, ..HydroConfig::default() };
        c.max_patch_size = 24;
        c.regrid.max_patch_size = 24;
        let mut sim = HydroSim::new(
            Machine::titan(),
            Placement::Device,
            comm.clock().clone(),
            TRIPLE_POINT_EXTENT,
            (56, 24),
            3,
            2,
            c,
            triple_point_regions(),
            comm.rank(),
            comm.size(),
        );
        sim.initialize(Some(&comm));
        let m0 = sim.summary(Some(&comm)).mass;
        for _ in 0..10 {
            sim.step(Some(&comm));
        }
        let s1 = sim.summary(Some(&comm));
        (m0, s1.mass, s1.total_energy())
    });
    let (m0, m1, e1) = results[0].value;
    // Initial mass: 1x3x1 + 6x1.5x1 + 6x1.5x0.125 = 13.125.
    assert!((m0 - 13.125).abs() < 1e-9, "bad initial mass {m0}");
    assert!(((m1 - m0) / m0).abs() < 1e-3, "mass drift {m0} -> {m1}");
    assert!(e1.is_finite() && e1 > 0.0);
    // All ranks agree on the reduced totals.
    for r in &results {
        assert!((r.value.1 - m1).abs() < 1e-12);
    }
}

/// Run a 2-rank Sod deck with full telemetry attached and return the
/// per-rank recorders.
fn traced_sod_run() -> Vec<rbamr::telemetry::Recorder> {
    use rbamr::telemetry::Recorder;
    let cluster = Cluster::new(Machine::ipa_gpu());
    let results = cluster.run(2, |mut comm| {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut sim =
            sod(Placement::Device, 48, 2, 16, comm.rank(), comm.size(), comm.clock().clone());
        sim.set_recorder(rec.clone());
        sim.initialize(Some(&comm));
        for _ in 0..6 {
            sim.step(Some(&comm)); // regrid_interval 4: one live regrid
        }
        rec
    });
    results.into_iter().map(|r| r.value).collect()
}

#[test]
fn causal_trace_of_distributed_sod_is_deterministic() {
    // Same seed (there is none — everything is virtual) → byte-identical
    // Chrome trace and causal bucket report.
    use rbamr::telemetry::{analyze, chrome_trace, report_text};
    let a = traced_sod_run();
    let b = traced_sod_run();
    assert_eq!(chrome_trace(&a), chrome_trace(&b), "chrome trace is not deterministic");
    let ra = report_text(&analyze(&a).expect("causal DAG must build"));
    let rb = report_text(&analyze(&b).expect("causal DAG must build"));
    assert_eq!(ra, rb, "causal report is not deterministic");
}

#[test]
fn causal_buckets_account_for_distributed_sod_wall_time() {
    // The tentpole's accounting identity on a real run: every recv edge
    // matched, per-rank buckets sum to the makespan, and per-step
    // per-rank buckets sum to the step window within 1%.
    use rbamr::telemetry::analyze;
    let recs = traced_sod_run();
    let analysis = analyze(&recs).expect("causal DAG must build");
    assert!(analysis.edges_matched > 0, "distributed Sod must exchange messages");
    assert_eq!(analysis.unmatched_sends, 0);
    for rb in &analysis.ranks {
        let err = (rb.buckets.total() - analysis.makespan).abs();
        assert!(
            err <= 0.01 * analysis.makespan,
            "rank {}: buckets sum {} vs makespan {}",
            rb.rank,
            rb.buckets.total(),
            analysis.makespan
        );
    }
    assert!(!analysis.steps.is_empty(), "step spans must be attributed");
    for step in &analysis.steps {
        for (rank, buckets) in &step.ranks {
            let err = (buckets.total() - step.window).abs();
            assert!(
                err <= 0.01 * step.window.max(1e-12),
                "step {} rank {rank}: buckets sum {} vs window {}",
                step.step,
                buckets.total(),
                step.window
            );
        }
    }
    // The critical path decomposes the makespan exactly.
    let cp = &analysis.critical_path;
    assert!((cp.compute + cp.comm - analysis.makespan).abs() <= 1e-9 * analysis.makespan);
}

#[test]
fn regridding_is_rank_count_invariant() {
    // The hierarchy structure (clustered boxes) produced by the
    // distributed regrid — gathering tags through the collective path —
    // must match the serial result exactly.
    let serial_boxes: Vec<_> = {
        let mut sim = sod(Placement::Host, 48, 2, 16, 0, 1, Clock::new());
        sim.initialize(None);
        sim.hierarchy().level(1).global_boxes().to_vec()
    };
    let cluster = Cluster::new(Machine::ipa_cpu_node());
    let results = cluster.run(4, |comm| {
        let mut sim =
            sod(Placement::Host, 48, 2, 16, comm.rank(), comm.size(), comm.clock().clone());
        sim.initialize(Some(&comm));
        sim.hierarchy().level(1).global_boxes().to_vec()
    });
    for r in &results {
        assert_eq!(r.value, serial_boxes, "rank {} sees different level-1 boxes", r.rank);
    }
}

#[test]
fn eight_ranks_step_and_reduce_at_the_log_depth_cost() {
    // More ranks than tier-1 otherwise runs (and than this sandbox has
    // workers), with a non-trivial ⌈log₂N⌉: two distributed Sod steps
    // must agree everywhere, then each explicit reduction must return
    // the value folded by hand and charge exactly the cost model. Run
    // under the default worker count and under netsim's deterministic
    // `workers = 1` round-robin: no rank may tell the schedules apart.
    use rbamr::netsim::ReduceSpec;
    const N: usize = 8;
    let run = |cluster: Cluster| {
        cluster.run(N, |comm| {
            let r = comm.rank();
            let mut sim = sod(Placement::Host, 48, 2, 16, r, N, comm.clock().clone());
            sim.initialize(Some(&comm));
            for _ in 0..2 {
                sim.try_step_capped(Some(&comm), None).expect("fault-free step");
            }
            let structure: Vec<u64> = (0..sim.hierarchy().num_levels())
                .map(|l| sim.hierarchy().structure_digest(l))
                .collect();

            let timestep = || comm.clock().snapshot().get(Category::Timestep);
            let assert_charged = |before: f64, spec: ReduceSpec| {
                let cost = comm.cost_model().allreduce(N as u32, spec.bytes);
                assert!(cost > 0.0);
                assert_eq!(
                    timestep().to_bits(),
                    (before + cost).to_bits(),
                    "rank {r}: {} must charge exactly allreduce({N}, {})",
                    spec.name,
                    spec.bytes
                );
            };
            let before = timestep();
            let timestep_scope = comm.clock().scope(Category::Timestep);
            let min = comm.allreduce_min(10.0 - r as f64);
            drop(timestep_scope);
            assert_charged(before, ReduceSpec::MIN_F64);
            assert_eq!(min, 10.0 - (N - 1) as f64);
            let before = timestep();
            let sum = comm.allreduce_sum(r as f64, Category::Timestep);
            assert_charged(before, ReduceSpec::SUM_F64);
            assert_eq!(sum, (N * (N - 1) / 2) as f64);
            let parts = comm.allgatherv(vec![r as u8; r].into(), Category::Regrid);
            let parts: Vec<Vec<u8>> = parts.iter().map(|p| p.to_vec()).collect();
            let expected: Vec<Vec<u8>> = (0..N).map(|q| vec![q as u8; q]).collect();
            assert_eq!(parts, expected, "rank {r}: allgatherv is indexed by rank");

            ((sim.steps_taken(), sim.time().to_bits(), structure), sim.state_field_digest())
        })
    };
    let results = run(Cluster::new(Machine::ipa_cpu_node()));
    let round_robin = run(Cluster::new(Machine::ipa_cpu_node()).with_workers(1));
    let (agreed, _digest) = &results[0].value;
    assert_eq!(agreed.0, 2);
    for (r, rr) in results.iter().zip(&round_robin) {
        assert_eq!(&r.value.0, agreed, "rank {} disagrees on steps/time/structure", r.rank);
        assert_eq!(
            (&r.value, &r.time),
            (&rr.value, &rr.time),
            "rank {}: state digest or virtual clock depends on the schedule",
            r.rank
        );
    }
}
