//! Distributed checkpoint/restore: a checkpoint saved by a multi-rank
//! run must restore into fresh simulations and replay the uninterrupted
//! trajectory bitwise.

use rbamr_hydro::{HydroConfig, HydroSim, Placement, RegionInit};
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::Machine;

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

fn build_at(clock: rbamr_perfmodel::Clock, rank: usize, nranks: usize) -> HydroSim {
    let mut config =
        HydroConfig { regrid_interval: 5, max_patch_size: 8, ..HydroConfig::default() };
    config.regrid.cluster.min_size = 4;
    HydroSim::new(
        Machine::ipa_cpu_node(),
        Placement::Host,
        clock,
        (1.0, 1.0),
        (24, 24),
        2,
        2,
        config,
        sod_regions(),
        rank,
        nranks,
    )
}

fn build(comm: &Comm) -> HydroSim {
    build_at(comm.clock().clone(), comm.rank(), comm.size())
}

/// Save at step 3, then compare the uninterrupted run against a fresh
/// sim restored from the checkpoint, step for step.
fn roundtrip() {
    let results = Cluster::new(Machine::ipa_cpu_node()).run(2, |comm| {
        let mut original = build(&comm);
        original.initialize(Some(&comm));
        original.run_steps(3, Some(&comm));
        let ckpt = original
            .try_save_checkpoint(Some(&comm))
            .expect("a fault-free distributed save succeeds");
        let step_at_save = original.steps_taken();
        let time_at_save = original.time();

        // Restore into a simulation that never ran a step.
        let mut restored = build(&comm);
        restored
            .try_restore_checkpoint(&ckpt, Some(&comm))
            .expect("a just-saved checkpoint restores cleanly");
        assert_eq!(restored.steps_taken(), step_at_save);
        assert_eq!(restored.time(), time_at_save);
        assert_eq!(
            restored.hierarchy().num_levels(),
            original.hierarchy().num_levels(),
            "restore must rebuild the full hierarchy"
        );

        // The persisted fields replay the uninterrupted trajectory
        // bitwise. (Digests straight after restore are not compared:
        // the re-priming fill refreshes ghost cells the running sim
        // had left stale, and the first step's fill erases the
        // difference anyway.)
        let mut digests = Vec::new();
        for _ in 0..4 {
            original.run_steps(1, Some(&comm));
            restored.run_steps(1, Some(&comm));
            digests.push((original.state_field_digest(), restored.state_field_digest()));
        }
        digests
    });
    for r in results {
        for (step, (original, restored)) in r.value.into_iter().enumerate() {
            assert_eq!(
                original,
                restored,
                "rank {}: restored run diverges {} steps after the checkpoint",
                r.rank,
                step + 1
            );
        }
    }
}

#[test]
fn replicated_roundtrip_replays_bitwise_at_two_ranks() {
    roundtrip();
}

/// The elastic-recovery acceptance at the checkpoint layer: a manifest
/// written by a 2-rank run is identical on every rank, restores into a
/// 1-rank simulation, and replays the trajectory a fresh 1-rank run
/// produces — bitwise.
fn shrink_restore() {
    use rbamr_amr::restart::Database;

    let results = Cluster::new(Machine::ipa_cpu_node()).run(2, |comm| {
        let mut sim = build(&comm);
        sim.initialize(Some(&comm));
        sim.run_steps(3, Some(&comm));
        sim.try_save_checkpoint(Some(&comm))
            .expect("a fault-free distributed save succeeds")
            .to_bytes()
    });
    assert_eq!(
        results[0].value, results[1].value,
        "the global manifest must be identical on every rank"
    );
    let ckpt = Database::from_bytes(&results[0].value).expect("manifest decodes");

    // Fresh 1-rank reference trajectory.
    let mut fresh = build_at(rbamr_perfmodel::Clock::new(), 0, 1);
    fresh.initialize(None);
    fresh.run_steps(3, None);

    // Restore the 2-rank checkpoint into a 1-rank simulation.
    let mut restored = build_at(rbamr_perfmodel::Clock::new(), 0, 1);
    restored.try_restore_checkpoint(&ckpt, None).expect("a 2-rank manifest restores at 1 rank");
    assert_eq!(restored.steps_taken(), fresh.steps_taken());

    // Digests straight after restore are not compared (re-priming
    // refreshes ghosts the running sim left stale); after each
    // subsequent step the persisted fields must match bitwise.
    for step in 0..4 {
        fresh.run_steps(1, None);
        restored.run_steps(1, None);
        assert_eq!(
            fresh.state_field_digest(),
            restored.state_field_digest(),
            "shrunk restore diverges {} steps after the checkpoint",
            step + 1
        );
    }
}

#[test]
fn replicated_two_rank_checkpoint_restores_at_one_rank() {
    shrink_restore();
}

/// Per-rank digests of `steps` further steps, starting either from a
/// fresh `m`-rank initialisation or from `ckpt` restored at `m` ranks.
fn trajectory(m: usize, ckpt: Option<Vec<u8>>, steps: usize) -> Vec<Vec<u64>> {
    use rbamr_amr::restart::Database;

    Cluster::new(Machine::ipa_cpu_node())
        .run(m, move |comm| {
            let mut sim = build(&comm);
            match &ckpt {
                Some(bytes) => {
                    let db = Database::from_bytes(bytes).expect("manifest decodes");
                    sim.try_restore_checkpoint(&db, Some(&comm))
                        .expect("a rank-count-independent manifest restores at any rank count");
                }
                None => {
                    sim.initialize(Some(&comm));
                    sim.run_steps(3, Some(&comm));
                }
            }
            let mut digests = Vec::with_capacity(steps);
            for _ in 0..steps {
                sim.run_steps(1, Some(&comm));
                digests.push(sim.state_field_digest());
            }
            digests
        })
        .into_iter()
        .map(|r| r.value)
        .collect()
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The rank-count-independence property behind elastic recovery: a
    /// checkpoint saved at step 3 by an N-rank run restores at ANY
    /// smaller rank count M (1 ≤ M < N), and
    /// the restored trajectory's `state_field_digest` matches a fresh
    /// M-rank run bitwise on every rank, step for step.
    #[test]
    fn checkpoint_at_n_ranks_restores_bitwise_at_any_fewer(
        n in 2usize..6,
        m_sel in 0usize..4,
    ) {
        let m = 1 + m_sel % (n - 1);

        let saved = Cluster::new(Machine::ipa_cpu_node())
            .run(n, move |comm| {
                let mut sim = build(&comm);
                sim.initialize(Some(&comm));
                sim.run_steps(3, Some(&comm));
                sim.try_save_checkpoint(Some(&comm))
                    .expect("a fault-free distributed save succeeds")
                    .to_bytes()
            });
        for r in &saved[1..] {
            prop_assert_eq!(
                &r.value, &saved[0].value,
                "the global manifest must be identical on every saving rank"
            );
        }

        let steps = 3;
        let fresh = trajectory(m, None, steps);
        let restored = trajectory(m, Some(saved[0].value.clone()), steps);
        for rank in 0..m {
            prop_assert_eq!(
                &restored[rank], &fresh[rank],
                "{}-rank checkpoint restored at {} ranks diverges on rank {}",
                n, m, rank
            );
        }
    }
}
