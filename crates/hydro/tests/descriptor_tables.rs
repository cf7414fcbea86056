//! Descriptor tables cross PCIe once per build pass. On the three-level
//! triple-point deck, at 1 and 4 ranks, a regrid step uploads one table
//! per rebuilt level — each regrid transfer is a pass of its own — and
//! the step after it one more, for the rebuild's pass, at its first
//! fill, as does the first step for its own pass; a regrid that keeps
//! every schedule uploads nothing after it. Between
//! steps the device holds the patch data, the message staging and one
//! grow-only table, never a table of a schedule out of use. The host
//! placement renders no table at all.

#[allow(dead_code)] // one deck of the two, and no regrid count
mod regrid_decks;

use rbamr_amr::transfer::DescriptorWords;
use rbamr_amr::{DataFactory, DescriptorTable, HostDataFactory, PassTables, Patch};
use rbamr_amr::{VariableId, VariableRegistry};
use rbamr_geometry::GBox;
use rbamr_hydro::{Fields, HydroSim, Placement};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};
use rbamr_telemetry::Recorder;
use regrid_decks::{Deck, REGRID_EVERY};
use std::sync::Arc;

/// Six regrids: the deck's shock rebuilds levels at some and leaves the
/// mesh alone at others, on every rank.
const STEPS: usize = 12;

/// Every level above 0: its boxes and owners.
type Structure = Vec<(Vec<GBox>, Vec<usize>)>;

fn structure(sim: &HydroSim) -> Structure {
    let h = sim.hierarchy();
    let level = |l| (h.level(l).global_boxes().to_vec(), h.level(l).owners().to_vec());
    (1..h.num_levels()).map(level).collect()
}

/// The levels of `new` a regrid from `old` rebuilt: each is one regrid
/// transfer.
fn rebuilt(old: &Structure, new: &Structure) -> u64 {
    new.iter().enumerate().filter(|&(l, level)| old.get(l) != Some(level)).count() as u64
}

/// Device bytes of every local patch's data.
fn patch_bytes(sim: &HydroSim) -> u64 {
    let mut registry = VariableRegistry::new(Arc::new(HostDataFactory::new()));
    Fields::register(&mut registry);
    let vars: Vec<_> = (0..registry.len()).map(VariableId).collect();
    let cells = |p: &Patch| vars.iter().map(|&v| p.data(v).data_box().num_cells()).sum::<i64>();
    let h = sim.hierarchy();
    let patches = (0..h.num_levels()).flat_map(|l| h.level(l).local());
    8 * patches.map(cells).sum::<i64>() as u64
}

/// Per rank: whether some regrid rebuilt a level, and whether some
/// regrid kept every level.
fn tables_cross_once_per_pass(nranks: usize) -> Vec<(bool, bool)> {
    let results = Cluster::new(Machine::ipa_gpu()).run(nranks, |mut comm| {
        let rank = comm.rank();
        let rec = Recorder::new(rank, comm.clock().clone());
        comm.set_recorder(rec.clone());
        let mut sim = Deck::TriplePoint.sim(Placement::Device, &comm);
        sim.set_recorder(rec.clone());
        let comm = (nranks > 1).then_some(&comm);
        sim.initialize(comm);
        let device = sim.device().expect("a device run").clone();
        let uploads = || rec.counter("device.table_uploads");
        // The first step plans the windows initialisation did not run.
        let (mut seen, mut rebuilt_before) = ((false, false), true);
        for step in 1..=STEPS {
            let (before, old) = (uploads(), structure(&sim));
            sim.step(comm);
            let new = structure(&sim);
            let what = format!("{nranks} ranks, rank {rank}, step {step}");
            // One upload per regrid transfer, and one for the rebuild's
            // pass at the first fill after it — none after a regrid that
            // kept every schedule.
            let transfers = rebuilt(&old, &new);
            let expected = transfers + u64::from(rebuilt_before);
            assert_eq!(uploads() - before, expected, "{what}: table uploads");
            if step % REGRID_EVERY == 0 {
                seen = (seen.0 || new != old, seen.1 || new == old);
            }
            rebuilt_before = new != old;
            // The table grows to the largest pass and holds nothing
            // else: what the device holds beyond it and the patches is
            // the staging, a power of two of values, which one rank
            // never needs.
            let table = rec.gauges().get("device.table_bytes").copied().unwrap_or(0);
            let staging = device.stats().allocated_bytes - patch_bytes(&sim) - table;
            let values = staging / 8;
            assert_eq!(staging % 8, 0, "{what}: {staging} B besides the table");
            assert!(values == 0 || (nranks > 1 && values.is_power_of_two()), "{what}: {staging}");
        }
        seen
    });
    results.into_iter().map(|r| r.value).collect()
}

#[test]
fn descriptor_tables_cross_once_per_build_pass() {
    for nranks in [1, 4] {
        let seen = tables_cross_once_per_pass(nranks);
        assert!(seen.iter().all(|s| s.0), "{nranks} ranks: some regrid must rebuild a level");
        assert!(seen.iter().all(|s| s.1), "{nranks} ranks: some regrid must keep the mesh");
    }
}

/// A table nothing may render.
struct Unrenderable;

impl DescriptorTable for Unrenderable {
    fn describe(&self, _: &mut DescriptorWords<'_>) {
        panic!("the host placement rendered a descriptor table");
    }
}

#[test]
fn the_host_placement_renders_no_table() {
    let mut tables = PassTables::default();
    tables.push(Arc::new(Unrenderable));
    HostDataFactory::new().upload_tables(&tables, Category::HaloExchange);
}
