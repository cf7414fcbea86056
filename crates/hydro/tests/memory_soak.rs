//! Memory soak: host memory follows the mesh, not the run length.
//!
//! A Sedov blast on 16² patches, three levels, regridded every second
//! step for 300 steps on the device placement — the front moves at
//! nearly every regrid, so nearly every regrid replaces the schedules
//! of two levels — once on 1 rank and once on 4. A counting global
//! allocator gives the live heap of the process (the simulated device
//! memory included); the test binary holds this one test, so nothing
//! else allocates while it runs. (About 10 s optimised and over a
//! minute in the dev profile, so only `cargo test --release` runs it.)
//!
//! * Live heap per mesh cell after regrid 150 is within 15 % of the
//!   value after regrid 50 (each the mean of the ten regrids up to it):
//!   whatever is kept per regrid — schedules, plans, tables — would
//!   show as growth over the 100 regrids between. The hot spot is wide
//!   enough that the refined region is a ring by regrid 40: from there
//!   on cells per patch, and with it schedule bytes per cell, hold
//!   still, and what is left to vary is whether the cache still holds
//!   the generation the last regrid replaced (±10 %).
//! * The schedule cache never holds more than the schedules in use and
//!   the generation they replaced, and every rebuild pass makes exactly
//!   its 7 fill lookups per level and one sync lookup per fine level.
//! * Both rank counts end on the same boxes, level for level.

use rbamr_geometry::Fnv64;
use rbamr_hydro::{HydroConfig, HydroSim, Placement, RegionInit};
use rbamr_netsim::Cluster;
use rbamr_perfmodel::{Category, Machine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and guards no
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STEPS: usize = 300;
const REGRID_EVERY: usize = 2;
const LEVELS: usize = 3;

fn sedov() -> Vec<RegionInit> {
    let still = |rect, energy| RegionInit { rect, density: 1.0, energy, xvel: 0.0, yvel: 0.0 };
    vec![still((0.0, 0.0, 1.0, 1.0), 1e-3), still((0.38, 0.38, 0.62, 0.62), 8.0)]
}

/// What rank 0 saw after one regrid.
struct AfterRegrid {
    live_bytes: usize,
    cells: i64,
}

/// Run the soak on `ranks` ranks; returns rank 0's per-regrid readings
/// and the digest of the final boxes of every level.
fn soak(ranks: usize) -> (Vec<AfterRegrid>, Vec<u64>) {
    let results = Cluster::new(Machine::ipa_gpu()).run(ranks, move |comm| {
        let mut config =
            HydroConfig { regrid_interval: 0, max_patch_size: 16, ..HydroConfig::default() };
        config.regrid.max_patch_size = 16;
        let mut sim = HydroSim::new(
            Machine::ipa_gpu(),
            Placement::Device,
            comm.clock().clone(),
            (1.0, 1.0),
            (48, 48),
            LEVELS,
            2,
            config,
            sedov(),
            comm.rank(),
            comm.size(),
        );
        let comm = (comm.size() > 1).then_some(&comm);
        sim.initialize(comm);
        let lookups_of = |levels: usize| 7 * levels + levels - 1;
        let cache = sim.schedule_cache();
        let mut lookups = cache.hits() + cache.misses();
        let mut generation = lookups_of(sim.hierarchy().num_levels());
        let mut after = Vec::new();
        for step in 1..=STEPS {
            sim.step(comm);
            if step % REGRID_EVERY != 0 {
                continue;
            }
            sim.regrid(comm);
            let (h, cache) = (sim.hierarchy(), sim.schedule_cache());
            let replaced = std::mem::replace(&mut generation, lookups_of(h.num_levels()));
            lookups += generation as u64;
            assert_eq!(cache.hits() + cache.misses(), lookups, "step {step}: lookups per pass");
            assert!(
                cache.len() <= replaced + generation,
                "step {step}: {} schedules cached for generations of {replaced} and {generation}",
                cache.len()
            );
            // Every rank has finished its regrid before rank 0 reads
            // the process-wide counter.
            if let Some(comm) = comm {
                comm.barrier(Category::Other);
            }
            after.push(AfterRegrid {
                live_bytes: LIVE.load(Ordering::Relaxed),
                cells: h.total_cells(),
            });
        }
        let h = sim.hierarchy();
        let boxes = (0..h.num_levels()).map(|l| {
            let mut digest = Fnv64::new();
            h.level(l).records().boxes().iter().for_each(|b| digest.write_gbox(*b));
            digest.finish()
        });
        (after, boxes.collect::<Vec<u64>>())
    });
    results.into_iter().next().expect("rank 0").value
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimised; runs under `cargo test --release`")]
fn live_heap_follows_the_mesh_over_150_regrids() {
    let mut finals = Vec::new();
    for ranks in [1, 4] {
        let before = LIVE.load(Ordering::Relaxed);
        let (after, boxes) = soak(ranks);
        assert_eq!(after.len(), STEPS / REGRID_EVERY);
        let per_cell = |regrid: usize| {
            let window = &after[regrid - 10..regrid];
            let of = |a: &AfterRegrid| a.live_bytes.saturating_sub(before) as f64 / a.cells as f64;
            window.iter().map(of).sum::<f64>() / window.len() as f64
        };
        let (early, late) = (per_cell(50), per_cell(150));
        assert!(
            (late / early - 1.0).abs() <= 0.15,
            "{ranks} rank(s): {early:.0} live bytes per cell around regrid 50 ({} cells), \
             {late:.0} around regrid 150 ({} cells)",
            after[49].cells,
            after[149].cells
        );
        println!("{ranks} rank(s): {early:.0} -> {late:.0} live bytes per cell");
        finals.push(boxes);
    }
    assert_eq!(finals[0], finals[1], "1 and 4 ranks end on different boxes");
}
