//! Telemetry counter integration tests for the fused transfer path:
//! what a `RefineSchedule` fill — and a regrid's solution transfer,
//! which runs the same stages — counts on device data: launches and
//! PCIe transfers per stage, `pack.bytes` / `unpack.bytes`; and what a
//! level-wide tag compression counts. They must equal the analytically
//! known traffic of a small configuration, and must not grow with the
//! number of overlaps, of peers or of patches.

use rbamr_amr::cluster::split_to_max;
use rbamr_amr::ops::{
    ConservativeCellRefine, LinearNodeRefine, RefineOperator, VolumeWeightedCoarsen,
};
use rbamr_amr::regrid::{CellTagger, TransferSpec};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::{
    GridGeometry, HostDataFactory, PassTables, Patch, PatchData, PatchHierarchy, PhysicalBoundary,
    RefineSchedule, RegridParams, Regridder, ScheduleBuild, TagBitmap, VariableId,
    VariableRegistry,
};
use rbamr_device::{Device, DeviceError};
use rbamr_geometry::{copy_overlap, BoxList, Centring, GBox, IntVector};
use rbamr_gpu_amr::{compress_tags, compress_tags_many, DeviceData, DeviceDataFactory, TagField};
use rbamr_netsim::{Cluster, Comm, CommError, FaultKind, FaultPlan, FaultRule};
use rbamr_perfmodel::{Category, CostModel, Machine};
use rbamr_telemetry::Recorder;
use std::sync::Arc;

const CAT: Category = Category::HaloExchange;

fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
    GBox::from_coords(x0, y0, x1, y1)
}

/// Boundary conditions belong to the application; these tests count the
/// framework's traffic alone.
struct NoBoundary;

impl PhysicalBoundary for NoBoundary {
    fn fill(&self, _: &mut Patch, _: VariableId, _: &BoxList, _: GBox, _: f64) {}
}

/// One rank of a device job: a 16x8 coarse level cut into two 8x8
/// patches, one per rank, optionally under one 16x8 fine patch per rank;
/// a single cell variable with two ghost cells, every value 1 + rank.
struct Rank {
    h: PatchHierarchy,
    reg: VariableRegistry,
    var: VariableId,
    device: Device,
    rec: Recorder,
}

impl Rank {
    fn new(comm: &Comm, levels: usize) -> Self {
        let owners: Vec<usize> = (0..2).map(|i| i % comm.size()).collect();
        let mut r = Self::with_level0(comm, vec![b(0, 0, 8, 8), b(8, 0, 16, 8)], owners.clone());
        if levels == 2 {
            r.h.set_level(1, vec![b(8, 4, 16, 12), b(16, 4, 24, 12)], owners, &r.reg);
            r.init_values(1, comm.rank());
        }
        r
    }

    /// Level 0 is the row of 8x8 `boxes` owned by `owners`.
    fn with_level0(comm: &Comm, boxes: Vec<GBox>, owners: Vec<usize>) -> Self {
        let device = Device::new(Machine::ipa_gpu(), comm.clock().clone());
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        device.set_recorder(rec.clone());
        let mut reg = VariableRegistry::new(Arc::new(DeviceDataFactory::new(device.clone())));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 8 * boxes.len() as i64, 8)),
            IntVector::uniform(2),
            2,
            comm.rank(),
            comm.size(),
        );
        h.set_level(0, boxes, owners, &reg);
        let mut r = Self { h, reg, var, device, rec };
        r.init_values(0, comm.rank());
        r
    }

    fn init_values(&mut self, level: usize, rank: usize) {
        for p in self.h.level_mut(level).local_mut() {
            let d: &mut DeviceData<f64> = p.data_mut(self.var).as_any_mut().downcast_mut().unwrap();
            let image = vec![1.0 + rank as f64; d.data_box().num_cells() as usize];
            d.upload_all(&image, Category::Other);
        }
    }

    fn spec(&self, interpolate: bool) -> [FillSpec; 1] {
        let op: Arc<dyn RefineOperator> = Arc::new(ConservativeCellRefine);
        [FillSpec { var: self.var, refine_op: interpolate.then_some(op) }]
    }

    /// The fill schedule of `level` built in a build pass of its own,
    /// and the pass's tables.
    fn pass(&self, level: usize, interpolate: bool) -> (Arc<RefineSchedule>, PassTables) {
        let mut build = ScheduleBuild::indexed();
        let sched = build.refine(&self.h, &self.reg, level, &self.spec(interpolate));
        (sched, build.into_tables())
    }

    /// What the first fill after a pass does first: make the pass's
    /// tables resident.
    fn upload(&self, tables: &PassTables) {
        self.reg.factory().upload_tables(tables, CAT);
    }

    fn fill(&mut self, sched: &RefineSchedule, comm: &Comm) -> Result<(), CommError> {
        sched.try_fill(&mut self.h, &self.reg, &NoBoundary, Some(comm), 0.0, CAT)
    }

    fn launches(&self, name: &str) -> u64 {
        self.rec.counter(&format!("device.kernel_launches.{name}"))
    }

    /// The values of local patch 0 of `level`.
    fn values(&self, level: usize) -> (GBox, Vec<f64>) {
        let d: &DeviceData<f64> =
            self.h.level(level).local()[0].data(self.var).as_any().downcast_ref().unwrap();
        (d.data_box(), d.download_all(Category::Other))
    }

    /// Per local level-0 patch of the [`chain`], what its left and right
    /// ghost strips hold (`None` at the ends of the row).
    fn chain_ghosts(&self) -> Vec<[Option<f64>; 2]> {
        let patches = self.h.level(0).local().iter();
        patches
            .map(|p| {
                let d: &DeviceData<f64> = p.data(self.var).as_any().downcast_ref().unwrap();
                let (dbox, cells, values) = (d.data_box(), p.cell_box(), d.download_all(CAT));
                [cells.lo.x - 1, cells.hi.x].map(|x| {
                    (0..8 * CHAIN.len() as i64)
                        .contains(&x)
                        .then(|| values[dbox.offset_of(IntVector::new(x, 3))])
                })
            })
            .collect()
    }
}

/// Owners of a row of five 8x8 patches: rank 0 has one peer, ranks 2
/// and 3 two each, rank 1 three.
const CHAIN: [usize; 5] = [0, 1, 2, 3, 1];

fn chain(comm: &Comm) -> Rank {
    let boxes = (0..CHAIN.len() as i64).map(|i| b(8 * i, 0, 8 * i + 8, 8)).collect();
    Rank::with_level0(comm, boxes, CHAIN.to_vec())
}

/// What [`Rank::chain_ghosts`] reads on `rank` after a whole fill: every
/// strip holds its neighbour's owner's value.
fn chain_filled(rank: usize) -> Vec<[Option<f64>; 2]> {
    let neighbour = |i: usize| CHAIN.get(i).map(|&owner| 1.0 + owner as f64);
    let mine = (0..CHAIN.len()).filter(|&i| CHAIN[i] == rank);
    mine.map(|i| [i.checked_sub(1).and_then(neighbour), neighbour(i + 1)]).collect()
}

/// The peers of `rank` in the [`chain`]: the other owners next to its
/// patches.
fn chain_peers(rank: usize) -> u64 {
    let mut peers: Vec<usize> = (0..CHAIN.len())
        .filter(|&i| CHAIN[i] == rank)
        .flat_map(|i| [i.wrapping_sub(1), i + 1])
        .filter_map(|j| CHAIN.get(j).copied())
        .filter(|&owner| owner != rank)
        .collect();
    peers.sort_unstable();
    peers.dedup();
    peers.len() as u64
}

#[test]
fn sibling_fill_counts_one_launch_and_one_transfer_per_stage() {
    Cluster::new(Machine::ipa_gpu()).run(2, |comm| {
        let mut r = Rank::new(&comm, 1);
        let (sched, tables) = r.pass(0, false);
        assert_eq!(sched.num_messages(), (1, 1));
        r.device.reset_transfer_stats();
        r.upload(&tables);
        r.fill(&sched, &comm).unwrap();

        // The sibling halo: the 2-column x 8-row strip of the
        // neighbour's interior, 16 cells each way.
        let halo_bytes = 2 * 8 * 8;
        assert_eq!(r.rec.counter("pack.bytes"), halo_bytes);
        assert_eq!(r.rec.counter("unpack.bytes"), halo_bytes);
        assert_eq!((r.launches("pack"), r.launches("unpack")), (1, 1));
        assert_eq!(r.launches("copy-region"), 0, "no same-rank neighbour");
        let first = r.device.stats();
        assert_eq!((first.d2h_transfers, first.d2h_bytes), (1, halo_bytes));
        // H2D: the message, and once per pass its descriptor tables.
        assert_eq!(first.h2d_transfers, 2);
        let table_bytes = first.h2d_bytes - halo_bytes;
        assert!(
            table_bytes > 0 && table_bytes.is_multiple_of(4),
            "descriptor words: {table_bytes} B"
        );

        // A steady fill: the same traffic again, nothing uploaded for
        // the pass and nothing allocated (staging persists).
        let allocs = r.rec.counter("device.allocs");
        r.fill(&sched, &comm).unwrap();
        let second = r.device.stats();
        assert_eq!(second.d2h_transfers, 2);
        assert_eq!((second.h2d_transfers, second.h2d_bytes), (3, first.h2d_bytes + halo_bytes));
        assert_eq!(second.kernel_launches, 2 * first.kernel_launches);
        assert_eq!(r.rec.counter("device.allocs"), allocs);

        let (dbox, values) = r.values(0);
        let ghost = if comm.rank() == 0 { IntVector::new(9, 3) } else { IntVector::new(6, 3) };
        assert_eq!(values[dbox.offset_of(ghost)], 2.0 - comm.rank() as f64);
    });
}

#[test]
fn a_stage_costs_one_launch_and_one_transfer_whatever_its_peer_count() {
    let results = Cluster::new(Machine::ipa_gpu()).run(4, |mut comm| {
        let mut r = chain(&comm);
        comm.set_recorder(r.rec.clone());
        let peers = chain_peers(comm.rank());
        let (sched, tables) = r.pass(0, false);
        assert_eq!(sched.num_messages(), (peers as usize, peers as usize));
        r.device.reset_transfer_stats();
        r.upload(&tables);
        r.fill(&sched, &comm).unwrap();
        r.fill(&sched, &comm).unwrap();

        // Two fills: one pack + one D2H and one H2D + one unpack each,
        // one message per peer, and the pass's tables once.
        let what = format!("rank {} ({peers} peers)", comm.rank());
        assert_eq!((r.launches("pack"), r.launches("unpack")), (2, 2), "{what}");
        assert_eq!(r.rec.counter("net.sends"), 2 * peers, "{what}");
        let stats = r.device.stats();
        assert_eq!((stats.d2h_transfers, stats.h2d_transfers), (2, 3), "{what}");
        // Every adjacency is a 2-column x 8-row strip each way.
        let strips = chain_filled(comm.rank()).iter().flatten().flatten().count() as u64;
        let sent = 2 * strips * 2 * 8 * 8;
        assert_eq!(r.rec.counter("net.send_bytes"), sent, "{what}");
        assert_eq!((r.rec.counter("pack.bytes"), stats.d2h_bytes), (sent, sent), "{what}");
        assert_eq!(r.rec.counter("unpack.bytes"), sent, "{what}");
        assert_eq!(r.chain_ghosts(), chain_filled(comm.rank()), "{what}");
        peers
    });
    let mut peers: Vec<u64> = results.into_iter().map(|r| r.value).collect();
    peers.sort_unstable();
    assert_eq!(peers, [1, 2, 2, 3], "the layout must cover 1, 2 and 3 peers");
}

#[test]
fn a_stage_without_peers_packs_and_transfers_nothing() {
    Cluster::new(Machine::ipa_gpu()).run(1, |comm| {
        let mut r = Rank::new(&comm, 2);
        let mut build = ScheduleBuild::indexed();
        let fill = build.refine(&r.h, &r.reg, 1, &r.spec(true));
        let spec = CoarsenSpec { var: r.var, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] };
        let sync = build.coarsen(&r.h, &r.reg, 1, &[spec]);
        let tables = build.into_tables();
        r.device.reset_transfer_stats();
        r.upload(&tables);
        r.fill(&fill, &comm).unwrap();
        sync.try_run(&mut r.h, &r.reg, Some(&comm), CAT).unwrap();
        assert!(r.launches("refine-interp") == 1 && r.launches("coarsen-project") == 1);
        assert_eq!((r.launches("pack"), r.launches("unpack")), (0, 0));
        // Nothing crosses PCIe but the pass's descriptor tables, both
        // schedules' in one upload.
        let first = r.device.stats();
        assert_eq!((first.d2h_transfers, first.h2d_transfers), (0, 1));
        r.upload(&tables);
        r.fill(&fill, &comm).unwrap();
        sync.try_run(&mut r.h, &r.reg, Some(&comm), CAT).unwrap();
        let steady = r.device.stats();
        assert_eq!((steady.d2h_transfers, steady.h2d_transfers), (0, 1));
    });
}

#[test]
fn interpolating_fill_obeys_the_per_stage_launch_law() {
    Cluster::new(Machine::ipa_gpu()).run(2, |comm| {
        let mut r = Rank::new(&comm, 2);
        let (sched, tables) = r.pass(1, true);
        let (sent, received) = sched.num_messages();
        assert_eq!((sent, received), (1, 1), "each rank needs the other's coarse patch");
        r.device.reset_transfer_stats();
        r.upload(&tables);
        r.fill(&sched, &comm).unwrap();
        assert_eq!(r.launches("pack"), sent as u64);
        assert_eq!(r.launches("unpack"), received as u64);
        assert_eq!(r.launches("copy-region"), 0, "the captures ride the pack launch");
        // The coarse level covers every scratch value: nothing to extend.
        assert_eq!(r.launches("extend-uncovered"), 0);
        assert_eq!(r.launches("refine-interp"), 1);
        // Residency: packed values out, packed values and the pass's
        // descriptor tables in — nothing else crosses the bus.
        let stats = r.device.stats();
        assert_eq!((stats.d2h_transfers, stats.d2h_bytes), (1, r.rec.counter("pack.bytes")));
        assert_eq!(stats.h2d_transfers, 2);
        assert!(stats.h2d_bytes > r.rec.counter("unpack.bytes"));
        // Both fine patches see the coarse field 1 + owner through the
        // interpolant: constant per coarse patch, so exactly reproduced
        // away from the coarse patches' shared edge.
        let (dbox, values) = r.values(1);
        let (near, far) = if comm.rank() == 0 { (7, 17) } else { (25, 14) };
        assert_eq!(values[dbox.offset_of(IntVector::new(near, 8))], 1.0 + comm.rank() as f64);
        assert_eq!(values[dbox.offset_of(IntVector::new(far, 13))], 2.0 - comm.rank() as f64);
    });
}

/// Owners of a row of three 8x8 patches: rank 0's two neighbours copy
/// between themselves, and both ranks send.
const COPY_AND_SEND: [usize; 3] = [0, 0, 1];

/// A window that both copies and sends is one send stage. At two ranks
/// over [`COPY_AND_SEND`], rank 0's fill pays one `pack` launch (its
/// copies inside, no `copy-region`) and one `unpack` on the device; on
/// a host whose every loop costs 1 s and whose network is free, each
/// rank's fill costs 2 s: one loop for the copies and packs, one for
/// the unpack.
#[test]
fn a_window_that_copies_and_sends_is_one_launch_and_one_loop() {
    let boxes = || (0..3).map(|i| b(8 * i, 0, 8 * i + 8, 8)).collect::<Vec<GBox>>();
    Cluster::new(Machine::ipa_gpu()).run(2, move |comm| {
        let mut r = Rank::with_level0(&comm, boxes(), COPY_AND_SEND.to_vec());
        let (sched, tables) = r.pass(0, false);
        let copies = sched.plan_digest().iter().filter(|l| l.starts_with("copy")).count();
        assert_eq!((copies > 0, sched.num_messages()), (comm.rank() == 0, (1, 1)));
        r.upload(&tables);
        r.fill(&sched, &comm).unwrap();
        let launches = ["pack", "copy-region", "unpack"].map(|name| r.launches(name));
        assert_eq!(launches, [1, 0, 1], "rank {}", comm.rank());
        assert_eq!(r.device.stats().kernel_launches, 2, "rank {}", comm.rank());
    });

    let mut machine = Machine::ipa_cpu_node();
    machine.host.call_overhead = 1.0;
    machine.host.mem_bandwidth = f64::INFINITY;
    machine.host.flops = f64::INFINITY;
    machine.network.latency = 0.0;
    machine.network.bandwidth = f64::INFINITY;
    let cost = Arc::new(CostModel::new(machine.clone()));
    let results = Cluster::new(machine).run(2, move |comm| {
        let factory = HostDataFactory::with_costs(comm.clock().clone(), Arc::clone(&cost));
        let mut reg = VariableRegistry::new(Arc::new(factory));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(b(0, 0, 24, 8)),
            IntVector::uniform(2),
            1,
            comm.rank(),
            comm.size(),
        );
        h.set_level(0, boxes(), COPY_AND_SEND.to_vec(), &reg);
        let spec = [FillSpec { var, refine_op: None }];
        let sched = ScheduleBuild::indexed().refine(&h, &reg, 0, &spec);
        let before = comm.clock().snapshot();
        sched.try_fill(&mut h, &reg, &NoBoundary, Some(&comm), 0.0, CAT).unwrap();
        comm.clock().snapshot().since(&before).get(CAT)
    });
    let seconds: Vec<f64> = results.into_iter().map(|r| r.value).collect();
    assert_eq!(seconds, [2.0, 2.0], "one send loop and one unpack loop per rank");
}

#[test]
fn scratch_extension_is_one_launch_when_some_scratch_value_is_uncovered() {
    Cluster::new(Machine::ipa_gpu()).run(1, |comm| {
        let mut r = Rank::new(&comm, 1);
        // Three fine patches: the outer two reach one coarse cell past
        // the domain's left and right edges, the middle one is covered.
        let fine = vec![b(0, 4, 8, 12), b(8, 4, 16, 12), b(24, 4, 32, 12)];
        r.h.set_level(1, fine, vec![0; 3], &r.reg);
        r.init_values(1, comm.rank());
        let sched = RefineSchedule::new(&r.h, &r.reg, 1, &r.spec(true));
        assert_eq!(sched.num_interp_jobs(), 3);
        r.fill(&sched, &comm).unwrap();
        assert_eq!(r.launches("extend-uncovered"), 1);
        assert_eq!(r.launches("refine-interp"), 1);
        // The same fill again: the same single launch.
        r.fill(&sched, &comm).unwrap();
        assert_eq!(r.launches("extend-uncovered"), 2);
    });
}

/// Rank 0's device fails its `n`-th PCIe transfer of the first fill
/// after a pass (0 is the pass's descriptor upload; 1 the pack's D2H; 2
/// the unpack's H2D). Per rank:
/// the fill's outcome, the ghost it left and what its device latched.
fn fill_with_failed_transfer(n: u64) -> Vec<(Result<(), CommError>, f64, Option<DeviceError>)> {
    let plan = FaultPlan::new(5, vec![FaultRule::once_on(FaultKind::CopyFail, 0, n)]);
    let results = Cluster::new(Machine::ipa_gpu()).with_fault_plan(plan).run(2, |comm| {
        let mut r = Rank::new(&comm, 1);
        r.device.set_fault_injector(Arc::clone(comm.fault_injector().unwrap()));
        let (sched, tables) = r.pass(0, false);
        r.upload(&tables);
        let outcome = r.fill(&sched, &comm);
        let latched = r.device.take_injected_fault();
        let (dbox, values) = r.values(0);
        let ghost = if comm.rank() == 0 { IntVector::new(9, 3) } else { IntVector::new(6, 3) };
        (comm.rank(), outcome, values[dbox.offset_of(ghost)], latched)
    });
    let mut out: Vec<_> = results.into_iter().map(|r| r.value).collect();
    out.sort_by_key(|&(rank, ..)| rank);
    out.into_iter().map(|(_, outcome, ghost, latched)| (outcome, ghost, latched)).collect()
}

/// Whether `latched` is a failed PCIe hop in `direction`.
fn is_transfer_fault(latched: &Option<DeviceError>, direction: &str) -> bool {
    matches!(latched, Some(DeviceError::TransferFault { direction: d, .. }) if *d == direction)
}

type Ghosts = Vec<[Option<f64>; 2]>;

/// One fill of the [`chain`] on one rank: its outcome, the ghosts it
/// left and what the rank's device latched.
type ChainFill = (Result<(), CommError>, Ghosts, Option<DeviceError>);

/// Two fills of the [`chain`] under `rule`, per rank.
fn chain_fills_with(rule: FaultRule) -> Vec<[ChainFill; 2]> {
    let plan = FaultPlan::new(5, vec![rule]);
    let results = Cluster::new(Machine::ipa_gpu()).with_fault_plan(plan).run(4, |comm| {
        let mut r = chain(&comm);
        r.device.set_fault_injector(Arc::clone(comm.fault_injector().unwrap()));
        let (sched, tables) = r.pass(0, false);
        r.upload(&tables);
        [(); 2].map(|()| {
            let outcome = r.fill(&sched, &comm);
            let latched = r.device.take_injected_fault();
            (outcome, r.chain_ghosts(), latched)
        })
    });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|&(rank, _)| rank);
    out.into_iter().map(|(_, fills)| fills).collect()
}

/// [`chain_filled`] with the strips `lost` picks (by this rank and the
/// neighbour's owner) left at `value`.
fn chain_filled_but(rank: usize, value: f64, lost: impl Fn(usize) -> bool) -> Ghosts {
    let but = |strip: f64| if lost(strip as usize - 1) { value } else { strip };
    chain_filled(rank).iter().map(|patch| patch.map(|strip| strip.map(but))).collect()
}

/// Only rank 1, the rank with three peers, saw `is_fault` on the first
/// fill, every other rank completed it clean, and the second fill is
/// whole everywhere.
fn assert_rank_1_faulted_once(ranks: &[[ChainFill; 2]], is_fault: impl Fn(&ChainFill) -> bool) {
    for (rank, [first, second]) in ranks.iter().enumerate() {
        assert_eq!(is_fault(first), rank == 1, "rank {rank}: {first:?}");
        assert!(rank == 1 || (first.0.is_ok() && first.2.is_none()), "rank {rank}: {first:?}");
        assert_eq!(second, &(Ok(()), chain_filled(rank), None), "rank {rank}: the next fill");
    }
}

/// A failed PCIe hop of `direction`, the `n`-th transfer of rank 0's
/// fill and of rank 1's first chain fill, latches on that rank's device
/// and nowhere else; the stage completes, every rank reports `Ok` and
/// holds the values of a fault-free fill.
fn assert_failed_transfer_latches(n: u64, direction: &str) {
    let ranks = fill_with_failed_transfer(n);
    assert!(is_transfer_fault(&ranks[0].2, direction), "rank 0: {:?}", ranks[0]);
    assert_eq!((&ranks[0].0, ranks[0].1), (&Ok(()), 2.0), "rank 0 received rank 1's halo");
    assert_eq!(ranks[1], (Ok(()), 1.0, None), "rank 1 received rank 0's halo");

    // Three peers share rank 1's failed transfer: every rank's ghosts
    // are whole.
    let ranks = chain_fills_with(FaultRule::once_on(FaultKind::CopyFail, 1, n));
    assert_rank_1_faulted_once(&ranks, |f| f.0.is_ok() && is_transfer_fault(&f.2, direction));
    for (rank, [first, _]) in ranks.iter().enumerate() {
        assert_eq!(first.1, chain_filled(rank), "rank {rank}");
    }
}

#[test]
fn failed_pack_transfer_latches_and_the_stage_completes() {
    assert_failed_transfer_latches(1, "d2h");
}

#[test]
fn failed_unpack_transfer_latches_and_the_stage_completes() {
    assert_failed_transfer_latches(2, "h2d");
}

#[test]
fn corrupt_frame_from_one_of_three_peers_skips_that_peer_only() {
    // Rank 2's first send is its message to rank 1 — the middle one of
    // rank 1's three: the other two still unpack from the right offsets.
    let ranks = chain_fills_with(FaultRule::once_on(FaultKind::MsgCorrupt, 2, 0));
    assert_rank_1_faulted_once(&ranks, |f| f.0.is_err() && f.2.is_none());
    for (rank, [first, _]) in ranks.iter().enumerate() {
        let lost = |owner| rank == 1 && owner == 2;
        assert_eq!(first.1, chain_filled_but(rank, 2.0, lost), "rank {rank}");
    }
}

/// The device holds one descriptor table: the tables of the last build
/// pass, made resident by one upload at the pass's first fill, in one
/// grow-only allocation — a schedule out of use leaves nothing behind.
#[test]
fn descriptor_tables_live_with_the_schedules_in_use() {
    Cluster::new(Machine::ipa_gpu()).run(1, |comm| {
        let mut r = Rank::new(&comm, 2);
        let uploads = |r: &Rank| r.device.stats().h2d_transfers;
        let allocated = |r: &Rank| r.device.stats().allocated_bytes;
        let patches = allocated(&r);
        // One pass: the fine level's fill, interpolating or not, and the
        // coarse level's, each kept when a current one is held (the fine
        // one only if it is the interpolating fill wanted).
        type Held = (Arc<RefineSchedule>, Arc<RefineSchedule>);
        let pass = |r: &Rank, held: Option<&Held>, interpolate| {
            let mut build = ScheduleBuild::indexed();
            let fine = match held.map(|h| &h.0) {
                Some(s) if interpolate && s.is_current(&r.h) => build.keep(&r.h, s),
                _ => build.refine(&r.h, &r.reg, 1, &r.spec(interpolate)),
            };
            let coarse = match held.map(|h| &h.1) {
                Some(s) if s.is_current(&r.h) => build.keep(&r.h, s),
                _ => build.refine(&r.h, &r.reg, 0, &r.spec(false)),
            };
            ((fine, coarse), build.into_tables())
        };
        let words = |tables: &PassTables| tables.render(None) as u64;
        let (held, tables) = pass(&r, None, true);
        r.device.reset_transfer_stats();
        r.upload(&tables);
        r.fill(&held.0, &comm).unwrap();
        r.fill(&held.1, &comm).unwrap();
        assert_eq!(uploads(&r), 1, "both tables cross in the pass's one upload");
        let table = 4 * words(&tables);
        assert_eq!(allocated(&r), patches + table, "one table: the pass's words");
        // A pass that keeps every schedule uploads nothing.
        let (again, kept) = pass(&r, Some(&held), true);
        assert!(Arc::ptr_eq(&held.0, &again.0) && Arc::ptr_eq(&held.1, &again.1));
        r.upload(&kept);
        r.fill(&again.0, &comm).unwrap();
        assert_eq!(uploads(&r), 1);
        // A pass that replaces one schedule and keeps the other uploads
        // both tables again, into the same allocation: the replaced
        // table is gone.
        let gone = Arc::downgrade(&held.0);
        drop((held.0, tables, kept));
        let (replaced, tables) = pass(&r, Some(&again), false);
        drop(again.0);
        assert!(Arc::ptr_eq(&replaced.1, &held.1));
        assert!(gone.upgrade().is_none(), "the replaced fill is still held");
        r.upload(&tables);
        r.fill(&replaced.0, &comm).unwrap();
        assert_eq!(uploads(&r), 2);
        assert!(4 * words(&tables) < table, "the fine fill no longer interpolates");
        assert_eq!(allocated(&r), patches + table, "grow-only, and no dead table");
    });
}

/// Tags one box of level-0 cells, nothing else.
struct BoxTagger(GBox);

impl CellTagger for BoxTagger {
    fn tag_cells(&self, h: &PatchHierarchy, level: usize, _time: f64) -> Vec<TagBitmap> {
        let local = h.level(level).local().iter();
        local
            .map(|p| {
                let tagged = |q| i32::from(level == 0 && self.0.contains(q));
                let cells: Vec<i32> = p.cell_box().iter().map(tagged).collect();
                TagBitmap::compress(p.cell_box(), &cells)
            })
            .collect()
    }
}

/// What one rank's regrid counted.
#[derive(Debug, PartialEq)]
struct RegridCounts {
    /// Launches of `pack`, `unpack`, `copy-region`, `refine-interp` and
    /// `extend-uncovered`, in that order.
    launches: [u64; 5],
    /// Transfer messages (kind 7) sent and received.
    messages: (u64, u64),
    /// Sends of the retired per-overlap kinds 3 and 4.
    retired: u64,
    d2h: (u64, u64),
    h2d: (u64, u64),
    packed: (u64, u64),
    new_patches: usize,
    outcome: Result<(), CommError>,
    /// What the rank's device latched.
    latched: Option<DeviceError>,
    /// FNV-1a of the new level's values, both variables, local patches.
    digest: u64,
}

/// Regrid a two-rank device hierarchy whose level 1 — fifteen 8x8 patches
/// straddling the new ones — is replaced by one of `(2 * tagged.x) x
/// (2 * tagged.y) / 64` patches: a cell and a node variable, old data
/// under part of every rank's new patches, interpolation elsewhere.
/// `fail_transfer` fails rank 0's `n`-th PCIe transfer of the regrid.
fn regrid_counts(tagged: IntVector, fail_transfer: Option<u64>) -> Vec<RegridCounts> {
    let rules = fail_transfer.map(|n| FaultRule::once_on(FaultKind::CopyFail, 0, n));
    let plan = FaultPlan::new(11, rules.into_iter().collect());
    let results = Cluster::new(Machine::ipa_gpu()).with_fault_plan(plan).run(2, |mut comm| {
        let device = Device::new(Machine::ipa_gpu(), comm.clock().clone());
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        device.set_recorder(rec.clone());
        comm.set_recorder(rec.clone());
        let mut reg = VariableRegistry::new(Arc::new(DeviceDataFactory::new(device.clone())));
        let q = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let v = reg.register("v", Centring::Node, IntVector::uniform(2));
        let domain = b(0, 0, 80, 48);
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(domain),
            IntVector::uniform(2),
            2,
            comm.rank(),
            comm.size(),
        );
        // Alternating owners: whatever the regridder's partition of the
        // new level, both ranks hold sources of both kinds.
        let set_level = |h: &mut PatchHierarchy, l: usize, regions: &[GBox], max: i64| {
            let mut boxes = Vec::new();
            regions.iter().for_each(|&r| split_to_max(r, max, &mut boxes));
            let owners = (0..boxes.len()).map(|i| i % comm.size()).collect();
            h.set_level(l, boxes, owners, &reg);
        };
        set_level(&mut h, 0, &[domain], 16);
        // Old fine patches under both halves of every new level tried.
        let old = [(20, 20), (52, 20), (84, 20), (20, 60), (84, 60)];
        set_level(&mut h, 1, &old.map(|(x, y)| b(x, y, x + 24, y + 8)), 8);

        let params = RegridParams { tag_buffer: 0, max_patch_size: 8, ..RegridParams::default() };
        let specs = [
            TransferSpec { var: q, refine_op: Arc::new(ConservativeCellRefine) },
            TransferSpec { var: v, refine_op: Arc::new(LinearNodeRefine) },
        ];
        let tagger = BoxTagger(GBox::new(IntVector::uniform(8), IntVector::uniform(8) + tagged));
        if fail_transfer.is_some() {
            device.set_fault_injector(Arc::clone(comm.fault_injector().unwrap()));
        }
        device.reset_transfer_stats();
        let outcome =
            Regridder::new(params).try_regrid(&mut h, &reg, &tagger, &specs, Some(&comm), 1.0);

        let launches = ["pack", "unpack", "copy-region", "refine-interp", "extend-uncovered"]
            .map(|name| rec.counter(&format!("device.kernel_launches.{name}")));
        let stats = device.stats();
        let latched = device.take_injected_fault();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for p in h.level(1).local() {
            for var in [q, v] {
                let d: &DeviceData<f64> = p.data(var).as_any().downcast_ref().unwrap();
                for x in d.download_all(Category::Other) {
                    digest = (digest ^ x.to_bits()).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        RegridCounts {
            launches,
            messages: (rec.counter("net.sends.kind7"), rec.counter("net.recvs.kind7")),
            retired: rec.counter("net.sends.kind3") + rec.counter("net.sends.kind4"),
            d2h: (stats.d2h_transfers, stats.d2h_bytes),
            h2d: (stats.h2d_transfers, stats.h2d_bytes),
            packed: (rec.counter("pack.bytes"), rec.counter("unpack.bytes")),
            new_patches: h.level(1).num_patches(),
            outcome: outcome.map(|o| assert_eq!(o.levels_changed, [false, true])),
            latched,
            digest,
        }
    });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|&(rank, _)| rank);
    out.into_iter().map(|(_, counts)| counts).collect()
}

#[test]
fn regrid_transfer_budget_does_not_grow_with_the_patch_count() {
    let sizes = [(16, 8, 8), (32, 16, 32), (64, 32, 128)];
    let runs = sizes.map(|(x, y, patches)| {
        let ranks = regrid_counts(IntVector::new(x, y), None);
        for (rank, r) in ranks.iter().enumerate() {
            let what = format!("{patches} patches, rank {rank}");
            assert_eq!((r.new_patches, &r.outcome), (patches, &Ok(())), "{what}");
            // One message each way between the two ranks, one pack and
            // one unpack launch for it, one PCIe transfer per message
            // carrying exactly the packed bytes — plus the schedule's
            // descriptor table on the way in.
            assert_eq!((r.messages, r.retired), ((1, 1), 0), "{what}");
            assert_eq!(r.launches[..2], [1, 1], "{what}: pack, unpack");
            assert_eq!(r.d2h, (1, r.packed.0), "{what}: D2H");
            assert_eq!(r.h2d.0, 2, "{what}: H2D = message + descriptor table");
            assert!(r.h2d.1 > r.packed.1 && r.packed.1 > 0, "{what}: {r:?}");
        }
        ranks.into_iter().map(|r| r.launches).collect::<Vec<_>>()
    });
    // The copies from the old level and the scratch captures ride the
    // pack launch (no `copy-region`: both ranks send), one launch
    // interpolates for both operators, and one extension runs when
    // some scratch value lies outside the coarse level — none here, the
    // new level is well inside it: a constant.
    assert!(runs[0].iter().all(|l| l.iter().sum::<u64>() <= 16), "{:?}", runs[0]);
    assert_eq!(runs[0], [[1, 1, 0, 1, 0]; 2]);
    assert!(runs[1] == runs[0] && runs[2] == runs[0], "launches grew with the level: {runs:?}");
}

#[test]
fn failed_transfer_in_a_regrid_runs_through_and_installs_the_level() {
    // Rank 0's transfers during the regrid: 0 the descriptor table, 1
    // the pack's D2H, 2 the unpack's H2D. Either way the fault latches
    // on rank 0's device alone, and every rank installs the level with
    // the values of a fault-free regrid.
    let clean = regrid_counts(IntVector::new(16, 8), None);
    for (n, direction) in [(1, "d2h"), (2, "h2d")] {
        let ranks = regrid_counts(IntVector::new(16, 8), Some(n));
        for (rank, (r, c)) in ranks.iter().zip(&clean).enumerate() {
            let what = format!("transfer {n}, rank {rank}");
            assert_eq!(r.outcome, Ok(()), "{what}");
            assert_eq!(is_transfer_fault(&r.latched, direction), rank == 0, "{what}: {r:?}");
            assert!(rank == 0 || r.latched.is_none(), "{what}: {r:?}");
            assert_eq!(r.digest, c.digest, "{what}: the new level's values");
        }
        assert!(ranks.iter().all(|r| r.new_patches == 8 && r.messages == (1, 1)), "{ranks:?}");
    }
}

#[test]
fn level_wide_tag_compression_budget_does_not_grow_with_the_patch_count() {
    // 7x5 patches: 35 cells, so every patch's bits end mid-byte. Patch
    // `i` of a mixed level is tagged when `i % 3 == 0`.
    let cell_box = |i: usize| b(7 * i as i64, 0, 7 * i as i64 + 7, 5);
    let tagged = |mix: usize, i: usize| [false, i.is_multiple_of(3), true][mix];
    for (mix, what) in ["untagged", "mixed", "tagged"].into_iter().enumerate() {
        let runs = [8usize, 32, 128].map(|patches| {
            let device = Device::k20x();
            let rec = Recorder::new(0, device.clock().clone());
            device.set_recorder(rec.clone());
            let fields: Vec<DeviceData<i32>> = (0..patches)
                .map(|i| {
                    let cells = cell_box(i);
                    let mut d = DeviceData::new(&device, cells, IntVector::ONE, Centring::Cell);
                    let dbox = d.data_box();
                    let mut tags = vec![0i32; dbox.num_cells() as usize];
                    // A ghost tag (never compressed) and, on tagged
                    // patches, two interior ones.
                    tags[dbox.offset_of(cells.lo - IntVector::ONE)] = 1;
                    if tagged(mix, i) {
                        tags[dbox.offset_of(cells.lo + IntVector::new(i as i64 % 7, 2))] = 1;
                        tags[dbox.offset_of(cells.hi - IntVector::ONE)] = 1;
                    }
                    d.upload_all(&tags, Category::Regrid);
                    d
                })
                .collect();
            let per_patch: Vec<TagBitmap> =
                fields.iter().map(|d| compress_tags(d, Category::Regrid)).collect();

            let launches = |name: &str| rec.counter(&format!("device.kernel_launches.{name}"));
            let before = (launches("any-tagged"), launches("compress-tags"));
            let allocs = rec.counter("device.allocs");
            device.reset_transfer_stats();
            let level: Vec<TagField<'_>> = fields
                .iter()
                .map(|d| TagField {
                    buf: d.buffer(),
                    offset: 0,
                    cell_box: d.cell_box(),
                    dbox: d.data_box(),
                })
                .collect();
            let bitmaps = compress_tags_many(&device, &level, Category::Regrid);
            assert!(bitmaps == per_patch, "{what}, {patches} patches: bitmaps differ");
            let flagged = (0..patches).filter(|&i| tagged(mix, i)).count() as u64;
            assert_eq!(bitmaps.iter().filter(|bm| bm.any()).count() as u64, flagged, "{what}");

            let stats = device.stats();
            let compress = u64::from(flagged > 0);
            let after = (launches("any-tagged"), launches("compress-tags"));
            assert_eq!((after.0 - before.0, after.1 - before.1), (1, compress), "{what}");
            assert_eq!(stats.d2h_transfers, 1 + compress, "{what}, {patches} patches");
            // One word per patch, 35 bits in 5 bytes per flagged patch.
            assert_eq!(stats.d2h_bytes, 4 * patches as u64 + 5 * flagged, "{what}");
            assert_eq!(stats.h2d_transfers, 0, "{what}");
            rec.counter("device.allocs") - allocs
        });
        assert_eq!(runs, [1 + u64::from(mix > 0); 3], "{what}: allocations per pass");
    }
}

#[test]
fn disabled_recorder_records_nothing() {
    let device = Device::k20x();
    let src = {
        let mut d = DeviceData::<f64>::new(&device, b(0, 0, 4, 4), IntVector::ONE, Centring::Cell);
        let ones = vec![1.0; d.data_box().num_cells() as usize];
        d.upload_all(&ones, Category::Other);
        d
    };
    let ov = copy_overlap(b(0, 0, 4, 4), b(0, 0, 4, 4), Centring::Cell);
    let _ = src.pack(&ov);
    let rec = device.recorder();
    assert!(!rec.is_enabled());
    assert_eq!(rec.counter("pack.bytes"), 0);
    assert!(rec.spans().is_empty());
}
