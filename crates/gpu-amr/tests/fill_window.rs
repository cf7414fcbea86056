//! The fill window's oracle: one `FillWindow` over the fills of levels
//! 0, 1 and 2 leaves every value of every patch — interiors and ghosts,
//! cell, node and side variables, interpolated or not — bitwise equal
//! to `RefineSchedule::try_fill` run level by level, on the host and on
//! the device, at 1, 2 and 4 ranks. On the device the window also obeys
//! the stage law: one pack launch, one D2H if it sends and one H2D if it
//! receives, one message per peer of the union of its members' peers,
//! and one upload at its first fill for the descriptor tables of the
//! build pass that made its members.
//!
//! Dropping a member's scratch base in `Part::at` fails it at every
//! rank count (level 2's scratch sits behind level 1's); dropping the
//! byte base in `Part::slot` fails it at 2 and 4 ranks.

use rbamr_amr::ops::{ConservativeCellRefine, LinearNodeRefine, LinearSideRefine};
use rbamr_amr::schedule::FillSpec;
use rbamr_amr::{
    FillWindow, GridGeometry, HostDataFactory, PassTables, Patch, PatchData, PatchHierarchy,
    PhysicalBoundary, RefineOperator, RefineSchedule, ScheduleBuild, VariableId, VariableRegistry,
};
use rbamr_device::Device;
use rbamr_geometry::{BoxList, BoxOverlap, Centring, GBox, IntVector};
use rbamr_gpu_amr::DeviceDataFactory;
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::{Category, Machine};
use rbamr_telemetry::Recorder;
use std::collections::BTreeSet;
use std::sync::Arc;

const CAT: Category = Category::HaloExchange;

/// Level 0 is 32 x 16 cells; every level is cut into 8 x 8 patches of
/// these boxes, ratio 2, each nested two coarse cells inside the last.
const LEVELS: [(i64, i64, i64, i64); 3] = [(0, 0, 32, 16), (8, 8, 56, 24), (24, 24, 96, 40)];

struct NoBoundary;

impl PhysicalBoundary for NoBoundary {
    fn fill(&self, _: &mut Patch, _: VariableId, _: &BoxList, _: GBox, _: f64) {}
}

fn tiles((x0, y0, x1, y1): (i64, i64, i64, i64)) -> Vec<GBox> {
    let rows = (y0..y1).step_by(8);
    rows.flat_map(|y| (x0..x1).step_by(8).map(move |x| GBox::from_coords(x, y, x + 8, y + 8)))
        .collect()
}

/// The whole data box of `data`.
fn everything(data: &dyn PatchData) -> BoxOverlap {
    let dst_boxes = BoxList::from_box(data.data_box());
    BoxOverlap { dst_boxes, shift: IntVector::ZERO, centring: data.centring() }
}

/// One rank's hierarchy: four variables with two ghosts — cell, node and
/// x-side ones interpolated across levels, and a cell work array filled
/// from its own level only —, every value (ghosts too) distinct per
/// variable, level, patch and point.
struct Rank {
    h: PatchHierarchy,
    reg: VariableRegistry,
    specs: Vec<FillSpec>,
    rec: Recorder,
    device: Option<Device>,
}

impl Rank {
    fn new(comm: &Comm, on_device: bool) -> Self {
        let rec = Recorder::new(comm.rank(), comm.clock().clone());
        let (device, factory): (_, Arc<dyn rbamr_amr::DataFactory>) = if on_device {
            let device = Device::new(Machine::ipa_gpu(), comm.clock().clone());
            device.set_recorder(rec.clone());
            (Some(device.clone()), Arc::new(DeviceDataFactory::new(device)))
        } else {
            (None, Arc::new(HostDataFactory::new()))
        };
        let mut reg = VariableRegistry::new(factory);
        let ghosts = IntVector::uniform(2);
        let interpolated: [(&str, Centring, Arc<dyn RefineOperator>); 3] = [
            ("c", Centring::Cell, Arc::new(ConservativeCellRefine)),
            ("n", Centring::Node, Arc::new(LinearNodeRefine)),
            ("s", Centring::Side(0), Arc::new(LinearSideRefine { axis: 0 })),
        ];
        let mut specs: Vec<FillSpec> = interpolated
            .into_iter()
            .map(|(name, centring, op)| FillSpec {
                var: reg.register(name, centring, ghosts),
                refine_op: Some(op),
            })
            .collect();
        specs.push(FillSpec { var: reg.register("w", Centring::Cell, ghosts), refine_op: None });
        let domain = GBox::from_coords(LEVELS[0].0, LEVELS[0].1, LEVELS[0].2, LEVELS[0].3);
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(domain),
            IntVector::uniform(2),
            LEVELS.len(),
            comm.rank(),
            comm.size(),
        );
        for (l, &level) in LEVELS.iter().enumerate() {
            let boxes = tiles(level);
            let owners = (0..boxes.len()).map(|i| (3 * i + l) % comm.size()).collect();
            h.set_level(l, boxes, owners, &reg);
        }
        let mut rank = Self { h, reg, specs, rec, device };
        rank.init();
        rank
    }

    fn init(&mut self) {
        let vars: Vec<VariableId> = self.specs.iter().map(|s| s.var).collect();
        for l in 0..LEVELS.len() {
            for patch in self.h.level_mut(l).local_mut() {
                let index = patch.id().index;
                for &var in &vars {
                    let data = patch.data_mut(var);
                    let ov = everything(data);
                    let mut bytes = Vec::new();
                    for p in data.data_box().iter() {
                        let v = (var.0 * 7 + l * 131 + index * 17) as f64 + 0.37 * p.x as f64
                            - 1.13 * p.y as f64;
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    data.unpack(&ov, &bytes);
                }
            }
        }
    }

    /// Every value of every local patch, by (level, patch, variable).
    fn snapshot(&self) -> Vec<((usize, usize, usize), Vec<u8>)> {
        let mut out = Vec::new();
        for l in 0..LEVELS.len() {
            for patch in self.h.level(l).local() {
                for spec in &self.specs {
                    let data = patch.data(spec.var);
                    out.push((
                        (l, patch.id().index, spec.var.0),
                        data.pack(&everything(data)).to_vec(),
                    ));
                }
            }
        }
        out
    }

    /// Every level's fill, built in one pass, and the pass's tables.
    fn members(&self) -> (Vec<Arc<RefineSchedule>>, PassTables) {
        let mut build = ScheduleBuild::indexed();
        let levels = 0..LEVELS.len();
        let members = levels.map(|l| build.refine(&self.h, &self.reg, l, &self.specs)).collect();
        (members, build.into_tables())
    }

    fn counter(&self, name: &str) -> u64 {
        self.rec.counter(name)
    }
}

/// The ranks `sched` sends to and receives from, read off its plan.
fn peers_of(sched: &RefineSchedule) -> [BTreeSet<usize>; 2] {
    let rank_after_at = |line: &str| -> usize {
        let tail = &line[line.find("@r").expect("a remote plan names its rank") + 2..];
        tail[..tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len())].parse().unwrap()
    };
    let mut peers = [BTreeSet::new(), BTreeSet::new()];
    for line in sched.plan_digest() {
        for (kind, set) in ["send", "recv"].iter().zip(&mut peers) {
            if line.starts_with(kind) {
                set.insert(rank_after_at(&line));
            }
        }
    }
    peers
}

/// Every rank's snapshot after the fill, fused into one window or run
/// level by level, and (fused, on the device) the second window's
/// counts: pack launches, unpack launches, D2H, H2D, messages sent and
/// received, the union of the members' send and receive peers — and the
/// first window's H2D, which also makes the pass's tables resident.
fn run(nranks: usize, on_device: bool, fused: bool) -> Vec<(usize, Vec<u8>, [u64; 9])> {
    let results = Cluster::new(Machine::ipa_gpu()).run(nranks, move |mut comm| {
        let mut r = Rank::new(&comm, on_device);
        comm.set_recorder(r.rec.clone());
        let (members, tables) = r.members();
        let h2d = |r: &Rank| r.device.as_ref().map_or(0, |d| d.stats().h2d_transfers);
        let first_h2d = h2d(&r);
        r.reg.factory().upload_tables(&tables, CAT);
        let fill = |r: &mut Rank, comm: &Comm| {
            if fused {
                let window = FillWindow::new(members.clone());
                let pending = window.begin(&mut r.h, &r.reg, Some(comm), CAT);
                pending.finish(&mut r.h, &NoBoundary, Some(comm), 0.0, CAT).unwrap();
            } else {
                for sched in &members {
                    sched.try_fill(&mut r.h, &r.reg, &NoBoundary, Some(comm), 0.0, CAT).unwrap();
                }
            }
        };
        fill(&mut r, &comm);
        let first_h2d = h2d(&r) - first_h2d;
        let snapshot = r.snapshot().into_iter().flat_map(|(_, v)| v).collect();
        // A steady second fill (descriptor tables already resident) of
        // the same values: what one window costs.
        r.init();
        let counted = ["device.kernel_launches.pack", "device.kernel_launches.unpack"];
        let before = counted.map(|name| r.counter(name));
        let stats = r.device.as_ref().map(|d| d.stats());
        let (sent, received) = (r.counter("net.sends.kind5"), r.counter("net.recvs.kind5"));
        fill(&mut r, &comm);
        let launches = counted.map(|name| r.counter(name));
        let after = r.device.as_ref().map(|d| d.stats());
        let pcie = match (stats, after) {
            (Some(a), Some(b)) => {
                [b.d2h_transfers - a.d2h_transfers, b.h2d_transfers - a.h2d_transfers]
            }
            _ => [0, 0],
        };
        let [sends, recvs] = members.iter().map(|s| peers_of(s)).fold(
            [BTreeSet::new(), BTreeSet::new()],
            |[mut s, mut r], [ms, mr]| {
                s.extend(ms);
                r.extend(mr);
                [s, r]
            },
        );
        let counts = [
            launches[0] - before[0],
            launches[1] - before[1],
            pcie[0],
            pcie[1],
            r.counter("net.sends.kind5") - sent,
            r.counter("net.recvs.kind5") - received,
            sends.len() as u64,
            recvs.len() as u64,
            first_h2d,
        ];
        (comm.rank(), snapshot, counts)
    });
    let mut out: Vec<_> = results.into_iter().map(|r| r.value).collect();
    out.sort_by_key(|(rank, ..)| *rank);
    out
}

#[test]
fn one_window_over_three_levels_equals_a_fill_per_level() {
    for nranks in [1, 2, 4] {
        let host = run(nranks, false, true);
        for on_device in [false, true] {
            let what = format!("{nranks} ranks, device {on_device}");
            let fused = if on_device { run(nranks, true, true) } else { host.clone() };
            let per_level = run(nranks, on_device, false);
            for ((rank, window, _), (_, levels, _)) in fused.iter().zip(&per_level) {
                assert!(window == levels, "{what}, rank {rank}: the window moved a value");
            }
            for ((rank, device, _), (_, host, _)) in fused.iter().zip(&host) {
                assert!(device == host, "{what}, rank {rank}: device differs from host");
            }
            if !on_device {
                continue;
            }
            for (rank, _, counts) in &fused {
                let [pack, unpack, d2h, h2d, sent, received, send_peers, recv_peers, first_h2d] =
                    *counts;
                let what = format!("{what}, rank {rank}");
                assert_eq!(
                    (sent, received),
                    (send_peers, recv_peers),
                    "{what}: one message per peer"
                );
                assert_eq!(pack, u64::from(send_peers > 0), "{what}: one pack launch");
                assert_eq!(unpack, u64::from(recv_peers > 0), "{what}: one unpack launch");
                assert_eq!(d2h, u64::from(send_peers > 0), "{what}: one D2H");
                assert_eq!(h2d, u64::from(recv_peers > 0), "{what}: one H2D");
                assert_eq!(first_h2d, h2d + 1, "{what}: one upload for the pass's tables");
                if nranks > 1 {
                    assert!(send_peers > 0 && recv_peers > 0, "{what}: the layout exchanges");
                }
            }
        }
    }
}
