//! A send stage is one legal kernel: in every fill window, lone fill,
//! synchronisation and regrid transfer, no copy job of a stage writes a
//! value that a pack job of the same stage reads. That is what lets a
//! placement run a stage's local copies and its packs as one launch (or
//! one loop), in any order.
//!
//! A checking factory wraps the host placement and, at every
//! `DataFactory::send_many`, compares per array — (`Loc` in the stage's
//! numbering, variable) — the boxes each copy writes with the boxes
//! each pack reads, in the source's index space (a pack reads its
//! `dst_boxes` shifted by −`shift`). Hierarchies are random two-level
//! layouts at 1–4 ranks with a cell, a node and a side variable; each
//! rank runs a window over both levels, a lone fill per level, the
//! synchronisation of level 1 and a regrid that replaces level 1.

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_amr::ops::{
    ConservativeCellRefine, LinearNodeRefine, LinearSideRefine, NodeInjectionCoarsen,
    RefineOperator, VolumeWeightedCoarsen,
};
use rbamr_amr::regrid::{CellTagger, TransferSpec};
use rbamr_amr::schedule::{CoarsenSpec, FillSpec};
use rbamr_amr::transfer::{CopyJob, Part, PeerStream, StreamJob, TransferCtx};
use rbamr_amr::{
    DataFactory, FillWindow, GridGeometry, HostDataFactory, Patch, PatchData, PatchHierarchy,
    PhysicalBoundary, RegridParams, Regridder, ScheduleBuild, TagBitmap, VariableId,
    VariableRegistry,
};
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_netsim::{Cluster, Comm};
use rbamr_perfmodel::{Category, Machine};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a rank's checking factory saw.
#[derive(Debug, Default)]
struct Seen {
    /// Per category: send stages, and those that both copy and pack.
    stages: BTreeMap<Category, (u32, u32)>,
    /// Every value a copy wrote and a pack of its stage read.
    clashes: Vec<String>,
}

/// The host placement, checking every send stage before it runs it.
struct Checked {
    host: HostDataFactory,
    seen: Mutex<Seen>,
}

impl Checked {
    fn check(&self, copies: &[Part<'_, CopyJob>], sends: &[Part<'_, StreamJob>], cat: Category) {
        let mut seen = self.seen.lock().unwrap();
        let both = Part::each(copies).next().is_some() && Part::each(sends).next().is_some();
        let stage = seen.stages.entry(cat).or_default();
        stage.0 += 1;
        stage.1 += u32::from(both);
        for (cp, copy) in Part::each(copies) {
            let written = (cp.at(copy.dst), copy.var);
            for (sp, send) in Part::each(sends).filter(|(sp, s)| (sp.at(s.loc), s.var) == written) {
                let shift = -send.overlap.shift;
                let read =
                    BoxList::from_boxes(send.overlap.dst_boxes.iter().map(|b| b.shift(shift)));
                let clash = copy.overlap.dst_boxes.intersect(&read);
                if !clash.is_empty() {
                    let at = sp.at(send.loc);
                    seen.clashes.push(format!("{cat:?}: {at:?} v{} {clash:?}", copy.var.0));
                }
            }
        }
    }
}

impl DataFactory for Checked {
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData> {
        self.host.make(centring, ghosts, cell_box)
    }

    fn send_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        copies: &[Part<'_, CopyJob>],
        sends: &[Part<'_, StreamJob>],
        peers: &[PeerStream],
        category: Category,
    ) -> Vec<Bytes> {
        self.check(copies, sends, category);
        self.host.send_many(ctx, copies, sends, peers, category)
    }

    fn unpack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        parts: &[Part<'_, StreamJob>],
        msgs: &[Option<Bytes>],
        category: Category,
    ) {
        self.host.unpack_many(ctx, parts, msgs, category);
    }
}

struct NoBoundary;

impl PhysicalBoundary for NoBoundary {
    fn fill(&self, _: &mut Patch, _: VariableId, _: &BoxList, _: GBox, _: f64) {}
}

/// Tags one box of level-0 cells.
struct BoxTagger(GBox);

impl CellTagger for BoxTagger {
    fn tag_cells(&self, h: &PatchHierarchy, level: usize, _: f64) -> Vec<TagBitmap> {
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

/// A random layout: level 0 is the sixteen 8x8 tiles of [0, 32)², level
/// 1 the 8x8 fine tiles `fine` selects of [0, 64)² (ratio 2), each
/// owned by `owners[i] % ranks`; the regrid tags the level-0 cells of
/// `tagged`.
#[derive(Clone, Debug)]
struct Layout {
    ranks: usize,
    fine: u64,
    owners: Vec<usize>,
    tagged: GBox,
}

fn tiles(mask: u64, n: i64, size: i64) -> Vec<GBox> {
    let selected = (0..n * n).filter(|t| mask >> t & 1 == 1);
    selected
        .map(|t| {
            let lo = IntVector::new(t % n * size, t / n * size);
            GBox::new(lo, lo + IntVector::uniform(size))
        })
        .collect()
}

/// Run every kind of send stage on every rank of `layout`; what each
/// rank's factory saw.
fn run(layout: &Layout) -> Vec<Seen> {
    let layout = layout.clone();
    let results = Cluster::new(Machine::ipa_cpu_node()).run(layout.ranks, move |comm| {
        let factory = Arc::new(Checked { host: HostDataFactory::new(), seen: Mutex::default() });
        let seen = Arc::clone(&factory);
        let mut reg = VariableRegistry::new(factory);
        let vars: [(&str, Centring, Arc<dyn RefineOperator>); 3] = [
            ("c", Centring::Cell, Arc::new(ConservativeCellRefine)),
            ("n", Centring::Node, Arc::new(LinearNodeRefine)),
            ("s", Centring::Side(0), Arc::new(LinearSideRefine { axis: 0 })),
        ];
        let vars = vars
            .map(|(name, centring, op)| (reg.register(name, centring, IntVector::uniform(2)), op));
        let domain = GBox::from_coords(0, 0, 32, 32);
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(domain),
            IntVector::uniform(2),
            2,
            comm.rank(),
            comm.size(),
        );
        let fine = if layout.fine == 0 { 1 << 27 } else { layout.fine };
        for (l, boxes) in [tiles(u64::MAX, 4, 8), tiles(fine, 8, 8)].into_iter().enumerate() {
            let owners = (0..boxes.len()).map(|i| layout.owners[16 * l + i] % comm.size());
            h.set_level(l, boxes, owners.collect(), &reg);
        }
        run_stages(&mut h, &reg, &vars, &comm, layout.tagged);
        let seen = std::mem::take(&mut *seen.seen.lock().unwrap());
        seen
    });
    results.into_iter().map(|r| r.value).collect()
}

/// A window over both levels, a lone fill of each, the synchronisation
/// of level 1 onto level 0, and a regrid replacing level 1.
fn run_stages(
    h: &mut PatchHierarchy,
    reg: &VariableRegistry,
    vars: &[(VariableId, Arc<dyn RefineOperator>); 3],
    comm: &Comm,
    tagged: GBox,
) {
    let fills: Vec<FillSpec> = vars
        .iter()
        .map(|(var, op)| FillSpec { var: *var, refine_op: Some(Arc::clone(op)) })
        .collect();
    let syncs = [
        CoarsenSpec { var: vars[0].0, op: Arc::new(VolumeWeightedCoarsen), aux: vec![] },
        CoarsenSpec { var: vars[1].0, op: Arc::new(NodeInjectionCoarsen), aux: vec![] },
    ];
    let mut build = ScheduleBuild::indexed();
    let members: Vec<_> = (0..2).map(|l| build.refine(h, reg, l, &fills)).collect();
    let sync = build.coarsen(h, reg, 1, &syncs);

    let window = FillWindow::new(members.clone());
    let pending = window.begin(h, reg, Some(comm), Category::HaloExchange);
    pending.finish(h, &NoBoundary, Some(comm), 0.0, Category::HaloExchange).unwrap();
    for member in &members {
        member.try_fill(h, reg, &NoBoundary, Some(comm), 0.0, Category::Other).unwrap();
    }
    sync.try_run(h, reg, Some(comm), Category::Synchronize).unwrap();

    let transfers: Vec<TransferSpec> = vars
        .iter()
        .map(|(var, op)| TransferSpec { var: *var, refine_op: Arc::clone(op) })
        .collect();
    let params = RegridParams { max_patch_size: 8, ..RegridParams::default() };
    let regridder = Regridder::new(params);
    regridder.try_regrid(h, reg, &BoxTagger(tagged), &transfers, Some(comm), 1.0).unwrap();
}

/// Every clash any rank saw.
fn clashes(seen: &[Seen]) -> Vec<&String> {
    seen.iter().flat_map(|s| &s.clashes).collect()
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    let corner = (0i64..28, 0i64..28, 2i64..24, 2i64..24);
    (1usize..5, any::<u64>(), prop::collection::vec(0usize..4, 80), corner).prop_map(
        |(ranks, fine, owners, (x, y, w, h))| Layout {
            ranks,
            fine,
            owners,
            tagged: GBox::from_coords(x, y, (x + w).min(32), (y + h).min(32)),
        },
    )
}

/// Default 16 cases; `PROPTEST_CASES` scales up in CI.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn no_copy_writes_what_its_stage_packs(layout in arb_layout()) {
        let seen = run(&layout);
        prop_assert!(clashes(&seen).is_empty(), "{:#?}", clashes(&seen));
    }
}

/// The property is not vacuous: on a fixed two-rank layout whose owners
/// alternate tile by tile, every kind of send stage — a window, a lone
/// fill, a sync and a regrid transfer — both copies and packs on some
/// rank.
#[test]
fn every_kind_of_send_stage_copies_and_packs_somewhere() {
    let layout = Layout {
        ranks: 2,
        fine: 0x0000_3c3c_3c3c_0000,
        owners: (0..80).map(|i| i % 2).collect(),
        tagged: GBox::from_coords(6, 6, 22, 20),
    };
    let seen = run(&layout);
    assert!(clashes(&seen).is_empty(), "{:#?}", clashes(&seen));
    let kinds = [Category::HaloExchange, Category::Other, Category::Synchronize, Category::Regrid];
    for cat in kinds {
        let both: u32 = seen.iter().map(|s| s.stages.get(&cat).map_or(0, |s| s.1)).sum();
        assert!(both > 0, "{cat:?}: no stage both copies and packs: {seen:#?}");
    }
}
