//! Variables and data factories.

use crate::ops::{CoarsenOperator, RefineOperator};
use crate::patchdata::PatchData;
use crate::schedule::PassTables;
use crate::transfer::{
    CoarsenJob, CopyJob, Loc, OpGroup, Part, PeerStream, RefineJob, StreamJob, TransferCtx,
};
use bytes::Bytes;
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_perfmodel::Clock;
use std::sync::Arc;

/// Identifier of a registered variable — an index into the
/// [`VariableRegistry`] and into each patch's data vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub usize);

/// A named simulation quantity: its centring and ghost width.
///
/// CleverLeaf registers ~15 of these (density, energy, pressure,
/// velocities, fluxes, work arrays); the hierarchy allocates one
/// [`PatchData`] per variable per patch through a [`DataFactory`].
#[derive(Clone, Debug)]
pub struct Variable {
    /// The variable's id within its registry.
    pub id: VariableId,
    /// Human-readable unique name.
    pub name: String,
    /// Mesh centring.
    pub centring: Centring,
    /// Ghost width in cells.
    pub ghosts: IntVector,
}

/// Creates patch data for a variable on a box — the seam between the
/// mesh-management framework and data placement. The host factory
/// produces [`HostData`](crate::HostData); the `rbamr-gpu-amr` crate's
/// factory produces device-resident data. Swapping factories is the
/// entire difference between the paper's CPU and GPU builds of
/// CleverLeaf (Figure 6).
///
/// The factory is also where every schedule stage enters the placement:
/// the batch methods below take a stage's whole job list (see
/// [`crate::transfer`]) — a send stage's local copies and packs
/// together, unpacks, scratch extension and the inter-level operators.
/// Both placements price a stage, not an item: a factory whose data
/// lives on a device runs each call as one fused launch (and one PCIe
/// transfer per stage), whatever the number of parts or peers; the host
/// factory pays one loop nest's fixed cost per send or unpack stage.
/// The movement methods are therefore required; the scratch-extension
/// and operator methods, which the host placement does not price,
/// default to the loop over the per-item [`PatchData`] method in job
/// order.
pub trait DataFactory: Send + Sync {
    /// Allocate zeroed `centring` data over `cell_box` grown by
    /// `ghosts` — a variable's own width on patches
    /// ([`VariableRegistry::make_one`]), none on schedule scratch.
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData>;

    /// The rank's clock this factory's data charges, if it charges one.
    fn clock(&self) -> Option<&Clock> {
        None
    }

    /// Run a send stage: every copy job of
    /// `copies`, and every job of `sends` packed into its peer's message
    /// (see [`Part::slot`]). Returns the messages in `peers` order, each
    /// exactly `peers[i].bytes` long — none when `peers` is empty. Each
    /// peer's jobs come in stream order: a part's in plan order, the
    /// parts' streams one after the other. No copy writes a value a pack
    /// reads (the schedules plan it so), so the two lists may run as one
    /// launch or one loop.
    fn send_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        copies: &[Part<'_, CopyJob>],
        sends: &[Part<'_, StreamJob>],
        peers: &[PeerStream],
    ) -> Vec<Bytes>;

    /// Unpack every job of every part from its peer's message —
    /// `msgs[p]` for the stage's peer slot `p` (see [`Part::slot`]).
    /// The stage has received every message
    /// before this call; `None` marks one that did not arrive intact (a
    /// dropped or corrupt frame), and its jobs are skipped.
    fn unpack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        parts: &[Part<'_, StreamJob>],
        msgs: &[Option<Bytes>],
    );

    /// Clamp-extend every scratch array into the cells its coarse
    /// sources did not cover: `covered`, concatenated, lists the
    /// covered region of each of `scratch` in order (see
    /// [`PatchData::extend_uncovered`]).
    fn extend_many(&self, scratch: &mut [Box<dyn PatchData>], covered: &[&[BoxList]]) {
        for (scratch, covered) in scratch.iter_mut().zip(covered.iter().copied().flatten()) {
            scratch.extend_uncovered(covered);
        }
    }

    /// Run every job of every group: scratch `job.scratch` refined by
    /// the group's operator into the local patch `job.pos` of level
    /// `job.level`, the group's ratio finer than its coarser level.
    fn refine_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        groups: &[OpGroup<'_, dyn RefineOperator, RefineJob>],
    ) {
        for (op, ratio, part, job) in OpGroup::each(groups) {
            let (dst, src) = ctx.pair(
                Loc::Patch { level: job.level, pos: job.pos },
                part.at(Loc::Scratch(job.scratch)),
                job.var,
            );
            dst.refine_from(op, src, &job.fill, ratio);
        }
    }

    /// Run every job of every group of one synchronisation: the local
    /// patch `job.pos` of level `fine_level` projected by the group's
    /// operator into scratch `job.scratch`.
    fn coarsen_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        fine_level: usize,
        groups: &[OpGroup<'_, dyn CoarsenOperator, CoarsenJob>],
    ) {
        for (op, ratio, part, job) in OpGroup::each(groups) {
            let fine = &ctx.hierarchy.level(fine_level).local()[job.pos as usize];
            let aux: Vec<&dyn PatchData> = job.aux.iter().map(|&a| fine.data(a)).collect();
            let dst = ctx.scratch[(part.scratch + job.scratch) as usize].as_mut();
            dst.coarsen_from(op, fine.data(job.var), &aux, &job.fill, ratio);
        }
    }

    /// Make a build pass's tables resident where this factory's data
    /// lives, in place of those held (see [`PassTables`]). The default —
    /// host data needs no table — renders nothing.
    fn upload_tables(&self, tables: &PassTables) {
        let _ = tables;
    }
}

/// The set of registered variables plus the factory that materialises
/// them on patches.
#[derive(Clone)]
pub struct VariableRegistry {
    vars: Vec<Variable>,
    factory: Arc<dyn DataFactory>,
}

impl VariableRegistry {
    /// An empty registry using `factory` for allocation.
    pub fn new(factory: Arc<dyn DataFactory>) -> Self {
        Self { vars: Vec::new(), factory }
    }

    /// Register a variable; names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names or negative ghost widths.
    pub fn register(&mut self, name: &str, centring: Centring, ghosts: IntVector) -> VariableId {
        assert!(self.vars.iter().all(|v| v.name != name), "variable {name:?} registered twice");
        assert!(ghosts.all_ge(IntVector::ZERO), "variable {name:?} has negative ghosts");
        let id = VariableId(self.vars.len());
        self.vars.push(Variable { id, name: name.to_owned(), centring, ghosts });
        id
    }

    /// Look up a variable by id.
    pub fn get(&self, id: VariableId) -> &Variable {
        &self.vars[id.0]
    }

    /// Look up a variable by name.
    pub fn by_name(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// All variables in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter()
    }

    /// Allocate data for every variable on `cell_box`, in id order.
    pub fn make_all(&self, cell_box: GBox) -> Vec<Box<dyn PatchData>> {
        self.vars.iter().map(|v| self.factory.make(v.centring, v.ghosts, cell_box)).collect()
    }

    /// Allocate data for one variable, ghosts included.
    pub fn make_one(&self, id: VariableId, cell_box: GBox) -> Box<dyn PatchData> {
        let var = self.get(id);
        self.factory.make(var.centring, var.ghosts, cell_box)
    }

    /// The data factory (the placement's batch entry points).
    pub fn factory(&self) -> &Arc<dyn DataFactory> {
        &self.factory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;

    fn registry() -> VariableRegistry {
        VariableRegistry::new(Arc::new(HostDataFactory::new()))
    }

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut r = registry();
        let a = r.register("density", Centring::Cell, IntVector::uniform(2));
        let b = r.register("xvel", Centring::Node, IntVector::uniform(2));
        assert_eq!(a, VariableId(0));
        assert_eq!(b, VariableId(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).name, "density");
        assert_eq!(r.by_name("xvel").unwrap().id, b);
        assert!(r.by_name("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut r = registry();
        r.register("density", Centring::Cell, IntVector::ZERO);
        r.register("density", Centring::Cell, IntVector::ZERO);
    }

    #[test]
    fn make_all_matches_centrings() {
        let mut r = registry();
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r.register("xvel", Centring::Node, IntVector::uniform(2));
        r.register("volflux", Centring::Side(0), IntVector::uniform(2));
        let cell_box = GBox::from_coords(0, 0, 4, 4);
        let data = r.make_all(cell_box);
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].centring(), Centring::Cell);
        assert_eq!(data[1].centring(), Centring::Node);
        assert_eq!(data[2].centring(), Centring::Side(0));
        for d in &data {
            assert_eq!(d.cell_box(), cell_box);
        }
    }
}
