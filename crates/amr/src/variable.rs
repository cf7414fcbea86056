//! Variables and data factories.

use crate::ops::{CoarsenOperator, RefineOperator};
use crate::patchdata::{PatchData, PatchDataError};
use crate::transfer::{
    CoarsenJob, CopyJob, EagerUnpack, PeerStream, RefineJob, StreamJob, TransferCtx, UnpackBatch,
};
use bytes::Bytes;
use rbamr_geometry::{BoxList, Centring, GBox, IntVector};
use rbamr_perfmodel::Category;
use std::any::Any;
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
/// [`crate::transfer`]) — copies, packs, unpacks, scratch extension and
/// the inter-level operators alike. Each default body is the loop over
/// the per-item [`PatchData`] method in job order, so a factory that
/// overrides nothing moves data exactly as per-item calls would, charge
/// for charge; a factory whose data lives on a device overrides them
/// with one fused launch (and one PCIe transfer per stage) per call.
pub trait DataFactory: Send + Sync {
    /// Allocate zeroed `centring` data over `cell_box` grown by
    /// `ghosts` — a variable's own width on patches
    /// ([`VariableRegistry::make_one`]), none on schedule scratch.
    fn make(&self, centring: Centring, ghosts: IntVector, cell_box: GBox) -> Box<dyn PatchData>;

    /// Run every copy job, charging `category`.
    fn copy_many(&self, ctx: &mut TransferCtx<'_>, jobs: &[CopyJob], category: Category) {
        for job in jobs {
            let (dst, src) = ctx.pair(job.dst, job.src, job.var);
            dst.set_transfer_category(category);
            dst.copy_from(src, &job.overlap);
        }
    }

    /// Pack every job into its peer's message and return the messages
    /// in `peers` order, each exactly `peers[i].bytes` long.
    ///
    /// Run-through: a pack fault leaves zeros in the affected byte range
    /// (so the receiver's slicing stays aligned; the values are
    /// discarded with the step at rollback) and the first fault is
    /// returned beside the messages.
    fn pack_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        jobs: &[StreamJob],
        peers: &[PeerStream],
        category: Category,
    ) -> (Vec<Bytes>, Option<PatchDataError>) {
        let mut out: Vec<Vec<u8>> = peers.iter().map(|p| Vec::with_capacity(p.bytes)).collect();
        let mut first_err = None;
        for job in jobs {
            let data = ctx.data_mut(job.loc, job.var);
            data.set_transfer_category(category);
            let stream = &mut out[job.peer as usize];
            match data.try_pack(&job.overlap) {
                Ok(payload) => stream.extend_from_slice(&payload),
                Err(e) => {
                    stream.resize(job.byte_range().end, 0u8);
                    first_err.get_or_insert(e);
                }
            }
        }
        (out.into_iter().map(Bytes::from).collect(), first_err)
    }

    /// The receive side of a stage: see [`UnpackBatch`]. The default
    /// unpacks every job as it is pushed.
    fn unpack_batch<'a>(&'a self, category: Category) -> Box<dyn UnpackBatch<'a> + 'a> {
        Box::new(EagerUnpack { category })
    }

    /// Clamp-extend every scratch array into the cells its coarse
    /// sources did not cover: `covered[i]` is the covered region of
    /// `scratch[i]` (see [`PatchData::extend_uncovered`]).
    fn extend_many(&self, scratch: &mut [Box<dyn PatchData>], covered: &[BoxList]) {
        for (scratch, covered) in scratch.iter_mut().zip(covered) {
            scratch.extend_uncovered(covered);
        }
    }

    /// Run every job of one fill that uses `op`: scratch `job.scratch`
    /// refined into the local patch `job.pos` of level `level`, charging
    /// `category`.
    fn refine_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        op: &dyn RefineOperator,
        level: usize,
        jobs: &[RefineJob],
        ratio: IntVector,
        category: Category,
    ) {
        for job in jobs {
            let fine = &mut ctx.hierarchy.level_mut(level).local_mut()[job.pos as usize];
            let dst = fine.data_mut(job.var);
            dst.set_transfer_category(category);
            dst.refine_from(op, ctx.scratch[job.scratch as usize].as_ref(), &job.fill, ratio);
        }
    }

    /// Run every job of one synchronisation that uses `op`: the local
    /// patch `job.pos` of level `fine_level` projected into scratch
    /// `job.scratch` (which carries the category).
    fn coarsen_many(
        &self,
        ctx: &mut TransferCtx<'_>,
        op: &dyn CoarsenOperator,
        fine_level: usize,
        jobs: &[CoarsenJob],
        ratio: IntVector,
    ) {
        for job in jobs {
            let fine = &ctx.hierarchy.level(fine_level).local()[job.pos as usize];
            let aux: Vec<&dyn PatchData> = job.aux.iter().map(|&a| fine.data(a)).collect();
            let dst = ctx.scratch[job.scratch as usize].as_mut();
            dst.coarsen_from(op, fine.data(job.var), &aux, &job.fill, ratio);
        }
    }

    /// Make a schedule's descriptor table resident where this factory's
    /// data lives, and return the handle that keeps it there. Called
    /// when a schedule that holds no handle executes. `words` renders
    /// the table; the default — data the host addresses directly needs
    /// no table — never calls it.
    fn upload_descriptors(
        &self,
        words: &mut dyn FnMut() -> Vec<i32>,
        category: Category,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        let _ = (words, category);
        None
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

    /// Replace the data factory (e.g. swap host for device placement);
    /// existing patches are unaffected.
    pub fn set_factory(&mut self, factory: Arc<dyn DataFactory>) {
        self.factory = factory;
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
