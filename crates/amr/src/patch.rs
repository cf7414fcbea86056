//! Patches: rectangular mesh regions carrying data.

use crate::hostdata::HostData;
use crate::patchdata::{Element, PatchData};
use crate::variable::{VariableId, VariableRegistry};
use rbamr_geometry::GBox;

/// Global identity of a patch: its level and its index within the
/// level's global box array (identical on every rank).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId {
    /// Level number in the hierarchy (0 = coarsest).
    pub level: usize,
    /// Index into the level's global box list.
    pub index: usize,
}

/// A patch: "a container for all the data living in a particular mesh
/// region" (paper Section IV-B). It owns one [`PatchData`] per
/// registered variable, allocated by the registry's factory — which is
/// what decides whether this is a CPU patch or a resident GPU patch.
pub struct Patch {
    id: PatchId,
    cell_box: GBox,
    owner: usize,
    data: Vec<Box<dyn PatchData>>,
}

impl Patch {
    /// Build a patch and allocate data for every registered variable.
    pub fn new(id: PatchId, cell_box: GBox, owner: usize, registry: &VariableRegistry) -> Self {
        assert!(!cell_box.is_empty(), "Patch::new: empty box");
        Self { id, cell_box, owner, data: registry.make_all(cell_box) }
    }

    /// The patch's global identity.
    pub fn id(&self) -> PatchId {
        self.id
    }

    /// The interior cell box.
    pub fn cell_box(&self) -> GBox {
        self.cell_box
    }

    /// The owning rank.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// Number of interior cells.
    pub fn num_cells(&self) -> i64 {
        self.cell_box.num_cells()
    }

    /// Untyped data access for a variable.
    pub fn data(&self, var: VariableId) -> &dyn PatchData {
        self.data[var.0].as_ref()
    }

    /// Untyped mutable data access.
    pub fn data_mut(&mut self, var: VariableId) -> &mut dyn PatchData {
        self.data[var.0].as_mut()
    }

    /// Mutable access to two distinct variables at once (reader/writer
    /// kernels, e.g. advection reading density writing work arrays).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn data_pair_mut(
        &mut self,
        a: VariableId,
        b: VariableId,
    ) -> (&mut dyn PatchData, &mut dyn PatchData) {
        assert_ne!(a, b, "data_pair_mut: same variable twice");
        let (lo, hi, swap) = if a.0 < b.0 { (a.0, b.0, false) } else { (b.0, a.0, true) };
        let (head, tail) = self.data.split_at_mut(hi);
        let da = head[lo].as_mut();
        let db = tail[0].as_mut();
        if swap {
            (db, da)
        } else {
            (da, db)
        }
    }

    /// Mutable access to many distinct variables at once — the shape a
    /// hydro kernel needs (several outputs, several inputs). Returned
    /// in `vars` order; nothing is allocated.
    ///
    /// # Panics
    /// Panics if `vars` contains duplicates or an unregistered variable.
    pub fn data_many_mut<const N: usize>(
        &mut self,
        vars: [VariableId; N],
    ) -> [&mut dyn PatchData; N] {
        self.data
            .get_disjoint_mut(vars.map(|v| v.0))
            .unwrap_or_else(|e| panic!("data_many_mut: {e} in {vars:?}"))
            .map(|d| -> &mut dyn PatchData { d.as_mut() })
    }

    /// Typed host-data access.
    ///
    /// # Panics
    /// Panics if the variable's data is not `HostData<T>`.
    pub fn host<T: Element>(&self, var: VariableId) -> &HostData<T> {
        self.data(var)
            .as_any()
            .downcast_ref()
            .expect("patch data is not HostData of the requested element type")
    }

    /// Typed mutable host-data access.
    ///
    /// # Panics
    /// Panics if the variable's data is not `HostData<T>`.
    pub fn host_mut<T: Element>(&mut self, var: VariableId) -> &mut HostData<T> {
        self.data_mut(var)
            .as_any_mut()
            .downcast_mut()
            .expect("patch data is not HostData of the requested element type")
    }

    /// Replace the data for one variable (used by regridding's solution
    /// transfer and by tests injecting prepared data).
    pub fn replace_data(&mut self, var: VariableId, data: Box<dyn PatchData>) {
        assert_eq!(data.cell_box(), self.cell_box, "replace_data: box mismatch");
        self.data[var.0] = data;
    }

    /// Set the simulation time on every variable's data.
    pub fn set_time(&mut self, time: f64) {
        for d in &mut self.data {
            d.set_time(time);
        }
    }
}

impl std::fmt::Debug for Patch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Patch(level {}, index {}, box {:?}, owner {})",
            self.id.level, self.id.index, self.cell_box, self.owner
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use rbamr_geometry::{Centring, IntVector};
    use std::sync::Arc;

    fn registry() -> VariableRegistry {
        let mut r = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r.register("xvel", Centring::Node, IntVector::uniform(2));
        r
    }

    fn patch(r: &VariableRegistry) -> Patch {
        Patch::new(PatchId { level: 0, index: 3 }, GBox::from_coords(0, 0, 4, 4), 0, r)
    }

    #[test]
    fn construction_allocates_all_variables() {
        let r = registry();
        let p = patch(&r);
        assert_eq!(p.id(), PatchId { level: 0, index: 3 });
        assert_eq!(p.num_cells(), 16);
        assert_eq!(p.data(VariableId(0)).centring(), Centring::Cell);
        assert_eq!(p.data(VariableId(1)).centring(), Centring::Node);
    }

    #[test]
    fn typed_access_roundtrip() {
        let r = registry();
        let mut p = patch(&r);
        *p.host_mut::<f64>(VariableId(0)).at_mut(IntVector::new(1, 1)) = 4.5;
        assert_eq!(p.host::<f64>(VariableId(0)).at(IntVector::new(1, 1)), 4.5);
    }

    #[test]
    fn pair_access_is_order_correct() {
        let r = registry();
        let mut p = patch(&r);
        let (a, b) = p.data_pair_mut(VariableId(1), VariableId(0));
        assert_eq!(a.centring(), Centring::Node);
        assert_eq!(b.centring(), Centring::Cell);
    }

    #[test]
    #[should_panic(expected = "same variable twice")]
    fn pair_access_rejects_duplicates() {
        let r = registry();
        let mut p = patch(&r);
        let _ = p.data_pair_mut(VariableId(0), VariableId(0));
    }

    #[test]
    fn set_time_propagates() {
        let r = registry();
        let mut p = patch(&r);
        p.set_time(2.5);
        assert_eq!(p.data(VariableId(0)).time(), 2.5);
        assert_eq!(p.data(VariableId(1)).time(), 2.5);
    }
}
