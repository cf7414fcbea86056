//! Field registry and the patch-integrator interface.

use crate::level_executor::{flag_cells, Exec};
use rbamr_amr::regrid::CellTagger;
use rbamr_amr::{Patch, PatchHierarchy, TagBitmap, VariableId, VariableRegistry};
use rbamr_geometry::{Centring, GBox, IntVector};

/// Ghost width used by every hydro field (CloverLeaf's halo depth).
pub const GHOSTS: i64 = 2;

/// The registered hydro fields. CloverLeaf's field set: double-buffered
/// density/energy and node velocities, EOS outputs, face fluxes and the
/// advection work arrays.
#[derive(Clone, Copy, Debug)]
pub struct Fields {
    /// Cell density at step start.
    pub density0: VariableId,
    /// Cell density, working copy.
    pub density1: VariableId,
    /// Cell specific internal energy at step start.
    pub energy0: VariableId,
    /// Cell energy, working copy.
    pub energy1: VariableId,
    /// Cell pressure (EOS output).
    pub pressure: VariableId,
    /// Cell artificial viscosity.
    pub viscosity: VariableId,
    /// Cell sound speed (EOS output).
    pub soundspeed: VariableId,
    /// Node x-velocity at step start.
    pub xvel0: VariableId,
    /// Node x-velocity, working copy.
    pub xvel1: VariableId,
    /// Node y-velocity at step start.
    pub yvel0: VariableId,
    /// Node y-velocity, working copy.
    pub yvel1: VariableId,
    /// Volume flux through x-faces.
    pub vol_flux_x: VariableId,
    /// Volume flux through y-faces.
    pub vol_flux_y: VariableId,
    /// Mass flux through x-faces.
    pub mass_flux_x: VariableId,
    /// Mass flux through y-faces.
    pub mass_flux_y: VariableId,
    /// Cell work array: pre-advection volume.
    pub pre_vol: VariableId,
    /// Cell work array: post-advection volume.
    pub post_vol: VariableId,
    /// Cell work array: energy flux.
    pub ener_flux: VariableId,
    /// Node work array: nodal mass flux.
    pub node_flux: VariableId,
    /// Node work array: nodal mass after advection.
    pub node_mass_post: VariableId,
    /// Node work array: nodal mass before advection.
    pub node_mass_pre: VariableId,
    /// Node work array: advected velocity / momentum flux.
    pub mom_flux: VariableId,
}

impl Fields {
    /// Register every hydro field on `reg` with the standard ghost
    /// width and centrings.
    pub fn register(reg: &mut VariableRegistry) -> Fields {
        let g = IntVector::uniform(GHOSTS);
        let cell = |reg: &mut VariableRegistry, name: &str| reg.register(name, Centring::Cell, g);
        let node = |reg: &mut VariableRegistry, name: &str| reg.register(name, Centring::Node, g);
        Fields {
            density0: cell(reg, "density0"),
            density1: cell(reg, "density1"),
            energy0: cell(reg, "energy0"),
            energy1: cell(reg, "energy1"),
            pressure: cell(reg, "pressure"),
            viscosity: cell(reg, "viscosity"),
            soundspeed: cell(reg, "soundspeed"),
            xvel0: node(reg, "xvel0"),
            xvel1: node(reg, "xvel1"),
            yvel0: node(reg, "yvel0"),
            yvel1: node(reg, "yvel1"),
            vol_flux_x: reg.register("vol_flux_x", Centring::Side(0), g),
            vol_flux_y: reg.register("vol_flux_y", Centring::Side(1), g),
            mass_flux_x: reg.register("mass_flux_x", Centring::Side(0), g),
            mass_flux_y: reg.register("mass_flux_y", Centring::Side(1), g),
            pre_vol: cell(reg, "pre_vol"),
            post_vol: cell(reg, "post_vol"),
            ener_flux: cell(reg, "ener_flux"),
            node_flux: node(reg, "node_flux"),
            node_mass_post: node(reg, "node_mass_post"),
            node_mass_pre: node(reg, "node_mass_pre"),
            mom_flux: node(reg, "mom_flux"),
        }
    }

    /// The state fields that carry the solution between steps (filled,
    /// synchronised and transferred at regrid).
    pub fn state_fields(&self) -> [VariableId; 6] {
        [self.density0, self.energy0, self.xvel0, self.yvel0, self.pressure, self.viscosity]
    }
}

/// One rectangular initial-condition region: the CloverLeaf "state"
/// input block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionInit {
    /// Physical region `[x0, x1) x [y0, y1)`; cells whose centre falls
    /// inside take this state. Later regions override earlier ones.
    pub rect: (f64, f64, f64, f64),
    /// Density.
    pub density: f64,
    /// Specific internal energy.
    pub energy: f64,
    /// Initial x velocity.
    pub xvel: f64,
    /// Initial y velocity.
    pub yvel: f64,
}

/// The initial state of one patch: for each of the eight fields the
/// regions define (both copies of density, energy and the velocities),
/// the image of its data box over `cell_box` plus ghosts, row-major. A
/// cell takes the last region whose half-open rectangle contains its
/// centre; a node the last region whose closed rectangle contains it.
pub(crate) fn initial_images<'a>(
    f: &Fields,
    cell_box: GBox,
    origin: (f64, f64),
    dx: (f64, f64),
    regions: &'a [RegionInit],
) -> impl Iterator<Item = (VariableId, Vec<f64>)> + 'a {
    type Pick = fn(&RegionInit) -> f64;
    let ghost = cell_box.grow(IntVector::uniform(GHOSTS));
    let fields: [(VariableId, Centring, Pick); 8] = [
        (f.density0, Centring::Cell, |r| r.density),
        (f.density1, Centring::Cell, |r| r.density),
        (f.energy0, Centring::Cell, |r| r.energy),
        (f.energy1, Centring::Cell, |r| r.energy),
        (f.xvel0, Centring::Node, |r| r.xvel),
        (f.xvel1, Centring::Node, |r| r.xvel),
        (f.yvel0, Centring::Node, |r| r.yvel),
        (f.yvel1, Centring::Node, |r| r.yvel),
    ];
    fields.into_iter().map(move |(var, centring, pick)| {
        let node = centring == Centring::Node;
        let off = if node { 0.0 } else { 0.5 };
        let image = centring
            .data_box(ghost)
            .iter()
            .map(|p| {
                let cx = origin.0 + (p.x as f64 + off) * dx.0;
                let cy = origin.1 + (p.y as f64 + off) * dx.1;
                let inside = |r: &&RegionInit| {
                    let (x0, y0, x1, y1) = r.rect;
                    if node {
                        cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1
                    } else {
                        cx >= x0 && cx < x1 && cy >= y0 && cy < y1
                    }
                };
                regions.iter().rfind(inside).map_or(0.0, pick)
            })
            .collect();
        (var, image)
    })
}

/// Gradient-flagging thresholds (the CleverLeaf heuristic: refine where
/// relative density/energy jumps exceed the threshold).
#[derive(Clone, Copy, Debug)]
pub struct FlagThresholds {
    /// Relative density jump across a cell that triggers refinement.
    pub density: f64,
    /// Relative energy jump across a cell that triggers refinement.
    pub energy: f64,
}

impl Default for FlagThresholds {
    fn default() -> Self {
        Self { density: 0.08, energy: 0.08 }
    }
}

/// Conserved/diagnostic totals over a region (CloverLeaf's
/// `field_summary`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Total volume.
    pub volume: f64,
    /// Total mass `Σ ρ V`.
    pub mass: f64,
    /// Total internal energy `Σ ρ e V`.
    pub internal_energy: f64,
    /// Total kinetic energy `Σ ½ ρ |u|² V` (cell-averaged node
    /// velocities).
    pub kinetic_energy: f64,
    /// Volume-weighted pressure integral.
    pub pressure: f64,
}

impl Summary {
    /// Sum of two summaries.
    pub fn merged(&self, o: &Summary) -> Summary {
        Summary {
            volume: self.volume + o.volume,
            mass: self.mass + o.mass,
            internal_energy: self.internal_energy + o.internal_energy,
            kinetic_energy: self.kinetic_energy + o.kinetic_energy,
            pressure: self.pressure + o.pressure,
        }
    }

    /// Total energy (internal + kinetic).
    pub fn total_energy(&self) -> f64 {
        self.internal_energy + self.kinetic_energy
    }
}

/// The per-patch black box of the paper's Figure 6: every numerical
/// phase of the CloverLeaf step, on one patch. Two implementations
/// exist — host and device — and the hierarchy driver never knows which
/// it holds. Both run their phases through [`crate::level_executor`] on
/// a batch of one patch, the same functions [`crate::HydroSim`] steps
/// whole levels with; the driver itself uses this trait for
/// initialisation, re-priming, flagging and diagnostics.
pub trait PatchIntegrator: Send + Sync {
    /// Implementation name ("host" / "device").
    fn name(&self) -> &'static str;

    /// Set the initial state from region definitions (the sanctioned
    /// initialisation-time full-array transfer on the device path).
    fn init_regions(
        &self,
        patch: &mut Patch,
        f: &Fields,
        origin: (f64, f64),
        dx: (f64, f64),
        regions: &[RegionInit],
        gamma: f64,
    );

    /// Equation of state: pressure and sound speed from density/energy
    /// (`predict` selects the working copies).
    fn ideal_gas(&self, patch: &mut Patch, f: &Fields, gamma: f64, predict: bool);

    /// Artificial viscosity from velocity gradients.
    fn viscosity(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64));

    /// Per-patch stable timestep (CFL + divergence constraints).
    fn calc_dt(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), cfl: f64) -> f64;

    /// PdV energy/density update (predictor: half dt with old
    /// velocities; corrector: full dt with averaged velocities).
    fn pdv(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64, predict: bool);

    /// Restore working density/energy to step-start values.
    fn revert(&self, patch: &mut Patch, f: &Fields);

    /// Node velocity update from pressure and viscosity gradients.
    fn accelerate(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64);

    /// Face volume fluxes from time-averaged node velocities.
    fn flux_calc(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64);

    /// Directionally split cell advection (density & energy). `dir` is
    /// the sweep axis; `sweep` is 1 or 2 within the step.
    fn advec_cell(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize);

    /// Momentum advection along `dir` for both velocity components.
    /// `sweep` as in [`PatchIntegrator::advec_cell`].
    fn advec_mom(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize);

    /// Copy the advanced state back to the step-start fields.
    fn reset(&self, patch: &mut Patch, f: &Fields);

    /// Evaluate the refinement heuristic; returns the compressed tag
    /// bitmap (the Section IV-C transfer format).
    fn flag_cells(&self, patch: &Patch, f: &Fields, thresholds: &FlagThresholds) -> TagBitmap;

    /// Conservation diagnostics over `region` (clipped to the patch
    /// interior). The region parameter lets the hierarchy driver exclude
    /// coarse cells covered by a finer level.
    fn field_summary(&self, patch: &Patch, f: &Fields, dx: (f64, f64), region: GBox) -> Summary;
}

/// [`CellTagger`] adapter running the flagging heuristic over every
/// local patch's whole interior, a level at a time
/// ([`level_executor::flag_cells`](crate::level_executor)). Cells already
/// covered by a finer level are flagged like any other: those tags are
/// what keeps the finer level alive at the next regrid.
pub struct HydroTagger<'a> {
    /// Where the patches' arrays live and what flagging them charges.
    pub(crate) ex: Exec<'a>,
    /// The field registry.
    pub fields: &'a Fields,
    /// Flagging thresholds.
    pub thresholds: FlagThresholds,
}

impl CellTagger for HydroTagger<'_> {
    fn tag_cells(&self, hierarchy: &PatchHierarchy, level: usize, _time: f64) -> Vec<TagBitmap> {
        flag_cells(hierarchy.level(level).local(), self.fields, self.ex, &self.thresholds)
    }
}

/// Region of cells a kernel computes, relative to the patch interior.
/// See the phase plan in [`crate::integrator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeRegion {
    /// The patch interior.
    Interior,
    /// Interior grown by `n` cells (clipped to the ghost box).
    Grown(i64),
    /// The full allocation (interior + all ghosts).
    GhostBox,
}

impl ComputeRegion {
    /// Resolve against a patch's interior cell box.
    pub fn cell_box(self, interior: GBox) -> GBox {
        match self {
            ComputeRegion::Interior => interior,
            ComputeRegion::Grown(n) => interior.grow(IntVector::uniform(n.min(GHOSTS))),
            ComputeRegion::GhostBox => interior.grow(IntVector::uniform(GHOSTS)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_amr::HostDataFactory;
    use std::sync::Arc;

    #[test]
    fn registration_creates_all_fields_with_right_centrings() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let f = Fields::register(&mut reg);
        assert_eq!(reg.len(), 22);
        assert_eq!(reg.get(f.density0).centring, Centring::Cell);
        assert_eq!(reg.get(f.xvel0).centring, Centring::Node);
        assert_eq!(reg.get(f.vol_flux_x).centring, Centring::Side(0));
        assert_eq!(reg.get(f.mass_flux_y).centring, Centring::Side(1));
        for v in reg.iter() {
            assert_eq!(v.ghosts, IntVector::uniform(GHOSTS), "{}", v.name);
        }
    }

    #[test]
    fn compute_regions_resolve() {
        let interior = GBox::from_coords(0, 0, 8, 8);
        assert_eq!(ComputeRegion::Interior.cell_box(interior), interior);
        assert_eq!(ComputeRegion::Grown(1).cell_box(interior), GBox::from_coords(-1, -1, 9, 9));
        assert_eq!(ComputeRegion::GhostBox.cell_box(interior), GBox::from_coords(-2, -2, 10, 10));
        // Grown clamps at the ghost width.
        assert_eq!(ComputeRegion::Grown(99).cell_box(interior), GBox::from_coords(-2, -2, 10, 10));
    }

    #[test]
    fn summary_merge_and_total() {
        let a = Summary {
            volume: 1.0,
            mass: 2.0,
            internal_energy: 3.0,
            kinetic_energy: 4.0,
            pressure: 5.0,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.mass, 4.0);
        assert_eq!(m.total_energy(), 14.0);
    }
}
