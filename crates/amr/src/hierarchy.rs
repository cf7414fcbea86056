//! The patch hierarchy: the stack of refinement levels.

use crate::level::PatchLevel;
use crate::variable::VariableRegistry;
use rbamr_geometry::{BoxList, GBox, IntVector};

/// Physical geometry of the index space: maps level-0 cell indices to
/// coordinates. Refined levels divide the cell widths by the cumulative
/// refinement ratio (the paper's `h_l = h_{l-1} / r_l`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridGeometry {
    /// Physical coordinates of level-0 index (0, 0)'s lower corner.
    pub origin: (f64, f64),
    /// Level-0 cell widths.
    pub dx0: (f64, f64),
}

impl GridGeometry {
    /// Unit geometry: origin 0, level-0 cells of width `dx`.
    pub fn unit(dx: f64) -> Self {
        Self { origin: (0.0, 0.0), dx0: (dx, dx) }
    }

    /// Cell widths at a level with cumulative ratio `cum_ratio` to
    /// level 0.
    pub fn dx_at(&self, cum_ratio: IntVector) -> (f64, f64) {
        (self.dx0.0 / cum_ratio.x as f64, self.dx0.1 / cum_ratio.y as f64)
    }
}

/// The AMR patch hierarchy (paper Section II): level 0 is the base grid
/// `G_0`, fixed for the whole run; finer levels are rebuilt by the
/// regridding procedure as features move.
pub struct PatchHierarchy {
    geometry: GridGeometry,
    /// The level-0 (cell-space) problem domain.
    base_domain: BoxList,
    /// Refinement ratio of level `l` relative to `l-1` (`ratios[0]` is
    /// unused and stored as ONE).
    ratios: Vec<IntVector>,
    /// Maximum number of levels ever allowed.
    max_levels: usize,
    /// This rank's id (owner comparisons) and the job size.
    rank: usize,
    nranks: usize,
    levels: Vec<PatchLevel>,
    /// Telemetry handle used by the communication schedules and the
    /// regridding machinery (disabled unless the application wires one
    /// through [`PatchHierarchy::set_recorder`]).
    recorder: rbamr_telemetry::Recorder,
}

impl PatchHierarchy {
    /// Create an empty hierarchy.
    ///
    /// * `ratio` — the uniform refinement ratio between adjacent levels
    ///   (the paper uses 2).
    /// * `max_levels` — including level 0 (the paper's experiments use
    ///   3 levels of refinement on top of the coarse grid).
    ///
    /// # Panics
    /// Panics on an empty domain, non-positive ratio, or `max_levels ==
    /// 0`.
    pub fn new(
        geometry: GridGeometry,
        base_domain: BoxList,
        ratio: IntVector,
        max_levels: usize,
        rank: usize,
        nranks: usize,
    ) -> Self {
        assert!(!base_domain.is_empty(), "PatchHierarchy: empty domain");
        assert!(ratio.all_gt(IntVector::ZERO), "PatchHierarchy: bad ratio");
        assert!(max_levels > 0, "PatchHierarchy: need at least one level");
        assert!(rank < nranks, "PatchHierarchy: rank out of range");
        let ratios = (0..max_levels).map(|l| if l == 0 { IntVector::ONE } else { ratio }).collect();
        Self {
            geometry,
            base_domain,
            ratios,
            max_levels,
            rank,
            nranks,
            levels: Vec::new(),
            recorder: rbamr_telemetry::Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; refine/coarsen schedules and
    /// regridding record spans and counters through it.
    pub fn set_recorder(&mut self, recorder: rbamr_telemetry::Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder (disabled if never set).
    pub fn recorder(&self) -> &rbamr_telemetry::Recorder {
        &self.recorder
    }

    /// The physical geometry.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// The level-0 domain.
    pub fn base_domain(&self) -> &BoxList {
        &self.base_domain
    }

    /// Maximum number of levels.
    pub fn max_levels(&self) -> usize {
        self.max_levels
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Number of levels currently in the hierarchy.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Refinement ratio of level `l` to level `l-1`.
    pub fn ratio_to_coarser(&self, l: usize) -> IntVector {
        self.ratios[l]
    }

    /// Cumulative refinement ratio of level `l` to level 0.
    pub fn cumulative_ratio(&self, l: usize) -> IntVector {
        let mut r = IntVector::ONE;
        for i in 1..=l {
            r = r.scale(self.ratios[i]);
        }
        r
    }

    /// The index-space domain of level `l` (the refined base domain).
    pub fn level_domain(&self, l: usize) -> BoxList {
        self.base_domain.refine(self.cumulative_ratio(l))
    }

    /// Physical cell widths on level `l`.
    pub fn dx(&self, l: usize) -> (f64, f64) {
        self.geometry.dx_at(self.cumulative_ratio(l))
    }

    /// A level, by number.
    pub fn level(&self, l: usize) -> &PatchLevel {
        &self.levels[l]
    }

    /// A level, mutable.
    pub fn level_mut(&mut self, l: usize) -> &mut PatchLevel {
        &mut self.levels[l]
    }

    /// Two distinct levels at once, mutable (inter-level operations).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn level_pair_mut(&mut self, a: usize, b: usize) -> (&mut PatchLevel, &mut PatchLevel) {
        assert_ne!(a, b, "level_pair_mut: same level twice");
        let (lo, hi, swap) = if a < b { (a, b, false) } else { (b, a, true) };
        let (head, tail) = self.levels.split_at_mut(hi);
        let la = &mut head[lo];
        let lb = &mut tail[0];
        if swap {
            (lb, la)
        } else {
            (la, lb)
        }
    }

    /// Install (or replace) level `l`: builds local patches for the
    /// boxes owned by this rank.
    ///
    /// Levels must be installed densely: `l <= num_levels()`.
    ///
    /// # Panics
    /// Panics if `l` skips a level, exceeds `max_levels`, or the boxes
    /// violate the level-domain containment checked by
    /// [`PatchLevel::new`].
    pub fn set_level(
        &mut self,
        l: usize,
        boxes: Vec<GBox>,
        owners: Vec<usize>,
        registry: &VariableRegistry,
    ) {
        assert!(l < self.max_levels, "set_level: level {l} exceeds max_levels");
        assert!(l <= self.levels.len(), "set_level: level {l} would leave a gap");
        let level = PatchLevel::new(
            l,
            self.ratios[l],
            boxes,
            owners,
            self.level_domain(l),
            self.rank,
            registry,
        );
        if l == self.levels.len() {
            self.levels.push(level);
        } else {
            self.levels[l] = level;
        }
    }

    /// Install a fully built level and return the one it replaced, if
    /// any: the regridder installs the new level first and transfers
    /// the solution into it from the returned one.
    ///
    /// # Panics
    /// Panics on level-number mismatch or gaps.
    pub fn install_level(&mut self, l: usize, level: PatchLevel) -> Option<PatchLevel> {
        assert_eq!(level.level_no(), l, "install_level: level number mismatch");
        assert!(l < self.max_levels, "install_level: exceeds max_levels");
        assert!(l <= self.levels.len(), "install_level: would leave a gap");
        if l == self.levels.len() {
            self.levels.push(level);
            None
        } else {
            Some(std::mem::replace(&mut self.levels[l], level))
        }
    }

    /// Remove every level finer than `l` (regridding may reduce the
    /// level count when features disappear).
    pub fn truncate_levels(&mut self, num: usize) {
        assert!(num >= 1, "truncate_levels: cannot remove level 0");
        self.levels.truncate(num);
    }

    /// Structure digest of level `l` (see
    /// [`PatchLevel::structure_digest`]): identical on every rank, and
    /// changed by any box, owner, or ordering change on the level.
    pub fn structure_digest(&self, l: usize) -> u64 {
        self.levels[l].structure_digest()
    }

    /// Total cells over all levels (globally).
    pub fn total_cells(&self) -> i64 {
        self.levels.iter().map(|l| l.num_cells()).sum()
    }

    /// The finest level number.
    pub fn finest_level(&self) -> usize {
        self.levels.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use rbamr_geometry::Centring;
    use std::sync::Arc;

    fn registry() -> VariableRegistry {
        let mut r = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r
    }

    fn hierarchy() -> PatchHierarchy {
        PatchHierarchy::new(
            GridGeometry::unit(1.0 / 16.0),
            BoxList::from_box(GBox::from_coords(0, 0, 16, 16)),
            IntVector::uniform(2),
            3,
            0,
            1,
        )
    }

    #[test]
    fn ratios_and_domains_refine() {
        let h = hierarchy();
        assert_eq!(h.cumulative_ratio(0), IntVector::ONE);
        assert_eq!(h.cumulative_ratio(1), IntVector::uniform(2));
        assert_eq!(h.cumulative_ratio(2), IntVector::uniform(4));
        assert_eq!(h.level_domain(2).num_cells(), 16 * 16 * 16);
        let (dx, dy) = h.dx(2);
        assert!((dx - 1.0 / 64.0).abs() < 1e-15);
        assert!((dy - 1.0 / 64.0).abs() < 1e-15);
    }

    #[test]
    fn level_installation() {
        let r = registry();
        let mut h = hierarchy();
        h.set_level(0, vec![GBox::from_coords(0, 0, 16, 16)], vec![0], &r);
        h.set_level(1, vec![GBox::from_coords(8, 8, 24, 24)], vec![0], &r);
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.finest_level(), 1);
        assert_eq!(h.total_cells(), 256 + 256);
        // Replace level 1.
        h.set_level(1, vec![GBox::from_coords(0, 0, 8, 8)], vec![0], &r);
        assert_eq!(h.total_cells(), 256 + 64);
        h.truncate_levels(1);
        assert_eq!(h.num_levels(), 1);
    }

    #[test]
    #[should_panic(expected = "would leave a gap")]
    fn gap_levels_rejected() {
        let r = registry();
        let mut h = hierarchy();
        h.set_level(0, vec![GBox::from_coords(0, 0, 16, 16)], vec![0], &r);
        h.set_level(2, vec![GBox::from_coords(0, 0, 8, 8)], vec![0], &r);
    }

    #[test]
    fn level_pair_mut_is_order_correct() {
        let r = registry();
        let mut h = hierarchy();
        h.set_level(0, vec![GBox::from_coords(0, 0, 16, 16)], vec![0], &r);
        h.set_level(1, vec![GBox::from_coords(8, 8, 16, 16)], vec![0], &r);
        let (fine, coarse) = h.level_pair_mut(1, 0);
        assert_eq!(fine.level_no(), 1);
        assert_eq!(coarse.level_no(), 0);
    }
}
