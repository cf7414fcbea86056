//! Hierarchy statistics — the mesh diagnostics SAMRAI prints per
//! regrid (patch counts, size distributions, coverage, balance), used
//! by the benchmark harnesses and examples to report mesh quality.

use crate::balance::imbalance;
use crate::hierarchy::PatchHierarchy;
use rbamr_geometry::GBox;

/// Statistics for one level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelStats {
    /// Level number.
    pub level: usize,
    /// Global patch count.
    pub patches: usize,
    /// Global cell count.
    pub cells: i64,
    /// Smallest patch extent seen (either axis).
    pub min_extent: i64,
    /// Largest patch extent seen (either axis).
    pub max_extent: i64,
    /// Mean cells per patch.
    pub mean_patch_cells: f64,
    /// Fraction of the level's domain covered by patches (level 0 is
    /// 1.0 by construction; finer levels show refinement selectivity).
    pub coverage: f64,
    /// Load imbalance of the owner assignment (1.0 = perfect).
    pub imbalance: f64,
}

/// Statistics for the whole hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyStats {
    /// Per-level statistics.
    pub levels: Vec<LevelStats>,
    /// Total stored cells over all levels.
    pub total_cells: i64,
    /// Cells a uniform grid at the finest resolution would need.
    pub uniform_equivalent_cells: i64,
}

impl HierarchyStats {
    /// The AMR saving: uniform-equivalent cells divided by stored
    /// cells — the paper's motivation ("fewer resources ... without a
    /// corresponding reduction in accuracy").
    pub fn compression(&self) -> f64 {
        self.uniform_equivalent_cells as f64 / self.total_cells.max(1) as f64
    }

    /// Render as an aligned table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>8} {:>12} {:>8} {:>8} {:>10} {:>9} {:>10}\n",
            "level", "patches", "cells", "min-ext", "max-ext", "mean-size", "coverage", "imbalance"
        ));
        for l in &self.levels {
            out.push_str(&format!(
                "{:>5} {:>8} {:>12} {:>8} {:>8} {:>10.0} {:>8.1}% {:>10.2}\n",
                l.level,
                l.patches,
                l.cells,
                l.min_extent,
                l.max_extent,
                l.mean_patch_cells,
                l.coverage * 100.0,
                l.imbalance,
            ));
        }
        out.push_str(&format!(
            "total {} cells; uniform-equivalent {} ({:.1}x compression)\n",
            self.total_cells,
            self.uniform_equivalent_cells,
            self.compression()
        ));
        out
    }
}

/// Compute statistics for the hierarchy.
///
/// An empty hierarchy (no levels installed yet) yields zeroed stats
/// rather than underflowing on the finest-level lookup.
pub fn hierarchy_stats(h: &PatchHierarchy) -> HierarchyStats {
    if h.num_levels() == 0 {
        return HierarchyStats { levels: Vec::new(), total_cells: 0, uniform_equivalent_cells: 0 };
    }
    let mut levels = Vec::new();
    for l in 0..h.num_levels() {
        let level = h.level(l);
        let boxes: Vec<GBox> = level.global_boxes().to_vec();
        let owners: Vec<usize> = level.owners().to_vec();
        let cells = level.num_cells();
        let (mut min_extent, mut max_extent) = (i64::MAX, 0i64);
        for b in &boxes {
            min_extent = min_extent.min(b.size().x).min(b.size().y);
            max_extent = max_extent.max(b.size().x).max(b.size().y);
        }
        if boxes.is_empty() {
            min_extent = 0;
        }
        levels.push(LevelStats {
            level: l,
            patches: boxes.len(),
            cells,
            min_extent,
            max_extent,
            mean_patch_cells: cells as f64 / boxes.len().max(1) as f64,
            coverage: cells as f64 / h.level_domain(l).num_cells() as f64,
            imbalance: imbalance(&boxes, &owners, h.nranks()),
        });
    }
    let finest = h.num_levels() - 1;
    HierarchyStats {
        levels,
        total_cells: h.total_cells(),
        uniform_equivalent_cells: h.level_domain(finest).num_cells(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use crate::variable::VariableRegistry;
    use crate::GridGeometry;
    use rbamr_geometry::{BoxList, Centring, IntVector};
    use std::sync::Arc;

    fn hierarchy() -> (PatchHierarchy, VariableRegistry) {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        reg.register("q", Centring::Cell, IntVector::uniform(2));
        let mut h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(GBox::from_coords(0, 0, 16, 16)),
            IntVector::uniform(2),
            2,
            0,
            1,
        );
        h.set_level(
            0,
            vec![GBox::from_coords(0, 0, 8, 16), GBox::from_coords(8, 0, 16, 16)],
            vec![0, 0],
            &reg,
        );
        h.set_level(1, vec![GBox::from_coords(8, 8, 24, 24)], vec![0], &reg);
        (h, reg)
    }

    #[test]
    fn per_level_statistics() {
        let (h, _reg) = hierarchy();
        let s = hierarchy_stats(&h);
        assert_eq!(s.levels.len(), 2);
        assert_eq!(s.levels[0].patches, 2);
        assert_eq!(s.levels[0].cells, 256);
        assert_eq!(s.levels[0].coverage, 1.0);
        assert_eq!(s.levels[0].min_extent, 8);
        assert_eq!(s.levels[0].max_extent, 16);
        assert_eq!(s.levels[1].patches, 1);
        assert_eq!(s.levels[1].cells, 256);
        // Level-1 domain is 32x32 = 1024; one 16x16 patch covers 25%.
        assert!((s.levels[1].coverage - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compression_reflects_amr_savings() {
        let (h, _reg) = hierarchy();
        let s = hierarchy_stats(&h);
        assert_eq!(s.total_cells, 512);
        assert_eq!(s.uniform_equivalent_cells, 1024);
        assert_eq!(s.compression(), 2.0);
    }

    #[test]
    fn empty_hierarchy_yields_zeroed_stats() {
        // No levels installed: must not underflow computing the finest
        // level (regression for `num_levels() - 1` on an empty stack).
        let h = PatchHierarchy::new(
            GridGeometry::unit(1.0),
            BoxList::from_box(GBox::from_coords(0, 0, 16, 16)),
            IntVector::uniform(2),
            2,
            0,
            1,
        );
        let s = hierarchy_stats(&h);
        assert!(s.levels.is_empty());
        assert_eq!(s.total_cells, 0);
        assert_eq!(s.uniform_equivalent_cells, 0);
        assert_eq!(s.compression(), 0.0);
        assert!(s.table().contains("compression"));
    }

    #[test]
    fn table_renders_every_level() {
        let (h, _reg) = hierarchy();
        let t = hierarchy_stats(&h).table();
        assert!(t.contains("compression"));
        assert_eq!(t.lines().count(), 4); // header + 2 levels + summary
    }
}
