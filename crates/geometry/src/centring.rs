//! Data centrings: where on the mesh a quantity lives.

use crate::gbox::GBox;
use crate::ivec::IntVector;
use serde::{Deserialize, Serialize};

/// The mesh centring of a simulation quantity.
///
/// The paper's hydro scheme needs exactly three centrings (Section IV-B):
/// cell-centred (density, energy, pressure), node-centred (velocities on
/// the staggered grid) and side-centred (volume/mass fluxes through cell
/// faces). Each centring induces a different *data box* for the same
/// cell box: a patch of `n × m` cells stores `(n+1) × (m+1)` node values
/// and `(n+1) × m` x-side values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Centring {
    /// Values at cell centres.
    Cell,
    /// Values at cell corners (nodes of the dual grid).
    Node,
    /// Values at face centres with normal along `axis` (0 = x, 1 = y).
    Side(usize),
}

impl Centring {
    /// Map a cell box to the index box of data with this centring.
    ///
    /// * `Cell` — unchanged.
    /// * `Node` — one extra layer on the upper side in both axes.
    /// * `Side(d)` — one extra layer on the upper side along `d`.
    #[inline]
    pub fn data_box(self, cell_box: GBox) -> GBox {
        if cell_box.is_empty() {
            return GBox::EMPTY;
        }
        match self {
            Centring::Cell => cell_box,
            Centring::Node => cell_box.grow_upper(IntVector::ONE),
            Centring::Side(axis) => {
                assert!(axis < 2, "Centring::Side axis out of range");
                cell_box.grow_upper(IntVector::unit(axis))
            }
        }
    }

    /// Number of data values this centring stores for a given cell box.
    pub fn num_values(self, cell_box: GBox) -> i64 {
        self.data_box(cell_box).num_cells()
    }

    /// Short human-readable name (used in variable registries and
    /// diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Centring::Cell => "cell",
            Centring::Node => "node",
            Centring::Side(0) => "side-x",
            Centring::Side(1) => "side-y",
            Centring::Side(_) => unreachable!("2D centring"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn cell_box_unchanged() {
        let c = b(0, 0, 4, 3);
        assert_eq!(Centring::Cell.data_box(c), c);
        assert_eq!(Centring::Cell.num_values(c), 12);
    }

    #[test]
    fn node_box_one_larger_each_axis() {
        let c = b(0, 0, 4, 3);
        assert_eq!(Centring::Node.data_box(c), b(0, 0, 5, 4));
        assert_eq!(Centring::Node.num_values(c), 20);
    }

    #[test]
    fn side_boxes_one_larger_along_normal() {
        let c = b(0, 0, 4, 3);
        assert_eq!(Centring::Side(0).data_box(c), b(0, 0, 5, 3));
        assert_eq!(Centring::Side(1).data_box(c), b(0, 0, 4, 4));
        assert_eq!(Centring::Side(0).num_values(c), 15);
        assert_eq!(Centring::Side(1).num_values(c), 16);
    }

    #[test]
    fn empty_boxes_stay_empty() {
        assert!(Centring::Node.data_box(GBox::EMPTY).is_empty());
        assert_eq!(Centring::Side(1).num_values(GBox::EMPTY), 0);
    }

    #[test]
    fn names() {
        assert_eq!(Centring::Cell.name(), "cell");
        assert_eq!(Centring::Node.name(), "node");
        assert_eq!(Centring::Side(0).name(), "side-x");
        assert_eq!(Centring::Side(1).name(), "side-y");
    }
}
