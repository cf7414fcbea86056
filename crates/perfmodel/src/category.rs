//! Runtime categories for attributing virtual time.

use serde::{Deserialize, Serialize};

/// The runtime component a span of virtual time belongs to.
///
/// The categories map onto the series of Figure 11 and the percentage
/// breakdown in Section V-B of the paper:
///
/// * **Hydrodynamics** (Fig. 11) = [`Category::HydroKernel`] +
///   [`Category::HaloExchange`] — "the hydrodynamics of the application
///   (including numerical kernels and halo exchanges)".
/// * **Synchronisation** (Fig. 11) = [`Category::Synchronize`] —
///   coarsening fine data onto coarser levels after each step.
/// * **Regridding** (Fig. 11) = [`Category::Regrid`] — flagging,
///   clustering and solution transfer.
/// * **Timestep** (Section V-B: "calculating the timestep, which
///   contains the only global reduction") = [`Category::Timestep`].
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Category {
    /// Numerical kernels advancing the solution on patches.
    HydroKernel,
    /// Boundary/ghost filling: pack and unpack kernels, PCIe transfers of
    /// packed buffers, and network messages.
    HaloExchange,
    /// The global dt reduction (device reduction + PCIe scalar copy +
    /// MPI allreduce).
    Timestep,
    /// Fine-to-coarse solution synchronisation (the coarsen schedules).
    Synchronize,
    /// Error flagging, tag compression/transfer, clustering, and
    /// solution transfer onto the new hierarchy.
    Regrid,
    /// Everything else (initialisation, diagnostics): a clock's scope
    /// outside every other.
    #[default]
    Other,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 6] = [
        Category::HydroKernel,
        Category::HaloExchange,
        Category::Timestep,
        Category::Synchronize,
        Category::Regrid,
        Category::Other,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::HydroKernel => "hydro-kernel",
            Category::HaloExchange => "halo-exchange",
            Category::Timestep => "timestep",
            Category::Synchronize => "synchronize",
            Category::Regrid => "regrid",
            Category::Other => "other",
        }
    }

    /// Index into dense per-category arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Category::HydroKernel => 0,
            Category::HaloExchange => 1,
            Category::Timestep => 2,
            Category::Synchronize => 3,
            Category::Regrid => 4,
            Category::Other => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for c in Category::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in Category::ALL.iter().enumerate() {
            for b in &Category::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
