//! Visualisation output — legacy-VTK writers for the AMR hierarchy.
//!
//! In the original system SAMRAI's VisIt writer handles visualisation;
//! the paper lists it as one of the three situations where "relevant
//! regions of data are copied to the host memory" (regridding, boundary
//! updates, and synchronisation — plus initialisation/viz/restart as
//! whole-array transfers). This module reproduces that role with plain
//! legacy-VTK structured-points files, one per patch, plus a `.visit`
//! index — the format VisIt consumes for multi-block AMR data.

use crate::integrator::HydroSim;
use crate::state::Fields;
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::{HostData, Patch, VariableId};
use rbamr_gpu_amr::DeviceData;
use std::io::{self, Write};
use std::path::Path;

/// The cell fields a dump writes.
const DUMP_FIELDS: [&str; 3] = ["density", "energy", "pressure"];

fn field_ids(f: &Fields) -> [VariableId; 3] {
    [f.density0, f.energy0, f.pressure]
}

/// Read one full cell-centred array from either placement (interior
/// values only, row-major).
fn read_interior(patch: &Patch, var: VariableId) -> Vec<f64> {
    let cb = patch.cell_box();
    if let Some(h) = patch.data(var).as_any().downcast_ref::<HostData<f64>>() {
        cb.iter().map(|q| h.at(q)).collect()
    } else if let Some(d) = patch.data(var).as_any().downcast_ref::<DeviceData<f64>>() {
        let all = d.download_all();
        let dbox = d.data_box();
        cb.iter().map(|q| all[dbox.offset_of(q)]).collect()
    } else {
        panic!("vtk output: unsupported data placement");
    }
}

/// Write one patch as a legacy-VTK `STRUCTURED_POINTS` file.
fn write_patch_vtk(
    path: &Path,
    patch: &Patch,
    fields: &Fields,
    origin: (f64, f64),
    dx: (f64, f64),
) -> io::Result<()> {
    let cb = patch.cell_box();
    let (nx, ny) = (cb.size().x, cb.size().y);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# vtk DataFile Version 3.0")?;
    writeln!(out, "rbamr patch level {} index {}", patch.id().level, patch.id().index)?;
    writeln!(out, "ASCII")?;
    writeln!(out, "DATASET STRUCTURED_POINTS")?;
    writeln!(out, "DIMENSIONS {} {} 1", nx + 1, ny + 1)?;
    writeln!(
        out,
        "ORIGIN {} {} 0",
        origin.0 + cb.lo.x as f64 * dx.0,
        origin.1 + cb.lo.y as f64 * dx.1
    )?;
    writeln!(out, "SPACING {} {} 1", dx.0, dx.1)?;
    writeln!(out, "CELL_DATA {}", nx * ny)?;
    for (name, var) in DUMP_FIELDS.iter().zip(field_ids(fields)) {
        writeln!(out, "SCALARS {name} double 1")?;
        writeln!(out, "LOOKUP_TABLE default")?;
        for v in read_interior(patch, var) {
            writeln!(out, "{v}")?;
        }
    }
    out.flush()
}

impl HydroSim {
    /// Dump the hierarchy as VTK files into `dir`: one
    /// `patch_<level>_<index>.vtk` per locally owned patch plus a
    /// `dump.visit` index listing them (VisIt's multi-block format).
    /// Returns the number of patch files written.
    ///
    /// On the device build this is a sanctioned full-array D2H transfer
    /// per dumped field.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_vtk_dump(&self, dir: &Path) -> io::Result<usize> {
        let written = self.write_vtk_patches(dir)?;
        let index: Vec<String> = written.clone();
        let mut visit = io::BufWriter::new(std::fs::File::create(dir.join("dump.visit"))?);
        writeln!(visit, "!NBLOCKS {}", index.len())?;
        for name in &index {
            writeln!(visit, "{name}")?;
        }
        visit.flush()?;
        Ok(index.len())
    }

    /// Write this rank's patches only (no index). Distributed dumps
    /// call this on every rank — filenames carry the global patch index
    /// so they never collide — then rank 0 gathers the filename lists
    /// through the communicator and writes the index with
    /// [`HydroSim::write_vtk_dump_distributed`].
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_vtk_patches(&self, dir: &Path) -> io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let fields = *self.fields();
        let geometry = self.hierarchy().geometry();
        let mut index = Vec::new();
        for l in 0..self.hierarchy().num_levels() {
            let dx = self.hierarchy().dx(l);
            for patch in self.hierarchy().level(l).local() {
                let name = format!("patch_{}_{}.vtk", l, patch.id().index);
                write_patch_vtk(&dir.join(&name), patch, &fields, geometry.origin, dx)?;
                index.push(name);
            }
        }
        Ok(index)
    }

    /// Distributed dump: every rank writes its patches, the filename
    /// lists are gathered to rank 0, and rank 0 writes the `.visit`
    /// index. Returns the total block count (on rank 0; local count on
    /// other ranks).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    ///
    /// # Panics
    /// Panics if a gathered filename is not valid UTF-8 (impossible for
    /// names this method generates).
    pub fn write_vtk_dump_distributed(
        &self,
        dir: &Path,
        comm: &rbamr_netsim::Comm,
    ) -> io::Result<usize> {
        let mine = self.write_vtk_patches(dir)?;
        let payload = bytes::Bytes::from(mine.join("\n").into_bytes());
        let gathered = comm.gather(0, payload);
        let local = mine.len();
        if let Some(parts) = gathered {
            let mut index = Vec::new();
            for part in parts {
                let text = std::str::from_utf8(&part).expect("utf8 filenames");
                index.extend(text.lines().filter(|l| !l.is_empty()).map(str::to_owned));
            }
            index.sort();
            let mut visit = io::BufWriter::new(std::fs::File::create(dir.join("dump.visit"))?);
            writeln!(visit, "!NBLOCKS {}", index.len())?;
            for name in &index {
                writeln!(visit, "{name}")?;
            }
            visit.flush()?;
            Ok(index.len())
        } else {
            Ok(local)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::integrator::{HydroConfig, HydroSim, Placement};
    use crate::state::RegionInit;
    use rbamr_perfmodel::{Clock, Machine};

    fn build(placement: Placement) -> HydroSim {
        let machine = match placement {
            Placement::Host => Machine::ipa_cpu_node(),
            _ => Machine::ipa_gpu(),
        };
        let regions = vec![
            RegionInit {
                rect: (0.0, 0.0, 0.5, 1.0),
                density: 1.0,
                energy: 2.5,
                xvel: 0.0,
                yvel: 0.0,
            },
            RegionInit {
                rect: (0.5, 0.0, 1.0, 1.0),
                density: 0.125,
                energy: 2.0,
                xvel: 0.0,
                yvel: 0.0,
            },
        ];
        let mut sim = HydroSim::new(
            machine,
            placement,
            Clock::new(),
            (1.0, 1.0),
            (16, 16),
            2,
            2,
            HydroConfig::default(),
            regions,
            0,
            1,
        );
        sim.initialize(None);
        sim
    }

    #[test]
    fn dump_writes_every_patch_and_an_index() {
        let sim = build(Placement::Host);
        let dir = std::env::temp_dir().join(format!("rbamr_vtk_{}", std::process::id()));
        let n = sim.write_vtk_dump(&dir).expect("dump");
        let expected: usize =
            (0..sim.hierarchy().num_levels()).map(|l| sim.hierarchy().level(l).local().len()).sum();
        assert_eq!(n, expected);
        let index = std::fs::read_to_string(dir.join("dump.visit")).unwrap();
        assert!(index.starts_with(&format!("!NBLOCKS {n}")));
        // Spot-check one patch file's header and payload.
        let first = index.lines().nth(1).unwrap();
        let body = std::fs::read_to_string(dir.join(first)).unwrap();
        assert!(body.contains("DATASET STRUCTURED_POINTS"));
        assert!(body.contains("SCALARS density double 1"));
        assert!(body.contains("SCALARS pressure double 1"));
        // Sod left-state density appears.
        assert!(body.lines().any(|l| l.trim() == "1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distributed_dump_gathers_a_complete_index() {
        use rbamr_netsim::Cluster;
        let dir = std::env::temp_dir().join(format!("rbamr_vtk_dist_{}", std::process::id()));
        let dir2 = dir.clone();
        let cluster = Cluster::new(Machine::ipa_cpu_node());
        let results = cluster.run(3, move |comm| {
            let mut config = HydroConfig { max_patch_size: 8, ..HydroConfig::default() };
            config.regrid.max_patch_size = 8;
            let regions = vec![
                RegionInit {
                    rect: (0.0, 0.0, 0.5, 1.0),
                    density: 1.0,
                    energy: 2.5,
                    xvel: 0.0,
                    yvel: 0.0,
                },
                RegionInit {
                    rect: (0.5, 0.0, 1.0, 1.0),
                    density: 0.125,
                    energy: 2.0,
                    xvel: 0.0,
                    yvel: 0.0,
                },
            ];
            let mut sim = HydroSim::new(
                Machine::ipa_cpu_node(),
                Placement::Host,
                comm.clock().clone(),
                (1.0, 1.0),
                (16, 16),
                1,
                2,
                config,
                regions,
                comm.rank(),
                comm.size(),
            );
            sim.initialize(Some(&comm));
            sim.write_vtk_dump_distributed(&dir2, &comm).expect("distributed dump")
        });
        // Rank 0 reports the global block count = total patches.
        let total = results[0].value;
        assert_eq!(total, 4); // 16x16 split at max 8 => 4 patches
        let index = std::fs::read_to_string(dir.join("dump.visit")).unwrap();
        assert!(index.starts_with("!NBLOCKS 4"));
        for line in index.lines().skip(1) {
            assert!(dir.join(line).exists(), "missing {line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn device_dump_matches_host_dump() {
        let host = build(Placement::Host);
        let dev = build(Placement::Device);
        let hdir = std::env::temp_dir().join(format!("rbamr_vtk_h_{}", std::process::id()));
        let ddir = std::env::temp_dir().join(format!("rbamr_vtk_d_{}", std::process::id()));
        host.write_vtk_dump(&hdir).unwrap();
        dev.write_vtk_dump(&ddir).unwrap();
        let index = std::fs::read_to_string(hdir.join("dump.visit")).unwrap();
        for name in index.lines().skip(1) {
            let a = std::fs::read_to_string(hdir.join(name)).unwrap();
            let b = std::fs::read_to_string(ddir.join(name)).unwrap();
            assert_eq!(a, b, "placement-dependent dump for {name}");
        }
        std::fs::remove_dir_all(&hdir).ok();
        std::fs::remove_dir_all(&ddir).ok();
    }
}
