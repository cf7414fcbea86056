//! Checkpoint/restart for the whole simulation — the end-to-end use of
//! the restart database from the paper's Figure 2 interface
//! (`putToRestart`/`getFromRestart`).
//!
//! A checkpoint is a *rank-count-independent global manifest*
//! (format 2): per-patch records keyed by patch identity — index and
//! box, never owner rank — plus the full state arrays of every patch.
//! In distributed runs [`HydroSim::try_save_checkpoint`] allgathers the
//! per-rank records and patch payloads so every rank holds the same
//! complete database; restore re-derives ownership with the same
//! space-filling-curve partitioner the live run uses
//! ([`rbamr_amr::balance::partition_sfc`]), so a checkpoint written at
//! N ranks restores onto any rank count — including the shrunken
//! survivor set after a permanent rank loss. On the device build,
//! writing a checkpoint is one of the three sanctioned full-array D2H
//! transfers (initialisation, visualisation, restart); restoring
//! uploads once per field.
//!
//! Restore is *fault-aware*: it returns a typed [`RestoreError`]
//! instead of panicking, and in distributed runs its communication
//! pattern runs through faults in lock-step (an agreement reduction
//! sits between the structure exchange and the ghost-fill priming, so
//! no rank ever fills against a structure its peers failed to
//! assemble). That makes it safe to call from the recovery driver while
//! fault injection is live.

use crate::integrator::HydroSim;
use crate::state::Fields;
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::restart::{Database, RestoreError, Value};
use rbamr_geometry::{BoxList, BoxOverlap, GBox, IntVector};
use rbamr_netsim::Comm;
use rbamr_perfmodel::Category;

/// The state fields a checkpoint persists (everything else is
/// recomputed by the next step's EOS/fill phases).
fn checkpoint_fields(f: &Fields) -> [(&'static str, rbamr_amr::VariableId); 4] {
    [("density0", f.density0), ("energy0", f.energy0), ("xvel0", f.xvel0), ("yvel0", f.yvel0)]
}

/// The full-array overlap of a patch datum — both placements serialise
/// through the same `pack`/`unpack` streams the halo exchange uses.
fn full_overlap(data: &dyn PatchData) -> BoxOverlap {
    BoxOverlap {
        dst_boxes: BoxList::from_box(data.data_box()),
        shift: IntVector::ZERO,
        centring: data.centring(),
    }
}

/// Read a patch's full data array, from either placement. On the
/// device placements this is a sanctioned full-array D2H transfer; an
/// injected transfer fault latches on the device and is drained by the
/// caller's next [`rbamr_device::Device::take_injected_fault`] poll.
fn read_values(data: &dyn PatchData) -> Vec<f64> {
    let bytes = data.pack(&full_overlap(data));
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect()
}

/// Write a patch's full data array, to either placement.
fn try_write_values(
    data: &mut dyn PatchData,
    values: &[f64],
    key: &str,
) -> Result<(), RestoreError> {
    let ov = full_overlap(data);
    let expected = data.stream_size(&ov) / std::mem::size_of::<f64>();
    if values.len() != expected {
        return Err(RestoreError::Malformed {
            key: key.to_owned(),
            expected: "field array of the patch's size",
        });
    }
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    // The "device fault" prefix is what `SimError::from(RestoreError)`
    // keys on to classify the failure for the degradation policy.
    data.try_unpack(&ov, &bytes)
        .map_err(|e| RestoreError::Exchange { detail: format!("device fault: {e}") })
}

/// Checkpoint manifest format written by [`HydroSim::try_save_checkpoint`]
/// and required by [`HydroSim::try_restore_checkpoint`]. Format 2 is
/// the rank-count-independent global manifest: five identity words per
/// record (no owner rank) and every patch's payload present on every
/// rank.
const CHECKPOINT_FORMAT: i64 = 2;

/// Per-level structure records as stored in a checkpoint: five `i64`
/// words per record — `index, lo.x, lo.y, hi.x, hi.y`. Ownership is
/// deliberately *not* persisted: restore re-partitions onto whatever
/// rank count is running.
const RECORD_WORDS: usize = 5;

fn decode_records(words: &[i64]) -> Result<Vec<GBox>, RestoreError> {
    let malformed = |expected| RestoreError::Malformed { key: "records".to_owned(), expected };
    if !words.len().is_multiple_of(RECORD_WORDS) {
        return Err(malformed("multiple of 5 words per record"));
    }
    let mut recs: Vec<(i64, GBox)> = words
        .chunks_exact(RECORD_WORDS)
        .map(|c| (c[0], GBox::from_coords(c[1], c[2], c[3], c[4])))
        .collect();
    recs.sort_by_key(|&(i, _)| i);
    let mut boxes = Vec::with_capacity(recs.len());
    for (i, (idx, b)) in recs.into_iter().enumerate() {
        if idx != i as i64 {
            return Err(malformed("contiguous patch indices"));
        }
        boxes.push(b);
    }
    Ok(boxes)
}

/// One patch's payload: its level-local index and the values of each
/// checkpoint field, in field order.
type PatchEntry = (usize, [Vec<f64>; 4]);

/// Serialise one rank's owned patch payloads for a level into a flat
/// byte blob the structure allgather can carry: per patch, a `u64`
/// index followed by, for each checkpoint field in order, a `u64` word
/// count and that many `f64` little-endian words.
fn encode_patch_blob(entries: &[PatchEntry]) -> Vec<u8> {
    let mut blob = Vec::new();
    for (index, fields) in entries {
        blob.extend_from_slice(&(*index as u64).to_le_bytes());
        for values in fields {
            blob.extend_from_slice(&(values.len() as u64).to_le_bytes());
            for v in values {
                blob.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    blob
}

/// Decode a patch-payload blob back into `(index, fields)` entries.
fn decode_patch_blob(blob: &[u8]) -> Result<Vec<PatchEntry>, RestoreError> {
    let malformed = || RestoreError::Malformed {
        key: "patch payload".to_owned(),
        expected: "index and four length-prefixed field arrays per patch",
    };
    let mut entries = Vec::new();
    let mut at = 0usize;
    let read_u64 = |at: &mut usize| -> Result<u64, RestoreError> {
        let end = at.checked_add(8).ok_or_else(malformed)?;
        let bytes = blob.get(*at..end).ok_or_else(malformed)?;
        *at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    };
    while at < blob.len() {
        let index = read_u64(&mut at)? as usize;
        let mut fields: [Vec<f64>; 4] = Default::default();
        for f in fields.iter_mut() {
            let len = read_u64(&mut at)? as usize;
            let end = at.checked_add(len.checked_mul(8).ok_or_else(malformed)?);
            let bytes = end.and_then(|e| blob.get(at..e)).ok_or_else(malformed)?;
            *f = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            at += len * 8;
        }
        entries.push((index, fields));
    }
    Ok(entries)
}

impl HydroSim {
    /// Serialise the simulation state into a restart database
    /// (single-rank wrapper over [`HydroSim::try_save_checkpoint`]).
    ///
    /// Without a communicator the save is purely local, so on a
    /// single-rank simulation the database is the complete global
    /// manifest. Multi-rank simulations must use
    /// [`HydroSim::try_save_checkpoint`] with their communicator
    /// instead — a local save would cover only this rank's patches and
    /// fail the restore-side contiguity check.
    pub fn save_checkpoint(&self) -> Database {
        self.try_save_checkpoint(None).expect("a local checkpoint save cannot fail")
    }

    /// Serialise the simulation into a *global* checkpoint manifest.
    ///
    /// Every rank contributes its owned structure records and patch
    /// payloads; a per-level allgather merges them so every rank
    /// returns an identical database covering the whole simulation,
    /// keyed by patch identity rather than owner rank. That makes the
    /// checkpoint rank-count-independent: it restores onto any rank
    /// count, including the survivor set after a permanent rank loss.
    ///
    /// Run-through discipline: the exchanges execute for every level on
    /// every rank regardless of earlier errors, then an agreement
    /// reduction decides the verdict collectively — either every rank
    /// returns a usable manifest or every rank returns `Err` together.
    ///
    /// # Errors
    /// [`RestoreError::Exchange`] when a fault interrupts the merge
    /// exchanges, or the collective agreement reports a peer failure.
    pub fn try_save_checkpoint(&self, comm: Option<&Comm>) -> Result<Database, RestoreError> {
        let mut db = Database::new();
        db.put("format", Value::I64(CHECKPOINT_FORMAT));
        db.put("time", Value::F64(self.time()));
        db.put("step", Value::I64(self.steps_taken() as i64));
        db.put("prev_dt", Value::F64(self.prev_dt()));
        db.put("num_levels", Value::I64(self.hierarchy().num_levels() as i64));
        let fields = *self.fields();
        let mut first_err: Option<RestoreError> = None;
        for l in 0..self.hierarchy().num_levels() {
            let level = self.hierarchy().level(l);
            let mut rec_bytes = Vec::new();
            let mut entries = Vec::new();
            for patch in level.local() {
                let b = patch.cell_box();
                for w in [patch.id().index as i64, b.lo.x, b.lo.y, b.hi.x, b.hi.y] {
                    rec_bytes.extend_from_slice(&w.to_le_bytes());
                }
                let values =
                    checkpoint_fields(&fields).map(|(_, var)| read_values(patch.data(var)));
                entries.push((patch.id().index, values));
            }
            let blob = encode_patch_blob(&entries);
            let (rec_parts, blob_parts) = if let Some(comm) = comm {
                let rec = match comm.try_allgatherv(bytes::Bytes::from(rec_bytes), Category::Other)
                {
                    Ok(parts) => parts,
                    Err(e) => {
                        first_err.get_or_insert(RestoreError::Exchange { detail: e.to_string() });
                        Vec::new()
                    }
                };
                let data = match comm.try_allgatherv(bytes::Bytes::from(blob), Category::Other) {
                    Ok(parts) => parts,
                    Err(e) => {
                        first_err.get_or_insert(RestoreError::Exchange { detail: e.to_string() });
                        Vec::new()
                    }
                };
                (rec, data)
            } else {
                (vec![bytes::Bytes::from(rec_bytes)], vec![bytes::Bytes::from(blob)])
            };

            // Merge into the canonical global form: records and patch
            // children sorted by patch index, identical on every rank.
            let mut words: Vec<i64> = rec_parts
                .iter()
                .flat_map(|p| p.chunks_exact(8))
                .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            if words.len().is_multiple_of(RECORD_WORDS) {
                let mut recs: Vec<[i64; RECORD_WORDS]> = words
                    .chunks_exact(RECORD_WORDS)
                    .map(|c| c.try_into().expect("record chunk"))
                    .collect();
                recs.sort_by_key(|r| r[0]);
                words = recs.into_iter().flatten().collect();
            }
            let ldb = db.child(&format!("level_{l}"));
            ldb.put("records", Value::VecI64(words));
            let mut merged = Vec::new();
            for part in &blob_parts {
                match decode_patch_blob(part) {
                    Ok(mut es) => merged.append(&mut es),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            merged.sort_by_key(|&(index, _)| index);
            for (index, values) in merged {
                let pdb = ldb.child(&format!("patch_{index}"));
                for ((name, _), v) in checkpoint_fields(&fields).into_iter().zip(values) {
                    pdb.put(name, Value::VecF64(v));
                }
            }
        }

        // Agreement: every rank adopts the manifest, or no rank does.
        if let Some(comm) = comm {
            let ok = if first_err.is_none() { 1.0 } else { 0.0 };
            match comm.try_allreduce_min(ok, Category::Other) {
                Ok(all_ok) if all_ok >= 1.0 => {}
                Ok(_) => {
                    return Err(first_err.unwrap_or_else(|| RestoreError::Exchange {
                        detail: "a peer rank failed to assemble the checkpoint manifest".into(),
                    }))
                }
                Err(e) => {
                    return Err(
                        first_err.unwrap_or(RestoreError::Exchange { detail: e.to_string() })
                    )
                }
            }
        } else if let Some(e) = first_err {
            return Err(e);
        }
        Ok(db)
    }

    /// Restore a checkpoint into this simulation.
    ///
    /// `self` must have been constructed with the same domain and
    /// physics configuration as the checkpointed run (the database
    /// stores state, not configuration — matching SAMRAI, where the
    /// input deck travels separately); the rank count may differ, since
    /// format-2 manifests are rank-count-independent. Panicking wrapper
    /// over [`HydroSim::try_restore_checkpoint`].
    ///
    /// # Panics
    /// Panics on malformed databases or injected faults.
    pub fn restore_checkpoint(&mut self, db: &Database, comm: Option<&Comm>) {
        self.try_restore_checkpoint(db, comm).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fault-aware restore from a global (format 2) checkpoint
    /// manifest: rebuilds the level structure, re-derives patch
    /// ownership for the *current* rank count with the same
    /// space-filling-curve partitioner the live run uses, loads the
    /// owned state arrays, and re-primes the derived fields. Because
    /// the manifest carries no owner ranks, the checkpoint may have
    /// been written at any rank count.
    ///
    /// Run-through discipline: structure decoding is local (the
    /// manifest is already global), and an agreement reduction commits
    /// the decoded structure before any rank touches its hierarchy — a
    /// fault aborts every rank together, so the subsequent re-priming
    /// fills never run against divergent structure.
    ///
    /// # Errors
    /// A typed [`RestoreError`] for malformed databases
    /// (missing/misshapen keys, wrong manifest format) or injected
    /// transport faults. On `Err` the simulation state is unspecified;
    /// recovery rebuilds a fresh simulation and retries.
    pub fn try_restore_checkpoint(
        &mut self,
        db: &Database,
        comm: Option<&Comm>,
    ) -> Result<(), RestoreError> {
        match db.get_i64("format") {
            Some(CHECKPOINT_FORMAT) => {}
            Some(_) => {
                return Err(RestoreError::Malformed {
                    key: "format".to_owned(),
                    expected: "checkpoint manifest format 2",
                })
            }
            None => return Err(RestoreError::MissingKey { key: "format".to_owned() }),
        }
        let num_levels = db
            .get_i64("num_levels")
            .ok_or_else(|| RestoreError::MissingKey { key: "num_levels".to_owned() })?
            as usize;
        if num_levels > self.hierarchy().max_levels() || num_levels == 0 {
            return Err(RestoreError::Malformed {
                key: "num_levels".to_owned(),
                expected: "between 1 and this configuration's max_levels",
            });
        }
        let nranks = self.hierarchy().nranks();
        let mut first_err: Option<RestoreError> = None;

        // Phase 1 (local): decode every level's structure from the
        // global manifest and re-derive ownership for the current rank
        // count. No exchange is needed — the manifest already covers
        // the whole simulation — but errors are still carried to the
        // agreement below so every rank aborts together.
        let mut structures: Vec<Option<(Vec<GBox>, Vec<usize>)>> = Vec::with_capacity(num_levels);
        for l in 0..num_levels {
            let words: Vec<i64> = match db.get_db(&format!("level_{l}")) {
                Some(ldb) => match ldb.get("records") {
                    Some(Value::VecI64(v)) => v.clone(),
                    Some(_) => {
                        first_err.get_or_insert(RestoreError::Malformed {
                            key: "records".to_owned(),
                            expected: "integer array",
                        });
                        Vec::new()
                    }
                    None => {
                        first_err
                            .get_or_insert(RestoreError::MissingKey { key: "records".to_owned() });
                        Vec::new()
                    }
                },
                None => {
                    first_err.get_or_insert(RestoreError::MissingKey { key: format!("level_{l}") });
                    Vec::new()
                }
            };
            match decode_records(&words) {
                Ok(boxes) => {
                    let owners = rbamr_amr::balance::partition_sfc(&boxes, nranks);
                    structures.push(Some((boxes, owners)));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                    structures.push(None);
                }
            }
        }

        // Agreement: commit the structure on every rank, or abort on
        // every rank, before anyone rebuilds its hierarchy. Without
        // this a rank that failed assembly would skip the re-priming
        // fills its peers run, and the job would deadlock.
        if let Some(comm) = comm {
            let ok = if first_err.is_none() { 1.0 } else { 0.0 };
            match comm.try_allreduce_min(ok, Category::Other) {
                Ok(all_ok) if all_ok >= 1.0 => {}
                Ok(_) => {
                    return Err(first_err.unwrap_or_else(|| RestoreError::Exchange {
                        detail: "a peer rank failed to assemble the checkpoint structure".into(),
                    }))
                }
                Err(e) => {
                    return Err(
                        first_err.unwrap_or(RestoreError::Exchange { detail: e.to_string() })
                    )
                }
            }
        } else if let Some(e) = first_err.take() {
            return Err(e);
        }

        // Phase 2 (local): apply the structure and load patch data.
        // Data-load errors are recorded and carried through — the
        // re-priming below still runs its full communication pattern.
        let fields = *self.fields();
        for (l, s) in structures.into_iter().enumerate() {
            let (boxes, owners) = s.expect("structure committed by the agreement above");
            self.set_level_for_restart(l, boxes, owners);
        }
        self.truncate_levels_for_restart(num_levels);
        for l in 0..num_levels {
            let Some(ldb) = db.get_db(&format!("level_{l}")) else {
                continue; // recorded in phase 1; unreachable past the agreement
            };
            let level = self.hierarchy_mut().level_mut(l);
            for patch in level.local_mut() {
                let key = format!("patch_{}", patch.id().index);
                let Some(pdb) = ldb.get_db(&key) else {
                    first_err.get_or_insert(RestoreError::MissingKey { key });
                    continue;
                };
                for (name, var) in checkpoint_fields(&fields) {
                    let Some(values) = pdb.get_vec_f64(name) else {
                        first_err.get_or_insert(RestoreError::MissingKey { key: name.to_owned() });
                        continue;
                    };
                    if let Err(e) = try_write_values(patch.data_mut(var), values, name) {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }

        // Restore integration state and re-prime derived fields.
        let time =
            db.get_f64("time").ok_or_else(|| RestoreError::MissingKey { key: "time".to_owned() });
        let step =
            db.get_i64("step").ok_or_else(|| RestoreError::MissingKey { key: "step".to_owned() });
        let prev_dt = db
            .get_f64("prev_dt")
            .ok_or_else(|| RestoreError::MissingKey { key: "prev_dt".to_owned() });
        match (time, step, prev_dt) {
            (Ok(t), Ok(s), Ok(p)) => self.set_progress_for_restart(t, s as usize, p),
            (t, s, p) => {
                let e = [t.err(), s.err(), p.err()].into_iter().flatten().next();
                first_err.get_or_insert(e.expect("at least one error"));
            }
        }
        if let Err(e) = self.reprime_after_restart(comm) {
            first_err.get_or_insert(e);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Write a checkpoint file ([`Database::save`] of
    /// [`HydroSim::save_checkpoint`]).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_checkpoint_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save_checkpoint().save(path)
    }

    /// Restore from a checkpoint file written by
    /// [`HydroSim::save_checkpoint_file`].
    ///
    /// # Errors
    /// A typed [`RestoreError`] for I/O failures, truncated or
    /// corrupted files, and malformed content — never a panic.
    pub fn restore_checkpoint_file(&mut self, path: &std::path::Path) -> Result<(), RestoreError> {
        self.try_restore_checkpoint(&Database::load(path)?, None)
    }
}

#[cfg(test)]
mod tests {
    use crate::integrator::{HydroConfig, HydroSim, Placement};
    use crate::state::RegionInit;
    use rbamr_amr::restart::RestoreError;
    use rbamr_perfmodel::{Clock, Machine};

    fn sod_regions() -> Vec<RegionInit> {
        vec![
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
        ]
    }

    fn build(placement: Placement) -> HydroSim {
        let machine = match placement {
            Placement::Host => Machine::ipa_cpu_node(),
            _ => Machine::ipa_gpu(),
        };
        let config = HydroConfig { regrid_interval: 5, ..HydroConfig::default() };
        let mut sim = HydroSim::new(
            machine,
            placement,
            Clock::new(),
            (1.0, 1.0),
            (32, 32),
            2,
            2,
            config,
            sod_regions(),
            0,
            1,
        );
        sim.initialize(None);
        sim
    }

    fn check_roundtrip(placement: Placement) {
        // Reference: 12 uninterrupted steps.
        let mut reference = build(placement);
        for _ in 0..12 {
            reference.step(None);
        }

        // Checkpointed: 6 steps, save, restore into a fresh sim, 6 more.
        let mut first = build(placement);
        for _ in 0..6 {
            first.step(None);
        }
        let db = first.save_checkpoint();
        let mut resumed = build(placement);
        resumed.restore_checkpoint(&db, None);
        assert_eq!(resumed.steps_taken(), 6);
        assert!((resumed.time() - first.time()).abs() < 1e-15);
        for _ in 0..6 {
            resumed.step(None);
        }

        // Identical physics: the restart is exact.
        let a = reference.density_profile();
        let b = resumed.density_profile();
        assert_eq!(a.len(), b.len());
        for ((xa, da), (xb, dbv)) in a.iter().zip(&b) {
            assert_eq!(xa, xb);
            assert!((da - dbv).abs() < 1e-12, "restart diverged at x={xa}: {da} vs {dbv}");
        }
        let sa = reference.summary(None);
        let sb = resumed.summary(None);
        assert!((sa.mass - sb.mass).abs() < 1e-13);
        assert!((sa.total_energy() - sb.total_energy()).abs() < 1e-12);
    }

    #[test]
    fn host_checkpoint_roundtrip_is_exact() {
        check_roundtrip(Placement::Host);
    }

    #[test]
    fn device_checkpoint_roundtrip_is_exact() {
        check_roundtrip(Placement::Device);
    }

    #[test]
    fn checkpoint_file_roundtrip_is_exact() {
        let mut sim = build(Placement::Host);
        sim.run_steps(4, None);
        let path = std::env::temp_dir().join(format!("rbamr_ckpt_{}.bin", std::process::id()));
        sim.save_checkpoint_file(&path).unwrap();
        let mut resumed = build(Placement::Host);
        resumed.restore_checkpoint_file(&path).unwrap();
        assert_eq!(resumed.steps_taken(), 4);
        sim.step(None);
        resumed.step(None);
        let a = sim.density_profile();
        let b = resumed.density_profile();
        for ((xa, da), (xb, db_)) in a.iter().zip(&b) {
            assert_eq!(xa, xb);
            assert_eq!(da, db_);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Restore into a *fresh* (never-initialised) simulation must match
    /// restore into an initialised one bitwise — the recovery driver
    /// rebuilds its simulation from scratch on every rollback.
    #[test]
    fn restore_into_uninitialized_sim_is_exact() {
        let mut sim = build(Placement::Host);
        sim.run_steps(5, None);
        let db = sim.save_checkpoint();

        let mut warm = build(Placement::Host);
        warm.restore_checkpoint(&db, None);
        let config = HydroConfig { regrid_interval: 5, ..HydroConfig::default() };
        let mut cold = HydroSim::new(
            Machine::ipa_cpu_node(),
            Placement::Host,
            Clock::new(),
            (1.0, 1.0),
            (32, 32),
            2,
            2,
            config,
            sod_regions(),
            0,
            1,
        );
        cold.restore_checkpoint(&db, None);
        assert_eq!(cold.steps_taken(), warm.steps_taken());
        assert_eq!(cold.state_field_digest(), warm.state_field_digest());
        warm.step(None);
        cold.step(None);
        assert_eq!(cold.state_field_digest(), warm.state_field_digest());
    }

    /// A corrupted checkpoint surfaces as a typed error, never a panic.
    #[test]
    fn malformed_checkpoint_is_a_typed_error() {
        use rbamr_amr::restart::{Database, Value};
        let mut sim = build(Placement::Host);
        sim.run_steps(3, None);
        let mut resumed = build(Placement::Host);

        // Missing everything: the format gate fires first.
        assert_eq!(
            resumed.try_restore_checkpoint(&Database::new(), None),
            Err(RestoreError::MissingKey { key: "format".to_owned() })
        );

        // A pre-manifest (format 1 / per-rank) checkpoint is rejected
        // with a typed error, not misread.
        let mut db = sim.save_checkpoint();
        db.put("format", Value::I64(1));
        assert_eq!(
            resumed.try_restore_checkpoint(&db, None),
            Err(RestoreError::Malformed {
                key: "format".to_owned(),
                expected: "checkpoint manifest format 2",
            })
        );

        // Absurd level count.
        let mut db = sim.save_checkpoint();
        db.put("num_levels", Value::I64(99));
        assert!(matches!(
            resumed.try_restore_checkpoint(&db, None),
            Err(RestoreError::Malformed { .. })
        ));

        // Field array of the wrong size.
        let mut db = sim.save_checkpoint();
        db.child("level_0").child("patch_0").put("density0", Value::VecF64(vec![1.0; 3]));
        assert_eq!(
            resumed.try_restore_checkpoint(&db, None),
            Err(RestoreError::Malformed {
                key: "density0".to_owned(),
                expected: "field array of the patch's size",
            })
        );

        // Non-contiguous record indices.
        let mut db = sim.save_checkpoint();
        let words = match db.get_db("level_0").unwrap().get("records") {
            Some(Value::VecI64(v)) => {
                let mut w = v.clone();
                w[0] += 7;
                w
            }
            _ => panic!("records"),
        };
        db.child("level_0").put("records", Value::VecI64(words));
        assert!(matches!(
            resumed.try_restore_checkpoint(&db, None),
            Err(RestoreError::Malformed { .. })
        ));
    }

    /// The acceptance case for the structure-keyed schedule cache
    /// across a restore: restoring a checkpoint whose structure the
    /// cache has already seen resolves schedules as hits, and the
    /// resulting plans are digest-identical to the originals.
    #[test]
    fn restore_hits_the_schedule_cache_with_identical_plans() {
        let mut sim = build(Placement::Host);
        sim.run_steps(6, None);
        let db = sim.save_checkpoint();
        let original = sim.plan_digests();

        let mut resumed = build(Placement::Host);
        resumed.restore_checkpoint(&db, None);
        // Level 0 never regrids, so at minimum its schedules come out
        // of the cache even if finer structure moved since construction.
        assert!(resumed.schedule_cache().hits() > 0, "restore must reuse cached schedules");
        assert_eq!(resumed.plan_digests(), original, "restored plans must match originals");

        // A second restore reproduces the structure exactly: every
        // schedule lookup hits and nothing is rebuilt.
        let hits = resumed.schedule_cache().hits();
        let misses = resumed.schedule_cache().misses();
        resumed.restore_checkpoint(&db, None);
        assert_eq!(
            resumed.schedule_cache().misses(),
            misses,
            "identical structure must not rebuild any schedule"
        );
        assert!(resumed.schedule_cache().hits() > hits);
        assert_eq!(resumed.plan_digests(), original);
    }

    #[test]
    fn checkpoint_stores_hierarchy_structure() {
        let mut sim = build(Placement::Host);
        sim.run_steps(3, None);
        let db = sim.save_checkpoint();
        assert_eq!(db.get_i64("format"), Some(2));
        assert_eq!(db.get_i64("num_levels"), Some(2));
        assert!(db.get_db("level_1").is_some());
        assert!(db.get_f64("time").unwrap() > 0.0);
    }
}
