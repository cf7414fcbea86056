//! A minimal restart database — the target of Figure 2's
//! `putToRestart`/`getFromRestart` methods.
//!
//! SAMRAI serialises everything through a hierarchical key-value
//! database. This reproduction keeps the same shape: nested string-keyed
//! databases with typed scalar/array leaves, plus helpers to serialise
//! [`HostData`] (a resident GPU build downloads the array once at
//! checkpoint time — checkpointing is one of the three sanctioned
//! full-array transfers, along with initialisation and visualisation).

use crate::hostdata::HostData;
use crate::patchdata::PatchData;
use rbamr_geometry::{Centring, GBox, IntVector};
use std::collections::BTreeMap;

/// A corrupt, truncated, or inconsistent restart stream.
///
/// Every decode path reports through this type instead of panicking: a
/// damaged checkpoint file must surface as a recoverable error so the
/// resilience driver can fall back to an older checkpoint (or report
/// cleanly) rather than killing the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The stream ended before a value was fully read.
    ShortStream {
        /// Byte offset at which more data was expected.
        at: usize,
    },
    /// Bytes remain after the root database was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An unknown value-type tag.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A key was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string.
        at: usize,
    },
    /// A required key is missing from the database.
    MissingKey {
        /// The key.
        key: String,
    },
    /// A key exists but holds the wrong type or shape.
    Malformed {
        /// The key.
        key: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Reading the checkpoint file failed.
    Io {
        /// The I/O error rendered as text (keeps this type `Eq`).
        detail: String,
    },
    /// A communication or data-movement fault interrupted a distributed
    /// restore (the database itself was well-formed).
    Exchange {
        /// The underlying fault, rendered as text.
        detail: String,
    },
    /// The checkpoint container failed validation: bad magic, unsupported
    /// container version, torn payload, or checksum mismatch. A torn or
    /// bit-rotted file must never decode to a silently wrong database.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShortStream { at } => write!(f, "restore: stream truncated at byte {at}"),
            Self::TrailingBytes { extra } => {
                write!(f, "restore: {extra} trailing bytes after the root database")
            }
            Self::UnknownTag { tag } => write!(f, "restore: unknown value tag {tag}"),
            Self::BadUtf8 { at } => write!(f, "restore: invalid utf-8 key at byte {at}"),
            Self::MissingKey { key } => write!(f, "restore: missing key {key:?}"),
            Self::Malformed { key, expected } => {
                write!(f, "restore: key {key:?} is not a well-formed {expected}")
            }
            Self::Io { detail } => write!(f, "restore: i/o failure: {detail}"),
            Self::Exchange { detail } => write!(f, "restore: exchange fault: {detail}"),
            Self::Corrupt { detail } => write!(f, "restore: corrupt checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io { detail: e.to_string() }
    }
}

/// A value in the database.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Double scalar.
    F64(f64),
    /// Integer scalar.
    I64(i64),
    /// String.
    Str(String),
    /// Double array.
    VecF64(Vec<f64>),
    /// Integer array.
    VecI64(Vec<i64>),
    /// Nested database.
    Db(Database),
}

/// A hierarchical key-value store (deterministically ordered).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Database {
    entries: BTreeMap<String, Value>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a value.
    pub fn put(&mut self, key: &str, value: Value) {
        self.entries.insert(key.to_owned(), value);
    }

    /// Look up a value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Typed accessors; `None` if missing or of the wrong type.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(Value::I64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Double-array accessor.
    pub fn get_vec_f64(&self, key: &str) -> Option<&[f64]> {
        match self.get(key) {
            Some(Value::VecF64(v)) => Some(v),
            _ => None,
        }
    }

    /// Nested-database accessor.
    pub fn get_db(&self, key: &str) -> Option<&Database> {
        match self.get(key) {
            Some(Value::Db(d)) => Some(d),
            _ => None,
        }
    }

    /// Create (or fetch) a nested database and return it mutably.
    pub fn child(&mut self, key: &str) -> &mut Database {
        let entry =
            self.entries.entry(key.to_owned()).or_insert_with(|| Value::Db(Database::new()));
        match entry {
            Value::Db(d) => d,
            _ => panic!("restart key {key:?} exists with a non-database type"),
        }
    }

    /// Number of keys at this nesting level.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Serialise host data into a database (`putToRestart`).
pub fn put_host_data(data: &HostData<f64>, db: &mut Database) {
    let cb = data.cell_box();
    db.put("box", Value::VecI64(vec![cb.lo.x, cb.lo.y, cb.hi.x, cb.hi.y]));
    db.put("ghosts", Value::VecI64(vec![data.ghosts().x, data.ghosts().y]));
    let centring_code = match data.centring() {
        Centring::Cell => 0,
        Centring::Node => 1,
        Centring::Side(a) => 2 + a as i64,
    };
    db.put("centring", Value::I64(centring_code));
    db.put("time", Value::F64(data.time()));
    db.put("values", Value::VecF64(data.as_slice().to_vec()));
}

/// Reconstruct host data from a database (`getFromRestart`).
///
/// # Panics
/// Panics on missing or malformed entries — callers handling possibly
/// corrupt checkpoints use [`try_get_host_data`] instead.
pub fn get_host_data(db: &Database) -> HostData<f64> {
    try_get_host_data(db).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`get_host_data`]: every missing or malformed entry
/// surfaces as a typed [`RestoreError`].
pub fn try_get_host_data(db: &Database) -> Result<HostData<f64>, RestoreError> {
    let missing = |key: &str| RestoreError::MissingKey { key: key.to_owned() };
    let malformed = |key: &str, expected: &'static str| RestoreError::Malformed {
        key: key.to_owned(),
        expected,
    };
    let cell_box = match db.get("box").ok_or_else(|| missing("box"))? {
        Value::VecI64(v) if v.len() == 4 => GBox::from_coords(v[0], v[1], v[2], v[3]),
        _ => return Err(malformed("box", "4-element integer array")),
    };
    let ghosts = match db.get("ghosts").ok_or_else(|| missing("ghosts"))? {
        Value::VecI64(v) if v.len() == 2 => IntVector::new(v[0], v[1]),
        _ => return Err(malformed("ghosts", "2-element integer array")),
    };
    let centring = match db.get_i64("centring") {
        Some(0) => Centring::Cell,
        Some(1) => Centring::Node,
        Some(c @ (2 | 3)) => Centring::Side((c - 2) as usize),
        Some(_) => return Err(malformed("centring", "centring code 0..=3")),
        None => return Err(missing("centring")),
    };
    if cell_box.is_empty() {
        return Err(malformed("box", "non-empty cell box"));
    }
    if ghosts.x < 0 || ghosts.y < 0 {
        return Err(malformed("ghosts", "non-negative ghost width"));
    }
    let mut data = HostData::new(cell_box, ghosts, centring);
    let values = db.get_vec_f64("values").ok_or_else(|| missing("values"))?;
    if values.len() != data.as_slice().len() {
        return Err(malformed("values", "value array matching the data box"));
    }
    data.as_mut_slice().copy_from_slice(values);
    data.set_time(db.get_f64("time").unwrap_or(0.0));
    Ok(data)
}

/// Binary wire/file format for databases: a tiny self-describing
/// tag-length-value encoding (no external format dependency), stable
/// across runs.
impl Database {
    /// Serialise to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_db(self, &mut out);
        out
    }

    /// Deserialise from bytes produced by [`Database::to_bytes`].
    ///
    /// # Errors
    /// A typed [`RestoreError`] on truncated, trailing, or otherwise
    /// malformed input — corrupt checkpoints must be recoverable, not
    /// fatal.
    pub fn from_bytes(bytes: &[u8]) -> Result<Database, RestoreError> {
        let mut cursor = 0usize;
        let db = read_db(bytes, &mut cursor)?;
        if cursor != bytes.len() {
            return Err(RestoreError::TrailingBytes { extra: bytes.len() - cursor });
        }
        Ok(db)
    }

    /// Write the database to a file, atomically and self-validatingly.
    ///
    /// The payload is wrapped in a versioned container header carrying a
    /// checksum, written to a temporary sibling file, fsynced, and then
    /// renamed into place — a crash mid-write leaves either the old file
    /// or no file, never a torn one, and a torn/bit-rotted file that does
    /// appear is caught by [`Database::load`] as a typed
    /// [`RestoreError::Corrupt`].
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let payload = self.to_bytes();
        let mut out = Vec::with_capacity(FILE_HEADER_LEN + payload.len());
        out.extend_from_slice(FILE_MAGIC);
        out.extend_from_slice(&FILE_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&out)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    /// Read a database from a file written by [`Database::save`].
    ///
    /// # Errors
    /// [`RestoreError::Io`] when the file cannot be read;
    /// [`RestoreError::Corrupt`] when the container header or checksum
    /// fails validation (torn write, bit rot, wrong file); decode errors
    /// on corrupt content that somehow passes the checksum.
    pub fn load(path: &std::path::Path) -> Result<Database, RestoreError> {
        let bytes = std::fs::read(path)?;
        let corrupt = |detail: &str| RestoreError::Corrupt { detail: detail.to_owned() };
        if bytes.len() < FILE_HEADER_LEN {
            return Err(corrupt("file shorter than the container header"));
        }
        if &bytes[..8] != FILE_MAGIC {
            return Err(corrupt("bad magic (not a checkpoint container)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FILE_VERSION {
            return Err(RestoreError::Corrupt {
                detail: format!("unsupported container version {version}"),
            });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let stored_sum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[FILE_HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(RestoreError::Corrupt {
                detail: format!(
                    "torn payload: header promises {payload_len} bytes, file holds {}",
                    payload.len()
                ),
            });
        }
        if fnv64(payload) != stored_sum {
            return Err(corrupt("payload checksum mismatch"));
        }
        Database::from_bytes(payload)
    }
}

/// Container magic for checkpoint files written by [`Database::save`].
const FILE_MAGIC: &[u8; 8] = b"RBAMRDB\0";
/// Container format version (bumped on any header/layout change).
const FILE_VERSION: u32 = 1;
/// magic (8) + version (4) + payload length (8) + checksum (8).
const FILE_HEADER_LEN: usize = 28;

/// FNV-1a over the payload — cheap, dependency-free, and plenty to catch
/// torn writes and bit rot (this is integrity, not authentication).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_db(db: &Database, out: &mut Vec<u8>) {
    out.extend_from_slice(&(db.entries.len() as u64).to_le_bytes());
    for (k, v) in &db.entries {
        write_str(k, out);
        match v {
            Value::F64(x) => {
                out.push(0);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::I64(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(2);
                write_str(s, out);
            }
            Value::VecF64(v) => {
                out.push(3);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Value::VecI64(v) => {
                out.push(4);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Value::Db(d) => {
                out.push(5);
                write_db(d, out);
            }
        }
    }
}

fn read_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64, RestoreError> {
    let end = cursor.checked_add(8).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(RestoreError::ShortStream { at: *cursor });
    };
    let v = u64::from_le_bytes(bytes[*cursor..end].try_into().unwrap());
    *cursor = end;
    Ok(v)
}

fn read_str(bytes: &[u8], cursor: &mut usize) -> Result<String, RestoreError> {
    let len = read_u64(bytes, cursor)? as usize;
    let end = cursor.checked_add(len).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(RestoreError::ShortStream { at: *cursor });
    };
    let s = std::str::from_utf8(&bytes[*cursor..end])
        .map_err(|_| RestoreError::BadUtf8 { at: *cursor })?;
    *cursor = end;
    Ok(s.to_owned())
}

fn read_db(bytes: &[u8], cursor: &mut usize) -> Result<Database, RestoreError> {
    let n = read_u64(bytes, cursor)?;
    let mut db = Database::new();
    for _ in 0..n {
        let key = read_str(bytes, cursor)?;
        let Some(&tag) = bytes.get(*cursor) else {
            return Err(RestoreError::ShortStream { at: *cursor });
        };
        *cursor += 1;
        let value = match tag {
            0 => Value::F64(f64::from_bits(read_u64(bytes, cursor)?)),
            1 => Value::I64(read_u64(bytes, cursor)? as i64),
            2 => Value::Str(read_str(bytes, cursor)?),
            3 => {
                let len = read_u64(bytes, cursor)? as usize;
                // Pre-check against the remaining bytes so a corrupted
                // (huge) length fails cleanly instead of attempting an
                // absurd allocation.
                if bytes.len() - *cursor < len.saturating_mul(8) {
                    return Err(RestoreError::ShortStream { at: *cursor });
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(f64::from_bits(read_u64(bytes, cursor)?));
                }
                Value::VecF64(v)
            }
            4 => {
                let len = read_u64(bytes, cursor)? as usize;
                if bytes.len() - *cursor < len.saturating_mul(8) {
                    return Err(RestoreError::ShortStream { at: *cursor });
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(read_u64(bytes, cursor)? as i64);
                }
                Value::VecI64(v)
            }
            5 => Value::Db(read_db(bytes, cursor)?),
            other => return Err(RestoreError::UnknownTag { tag: other }),
        };
        db.put(&key, value);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut db = Database::new();
        db.put("dt", Value::F64(0.004));
        db.put("step", Value::I64(42));
        db.put("problem", Value::Str("sod".into()));
        assert_eq!(db.get_f64("dt"), Some(0.004));
        assert_eq!(db.get_i64("step"), Some(42));
        assert_eq!(db.get("problem"), Some(&Value::Str("sod".into())));
        assert_eq!(db.get_f64("step"), None); // wrong type
        assert_eq!(db.get_f64("missing"), None);
    }

    #[test]
    fn nested_databases() {
        let mut db = Database::new();
        db.child("level_0").put("npatches", Value::I64(4));
        db.child("level_0").child("patch_0").put("cells", Value::I64(256));
        assert_eq!(db.get_db("level_0").unwrap().get_i64("npatches"), Some(4));
        assert_eq!(
            db.get_db("level_0").unwrap().get_db("patch_0").unwrap().get_i64("cells"),
            Some(256)
        );
    }

    #[test]
    fn host_data_roundtrip() {
        let mut data = HostData::<f64>::node(GBox::from_coords(2, 2, 6, 6), IntVector::ONE);
        for (k, v) in data.as_mut_slice().iter_mut().enumerate() {
            *v = k as f64 * 0.25;
        }
        data.set_time(1.5);
        let mut db = Database::new();
        put_host_data(&data, &mut db);
        let back = get_host_data(&db);
        assert_eq!(back.cell_box(), data.cell_box());
        assert_eq!(back.centring(), data.centring());
        assert_eq!(back.ghosts(), data.ghosts());
        assert_eq!(back.time(), 1.5);
        assert_eq!(back.as_slice(), data.as_slice());
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let mut db = Database::new();
        db.put("dt", Value::F64(-0.25));
        db.put("neg", Value::I64(-42));
        db.put("name", Value::Str("sod".into()));
        db.put("xs", Value::VecF64(vec![1.5, -2.5, f64::MIN_POSITIVE]));
        db.put("is", Value::VecI64(vec![-1, 0, i64::MAX]));
        db.child("nested").put("deep", Value::F64(7.0));
        db.child("nested").child("deeper").put("x", Value::I64(1));
        let bytes = db.to_bytes();
        let back = Database::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn file_roundtrip() {
        let mut db = Database::new();
        db.put("v", Value::VecF64((0..100).map(f64::from).collect()));
        let path = std::env::temp_dir().join(format!("rbamr_restart_{}.bin", std::process::id()));
        db.save(&path).unwrap();
        let back = Database::load(&path).unwrap();
        assert_eq!(back, db);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_or_corrupted_file_is_a_typed_corrupt_error() {
        let mut db = Database::new();
        db.put("v", Value::VecF64((0..64).map(f64::from).collect()));
        db.put("step", Value::I64(7));
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rbamr_restart_corrupt_{}.bin", std::process::id()));
        db.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Torn write: every strict prefix must be rejected as Corrupt.
        for cut in [0, 4, FILE_HEADER_LEN - 1, FILE_HEADER_LEN, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = Database::load(&path).expect_err("torn file must not load");
            assert!(matches!(err, RestoreError::Corrupt { .. }), "cut {cut}: got {err}");
        }

        // Payload bit rot: checksum must catch it.
        let mut rotted = good.clone();
        *rotted.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &rotted).unwrap();
        assert!(matches!(
            Database::load(&path).expect_err("rotted file must not load"),
            RestoreError::Corrupt { .. }
        ));

        // Wrong magic and wrong version are both Corrupt.
        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0xFF;
        std::fs::write(&path, &wrong_magic).unwrap();
        assert!(matches!(Database::load(&path).unwrap_err(), RestoreError::Corrupt { .. }));
        let mut wrong_version = good.clone();
        wrong_version[8] = 0xEE;
        std::fs::write(&path, &wrong_version).unwrap();
        assert!(matches!(Database::load(&path).unwrap_err(), RestoreError::Corrupt { .. }));

        // The pristine bytes still load.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(Database::load(&path).unwrap(), db);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let mut db = Database::new();
        db.put("x", Value::I64(1));
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rbamr_restart_atomic_{}.bin", std::process::id()));
        db.save(&path).unwrap();
        let tmp =
            dir.join(format!("rbamr_restart_atomic_{pid}.bin.tmp.{pid}", pid = std::process::id()));
        assert!(!tmp.exists(), "temporary file must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let db = Database::new();
        let mut bytes = db.to_bytes();
        bytes.push(0xFF);
        assert_eq!(Database::from_bytes(&bytes), Err(RestoreError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut db = Database::new();
        db.put("dt", Value::F64(0.25));
        db.put("name", Value::Str("sod".into()));
        db.put("xs", Value::VecF64(vec![1.0, 2.0]));
        db.put("is", Value::VecI64(vec![3, 4]));
        db.child("nested").put("x", Value::I64(7));
        let bytes = db.to_bytes();
        for cut in 0..bytes.len() {
            let err =
                Database::from_bytes(&bytes[..cut]).expect_err("truncated stream must not decode");
            assert!(
                matches!(err, RestoreError::ShortStream { .. }),
                "cut at {cut}: expected ShortStream, got {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_decodes_cleanly() {
        let mut db = Database::new();
        db.put("dt", Value::F64(0.25));
        db.put("name", Value::Str("sod".into()));
        db.put("xs", Value::VecF64(vec![1.0, 2.0]));
        db.child("nested").put("x", Value::I64(7));
        let bytes = db.to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                // A flip may corrupt a value without breaking framing
                // (then it decodes, possibly to different content) or
                // break framing (then it must be a typed error, never a
                // panic). Either way the call below must return.
                let _ = Database::from_bytes(&flipped);
            }
        }
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let mut db = Database::new();
        db.put("k", Value::I64(1));
        let mut bytes = db.to_bytes();
        // Layout: count u64, key len u64, key "k", tag byte.
        let tag_at = 8 + 8 + 1;
        bytes[tag_at] = 9;
        assert_eq!(Database::from_bytes(&bytes), Err(RestoreError::UnknownTag { tag: 9 }));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Database::load(std::path::Path::new("/nonexistent/rbamr_restart_missing.bin"))
            .expect_err("missing file must not load");
        assert!(matches!(err, RestoreError::Io { .. }));
    }

    #[test]
    #[should_panic(expected = "non-database type")]
    fn child_type_conflicts_panic() {
        let mut db = Database::new();
        db.put("x", Value::F64(1.0));
        db.child("x");
    }
}
