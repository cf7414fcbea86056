//! Partitioned level metadata: owned records, ghosted neighborhoods,
//! and the digest-verified exchange.
//!
//! SAMRAI-style hierarchy management replicates every level's box array
//! on every rank, so each rank holds and digests every record (it plans
//! only the transfers it owns an end of, under the bounds below) — the
//! metadata scaling wall at large rank counts. This module provides the
//! distributed alternative (the AMReX approach): each rank durably
//! holds a [`LevelView`] containing only its *owned* box records plus a
//! ghost-grown *interest neighborhood*, fetched with one
//! `netsim::Comm::allgatherv` and filtered by an [`InterestSpec`].
//! Owner-computes planning over such views produces exactly the plans
//! the replicated build produces for pairs with a local endpoint (the
//! replicated path is retained as the test oracle).
//!
//! # The digest handshake
//!
//! Every exchange is verified before anyone plans against its result:
//!
//! 1. each rank digests its owned records into an
//!    [`UnorderedDigest`](rbamr_geometry::UnorderedDigest) partial;
//! 2. the `[sum, xor, count]` channel words are combined with a 3-word
//!    allreduce (`Comm::allreduce_digest`) whose operator matches
//!    `UnorderedDigest::merge`, yielding the digest a single rank would
//!    compute over the union of all owned records — by construction the
//!    replicated [`structure digest`](crate::PatchLevel::structure_digest);
//! 3. each rank re-digests the records it actually received and
//!    compares against the allreduced value;
//! 4. a final agreement allreduce (min over ok flags) guarantees every
//!    rank observes the verdict, so divergence surfaces as a typed
//!    [`MetadataDivergence`] error *on every rank* — no hang, no silent
//!    planning against inconsistent views.
//!
//! # What is retained
//!
//! The interest neighborhood is deliberately conservative; retaining
//! extra records costs only memory, while a missing record silently
//! drops (or malforms) a transfer. For a level `L` with ghost width `g`
//! and refine stencil `s`, a rank keeps, besides its owned records:
//!
//! * same-level partners: records intersecting `grow(owned(L), g+2)` —
//!   wide enough to reproduce the candidate sets and the `want`
//!   subtraction of its own fill destinations;
//! * coarse partners: records intersecting
//!   `grow(coarsen(grow(owned(L+1), g+1)), s+2)` in `L`'s index space,
//!   covering both interpolation scratch sources and coarsen-sync
//!   shadows of the rank's fine patches;
//! * fed fine destinations: records intersecting
//!   `grow(refine(grow(owned(L-1), s+2)), g+2)` — every destination the
//!   rank's coarse data could feed — **plus** the closure of their
//!   same-level neighbors within `g+2`, because a sender must reproduce
//!   the destination owner's `want` region bit-for-bit to agree on the
//!   message payload.

use bytes::Bytes;
use rbamr_geometry::{BoxList, Fnv64, GBox, IntVector, UnorderedDigest};
use rbamr_netsim::{Comm, CommError, FaultKind};
use rbamr_perfmodel::Category;

/// Where level box arrays live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetadataMode {
    /// Every rank holds every level's full box array (SAMRAI-style) and
    /// plans the transfers it owns an endpoint of. The oracle path.
    #[default]
    Replicated,
    /// Each rank durably holds only its owned records plus a ghosted
    /// interest neighborhood and plans only transfers it owns an
    /// endpoint of.
    Partitioned,
}

/// One level box record on the wire: `(global index, box, owner)`.
pub type BoxRecord = (usize, GBox, usize);

/// Bytes per serialized [`BoxRecord`]: index, four box coordinates, and
/// the owner, each as a 64-bit little-endian word.
pub const RECORD_BYTES: usize = 48;

/// Partitioned metadata could not be verified consistent: the records a
/// rank assembled after an exchange do not digest to the allreduced
/// combination of every rank's owned partials (or a peer's did not).
///
/// Raised on *every* rank of the job — the agreement reduction makes
/// the verdict collective — so no rank proceeds to plan communication
/// against a divergent view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetadataDivergence {
    /// The level whose exchange failed verification.
    pub level_no: usize,
    /// The digest the combined owned partials commit every rank to.
    pub expected_digest: u64,
    /// The digest this rank recomputed from its received records.
    pub observed_digest: u64,
    /// The reporting rank.
    pub rank: usize,
    /// Human-readable specifics (local mismatch vs. peer-reported).
    pub detail: String,
}

impl std::fmt::Display for MetadataDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metadata divergence on level {} at rank {}: expected digest {:#018x}, \
             observed {:#018x} ({})",
            self.level_no, self.rank, self.expected_digest, self.observed_digest, self.detail
        )
    }
}

impl std::error::Error for MetadataDivergence {}

/// A partitioned-metadata exchange failure: either the transport
/// faulted mid-collective or the digest handshake detected divergent
/// views. Both are raised without hanging — the exchange runs through
/// its full communication pattern before reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// A collective in the exchange surfaced a transport fault.
    Comm(CommError),
    /// The handshake detected divergent metadata.
    Divergence(MetadataDivergence),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Comm(e) => write!(f, "metadata exchange transport fault: {e}"),
            Self::Divergence(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<CommError> for ExchangeError {
    fn from(e: CommError) -> Self {
        Self::Comm(e)
    }
}

impl From<MetadataDivergence> for ExchangeError {
    fn from(e: MetadataDivergence) -> Self {
        Self::Divergence(e)
    }
}

/// Hash of one indexed `(box, owner)` record. The index is bound in
/// because schedule plans address patches by global index: a
/// permutation of the same boxes is a different structure.
#[must_use]
pub fn structure_item_hash(index: usize, b: GBox, owner: usize) -> u64 {
    let mut f = Fnv64::new();
    f.write_usize(index);
    f.write_gbox(b);
    f.write_usize(owner);
    f.finish()
}

/// Order-independent digest of a set of box records. Per-rank partials
/// over disjoint owned sets merge (via `UnorderedDigest::merge` or the
/// matching 3-word allreduce) into the digest of the union.
#[must_use]
pub fn structure_items_digest<I>(records: I) -> UnorderedDigest
where
    I: IntoIterator<Item = BoxRecord>,
{
    let mut items = UnorderedDigest::new();
    for (index, b, owner) in records {
        items.add(structure_item_hash(index, b, owner));
    }
    items
}

/// Bind level number, ratio, and domain around an items digest,
/// producing the level structure digest
/// ([`crate::PatchLevel::structure_digest`]). Identical on every rank.
#[must_use]
pub fn finalize_structure_digest(
    level_no: usize,
    ratio: IntVector,
    domain: &BoxList,
    items: &UnorderedDigest,
) -> u64 {
    let mut f = Fnv64::new();
    f.write_usize(level_no);
    f.write_ivec(ratio);
    for b in domain.iter() {
        f.write_gbox(*b);
    }
    f.write_u64(items.finish());
    f.finish()
}

/// A rank's durable, partial view of one level's box metadata: the
/// records it owns plus the ghosted interest neighborhood, sorted by
/// ascending global index. The ascending order matters: it makes the
/// relative order of any common subset identical across ranks, which is
/// what keeps aggregated message streams (packed in plan order) aligned
/// between sender and receiver without negotiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelView {
    indices: Vec<usize>,
    boxes: Vec<GBox>,
    owners: Vec<usize>,
    num_global: usize,
    global_cells: i64,
    global_digest: u64,
}

impl LevelView {
    /// Number of records held in this view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the view holds no records at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Whether the view holds every global record (always true at one
    /// rank; the indices are unique and bounded, so equal counts imply
    /// a dense `0..num_global` view).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.len() == self.num_global
    }

    /// Ascending global indices of the held records.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Boxes of the held records, parallel to [`Self::indices`].
    #[must_use]
    pub fn boxes(&self) -> &[GBox] {
        &self.boxes
    }

    /// Owners of the held records, parallel to [`Self::indices`].
    #[must_use]
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// Total number of records on the level across all ranks.
    #[must_use]
    pub fn num_global(&self) -> usize {
        self.num_global
    }

    /// Total cells on the level across all ranks.
    #[must_use]
    pub fn global_cells(&self) -> i64 {
        self.global_cells
    }

    /// The verified level structure digest (equal to the replicated
    /// [`crate::PatchLevel::structure_digest`] of the same structure).
    #[must_use]
    pub fn global_digest(&self) -> u64 {
        self.global_digest
    }

    /// Position of a global index within the view, if held.
    #[must_use]
    pub fn position_of(&self, global_index: usize) -> Option<usize> {
        self.indices.binary_search(&global_index).ok()
    }

    /// Bytes this rank durably spends on the level's metadata.
    #[must_use]
    pub fn metadata_bytes(&self) -> usize {
        self.len() * RECORD_BYTES
    }

    /// Iterate the held `(global index, box, owner)` records.
    pub fn iter(&self) -> impl Iterator<Item = BoxRecord> + '_ {
        self.indices.iter().zip(&self.boxes).zip(&self.owners).map(|((&i, &b), &o)| (i, b, o))
    }
}

/// Conservative halo margins used to size interest regions, in cells of
/// the finer of the two levels a rule spans. Derive them from the
/// registry's maxima (or wider); undersized margins drop transfers that
/// the replicated oracle plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterestMargins {
    /// Maximum ghost width over all registered variables (either
    /// component).
    pub ghost: i64,
    /// Maximum refine-operator stencil width (either component).
    pub stencil: i64,
}

impl Default for InterestMargins {
    /// Generous defaults covering the hydro deck (ghost 2, stencil 1)
    /// with slack.
    fn default() -> Self {
        Self { ghost: 4, stencil: 2 }
    }
}

/// Which non-owned records a rank retains from an exchange.
#[derive(Clone, Debug)]
pub struct InterestSpec {
    /// Retain any record whose box intersects this region.
    pub interest: BoxList,
    /// Records intersecting this region are *closure seeds*: retained,
    /// and additionally every record within [`Self::closure_margin`] of
    /// a seed is retained. Used for fine destinations the rank's coarse
    /// data may feed, whose `want` regions depend on *their* same-level
    /// neighbors.
    pub closure_seeds: BoxList,
    /// Halo around each closure seed within which records are retained.
    pub closure_margin: IntVector,
}

impl Default for InterestSpec {
    /// Retain owned records only.
    fn default() -> Self {
        Self {
            interest: BoxList::new(),
            closure_seeds: BoxList::new(),
            closure_margin: IntVector::ZERO,
        }
    }
}

/// The interest regions for level `L`, given the rank's owned boxes on
/// `L` and on the adjacent levels (mapped ratios: `ratio_to_coarser` is
/// `L`'s ratio to `L-1`; `ratio_of_finer` is `L+1`'s ratio to `L`).
/// See the module docs for the retention rules each term implements.
#[must_use]
pub fn interest_for_level(
    owned: &[GBox],
    coarser_owned: Option<(&[GBox], IntVector)>,
    finer_owned: Option<(&[GBox], IntVector)>,
    margins: InterestMargins,
) -> InterestSpec {
    let g = IntVector::uniform(margins.ghost + 2);
    let s = IntVector::uniform(margins.stencil + 2);
    let mut interest = BoxList::from_boxes(owned.iter().map(|b| b.grow(g)));
    if let Some((fine, ratio)) = finer_owned {
        // Coarse partners of my fine boxes: interpolation scratch
        // sources and coarsen-sync shadows.
        let fine_halo = IntVector::uniform(margins.ghost + 1);
        for b in fine {
            interest.add(b.grow(fine_halo).coarsen(ratio).grow(s));
        }
    }
    let mut closure_seeds = BoxList::new();
    if let Some((coarse, ratio)) = coarser_owned {
        // Fine destinations my coarse data might feed: any destination
        // whose interpolation scratch box can touch my coarse data lies
        // within this region (see the module docs for the bound).
        for c in coarse {
            closure_seeds.add(c.grow(s).refine(ratio).grow(g));
        }
    }
    InterestSpec { interest, closure_seeds, closure_margin: g }
}

fn intersects_list(list: &BoxList, b: GBox) -> bool {
    list.iter().any(|x| x.intersects(b))
}

/// Apply the retention rules to the (transiently complete) record list:
/// keep owned records, records intersecting the interest region, and
/// closure seeds together with their `closure_margin` neighborhoods.
fn retain_records(all: &[BoxRecord], my_rank: usize, spec: &InterestSpec) -> Vec<BoxRecord> {
    let mut seed_halo = BoxList::new();
    for &(_, b, _) in all {
        if intersects_list(&spec.closure_seeds, b) {
            seed_halo.add(b.grow(spec.closure_margin));
        }
    }
    all.iter()
        .copied()
        .filter(|&(_, b, o)| {
            o == my_rank
                || intersects_list(&spec.interest, b)
                || intersects_list(&spec.closure_seeds, b)
                || intersects_list(&seed_halo, b)
        })
        .collect()
}

fn serialize_records(records: &[BoxRecord]) -> Bytes {
    let mut buf = Vec::with_capacity(records.len() * RECORD_BYTES);
    for &(index, b, owner) in records {
        buf.extend_from_slice(&(index as u64).to_le_bytes());
        buf.extend_from_slice(&b.lo.x.to_le_bytes());
        buf.extend_from_slice(&b.lo.y.to_le_bytes());
        buf.extend_from_slice(&b.hi.x.to_le_bytes());
        buf.extend_from_slice(&b.hi.y.to_le_bytes());
        buf.extend_from_slice(&(owner as u64).to_le_bytes());
    }
    Bytes::from(buf)
}

/// Parse the `r`-th record of a serialized payload.
fn parse_record(payload: &[u8], r: usize) -> BoxRecord {
    let word =
        |i: usize| i64::from_le_bytes(payload[r * RECORD_BYTES + i * 8..][..8].try_into().unwrap());
    let lo = IntVector::new(word(1), word(2));
    let hi = IntVector::new(word(3), word(4));
    (word(0) as usize, GBox::new(lo, hi), word(5) as usize)
}

#[cfg(test)]
fn parse_records(payload: &[u8], out: &mut Vec<BoxRecord>) {
    assert_eq!(payload.len() % RECORD_BYTES, 0, "malformed box-record payload");
    for r in 0..payload.len() / RECORD_BYTES {
        out.push(parse_record(payload, r));
    }
}

/// Visit every record of the serialized `parts` in stream order,
/// applying the corruption decision `(stream position, decision word)`
/// before the record is observed. This is the streaming replacement for
/// materializing the concatenated global record list: each record is
/// decoded from the (zero-copy) wire segments on the fly.
fn visit_records(parts: &[Bytes], corrupt: Option<(usize, u64)>, mut f: impl FnMut(BoxRecord)) {
    let mut pos = 0usize;
    for part in parts {
        assert_eq!(part.len() % RECORD_BYTES, 0, "malformed box-record payload");
        for r in 0..part.len() / RECORD_BYTES {
            let mut rec = parse_record(part, r);
            if let Some((pick, w)) = corrupt {
                if pos == pick {
                    corrupt_record(&mut rec, w);
                }
            }
            f(rec);
            pos += 1;
        }
    }
}

/// Deterministic single-bit corruption of a record's box, driven by the
/// injector's decision word (see [`FaultKind::MetadataCorrupt`]).
fn corrupt_record(rec: &mut BoxRecord, w: u64) {
    let bit = 1i64 << ((w >> 8) % 8);
    match (w >> 16) % 4 {
        0 => rec.1.lo.x ^= bit,
        1 => rec.1.lo.y ^= bit,
        2 => rec.1.hi.x ^= bit,
        _ => rec.1.hi.y ^= bit,
    }
}

/// Structural sanity of an assembled index set (sorted ascending):
/// indices must be exactly `0..len`. Returns a description of the first
/// violation.
fn structural_error(sorted: &[usize]) -> Option<String> {
    for (expect, &index) in sorted.iter().enumerate() {
        if index != expect {
            return Some(if sorted.iter().filter(|&&i| i == index).count() > 1 {
                format!("duplicate global index {index}")
            } else {
                format!("global indices are not dense: expected {expect}, found {index}")
            });
        }
    }
    None
}

/// Exchange owned box records into a verified [`LevelView`].
///
/// Each rank contributes its owned `(index, box, owner)` records; the
/// received wire segments are *streamed* — digest-verified against the
/// allreduced combination of every rank's owned partials (the handshake
/// described in the module docs) and filtered against the interest
/// neighborhood record-by-record, without ever materializing the
/// concatenated global record list. With `comm == None` (or one rank)
/// the exchange is the identity and the view is complete.
///
/// An attached fault injector ([`Comm::fault_injector`]) with a
/// [`FaultKind::MetadataCorrupt`] rule flips one bit of one assembled
/// record's box *after* the exchange and *before* verification,
/// simulating in-flight metadata corruption; the digest handshake then
/// raises the divergence collectively. The exchange always runs through
/// its full communication pattern — a transport fault on one rank never
/// leaves a peer stranded mid-collective.
///
/// # Errors
/// [`ExchangeError::Divergence`] if any rank's assembled records
/// disagree with the collective digest (raised on every rank);
/// [`ExchangeError::Comm`] on the rank(s) where the transport itself
/// faulted.
pub fn exchange_level_view(
    comm: Option<&Comm>,
    level_no: usize,
    ratio: IntVector,
    domain: &BoxList,
    owned: &[BoxRecord],
    spec: &InterestSpec,
    my_rank: usize,
) -> Result<LevelView, ExchangeError> {
    let mut comm_err: Option<CommError> = None;
    let partial = structure_items_digest(owned.iter().copied());
    let words = match comm {
        Some(c) => match c.try_allreduce_digest(partial.to_words(), Category::Regrid) {
            Ok(w) => w,
            Err(e) => {
                comm_err.get_or_insert(e);
                partial.to_words()
            }
        },
        None => partial.to_words(),
    };
    let combined = UnorderedDigest::from_words(words);
    let expected = finalize_structure_digest(level_no, ratio, domain, &combined);

    // The global record list is never materialized: the serialized
    // wire segments are streamed twice (digest + retention, then the
    // seed-halo closure), so the only per-record allocation a rank pays
    // for is its own retained neighborhood.
    let my_bytes = serialize_records(owned);
    let parts: Vec<Bytes> = match comm {
        Some(c) => match c.try_allgatherv(my_bytes.clone(), Category::Regrid) {
            Ok(parts) => parts,
            Err(e) => {
                // The collective completed (run-through) but this rank's
                // assembly is unusable; keep only the owned records so
                // the digest check below fails locally and the agreement
                // reduction tells every peer.
                comm_err.get_or_insert(e);
                vec![my_bytes]
            }
        },
        None => vec![my_bytes],
    };
    let total: usize = parts.iter().map(|p| p.len() / RECORD_BYTES).sum();

    // Deterministic fault injection: corrupt one streamed record.
    let mut corrupt: Option<(usize, u64)> = None;
    if let Some(inj) = comm.and_then(|c| c.fault_injector()) {
        if let Some(site) = inj.should_fire(FaultKind::MetadataCorrupt) {
            if let Some(c) = comm {
                c.recorder().count("fault.injected", 1);
            }
            if total > 0 {
                let w = inj.decision_word(FaultKind::MetadataCorrupt, site.occurrence);
                corrupt = Some(((w as usize) % total, w));
            }
        }
    }

    // Pass 1: digest, accounting, index collection, plain retention
    // (owned / interest / seed), and the seed-halo region.
    let plainly_kept = |b: GBox, o: usize| {
        o == my_rank
            || intersects_list(&spec.interest, b)
            || intersects_list(&spec.closure_seeds, b)
    };
    let mut indices: Vec<usize> = Vec::with_capacity(total);
    let mut observed_items = UnorderedDigest::new();
    let mut global_cells: i64 = 0;
    let mut seed_halo = BoxList::new();
    let mut retained: Vec<BoxRecord> = Vec::new();
    visit_records(&parts, corrupt, |(index, b, o)| {
        indices.push(index);
        observed_items.add(structure_item_hash(index, b, o));
        global_cells += b.num_cells();
        if intersects_list(&spec.closure_seeds, b) {
            seed_halo.add(b.grow(spec.closure_margin));
        }
        if plainly_kept(b, o) {
            retained.push((index, b, o));
        }
    });
    // Pass 2: the closure — records within a seed's halo are retained
    // too, and a seed later in the stream can capture an earlier
    // record, so this cannot fold into pass 1.
    if !seed_halo.is_empty() {
        visit_records(&parts, corrupt, |(index, b, o)| {
            if !plainly_kept(b, o) && intersects_list(&seed_halo, b) {
                retained.push((index, b, o));
            }
        });
    }
    retained.sort_unstable_by_key(|r| r.0);

    let observed = finalize_structure_digest(level_no, ratio, domain, &observed_items);
    let local_error = if observed != expected {
        indices.sort_unstable();
        Some(
            structural_error(&indices)
                .unwrap_or_else(|| "assembled records disagree with the owned partials".into()),
        )
    } else {
        None
    };

    // Agreement reduction: every rank learns the collective verdict, so
    // a divergent rank cannot silently plan while its peers error out
    // (or vice versa).
    let locally_ok = comm_err.is_none() && local_error.is_none();
    let all_ok = match comm {
        Some(c) => {
            match c.try_allreduce_min(if locally_ok { 1.0 } else { 0.0 }, Category::Regrid) {
                Ok(v) => v >= 0.5,
                Err(e) => {
                    // Collective faults are symmetric: every rank takes
                    // this branch together.
                    comm_err.get_or_insert(e);
                    false
                }
            }
        }
        None => locally_ok,
    };
    if let Some(e) = comm_err {
        return Err(ExchangeError::Comm(e));
    }
    if !all_ok {
        return Err(ExchangeError::Divergence(MetadataDivergence {
            level_no,
            expected_digest: expected,
            observed_digest: observed,
            rank: my_rank,
            detail: local_error
                .unwrap_or_else(|| "a peer rank assembled divergent metadata".into()),
        }));
    }

    let (indices, boxes, owners) = split_records(retained);
    Ok(LevelView {
        indices,
        boxes,
        owners,
        num_global: total,
        global_cells,
        global_digest: expected,
    })
}

/// Build a rank's [`LevelView`] from transiently-complete global
/// metadata (the regrid path: clustering and load balancing are
/// replicated computations, so the full new box list is in hand and no
/// exchange is needed — only the retention filter and the digest).
pub fn view_from_global(
    level_no: usize,
    ratio: IntVector,
    domain: &BoxList,
    boxes: &[GBox],
    owners: &[usize],
    my_rank: usize,
    spec: &InterestSpec,
) -> LevelView {
    assert_eq!(boxes.len(), owners.len(), "view_from_global: boxes/owners mismatch");
    let all: Vec<BoxRecord> =
        boxes.iter().zip(owners).enumerate().map(|(i, (&b, &o))| (i, b, o)).collect();
    let items = structure_items_digest(all.iter().copied());
    let global_digest = finalize_structure_digest(level_no, ratio, domain, &items);
    let global_cells = all.iter().map(|(_, b, _)| b.num_cells()).sum();
    let num_global = all.len();
    let retained = retain_records(&all, my_rank, spec);
    let (indices, boxes, owners) = split_records(retained);
    LevelView { indices, boxes, owners, num_global, global_cells, global_digest }
}

fn split_records(records: Vec<BoxRecord>) -> (Vec<usize>, Vec<GBox>, Vec<usize>) {
    let mut indices = Vec::with_capacity(records.len());
    let mut boxes = Vec::with_capacity(records.len());
    let mut owners = Vec::with_capacity(records.len());
    for (i, b, o) in records {
        indices.push(i);
        boxes.push(b);
        owners.push(o);
    }
    (indices, boxes, owners)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> BoxList {
        BoxList::from_box(GBox::from_coords(0, 0, 64, 64))
    }

    fn tile(i: i64, j: i64) -> GBox {
        GBox::from_coords(i * 8, j * 8, (i + 1) * 8, (j + 1) * 8)
    }

    #[test]
    fn partial_digests_combine_to_the_replicated_digest() {
        let records: Vec<BoxRecord> =
            (0..8).map(|i| (i, tile(i as i64 % 4, i as i64 / 4), i % 3)).collect();
        let whole = structure_items_digest(records.iter().copied());
        let mut merged = UnorderedDigest::new();
        for rank in 0..3 {
            let part = structure_items_digest(records.iter().copied().filter(|r| r.2 == rank));
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!(
            finalize_structure_digest(1, IntVector::uniform(2), &domain(), &merged),
            finalize_structure_digest(1, IntVector::uniform(2), &domain(), &whole),
        );
    }

    #[test]
    fn words_round_trip_through_the_wire_form() {
        let mut d = UnorderedDigest::new();
        d.add(structure_item_hash(3, tile(0, 0), 1));
        d.add(structure_item_hash(4, tile(1, 0), 2));
        assert_eq!(UnorderedDigest::from_words(d.to_words()), d);
    }

    #[test]
    fn records_round_trip_through_serialization() {
        let records: Vec<BoxRecord> =
            vec![(0, GBox::from_coords(-8, -16, 0, 0), 2), (5, GBox::from_coords(0, 0, 8, 8), 0)];
        let bytes = serialize_records(&records);
        assert_eq!(bytes.len(), records.len() * RECORD_BYTES);
        let mut back = Vec::new();
        parse_records(&bytes, &mut back);
        assert_eq!(back, records);
    }

    #[test]
    fn view_from_global_is_complete_at_one_rank() {
        let boxes = vec![tile(0, 0), tile(1, 0)];
        let owners = vec![0, 0];
        let spec = interest_for_level(&boxes, None, None, InterestMargins::default());
        let view = view_from_global(0, IntVector::ONE, &domain(), &boxes, &owners, 0, &spec);
        assert!(view.is_complete());
        assert_eq!(view.indices(), &[0, 1]);
        assert_eq!(view.global_cells(), 128);
        assert_eq!(view.metadata_bytes(), 2 * RECORD_BYTES);
    }

    #[test]
    fn retention_keeps_owned_and_nearby_drops_far() {
        // Rank 0 owns the left column; a far-right record is dropped,
        // an adjacent one kept.
        let boxes = vec![tile(0, 0), tile(1, 0), tile(7, 7)];
        let owners = vec![0, 1, 1];
        let owned: Vec<GBox> = vec![tile(0, 0)];
        let spec = interest_for_level(&owned, None, None, InterestMargins { ghost: 2, stencil: 1 });
        let view = view_from_global(0, IntVector::ONE, &domain(), &boxes, &owners, 0, &spec);
        assert_eq!(view.indices(), &[0, 1]);
        assert!(!view.is_complete());
        assert_eq!(view.num_global(), 3);
        assert_eq!(view.position_of(1), Some(1));
        assert_eq!(view.position_of(2), None);
    }

    #[test]
    fn closure_retains_neighbors_of_fed_destinations() {
        // Fine level over a coarse rank-0 box at the left: destination
        // tiles near the refined coarse region are seeds, and their
        // neighbors are retained even when outside the plain interest.
        let fine_domain = BoxList::from_box(GBox::from_coords(0, 0, 128, 128));
        let boxes = vec![
            GBox::from_coords(0, 0, 16, 16),     // seed: over my coarse data
            GBox::from_coords(16, 0, 32, 16),    // neighbor of the seed
            GBox::from_coords(96, 96, 128, 128), // far away
        ];
        let owners = vec![1, 1, 1];
        let coarse_owned = vec![GBox::from_coords(0, 0, 8, 8)];
        let spec = interest_for_level(
            &[],
            Some((&coarse_owned, IntVector::uniform(2))),
            None,
            InterestMargins { ghost: 2, stencil: 1 },
        );
        let view =
            view_from_global(1, IntVector::uniform(2), &fine_domain, &boxes, &owners, 0, &spec);
        assert_eq!(view.indices(), &[0, 1], "seed and its neighbor retained, far box dropped");
    }

    #[test]
    fn exchange_without_comm_verifies_and_completes() {
        let boxes = vec![tile(0, 0), tile(1, 1)];
        let owned: Vec<BoxRecord> = vec![(0, boxes[0], 0), (1, boxes[1], 0)];
        let spec = interest_for_level(&boxes, None, None, InterestMargins::default());
        let view =
            exchange_level_view(None, 0, IntVector::ONE, &domain(), &owned, &spec, 0).unwrap();
        assert!(view.is_complete());
        let expected = {
            let items = structure_items_digest(owned.iter().copied());
            finalize_structure_digest(0, IntVector::ONE, &domain(), &items)
        };
        assert_eq!(view.global_digest(), expected);
    }

    #[test]
    fn injected_metadata_corruption_is_a_typed_error() {
        use rbamr_netsim::{Cluster, FaultPlan, FaultRule};
        let plan =
            FaultPlan { seed: 7, rules: vec![FaultRule::once(FaultKind::MetadataCorrupt, 0)] };
        let cluster = Cluster::new(rbamr_perfmodel::Machine::ipa_cpu_node()).with_fault_plan(plan);
        let results = cluster.run(1, |comm| {
            let owned: Vec<BoxRecord> = vec![(0, tile(0, 0), 0), (1, tile(1, 1), 0)];
            let spec = InterestSpec::default();
            exchange_level_view(
                Some(&comm),
                0,
                IntVector::ONE,
                &domain(),
                &owned,
                &spec,
                comm.rank(),
            )
        });
        match results[0].value.as_ref().expect_err("corruption must surface") {
            ExchangeError::Divergence(err) => {
                assert_eq!(err.level_no, 0);
                assert_ne!(err.expected_digest, err.observed_digest);
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn empty_level_exchanges_cleanly() {
        let view = exchange_level_view(
            None,
            2,
            IntVector::uniform(2),
            &domain(),
            &[],
            &InterestSpec::default(),
            0,
        )
        .unwrap();
        assert!(view.is_empty());
        assert!(view.is_complete());
        assert_eq!(view.num_global(), 0);
    }

    #[test]
    fn structural_errors_are_described() {
        assert!(structural_error(&[0, 0]).unwrap().contains("duplicate"));
        assert!(structural_error(&[0, 2]).unwrap().contains("not dense"));
    }
}
