//! Collectives of the simulated communicator: what one costs and how
//! it runs.
//!
//! # Reductions
//!
//! Every reduction-shaped collective ([`ReduceSpec::MIN_F64`],
//! `MAX_F64`, `SUM_F64`, `BARRIER`, `VERDICT`) has one cost and one
//! execution, both in [`Comm::try_reduce`]:
//!
//! * **Cost model** — `CostModel::allreduce(N, spec.bytes)`, i.e.
//!   ⌈log₂N⌉ × `message(bytes)`, charged to the caller's category,
//!   plus one collective causal edge. This is what a log-depth
//!   butterfly costs on the modelled machine.
//! * **Execution** — one rendezvous through the scheduler's shared 3-word
//!   accumulator. All ranks share an address space, so the butterfly
//!   is charged, not executed: a reduction puts no frames on the wire.
//!
//! The fault injector is consulted once per call (`CollectiveFault`);
//! its decision and the dead-rank flag are OR-ed through the
//! rendezvous, so an injected fault surfaces as the same
//! [`CommError::CollectiveFault`], and a dead participant as the same
//! [`CommError::Revoked`], on every rank.
//!
//! # Payload-moving collectives
//!
//! Gather, broadcast and allgatherv move real bytes as ordinary
//! messages (injector-visible: drops and corruption surface as typed
//! wire errors under the run-through discipline), dispatched by
//! [`Comm::try_collective`] on the job's [`CollectiveAlgo`]:
//!
//! | algo                | allgatherv frames | critical path | gather / broadcast |
//! |---------------------|-------------------|---------------|--------------------|
//! | `RecursiveDoubling` | ≈ N·⌈log₂N⌉       | ⌈log₂N⌉       | binomial tree, N−1 |
//! | `Flat`              | N·(N−1)           | 1             | flat fan, N−1      |
//!
//! `RecursiveDoubling` is what production runs; `Flat` is reachable
//! only through [`crate::Cluster::with_collectives`] and is kept as the
//! reference the equivalence tests and the frames gate compare
//! against.

use crate::comm::{Comm, CommError};
use bytes::Bytes;
use rbamr_perfmodel::Category;

/// How payload-moving collectives (gather / broadcast / allgatherv)
/// exchange their frames. See the module docs for the frame-complexity
/// table. Reductions do not consult it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Flat point-to-point fans (an allgatherv is N·(N−1) frames) — the
    /// property-tested reference.
    Flat,
    /// Recursive-doubling butterfly for allgatherv, binomial tree for
    /// rooted gather/broadcast — production.
    #[default]
    RecursiveDoubling,
}

/// A reduction over 3-word states. The combine must be commutative, so
/// every arrival order agrees on the result; non-associative combines
/// (floating-point sum) may differ between arrival orders at roundoff
/// level, exactly as `MPI_SUM` does across MPI implementations. f64
/// reductions pack the value's bit pattern into word 0 (see
/// [`f64_words`]).
#[derive(Clone, Copy, Debug)]
pub struct ReduceSpec {
    /// Collective name for spans, causal edges and error reports.
    pub name: &'static str,
    /// Logical payload bytes accounted per rank in
    /// `net.collective_bytes` (0 for a barrier).
    pub bytes: u64,
    /// Fold the right-hand contribution into the accumulator.
    pub combine: fn(&mut [u64; 3], [u64; 3]),
}

impl ReduceSpec {
    /// Global f64 minimum (word 0).
    pub const MIN_F64: Self = Self { name: "allreduce-min", bytes: 8, combine: combine_min_f64 };
    /// Global f64 maximum (word 0).
    pub const MAX_F64: Self = Self { name: "allreduce-max", bytes: 8, combine: combine_max_f64 };
    /// Global f64 sum (word 0); accumulation order is
    /// arrival-dependent, tolerated as MPI_SUM roundoff.
    pub const SUM_F64: Self = Self { name: "allreduce-sum", bytes: 8, combine: combine_sum_f64 };
    /// Pure synchronisation: no payload, no-op combine.
    pub const BARRIER: Self = Self { name: "barrier", bytes: 0, combine: combine_barrier };
    /// A commit verdict in one rendezvous: the minimum of word 0 (an
    /// all-ok flag) and the maximum of word 1 (the worst failure
    /// kind), both as integers.
    pub const VERDICT: Self =
        Self { name: "allreduce-verdict", bytes: 16, combine: combine_verdict };
}

/// Pack an f64 into the word-0 slot of a reduction state.
pub fn f64_words(v: f64) -> [u64; 3] {
    [v.to_bits(), 0, 0]
}

fn combine_min_f64(acc: &mut [u64; 3], v: [u64; 3]) {
    acc[0] = f64::from_bits(acc[0]).min(f64::from_bits(v[0])).to_bits();
}

fn combine_max_f64(acc: &mut [u64; 3], v: [u64; 3]) {
    acc[0] = f64::from_bits(acc[0]).max(f64::from_bits(v[0])).to_bits();
}

fn combine_sum_f64(acc: &mut [u64; 3], v: [u64; 3]) {
    acc[0] = (f64::from_bits(acc[0]) + f64::from_bits(v[0])).to_bits();
}

fn combine_barrier(_: &mut [u64; 3], _: [u64; 3]) {}

fn combine_verdict(acc: &mut [u64; 3], v: [u64; 3]) {
    acc[0] = acc[0].min(v[0]);
    acc[1] = acc[1].max(v[1]);
}

/// One collective operation for the unified entry point
/// [`Comm::try_collective`] / [`Comm::collective`]. Every named
/// collective on [`Comm`] is a thin wrapper building one of these.
#[derive(Clone, Debug)]
pub enum CollectiveOp {
    /// Allreduce of a 3-word state under `spec`.
    Reduce {
        /// The reduction (name, accounted bytes, combine).
        spec: ReduceSpec,
        /// This rank's contribution.
        words: [u64; 3],
    },
    /// All-to-all gather of variable-length payloads, result indexed
    /// by rank on every rank.
    AllGather {
        /// This rank's contribution.
        payload: Bytes,
    },
    /// Gather every rank's payload at `root`.
    Gather {
        /// The collecting rank.
        root: usize,
        /// This rank's contribution.
        payload: Bytes,
    },
    /// Broadcast from `root`: the root passes `Some(payload)`,
    /// everyone else `None`.
    Broadcast {
        /// The publishing rank.
        root: usize,
        /// The root's payload (`None` on non-roots).
        payload: Option<Bytes>,
    },
}

impl CollectiveOp {
    /// The operation's collective name (spans, error reports).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Reduce { spec, .. } => spec.name,
            Self::AllGather { .. } => "allgatherv",
            Self::Gather { .. } => "gather",
            Self::Broadcast { .. } => "broadcast",
        }
    }
}

/// The result of one collective operation; the variant always mirrors
/// the submitted [`CollectiveOp`].
#[derive(Clone, Debug, PartialEq)]
pub enum CollectiveOutput {
    /// [`CollectiveOp::Reduce`]: the agreed 3-word result.
    Reduced([u64; 3]),
    /// [`CollectiveOp::AllGather`]: every rank's payload, by rank.
    Gathered(Vec<Bytes>),
    /// [`CollectiveOp::Gather`]: `Some(payloads)` at the root, `None`
    /// elsewhere.
    GatheredAtRoot(Option<Vec<Bytes>>),
    /// [`CollectiveOp::Broadcast`]: the root's payload.
    Broadcast(Bytes),
}

impl CollectiveOutput {
    /// The reduced words.
    ///
    /// # Panics
    /// Panics if the output is a different variant (the entry point
    /// always returns the variant matching the op).
    pub fn reduced(self) -> [u64; 3] {
        match self {
            Self::Reduced(w) => w,
            other => panic!("expected Reduced output, got {other:?}"),
        }
    }

    /// The all-gathered payloads, indexed by rank.
    ///
    /// # Panics
    /// Panics if the output is a different variant.
    pub fn gathered(self) -> Vec<Bytes> {
        match self {
            Self::Gathered(parts) => parts,
            other => panic!("expected Gathered output, got {other:?}"),
        }
    }

    /// The rooted-gather payloads (`Some` at the root only).
    ///
    /// # Panics
    /// Panics if the output is a different variant.
    pub fn gathered_at_root(self) -> Option<Vec<Bytes>> {
        match self {
            Self::GatheredAtRoot(parts) => parts,
            other => panic!("expected GatheredAtRoot output, got {other:?}"),
        }
    }

    /// The broadcast payload.
    ///
    /// # Panics
    /// Panics if the output is a different variant.
    pub fn broadcast(self) -> Bytes {
        match self {
            Self::Broadcast(payload) => payload,
            other => panic!("expected Broadcast output, got {other:?}"),
        }
    }
}

/// Largest power of two ≤ `n` (`n ≥ 1`).
fn pow2_floor(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Binomial-tree parent of `rank` in a tree rooted at `root`: clear
/// the lowest set bit of the root-relative rank.
fn tree_parent(rank: usize, root: usize, n: usize) -> usize {
    let rel = (rank + n - root) % n;
    ((rel & (rel - 1)) + root) % n
}

/// Binomial-tree children of `rank` in a tree rooted at `root`, in
/// increasing-offset order: `rel + 2^j` for `2^j` below `rel`'s lowest
/// set bit (the whole range for the root), bounded by the job size.
fn tree_children(rank: usize, root: usize, n: usize) -> Vec<usize> {
    let rel = (rank + n - root) % n;
    let reach = if rel == 0 { n } else { rel & rel.wrapping_neg() };
    let mut out = Vec::new();
    let mut step = 1;
    while step < reach && rel + step < n {
        out.push((rel + step + root) % n);
        step <<= 1;
    }
    out
}

/// Segment frame: `[taint u8][nseg u32 LE][(rank u32, len u32) ×
/// nseg][payloads…]`. Decoded payloads are zero-copy slices of the
/// received frame.
fn encode_segments(taint: bool, segments: &[(usize, Bytes)]) -> Bytes {
    let body: usize = segments.iter().map(|(_, b)| b.len()).sum();
    let mut v = Vec::with_capacity(5 + 8 * segments.len() + body);
    v.push(taint as u8);
    v.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for (rank, b) in segments {
        v.extend_from_slice(&(*rank as u32).to_le_bytes());
        v.extend_from_slice(&(b.len() as u32).to_le_bytes());
    }
    for (_, b) in segments {
        v.extend_from_slice(b);
    }
    Bytes::from(v)
}

fn decode_segments(frame: &Bytes) -> (bool, Vec<(usize, Bytes)>) {
    assert!(frame.len() >= 5, "segment frame: malformed header");
    let nseg = u32::from_le_bytes(frame[1..5].try_into().expect("4-byte count")) as usize;
    let mut segments = Vec::with_capacity(nseg);
    let mut off = 5 + 8 * nseg;
    for i in 0..nseg {
        let at = 5 + 8 * i;
        let rank = u32::from_le_bytes(frame[at..at + 4].try_into().expect("4-byte rank")) as usize;
        let len =
            u32::from_le_bytes(frame[at + 4..at + 8].try_into().expect("4-byte len")) as usize;
        segments.push((rank, frame.slice(off..off + len)));
        off += len;
    }
    (frame[0] != 0, segments)
}

/// Binomial-tree gather: each rank merges its subtree's `(rank,
/// payload)` segments into one frame for its parent — N−1 frames with
/// a log-depth critical path and log-bounded per-rank fan-in, vs the
/// flat fan's N−1 frames into one mailbox. Internal frames are
/// ordinary messages (injector-visible); an upstream wire fault taints
/// the merged frame so the root reports the loss even when the failing
/// receive happened elsewhere.
pub(crate) fn tree_gather(
    comm: &Comm,
    root: usize,
    payload: Bytes,
    category: Category,
) -> Result<Option<Vec<Bytes>>, CommError> {
    let n = comm.size();
    let rank = comm.rank();
    let tag = comm.next_collective_tag();
    let mut taint = false;
    let mut first_err = None;
    let mut segments: Vec<(usize, Bytes)> = vec![(rank, payload)];
    for c in tree_children(rank, root, n) {
        match comm.try_recv(c, tag, category) {
            Ok(frame) => {
                let (t, segs) = decode_segments(&frame);
                taint |= t;
                segments.extend(segs);
            }
            Err(e) => {
                taint = true;
                first_err.get_or_insert(e);
            }
        }
    }
    if rank != root {
        comm.recorder().count("net.collective_bytes", segments[0].1.len() as u64);
        comm.send(tree_parent(rank, root, n), tag, encode_segments(taint, &segments));
        return match first_err {
            Some(e) => Err(e),
            None => Ok(None),
        };
    }
    let mut parts: Vec<Bytes> = vec![Bytes::new(); n];
    for (r, b) in segments {
        parts[r] = b;
    }
    let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
    comm.recorder().count("net.collective_bytes", total);
    match first_err {
        Some(e) => Err(e),
        None if taint => Err(CommError::CollectiveFault { name: "gather" }),
        None => Ok(Some(parts)),
    }
}

/// Binomial-tree broadcast from `root`: the payload travels down the
/// tree (N−1 frames, log-depth critical path). A non-root whose
/// receive fails still forwards an empty tainted frame so its subtree
/// stays in lock-step; the taint surfaces there as a
/// [`CommError::CollectiveFault`].
pub(crate) fn tree_broadcast(
    comm: &Comm,
    root: usize,
    payload: Option<Bytes>,
    category: Category,
) -> Result<Bytes, CommError> {
    let n = comm.size();
    let rank = comm.rank();
    let tag = comm.next_collective_tag();
    let children = tree_children(rank, root, n);
    if rank == root {
        let Some(payload) = payload else {
            return Err(CommError::MissingRootPayload { root });
        };
        comm.recorder().count("net.collective_bytes", payload.len() as u64);
        let mut framed = Vec::with_capacity(payload.len() + 1);
        framed.push(0u8);
        framed.extend_from_slice(&payload);
        let frame = Bytes::from(framed);
        for c in children {
            comm.send(c, tag, frame.clone());
        }
        return Ok(payload);
    }
    if payload.is_some() {
        return Err(CommError::UnexpectedPayload { rank });
    }
    match comm.try_recv(tree_parent(rank, root, n), tag, category) {
        Ok(frame) => {
            assert!(!frame.is_empty(), "broadcast frame: missing taint byte");
            let taint = frame[0] != 0;
            let body = frame.slice(1..);
            for c in children {
                comm.send(c, tag, frame.clone());
            }
            comm.recorder().count("net.collective_bytes", body.len() as u64);
            if taint {
                Err(CommError::CollectiveFault { name: "broadcast" })
            } else {
                Ok(body)
            }
        }
        Err(e) => {
            let tainted = Bytes::from_static(&[1u8]);
            for c in children {
                comm.send(c, tag, tainted.clone());
            }
            Err(e)
        }
    }
}

fn absorb_segments(parts: &mut [Option<Bytes>], frame: &Bytes, taint: &mut bool) {
    let (t, segments) = decode_segments(frame);
    *taint |= t;
    for (r, b) in segments {
        parts[r] = Some(b);
    }
}

fn held_segments(parts: &[Option<Bytes>]) -> Vec<(usize, Bytes)> {
    parts.iter().enumerate().filter_map(|(r, b)| b.clone().map(|b| (r, b))).collect()
}

fn finish_allgatherv(
    comm: &Comm,
    parts: Vec<Option<Bytes>>,
    taint: bool,
    first_err: Option<CommError>,
) -> Result<Vec<Bytes>, CommError> {
    let parts: Vec<Bytes> = parts.into_iter().map(|b| b.unwrap_or_default()).collect();
    let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
    comm.recorder().count("net.collective_bytes", total);
    match first_err {
        Some(e) => Err(e),
        None if taint => Err(CommError::CollectiveFault { name: "allgatherv" }),
        None => Ok(parts),
    }
}

/// Recursive-doubling allgatherv: the power-of-two core doubles its
/// known segment set every round; extras hand their segment to a proxy
/// up front and receive the complete set at the end. ≈ N·⌈log₂N⌉
/// frames job-wide vs the flat fan's N·(N−1).
pub(crate) fn rd_allgatherv(
    comm: &Comm,
    payload: Bytes,
    category: Category,
) -> Result<Vec<Bytes>, CommError> {
    let n = comm.size();
    let rank = comm.rank();
    let tag = comm.next_collective_tag();
    let p = pow2_floor(n);
    let extras = n - p;
    let mut taint = false;
    let mut first_err = None;
    let mut parts: Vec<Option<Bytes>> = vec![None; n];
    parts[rank] = Some(payload);
    if rank >= p {
        // Extra: publish through the proxy, then receive the full set.
        comm.send(rank - p, tag, encode_segments(taint, &held_segments(&parts)));
        match comm.try_recv(rank - p, tag, category) {
            Ok(frame) => absorb_segments(&mut parts, &frame, &mut taint),
            Err(e) => {
                taint = true;
                first_err.get_or_insert(e);
            }
        }
        return finish_allgatherv(comm, parts, taint, first_err);
    }
    if rank < extras {
        match comm.try_recv(rank + p, tag, category) {
            Ok(frame) => absorb_segments(&mut parts, &frame, &mut taint),
            Err(e) => {
                taint = true;
                first_err.get_or_insert(e);
            }
        }
    }
    let mut k = 1;
    while k < p {
        let partner = rank ^ k;
        comm.send(partner, tag, encode_segments(taint, &held_segments(&parts)));
        match comm.try_recv(partner, tag, category) {
            Ok(frame) => absorb_segments(&mut parts, &frame, &mut taint),
            Err(e) => {
                taint = true;
                first_err.get_or_insert(e);
            }
        }
        k <<= 1;
    }
    if rank < extras {
        comm.send(rank + p, tag, encode_segments(taint, &held_segments(&parts)));
    }
    finish_allgatherv(comm, parts, taint, first_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_floor_brackets() {
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(1023), 512);
        assert_eq!(pow2_floor(1024), 1024);
    }

    #[test]
    fn tree_topology_is_consistent() {
        // Every non-root's parent lists it as a child, children are
        // in range, and the tree spans all ranks.
        for n in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            for root in [0, n / 2, n - 1] {
                let mut reached = vec![false; n];
                reached[root] = true;
                let mut frontier = vec![root];
                while let Some(r) = frontier.pop() {
                    for c in tree_children(r, root, n) {
                        assert!(c < n, "child {c} out of range (n={n}, root={root})");
                        assert_eq!(tree_parent(c, root, n), r, "parent mismatch at n={n}");
                        assert!(!reached[c], "rank {c} reached twice (n={n}, root={root})");
                        reached[c] = true;
                        frontier.push(c);
                    }
                }
                assert!(reached.iter().all(|&x| x), "tree must span all {n} ranks");
            }
        }
    }

    #[test]
    fn segment_frame_roundtrip() {
        let segs = vec![
            (3usize, Bytes::from_static(b"abc")),
            (0usize, Bytes::new()),
            (7usize, Bytes::from_static(b"zz")),
        ];
        let frame = encode_segments(true, &segs);
        let (taint, got) = decode_segments(&frame);
        assert!(taint);
        assert_eq!(got, segs);
    }
}
