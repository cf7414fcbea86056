//! Cheap structure digests for box-level metadata.
//!
//! The schedule cache (`rbamr-amr`) needs to recognise that a regrid
//! reproduced an existing level structure without comparing box arrays
//! element-by-element on every lookup. This module provides the two
//! building blocks:
//!
//! * [`Fnv64`] — a streaming 64-bit FNV-1a hasher over machine words,
//!   finalised through [`mix64`] (the splitmix64 finaliser) so closely
//!   related inputs land far apart.
//! * [`UnorderedDigest`] — a commutative accumulator: items may be fed
//!   in any traversal order and yield the same digest. Position
//!   sensitivity, where required, is obtained by mixing the index into
//!   each item hash before adding it.
//!
//! Both are deterministic across processes and ranks (no random keys),
//! which matters because every rank must compute the identical digest
//! for the replicated level metadata. No cryptographic strength is
//! claimed or needed: a collision merely reuses a schedule for a
//! structurally different level, and the consumers additionally bind
//! level number, ratio, and domain into the stream to keep accidental
//! collisions implausible.

use crate::gbox::GBox;
use crate::ivec::IntVector;

/// splitmix64 finaliser: a fast, well-mixing 64-bit bijection.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a over whole words (not bytes — the inputs are
/// small fixed-arity records, so word granularity is enough and ~8x
/// cheaper). Call [`Fnv64::finish`] to get the mixed digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorb one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Absorb a signed word (sign-extended reinterpretation).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorb a `usize`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an [`IntVector`] component-wise.
    #[inline]
    pub fn write_ivec(&mut self, v: IntVector) {
        self.write_i64(v.x);
        self.write_i64(v.y);
    }

    /// Absorb a [`GBox`] (both corners).
    #[inline]
    pub fn write_gbox(&mut self, b: GBox) {
        self.write_ivec(b.lo);
        self.write_ivec(b.hi);
    }

    /// Finalise: the accumulated state passed through [`mix64`].
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// Order-independent digest accumulator.
///
/// Items are mixed individually through [`mix64`] and combined with
/// commutative operations (wrapping sum and xor) plus a count, so the
/// digest is invariant under the order items are added in but sensitive
/// to the multiset of items. Duplicated items are distinguished by the
/// count and sum channels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnorderedDigest {
    sum: u64,
    xor: u64,
    count: u64,
}

impl UnorderedDigest {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one item hash (pre-mixing with [`mix64`] is applied here; pass
    /// the raw item hash).
    #[inline]
    pub fn add(&mut self, item: u64) {
        let m = mix64(item);
        self.sum = self.sum.wrapping_add(m);
        self.xor ^= m;
        self.count += 1;
    }

    /// Number of items added.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another accumulator into this one. Because every channel is
    /// commutative and associative, merging per-rank partial digests in
    /// any order yields exactly the digest a single pass over the union
    /// of the items would have produced.
    #[inline]
    pub fn merge(&mut self, other: &Self) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
        self.count = self.count.wrapping_add(other.count);
    }

    /// Collapse to a single 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut f = Fnv64::new();
        f.write_u64(self.sum);
        f.write_u64(self.xor);
        f.write_u64(self.count);
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(i: usize, b: GBox, owner: usize) -> u64 {
        let mut f = Fnv64::new();
        f.write_usize(i);
        f.write_gbox(b);
        f.write_usize(owner);
        f.finish()
    }

    #[test]
    fn unordered_digest_is_order_independent() {
        let boxes = [
            GBox::from_coords(0, 0, 4, 4),
            GBox::from_coords(4, 0, 8, 4),
            GBox::from_coords(0, 4, 4, 8),
        ];
        let mut fwd = UnorderedDigest::new();
        for (i, b) in boxes.iter().enumerate() {
            fwd.add(item(i, *b, i % 2));
        }
        let mut rev = UnorderedDigest::new();
        for (i, b) in boxes.iter().enumerate().rev() {
            rev.add(item(i, *b, i % 2));
        }
        assert_eq!(fwd.finish(), rev.finish());
    }

    #[test]
    fn unordered_digest_detects_permuted_indices() {
        // Same multiset of (box, owner) but bound to different indices
        // must digest differently: schedule plans address patches by
        // index, so a permutation is a different structure.
        let a = GBox::from_coords(0, 0, 4, 4);
        let b = GBox::from_coords(4, 0, 8, 4);
        let mut d1 = UnorderedDigest::new();
        d1.add(item(0, a, 0));
        d1.add(item(1, b, 0));
        let mut d2 = UnorderedDigest::new();
        d2.add(item(0, b, 0));
        d2.add(item(1, a, 0));
        assert_ne!(d1.finish(), d2.finish());
    }

    #[test]
    fn unordered_digest_detects_owner_and_box_changes() {
        let a = GBox::from_coords(0, 0, 4, 4);
        let base = {
            let mut d = UnorderedDigest::new();
            d.add(item(0, a, 0));
            d.finish()
        };
        let owner_changed = {
            let mut d = UnorderedDigest::new();
            d.add(item(0, a, 1));
            d.finish()
        };
        let box_changed = {
            let mut d = UnorderedDigest::new();
            d.add(item(0, GBox::from_coords(0, 0, 4, 5), 0));
            d.finish()
        };
        assert_ne!(base, owner_changed);
        assert_ne!(base, box_changed);
    }

    #[test]
    fn unordered_digest_distinguishes_duplicates() {
        let h = item(0, GBox::from_coords(0, 0, 4, 4), 0);
        let mut once = UnorderedDigest::new();
        once.add(h);
        let mut twice = UnorderedDigest::new();
        twice.add(h);
        twice.add(h);
        assert_ne!(once.finish(), twice.finish());
        assert_eq!(twice.count(), 2);
    }

    #[test]
    fn fnv64_is_word_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(Fnv64::new().finish(), a.finish());
    }

    #[test]
    fn mix64_scatters_small_inputs() {
        // (0 is the finaliser's fixed point; inputs here are FNV states,
        // which start at the non-zero offset basis.)
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(u64::MAX), u64::MAX);
    }
}
