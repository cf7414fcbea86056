//! Refinement tags and the bitmap compression of Section IV-C.
//!
//! During regridding, each patch flags the cells that need refinement.
//! Flagging runs where the data lives (on the device in the GPU build),
//! but SAMRAI's clustering runs on the host, so tags must cross the PCIe
//! bus. The paper's optimisation, reproduced here: "we compress the
//! array of tags (stored as ints) to an array of bits … additionally, we
//! store a `tagged` flag for each patch. If no cells in a patch are
//! flagged for refinement then we don't copy data."

use rbamr_geometry::{GBox, IntVector};

/// A dense bitmap of refinement tags over one patch box — the compressed
/// wire/PCIe format. One bit per cell, row-major, LSB-first within each
/// byte, with an `any` fast-path flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagBitmap {
    cell_box: GBox,
    bits: Vec<u8>,
    any: bool,
}

impl TagBitmap {
    /// Compress an `i32` tag array (row-major over `cell_box`, non-zero
    /// = tagged), as the device tag-compression kernel does.
    ///
    /// # Panics
    /// Panics if `tags.len()` does not match the box.
    pub fn compress(cell_box: GBox, tags: &[i32]) -> Self {
        let n = cell_box.num_cells() as usize;
        assert_eq!(tags.len(), n, "TagBitmap: tag array length mismatch");
        let mut bits = vec![0u8; n.div_ceil(8)];
        let mut any = false;
        for (k, &t) in tags.iter().enumerate() {
            if t != 0 {
                bits[k / 8] |= 1 << (k % 8);
                any = true;
            }
        }
        // The "nothing tagged" fast path: the bit array itself need not
        // be transferred; drop it.
        if !any {
            bits.clear();
        }
        Self { cell_box, bits, any }
    }

    /// An all-clear bitmap (the fast path the paper describes: the host
    /// re-creates the empty tag field without any transfer).
    pub fn empty(cell_box: GBox) -> Self {
        Self { cell_box, bits: Vec::new(), any: false }
    }

    /// The patch box the bitmap covers.
    pub fn cell_box(&self) -> GBox {
        self.cell_box
    }

    /// True if any cell is tagged.
    pub fn any(&self) -> bool {
        self.any
    }

    /// Bytes that would cross the PCIe bus for this patch: zero when
    /// nothing is tagged (plus the 1-byte `tagged` flag the paper keeps
    /// per patch, which we count explicitly).
    pub fn transfer_bytes(&self) -> u64 {
        1 + self.bits.len() as u64
    }

    /// Bytes an *uncompressed* `i32` tag transfer would need — the
    /// baseline the compression ablation benchmark compares against.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.cell_box.num_cells() as u64 * 4
    }

    /// Decompress to the tagged cell indices.
    pub fn tagged_cells(&self) -> Vec<IntVector> {
        if !self.any {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (k, p) in self.cell_box.iter().enumerate() {
            if self.bits[k / 8] & (1 << (k % 8)) != 0 {
                out.push(p);
            }
        }
        out
    }

    /// True if the cell at `p` is tagged.
    ///
    /// # Panics
    /// Panics if `p` is outside the box.
    pub fn is_tagged(&self, p: IntVector) -> bool {
        if !self.any {
            assert!(self.cell_box.contains(p), "is_tagged: {p} outside {:?}", self.cell_box);
            return false;
        }
        let k = self.cell_box.offset_of(p);
        self.bits[k / 8] & (1 << (k % 8)) != 0
    }

    /// Number of tagged cells.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Append this bitmap's wire record to `out`: the box as four
    /// little-endian `i64` (`lo.x, lo.y, hi.x, hi.y`), then ⌈cells / 8⌉
    /// bytes of bits as [`TagBitmap::compress`] packs them.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let b = self.cell_box;
        for word in [b.lo.x, b.lo.y, b.hi.x, b.hi.y] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        let start = out.len();
        out.resize(start + (b.num_cells() as usize).div_ceil(8), 0);
        out[start..start + self.bits.len()].copy_from_slice(&self.bits);
    }

    /// Read the record [`TagBitmap::encode_into`] wrote off the front of
    /// `bytes` and advance past it. Total: a truncated header, an empty
    /// or inverted box, a cell count that overflows, fewer bit bytes than
    /// the box needs or a bit set past its last cell give `None`, and
    /// nothing is allocated beyond the bytes received.
    pub fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let (head, rest) = bytes.split_at_checked(32)?;
        let word =
            |k: usize| i64::from_le_bytes(head[8 * k..8 * k + 8].try_into().expect("8 bytes"));
        let cell_box = GBox::from_coords(word(0), word(1), word(2), word(3));
        if cell_box.is_empty() {
            return None;
        }
        let (lo, hi) = (cell_box.lo, cell_box.hi);
        let cells = hi.x.checked_sub(lo.x)?.checked_mul(hi.y.checked_sub(lo.y)?)?;
        let cells = usize::try_from(cells).ok()?;
        let (bits, rest) = rest.split_at_checked(cells.div_ceil(8))?;
        let spare = (8 - cells % 8) % 8;
        if bits.last().is_some_and(|&last| last.leading_zeros() < spare as u32) {
            return None;
        }
        *bytes = rest;
        let any = bits.iter().any(|&b| b != 0);
        Some(Self { cell_box, bits: if any { bits.to_vec() } else { Vec::new() }, any })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn roundtrip_preserves_tags() {
        let bx = b(2, 3, 7, 8); // 5x5
        let mut tags = vec![0i32; 25];
        tags[0] = 1;
        tags[7] = 2; // any non-zero value counts
        tags[24] = 1;
        let bm = TagBitmap::compress(bx, &tags);
        assert!(bm.any());
        assert_eq!(bm.count(), 3);
        let cells = bm.tagged_cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0], IntVector::new(2, 3));
        assert_eq!(cells[2], IntVector::new(6, 7));
        assert!(bm.is_tagged(IntVector::new(4, 4))); // offset 7 => (4,4)
        assert!(!bm.is_tagged(IntVector::new(3, 3)));
    }

    #[test]
    fn untagged_patch_transfers_one_byte() {
        let bx = b(0, 0, 64, 64);
        let bm = TagBitmap::compress(bx, &vec![0; 64 * 64]);
        assert!(!bm.any());
        assert_eq!(bm.transfer_bytes(), 1);
        assert!(bm.tagged_cells().is_empty());
        assert_eq!(bm, TagBitmap::empty(bx));
    }

    #[test]
    fn compression_ratio_is_32x_plus_flag() {
        let bx = b(0, 0, 64, 64);
        let mut tags = vec![0; 64 * 64];
        tags[5] = 1;
        let bm = TagBitmap::compress(bx, &tags);
        assert_eq!(bm.uncompressed_bytes(), 64 * 64 * 4);
        assert_eq!(bm.transfer_bytes(), 1 + 64 * 64 / 8);
        assert!(bm.uncompressed_bytes() / bm.transfer_bytes() >= 31);
    }

    #[test]
    fn full_patch_tags() {
        let bx = b(0, 0, 3, 3);
        let bm = TagBitmap::compress(bx, &[1; 9]);
        assert_eq!(bm.count(), 9);
        assert_eq!(bm.tagged_cells().len(), 9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        TagBitmap::compress(b(0, 0, 2, 2), &[1, 0]);
    }

    /// One record's bytes: `header` words, then `bits`.
    fn record(header: [i64; 4], bits: &[u8]) -> Vec<u8> {
        let mut out: Vec<u8> = header.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.extend_from_slice(bits);
        out
    }

    #[test]
    fn wire_records_roundtrip_back_to_back() {
        let tagged =
            TagBitmap::compress(b(-3, 2, 2, 5), &[0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        let untagged = TagBitmap::empty(b(0, 0, 4, 4));
        let mut wire = Vec::new();
        tagged.encode_into(&mut wire);
        untagged.encode_into(&mut wire);
        assert_eq!(wire.len(), 32 + 2 + 32 + 2);
        let mut rest = wire.as_slice();
        assert_eq!(TagBitmap::decode(&mut rest), Some(tagged));
        assert_eq!(TagBitmap::decode(&mut rest), Some(untagged));
        assert!(rest.is_empty());
    }

    #[test]
    fn malformed_wire_records_decode_to_none() {
        let good = record([0, 0, 3, 3], &[0xff, 0x01]);
        assert!(TagBitmap::decode(&mut good.as_slice()).is_some());
        let cases = [
            ("truncated header", good[..31].to_vec()),
            ("truncated bits", good[..33].to_vec()),
            ("empty box", record([0, 0, 0, 3], &[])),
            ("inverted box", record([5, 0, 3, 3], &[0])),
            ("cell-count overflow", record([i64::MIN, 0, i64::MAX, 2], &[0])),
            ("product overflow", record([0, 0, 1 << 40, 1 << 40], &[0])),
            ("more cells than bytes", record([0, 0, 1 << 20, 1 << 20], &[0; 64])),
            ("bit past the last cell", record([0, 0, 3, 3], &[0, 0x02])),
        ];
        for (what, bytes) in cases {
            let mut rest = bytes.as_slice();
            assert_eq!(TagBitmap::decode(&mut rest), None, "{what}");
            assert_eq!(rest.len(), bytes.len(), "{what}: a failed decode consumed bytes");
        }
    }
}
