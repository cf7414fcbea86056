//! Device tag compression — the Section IV-C transfer optimisation.
//!
//! "To transfer the data, we compress the array of tags (stored as
//! ints) to an array of bits … Additionally, we store a `tagged` flag
//! for each patch. If no cells in a patch are flagged for refinement
//! then we don't copy data."
//!
//! Both kernels run on the device over every tag field they are handed
//! at once — a regrid hands them every tag level's patches: `any-tagged`
//! writes one flag word per patch, `compress-tags` (one thread per
//! output byte, each reading eight tags) packs the flagged patches' bits
//! into one array. Only the flag words and that bit array — nothing but
//! the flags, when every patch is clean — cross the PCIe bus, in one
//! transfer each.

use crate::data::DeviceData;
use rbamr_amr::patchdata::PatchData;
use rbamr_amr::TagBitmap;
use rbamr_device::{Device, DeviceBuffer, Stream};
use rbamr_geometry::GBox;
use rbamr_perfmodel::{Category, KernelShape};

/// One patch's `i32` tags inside a device array: `dbox`, row-major from
/// element `offset` of `buf`, of which the cells of `cell_box` are the
/// ones compressed.
pub struct TagField<'a> {
    /// The device array holding the tags.
    pub buf: &'a DeviceBuffer<i32>,
    /// First element of this patch's tags in `buf`.
    pub offset: usize,
    /// The patch interior.
    pub cell_box: GBox,
    /// The box the tags are stored over (`cell_box` plus any ghosts).
    pub dbox: GBox,
}

/// Compress device-resident tag fields into host-side
/// [`TagBitmap`]s, in `fields` order, transferring only the compressed
/// form: one `any-tagged` launch and one download of a 4-byte flag per
/// patch, then one `compress-tags` launch and one download of
/// `ceil(cells / 8)` bytes per *flagged* patch — neither when no patch
/// is flagged. Three allocations at most, whatever the patch count.
pub fn compress_tags_many(
    device: &Device,
    fields: &[TagField<'_>],
    category: Category,
) -> Vec<TagBitmap> {
    if fields.is_empty() {
        return Vec::new();
    }
    let cells = |f: &TagField<'_>| f.cell_box.num_cells();

    // Kernel 1: the any-tagged reduction, one word per patch.
    let mut flags: DeviceBuffer<i32> = device.alloc(fields.len());
    let shape = KernelShape::streaming(fields.iter().map(cells).sum(), 1, 1);
    device.launch_named(&Stream, "any-tagged", category, shape, |k| {
        for (f, flag) in fields.iter().zip(flags.as_mut_slice(&k)) {
            let src = &f.buf.as_slice(&k)[f.offset..];
            *flag = i32::from(f.cell_box.iter().any(|p| src[f.dbox.offset_of(p)] != 0));
        }
    });
    let mut any = vec![0i32; fields.len()];
    device.download(&flags, 0, &mut any, category);

    // Kernel 2: bit compression of the flagged patches, one thread per
    // output byte; each patch's bits start on a byte boundary
    // (`first_byte`, `None` for a clean patch).
    let (mut nbytes, mut tagged_cells) = (0usize, 0i64);
    let mut first_byte = Vec::with_capacity(fields.len());
    for (f, &any) in fields.iter().zip(&any) {
        first_byte.push((any != 0).then_some(nbytes));
        if any != 0 {
            nbytes += (cells(f) as usize).div_ceil(8);
            tagged_cells += cells(f);
        }
    }
    let mut host_bits = vec![0u8; nbytes];
    if nbytes > 0 {
        let mut bits: DeviceBuffer<u8> = device.alloc(nbytes);
        let shape = KernelShape::streaming(tagged_cells, 1, 2);
        device.launch_named(&Stream, "compress-tags", category, shape, |k| {
            let out = bits.as_mut_slice(&k);
            for (f, first) in fields.iter().zip(&first_byte) {
                let Some(first) = first else { continue };
                let src = &f.buf.as_slice(&k)[f.offset..];
                for (cell, p) in f.cell_box.iter().enumerate() {
                    if src[f.dbox.offset_of(p)] != 0 {
                        out[first + cell / 8] |= 1 << (cell % 8);
                    }
                }
            }
        });
        device.download(&bits, 0, &mut host_bits, category);
    }

    // Reconstruct through the shared TagBitmap type so host and device
    // paths agree bit for bit.
    let rebuild = |(f, first): (&TagField<'_>, &Option<usize>)| {
        let Some(first) = first else { return TagBitmap::empty(f.cell_box) };
        let bit = |cell: usize| i32::from(host_bits[first + cell / 8] & (1 << (cell % 8)) != 0);
        let tags: Vec<i32> = (0..cells(f) as usize).map(bit).collect();
        TagBitmap::compress(f.cell_box, &tags)
    };
    fields.iter().zip(&first_byte).map(rebuild).collect()
}

/// [`compress_tags_many`] on one tag field: the interior (non-ghost)
/// tags of `tags`. PCIe traffic is `ceil(cells/8)` bytes plus the flag
/// word when any cell is tagged, and the 4-byte flag alone otherwise.
pub fn compress_tags(tags: &DeviceData<i32>, category: Category) -> TagBitmap {
    let field = TagField {
        buf: tags.buffer(),
        offset: 0,
        cell_box: tags.cell_box(),
        dbox: tags.data_box(),
    };
    let mut bitmaps = compress_tags_many(tags.device(), &[field], category);
    bitmaps.pop().expect("one bitmap per tag field")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::{Centring, IntVector};

    fn tag_field(device: &Device, cell_box: GBox, tagged: &[IntVector]) -> DeviceData<i32> {
        let mut d = DeviceData::<i32>::new(device, cell_box, IntVector::ZERO, Centring::Cell);
        let dbox = d.data_box();
        let mut vals = vec![0i32; dbox.num_cells() as usize];
        for p in tagged {
            vals[dbox.offset_of(*p)] = 1;
        }
        d.upload_all(&vals, Category::Regrid);
        d
    }

    #[test]
    fn device_compression_matches_host_bitmap() {
        let device = Device::k20x();
        let cell_box = GBox::from_coords(2, 3, 12, 9);
        let tagged = vec![IntVector::new(2, 3), IntVector::new(7, 5), IntVector::new(11, 8)];
        let dtags = tag_field(&device, cell_box, &tagged);
        let bm = compress_tags(&dtags, Category::Regrid);
        assert!(bm.any());
        assert_eq!(bm.tagged_cells(), tagged);
    }

    #[test]
    fn untagged_patch_moves_only_a_scalar() {
        let device = Device::k20x();
        let cell_box = GBox::from_coords(0, 0, 64, 64);
        let dtags = tag_field(&device, cell_box, &[]);
        device.reset_transfer_stats();
        let bm = compress_tags(&dtags, Category::Regrid);
        assert!(!bm.any());
        let stats = device.stats();
        // Only the 4-byte any-flag crossed the bus.
        assert_eq!(stats.d2h_bytes, 4);
        assert_eq!(stats.d2h_transfers, 1);
    }

    #[test]
    fn tagged_patch_moves_compressed_bits_only() {
        let device = Device::k20x();
        let cell_box = GBox::from_coords(0, 0, 64, 64);
        let dtags = tag_field(&device, cell_box, &[IntVector::new(10, 10)]);
        device.reset_transfer_stats();
        let bm = compress_tags(&dtags, Category::Regrid);
        assert!(bm.any());
        let stats = device.stats();
        // Flag scalar (4 B) + bit array (64*64/8 = 512 B); the naive
        // int transfer would be 16 KiB.
        assert_eq!(stats.d2h_bytes, 4 + 512);
        assert!(stats.d2h_bytes < bm.uncompressed_bytes() / 30);
    }

    #[test]
    fn ghosted_tag_fields_compress_interior_only() {
        let device = Device::k20x();
        let cell_box = GBox::from_coords(0, 0, 8, 8);
        let mut d = DeviceData::<i32>::new(&device, cell_box, IntVector::ONE, Centring::Cell);
        let dbox = d.data_box();
        let mut vals = vec![0i32; dbox.num_cells() as usize];
        // Tag a ghost cell (must be ignored) and an interior cell.
        vals[dbox.offset_of(IntVector::new(-1, 0))] = 1;
        vals[dbox.offset_of(IntVector::new(3, 3))] = 1;
        d.upload_all(&vals, Category::Regrid);
        let bm = compress_tags(&d, Category::Regrid);
        assert_eq!(bm.tagged_cells(), vec![IntVector::new(3, 3)]);
    }
}
