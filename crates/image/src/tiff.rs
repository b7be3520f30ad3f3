//! Minimal TIFF 6.0 baseline codec for grayscale microscopy tiles.
//!
//! Stands in for libTIFF in the paper's stack (§IV-A: "reads images using
//! libTIFF4"). Supported subset — exactly what microscope cameras emit:
//! single-image files, uncompressed, 8- or 16-bit grayscale, strip layout,
//! either byte order on read (always little-endian on write).

use std::borrow::Cow;
use std::fs;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::{ImageError, Result};
use crate::image::Image;

// TIFF tag ids used by the baseline grayscale subset.
const TAG_IMAGE_WIDTH: u16 = 256;
const TAG_IMAGE_LENGTH: u16 = 257;
const TAG_BITS_PER_SAMPLE: u16 = 258;
const TAG_COMPRESSION: u16 = 259;
const TAG_PHOTOMETRIC: u16 = 262;
const TAG_STRIP_OFFSETS: u16 = 273;
const TAG_SAMPLES_PER_PIXEL: u16 = 277;
const TAG_ROWS_PER_STRIP: u16 = 278;
const TAG_STRIP_BYTE_COUNTS: u16 = 279;

const TYPE_SHORT: u16 = 3;
const TYPE_LONG: u16 = 4;

/// Bytes of file one header or IFD read brings in.
const PAGE: usize = 4 << 10;

/// A TIFF as [`decode`] reads it. `page` holds the file's bytes from `at`:
/// all of them for a file in memory, or up to [`PAGE`] of an open `file`,
/// reloaded with a positioned read at the first word it lacks. Every read
/// is checked against `len` before it is made, so both answer alike.
struct Reader<'a> {
    file: Option<fs::File>,
    len: usize,
    page: Cow<'a, [u8]>,
    at: usize,
    /// Whether the file is big-endian (`MM`).
    big: bool,
}

impl Reader<'_> {
    /// The `N` bytes at `off`.
    fn bytes<const N: usize>(&mut self, off: usize) -> Result<[u8; N]> {
        let end = (off.checked_add(N).filter(|&end| end <= self.len))
            .ok_or_else(|| ImageError::Format("truncated file".into()))?;
        let missing = off < self.at || end > self.at + self.page.len();
        if let (Some(file), true) = (&self.file, missing) {
            let page = self.page.to_mut();
            page.resize(PAGE.min(self.len - off), 0);
            file.read_exact_at(page, off as u64)?;
            self.at = off;
        }
        let word = &self.page[off - self.at..end - self.at];
        Ok(std::array::from_fn(|i| word[i]))
    }

    fn u16_at(&mut self, off: usize) -> Result<u16> {
        let v = u16::from_le_bytes(self.bytes(off)?);
        Ok(if self.big { v.swap_bytes() } else { v })
    }

    fn u32_at(&mut self, off: usize) -> Result<u32> {
        let v = u32::from_le_bytes(self.bytes(off)?);
        Ok(if self.big { v.swap_bytes() } else { v })
    }

    /// Value `k` of `values`, a SHORT or LONG widened to `u32`.
    fn value(&mut self, values: Values, k: usize) -> Result<u32> {
        let off = values.at + values.size * k;
        if values.size == 2 {
            Ok(self.u16_at(off)? as u32)
        } else {
            self.u32_at(off)
        }
    }
}

/// `count` values of `size` bytes from `at`: one IFD entry's values.
#[derive(Clone, Copy)]
struct Values {
    at: usize,
    size: usize,
    count: usize,
}

/// The scalar tags decoding reads, in the order [`decode`] keeps them.
const SCALAR_TAGS: [u16; 6] = [
    TAG_IMAGE_WIDTH,
    TAG_IMAGE_LENGTH,
    TAG_BITS_PER_SAMPLE,
    TAG_COMPRESSION,
    TAG_SAMPLES_PER_PIXEL,
    TAG_PHOTOMETRIC,
];

/// The memory of `px` as bytes.
fn bytes_mut(px: &mut [u16]) -> &mut [u8] {
    // SAFETY: a `u16` is two initialised bytes with no padding and any two
    // bytes are a `u16`, so `px`'s memory is `2 · len` writable bytes at
    // `u8` alignment, borrowed for as long as `px`
    unsafe { std::slice::from_raw_parts_mut(px.as_mut_ptr().cast(), px.len() * 2) }
}

/// Decodes a TIFF byte stream into a 16-bit grayscale image (8-bit files
/// are widened with their values preserved, not rescaled).
pub fn decode_tiff(bytes: &[u8]) -> Result<Image<u16>> {
    decode(None, bytes.len(), Cow::Borrowed(bytes))
}

/// The one decoder behind [`decode_tiff`] and [`read_tiff`]: a [`Reader`]
/// of `len` bytes, `file`-backed or all in `page`.
fn decode(file: Option<fs::File>, len: usize, page: Cow<[u8]>) -> Result<Image<u16>> {
    let mut cur = Reader {
        file,
        len,
        page,
        at: 0,
        big: false,
    };
    if len < 8 {
        return Err(ImageError::Format("shorter than TIFF header".into()));
    }
    cur.big = match &cur.bytes(0)? {
        b"II" => false,
        b"MM" => true,
        _ => return Err(ImageError::Format("bad byte-order mark".into())),
    };
    if cur.u16_at(2)? != 42 {
        return Err(ImageError::Format("bad magic (expected 42)".into()));
    }
    let ifd_off = cur.u32_at(4)? as usize;
    let n_entries = cur.u16_at(ifd_off)? as usize;
    // Nothing is reserved on a header's word: only the tags decoding reads
    // are kept, each the first time it appears (SHORT and LONG widened to
    // u32) — one value for a scalar, and for a strip table where its values
    // lie, once its last value (so every value) is found in the file.
    let mut scalars = [None; SCALAR_TAGS.len()];
    let mut strips: [Option<Values>; 2] = [None, None];
    for i in 0..n_entries {
        let e = ifd_off + 2 + i * 12;
        let tag = cur.u16_at(e)?;
        let typ = cur.u16_at(e + 2)?;
        let count = cur.u32_at(e + 4)? as usize;
        let size = match typ {
            TYPE_SHORT => 2usize,
            TYPE_LONG => 4usize,
            // other types (rationals etc.) are skipped — not needed for pixels
            _ => continue,
        };
        let inline = size.checked_mul(count).is_some_and(|total| total <= 4);
        let values = |cur: &mut Reader| -> Result<Values> {
            let at = if inline {
                e + 8
            } else {
                cur.u32_at(e + 8)? as usize
            };
            Ok(Values { at, size, count })
        };
        if let Some(slot) = SCALAR_TAGS.iter().position(|&t| t == tag) {
            if scalars[slot].is_none() && count > 0 {
                let values = values(&mut cur)?;
                scalars[slot] = Some(cur.value(values, 0)?);
            }
        } else if let TAG_STRIP_OFFSETS | TAG_STRIP_BYTE_COUNTS = tag {
            let table = &mut strips[(tag == TAG_STRIP_BYTE_COUNTS) as usize];
            if table.is_none() {
                let values = values(&mut cur)?;
                if let Some(last) = count.checked_sub(1) {
                    cur.value(values, last)?;
                }
                *table = Some(values);
            }
        }
    }
    let [width, height, bits, compression, spp, photometric] = scalars;
    let missing = |tag: u16| ImageError::Format(format!("missing tag {tag}"));
    let width = width.ok_or_else(|| missing(TAG_IMAGE_WIDTH))? as usize;
    let height = height.ok_or_else(|| missing(TAG_IMAGE_LENGTH))? as usize;
    let (bits, compression) = (bits.unwrap_or(1), compression.unwrap_or(1));
    let (spp, photometric) = (spp.unwrap_or(1), photometric.unwrap_or(1));
    if compression != 1 {
        return Err(ImageError::Unsupported(format!(
            "compression {compression}"
        )));
    }
    if spp != 1 {
        return Err(ImageError::Unsupported(format!("{spp} samples per pixel")));
    }
    if bits != 8 && bits != 16 {
        return Err(ImageError::Unsupported(format!("{bits} bits per sample")));
    }
    if photometric > 1 {
        return Err(ImageError::Unsupported(format!(
            "photometric {photometric}"
        )));
    }
    let [offsets, counts] = strips;
    let offsets = offsets.ok_or_else(|| ImageError::Format("no strip offsets".into()))?;
    let counts = counts.ok_or_else(|| ImageError::Format("no strip byte counts".into()))?;
    if offsets.count != counts.count {
        return Err(ImageError::Format(
            "strip offset/count length mismatch".into(),
        ));
    }

    let bytes_per_px = (bits / 8) as usize;
    // the pixels must be in the file: check before reserving for them
    let expected = width
        .checked_mul(height)
        .and_then(|px| px.checked_mul(bytes_per_px))
        .filter(|&n| n <= len)
        .ok_or_else(|| {
            ImageError::Format(format!(
                "pixel data truncated: {width}x{height} at {bits} bits in a {len}-byte file"
            ))
        })?;
    // Each strip is copied straight into the pixels' bytes, in table order:
    // strips may overlap or repeat, bytes past the image are not read, and a
    // strip may end in the middle of a sample — its odd byte pairs with the
    // next strip's first, as in the concatenated strips.
    let mut img = Image::new(width, height);
    let data = img.pixels_mut();
    let dst = &mut bytes_mut(data)[..expected];
    let mut filled = 0;
    for k in 0..offsets.count {
        let off = cur.value(offsets, k)? as usize;
        let cnt = cur.value(counts, k)? as usize;
        if off.checked_add(cnt).is_none_or(|end| end > len) {
            return Err(ImageError::Format("strip beyond end of file".into()));
        }
        let part = &mut dst[filled..filled + cnt.min(expected - filled)];
        match &cur.file {
            Some(file) => file.read_exact_at(part, off as u64)?,
            None => part.copy_from_slice(&cur.page[off..off + part.len()]),
        }
        filled += part.len();
    }
    if filled < expected {
        return Err(ImageError::Format(format!(
            "pixel data truncated: {filled} < {expected}"
        )));
    }
    if bits == 8 {
        // widen in place from the back: sample i's byte is byte i of the
        // buffer, inside sample i/2 ≤ i, which the walk down writes later
        for i in (0..data.len()).rev() {
            data[i] = u16::from(data[i / 2].to_ne_bytes()[i % 2]);
        }
    } else if cur.big != cfg!(target_endian = "big") {
        data.iter_mut().for_each(|px| *px = px.swap_bytes());
    }
    Ok(img)
}

/// Bytes of pixel data converted per `write` call.
pub(crate) const WRITE_BUF: usize = 64 << 10;

/// Writes `pixels` as two bytes each, `bytes` apart, converting through
/// one buffer of [`WRITE_BUF`] bytes: the body of both image writers.
/// `bytes` is inlined into the loop, so a byte order is a copy or a swap
/// per sample, not a call.
pub(crate) fn write_samples(
    out: &mut impl Write,
    pixels: &[u16],
    bytes: impl Fn(u16) -> [u8; 2],
) -> std::io::Result<()> {
    let mut buf = [0u8; WRITE_BUF];
    for chunk in pixels.chunks(WRITE_BUF / 2) {
        let part = &mut buf[..chunk.len() * 2];
        for (dst, &px) in part.chunks_exact_mut(2).zip(chunk) {
            dst.copy_from_slice(&bytes(px));
        }
        out.write_all(part)?;
    }
    Ok(())
}

/// Where a `width × height` single-strip 16-bit TIFF puts its parts: the
/// pixels right after the 8-byte header, the IFD right after them. As
/// `(strip byte count, IFD offset)`, or an error when either is past the
/// `u32` of a classic TIFF (a mosaic over 4 GiB) — written anyway, the
/// offsets would wrap and the file would lie about itself.
fn layout(width: usize, height: usize) -> Result<(u32, u32)> {
    let too_big = || {
        let what = format!("a {width}x{height} 16-bit TIFF needs offsets past 4 GiB");
        ImageError::Unsupported(what)
    };
    let pixel_bytes = width.checked_mul(height).and_then(|n| n.checked_mul(2));
    let ifd_off = pixel_bytes.and_then(|n| n.checked_add(8));
    let fits = |n: Option<usize>| n.and_then(|n| u32::try_from(n).ok()).ok_or_else(too_big);
    Ok((fits(pixel_bytes)?, fits(ifd_off)?))
}

/// Streams `img` as an uncompressed little-endian single-strip TIFF —
/// header, pixels, IFD — converting through one small buffer
/// ([`write_samples`]), so no second copy of the image is ever built.
/// Refuses what [`layout`] refuses before writing a byte.
pub fn write_to(out: &mut impl Write, img: &Image<u16>) -> Result<()> {
    let (w, h) = img.dims();
    let (pixel_bytes, ifd_off) = layout(w, h)?;
    let mut header = Vec::from(*b"II");
    header.extend_from_slice(&42u16.to_le_bytes());
    header.extend_from_slice(&ifd_off.to_le_bytes());
    out.write_all(&header)?;
    // pixel data (one strip), then the IFD; a little-endian host's pixels
    // already lie in memory as the file holds them
    if cfg!(target_endian = "little") {
        let px = img.pixels();
        // SAFETY: a `u16` is two initialised bytes with no padding, so the
        // slice's memory is `2 · len` readable bytes at `u8` alignment
        out.write_all(unsafe { std::slice::from_raw_parts(px.as_ptr().cast(), px.len() * 2) })?;
    } else {
        write_samples(out, img.pixels(), u16::to_le_bytes)?;
    }
    let n_tags = 9u16;
    let mut ifd = Vec::from(n_tags.to_le_bytes());
    let mut tag = |id: u16, typ: u16, count: u32, value: u32| {
        ifd.extend_from_slice(&id.to_le_bytes());
        ifd.extend_from_slice(&typ.to_le_bytes());
        ifd.extend_from_slice(&count.to_le_bytes());
        if typ == TYPE_SHORT && count == 1 {
            ifd.extend_from_slice(&(value as u16).to_le_bytes());
            ifd.extend_from_slice(&0u16.to_le_bytes());
        } else {
            ifd.extend_from_slice(&value.to_le_bytes());
        }
    };
    tag(TAG_IMAGE_WIDTH, TYPE_LONG, 1, w as u32);
    tag(TAG_IMAGE_LENGTH, TYPE_LONG, 1, h as u32);
    tag(TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, 16);
    tag(TAG_COMPRESSION, TYPE_SHORT, 1, 1);
    tag(TAG_PHOTOMETRIC, TYPE_SHORT, 1, 1); // BlackIsZero
    tag(TAG_STRIP_OFFSETS, TYPE_LONG, 1, 8);
    tag(TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, 1);
    tag(TAG_ROWS_PER_STRIP, TYPE_LONG, 1, h as u32);
    tag(TAG_STRIP_BYTE_COUNTS, TYPE_LONG, 1, pixel_bytes);
    ifd.extend_from_slice(&0u32.to_le_bytes()); // no next IFD
    out.write_all(&ifd)?;
    Ok(())
}

/// Reads a TIFF file from disk with positioned reads: the same decoder
/// and answers as [`decode_tiff`] on the file's bytes, with every strip
/// copied once, straight into the image.
pub fn read_tiff(path: impl AsRef<Path>) -> Result<Image<u16>> {
    let file = fs::File::open(path)?;
    // past `usize` the file holds every offset a decoder can ask for
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    decode(
        Some(file),
        len,
        Cow::Owned(Vec::with_capacity(PAGE.min(len))),
    )
}

/// Writes an image to disk as TIFF ([`write_to`]). An image whose file
/// would pass 4 GiB is refused before the file is created.
pub fn write_tiff(path: impl AsRef<Path>, img: &Image<u16>) -> Result<()> {
    layout(img.width(), img.height())?;
    write_to(&mut fs::File::create(path)?, img)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The TIFF bytes of `img`, in memory.
    fn encode_tiff(img: &Image<u16>) -> Vec<u8> {
        let mut out = Vec::new();
        write_to(&mut out, img).unwrap();
        out
    }

    /// A 46 341² mosaic's strip is 4 294 976 562 bytes, past `u32`: refused
    /// from its size alone. 46 340² still fits.
    #[test]
    fn a_layout_past_four_gib_is_refused() {
        let err = layout(46_341, 46_341).unwrap_err();
        assert!(err.to_string().contains("past 4 GiB"), "{err}");
        assert!(layout(1 << 16, 1 << 16).is_err() && layout(usize::MAX, 2).is_err());
        let bytes = 46_340u32 * 46_340 * 2;
        assert_eq!(layout(46_340, 46_340).unwrap(), (bytes, bytes + 8));
    }

    fn sample(w: usize, h: usize) -> Image<u16> {
        Image::from_fn(w, h, |x, y| ((x * 257 + y * 7919) % 65536) as u16)
    }

    #[test]
    fn round_trip() {
        for (w, h) in [(1usize, 1usize), (7, 3), (64, 48), (100, 1)] {
            let img = sample(w, h);
            let decoded = decode_tiff(&encode_tiff(&img)).unwrap();
            assert_eq!(img, decoded, "{w}x{h}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("stitch_tiff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tif");
        let img = sample(33, 21);
        write_tiff(&path, &img).unwrap();
        assert_eq!(read_tiff(&path).unwrap(), img);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode_tiff(b"not a tiff").is_err());
        assert!(decode_tiff(b"").is_err());
        assert!(decode_tiff(b"II\x2b\x00\x08\x00\x00\x00").is_err()); // magic 43 (BigTIFF)
    }

    #[test]
    fn rejects_truncated_pixels() {
        let img = sample(16, 16);
        let mut enc = encode_tiff(&img);
        // chop out some pixel bytes but keep the IFD intact by rebuilding:
        enc.truncate(8 + 16 * 16); // way less than needed, IFD gone
        assert!(decode_tiff(&enc).is_err());
    }

    #[test]
    fn big_endian_read() {
        // hand-built MM file: 2x1, 16-bit, pixels [0x1234, 0xABCD]
        let mut b = Vec::new();
        b.extend_from_slice(b"MM");
        b.extend_from_slice(&42u16.to_be_bytes());
        b.extend_from_slice(&12u32.to_be_bytes()); // IFD at 12
        b.extend_from_slice(&0x1234u16.to_be_bytes());
        b.extend_from_slice(&0xABCDu16.to_be_bytes());
        let tags: [(u16, u16, u32, u32); 7] = [
            (TAG_IMAGE_WIDTH, TYPE_LONG, 1, 2),
            (TAG_IMAGE_LENGTH, TYPE_LONG, 1, 1),
            (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, 16u32 << 16), // short packed in high half
            (TAG_COMPRESSION, TYPE_SHORT, 1, 1u32 << 16),
            (TAG_PHOTOMETRIC, TYPE_SHORT, 1, 1u32 << 16),
            (TAG_STRIP_OFFSETS, TYPE_LONG, 1, 8),
            (TAG_STRIP_BYTE_COUNTS, TYPE_LONG, 1, 4),
        ];
        b.extend_from_slice(&(tags.len() as u16).to_be_bytes());
        for (id, typ, count, value) in tags {
            b.extend_from_slice(&id.to_be_bytes());
            b.extend_from_slice(&typ.to_be_bytes());
            b.extend_from_slice(&count.to_be_bytes());
            b.extend_from_slice(&value.to_be_bytes());
        }
        b.extend_from_slice(&0u32.to_be_bytes());
        let img = decode_tiff(&b).unwrap();
        assert_eq!(img.dims(), (2, 1));
        assert_eq!(img.pixels(), &[0x1234, 0xABCD]);
    }

    /// Big-endian (`MM`) encoder mirroring [`encode_tiff`]'s layout —
    /// test-only, used to exercise the full BE decode path with arbitrary
    /// images rather than the two hand-written pixels above.
    fn encode_tiff_be(img: &Image<u16>) -> Vec<u8> {
        let (w, h) = img.dims();
        let pixel_bytes = w * h * 2;
        let ifd_off = 8 + pixel_bytes;
        let mut out = Vec::new();
        out.extend_from_slice(b"MM");
        out.extend_from_slice(&42u16.to_be_bytes());
        out.extend_from_slice(&(ifd_off as u32).to_be_bytes());
        for &px in img.pixels() {
            out.extend_from_slice(&px.to_be_bytes());
        }
        let tags: [(u16, u16, u32, u32); 9] = [
            (TAG_IMAGE_WIDTH, TYPE_LONG, 1, w as u32),
            (TAG_IMAGE_LENGTH, TYPE_LONG, 1, h as u32),
            // inline SHORT values sit in the *first* two bytes of the
            // big-endian value field, i.e. the high half of the u32
            (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, 16u32 << 16),
            (TAG_COMPRESSION, TYPE_SHORT, 1, 1u32 << 16),
            (TAG_PHOTOMETRIC, TYPE_SHORT, 1, 1u32 << 16),
            (TAG_STRIP_OFFSETS, TYPE_LONG, 1, 8),
            (TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, 1u32 << 16),
            (TAG_ROWS_PER_STRIP, TYPE_LONG, 1, h as u32),
            (TAG_STRIP_BYTE_COUNTS, TYPE_LONG, 1, pixel_bytes as u32),
        ];
        out.extend_from_slice(&(tags.len() as u16).to_be_bytes());
        for (id, typ, count, value) in tags {
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(&typ.to_be_bytes());
            out.extend_from_slice(&count.to_be_bytes());
            out.extend_from_slice(&value.to_be_bytes());
        }
        out.extend_from_slice(&0u32.to_be_bytes());
        out
    }

    #[test]
    fn big_endian_round_trip() {
        for (w, h) in [(1usize, 1usize), (7, 3), (64, 48), (100, 1)] {
            let img = sample(w, h);
            let decoded = decode_tiff(&encode_tiff_be(&img)).unwrap();
            assert_eq!(img, decoded, "{w}x{h}");
            // and the BE bytes decode to the same image as the LE bytes
            assert_eq!(decoded, decode_tiff(&encode_tiff(&img)).unwrap());
        }
    }

    #[test]
    fn rejects_header_truncations() {
        let enc = encode_tiff(&sample(4, 4));
        // every prefix shorter than the full file must error, never panic
        for len in [0, 1, 4, 7, 8, 9, 20] {
            assert!(decode_tiff(&enc[..len]).is_err(), "prefix len {len}");
        }
        // IFD offset pointing past the end of the file
        let mut bad = enc.clone();
        bad[4..8].copy_from_slice(&(enc.len() as u32).to_le_bytes());
        assert!(decode_tiff(&bad).is_err());
    }

    #[test]
    fn rejects_strip_beyond_eof() {
        let img = sample(8, 8);
        let mut enc = encode_tiff(&img);
        // entry 5 (0-based) is StripOffsets; point it past the file end
        let ifd = 8 + 8 * 8 * 2;
        let voff = ifd + 2 + 5 * 12 + 8;
        let past_end = (enc.len() as u32).to_le_bytes();
        enc[voff..voff + 4].copy_from_slice(&past_end);
        match decode_tiff(&enc) {
            Err(ImageError::Format(msg)) => assert!(msg.contains("strip"), "{msg}"),
            other => panic!("expected strip error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_short_strip() {
        let img = sample(8, 8);
        let mut enc = encode_tiff(&img);
        // entry 8 (0-based) is StripByteCounts; claim half the pixel data
        let ifd = 8 + 8 * 8 * 2;
        let voff = ifd + 2 + 8 * 12 + 8;
        enc[voff..voff + 4].copy_from_slice(&(8u32 * 8 * 2 / 2).to_le_bytes());
        match decode_tiff(&enc) {
            Err(ImageError::Format(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn eight_bit_widens() {
        // 2x1 8-bit LE file
        let mut b = Vec::new();
        b.extend_from_slice(b"II");
        b.extend_from_slice(&42u16.to_le_bytes());
        b.extend_from_slice(&10u32.to_le_bytes());
        b.extend_from_slice(&[200u8, 55u8]);
        let tags: [(u16, u16, u32, u32); 7] = [
            (TAG_IMAGE_WIDTH, TYPE_LONG, 1, 2),
            (TAG_IMAGE_LENGTH, TYPE_LONG, 1, 1),
            (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, 8),
            (TAG_COMPRESSION, TYPE_SHORT, 1, 1),
            (TAG_PHOTOMETRIC, TYPE_SHORT, 1, 1),
            (TAG_STRIP_OFFSETS, TYPE_LONG, 1, 8),
            (TAG_STRIP_BYTE_COUNTS, TYPE_LONG, 1, 2),
        ];
        b.extend_from_slice(&(tags.len() as u16).to_le_bytes());
        for (id, typ, count, value) in tags {
            b.extend_from_slice(&id.to_le_bytes());
            b.extend_from_slice(&typ.to_le_bytes());
            b.extend_from_slice(&count.to_le_bytes());
            if typ == TYPE_SHORT {
                b.extend_from_slice(&(value as u16).to_le_bytes());
                b.extend_from_slice(&0u16.to_le_bytes());
            } else {
                b.extend_from_slice(&value.to_le_bytes());
            }
        }
        b.extend_from_slice(&0u32.to_le_bytes());
        let img = decode_tiff(&b).unwrap();
        assert_eq!(img.pixels(), &[200, 55]);
    }

    /// A little- or big-endian file whose pixel bytes (`data`, at offset
    /// 8) are described by an arbitrary strip table.
    fn striped(
        big: bool,
        (w, h, bits): (u32, u32, u32),
        data: &[u8],
        strips: &[(u32, u32)],
    ) -> Vec<u8> {
        let u16b = |v: u16| {
            if big {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let u32b = |v: u32| {
            if big {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let n = strips.len() as u32;
        let tables = 8 + data.len() as u32;
        let ifd_off = tables + 8 * n;
        let mut b = Vec::new();
        b.extend_from_slice(if big { b"MM" } else { b"II" });
        b.extend_from_slice(&u16b(42));
        b.extend_from_slice(&u32b(ifd_off));
        b.extend_from_slice(data);
        for (off, _) in strips {
            b.extend_from_slice(&u32b(*off));
        }
        for (_, cnt) in strips {
            b.extend_from_slice(&u32b(*cnt));
        }
        // a one-entry table is stored inline, longer ones by offset
        let table = |at: u32, inline: u32| if n == 1 { inline } else { at };
        let tags = [
            (TAG_IMAGE_WIDTH, 1, w),
            (TAG_IMAGE_LENGTH, 1, h),
            (TAG_BITS_PER_SAMPLE, 1, bits),
            (TAG_STRIP_OFFSETS, n, table(tables, strips[0].0)),
            (TAG_STRIP_BYTE_COUNTS, n, table(tables + 4 * n, strips[0].1)),
        ];
        b.extend_from_slice(&u16b(tags.len() as u16));
        for (id, count, value) in tags {
            b.extend_from_slice(&u16b(id));
            b.extend_from_slice(&u16b(TYPE_LONG));
            b.extend_from_slice(&u32b(count));
            b.extend_from_slice(&u32b(value));
        }
        b.extend_from_slice(&u32b(0));
        b
    }

    /// The decoder this file had before strips were converted in place:
    /// concatenate the strips (clipped to the image), then convert.
    fn decode_by_concatenation(
        file: &[u8],
        big: bool,
        (w, h, bits): (u32, u32, u32),
        strips: &[(u32, u32)],
    ) -> std::result::Result<Vec<u16>, &'static str> {
        let expected = (w * h * bits / 8) as usize;
        let mut raw = Vec::new();
        for &(off, cnt) in strips {
            let strip = file
                .get(off as usize..off as usize + cnt as usize)
                .ok_or("strip beyond end of file")?;
            raw.extend_from_slice(&strip[..strip.len().min(expected - raw.len())]);
        }
        if raw.len() < expected {
            return Err("truncated");
        }
        Ok(match (bits, big) {
            (8, _) => raw.iter().map(|&b| b as u16).collect(),
            (_, true) => raw
                .chunks_exact(2)
                .map(|p| u16::from_be_bytes([p[0], p[1]]))
                .collect(),
            (_, false) => raw
                .chunks_exact(2)
                .map(|p| u16::from_le_bytes([p[0], p[1]]))
                .collect(),
        })
    }

    #[test]
    fn strip_tables_decode_like_concatenation() {
        // 5x3: 30 bytes at 16 bits, 15 at 8
        let data: Vec<u8> = (0..30u32).map(|i| (i * 37 + 11) as u8).collect();
        let tables: [&[(u32, u32)]; 9] = [
            &[(8, 30)],
            &[(8, 10), (18, 10), (28, 10)],      // one strip per row
            &[(8, 7), (15, 9), (24, 14)],        // samples split across strips
            &[(8, 1), (9, 0), (9, 2), (11, 27)], // odd byte kept over an empty strip
            &[(8, 20), (18, 20)],                // overlapping
            &[(8, 15), (8, 15)],                 // repeated
            &[(20, 18), (8, 12)],                // out of order
            &[(8, 30), (8, 30)],                 // more than the image: clipped
            &[(8, 13), (21, 5)],                 // too little: truncated
        ];
        for big in [false, true] {
            for bits in [16, 8] {
                for strips in tables {
                    let file = striped(big, (5, 3, bits), &data, strips);
                    let got = decode_tiff(&file);
                    match decode_by_concatenation(&file, big, (5, 3, bits), strips) {
                        Ok(px) => assert_eq!(got.unwrap().pixels(), px, "{strips:?} {bits}"),
                        Err(why) => match got {
                            Err(ImageError::Format(msg)) => assert!(msg.contains(why), "{msg}"),
                            other => panic!("{strips:?} {bits}: expected {why}, got {other:?}"),
                        },
                    }
                }
            }
        }
        // a strip past the end is an error even after the image is complete
        let file = striped(false, (5, 3, 16), &data, &[(8, 30), (4000, 2)]);
        assert!(matches!(decode_tiff(&file), Err(ImageError::Format(m)) if m.contains("strip")));
    }

    #[test]
    fn written_file_is_the_encoded_bytes() {
        let dir = std::env::temp_dir().join(format!("stitch_tiff_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // below, at and across the conversion buffer's size
        for (w, h) in [
            (1usize, 1usize),
            (WRITE_BUF / 2, 1),
            (WRITE_BUF / 2 + 1, 3),
            (333, 257),
        ] {
            let img = sample(w, h);
            let path = dir.join("s.tif");
            write_tiff(&path, &img).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), encode_tiff(&img), "{w}x{h}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_compressed() {
        let img = sample(4, 4);
        let mut enc = encode_tiff(&img);
        // flip the compression tag value (tag table starts after pixels)
        let ifd = 8 + 4 * 4 * 2;
        // entry 3 (0-based) is compression; value field at ifd+2+3*12+8
        let voff = ifd + 2 + 3 * 12 + 8;
        enc[voff] = 5; // LZW
        assert!(matches!(decode_tiff(&enc), Err(ImageError::Unsupported(_))));
    }
}
