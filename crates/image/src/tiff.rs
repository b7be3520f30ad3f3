//! Minimal TIFF 6.0 baseline codec for grayscale microscopy tiles.
//!
//! Stands in for libTIFF in the paper's stack (§IV-A: "reads images using
//! libTIFF4"). Supported subset — exactly what microscope cameras emit:
//! single-image files, uncompressed, 8- or 16-bit grayscale, strip layout,
//! either byte order on read (always little-endian on write).

use std::fs;
use std::io::Write;
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

#[derive(Clone, Copy, PartialEq)]
enum ByteOrder {
    Little,
    Big,
}

impl ByteOrder {
    fn sample(self, b: [u8; 2]) -> u16 {
        match self {
            ByteOrder::Little => u16::from_le_bytes(b),
            ByteOrder::Big => u16::from_be_bytes(b),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    order: ByteOrder,
}

impl<'a> Cursor<'a> {
    fn u16_at(&self, off: usize) -> Result<u16> {
        let b = self
            .bytes
            .get(off..)
            .and_then(|b| b.get(..2))
            .ok_or_else(|| ImageError::Format("truncated file".into()))?;
        Ok(self.order.sample([b[0], b[1]]))
    }

    fn u32_at(&self, off: usize) -> Result<u32> {
        let b = self
            .bytes
            .get(off..)
            .and_then(|b| b.get(..4))
            .ok_or_else(|| ImageError::Format("truncated file".into()))?;
        Ok(match self.order {
            ByteOrder::Little => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            ByteOrder::Big => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        })
    }
}

/// The scalar tags decoding reads, in the order [`decode_tiff`] keeps them.
const SCALAR_TAGS: [u16; 6] = [
    TAG_IMAGE_WIDTH,
    TAG_IMAGE_LENGTH,
    TAG_BITS_PER_SAMPLE,
    TAG_COMPRESSION,
    TAG_SAMPLES_PER_PIXEL,
    TAG_PHOTOMETRIC,
];

/// Decodes a TIFF byte stream into a 16-bit grayscale image (8-bit files
/// are widened with their values preserved, not rescaled).
pub fn decode_tiff(bytes: &[u8]) -> Result<Image<u16>> {
    if bytes.len() < 8 {
        return Err(ImageError::Format("shorter than TIFF header".into()));
    }
    let order = match &bytes[0..2] {
        b"II" => ByteOrder::Little,
        b"MM" => ByteOrder::Big,
        _ => return Err(ImageError::Format("bad byte-order mark".into())),
    };
    let cur = Cursor { bytes, order };
    if cur.u16_at(2)? != 42 {
        return Err(ImageError::Format("bad magic (expected 42)".into()));
    }
    let ifd_off = cur.u32_at(4)? as usize;
    let n_entries = cur.u16_at(ifd_off)? as usize;
    // Nothing is reserved on a header's word: only the tags decoding reads
    // are kept, each the first time it appears (SHORT and LONG widened to
    // u32) — one value for a scalar, and a strip table grown value by value
    // as it is read, so a lying count runs into the end of the file, not
    // into the allocator.
    let mut scalars = [None; SCALAR_TAGS.len()];
    let mut strips: [Option<Vec<u32>>; 2] = [None, None];
    for i in 0..n_entries {
        let e = ifd_off + 2 + i * 12;
        let tag = cur.u16_at(e)?;
        let typ = cur.u16_at(e + 2)?;
        let count = cur.u32_at(e + 4)? as usize;
        let elem_size = match typ {
            TYPE_SHORT => 2usize,
            TYPE_LONG => 4usize,
            // other types (rationals etc.) are skipped — not needed for pixels
            _ => continue,
        };
        let inline = elem_size.checked_mul(count).is_some_and(|total| total <= 4);
        let value_at = |k: usize| -> Result<u32> {
            let val_off = if inline {
                e + 8
            } else {
                cur.u32_at(e + 8)? as usize
            };
            if elem_size == 2 {
                Ok(cur.u16_at(val_off + 2 * k)? as u32)
            } else {
                cur.u32_at(val_off + 4 * k)
            }
        };
        if let Some(slot) = SCALAR_TAGS.iter().position(|&t| t == tag) {
            if scalars[slot].is_none() && count > 0 {
                scalars[slot] = Some(value_at(0)?);
            }
        } else if let TAG_STRIP_OFFSETS | TAG_STRIP_BYTE_COUNTS = tag {
            let table = &mut strips[(tag == TAG_STRIP_BYTE_COUNTS) as usize];
            if table.is_none() {
                let mut values = Vec::new();
                for k in 0..count {
                    values.push(value_at(k)?);
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
    if offsets.len() != counts.len() {
        return Err(ImageError::Format(
            "strip offset/count length mismatch".into(),
        ));
    }

    let bytes_per_px = (bits / 8) as usize;
    // the pixels must be in the file: check before reserving for them
    let expected = width
        .checked_mul(height)
        .and_then(|px| px.checked_mul(bytes_per_px))
        .filter(|&n| n <= bytes.len())
        .ok_or_else(|| {
            ImageError::Format(format!(
                "pixel data truncated: {width}x{height} at {bits} bits in a {}-byte file",
                bytes.len()
            ))
        })?;
    // One pass from the file's bytes to pixels. Strips may overlap or
    // repeat, bytes past the image are not read, and a strip may end in the
    // middle of a sample: the odd byte pairs with the next strip's first.
    let mut data = Vec::with_capacity(width * height);
    let mut wanted = expected;
    let mut odd: Option<u8> = None;
    for (&off, &cnt) in offsets.iter().zip(&counts) {
        let off = off as usize;
        let strip = off
            .checked_add(cnt as usize)
            .and_then(|end| bytes.get(off..end))
            .ok_or_else(|| ImageError::Format("strip beyond end of file".into()))?;
        let mut strip = &strip[..strip.len().min(wanted)];
        wanted -= strip.len();
        if bits == 8 {
            data.extend(strip.iter().map(|&b| b as u16));
            continue;
        }
        if let (Some(first), [second, rest @ ..]) = (odd, strip) {
            data.push(order.sample([first, *second]));
            (odd, strip) = (None, rest);
        }
        if odd.is_none() {
            let pairs = strip.chunks_exact(2);
            odd = pairs.remainder().first().copied();
            match order {
                ByteOrder::Little => data.extend(pairs.map(|p| u16::from_le_bytes([p[0], p[1]]))),
                ByteOrder::Big => data.extend(pairs.map(|p| u16::from_be_bytes([p[0], p[1]]))),
            }
        }
    }
    if wanted > 0 {
        return Err(ImageError::Format(format!(
            "pixel data truncated: {} < {expected}",
            expected - wanted
        )));
    }
    Ok(Image::from_vec(width, height, data))
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

/// Reads a TIFF file from disk.
pub fn read_tiff(path: impl AsRef<Path>) -> Result<Image<u16>> {
    decode_tiff(&fs::read(path)?)
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
