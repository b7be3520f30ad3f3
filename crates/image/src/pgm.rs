//! PGM (portable graymap) codec — quick human-viewable output for the
//! composed plate images (Figs 13/14) without any external viewer plugins.
//! Binary `P5` with 8- or 16-bit samples (16-bit is big-endian per spec).

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::error::{ImageError, Result};
use crate::image::Image;
use crate::tiff::write_samples;

/// Streams `img` as binary PGM (`P5`, maxval 65535): the header, then the
/// big-endian samples through one small buffer, so no second copy of the
/// image is ever built.
pub fn write_to(out: &mut impl Write, img: &Image<u16>) -> Result<()> {
    let (w, h) = img.dims();
    write!(out, "P5\n{w} {h}\n65535\n")?;
    Ok(write_samples(out, img.pixels(), u16::to_be_bytes)?)
}

/// Decodes a binary PGM (`P5`) with maxval ≤ 65535.
pub fn decode_pgm(bytes: &[u8]) -> Result<Image<u16>> {
    let mut pos = 0usize;
    let mut token = |bytes: &[u8]| -> Result<String> {
        // skip whitespace and `#` comments
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(ImageError::Format("unexpected end of PGM header".into()));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };
    let magic = token(bytes)?;
    if magic != "P5" {
        return Err(ImageError::Unsupported(format!("PGM magic {magic}")));
    }
    let parse = |s: String| -> Result<usize> {
        s.parse()
            .map_err(|_| ImageError::Format(format!("bad PGM header number: {s}")))
    };
    let w = parse(token(bytes)?)?;
    let h = parse(token(bytes)?)?;
    let maxval = parse(token(bytes)?)?;
    if maxval == 0 || maxval > 65535 {
        return Err(ImageError::Unsupported(format!("maxval {maxval}")));
    }
    pos += 1; // single whitespace after maxval
    let two_byte = maxval > 255;
    let raw = w
        .checked_mul(h)
        .and_then(|px| px.checked_mul(if two_byte { 2 } else { 1 }))
        .and_then(|need| pos.checked_add(need))
        .and_then(|end| bytes.get(pos..end))
        .ok_or_else(|| ImageError::Format("PGM pixel data truncated".into()))?;
    let data: Vec<u16> = if two_byte {
        raw.chunks_exact(2)
            .map(|p| u16::from_be_bytes([p[0], p[1]]))
            .collect()
    } else {
        raw.iter().map(|&b| b as u16).collect()
    };
    Ok(Image::from_vec(w, h, data))
}

/// Writes an image to disk as binary PGM ([`write_to`]).
pub fn write_pgm(path: impl AsRef<Path>, img: &Image<u16>) -> Result<()> {
    write_to(&mut fs::File::create(path)?, img)
}

/// Reads a binary PGM from disk.
pub fn read_pgm(path: impl AsRef<Path>) -> Result<Image<u16>> {
    decode_pgm(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiff::WRITE_BUF;

    /// The PGM bytes of `img`, in memory.
    fn encode_pgm(img: &Image<u16>) -> Vec<u8> {
        let mut out = Vec::new();
        write_to(&mut out, img).unwrap();
        out
    }

    #[test]
    fn round_trip() {
        let img = Image::from_fn(9, 5, |x, y| ((x + 1) * (y + 3) * 999 % 65536) as u16);
        assert_eq!(decode_pgm(&encode_pgm(&img)).unwrap(), img);
    }

    #[test]
    fn eight_bit_read() {
        let bytes = b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff";
        let img = decode_pgm(bytes).unwrap();
        assert_eq!(img.pixels(), &[0, 64, 128, 255]);
    }

    #[test]
    fn rejects_ascii_pgm() {
        assert!(decode_pgm(b"P2\n1 1\n255\n7\n").is_err());
    }

    #[test]
    fn round_trip_across_the_conversion_buffer() {
        // below, at and across the conversion buffer's size
        for (w, h) in [(1usize, 1usize), (WRITE_BUF / 2, 1), (WRITE_BUF / 2 + 1, 3)] {
            let img = Image::from_fn(w, h, |x, y| (x * 31 + y * 977) as u16);
            assert_eq!(decode_pgm(&encode_pgm(&img)).unwrap(), img, "{w}x{h}");
        }
    }

    #[test]
    fn rejects_truncation() {
        let img = Image::from_fn(8, 8, |x, _| x as u16);
        let mut enc = encode_pgm(&img);
        enc.truncate(enc.len() - 3);
        assert!(decode_pgm(&enc).is_err());
    }
}
