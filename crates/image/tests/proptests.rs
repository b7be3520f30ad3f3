//! Property-based tests for the image substrate: codec round trips over
//! arbitrary images, the TIFF reader's two stores against each other, and
//! scene-rendering invariants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use proptest::prelude::*;
use stitch_image::{pgm, tiff, Image, ScanConfig, Scene, SceneParams, SyntheticPlate};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest single request.
struct NoteLargest;

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: delegates verbatim to `System`; the note is allocation-free
// (const-initialised TLS without a destructor).
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: NoteLargest = NoteLargest;

/// `f`'s result and the largest single allocation it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

prop_compose! {
    fn arb_image()(w in 1usize..48, h in 1usize..48, seed in any::<u64>()) -> Image<u16> {
        Image::from_fn(w, h, |x, y| {
            let v = (x as u64 + 131 * y as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed);
            (v >> 32) as u16
        })
    }
}

/// The bytes `write` streams for `img`, in memory.
fn encode<E: std::fmt::Debug>(
    write: fn(&mut Vec<u8>, &Image<u16>) -> Result<(), E>,
    img: &Image<u16>,
) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut out, img).unwrap();
    out
}

/// A TIFF of `data` at offset 8 whose pixels are the strips `(offset,
/// byte count)`: width and height as LONGs, bits per sample as a SHORT,
/// strip offsets as LONGs and the byte counts as SHORTs when `short`, each
/// table inline when it fits in four bytes, in either byte order.
fn striped_tiff(
    big: bool,
    short: bool,
    (w, h, bits): (u32, u32, u32),
    data: &[u8],
    strips: &[(u32, u32)],
) -> Vec<u8> {
    let u16b = |v: u32| {
        if big {
            (v as u16).to_be_bytes()
        } else {
            (v as u16).to_le_bytes()
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
    let count_size = if short { 2 } else { 4 };
    let offsets_at = 8 + data.len() as u32;
    let counts_at = offsets_at + 4 * n;
    let ifd_off = counts_at + count_size * n;
    let mut b = Vec::new();
    b.extend_from_slice(if big { b"MM" } else { b"II" });
    b.extend_from_slice(&u16b(42));
    b.extend_from_slice(&u32b(ifd_off));
    b.extend_from_slice(data);
    strips
        .iter()
        .for_each(|&(off, _)| b.extend_from_slice(&u32b(off)));
    for &(_, cnt) in strips {
        match short {
            true => b.extend_from_slice(&u16b(cnt)),
            false => b.extend_from_slice(&u32b(cnt)),
        }
    }
    // a value field holds its values left-justified
    let field = |typ: u16, count: u32, at: u32, values: &[u32]| -> [u8; 4] {
        let size = if typ == 3 { 2 } else { 4 };
        if size * count > 4 {
            return u32b(at);
        }
        let mut f = [0u8; 4];
        for (k, &v) in values.iter().enumerate() {
            match typ {
                3 => f[2 * k..2 * k + 2].copy_from_slice(&u16b(v)),
                _ => f.copy_from_slice(&u32b(v)),
            }
        }
        f
    };
    let offsets: Vec<u32> = strips.iter().map(|s| s.0).collect();
    let counts: Vec<u32> = strips.iter().map(|s| s.1).collect();
    let count_type = if short { 3 } else { 4 };
    let tags = [
        (256u16, 4u16, 1, field(4, 1, 0, &[w])),
        (257, 4, 1, field(4, 1, 0, &[h])),
        (258, 3, 1, field(3, 1, 0, &[bits])),
        (273, 4, n, field(4, n, offsets_at, &offsets)),
        (279, count_type, n, field(count_type, n, counts_at, &counts)),
    ];
    b.extend_from_slice(&u16b(tags.len() as u32));
    for (tag, typ, count, value) in tags {
        b.extend_from_slice(&u16b(tag as u32));
        b.extend_from_slice(&u16b(typ as u32));
        b.extend_from_slice(&u32b(count));
        b.extend_from_slice(&value);
    }
    b.extend_from_slice(&u32b(0));
    b
}

/// The pixels of [`striped_tiff`]'s file by the definition: its strips
/// concatenated in table order and clipped to the image, then read as
/// samples of the file's byte order.
fn concatenated(
    file: &[u8],
    big: bool,
    (w, h, bits): (u32, u32, u32),
    strips: &[(u32, u32)],
) -> Result<Image<u16>, String> {
    let expected = (w * h * bits / 8) as usize;
    let mut raw = Vec::new();
    for &(off, cnt) in strips {
        let strip = (file.get(off as usize..(off + cnt) as usize))
            .ok_or("malformed image: strip beyond end of file")?;
        raw.extend_from_slice(&strip[..strip.len().min(expected - raw.len())]);
    }
    if raw.len() < expected {
        let why = format!(
            "malformed image: pixel data truncated: {} < {expected}",
            raw.len()
        );
        return Err(why);
    }
    let px = match (bits, big) {
        (8, _) => raw.iter().map(|&b| b as u16).collect(),
        (_, true) => raw
            .chunks_exact(2)
            .map(|p| u16::from_be_bytes([p[0], p[1]]))
            .collect(),
        (_, false) => raw
            .chunks_exact(2)
            .map(|p| u16::from_le_bytes([p[0], p[1]]))
            .collect(),
    };
    Ok(Image::from_vec(w as usize, h as usize, px))
}

/// `read_tiff` on the file at `path`, which holds `bytes`, and
/// `decode_tiff` on `bytes`: the one answer both give (the image, or the
/// error's message). Neither makes an allocation larger than twice the
/// file (an 8-bit file's samples widen to two bytes) or a short error
/// string.
fn one_answer(path: &Path, bytes: &[u8]) -> (Result<Image<u16>, String>, usize) {
    let (from_file, file_peak) = largest_allocation(|| tiff::read_tiff(path));
    let (from_bytes, bytes_peak) = largest_allocation(|| tiff::decode_tiff(bytes));
    let (from_file, from_bytes) = (
        from_file.map_err(|e| e.to_string()),
        from_bytes.map_err(|e| e.to_string()),
    );
    assert_eq!(from_file, from_bytes, "{} bytes", bytes.len());
    let peak = file_peak.max(bytes_peak);
    assert!(
        peak <= (2 * bytes.len()).max(256),
        "{peak} B for {} B",
        bytes.len()
    );
    (from_file, peak)
}

prop_compose! {
    /// A striped TIFF, its geometry and strip table: the pixel bytes (a
    /// little short of the image or past it), in half the files behind
    /// 4–9 KB of other bytes (so a file reader's page is reloaded, forward
    /// and back), cut at random points (odd-length strips), some strips
    /// swapped (out of order), one maybe repeated, one maybe anywhere in
    /// or past the file.
    fn arb_striped()(
        w in 1u32..12,
        h in 1u32..12,
        eight in any::<bool>(),
        big in any::<bool>(),
        short in any::<bool>(),
        extra in 0u32..6,
        lead in (any::<bool>(), 4000u32..9000),
        cuts in collection::vec(0u32..1000, 0..5),
        swaps in collection::vec((0usize..8, 0usize..8), 0..3),
        repeat in 0usize..12,
        stray in (0u32..400, 0u32..40, any::<bool>()),
        seed in any::<u64>(),
    ) -> (Vec<u8>, bool, (u32, u32, u32), Vec<(u32, u32)>) {
        let bits = if eight { 8 } else { 16 };
        // up to two bytes short of the image (truncated) or four past it
        let span = (w * h * bits / 8 + extra).saturating_sub(2);
        let lead = if lead.0 { lead.1 } else { 0 };
        let data: Vec<u8> = (0..(lead + span) as u64 + 16)
            .map(|i| (i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let mut ends: Vec<u32> = cuts.iter().map(|c| c % (span + 1)).chain([0, span]).collect();
        ends.sort_unstable();
        let at = 8 + lead;
        let mut strips: Vec<(u32, u32)> = ends.windows(2).map(|e| (at + e[0], e[1] - e[0])).collect();
        for (i, j) in swaps {
            let n = strips.len();
            strips.swap(i % n, j % n);
        }
        if repeat < strips.len() {
            strips.insert(repeat, strips[repeat]);
        }
        if stray.2 {
            strips.push((stray.0 * (lead + 400) / 400, stray.1));
        }
        let file = striped_tiff(big, short, (w, h, bits), &data, &strips);
        (file, big, (w, h, bits), strips)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `read_tiff` and `decode_tiff` are one decoder: on a striped file,
    /// every truncation of it and byte flips in it they give the same image
    /// or the same error. The whole file decodes to its concatenated
    /// strips, and a 16-bit one with no allocation larger than the file.
    #[test]
    fn reader_stores_agree(
        striped in arb_striped(),
        flips in collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let (file, big, geometry, strips) = striped;
        let dir = std::env::temp_dir().join(format!("stitch_reader_parity_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tif");
        std::fs::write(&path, &file).unwrap();
        let (whole, peak) = one_answer(&path, &file);
        prop_assert_eq!(&whole, &concatenated(&file, big, geometry, &strips));
        if geometry.2 == 16 {
            prop_assert!(peak <= file.len().max(256), "{} B for {} B", peak, file.len());
        }
        let truncated = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for cut in (0..file.len()).rev() {
            truncated.set_len(cut as u64).unwrap();
            let _ = one_answer(&path, &file[..cut]);
        }
        let mut flipped = file.clone();
        for (at, bits) in flips {
            let n = flipped.len();
            flipped[at % n] ^= bits;
        }
        std::fs::write(&path, &flipped).unwrap();
        let _ = one_answer(&path, &flipped);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// TIFF encode→decode is the identity for any 16-bit image.
    #[test]
    fn tiff_round_trip(img in arb_image()) {
        prop_assert_eq!(tiff::decode_tiff(&encode(tiff::write_to, &img)).unwrap(), img);
    }

    /// PGM encode→decode is the identity for any 16-bit image.
    #[test]
    fn pgm_round_trip(img in arb_image()) {
        prop_assert_eq!(pgm::decode_pgm(&encode(pgm::write_to, &img)).unwrap(), img);
    }

    /// Truncated TIFF streams never decode successfully (and never panic).
    #[test]
    fn tiff_truncation_fails_cleanly(img in arb_image(), cut_fraction in 0.05f64..0.95) {
        let enc = encode(tiff::write_to, &img);
        let cut = ((enc.len() as f64) * cut_fraction) as usize;
        prop_assert!(tiff::decode_tiff(&enc[..cut]).is_err());
    }

    /// Crop is consistent with direct indexing for any in-bounds window.
    #[test]
    fn crop_matches_indexing(img in arb_image(), fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let (w, h) = img.dims();
        let x0 = ((w - 1) as f64 * fx) as usize;
        let y0 = ((h - 1) as f64 * fy) as usize;
        let cw = w - x0;
        let ch = h - y0;
        let c = img.crop(x0, y0, cw, ch);
        for y in 0..ch {
            for x in 0..cw {
                prop_assert_eq!(c.get(x, y), img.get(x0 + x, y0 + y));
            }
        }
    }

    /// Scene rendering is translation-consistent: rendering a window at
    /// (x+dx, y+dy) equals the shifted window of a larger render.
    #[test]
    fn scene_translation_consistency(dx in 0usize..20, dy in 0usize..16, seed in 0u64..1000) {
        let scene = Scene::generate(128.0, 128.0, SceneParams { seed, ..SceneParams::default() });
        let big = scene.render_region(10.0, 10.0, 40, 32, 0.0, 0.0, 0);
        let small = scene.render_region((10 + dx) as f64, (10 + dy) as f64, 16, 12, 0.0, 0.0, 0);
        for y in 0..12 {
            for x in 0..16 {
                prop_assert_eq!(small.get(x, y), big.get(x + dx, y + dy));
            }
        }
    }

    /// Ground-truth displacements always keep adjacent tiles overlapping
    /// (the geometric precondition of stitching).
    #[test]
    fn scan_keeps_neighbors_overlapping(seed in 0u64..500, overlap in 0.15f64..0.4) {
        let cfg = ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 64,
            tile_height: 48,
            overlap,
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 0.0,
            vignette: 0.0,
            seed,
        };
        let plate = SyntheticPlate::generate(cfg.clone());
        for r in 0..3 {
            for c in 1..4 {
                let (dx, dy) = plate.true_west_displacement(r, c);
                prop_assert!(dx > 0 && dx < 64, "dx={}", dx);
                prop_assert!(dy.abs() < 48, "dy={}", dy);
            }
        }
        for r in 1..3 {
            for c in 0..4 {
                let (dx, dy) = plate.true_north_displacement(r, c);
                prop_assert!(dy > 0 && dy < 48, "dy={}", dy);
                prop_assert!(dx.abs() < 64, "dx={}", dx);
            }
        }
    }

    /// Manifest write → load round trip preserves geometry and truth.
    #[test]
    fn manifest_round_trip(seed in 0u64..100) {
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 2,
            tile_width: 16,
            tile_height: 12,
            seed,
            ..ScanConfig::default()
        };
        let plate = SyntheticPlate::generate(cfg);
        let dir = std::env::temp_dir().join(format!("stitch_prop_manifest_{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        plate.write_to_dir(&dir).unwrap();
        let m = stitch_image::GridManifest::load(&dir).unwrap();
        prop_assert_eq!((m.rows, m.cols), (2, 2));
        for r in 0..2 {
            for c in 0..2 {
                prop_assert_eq!(m.truth[r * 2 + c], plate.true_position(r, c));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
