//! Property-based tests for the image substrate: codec round trips over
//! arbitrary images and scene-rendering invariants.

use proptest::prelude::*;
use stitch_image::{pgm, tiff, Image, ScanConfig, Scene, SceneParams, SyntheticPlate};

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
