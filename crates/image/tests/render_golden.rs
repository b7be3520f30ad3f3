//! Golden digests of the synthetic acquisition. Every benchmark dataset,
//! every daemon job's tiles and every test plate come out of
//! `Scene::render_region_plane`, so its bytes are pinned here: the values
//! were taken from the build before the renderer hoisted its per-column
//! and per-row factors (the channel-replay stack's, before it culled the
//! cells that cannot reach a pixel), and must never move. The CI
//! `backends` job pins the same renderer at the file level — `stitch
//! generate` on four configurations against `golden/generate.sha256`
//! beside this file.

use stitch_image::{Fnv64, Image, MultiChannelPlate, MultiScanConfig, ScanConfig, SyntheticPlate};

fn digest<'a>(tiles: impl IntoIterator<Item = &'a Image<u16>>) -> u64 {
    let mut h = Fnv64::new();
    for t in tiles {
        h.write_u64(t.width() as u64);
        h.write_u64(t.height() as u64);
        h.write_u16s(t.pixels());
    }
    h.finish()
}

#[test]
fn paper_size_tile_is_pinned() {
    // `paper_tile`'s scan: 1392×1040 at 10 %, noise 50, vignette 0.03
    let plate = SyntheticPlate::generate(ScanConfig {
        grid_rows: 3,
        grid_cols: 3,
        tile_width: 1392,
        tile_height: 1040,
        overlap: 0.10,
        stage_jitter: 3.0,
        backlash_x: 1.5,
        noise_sigma: 50.0,
        vignette: 0.03,
        seed: 2014,
    });
    let tile = plate.render_tile(1, 1);
    assert_eq!(
        digest([&tile]),
        0x5b85_75f2_b9e3_9fc1,
        "paper-size tile (1,1)"
    );
}

#[test]
fn serve_mix_plate_is_pinned() {
    // a `serve_mix` job's plate: `grid=4x6 tile=64x48`, the job defaults
    let plate = SyntheticPlate::generate(ScanConfig::for_grid(4, 6, 64, 48, 0.10, 7));
    let tiles: Vec<_> = (0..4)
        .flat_map(|r| (0..6).map(move |c| (r, c)))
        .map(|(r, c)| plate.render_tile(r, c))
        .collect();
    assert_eq!(
        digest(&tiles),
        0xe1b0_fd08_7579_cbc5,
        "4x6 plate of 64x48 tiles"
    );
}

#[test]
fn vignetted_channel_stack_is_pinned() {
    // `channel_replay`'s optics (vignette 0.3, growing per channel) on a
    // 2-channel × 3-plane stack: defocus and the vignette both render
    let base = ScanConfig {
        vignette: 0.3,
        ..ScanConfig::for_grid(2, 3, 96, 72, 0.15, 5)
    };
    let plate = MultiChannelPlate::generate(MultiScanConfig::for_channels(base, 2, 3));
    let mut tiles = Vec::new();
    for ch in 0..2 {
        for z in 0..3 {
            for r in 0..2 {
                for c in 0..3 {
                    tiles.push(plate.render_tile(ch, z, r, c));
                }
            }
        }
    }
    assert_eq!(
        digest(&tiles),
        0xdb7b_dd8e_4675_ff56,
        "2 channels x 3 planes"
    );
}

#[test]
fn channel_replay_stack_is_pinned() {
    // `channel_replay`'s tile, overlap, optics and stack (3 channels × 6
    // planes, vignette 0.3, noise 50) on a 2×2 grid: the deepest defocus
    // any benchmark renders
    let base = ScanConfig {
        vignette: 0.3,
        noise_sigma: 50.0,
        ..ScanConfig::for_grid(2, 2, 232, 174, 0.15, 2014)
    };
    let plate = MultiChannelPlate::generate(MultiScanConfig::for_channels(base, 3, 6));
    let mut tiles = Vec::new();
    for ch in 0..3 {
        for z in 0..6 {
            for r in 0..2 {
                for c in 0..2 {
                    tiles.push(plate.render_tile(ch, z, r, c));
                }
            }
        }
    }
    assert_eq!(
        digest(&tiles),
        0xb17c_b856_0cae_6096,
        "3 channels x 6 planes of 232x174"
    );
}
