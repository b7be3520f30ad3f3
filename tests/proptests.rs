//! Workspace-level property tests: invariants that span crates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stitching::core::grid::{GridShape, Traversal};
use stitching::core::pairgraph::PairLedger;
use stitching::core::pciam::{ccf_at, overlap_pixels, peak_candidates};
use stitching::core::prelude::*;
use stitching::core::stitcher::StitchResult;
use stitching::image::{
    FlatFieldEstimator, Image, MultiChannelPlate, MultiScanConfig, ScanConfig, Scene, SceneParams,
    SyntheticPlate,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every traversal visits every tile of any grid exactly once.
    #[test]
    fn traversals_are_permutations(rows in 1usize..12, cols in 1usize..12) {
        let shape = GridShape::new(rows, cols);
        for t in Traversal::ALL {
            let order = t.order(shape);
            prop_assert_eq!(order.len(), shape.tiles());
            let mut seen = vec![false; shape.tiles()];
            for id in order {
                let i = shape.index(id);
                prop_assert!(!seen[i], "{:?} revisits {:?}", t, id);
                seen[i] = true;
            }
        }
    }

    /// Chained-diagonal's live window never exceeds 2·min_dim + 2.
    #[test]
    fn chained_diagonal_window_bound(rows in 1usize..14, cols in 1usize..14) {
        let shape = GridShape::new(rows, cols);
        let peak = Traversal::ChainedDiagonal.peak_live(shape);
        prop_assert!(peak <= 2 * rows.min(cols) + 2, "peak {} for {}x{}", peak, rows, cols);
    }

    /// The four peak candidates are exactly the signed residues of the
    /// peak modulo the tile size.
    #[test]
    fn peak_candidates_are_residues(w in 2usize..64, h in 2usize..64, idx_seed in 0usize..10_000) {
        let idx = idx_seed % (w * h);
        for (dx, dy) in peak_candidates(idx, (w, h), 1) {
            prop_assert_eq!(dx.rem_euclid(w as i64), (idx % w) as i64);
            prop_assert_eq!(dy.rem_euclid(h as i64), (idx / w) as i64);
            // |x − w| == w exactly when the residue is zero
            prop_assert!(dx.abs() <= w as i64 && dy.abs() <= h as i64);
        }
    }

    /// CCF is symmetric: ccf(a, b, d) == ccf(b, a, −d).
    #[test]
    fn ccf_symmetry(dx in -20i64..20, dy in -14i64..14, seed in 0u64..500) {
        let scene = Scene::generate(96.0, 96.0, SceneParams { seed, ..SceneParams::default() });
        let a = scene.render_region(8.0, 8.0, 24, 16, 0.0, 0.0, 1);
        let b = scene.render_region(20.0, 12.0, 24, 16, 0.0, 0.0, 2);
        let fwd = ccf_at(&a, &b, dx, dy);
        let rev = ccf_at(&b, &a, -dx, -dy);
        match (fwd, rev) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric availability {:?}", other),
        }
    }

    /// CCF is invariant under affine intensity changes of either tile.
    #[test]
    fn ccf_affine_invariance(gain_num in 2u32..6, offset in 0u16..500) {
        let a = Image::from_fn(16, 12, |x, y| ((x * 31 + y * 17) % 199) as u16 + 100);
        let b = Image::from_fn(16, 12, |x, y| ((x * 13 + y * 41) % 173) as u16 + 80);
        let scaled = b.map(|v| v * gain_num as u16 + offset);
        let c1 = ccf_at(&a, &b, 3, 2).unwrap();
        let c2 = ccf_at(&a, &scaled, 3, 2).unwrap();
        prop_assert!((c1 - c2).abs() < 1e-9, "{} vs {}", c1, c2);
    }

    /// overlap_pixels is symmetric in sign and bounded by the tile area.
    #[test]
    fn overlap_pixels_properties(w in 1usize..64, h in 1usize..64, dx in -70i64..70, dy in -70i64..70) {
        let n = overlap_pixels(w, h, dx, dy);
        prop_assert_eq!(n, overlap_pixels(w, h, -dx, -dy));
        prop_assert!(n >= 0 && n <= (w * h) as i64);
        if dx == 0 && dy == 0 {
            prop_assert_eq!(n, (w * h) as i64);
        }
    }

    /// Global optimization is exact on any consistent displacement system
    /// (path invariance): positions derived from a random truth raster are
    /// recovered up to the gauge.
    #[test]
    fn global_opt_path_invariance(
        rows in 1usize..5,
        cols in 1usize..5,
        step_x in 30i64..60,
        step_y in 25i64..50,
        seed in 0u64..1000,
    ) {
        let shape = GridShape::new(rows, cols);
        let truth: Vec<(i64, i64)> = shape
            .ids()
            .map(|id| {
                let r = (seed.wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((id.row * 31 + id.col * 7) as u64) >> 20) % 7;
                (id.col as i64 * step_x + r as i64 - 3, id.row as i64 * step_y + (r as i64 % 3))
            })
            .collect();
        let mut result = StitchResult::empty(shape);
        for id in shape.ids() {
            let i = shape.index(id);
            if let Some(west) = shape.west(id) {
                let (x0, y0) = truth[shape.index(west)];
                let (x1, y1) = truth[i];
                result.west[i] = Some(Displacement::new(x1 - x0, y1 - y0, 0.9));
            }
            if let Some(north) = shape.north(id) {
                let (x0, y0) = truth[shape.index(north)];
                let (x1, y1) = truth[i];
                result.north[i] = Some(Displacement::new(x1 - x0, y1 - y0, 0.9));
            }
        }
        for method in [Method::SpanningTree, Method::LeastSquares] {
            let opt = GlobalOptimizer { method };
            let sol = opt.solve(&result);
            prop_assert_eq!(sol.max_deviation(&truth), (0, 0), "{:?}", method);
        }
    }

    /// Tiled rendering of a volumetric scene equals the whole-region
    /// render, for every focal plane: region rasterization is a pure
    /// function of absolute plate coordinates. (Vignette and noise are
    /// excluded by design — the first is tile-fixed, the second
    /// per-exposure, so neither can tile.)
    #[test]
    fn volume_render_region_tiles_exactly(seed in 0u64..200, plane in 0usize..3) {
        let scene = Scene::generate_volume(
            96.0,
            72.0,
            SceneParams { seed, ..SceneParams::default() },
            3,
            0.35,
        );
        let plane = plane as f64;
        let whole = scene.render_region_plane(6.0, 4.0, 40, 24, plane, 0.0, 0.0, 0);
        let left = scene.render_region_plane(6.0, 4.0, 20, 24, plane, 0.0, 0.0, 0);
        let right = scene.render_region_plane(26.0, 4.0, 20, 24, plane, 0.0, 0.0, 0);
        for y in 0..24usize {
            for x in 0..40usize {
                let tiled = if x < 20 { left.get(x, y) } else { right.get(x - 20, y) };
                prop_assert_eq!(whole.get(x, y), tiled, "at ({}, {})", x, y);
            }
        }
    }

    /// The flat-field estimate of an un-vignetted plate is the *exact*
    /// identity (the flatness prior snaps near-flat fits to zero), and
    /// applying it returns every tile bit-for-bit.
    #[test]
    fn flatfield_of_unvignetted_plate_is_identity(seed in 0u64..100) {
        let base = ScanConfig {
            grid_rows: 3,
            grid_cols: 3,
            tile_width: 48,
            tile_height: 36,
            vignette: 0.0,
            seed,
            ..ScanConfig::default()
        };
        let mut cfg = MultiScanConfig::for_channels(base, 2, 2);
        for ch in &mut cfg.channels {
            ch.vignette = 0.0;
            // Sparse bright-background scenes: the per-pixel minimum then
            // tracks the (flat) background instead of scene structure.
            ch.scene.colony_count = 3;
            ch.scene.texture_amplitude = 60.0;
            ch.scene.background = 10_000.0;
            ch.scene.illumination_amplitude = 0.0;
            ch.noise_sigma = 20.0;
        }
        let plate = MultiChannelPlate::generate(cfg);
        for ch in 0..plate.channels() {
            let mut est = FlatFieldEstimator::new(48, 36);
            for z in 0..plate.z_planes() {
                for r in 0..3 {
                    for c in 0..3 {
                        est.add(&plate.render_tile(ch, z, r, c));
                    }
                }
            }
            let flat = est.finish();
            prop_assert!(flat.is_identity(), "channel {} falloff {}", ch, flat.falloff());
            let tile = plate.render_tile(ch, 0, 1, 1);
            prop_assert_eq!(&flat.apply(&tile), &tile, "apply must be bit-exact");
        }
    }

    /// Seeded multi-channel generation is deterministic: the same config
    /// reproduces positions and every (channel, plane) tile bit-for-bit,
    /// and all channels share one set of stage positions.
    #[test]
    fn multichannel_generation_is_deterministic(seed in 0u64..200) {
        let cfg = MultiScanConfig::for_channels(
            ScanConfig {
                grid_rows: 2,
                grid_cols: 2,
                tile_width: 32,
                tile_height: 24,
                seed,
                ..ScanConfig::default()
            },
            2,
            2,
        );
        let a = MultiChannelPlate::generate(cfg.clone());
        let b = MultiChannelPlate::generate(cfg);
        prop_assert_eq!(a.positions(), b.positions());
        for ch in 0..2usize {
            for z in 0..2usize {
                prop_assert_eq!(
                    &a.render_tile(ch, z, 1, 1),
                    &b.render_tile(ch, z, 1, 1),
                    "channel {} plane {}", ch, z
                );
            }
        }
    }

    /// Composition with Overlay blend never invents pixel values: every
    /// mosaic pixel is either 0 (uncovered) or present in some tile.
    #[test]
    fn overlay_pixels_come_from_tiles(seed in 0u64..200) {
        let shape = GridShape::new(1, 2);
        let a = Image::from_fn(8, 6, |x, y| ((x + y) as u64 * 37 % 997) as u16 + 1);
        let b = Image::from_fn(8, 6, |x, y| ((x * y) as u64 * 53 % 991) as u16 + 1);
        let src = MemorySource::new(shape, vec![a.clone(), b.clone()]);
        let dx = 3 + (seed % 5) as i64;
        let positions = AbsolutePositions { shape, positions: vec![(0, 0), (dx, 1)] };
        let mosaic = Composer::new(positions, Blend::Overlay).compose(&src);
        for y in 0..mosaic.height() {
            for x in 0..mosaic.width() {
                let v = mosaic.get(x, y);
                if v != 0 {
                    let in_a = a.pixels().contains(&v);
                    let in_b = b.pixels().contains(&v);
                    prop_assert!(in_a || in_b, "pixel {} at ({},{})", v, x, y);
                }
            }
        }
    }
}

/// One random walk of a [`PairLedger`]: the tiles the ledger expects, in
/// a seeded shuffle, each arriving or (about one in five) failing.
struct LedgerWalk {
    shape: GridShape,
    /// `owned[index(b)]`: the ledger owns the pairs whose second tile is `b`.
    owned: Vec<bool>,
    /// `(tile, failed)` in walk order.
    steps: Vec<(TileId, bool)>,
}

impl LedgerWalk {
    /// `band == 0` owns every pair; otherwise the columns are split into
    /// `band + 1` bands and the walk covers the one picked by the seed.
    fn new(rows: usize, cols: usize, band: usize, seed: u64) -> LedgerWalk {
        let shape = GridShape::new(rows, cols);
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = if band == 0 {
            (0, cols)
        } else {
            let parts = (band + 1).min(cols);
            let pick = rng.gen_range(0..parts);
            (pick * cols / parts, (pick + 1) * cols / parts)
        };
        let owned: Vec<bool> = shape.ids().map(|b| (lo..hi).contains(&b.col)).collect();
        // expected: owned tiles plus the first tile of every owned pair
        let mut tiles: Vec<TileId> = shape
            .ids()
            .filter(|&id| {
                owned[shape.index(id)]
                    || shape.east(id).is_some_and(|e| owned[shape.index(e)])
                    || shape.south(id).is_some_and(|s| owned[shape.index(s)])
            })
            .collect();
        for i in (1..tiles.len()).rev() {
            tiles.swap(i, rng.gen_range(0..=i));
        }
        let steps = tiles
            .into_iter()
            .map(|id| (id, rng.gen_range(0..5) == 0))
            .collect();
        LedgerWalk {
            shape,
            owned,
            steps,
        }
    }

    fn ledger<T>(&self) -> PairLedger<T> {
        let (shape, owned) = (self.shape, self.owned.clone());
        PairLedger::with_owner(shape, move |b| owned[shape.index(b)])
    }

    /// Every owned pair as `(a, b, kind)`, enumerated from the second
    /// tile — independently of `GridShape::pairs_of`.
    fn owned_pairs(&self) -> Vec<(TileId, TileId, PairKind)> {
        let mut out = Vec::new();
        for b in self
            .shape
            .ids()
            .filter(|&b| self.owned[self.shape.index(b)])
        {
            if b.col > 0 {
                out.push((TileId::new(b.row, b.col - 1), b, PairKind::West));
            }
            if b.row > 0 {
                out.push((TileId::new(b.row - 1, b.col), b, PairKind::North));
            }
        }
        out
    }

    /// Step at which `id` arrives or fails.
    fn time(&self, id: TileId) -> usize {
        self.steps
            .iter()
            .position(|&(t, _)| t == id)
            .expect("expected tile")
    }

    fn failed(&self, id: TileId) -> bool {
        self.steps[self.time(id)].1
    }

    /// Model of residency, stated without reference counts: after step
    /// `s` completes, an arrived tile is still held iff one of its owned
    /// pairs has an endpoint that arrives or fails later than `s`.
    fn held_after(&self, s: usize) -> usize {
        let pairs = self.owned_pairs();
        self.steps[..=s]
            .iter()
            .filter(|&&(t, failed)| {
                !failed
                    && pairs.iter().any(|&(a, b, _)| {
                        (a == t && self.time(b) > s) || (b == t && self.time(a) > s)
                    })
            })
            .count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §IV-A rule as the ledger must implement it, for any shape
    /// (1×1, 1×N and N×1 included), arrival order, failed set and
    /// optional column-band ownership: every owned pair with two arrived
    /// endpoints is emitted exactly once in canonical form, no pair with
    /// a failed endpoint is emitted, residency follows the model at every
    /// step, and the ledger ends drained.
    #[test]
    fn pair_ledger_follows_the_lifetime_rule(
        rows in 1usize..7,
        cols in 1usize..7,
        band in 0usize..4,
        seed in any::<u64>(),
    ) {
        let walk = LedgerWalk::new(rows, cols, band, seed);
        let shape = walk.shape;
        let mut ledger: PairLedger<TileId> = walk.ledger();
        let mut emitted: Vec<(TileId, TileId, PairKind)> = Vec::new();
        let mut peak = 0;
        for (s, &(id, failed)) in walk.steps.iter().enumerate() {
            prop_assert!(!ledger.is_drained(), "drained with {:?} still to come", id);
            if failed {
                ledger.fail(id);
            } else {
                let before = emitted.len();
                ledger.arrive(id, id, |&a, &b, kind, slot| {
                    assert_eq!(slot, shape.index(b), "slot is the second tile's index");
                    emitted.push((a, b, kind));
                });
                // measured after the arrival, before its pairs complete:
                // the newcomer plus everything held after the last step
                let held_before = if s == 0 { 0 } else { walk.held_after(s - 1) };
                peak = peak.max(held_before + 1);
                for &(a, b, _) in &emitted[before..] {
                    prop_assert!(a == id || b == id, "pair {:?}-{:?} not completed by {:?}", a, b, id);
                }
            }
            prop_assert_eq!(ledger.live(), walk.held_after(s), "step {} ({:?})", s, id);
        }
        let mut want: Vec<_> = walk
            .owned_pairs()
            .into_iter()
            .filter(|&(a, b, _)| !walk.failed(a) && !walk.failed(b))
            .collect();
        let key = |p: &(TileId, TileId, PairKind)| (p.1, p.2 == PairKind::North);
        want.sort_by_key(key);
        emitted.sort_by_key(key);
        prop_assert_eq!(emitted, want);
        prop_assert!(ledger.is_drained());
        prop_assert_eq!(ledger.live(), 0);
        prop_assert_eq!(ledger.peak_live(), peak);
    }
}

/// `Traversal::peak_live` is a `PairLedger<()>` walked over the order;
/// these are the values its own counting loop produced before the ledger
/// existed (orders as in `Traversal::ALL`: row, column, diagonal,
/// chained-diagonal, chained-row), and the sequential stitcher — the same
/// ledger holding real transforms — reports the same number.
#[test]
fn ledger_peaks_match_the_pinned_traversal_values() {
    for ((rows, cols), want) in [
        ((1, 1), [1, 1, 1, 1, 1]),
        ((1, 10), [2, 2, 2, 2, 2]),
        ((10, 1), [2, 2, 2, 2, 2]),
        ((3, 3), [4, 4, 4, 4, 4]),
        ((4, 6), [7, 5, 6, 6, 7]),
        ((6, 3), [4, 7, 4, 5, 4]),
        ((8, 12), [13, 9, 10, 10, 13]),
        ((42, 59), [60, 43, 44, 44, 60]),
    ] {
        let shape = GridShape::new(rows, cols);
        let got = Traversal::ALL.map(|t| t.peak_live(shape));
        assert_eq!(got, want, "{rows}x{cols}");
    }
    let source = SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
        grid_rows: 4,
        grid_cols: 6,
        tile_width: 32,
        tile_height: 24,
        ..ScanConfig::default()
    }));
    for t in Traversal::ALL {
        let result = SimpleCpuStitcher::new(t, stitching::fft::PlanMode::Estimate)
            .compute_displacements(&source);
        assert_eq!(result.peak_live_tiles, t.peak_live(source.shape()), "{t:?}");
    }
}
