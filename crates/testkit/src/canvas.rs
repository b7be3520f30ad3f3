//! Incremental-canvas conformance: the differential oracle and the
//! seeded stress harness for `stitch-canvas`.
//!
//! The oracle's claim is the tentpole guarantee of the incremental
//! path: feeding tiles in **any** arrival order through
//! [`run_incremental`] — with mid-run solves re-anchoring already
//! placed tiles — must leave the pyramid canvas **bit identical**, at
//! every scale, to the one-shot oracle (batch stitch → global solve →
//! [`Composer`] compose → [`pyramid`] downsample), for every blend
//! mode and with tile-border highlighting on or off. Alongside, the
//! canvas's peak resident bytes must be bounded by the chunks the
//! reads actually touched, not by mosaic area.

use std::sync::Arc;

use stitch_canvas::{run_incremental, CanvasConfig, IncrementalConfig, SharedCanvas};
use stitch_core::{
    pyramid, Blend, FailurePolicy, GridShape, MosaicSpec, SimpleCpuStitcher, SyntheticSource,
    TileId, TileSource,
};
use stitch_image::{Fnv64, ScanConfig, SyntheticPlate};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One incremental-vs-one-shot disagreement.
#[derive(Clone, Debug)]
pub struct CanvasMismatch {
    /// Which case disagreed.
    pub label: String,
    /// What disagreed and how.
    pub detail: String,
}

/// What [`run_canvas_differential`] observed.
#[derive(Clone, Debug)]
pub struct CanvasReport {
    /// Cases run.
    pub cases: usize,
    /// Disagreements (empty on a clean run).
    pub mismatches: Vec<CanvasMismatch>,
    /// FNV digest of every case's per-scale pixels — pure in the seed,
    /// for determinism assertions.
    pub digest: u64,
}

impl CanvasReport {
    /// True when every case was bit-identical.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Seeded Fisher-Yates over the grid's row-major id list.
fn shuffled_ids(shape: GridShape, rng: &mut StdRng) -> Vec<TileId> {
    let mut ids: Vec<TileId> = shape.ids().collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        ids.swap(i, j);
    }
    ids
}

fn scan_for(seed: u64, case: u64) -> ScanConfig {
    ScanConfig {
        grid_rows: 3,
        grid_cols: 3,
        tile_width: 40,
        tile_height: 32,
        overlap: 0.25,
        stage_jitter: 2.0,
        backlash_x: 1.0,
        noise_sigma: 40.0,
        vignette: 0.03,
        seed: seed ^ (0x6c1 + case),
    }
}

/// Runs the incremental-vs-one-shot differential: every blend mode
/// (plus a border-highlight case) under a seeded-random arrival order
/// with a mid-run solve cadence that forces at least one re-anchor.
/// Pure in `seed`: the same seed always yields the same report digest.
pub fn run_canvas_differential(seed: u64) -> CanvasReport {
    let specs: [(Blend, bool, &str); 5] = [
        (Blend::Overlay, false, "overlay"),
        (Blend::First, false, "first"),
        (Blend::Average, false, "average"),
        (Blend::Linear, false, "linear"),
        (Blend::Overlay, true, "overlay+highlight"),
    ];
    let mut mismatches = Vec::new();
    let mut digest = Fnv64::new();

    for (case, &(blend, highlight, name)) in specs.iter().enumerate() {
        let label = format!("{name} seed={seed}");
        let mut rng = StdRng::seed_from_u64(seed ^ (0xca9 + case as u64));
        let source = SyntheticSource::new(SyntheticPlate::generate(scan_for(seed, case as u64)));
        let order = shuffled_ids(source.shape(), &mut rng);

        // chunk=64 straddles both tile and mosaic boundaries; solving
        // every 3 arrivals forces re-anchors while tiles keep landing
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig {
            chunk: 64,
            blend,
            highlight_tiles: highlight,
            ..CanvasConfig::default()
        }));
        let cfg = IncrementalConfig { solve_every: 3 };
        let out = match run_incremental(
            &source,
            order.iter().copied(),
            cfg,
            Arc::clone(&canvas),
            &FailurePolicy::default(),
        ) {
            Ok(out) => out,
            Err(e) => {
                mismatches.push(CanvasMismatch {
                    label,
                    detail: format!("incremental run failed: {e}"),
                });
                continue;
            }
        };
        if out.moved == 0 {
            mismatches.push(CanvasMismatch {
                label: label.clone(),
                detail: "no mid-run re-anchor happened (case proves nothing)".into(),
            });
        }

        // the one-shot oracle over the same plate
        let spec = MosaicSpec {
            blend,
            highlight,
            ..crate::overlay()
        };
        let (_, positions, mosaic) =
            crate::reference_pass(&SimpleCpuStitcher::default(), &source, Some(spec));
        if positions != out.positions {
            mismatches.push(CanvasMismatch {
                label: label.clone(),
                detail: "incremental final solve differs from batch solve".into(),
            });
        }
        let mosaic = mosaic.expect("composed");
        let levels = pyramid(mosaic, canvas.max_scale());

        for (scale, level) in levels.iter().enumerate() {
            let got = canvas.get_region(scale, 0, 0, level.width(), level.height());
            if got.pixels() != level.pixels() {
                let diff = got
                    .pixels()
                    .iter()
                    .zip(level.pixels())
                    .filter(|(a, b)| a != b)
                    .count();
                mismatches.push(CanvasMismatch {
                    label: label.clone(),
                    detail: format!("scale {scale}: {diff} pixels differ from oracle pyramid"),
                });
            }
            digest.write_u16s(got.pixels());
        }

        // Peak residency bound: the reads above touch at most the
        // chunk grid covering each pyramid level (one slack chunk per
        // axis for pre-solve nominal placements that later re-anchor).
        let chunk = 64usize;
        let bound: usize = levels
            .iter()
            .map(|level| {
                (level.width().div_ceil(chunk) + 1)
                    * (level.height().div_ceil(chunk) + 1)
                    * chunk
                    * chunk
                    * 2
            })
            .sum();
        let stats = canvas.stats();
        if stats.peak_chunk_bytes > bound {
            mismatches.push(CanvasMismatch {
                label: label.clone(),
                detail: format!(
                    "peak chunk bytes {} exceed the read-footprint bound {bound}",
                    stats.peak_chunk_bytes
                ),
            });
        }
    }

    CanvasReport {
        cases: specs.len(),
        mismatches,
        digest: digest.finish(),
    }
}

/// What [`run_canvas_stress`] observed across its iterations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanvasStressOutcome {
    /// The driving seed.
    pub seed: u64,
    /// Iterations run.
    pub iterations: usize,
    /// One deterministic fate string per iteration.
    pub fates: Vec<String>,
    /// FNV digest over fates and sampled region pixels — pure in `seed`.
    pub digest: u64,
}

/// Runs a seeded batch of randomized incremental runs: random grid and
/// tile geometry, random chunk sizes (including ones misaligned with
/// everything), random solve cadence (including solve-only-at-finish),
/// random arrival order, then random region reads at random scales and
/// offsets — including regions hanging off the canvas into the signed
/// plane — and an occasional reset that must leave the canvas truly
/// empty. Fates and digest are pure in `seed`.
pub fn run_canvas_stress(seed: u64) -> CanvasStressOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca57);
    let iterations = 4usize;
    let mut fates = Vec::with_capacity(iterations);
    let mut digest = Fnv64::new();

    for i in 0..iterations {
        let rows = rng.gen_range(2usize..=3);
        let cols = rng.gen_range(2usize..=3);
        let (tw, th) = [(32, 24), (40, 32), (48, 36)][rng.gen_range(0usize..3)];
        let chunk = [16usize, 33, 64][rng.gen_range(0usize..3)];
        let blend =
            [Blend::Overlay, Blend::First, Blend::Average, Blend::Linear][rng.gen_range(0usize..4)];
        let solve_every = [0usize, 1, 2, 4][rng.gen_range(0usize..4)];
        let scan = ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: tw,
            tile_height: th,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: seed ^ (0x9e37 + i as u64),
        };
        let source = SyntheticSource::new(SyntheticPlate::generate(scan));
        let order = shuffled_ids(source.shape(), &mut rng);
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig {
            chunk,
            blend,
            ..CanvasConfig::default()
        }));
        let cfg = IncrementalConfig { solve_every };
        let out = run_incremental(
            &source,
            order.iter().copied(),
            cfg,
            Arc::clone(&canvas),
            &FailurePolicy::default(),
        )
        .expect("clean plates stitch");

        let (mw, mh) = out.positions.mosaic_dims(tw, th);
        for _ in 0..3 {
            let scale = rng.gen_range(0usize..=canvas.max_scale());
            let x = rng.gen_range(-20i64..(mw as i64));
            let y = rng.gen_range(-20i64..(mh as i64));
            let w = rng.gen_range(1usize..=50);
            let h = rng.gen_range(1usize..=50);
            let img = canvas.get_region(scale, x, y, w, h);
            digest.write_u16s(img.pixels());
        }
        let stats = canvas.stats();
        let reset = rng.gen_range(0u32..3) == 0;
        let mut fate = format!(
            "iter{i} {rows}x{cols} {tw}x{th} chunk={chunk} {blend:?} solve_every={solve_every}: \
             placed={} solves={} moved={} live={}",
            out.placed, out.solves, out.moved, stats.live_chunks
        );
        if reset {
            canvas.reset();
            let after = canvas.stats();
            let blank = canvas.get_region(0, 0, 0, mw.min(64), mh.min(64));
            let clean = after.live_chunks == 0
                && after.placements == 0
                && blank.pixels().iter().all(|&p| p == 0);
            fate.push_str(if clean {
                " reset=clean"
            } else {
                " reset=DIRTY"
            });
        }
        digest.write(fate.as_bytes());
        fates.push(fate);
    }

    CanvasStressOutcome {
        seed,
        iterations,
        fates,
        digest: digest.finish(),
    }
}
