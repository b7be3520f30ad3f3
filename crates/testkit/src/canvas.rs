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
    pyramid, Blend, FailurePolicy, GridShape, MosaicSpec, SimpleCpuStitcher, TileId, TileSource,
};
use stitch_image::Fnv64;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cases::SweepCase;
use crate::outputs::{diff_pixels, Outputs, Report};

/// Seeded Fisher-Yates over the grid's row-major id list.
fn shuffled_ids(shape: GridShape, rng: &mut StdRng) -> Vec<TileId> {
    let mut ids: Vec<TileId> = shape.ids().collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        ids.swap(i, j);
    }
    ids
}

/// The canvas batteries' plate: the sweep's imaging conditions on a
/// `rows×cols` grid of `w×h` tiles.
fn plate(rows: usize, cols: usize, (w, h): (usize, usize), seed: u64) -> SweepCase {
    SweepCase {
        rows,
        cols,
        tile_width: w,
        tile_height: h,
        overlap: 0.25,
        noise_sigma: 40.0,
        seed,
    }
}

/// Runs the incremental-vs-one-shot differential: every blend mode
/// (plus a border-highlight case) under a seeded-random arrival order
/// with a mid-run solve cadence that forces at least one re-anchor.
/// Pure in `seed`: the same seed always yields the same report digest.
pub fn run_canvas_differential(seed: u64) -> Report {
    let specs: [(Blend, bool, &str); 5] = [
        (Blend::Overlay, false, "overlay"),
        (Blend::First, false, "first"),
        (Blend::Average, false, "average"),
        (Blend::Linear, false, "linear"),
        (Blend::Overlay, true, "overlay+highlight"),
    ];
    let mut report = Report::new(format!("canvas differential, seed {seed}"), ());
    let mut digest = Fnv64::new();

    for (case, &(blend, highlight, name)) in specs.iter().enumerate() {
        let label = format!("{name} seed={seed}");
        report.ran.push(label.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ (0xca9 + case as u64));
        let source = plate(3, 3, (40, 32), seed ^ (0x6c1 + case as u64)).source();
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
        let policy = FailurePolicy::default();
        let out = match run_incremental(&source, order, cfg, Arc::clone(&canvas), &policy) {
            Ok(out) => out,
            Err(e) => {
                report.record(&label, [format!("incremental run failed: {e}")]);
                continue;
            }
        };
        let proof = "no mid-run re-anchor happened (case proves nothing)";
        report.record(&label, (out.moved == 0).then(|| proof.to_string()));

        // the one-shot oracle over the same plate, at every pyramid scale
        let spec = MosaicSpec {
            blend,
            highlight,
            ..crate::overlay()
        };
        let one_shot = crate::reference_pass(&SimpleCpuStitcher::default(), &source, Some(spec));
        let levels = pyramid(
            one_shot.mosaic.clone().expect("composed"),
            canvas.max_scale(),
        );
        let read = |scale: usize| {
            let (w, h) = levels[scale].dims();
            canvas.get_region(scale, 0, 0, w, h)
        };
        let incremental = Outputs {
            result: out.result,
            positions: out.positions,
            mosaic: Some(read(0)),
        };
        report.record(&label, incremental.diff(&one_shot));
        incremental.digest(&mut digest);
        for (scale, level) in levels.iter().enumerate().skip(1) {
            let got = read(scale);
            let diff = diff_pixels(level, &got).map(|d| format!("scale {scale}: {d}"));
            report.record(&label, diff);
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
        let peak = canvas.stats().peak_chunk_bytes;
        let over = format!("peak chunk bytes {peak} exceed the read-footprint bound {bound}");
        report.record(&label, (peak > bound).then_some(over));
    }
    report.digest = digest.finish();
    report
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
        let source = plate(rows, cols, (tw, th), seed ^ (0x9e37 + i as u64)).source();
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
