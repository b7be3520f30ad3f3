//! The five workloads: their fixed sizes, how their inputs are generated
//! from the seed, and one complete end-to-end pass of each through the
//! same public entry points the `stitch` CLI uses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stitch_canvas::{CanvasConfig, SharedCanvas};
use stitch_core::{
    run_channel_plan, AbsolutePositions, Blend, ChannelPlan, ChannelSession, Composer, DirSource,
    FailurePolicy, GlobalOptimizer, GridShape, MultiDirSource, MultiTileSource,
    PipelinedCpuStitcher, SourceError, StitchResult, Stitcher, TileId, TileSource,
};
use stitch_image::{
    pgm, tiff, ChannelConfig, Image, MultiChannelPlate, MultiScanConfig, ScanConfig, SceneParams,
    SyntheticPlate,
};
use stitch_sched::JobVariant;
use stitch_shard::{stitch_sharded_into_canvas, ShardConfig};

use crate::spans;

/// Compute threads every workload is held to.
pub const THREADS: usize = 2;
/// Pixel rows per composition band on the sharded path.
pub const BAND_ROWS: usize = 64;
/// Pyramid scale of the sharded workload's overview output.
pub const OVERVIEW_SCALE: usize = 3;
/// Distinct plates the serve workload's jobs cycle through.
pub const SERVE_PLATES: usize = 75;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperTile,
    DenseGrid,
    ShardCanvas,
    ChannelReplay,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperTile,
        Workload::DenseGrid,
        Workload::ShardCanvas,
        Workload::ChannelReplay,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTile => "paper_tile",
            Workload::DenseGrid => "dense_grid",
            Workload::ShardCanvas => "shard_canvas",
            Workload::ChannelReplay => "channel_replay",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperTile => {
                "3x3 grid of the paper's 1392x1040 tiles at 10% overlap: non-power-of-two 2-D \
                 FFTs are half of kernel time and the 11 Mpx mosaic makes compose + write visible"
            }
            Workload::DenseGrid => {
                "28x40 grid of 96x72 tiles, 2172 pairs of ~1 ms: CCF disambiguation and \
                 per-pair hand-offs dominate, FFT is about a third, I/O is negligible"
            }
            Workload::ShardCanvas => {
                "12x16 grid stitched in sixteen 3x4-tile shards into the pyramid canvas: seam \
                 re-registration, banded compose, bake and read-back instead of the whole-grid path"
            }
            Workload::ChannelReplay => {
                "5x6 grid of 232x174 tiles, 3 channels x 6 planes = 540 TIFFs: one registration \
                 replayed over 18 units, so read, flat-field, compose and write outweigh the kernel"
            }
            Workload::ServeMix => {
                "300 small preview jobs through the daemon, closed loop of 4 outstanding with \
                 region reads beside the writers: admission, queueing and canvas latency"
            }
        }
    }
}

/// Everything that fixes a workload's size.
#[derive(Clone, Debug)]
pub struct Spec {
    pub rows: usize,
    pub cols: usize,
    pub tile_w: usize,
    pub tile_h: usize,
    pub overlap: f64,
    pub vignette: f64,
    /// `channel_replay`: channels × focal planes (1 × 1 elsewhere).
    pub channels: usize,
    pub z_planes: usize,
    /// `shard_canvas`: tile rows × columns per shard.
    pub shard: (usize, usize),
    /// `serve_mix`: jobs submitted, of which the first `discard` are the
    /// daemon's warm-up and are not counted.
    pub jobs: usize,
    pub discard: usize,
    /// Untimed passes before timing starts.
    pub warmups: usize,
    /// Fewest timed passes, however short `--seconds` is.
    pub min_passes: usize,
}

impl Spec {
    /// Full sizes, or the toy sizes `--smoke` runs.
    pub fn of(w: Workload, smoke: bool) -> Spec {
        let base = Spec {
            rows: 0,
            cols: 0,
            tile_w: 0,
            tile_h: 0,
            overlap: 0.10,
            vignette: 0.03,
            channels: 1,
            z_planes: 1,
            shard: (0, 0),
            jobs: 0,
            discard: 0,
            warmups: 1,
            min_passes: if smoke { 2 } else { 5 },
        };
        let grid = |rows, cols, tile_w, tile_h, overlap| Spec {
            rows,
            cols,
            tile_w,
            tile_h,
            overlap,
            ..base.clone()
        };
        match (w, smoke) {
            // the paper's tile size and overlap: 1392 = 2^4*3*29 and
            // 1040 = 2^4*5*13 are not powers of two
            (Workload::PaperTile, false) => grid(3, 3, 1392, 1040, 0.10),
            (Workload::PaperTile, true) => grid(2, 2, 174, 130, 0.10),
            (Workload::DenseGrid, false) => Spec {
                warmups: 2,
                ..grid(28, 40, 96, 72, 0.25)
            },
            (Workload::DenseGrid, true) => grid(6, 8, 96, 72, 0.25),
            (Workload::ShardCanvas, false) => Spec {
                shard: (3, 4),
                ..grid(12, 16, 256, 192, 0.15)
            },
            (Workload::ShardCanvas, true) => Spec {
                shard: (2, 3),
                ..grid(4, 6, 96, 72, 0.25)
            },
            (Workload::ChannelReplay, false) => Spec {
                channels: 3,
                z_planes: 6,
                vignette: 0.3,
                ..grid(5, 6, 232, 174, 0.15)
            },
            (Workload::ChannelReplay, true) => Spec {
                channels: 2,
                z_planes: 2,
                vignette: 0.3,
                ..grid(2, 3, 96, 72, 0.25)
            },
            (Workload::ServeMix, false) => Spec {
                jobs: 300,
                discard: 20,
                warmups: 0,
                min_passes: 1,
                ..grid(4, 6, 64, 48, 0.10)
            },
            (Workload::ServeMix, true) => Spec {
                jobs: 28,
                discard: 4,
                warmups: 0,
                min_passes: 1,
                ..grid(4, 6, 64, 48, 0.10)
            },
        }
    }

    pub fn shape(&self) -> GridShape {
        GridShape::new(self.rows, self.cols)
    }

    /// The scan the dataset is generated from: the stage and sensor
    /// imperfections are the same for every workload.
    pub fn scan(&self, seed: u64) -> ScanConfig {
        ScanConfig {
            grid_rows: self.rows,
            grid_cols: self.cols,
            tile_width: self.tile_w,
            tile_height: self.tile_h,
            overlap: self.overlap,
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 50.0,
            vignette: self.vignette,
            seed,
        }
    }

    /// Compose units of the channel workload.
    pub fn units(&self) -> usize {
        self.channels * self.z_planes
    }
}

/// The two tenants of the serve workload alternate job by job.
pub fn serve_tenant(index: usize) -> &'static str {
    if index.is_multiple_of(2) {
        "a"
    } else {
        "b"
    }
}

/// One line of the serve workload's input.
pub fn serve_job_line(spec: &Spec, seed: u64, index: usize) -> String {
    // a few distinct plates, so same-seed jobs recur and their final
    // region digests can be compared
    let plate_seed = splitmix64(seed ^ (index % SERVE_PLATES) as u64) % 1_000_000;
    format!(
        "submit tenant={} name=j{index} grid={}x{} tile={}x{} variant=simple-cpu preview=true seed={plate_seed}",
        serve_tenant(index),
        spec.rows,
        spec.cols,
        spec.tile_w,
        spec.tile_h,
    )
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the specimen every dataset images. The cells on the plate are
/// part of the workload's definition; `--seed` drives the scan of it —
/// stage jitter, backlash path and sensor noise. How long the CCF search
/// runs depends on what lies in the overlaps, so a new specimen per seed
/// would make pass time vary by ±15 % between seeds, more than the bounds.
const SPECIMEN_SEED: u64 = 2014;

/// Scene content of channel `channel` of the fixed specimen.
fn specimen(spec: &Spec, channel: usize) -> SceneParams {
    ChannelConfig::for_channel(&spec.scan(SPECIMEN_SEED), channel).scene
}

/// Generates the workload's input under `dir` from `seed` — the only
/// thing the program under test ever sees. Returns the number of files.
pub fn generate(w: Workload, spec: &Spec, seed: u64, dir: &Path) -> std::io::Result<usize> {
    let io = |e: stitch_image::ImageError| std::io::Error::other(e.to_string());
    match w {
        Workload::ChannelReplay => {
            let mut cfg =
                MultiScanConfig::for_channels(spec.scan(seed), spec.channels, spec.z_planes);
            for (channel, config) in cfg.channels.iter_mut().enumerate() {
                config.scene = specimen(spec, channel);
            }
            MultiChannelPlate::generate(cfg)
                .write_to_dir(dir)
                .map_err(io)
        }
        Workload::ServeMix => {
            std::fs::create_dir_all(dir)?;
            let lines: Vec<String> = (0..spec.jobs)
                .map(|i| serve_job_line(spec, seed, i))
                .collect();
            std::fs::write(dir.join("jobs.txt"), lines.join("\n") + "\n")?;
            Ok(1)
        }
        _ => SyntheticPlate::generate_with_scene(spec.scan(seed), specimen(spec, 0))
            .write_to_dir(dir)
            .map_err(io),
    }
}

/// FNV-1a, 64 bits.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of an image's dimensions and pixels.
pub fn digest(img: &Image<u16>) -> u64 {
    let dims = [img.width() as u64, img.height() as u64];
    fnv64(
        dims.into_iter()
            .flat_map(u64::to_le_bytes)
            .chain(img.pixels().iter().flat_map(|p| p.to_le_bytes())),
    )
}

/// A [`TileSource`] adapter owned by the benchmark: counts loads and, in
/// a traced pass, records each as an `image.read` span.
pub struct CountingSource {
    inner: Arc<dyn TileSource>,
    loads: AtomicU64,
    nanos: AtomicU64,
}

impl CountingSource {
    pub fn new(inner: Arc<dyn TileSource>) -> CountingSource {
        CountingSource {
            inner,
            loads: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Total time spent inside `load`, summed over threads.
    pub fn read_seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl TileSource for CountingSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        let _span = spans::leaf("image.read");
        let t0 = Instant::now();
        let r = self.inner.load(id);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// What one end-to-end pass produced, kept for verification.
#[derive(Default)]
pub struct PassOutput {
    /// Phase-1 result (`None` for `serve_mix`, whose jobs keep theirs).
    pub result: Option<StitchResult>,
    pub positions: Option<AbsolutePositions>,
    /// Digest of every image the pass wrote, in writing order.
    pub digests: Vec<u64>,
    /// Every file the pass wrote.
    pub files: Vec<PathBuf>,
    /// Failed operations inside the pass (leaked reservations or spectra,
    /// jobs not completed, reads that failed).
    pub failed: usize,
    /// Operations those were out of.
    pub attempted: usize,
    /// Exact-repeat counts the pass observed, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// The (first) mosaic, kept for comparison against a reference.
    pub mosaic: Option<Image<u16>>,
    /// Loads and summed load seconds seen by the counting adapter.
    pub reads: Option<(u64, f64)>,
    /// `serve_mix`: the daemon-level record of the run.
    pub serve: Option<crate::serve::ServeRun>,
}

/// Reads a `.pgm` or (anything else) TIFF image.
pub fn read_image(path: &Path) -> Result<Image<u16>, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("pgm") => pgm::read_pgm(path),
        _ => tiff::read_tiff(path),
    }
    .map_err(|e| e.to_string())
}

/// Writes `img` by extension and records its digest in `out`.
pub fn write_image(path: &Path, img: &Image<u16>, out: &mut PassOutput) {
    let _span = spans::scope("image.write");
    let res = match path.extension().and_then(|e| e.to_str()) {
        Some("pgm") => pgm::write_pgm(path, img),
        _ => tiff::write_tiff(path, img),
    };
    out.attempted += 1;
    match res {
        Ok(()) => {
            out.digests.push(digest(img));
            out.files.push(path.to_path_buf());
        }
        Err(e) => {
            eprintln!("stitchbench: writing {}: {e}", path.display());
            out.failed += 1;
        }
    }
}

/// The stitcher the CLI defaults to: Pipelined-CPU, complex transform.
pub fn default_stitcher() -> PipelinedCpuStitcher {
    PipelinedCpuStitcher::new(THREADS)
}

/// Registration, solve and whole-mosaic compose of one single-grid
/// source, with a span around each call.
pub fn stitch_grid(
    source: &dyn TileSource,
    stitcher: &dyn Stitcher,
) -> Result<(StitchResult, AbsolutePositions, Image<u16>), String> {
    let result = {
        let _span = spans::scope("core.phase1");
        stitcher
            .try_compute_displacements(source, &FailurePolicy::default())
            .map_err(|e| e.to_string())?
    };
    let positions = {
        let _span = spans::scope("core.solve");
        GlobalOptimizer::default().solve(&result)
    };
    let mosaic = {
        let _span = spans::scope("core.compose");
        Composer::new(positions.clone(), Blend::Overlay).compose(source)
    };
    Ok((result, positions, mosaic))
}

/// `paper_tile` / `dense_grid`: dataset directory → mosaic TIFF, the
/// `stitch stitch --dataset D --out m.tif` path.
pub fn batch_pass(dataset: &Path, out_dir: &Path, counted: bool) -> Result<PassOutput, String> {
    let open = || -> Result<Arc<dyn TileSource>, String> {
        Ok(Arc::new(
            DirSource::open(dataset).map_err(|e| e.to_string())?,
        ))
    };
    grid_pass(open, out_dir, counted)
}

/// Opens a single-grid source, stitches it and writes the mosaic. With
/// `counted` the source goes through the benchmark's counting adapter.
pub fn grid_pass(
    open: impl FnOnce() -> Result<Arc<dyn TileSource>, String>,
    out_dir: &Path,
    counted: bool,
) -> Result<PassOutput, String> {
    let _pass = spans::scope("pass");
    let mut out = PassOutput::default();
    let dir = {
        let _span = spans::scope("image.open");
        open()?
    };
    let tiles = dir.shape().tiles() as f64;
    let pairs = dir.shape().pairs() as f64;
    let counting = counted.then(|| Arc::new(CountingSource::new(Arc::clone(&dir))));
    let source: Arc<dyn TileSource> = match &counting {
        Some(c) => Arc::clone(c) as Arc<dyn TileSource>,
        None => dir,
    };
    let (result, positions, mosaic) = stitch_grid(source.as_ref(), &default_stitcher())?;
    write_image(&out_dir.join("mosaic.tif"), &mosaic, &mut out);
    if let Some(c) = &counting {
        out.counts
            .push(("image.loads_per_tile", c.loads() as f64 / tiles));
        out.reads = Some((c.loads(), c.read_seconds()));
    }
    out.counts.extend([
        (
            "core.fwd_ffts_per_tile",
            result.ops.forward_ffts as f64 / tiles,
        ),
        (
            "core.inv_ffts_per_pair",
            result.ops.inverse_ffts as f64 / pairs,
        ),
        (
            "core.ccf_groups_per_pair",
            result.ops.ccf_groups as f64 / pairs,
        ),
    ]);
    out.result = Some(result);
    out.positions = Some(positions);
    out.mosaic = Some(mosaic);
    Ok(out)
}

/// The sharded run's configuration (`stitch shard` with these flags).
pub fn shard_config(spec: &Spec) -> ShardConfig {
    ShardConfig {
        shard_rows: spec.shard.0,
        shard_cols: spec.shard.1,
        workers: THREADS,
        threads: 1,
        memory_budget: 64 << 20,
        variant: JobVariant::SimpleCpu,
        compose: Some(Blend::Overlay),
        band_rows: BAND_ROWS,
        ..ShardConfig::default()
    }
}

/// Size of the scale-`scale` view of a `w × h` mosaic.
pub fn scaled_dims(w: usize, h: usize, scale: usize) -> (usize, usize) {
    ((w >> scale).max(1), (h >> scale).max(1))
}

/// `shard_canvas`: dataset directory → sharded stitch baked into the
/// chunked pyramid canvas → full-resolution TIFF and scale-3 PGM read
/// back from it, the `stitch shard --out --preview` path.
pub fn shard_pass(dataset: &Path, out_dir: &Path, spec: &Spec) -> Result<PassOutput, String> {
    let _pass = spans::scope("pass");
    let mut out = PassOutput::default();
    let source: Arc<dyn TileSource> =
        Arc::new(DirSource::open(dataset).map_err(|e| e.to_string())?);
    let (tw, th) = source.tile_dims();
    let canvas = SharedCanvas::new(CanvasConfig::default());
    let outcome = stitch_sharded_into_canvas(source, &shard_config(spec), &canvas)
        .map_err(|e| e.to_string())?;
    let (mw, mh) = outcome.positions.mosaic_dims(tw, th);
    let mosaic = canvas.get_region(0, 0, 0, mw, mh);
    write_image(&out_dir.join("mosaic.tif"), &mosaic, &mut out);
    let scale = OVERVIEW_SCALE.min(canvas.max_scale());
    let (pw, ph) = scaled_dims(mw, mh, scale);
    let overview = canvas.get_region(scale, 0, 0, pw, ph);
    write_image(&out_dir.join("overview.pgm"), &overview, &mut out);
    out.attempted += 2;
    out.failed += outcome.leaked_reservations + outcome.leaked_spectra;
    out.counts
        .push(("shard.seam_pairs", outcome.seam_pairs as f64));
    out.result = Some(outcome.result);
    out.positions = Some(outcome.positions);
    Ok(out)
}

/// The channel workload's plan: register on channel 0, one mosaic per
/// (channel, plane), flat-field correction on.
pub fn channel_plan() -> ChannelPlan {
    ChannelPlan {
        correct_illumination: true,
        ..ChannelPlan::default()
    }
}

/// File name of one compose unit's mosaic.
pub fn unit_file(out_dir: &Path, label: &str) -> PathBuf {
    out_dir.join(format!("mosaic_{label}.tif"))
}

/// `channel_replay`: multi-channel z-stack directory → register once →
/// replay the frame over every unit → one TIFF per unit, the
/// `stitch stitch --correct-illumination` path on such a dataset.
pub fn channel_pass(dataset: &Path, out_dir: &Path) -> Result<PassOutput, String> {
    let _pass = spans::scope("pass");
    let mut out = PassOutput::default();
    let source: Arc<dyn MultiTileSource> =
        Arc::new(MultiDirSource::open(dataset).map_err(|e| e.to_string())?);
    let session = ChannelSession::new(source, channel_plan()).map_err(|e| e.to_string())?;
    let run = run_channel_plan(&session, &default_stitcher(), Blend::Overlay)
        .map_err(|e| e.to_string())?;
    for (unit, mosaic) in &run.mosaics {
        write_image(&unit_file(out_dir, &unit.label()), mosaic, &mut out);
    }
    out.result = Some(run.registration);
    out.positions = Some(run.positions);
    Ok(out)
}
