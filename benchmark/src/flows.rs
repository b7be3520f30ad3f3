//! The traced flows and layer probes behind the per-layer metrics.
//!
//! Each flow drives one tier through its layers' public functions with
//! a span (and a stopwatch) around every call. The flow that is the
//! workload's own runs at the workload's full size; the other tiers are
//! driven over a *probe* — the top-left corner of the workload's own
//! tile grid — so every layer is measured at every workload's tile
//! geometry. The kernel walk drives the PCIAM kernel stage by stage on
//! one thread over the same probe.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stitch_canvas::{CanvasConfig, IncrementalConfig, IncrementalStitcher, SharedCanvas};
use stitch_core::pciam::{resolve_peaks_oriented, DEFAULT_PEAK_COUNT};
use stitch_core::{
    pyramid, AbsolutePositions, Blend, ChannelSession, Composer, Displacement, FijiStyleStitcher,
    GlobalOptimizer, GridShape, MtCpuStitcher, MultiTileSource, OpCounters, PairKind, PciamContext,
    PipelinedCpuConfig, PipelinedCpuStitcher, PipelinedGpuStitcher, SimpleCpuStitcher,
    SimpleGpuStitcher, SourceError, StitchResult, Stitcher, SubgridSource, TileId, TileSource,
    TransformKind, TruthVector,
};
use stitch_fft::{c64, Direction, Fft2d, PlanMode, Planner, RealFft2d, C64};
use stitch_gpu::profile::SpanKind;
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::Image;
use stitch_pipeline::{Pipeline, Queue};
use stitch_sched::{DrainPolicy, JobStatus, Scheduler, SchedulerConfig, StitchJob};
use stitch_shard::{merge_results, register_seams, solve_hierarchical, ShardConfig, ShardPlan};
use stitch_testkit::alloc::CountingAllocator;
use stitch_trace::TraceHandle;

use crate::report::{Checks, Metrics};
use crate::serve::ServeRun;
use crate::spans::{self, timed};
use crate::stats::{median, tail};
use crate::workload::{
    channel_plan, default_stitcher, digest, read_image, scaled_dims, stitch_grid, unit_file,
    write_image, PassOutput, OVERVIEW_SCALE, SERVE_PLATES, THREADS,
};

const MIB: f64 = (1 << 20) as f64;

/// The probe: the largest top-left corner of the grid with at most 16
/// tiles and 6 Mpx, so a probe costs about the same at every tile size
/// (4×4 small tiles, 2×2 paper-size tiles).
pub fn probe_shape(shape: GridShape, tile_px: usize) -> GridShape {
    let tiles = (6_000_000 / tile_px.max(1)).clamp(4, 16);
    let side = (tiles as f64).sqrt() as usize;
    GridShape::new(shape.rows.min(side), shape.cols.min(side))
}

pub fn probe_of(source: &Arc<dyn TileSource>) -> Arc<dyn TileSource> {
    let (w, h) = source.tile_dims();
    let shape = probe_shape(source.shape(), w * h);
    Arc::new(SubgridSource::new(Arc::clone(source), 0, 0, shape))
}

/// An unsharded, uncorrected stitch of one grid: what the tier flows
/// are verified against and compared with.
pub struct Reference {
    pub result: StitchResult,
    pub positions: AbsolutePositions,
    pub mosaic: Image<u16>,
    /// Registration + solve + compose, no file I/O.
    pub stitch_ms: f64,
}

pub fn reference_stitch(source: &dyn TileSource) -> Result<Reference, String> {
    let t0 = Instant::now();
    let (result, positions, mosaic) = stitch_grid(source, &default_stitcher())?;
    Ok(Reference {
        result,
        positions,
        mosaic,
        stitch_ms: ms_since(t0),
    })
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A displacement as compared by the bit-identity checks.
fn key(d: Option<Displacement>) -> Option<(i64, i64, u64)> {
    d.map(|d| (d.x, d.y, d.correlation.to_bits()))
}

/// True when every pair of `probe` (a `shape`-sized result) equals the
/// same pair in the top-left corner of `full`.
fn same_pairs_in_corner(probe: &StitchResult, full: &StitchResult, shape: GridShape) -> bool {
    shape.ids().all(|id| {
        key(probe.west_of(id)) == key(full.west_of(id))
            && key(probe.north_of(id)) == key(full.north_of(id))
    })
}

pub fn same_displacements(a: &StitchResult, b: &StitchResult) -> bool {
    a.shape == b.shape && same_pairs_in_corner(a, b, a.shape)
}

// ---------------------------------------------------------------- grid

/// Per-layer metrics of one traced single-grid pass (`grid_pass` with
/// the counting adapter), plus the accuracy against `truth` positions.
pub fn grid_metrics(
    out: &PassOutput,
    phases: &GridPhases,
    source: &dyn TileSource,
    truth: &[(i64, i64)],
    m: &mut Metrics,
) {
    let result = out.result.as_ref().expect("grid pass keeps its result");
    let positions = out.positions.as_ref().expect("grid pass keeps positions");
    let mosaic = out.mosaic.as_ref().expect("grid pass keeps its mosaic");
    let shape = result.shape;
    let (tw, th) = source.tile_dims();
    let tile_mb = (tw * th * 2) as f64 / 1e6;
    if let Some((loads, seconds)) = out.reads {
        m.set(
            "image.read_ms_per_tile",
            seconds * 1e3 / loads.max(1) as f64,
        );
        m.set(
            "image.read_mb_per_s",
            loads as f64 * tile_mb / seconds.max(1e-9),
        );
    }
    let mosaic_mb = (mosaic.len() * 2) as f64 / 1e6;
    m.set(
        "image.write_mb_per_s",
        mosaic_mb / (phases.write_ms / 1e3).max(1e-9),
    );
    m.set("core.phase1_ms", phases.phase1_ms);
    m.set("core.peak_live_tiles", result.peak_live_tiles as f64);
    m.set("core.solve_ms", phases.solve_ms);
    m.set("core.compose_ms", phases.compose_ms);
    m.set(
        "core.compose_mpx_per_s",
        mosaic.len() as f64 / 1e6 / (phases.compose_ms / 1e3).max(1e-9),
    );
    for (name, value) in &out.counts {
        m.set(name, *value);
    }
    let (tw_, tn_) = truth_vectors(shape, truth);
    m.set(
        "accuracy.pair_error_frac",
        result.count_errors(&tw_, &tn_, 0) as f64 / shape.pairs().max(1) as f64,
    );
    let (dx, dy) = positions.max_deviation(truth);
    m.set("accuracy.position_max_err_px", dx.max(dy) as f64);
}

/// Ground-truth displacement vectors from true stage positions, in the
/// layout `StitchResult::count_errors` takes.
pub fn truth_vectors(shape: GridShape, truth: &[(i64, i64)]) -> (TruthVector, TruthVector) {
    let at = |r: usize, c: usize| truth[r * shape.cols + c];
    let mut west = vec![None; shape.tiles()];
    let mut north = vec![None; shape.tiles()];
    for id in shape.ids() {
        let (x, y) = at(id.row, id.col);
        if id.col > 0 {
            let (x0, y0) = at(id.row, id.col - 1);
            west[shape.index(id)] = Some((x - x0, y - y0));
        }
        if id.row > 0 {
            let (x0, y0) = at(id.row - 1, id.col);
            north[shape.index(id)] = Some((x - x0, y - y0));
        }
    }
    (west, north)
}

/// Wall milliseconds of the phases of a traced grid pass, read back from
/// the spans the pass recorded.
pub struct GridPhases {
    pub phase1_ms: f64,
    pub solve_ms: f64,
    pub compose_ms: f64,
    pub write_ms: f64,
}

impl GridPhases {
    pub fn of_pass(pass: u32) -> GridPhases {
        let all = spans::snapshot();
        let wall = |name: &str| -> f64 {
            all.iter()
                .filter(|s| s.pass == pass && s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum()
        };
        GridPhases {
            phase1_ms: wall("core.phase1"),
            solve_ms: wall("core.solve"),
            compose_ms: wall("core.compose"),
            write_ms: wall("image.write"),
        }
    }
}

/// The same positions composed as bands instead of whole, and the cost
/// of the program's own trace recorder on registration.
pub fn grid_extras(
    source: &dyn TileSource,
    reference: &Reference,
    phase1_ms: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let ((), bands_ms) = timed("core.compose_bands", || {
        Composer::new(reference.positions.clone(), Blend::Overlay).compose_bands(
            source,
            crate::workload::BAND_ROWS,
            &mut |_, band| {
                std::hint::black_box(band);
            },
        )
    });
    m.set("core.compose_bands_ms", bands_ms);
    let t0 = Instant::now();
    let traced = default_stitcher()
        .with_trace(TraceHandle::new())
        .try_compute_displacements(source, &Default::default())
        .map_err(|e| e.to_string())?;
    m.set("trace.overhead_frac", ms_since(t0) / phase1_ms - 1.0);
    checks.check(same_displacements(&traced, &reference.result), || {
        "registration with the program's trace on differs from trace off".into()
    });
    Ok(())
}

// --------------------------------------------------------------- shard

/// What the traced sharded flow produced.
pub struct ShardFlow {
    pub result: StitchResult,
    pub positions: AbsolutePositions,
    pub mosaic: Image<u16>,
    pub overview: Image<u16>,
    /// Shard jobs → banded compose baked into the canvas (no region
    /// reads, no file I/O): comparable with `Reference::stitch_ms`.
    pub stitch_ms: f64,
    pub seam_pairs: usize,
}

/// The sharded tier, step by step through the public functions
/// `stitch_sharded_into_canvas` is built from. With `out_dir` it also
/// writes the two output files, like the end-to-end pass.
pub fn shard_flow(
    source: Arc<dyn TileSource>,
    config: &ShardConfig,
    out_dir: Option<(&Path, &mut PassOutput)>,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<ShardFlow, String> {
    let t0 = Instant::now();
    let plan = ShardPlan::new(source.shape(), config.shard_rows, config.shard_cols)?;
    let shards = plan.shards();
    let sched = Scheduler::new(SchedulerConfig {
        workers: config.workers.max(1),
        memory_budget: config.memory_budget,
        max_pending: shards.len().max(4),
        device: None,
        trace: TraceHandle::disabled(),
    });
    let mut submit_us = Vec::new();
    let (results, jobs_ms) = timed("shard.jobs", || -> Result<Vec<_>, String> {
        // pause → submit all → resume, as the driver does
        sched.pause();
        let mut handles = Vec::new();
        for shard in &shards {
            let view: Arc<dyn TileSource> = Arc::new(SubgridSource::new(
                Arc::clone(&source),
                shard.row0,
                shard.col0,
                shard.shape,
            ));
            let job = StitchJob::over_source(shard.name(), view)
                .variant(config.variant)
                .threads(config.threads)
                .compose(false);
            let t = Instant::now();
            let handle = {
                let _span = spans::scope("sched.submit");
                sched.submit_blocking(job)
            };
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            handles.push(handle.map_err(|e| format!("submit {}: {e}", shard.name()))?);
        }
        sched.resume();
        // `Scheduler::resume` notifies without the queue lock, so a
        // dispatcher that has just read `paused` can miss it and sleep
        // for good (see README, "Found while building"); nudge until the
        // first job is dispatched
        while sched.running() == 0 && sched.pending() > 0 {
            sched.resume();
            std::thread::yield_now();
        }
        let mut results = Vec::new();
        for (shard, handle) in shards.iter().zip(&handles) {
            let out = handle.wait();
            match (out.status, out.result) {
                (JobStatus::Completed, Some(result)) => results.push((*shard, result)),
                (status, _) => return Err(format!("shard {} ended {status:?}", shard.name())),
            }
        }
        Ok(results)
    });
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            sched.drain(DrainPolicy::CancelAll);
            return Err(e);
        }
    };
    let planner = sched.arbiter().planner(PlanMode::Estimate);
    let (seams, seams_ms) = timed("shard.seam_register", || {
        register_seams(
            &*source,
            &plan,
            &planner,
            &config.policy,
            &TraceHandle::disabled(),
        )
    });
    let seams = match seams {
        Ok(s) => s,
        Err(e) => {
            sched.drain(DrainPolicy::CancelAll);
            return Err(e.to_string());
        }
    };
    let (merged, merge_ms) = timed("shard.merge", || merge_results(&plan, &results, &seams));
    let (hierarchical, hier_ms) = timed("shard.hier_solve", || {
        let locals: Vec<AbsolutePositions> = results
            .iter()
            .map(|(_, r)| config.optimizer.solve(r))
            .collect();
        solve_hierarchical(
            &plan,
            &locals,
            &seams,
            &config.optimizer,
            source.tile_dims(),
        )
    });
    let (positions, _) = timed("core.solve", || config.optimizer.solve(&merged));
    std::hint::black_box(hierarchical);

    let canvas = SharedCanvas::new(CanvasConfig::default());
    let mut bake_ms = 0.0;
    let blend = config.compose.unwrap_or(Blend::Overlay);
    timed("core.compose_bands", || {
        Composer::new(positions.clone(), blend).compose_bands(
            &*source,
            config.band_rows,
            &mut |y0, band| {
                let ((), ms) = timed("canvas.bake", || canvas.bake_region((0, y0 as i64), &band));
                bake_ms += ms;
            },
        )
    });
    sched.drain(DrainPolicy::CancelAll);
    let stitch_ms = ms_since(t0);
    let arbiter = sched.arbiter();
    let leaked = arbiter.active_reservations() + arbiter.leased_spectra();

    let (tw, th) = source.tile_dims();
    let (mw, mh) = positions.mosaic_dims(tw, th);
    let (mosaic, scale0_ms) = timed("canvas.region_scale0", || {
        canvas.get_region(0, 0, 0, mw, mh)
    });
    let scale = OVERVIEW_SCALE.min(canvas.max_scale());
    let (pw, ph) = scaled_dims(mw, mh, scale);
    let (overview, scale3_ms) = timed("canvas.region_scale3", || {
        canvas.get_region(scale, 0, 0, pw, ph)
    });
    if let Some((dir, out)) = out_dir {
        write_image(&dir.join("mosaic.tif"), &mosaic, out);
        write_image(&dir.join("overview.pgm"), &overview, out);
    }

    let stats = canvas.stats();
    m.set("sched.submit_us", median(&submit_us));
    m.set(
        "sched.arbiter_high_water_mb",
        arbiter.high_water() as f64 / MIB,
    );
    m.set("sched.leaked_reservations", leaked as f64);
    m.set("shard.jobs_ms", jobs_ms);
    m.set("shard.seam_register_ms", seams_ms);
    m.set("shard.merge_ms", merge_ms);
    m.set("shard.hier_solve_ms", hier_ms);
    m.set("shard.seam_pairs", seams.displacements.len() as f64);
    m.set("canvas.bake_ms", bake_ms);
    m.set("canvas.region_scale0_ms", scale0_ms);
    m.set("canvas.region_scale3_ms", scale3_ms);
    m.set("canvas.live_chunks", stats.live_chunks as f64);
    m.set("canvas.peak_chunk_mb", stats.peak_chunk_bytes as f64 / MIB);
    checks.check(leaked == 0, || {
        format!("{leaked} reservations or spectra leaked by the sharded flow")
    });
    checks.check(seams.displacements.len() == plan.seam_pairs().len(), || {
        "seam pairs registered differ from the plan's".into()
    });
    Ok(ShardFlow {
        result: merged,
        positions,
        mosaic,
        overview,
        stitch_ms,
        seam_pairs: seams.displacements.len(),
    })
}

/// A sharded run must be indistinguishable from one unsharded stitch of
/// the same plate: same positions, the same pixels at full resolution,
/// and an overview equal to `compose::pyramid` of them.
pub fn check_shard_against(
    what: &str,
    positions: &AbsolutePositions,
    mosaic: &Image<u16>,
    overview: &Image<u16>,
    reference: &Reference,
    checks: &mut Checks,
) {
    checks.check(positions.positions == reference.positions.positions, || {
        format!("{what}: sharded positions differ from the unsharded solve")
    });
    checks.check(mosaic == &reference.mosaic, || {
        format!("{what}: scale-0 mosaic differs from the unsharded compose")
    });
    let levels = pyramid(reference.mosaic.clone(), OVERVIEW_SCALE);
    checks.check(levels.last() == Some(overview), || {
        format!("{what}: overview differs from compose::pyramid of the mosaic")
    });
}

// ------------------------------------------------------------- channel

/// A `MultiTileSource` adapter owned by the benchmark: counts loads and
/// records each as an `image.read` span.
pub struct CountingMulti {
    inner: Arc<dyn MultiTileSource>,
    loads: AtomicU64,
    nanos: AtomicU64,
}

impl CountingMulti {
    pub fn new(inner: Arc<dyn MultiTileSource>) -> CountingMulti {
        CountingMulti {
            inner,
            loads: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    fn read_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl MultiTileSource for CountingMulti {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn channels(&self) -> usize {
        self.inner.channels()
    }

    fn z_planes(&self) -> usize {
        self.inner.z_planes()
    }

    fn load_plane(
        &self,
        channel: usize,
        plane: usize,
        id: TileId,
    ) -> Result<Image<u16>, SourceError> {
        let _span = spans::leaf("image.read");
        let t0 = Instant::now();
        let r = self.inner.load_plane(channel, plane, id);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// A single grid seen as a one-channel, one-plane acquisition, so the
/// channel tier can be driven over a probe of any workload.
pub struct OneUnit(pub Arc<dyn TileSource>);

impl MultiTileSource for OneUnit {
    fn shape(&self) -> GridShape {
        self.0.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.0.tile_dims()
    }

    fn channels(&self) -> usize {
        1
    }

    fn z_planes(&self) -> usize {
        1
    }

    fn load_plane(&self, _: usize, _: usize, id: TileId) -> Result<Image<u16>, SourceError> {
        self.0.load(id)
    }
}

/// The channel tier step by step: fit the flat fields, register once on
/// the corrected reference plane, solve, replay the frame over every
/// unit. With `out_dir` each unit's mosaic is written, like the
/// end-to-end pass. Returns the session and the median replay time for
/// [`channel_extras`].
pub fn channel_flow(
    source: Arc<dyn MultiTileSource>,
    mut out_dir: Option<(&Path, &mut PassOutput)>,
    m: &mut Metrics,
) -> Result<(ChannelSession, f64), String> {
    let counting = Arc::new(CountingMulti::new(source));
    let multi: Arc<dyn MultiTileSource> = Arc::clone(&counting) as _;
    let (session, fit_wall_ms) = timed("image.flatfield_fit", || {
        ChannelSession::new(multi, channel_plan())
    });
    let session = session.map_err(|e| e.to_string())?;
    // the fit reads on this thread, so its own time is the wall less the
    // reads nested inside it
    m.set("image.flatfield_fit_ms", fit_wall_ms - counting.read_ms());

    let reg = session.registration_source();
    let (registration, register_ms) = timed("channel.register", || {
        default_stitcher().try_compute_displacements(reg.as_ref(), &Default::default())
    });
    let registration = registration.map_err(|e| e.to_string())?;
    let (positions, _) = timed("core.solve", || {
        GlobalOptimizer::default().solve(&registration)
    });
    m.set("channel.register_ms", register_ms);

    let mut replay_ms = Vec::new();
    for unit in session.units() {
        let src = session.unit_source(unit);
        let (mosaic, ms) = timed("channel.replay", || {
            Composer::new(positions.clone(), Blend::Overlay).compose(src.as_ref())
        });
        replay_ms.push(ms);
        if let Some((dir, out)) = out_dir.as_mut() {
            write_image(&unit_file(dir, &unit.label()), &mosaic, out);
        }
    }
    let replay_ms = median(&replay_ms);
    m.set("channel.replay_ms_per_unit", replay_ms);
    Ok((session, replay_ms))
}

/// What replaying the frame saves — one unit's replay against a solo
/// stitch of it — and the flat-field apply timed on its own.
pub fn channel_extras(
    session: &ChannelSession,
    replay_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let _span = spans::scope("channel.extras");
    let first = session.unit_source(session.units()[0]);
    let solo = reference_stitch(first.as_ref())?;
    m.set(
        "channel.replay_vs_solo",
        replay_ms / solo.stitch_ms.max(1e-9),
    );

    let (flat, source) = (session.flat(0), session.source());
    let mut apply_ms = Vec::new();
    for id in source.shape().ids().take(8) {
        let tile = source.load_plane(0, 0, id).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        std::hint::black_box(flat.apply(&tile));
        apply_ms.push(ms_since(t0));
    }
    m.set("image.flatfield_apply_ms_per_tile", median(&apply_ms));
    Ok(())
}

// ---------------------------------------------------------- incremental

/// `IncrementalStitcher::offer` / `resolve` over the probe, in row-major
/// arrival order with the default re-solve cadence — what one preview
/// job of the daemon pays per tile.
pub fn incremental_flow(
    probe: &dyn TileSource,
    reference: &StitchResult,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let shape = probe.shape();
    let canvas = Arc::new(SharedCanvas::new(CanvasConfig::default()));
    let mut inc = IncrementalStitcher::new(
        shape,
        probe.tile_dims(),
        IncrementalConfig::default(),
        canvas,
    );
    let mut offer_ms = Vec::new();
    for id in shape.ids() {
        let tile = probe.load(id).map_err(|e| e.to_string())?;
        let ((), ms) = timed("canvas.offer", || inc.offer(id, tile));
        offer_ms.push(ms);
    }
    let (_, resolve_ms) = timed("canvas.resolve", || inc.resolve());
    m.set(
        "canvas.offer_ms_per_tile",
        offer_ms.iter().sum::<f64>() / offer_ms.len() as f64,
    );
    m.set("canvas.resolve_ms", resolve_ms);
    let outcome = inc.finish();
    checks.check(
        same_pairs_in_corner(&outcome.result, reference, shape),
        || "incremental registration differs from the batch pass pair for pair".into(),
    );
    Ok(())
}

// ---------------------------------------------------------------- serve

pub fn serve_metrics(run: &ServeRun, submitted: usize, m: &mut Metrics) {
    m.set("serve.job_ms_p50", median(&run.job_ms));
    m.set("serve.job_ms_p90", tail(&run.job_ms, 90.0));
    m.set("serve.region_ms_p50", median(&run.region_ms));
    m.set("serve.region_ms_p90", tail(&run.region_ms, 90.0));
    m.set("serve.admit_us_p50", median(&run.admit_us));
    m.set("serve.queue_wait_ms_p50", median(&run.queue_wait_ms));
    m.set("serve.queue_wait_ms_p90", tail(&run.queue_wait_ms, 90.0));
    m.set("serve.run_ms_p50", median(&run.run_ms));
    m.set("serve.shed_frac", run.stats.shed as f64 / submitted as f64);
    m.set(
        "serve.pending_high_water",
        run.stats.pending_high_water as f64,
    );
}

/// Every job completed, nothing shed, and jobs over the same plate
/// (same generated seed: indices congruent modulo `SERVE_PLATES`) return
/// the same final region digest.
pub fn check_serve(run: &ServeRun, submitted: usize, checks: &mut Checks) {
    checks.count(submitted, run.failed_jobs, "jobs did not complete");
    checks.count(
        run.region_ms.len().max(1),
        run.failed_regions,
        "region reads failed",
    );
    checks.check(
        run.stats.accepted == run.stats.completed && run.stats.accepted == submitted as u64,
        || {
            format!(
                "daemon accepted {} and completed {} of {submitted} jobs",
                run.stats.accepted, run.stats.completed
            )
        },
    );
    let mut by_plate: Vec<Option<u64>> = vec![None; SERVE_PLATES];
    let mut mismatched = 0;
    for (index, d) in run.final_digests.iter().enumerate() {
        match (d, &mut by_plate[index % SERVE_PLATES]) {
            (Some(d), Some(first)) if d != first => mismatched += 1,
            (Some(d), slot @ None) => *slot = Some(*d),
            _ => {}
        }
    }
    checks.check(mismatched == 0, || {
        format!("{mismatched} same-seed jobs returned a different final region digest")
    });
}

// ---------------------------------------------------------- kernel walk

/// FFT plans and transforms at the tile size, outside any stitcher.
pub fn fft_probe(tile: &Image<u16>, m: &mut Metrics) {
    let (w, h) = tile.dims();
    let _span = spans::scope("fft.probe");
    let t0 = Instant::now();
    let planner = Planner::new(PlanMode::Estimate);
    let fwd = Fft2d::new(&planner, w, h, Direction::Forward);
    let inv = Fft2d::new(&planner, w, h, Direction::Inverse);
    let real = RealFft2d::new(&planner, w, h);
    m.set("fft.plan_ms", ms_since(t0));

    let input: Vec<C64> = tile
        .pixels()
        .iter()
        .map(|&p| c64(f64::from(p), 0.0))
        .collect();
    let real_in: Vec<f64> = tile.pixels().iter().map(|&p| f64::from(p)).collect();
    let mut data = input.clone();
    let mut scratch = vec![C64::ZERO; w * h];
    let mut real_out = vec![C64::ZERO; real.spectrum_len()];
    let fwd_ms = repeat_ms(|| {
        data.copy_from_slice(&input);
        fwd.process(&mut data, &mut scratch);
    });
    let inv_ms = repeat_ms(|| inv.process(&mut data, &mut scratch));
    let real_ms = repeat_ms(|| real.forward(&real_in, &mut real_out));
    std::hint::black_box((&data, &real_out));
    m.set("fft.fwd2d_ms", fwd_ms);
    m.set("fft.inv2d_ms", inv_ms);
    m.set("fft.fwd2d_real_ms", real_ms);
    m.set("fft.fwd2d_ns_per_px", fwd_ms * 1e6 / (w * h) as f64);
}

/// Median milliseconds of `f`, repeated for about 60 ms (3 to 200 times).
fn repeat_ms(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 3 || (samples.len() < 200 && t0.elapsed().as_millis() < 60) {
        let t = Instant::now();
        f();
        samples.push(ms_since(t));
    }
    median(&samples)
}

/// Drives the PCIAM kernel stage by stage on this thread over every
/// tile and pair of the probe: forward FFT per tile, then per pair the
/// correlation peaks (NCC + inverse FFT + top-8) and the CCF
/// disambiguation, separately timed; then the fused per-pair call the
/// stitchers make, with heap allocations counted. Displacements must
/// equal the batch pass's, pair for pair, so the walk measures the same
/// computation. Shares are scaled to `full`, the workload's whole grid.
pub fn kernel_walk(
    probe: &dyn TileSource,
    reference: &StitchResult,
    full: GridShape,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let _span = spans::scope("core.kernel_walk");
    let shape = probe.shape();
    let (w, h) = probe.tile_dims();
    let planner = Planner::new(PlanMode::Estimate);
    let mut ctx = PciamContext::new(&planner, w, h, OpCounters::new_shared());
    let tiles: Vec<Image<u16>> = shape
        .ids()
        .map(|id| probe.load(id).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    fft_probe(&tiles[0], m);

    let mut fwd_ms = Vec::new();
    let spectra: Vec<_> = tiles
        .iter()
        .map(|t| {
            let (s, ms) = timed("core.pciam.fwd_fft", || ctx.forward_fft(t));
            fwd_ms.push(ms);
            s
        })
        .collect();

    // (a, b, kind): b's displacement relative to its west / north tile a
    let mut pairs = Vec::new();
    for id in shape.ids() {
        if let Some(a) = shape.west(id) {
            pairs.push((shape.index(a), shape.index(id), PairKind::West, id));
        }
        if let Some(a) = shape.north(id) {
            pairs.push((shape.index(a), shape.index(id), PairKind::North, id));
        }
    }
    let expected = |kind: PairKind, id: TileId| match kind {
        PairKind::West => reference.west_of(id),
        PairKind::North => reference.north_of(id),
    };
    let same = |a: Displacement, b: Option<Displacement>| key(Some(a)) == key(b);

    let (mut corr_ms, mut ccf_ms, mut pair_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut differing = 0;
    for &(a, b, kind, id) in &pairs {
        let (peaks, ms) = timed("core.pciam.corr_peaks", || {
            ctx.correlation_peaks(&spectra[a], &spectra[b], DEFAULT_PEAK_COUNT)
        });
        corr_ms.push(ms);
        let indices: Vec<usize> = peaks.iter().map(|&(i, _)| i).collect();
        let (d, ms) = timed("core.pciam.ccf", || {
            resolve_peaks_oriented(&indices, w, h, &tiles[a], &tiles[b], Some(kind))
        });
        ccf_ms.push(ms);
        differing += usize::from(!same(d, expected(kind, id)));
    }
    // the fused call the stitchers make; this sweep also grows the
    // context's reusable buffers to their final capacity
    for &(a, b, kind, id) in &pairs {
        let (d, ms) = timed("core.pciam.pair", || {
            ctx.displacement_oriented(&spectra[a], &spectra[b], &tiles[a], &tiles[b], Some(kind))
        });
        pair_ms.push(ms);
        differing += usize::from(!same(d, expected(kind, id)));
    }
    checks.count(
        2 * pairs.len(),
        differing,
        "layer-walk displacements differ from the batch pass",
    );
    // steady state: heap allocations of two more pairs, counted twice —
    // an exact-repeat count, so both readings must agree
    let steady = &pairs[..pairs.len().min(2)];
    let mut count_allocs = || {
        let allocs0 = CountingAllocator::thread_allocations();
        for &(a, b, kind, _) in steady {
            ctx.displacement_oriented(&spectra[a], &spectra[b], &tiles[a], &tiles[b], Some(kind));
        }
        CountingAllocator::thread_allocations() - allocs0
    };
    let (first, second) = (count_allocs(), count_allocs());
    checks.check(first == second, || {
        format!("unstable: core.phase1_allocs read {first} then {second} in one run")
    });

    let (fwd, corr, ccf) = (median(&fwd_ms), median(&corr_ms), median(&ccf_ms));
    m.set("core.pciam.fwd_fft_ms", fwd);
    m.set("core.pciam.corr_peaks_ms", corr);
    m.set("core.pciam.ccf_ms", ccf);
    m.set("core.pciam.pair_ms", median(&pair_ms));
    let (n_tiles, n_pairs) = (full.tiles() as f64, full.pairs() as f64);
    let total = fwd * n_tiles + (corr + ccf) * n_pairs;
    m.set("core.pciam.ccf_share", ccf * n_pairs / total);
    m.set(
        "core.pciam.fft_share",
        (fwd * n_tiles + corr * n_pairs) / total,
    );
    m.set(
        "core.phase1_allocs",
        second as f64 / steady.len().max(1) as f64,
    );
    Ok(())
}

// ------------------------------------------------- variants, gpu, pipeline

/// One registration pass per stitcher variant and per transform path
/// over the probe; every one must reproduce the batch pass's pairs. The
/// simulated device's profiler is read after the Pipelined-GPU row.
pub fn variant_rows(
    probe: &dyn TileSource,
    reference: &StitchResult,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let _span = spans::scope("core.variant_rows");
    let device = Device::new(0, DeviceConfig::default());
    let with_transform = |transform| {
        PipelinedCpuStitcher::with_config(PipelinedCpuConfig {
            transform,
            ..PipelinedCpuConfig::with_threads(THREADS)
        })
    };
    let rows: Vec<(&str, Box<dyn Stitcher>)> = vec![
        (
            "core.variant.simple_cpu.phase1_ms",
            Box::new(SimpleCpuStitcher::default()),
        ),
        (
            "core.variant.mt_cpu.phase1_ms",
            Box::new(MtCpuStitcher::new(THREADS)),
        ),
        (
            "core.variant.pipelined_cpu.phase1_ms",
            Box::new(default_stitcher()),
        ),
        (
            "core.variant.fiji.phase1_ms",
            Box::new(FijiStyleStitcher::new(THREADS)),
        ),
        (
            "core.variant.simple_gpu.phase1_ms",
            Box::new(SimpleGpuStitcher::new(Device::new(
                1,
                DeviceConfig::default(),
            ))),
        ),
        (
            "core.variant.pipelined_gpu.phase1_ms",
            Box::new(PipelinedGpuStitcher::single(device.clone())),
        ),
        (
            "core.transform.real.phase1_ms",
            Box::new(with_transform(TransformKind::Real)),
        ),
        (
            "core.transform.padded.phase1_ms",
            Box::new(with_transform(TransformKind::PaddedComplex)),
        ),
    ];
    let shape = probe.shape();
    for (name, stitcher) in rows {
        let t0 = Instant::now();
        let result = stitcher
            .try_compute_displacements(probe, &Default::default())
            .map_err(|e| format!("{}: {e}", stitcher.name()))?;
        m.set(name, ms_since(t0));
        // the padded path works on other pixels and may differ by design;
        // every other row is bit-identical to the default stitcher
        if !name.contains("padded") {
            checks.check(same_pairs_in_corner(&result, reference, shape), || {
                format!("{} disagrees with the batch pass", stitcher.name())
            });
        }
    }
    let profiler = device.profiler();
    let (w, h) = probe.tile_dims();
    let uploads = profiler
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::H2D)
        .count();
    m.set("gpu.kernel_density", profiler.kernel_density());
    m.set(
        "gpu.peak_kernel_concurrency",
        profiler.peak_concurrency(SpanKind::Kernel) as f64,
    );
    // computed, not measured: every upload is one 16-bit tile
    m.set("gpu.h2d_mb", (uploads * w * h * 2) as f64 / 1e6);
    Ok(())
}

/// No-op items through a three-stage pipeline of bounded queues: what
/// one queue hand-off chain costs per item.
pub fn pipeline_probe(m: &mut Metrics) {
    const ITEMS: u32 = 20_000;
    let _span = spans::scope("pipeline.probe");
    let (q1, q2, q3) = (Queue::<u32>::new(64), Queue::<u32>::new(64), Queue::new(64));
    let t0 = Instant::now();
    let mut pl = Pipeline::new();
    let w1 = q1.writer();
    pl.add_source("items", move || {
        for i in 0..ITEMS {
            w1.push(i);
        }
    });
    let w2 = q2.writer();
    pl.add_stage("a", 1, q1.clone(), move |v| {
        w2.push(v);
    });
    let w3 = q3.writer();
    pl.add_stage("b", 1, q2.clone(), move |v| {
        w3.push(v);
    });
    let seen = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&seen);
    pl.add_stage("c", 1, q3.clone(), move |_| {
        sink.fetch_add(1, Ordering::Relaxed);
    });
    pl.join().expect("no-op stages do not panic");
    assert_eq!(seen.load(Ordering::Relaxed), u64::from(ITEMS));
    m.set(
        "pipeline.item_overhead_us",
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITEMS),
    );
}

/// Reads `files` back: each must decode to the image whose digest the
/// pass recorded. Returns the images when all of them do.
pub fn read_back(
    files: &[std::path::PathBuf],
    digests: &[u64],
    checks: &mut Checks,
) -> Option<Vec<Image<u16>>> {
    let mut images = Vec::new();
    for (path, want) in files.iter().zip(digests) {
        match read_image(path) {
            Ok(img) if digest(&img) == *want => images.push(img),
            Ok(_) => eprintln!("stitchbench: {} decodes to other pixels", path.display()),
            Err(e) => eprintln!("stitchbench: {}: {e}", path.display()),
        }
    }
    let bad = files.len() - images.len();
    checks.count(
        files.len(),
        bad,
        "output files are missing, undecodable or altered",
    );
    (bad == 0).then_some(images)
}
