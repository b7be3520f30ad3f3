//! Failure model: fallible tile sources, deterministic fault injection,
//! retry policies, and per-tile health reporting.
//!
//! The paper's pipelines assume every tile read succeeds; at the 59×42
//! grid scale of the real instrument that assumption breaks — a stitching
//! run is exactly the kind of hours-long, I/O-heavy batch job that hits
//! transient NFS hiccups and the occasional corrupt tile on disk. This
//! module is the shared vocabulary for handling that:
//!
//! * [`SourceError`] — why a tile read failed, and whether retrying can
//!   help ([`SourceError::is_retryable`]).
//! * [`RetryPolicy`] / [`FailurePolicy`] — bounded retry with exponential
//!   backoff, a per-tile read deadline, and the partial-mosaic switch.
//! * [`load_with_retry`] — the one retry loop every stitcher shares.
//! * [`FaultSpec`] / [`FaultySource`] — deterministic, seeded fault
//!   injection wrapped around any [`TileSource`], for tests and the
//!   `--fault-spec` CLI flag.
//! * [`HealthReport`] / [`TileStatus`] — the per-tile outcome record that
//!   rides on every `StitchResult`.
//! * [`StitchError`] — the error a stitcher returns when degradation is
//!   not allowed.
//! * [`FaultTracker`] — thread-safe health accumulation shared by the
//!   concurrent stitcher variants.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stitch_gpu::GpuFaultConfig;
use stitch_image::opts::Options;
use stitch_image::{Fnv64, Image};

use crate::grid::GridShape;
use crate::source::TileSource;
use crate::types::TileId;

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Why a tile read failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// A transient I/O failure (e.g. an NFS hiccup); retrying may succeed.
    Transient {
        /// The tile whose read failed.
        id: TileId,
        /// Human-readable detail.
        detail: String,
    },
    /// The tile's bytes are permanently damaged; retrying cannot help.
    Corrupt {
        /// The damaged tile.
        id: TileId,
        /// Human-readable detail.
        detail: String,
    },
    /// A non-transient I/O error (file missing, permission denied, bad
    /// header); retrying cannot help.
    Io {
        /// The tile whose read failed.
        id: TileId,
        /// Human-readable detail.
        detail: String,
    },
    /// The per-tile read deadline elapsed before a read succeeded.
    DeadlineExceeded {
        /// The tile whose read timed out.
        id: TileId,
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// A source was constructed over zero tiles.
    EmptyGrid,
    /// A dataset manifest could not be loaded or is inconsistent.
    Manifest {
        /// Human-readable detail.
        detail: String,
    },
    /// A directory source's manifest names tiles that are not on disk.
    MissingTiles {
        /// Every missing file, reported up front in one pass.
        files: Vec<String>,
    },
}

impl SourceError {
    /// True when a retry has a chance of succeeding.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SourceError::Transient { .. })
    }

    /// The tile this error is about, when there is one.
    pub fn tile(&self) -> Option<TileId> {
        match self {
            SourceError::Transient { id, .. }
            | SourceError::Corrupt { id, .. }
            | SourceError::Io { id, .. }
            | SourceError::DeadlineExceeded { id, .. } => Some(*id),
            SourceError::EmptyGrid
            | SourceError::Manifest { .. }
            | SourceError::MissingTiles { .. } => None,
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Transient { id, detail } => {
                write!(f, "transient read failure on tile {id}: {detail}")
            }
            SourceError::Corrupt { id, detail } => write!(f, "corrupt tile {id}: {detail}"),
            SourceError::Io { id, detail } => write!(f, "i/o error on tile {id}: {detail}"),
            SourceError::DeadlineExceeded { id, deadline } => {
                write!(f, "tile {id} read exceeded deadline of {deadline:?}")
            }
            SourceError::EmptyGrid => write!(f, "tile source contains no tiles"),
            SourceError::Manifest { detail } => write!(f, "dataset manifest error: {detail}"),
            SourceError::MissingTiles { files } => {
                write!(
                    f,
                    "manifest names {} missing file(s): {}",
                    files.len(),
                    files.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// The error a stitcher returns when it cannot (or may not) produce a
/// complete result.
#[derive(Clone, Debug)]
pub enum StitchError {
    /// A tile failed permanently and partial output was not allowed.
    Tile {
        /// The failed tile.
        id: TileId,
        /// The underlying read failure.
        error: SourceError,
    },
    /// The pipeline infrastructure itself failed (e.g. a stage panicked).
    Pipeline {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::Tile { id, error } => {
                write!(f, "tile {id} failed and --allow-partial is off: {error}")
            }
            StitchError::Pipeline { detail } => write!(f, "pipeline failure: {detail}"),
        }
    }
}

impl std::error::Error for StitchError {}

impl From<stitch_pipeline::PipelineError> for StitchError {
    fn from(e: stitch_pipeline::PipelineError) -> StitchError {
        StitchError::Pipeline {
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// retry policy
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff and an optional per-tile
/// deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (so `max_retries + 1`
    /// attempts total).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget for all attempts on one tile. `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), doubled each
    /// time and capped at [`max_backoff`](RetryPolicy::max_backoff).
    fn backoff_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.backoff * factor).min(self.max_backoff)
    }
}

/// How a stitcher behaves when tiles fail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailurePolicy {
    /// Retry behavior for transient read failures.
    pub retry: RetryPolicy,
    /// When true, permanently failed tiles degrade the result to a
    /// partial mosaic; when false (default), the stitcher returns
    /// [`StitchError::Tile`] on the first permanent failure.
    pub allow_partial: bool,
}

impl FailurePolicy {
    /// A policy that tolerates failed tiles (partial-mosaic mode).
    pub fn partial() -> FailurePolicy {
        FailurePolicy {
            allow_partial: true,
            ..FailurePolicy::default()
        }
    }
}

/// Loads one tile under a retry policy. Returns the image and the number
/// of attempts made (1 = first try succeeded). Retries only
/// [retryable](SourceError::is_retryable) errors, sleeping the policy's
/// exponential backoff between attempts and giving up when the per-tile
/// deadline elapses. A tile that decodes to other dimensions than the
/// source declares is [`SourceError::Corrupt`]: every kernel downstream
/// is planned for `tile_dims()`.
pub fn load_with_retry(
    source: &dyn TileSource,
    id: TileId,
    policy: &RetryPolicy,
) -> Result<(Image<u16>, u32), SourceError> {
    let t0 = Instant::now();
    let mut attempt = 1u32;
    loop {
        match source.load(id) {
            Ok(img) if img.dims() != source.tile_dims() => {
                let ((w, h), (mw, mh)) = (img.dims(), source.tile_dims());
                return Err(SourceError::Corrupt {
                    id,
                    detail: format!("tile is {w}x{h}, manifest says {mw}x{mh}"),
                });
            }
            Ok(img) => return Ok((img, attempt)),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                if attempt > policy.max_retries {
                    return Err(e);
                }
                let pause = policy.backoff_for(attempt);
                if let Some(deadline) = policy.deadline {
                    if t0.elapsed() + pause >= deadline {
                        return Err(SourceError::DeadlineExceeded { id, deadline });
                    }
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// deterministic fault injection
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, high-quality hash for deterministic fault decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1).
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic fault-injection plan for a [`FaultySource`].
///
/// Parsed from the CLI `--fault-spec` string: comma-separated
/// `key=value` entries, e.g.
/// `seed=42,transient=0.2,latency-ms=5,corrupt=0.1+2.3`.
/// Corrupt tiles are `row.col` coordinates joined by `+`. The same string
/// carries the device-level `gpu-` keys; [`FaultSpec::parse`] reads both.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability in [0, 1] that any single read attempt fails
    /// transiently. Decisions are per `(tile, attempt)`, so retries
    /// re-roll deterministically.
    pub transient_rate: f64,
    /// Tiles that always fail with [`SourceError::Corrupt`].
    pub corrupt: Vec<TileId>,
    /// Extra latency injected into every read.
    pub latency: Duration,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            seed: 1,
            transient_rate: 0.0,
            corrupt: Vec::new(),
            latency: Duration::ZERO,
        }
    }
}

impl FaultSpec {
    /// Parses the `--fault-spec` syntax in one pass: the tile-read keys
    /// (see the type docs) and the device keys `gpu-seed`, `gpu-h2d`,
    /// `gpu-d2h`, `gpu-kernel`, `gpu-oom` (rates in `[0, 1]`) and
    /// `gpu-retries`. The device config is `None` unless a device rate is
    /// non-zero. Unknown keys are an error so typos fail loudly.
    pub fn parse(spec: &str) -> Result<(FaultSpec, Option<GpuFaultConfig>), String> {
        let mut o = Options::from_pairs(spec.split(','))?;
        let mut rate = |key: &str| match o.take::<f64>(key)? {
            Some(r) if !(0.0..=1.0).contains(&r) => Err(format!("{key} {r} outside [0, 1]")),
            r => Ok(r.unwrap_or(0.0)),
        };
        let transient_rate = rate("transient")?;
        let (h2d_fail_rate, d2h_fail_rate) = (rate("gpu-h2d")?, rate("gpu-d2h")?);
        let (kernel_fail_rate, oom_spike_rate) = (rate("gpu-kernel")?, rate("gpu-oom")?);
        let corrupt = o.take_pairs("corrupt", '.', '+')?;
        let defaults = GpuFaultConfig::default();
        let tile = FaultSpec {
            seed: o.take("seed")?.unwrap_or(FaultSpec::default().seed),
            transient_rate,
            corrupt: corrupt.iter().map(|&(r, c)| TileId::new(r, c)).collect(),
            latency: Duration::from_millis(o.take("latency-ms")?.unwrap_or(0)),
        };
        let device = GpuFaultConfig {
            seed: o.take("gpu-seed")?.unwrap_or(defaults.seed),
            h2d_fail_rate,
            d2h_fail_rate,
            kernel_fail_rate,
            oom_spike_rate,
            max_retries: o.take("gpu-retries")?.unwrap_or(defaults.max_retries),
        };
        o.finish()?;
        let injects = h2d_fail_rate + d2h_fail_rate + kernel_fail_rate + oom_spike_rate > 0.0;
        Ok((tile, injects.then_some(device)))
    }

    /// True when the spec injects nothing.
    pub fn is_noop(&self) -> bool {
        self.transient_rate == 0.0 && self.corrupt.is_empty() && self.latency.is_zero()
    }

    /// Deterministic decision: does attempt number `attempt` (1-based) on
    /// `id` fail transiently?
    fn transient_hit(&self, id: TileId, attempt: u32) -> bool {
        if self.transient_rate <= 0.0 {
            return false;
        }
        let key = self
            .seed
            .wrapping_mul(Fnv64::PRIME)
            .wrapping_add((id.row as u64) << 40)
            .wrapping_add((id.col as u64) << 20)
            .wrapping_add(attempt as u64);
        unit(splitmix64(key)) < self.transient_rate
    }
}

/// Counters published by a [`FaultySource`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads that were allowed through to the inner source.
    pub delivered: u64,
    /// Injected transient failures.
    pub transient: u64,
    /// Injected corrupt-tile failures.
    pub corrupt: u64,
}

/// Wraps any [`TileSource`] and injects deterministic faults per
/// [`FaultSpec`]. Failure decisions depend only on `(seed, tile,
/// attempt-number)`, so a run with retries enabled is reproducible
/// bit-for-bit: the same attempts fail, the same retries succeed.
pub struct FaultySource<S> {
    inner: S,
    spec: FaultSpec,
    attempts: Mutex<HashMap<TileId, u32>>,
    stats: Mutex<FaultStats>,
}

impl<S: TileSource> FaultySource<S> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: S, spec: FaultSpec) -> FaultySource<S> {
        FaultySource {
            inner,
            spec,
            attempts: Mutex::new(HashMap::new()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }
}

impl<S: TileSource> TileSource for FaultySource<S> {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn nominal_overlap(&self) -> Option<f64> {
        self.inner.nominal_overlap()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts.entry(id).or_insert(0);
            *n += 1;
            *n
        };
        if !self.spec.latency.is_zero() {
            std::thread::sleep(self.spec.latency);
        }
        if self.spec.corrupt.contains(&id) {
            self.stats.lock().corrupt += 1;
            return Err(SourceError::Corrupt {
                id,
                detail: "injected: permanently corrupt tile".to_string(),
            });
        }
        if self.spec.transient_hit(id, attempt) {
            self.stats.lock().transient += 1;
            return Err(SourceError::Transient {
                id,
                detail: format!("injected: transient i/o failure (attempt {attempt})"),
            });
        }
        self.stats.lock().delivered += 1;
        self.inner.load(id)
    }
}

// ---------------------------------------------------------------------------
// health reporting
// ---------------------------------------------------------------------------

/// The outcome of reading one tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileStatus {
    /// Read succeeded on the first attempt.
    Ok,
    /// Read succeeded after `attempts` tries (≥ 2).
    Recovered {
        /// Total attempts including the successful one.
        attempts: u32,
    },
    /// The tile is permanently unavailable.
    Failed {
        /// Rendered [`SourceError`].
        error: String,
    },
}

/// Per-tile health of a stitching run, attached to every `StitchResult`.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthReport {
    /// The grid the statuses index into (row-major, like the grid).
    pub shape: GridShape,
    /// One status per tile, indexed by `shape.index(id)`.
    pub tiles: Vec<TileStatus>,
    /// Total retries spent across all tiles.
    pub total_retries: u64,
}

impl HealthReport {
    /// All-healthy report for a grid.
    pub fn new(shape: GridShape) -> HealthReport {
        HealthReport {
            shape,
            tiles: vec![TileStatus::Ok; shape.rows * shape.cols],
            total_retries: 0,
        }
    }

    /// Tiles that are permanently failed.
    pub fn failed_tiles(&self) -> Vec<TileId> {
        self.iter_status(|s| matches!(s, TileStatus::Failed { .. }))
    }

    /// Tiles that needed at least one retry.
    pub fn recovered_tiles(&self) -> Vec<TileId> {
        self.iter_status(|s| matches!(s, TileStatus::Recovered { .. }))
    }

    fn iter_status(&self, pred: impl Fn(&TileStatus) -> bool) -> Vec<TileId> {
        let mut out = Vec::new();
        for r in 0..self.shape.rows {
            for c in 0..self.shape.cols {
                let id = TileId::new(r, c);
                if pred(&self.tiles[self.shape.index(id)]) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// True when at least one tile failed permanently.
    pub fn is_degraded(&self) -> bool {
        self.tiles
            .iter()
            .any(|s| matches!(s, TileStatus::Failed { .. }))
    }

    /// Status of one tile.
    pub fn status(&self, id: TileId) -> &TileStatus {
        &self.tiles[self.shape.index(id)]
    }

    /// Machine-readable failure summary (hand-rolled JSON; the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        let failed: Vec<String> = self
            .failed_tiles()
            .into_iter()
            .map(|id| {
                let err = match self.status(id) {
                    TileStatus::Failed { error } => error.clone(),
                    _ => unreachable!(),
                };
                format!(
                    "{{\"row\": {}, \"col\": {}, \"error\": {}}}",
                    id.row,
                    id.col,
                    stitch_trace::json::quote(&err)
                )
            })
            .collect();
        let recovered: Vec<String> = self
            .recovered_tiles()
            .into_iter()
            .map(|id| {
                let attempts = match self.status(id) {
                    TileStatus::Recovered { attempts } => *attempts,
                    _ => unreachable!(),
                };
                format!(
                    "{{\"row\": {}, \"col\": {}, \"attempts\": {attempts}}}",
                    id.row, id.col
                )
            })
            .collect();
        format!(
            "{{\"rows\": {}, \"cols\": {}, \"total_tiles\": {}, \"failed\": [{}], \"recovered\": [{}], \"total_retries\": {}}}",
            self.shape.rows,
            self.shape.cols,
            self.shape.rows * self.shape.cols,
            failed.join(", "),
            recovered.join(", "),
            self.total_retries
        )
    }
}

/// Thread-safe accumulator for a [`HealthReport`], shared by the worker
/// threads of the concurrent stitcher variants.
pub struct FaultTracker {
    shape: GridShape,
    inner: Mutex<TrackerInner>,
}

struct TrackerInner {
    report: HealthReport,
    /// The failure of the lowest tile index so far, with that index.
    first_error: Option<(usize, SourceError)>,
}

impl FaultTracker {
    /// All-healthy tracker for a grid.
    pub fn new(shape: GridShape) -> FaultTracker {
        FaultTracker {
            shape,
            inner: Mutex::new(TrackerInner {
                report: HealthReport::new(shape),
                first_error: None,
            }),
        }
    }

    /// Loads a tile through [`load_with_retry`], recording the outcome.
    /// `None` means the tile failed permanently (already recorded).
    pub fn load(
        &self,
        source: &dyn TileSource,
        id: TileId,
        policy: &RetryPolicy,
    ) -> Option<Image<u16>> {
        match load_with_retry(source, id, policy) {
            Ok((img, attempts)) => {
                if attempts > 1 {
                    self.record_recovered(id, attempts);
                }
                Some(img)
            }
            Err(e) => {
                self.record_failure(id, e);
                None
            }
        }
    }

    /// Records a successful read that needed retries.
    fn record_recovered(&self, id: TileId, attempts: u32) {
        let mut inner = self.inner.lock();
        let slot = self.shape.index(id);
        // a re-read (ghost rows in Mt-CPU) must not downgrade Failed
        if !matches!(inner.report.tiles[slot], TileStatus::Failed { .. }) {
            inner.report.tiles[slot] = TileStatus::Recovered { attempts };
        }
        inner.report.total_retries += (attempts - 1) as u64;
    }

    /// Records a permanent failure. The error kept for the `StitchError`
    /// when partial output is not allowed is the first in row-major tile
    /// order, not the first to arrive: it must not depend on how the
    /// worker threads interleave.
    fn record_failure(&self, id: TileId, error: SourceError) {
        let mut inner = self.inner.lock();
        let slot = self.shape.index(id);
        if !matches!(inner.report.tiles[slot], TileStatus::Failed { .. }) {
            inner.report.tiles[slot] = TileStatus::Failed {
                error: error.to_string(),
            };
        }
        if inner
            .first_error
            .as_ref()
            .is_none_or(|(first, _)| slot < *first)
        {
            inner.first_error = Some((slot, error));
        }
    }

    /// Consumes the tracker. Returns the health report and, under a
    /// non-partial policy with failures, the error the stitcher must
    /// return.
    pub fn finish(self, policy: &FailurePolicy) -> Result<HealthReport, StitchError> {
        let inner = self.inner.into_inner();
        if !policy.allow_partial {
            if let Some((_, error)) = inner.first_error {
                let id = error.tile().unwrap_or(TileId::new(0, 0));
                return Err(StitchError::Tile { id, error });
            }
        }
        Ok(inner.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;

    fn tiny_source(rows: usize, cols: usize) -> MemorySource {
        let tiles: Vec<Image<u16>> = (0..rows * cols)
            .map(|i| Image::from_fn(8, 6, move |x, y| (i * 100 + x * 7 + y * 3) as u16))
            .collect();
        MemorySource::new(GridShape::new(rows, cols), tiles)
    }

    #[test]
    fn spec_parse_round_trip() {
        let (spec, device) =
            FaultSpec::parse("seed=7,transient=0.25,latency-ms=2,corrupt=0.1+2.3").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.transient_rate, 0.25);
        assert_eq!(spec.latency, Duration::from_millis(2));
        assert_eq!(spec.corrupt, vec![TileId::new(0, 1), TileId::new(2, 3)]);
        assert!(device.is_none(), "no gpu- keys means no gpu config");
    }

    #[test]
    fn spec_parse_splits_gpu_keys_rejects_typos() {
        assert!(FaultSpec::parse("gpu-h2d=0.5,gpu-oom=0.1")
            .unwrap()
            .0
            .is_noop());
        assert!(FaultSpec::parse("transeint=0.5").is_err());
        assert!(FaultSpec::parse("transient=1.5").is_err());
        assert!(FaultSpec::parse("corrupt=12").is_err());
        assert!(FaultSpec::parse("").unwrap().0.is_noop());
    }

    #[test]
    fn parse_reads_gpu_keys() {
        let (_, cfg) =
            FaultSpec::parse("transient=0.2,gpu-h2d=0.1,gpu-retries=3,gpu-seed=7").unwrap();
        let cfg = cfg.unwrap();
        assert_eq!(cfg.h2d_fail_rate, 0.1);
        assert_eq!(cfg.max_retries, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.d2h_fail_rate, 0.0);
    }

    #[test]
    fn parse_rejects_out_of_range_rate() {
        assert!(FaultSpec::parse("gpu-kernel=1.5").is_err());
        assert!(FaultSpec::parse("gpu-kernel=-0.1").is_err());
    }

    #[test]
    fn parse_rejects_unknown_gpu_key() {
        assert!(FaultSpec::parse("gpu-banana=1").is_err());
    }

    #[test]
    fn transient_decisions_are_deterministic_per_attempt() {
        let spec = FaultSpec {
            seed: 42,
            transient_rate: 0.5,
            ..FaultSpec::default()
        };
        let id = TileId::new(1, 2);
        let first: Vec<bool> = (1..=8).map(|a| spec.transient_hit(id, a)).collect();
        let second: Vec<bool> = (1..=8).map(|a| spec.transient_hit(id, a)).collect();
        assert_eq!(first, second);
        assert!(
            first.iter().any(|&b| b),
            "rate 0.5 over 8 attempts should hit"
        );
        assert!(
            !first.iter().all(|&b| b),
            "rate 0.5 over 8 attempts should miss too"
        );
    }

    #[test]
    fn faulty_source_injects_and_recovers() {
        let spec = FaultSpec {
            seed: 3,
            transient_rate: 0.4,
            ..FaultSpec::default()
        };
        let src = FaultySource::new(tiny_source(2, 2), spec);
        let policy = RetryPolicy {
            max_retries: 16,
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        for r in 0..2 {
            for c in 0..2 {
                let (img, _) = load_with_retry(&src, TileId::new(r, c), &policy).unwrap();
                assert_eq!(img.width(), 8);
            }
        }
        let stats = src.stats();
        assert_eq!(stats.delivered, 4);
        assert!(stats.transient > 0, "rate 0.4 over 4 tiles should inject");
    }

    #[test]
    fn corrupt_tile_is_not_retried() {
        let spec = FaultSpec {
            corrupt: vec![TileId::new(0, 1)],
            ..FaultSpec::default()
        };
        let src = FaultySource::new(tiny_source(1, 2), spec);
        let err = load_with_retry(&src, TileId::new(0, 1), &RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, SourceError::Corrupt { .. }));
        assert_eq!(src.stats().corrupt, 1, "exactly one attempt, no retries");
        assert!(load_with_retry(&src, TileId::new(0, 0), &RetryPolicy::default()).is_ok());
    }

    #[test]
    fn retry_budget_is_bounded() {
        let spec = FaultSpec {
            transient_rate: 1.0,
            ..FaultSpec::default()
        };
        let src = FaultySource::new(tiny_source(1, 1), spec);
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let err = load_with_retry(&src, TileId::new(0, 0), &policy).unwrap_err();
        assert!(err.is_retryable(), "last error is the transient one");
        assert_eq!(src.stats().transient, 4, "1 attempt + 3 retries");
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let spec = FaultSpec {
            transient_rate: 1.0,
            ..FaultSpec::default()
        };
        let src = FaultySource::new(tiny_source(1, 1), spec);
        let policy = RetryPolicy {
            max_retries: 1000,
            backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
            deadline: Some(Duration::from_millis(50)),
        };
        let t0 = Instant::now();
        let err = load_with_retry(&src, TileId::new(0, 0), &policy).unwrap_err();
        assert!(matches!(err, SourceError::DeadlineExceeded { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "deadline must bound time"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(6),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(1));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(4), Duration::from_millis(6));
        assert_eq!(p.backoff_for(30), Duration::from_millis(6));
    }

    #[test]
    fn tracker_builds_report_and_first_error() {
        let shape = GridShape::new(2, 2);
        let tracker = FaultTracker::new(shape);
        tracker.record_recovered(TileId::new(0, 0), 3);
        tracker.record_failure(
            TileId::new(1, 1),
            SourceError::Corrupt {
                id: TileId::new(1, 1),
                detail: "bad".into(),
            },
        );

        // partial allowed → report comes back degraded
        let report = tracker.finish(&FailurePolicy::partial()).unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.failed_tiles(), vec![TileId::new(1, 1)]);
        assert_eq!(report.recovered_tiles(), vec![TileId::new(0, 0)]);
        assert_eq!(report.total_retries, 2);
        let json = report.to_json();
        assert!(
            json.contains("\"failed\": [{\"row\": 1, \"col\": 1"),
            "{json}"
        );

        // partial not allowed → the error surfaces: the first lost tile
        // in grid order, whichever thread reported first
        let strict = FaultTracker::new(shape);
        for id in [TileId::new(1, 0), TileId::new(0, 1), TileId::new(1, 1)] {
            let detail = "gone".into();
            strict.record_failure(id, SourceError::Io { id, detail });
        }
        match strict.finish(&FailurePolicy::default()) {
            Err(StitchError::Tile { id, .. }) => assert_eq!(id, TileId::new(0, 1)),
            other => panic!("expected Tile error, got {other:?}"),
        }
    }

    #[test]
    fn healthy_report_json_is_clean() {
        let report = HealthReport::new(GridShape::new(1, 2));
        assert!(!report.is_degraded());
        assert!(report.to_json().contains("\"failed\": []"));
    }

    /// The failure text embeds the dataset path, which may hold any byte.
    #[test]
    fn report_json_escapes_control_characters() {
        let mut report = HealthReport::new(GridShape::new(1, 1));
        report.tiles[0] = TileStatus::Failed {
            error: "d\ts/img\r \u{1} \"q\" \\".into(),
        };
        let json = report.to_json();
        stitch_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(
            json.contains("d\\ts/img\\r \\u0001 \\\"q\\\" \\\\"),
            "{json}"
        );
    }
}
