//! Job descriptions, handles, and outcomes.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use stitch_canvas::SharedCanvas;
use stitch_core::{AbsolutePositions, PciamContext, StitchResult, TileSource};
use stitch_image::{Image, ScanConfig};
use stitch_trace::RunReport;

/// Which stitcher implementation a job runs: stitch-core's variant table
/// under the name job files, the CLI and the scheduler's callers use.
pub use stitch_core::Variant as JobVariant;

/// Fault-injection hooks carried by a job — the scheduler-level sibling
/// of the tile/GPU fault specs from the fault-tolerance layer. Both
/// hooks run *inside* the job's contained execution, so they exercise
/// the watchdog and panic-containment paths without touching real work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosHooks {
    /// Before doing any work, the job waits this many milliseconds on its
    /// own cancel signal — a stand-in for a hung job. A watchdog cancel
    /// (or an explicit [`JobHandle::cancel`]) ends the wait and reclaims
    /// the worker slot at once; `u64::MAX` hangs until cancelled.
    pub hang_ms: Option<u64>,
    /// Panic at the start of execution (after the hang, if both are
    /// set). The panic is contained; the job fails, siblings continue.
    pub panic_at_start: bool,
}

impl ChaosHooks {
    /// True when no hook is armed.
    pub fn is_noop(&self) -> bool {
        self.hang_ms.is_none() && !self.panic_at_start
    }
}

/// A caller-supplied [`TileSource`] carried by a job in place of the
/// synthetic plate the scheduler would otherwise generate from the
/// job's [`ScanConfig`]. Cloning shares the source (it is an `Arc`);
/// the sharded driver uses this to run many sub-grid views of one
/// plate through the scheduler.
#[derive(Clone)]
pub struct JobSource(Arc<dyn TileSource>);

impl JobSource {
    /// Wraps a shared tile source.
    pub fn new(source: Arc<dyn TileSource>) -> JobSource {
        JobSource(source)
    }

    /// The wrapped source as a trait object.
    pub fn as_dyn(&self) -> &dyn TileSource {
        &*self.0
    }
}

impl fmt::Debug for JobSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = self.0.shape();
        let (w, h) = self.0.tile_dims();
        write!(
            f,
            "JobSource({}x{} grid of {w}x{h} tiles)",
            shape.rows, shape.cols
        )
    }
}

/// One stitching job submitted to the [`Scheduler`](crate::Scheduler):
/// a synthetic grid spec plus execution parameters.
#[derive(Clone, Debug)]
pub struct StitchJob {
    /// Unique job name; per-job trace lanes appear as `job.<name>/…`.
    pub name: String,
    /// Owning tenant for quota accounting; `None` jobs are unscoped.
    /// When set, the job's memory reservation is charged against the
    /// tenant's [`ResourceArbiter`](crate::ResourceArbiter) scope cap
    /// (if one is configured) in addition to the global budget.
    pub tenant: Option<String>,
    /// The grid to stitch (the synthetic plate is generated from this,
    /// so a job is fully described by its spec — no file I/O needed).
    pub scan: ScanConfig,
    /// Implementation to run.
    pub variant: JobVariant,
    /// Compute threads for the multi-threaded variants.
    pub threads: usize,
    /// Scheduling weight, ≥ 1. Under contention a class of weight `2w`
    /// is dispatched twice as often as a class of weight `w` (stride
    /// scheduling); equal weights share fairly in submission order.
    pub priority: u32,
    /// Queued jobs not *started* within this much time of submission are
    /// abandoned with [`JobStatus::Expired`]. `None` never expires.
    pub deadline: Option<Duration>,
    /// Watchdog: a *running* job that has not finished within this much
    /// time of dispatch is cancelled by the scheduler and finishes as
    /// [`JobStatus::TimedOut`], releasing every lease it held. `None`
    /// runs unwatched.
    pub watchdog: Option<Duration>,
    /// Whether to compose the full mosaic after global optimization.
    pub compose: bool,
    /// Run the job through the incremental canvas path: tiles are
    /// registered in arrival (row-major) order onto a shared
    /// [`SharedCanvas`](stitch_canvas::SharedCanvas) with periodic
    /// re-solves, so [`JobHandle::preview_canvas`] serves progressive
    /// region previews while the job is still running. The final
    /// displacements and positions are bit-identical to the batch path
    /// (phase 1 is a pure per-pair function), but execution is
    /// sequential — `variant` is ignored for compute.
    pub preview: bool,
    /// Fault-injection hooks (hang / panic), for chaos testing.
    pub chaos: ChaosHooks,
    /// When set, the job stitches this source instead of generating a
    /// synthetic plate from `scan`. `scan` must still describe the
    /// source's geometry: it is what [`StitchJob::estimated_bytes`]
    /// sizes the admission-control reservation from.
    pub source: Option<JobSource>,
}

impl StitchJob {
    /// A single-threaded Simple-CPU job over `scan` with weight 1.
    pub fn new(name: impl Into<String>, scan: ScanConfig) -> StitchJob {
        StitchJob {
            name: name.into(),
            tenant: None,
            scan,
            variant: JobVariant::SimpleCpu,
            threads: 1,
            priority: 1,
            deadline: None,
            watchdog: None,
            compose: true,
            preview: false,
            chaos: ChaosHooks::default(),
            source: None,
        }
    }

    /// A single-threaded Simple-CPU job over a caller-supplied source.
    /// The job's [`ScanConfig`] is derived from the source's geometry so
    /// admission control reserves memory for the grid actually stitched.
    pub fn over_source(name: impl Into<String>, source: Arc<dyn TileSource>) -> StitchJob {
        let shape = source.shape();
        let (tw, th) = source.tile_dims();
        let scan = ScanConfig::for_grid(shape.rows.max(1), shape.cols.max(1), tw, th, 0.25, 0);
        let mut job = StitchJob::new(name, scan);
        job.source = Some(JobSource::new(source));
        job
    }

    /// Sets the owning tenant (quota-accounting scope).
    pub fn tenant(mut self, tenant: impl Into<String>) -> StitchJob {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the running-time watchdog.
    pub fn watchdog(mut self, watchdog: Duration) -> StitchJob {
        self.watchdog = Some(watchdog);
        self
    }

    /// Sets the chaos hooks.
    pub fn chaos(mut self, chaos: ChaosHooks) -> StitchJob {
        self.chaos = chaos;
        self
    }

    /// Sets the implementation variant.
    pub fn variant(mut self, variant: JobVariant) -> StitchJob {
        self.variant = variant;
        self
    }

    /// Sets the compute thread count.
    pub fn threads(mut self, threads: usize) -> StitchJob {
        self.threads = threads.max(1);
        self
    }

    /// Sets the scheduling weight (clamped to ≥ 1).
    pub fn priority(mut self, priority: u32) -> StitchJob {
        self.priority = priority.max(1);
        self
    }

    /// Sets the queue deadline.
    pub fn deadline(mut self, deadline: Duration) -> StitchJob {
        self.deadline = Some(deadline);
        self
    }

    /// Sets whether the mosaic is composed.
    pub fn compose(mut self, compose: bool) -> StitchJob {
        self.compose = compose;
        self
    }

    /// Sets whether the job runs the incremental preview-canvas path
    /// (see [`StitchJob::preview`]).
    pub fn preview(mut self, preview: bool) -> StitchJob {
        self.preview = preview;
        self
    }

    /// Host-memory bytes the scheduler reserves before running this job:
    /// the bounded spectrum-pool quota (`quota ×`
    /// [`PciamContext::spectrum_bytes`]) plus the in-flight tile images the
    /// transform pool admits. This is the admission-control cost model —
    /// intentionally a ceiling, so the budget is never over-committed by
    /// jobs that allocate less.
    pub fn estimated_bytes(&self) -> usize {
        let (w, h) = (self.scan.tile_width, self.scan.tile_height);
        let quota = self.spectrum_quota();
        let spectra = quota * PciamContext::spectrum_bytes(w, h);
        let tiles = quota * w * h * std::mem::size_of::<u16>();
        spectra + tiles
    }

    /// Spectrum-pool lease quota for this job: the pipelined transform
    /// pool bound (`4·min_dim + 8`, the most buffers any variant holds
    /// live at once) plus one slack buffer per compute thread.
    pub fn spectrum_quota(&self) -> usize {
        let min_dim = self.scan.grid_rows.min(self.scan.grid_cols);
        (4 * min_dim + 8).max(4) + self.threads
    }
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Cancelled via [`JobHandle::cancel`] before or between phases.
    Cancelled,
    /// Sat in the queue past its deadline and was never started.
    Expired,
    /// Ran past its [`StitchJob::watchdog`] deadline and was cancelled
    /// by the scheduler's watchdog; every lease was reclaimed.
    TimedOut,
    /// The stitcher returned an error (or panicked; the panic is
    /// contained and reported here).
    Failed(String),
}

/// Everything a finished job produced.
#[derive(Clone)]
pub struct JobOutcome {
    /// Job name, as submitted.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Phase-1 result (present when the job got that far).
    pub result: Option<StitchResult>,
    /// Phase-2 globally optimized positions.
    pub positions: Option<AbsolutePositions>,
    /// Phase-3 mosaic (when `compose` was requested).
    pub mosaic: Option<Image<u16>>,
    /// Per-job run report derived from the job's private trace lane
    /// (present when the scheduler ran with tracing enabled).
    pub report: Option<RunReport>,
    /// Wall time from dispatch to finish (zero for never-started jobs).
    pub elapsed: Duration,
}

impl JobOutcome {
    pub(crate) fn unstarted(name: &str, status: JobStatus) -> JobOutcome {
        JobOutcome {
            name: name.to_string(),
            status,
            result: None,
            positions: None,
            mosaic: None,
            report: None,
            elapsed: Duration::ZERO,
        }
    }
}

pub(crate) struct JobShared {
    pub(crate) name: String,
    pub(crate) cancel: AtomicBool,
    /// Set (together with `cancel`) when the cancellation came from the
    /// scheduler's watchdog, so the outcome reads `TimedOut` rather
    /// than `Cancelled`.
    pub(crate) timed_out: AtomicBool,
    /// 1-based position in the scheduler's dispatch order, stamped by the
    /// dispatcher under the queue lock; 0 until the job is dispatched.
    pub(crate) dispatch_seq: AtomicU64,
    pub(crate) outcome: Mutex<Option<JobOutcome>>,
    /// Notified when the outcome is set and when the job is cancelled.
    pub(crate) done: Condvar,
    /// Pokes the scheduler's dispatcher so a cancelled *queued* job is
    /// finalized promptly instead of at the next natural wakeup.
    pub(crate) wake_hook: Box<dyn Fn() + Send + Sync>,
    /// Live preview canvas, installed at submit time for preview jobs
    /// so callers can read regions while the job runs.
    pub(crate) preview: Mutex<Option<Arc<SharedCanvas>>>,
}

/// Caller-side handle to a submitted job: await or cancel it.
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    pub(crate) fn new(name: &str, wake_hook: impl Fn() + Send + Sync + 'static) -> JobHandle {
        JobHandle {
            shared: Arc::new(JobShared {
                name: name.to_string(),
                cancel: AtomicBool::new(false),
                timed_out: AtomicBool::new(false),
                dispatch_seq: AtomicU64::new(0),
                outcome: Mutex::new(None),
                done: Condvar::new(),
                wake_hook: Box::new(wake_hook),
                preview: Mutex::new(None),
            }),
        }
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Requests cancellation. A queued job is dropped without running; a
    /// running job stops at its next phase boundary and releases every
    /// lease it holds. Idempotent; racing a natural completion is fine
    /// (the job just completes).
    pub fn cancel(&self) {
        self.signal_cancel();
        (self.shared.wake_hook)();
    }

    /// [`JobHandle::cancel`] without the poke, for the scheduler's own
    /// paths: they hold the queue lock the poke takes, and wake the
    /// dispatcher themselves (or are it).
    pub(crate) fn signal_cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
        // wakes a chaos hang waiting in `cancelled_within`
        let _slot = self.shared.outcome.lock();
        self.shared.done.notify_all();
    }

    /// Blocks until the job is cancelled or `limit` has passed; true
    /// when it was cancelled.
    pub(crate) fn cancelled_within(&self, limit: Duration) -> bool {
        let t0 = Instant::now();
        let mut slot = self.shared.outcome.lock();
        while !self.cancelled() && t0.elapsed() < limit {
            let left = limit.saturating_sub(t0.elapsed());
            self.shared.done.wait_for(&mut slot, left);
        }
        self.cancelled()
    }

    /// The job's 1-based position in the order the scheduler *started*
    /// jobs; `None` while it is queued, and for good if it was cancelled
    /// or expired before it ran. A finished job that ran always has one.
    pub fn dispatch_seq(&self) -> Option<u64> {
        Some(self.shared.dispatch_seq.load(Ordering::Acquire)).filter(|&seq| seq > 0)
    }

    /// True once a terminal outcome is available.
    pub fn is_done(&self) -> bool {
        self.shared.outcome.lock().is_some()
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.shared.outcome.lock();
        while slot.is_none() {
            self.shared.done.wait(&mut slot);
        }
        slot.clone().expect("outcome present")
    }

    /// The job's live preview canvas, when it was submitted with
    /// [`StitchJob::preview`]. Available from the moment `submit`
    /// returns — regions read before (or while) tiles land simply come
    /// back as background zeros, and the canvas stays readable after
    /// the job finishes.
    pub fn preview_canvas(&self) -> Option<Arc<SharedCanvas>> {
        self.shared.preview.lock().clone()
    }

    pub(crate) fn set_preview_canvas(&self, canvas: Arc<SharedCanvas>) {
        *self.shared.preview.lock() = Some(canvas);
    }

    pub(crate) fn cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::Acquire)
    }

    /// Watchdog-flavored cancellation: like [`JobHandle::cancel`], but
    /// the terminal status becomes [`JobStatus::TimedOut`].
    pub(crate) fn cancel_timeout(&self) {
        self.shared.timed_out.store(true, Ordering::Release);
        self.signal_cancel();
    }

    /// The status a cancellation should resolve to: `TimedOut` when the
    /// cancel came from the watchdog, `Cancelled` otherwise.
    pub(crate) fn cancel_status(&self) -> JobStatus {
        if self.shared.timed_out.load(Ordering::Acquire) {
            JobStatus::TimedOut
        } else {
            JobStatus::Cancelled
        }
    }

    pub(crate) fn finish(&self, outcome: JobOutcome) {
        let mut slot = self.shared.outcome.lock();
        *slot = Some(outcome);
        self.shared.done.notify_all();
    }

    pub(crate) fn clone_internal(&self) -> JobHandle {
        JobHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Names of the dispatched jobs among `handles`, in the order the
/// scheduler started them (stable evidence for fairness tests).
pub(crate) fn dispatch_order(handles: &[JobHandle]) -> Vec<String> {
    let mut started: Vec<(u64, &str)> = handles
        .iter()
        .filter_map(|h| Some((h.dispatch_seq()?, h.name())))
        .collect();
    started.sort_unstable();
    started.into_iter().map(|(_, n)| n.to_string()).collect()
}
