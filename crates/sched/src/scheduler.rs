//! The multi-job scheduler: admission control, fair-share + priority
//! dispatch, cancellation, and backpressure over shared substrates.
//!
//! ## Structure
//!
//! ```text
//! submit ──▶ pending queue ──▶ dispatcher ──▶ N job-slot threads
//!              (bounded)      (stride pick,       │
//!                              admission)         ├─ shared FFT plan cache
//!                                                 ├─ bounded SpectrumPool quota
//!                                                 ├─ shared Device (stream lease)
//!                                                 └─ per-job TraceHandle lane
//! ```
//!
//! * **Backpressure** — [`Scheduler::submit`] refuses
//!   ([`SubmitError::Busy`]) once `max_pending` jobs are queued;
//!   [`Scheduler::submit_blocking`] waits instead. Nothing queues
//!   unboundedly.
//! * **Admission control** — a job's [`StitchJob::estimated_bytes`] is
//!   reserved from the [`ResourceArbiter`] *before* it is dispatched; a
//!   job that cannot currently fit stays queued, and a job that can
//!   *never* fit is rejected at submission ([`SubmitError::TooLarge`]).
//!   The arbiter's high-water mark therefore never exceeds the budget.
//! * **Fair-share + priority** — stride scheduling across priority
//!   classes: each class `w` advances a virtual pass by `STRIDE / w` per
//!   dispatch, and the dispatcher picks the admissible job with the
//!   lowest pass (ties: higher weight, then submission order). A class
//!   with twice the weight gets twice the dispatch share under
//!   contention, and no class starves.
//! * **Cancellation** — [`JobHandle::cancel`] drops a queued job without
//!   running it and stops a running job at its next phase boundary;
//!   either way every lease (memory reservation, pool buffers, stream
//!   slot) is released by RAII.
//! * **Panic containment** — the scheduler owns `workers` long-lived
//!   job-slot threads; each runs its tasks under `catch_unwind`, and a
//!   drop-guard finalizes the job's outcome and releases its reservation
//!   during unwinding, so a crashing job cannot cost a slot, leak budget
//!   or deadlock siblings.
//! * **Lifecycle events** — every [`Scheduler::subscribe`]r is pushed a
//!   job's [`JobEvent::Running`] at dispatch and its [`JobEvent::Done`]
//!   once its outcome is set and its leases are released. Nothing polls.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use stitch_canvas::{run_incremental, CanvasConfig, IncrementalConfig, SharedCanvas};
use stitch_core::{
    run_pass, Blend, FailurePolicy, MosaicSpec, Pass, PciamContext, Resources, StitchError,
    SyntheticSource, TileSource,
};
use stitch_fft::PlanMode;
use stitch_gpu::Device;
use stitch_image::SyntheticPlate;
use stitch_trace::{RunReport, TraceHandle};

use crate::arbiter::ResourceArbiter;
use crate::job::{JobHandle, JobOutcome, JobStatus, JobVariant, StitchJob};

/// Stride-scheduling scale: a class of weight `w` advances its pass by
/// `STRIDE / w` per dispatch.
const STRIDE: u64 = 1 << 20;

/// Scheduler construction parameters.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Maximum concurrently *running* jobs (job-slot threads).
    pub workers: usize,
    /// Host-memory byte budget for admission control.
    pub memory_budget: usize,
    /// Maximum *queued* (not yet running) jobs before submissions push
    /// back.
    pub max_pending: usize,
    /// Shared simulated device for GPU-variant jobs; `None` makes GPU
    /// jobs unsubmittable.
    pub device: Option<Device>,
    /// Master trace. When enabled, each job records into a private
    /// handle that is merged back under a `job.<name>/` lane prefix, and
    /// per-job [`RunReport`]s are attached to outcomes.
    pub trace: TraceHandle,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            memory_budget: 256 << 20,
            max_pending: 64,
            device: None,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Why a submission was refused. Refusal is synchronous and leaves the
/// scheduler unchanged — there is no half-admitted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at `max_pending` (backpressure). Retry, or
    /// use [`Scheduler::submit_blocking`].
    Busy {
        /// Jobs currently queued.
        pending: usize,
        /// The configured bound.
        max_pending: usize,
    },
    /// The job's estimated footprint exceeds the whole memory budget —
    /// it could never be admitted.
    TooLarge {
        /// Estimated bytes for the job.
        requested: usize,
        /// The scheduler's total budget.
        budget: usize,
    },
    /// A GPU-variant job was submitted to a scheduler with no device.
    NeedsDevice(
        /// The offending variant.
        JobVariant,
    ),
    /// The scheduler is shutting down.
    ShuttingDown,
    /// The scheduler is draining ([`Scheduler::drain`]): in-flight jobs
    /// finish (or are cancelled, by policy) but nothing new is admitted.
    Draining,
    /// A job with this name is already queued or running.
    DuplicateName(
        /// The duplicated name.
        String,
    ),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy {
                pending,
                max_pending,
            } => write!(f, "queue full: {pending}/{max_pending} pending"),
            SubmitError::TooLarge { requested, budget } => {
                write!(f, "job needs {requested} B, budget is {budget} B")
            }
            SubmitError::NeedsDevice(v) => {
                write!(f, "variant {} needs a shared device", v.token())
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
            SubmitError::Draining => write!(f, "scheduler is draining"),
            SubmitError::DuplicateName(n) => write!(f, "job name '{n}' already in flight"),
        }
    }
}

/// What happens to in-flight jobs when a [`Scheduler::drain`] begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Queued jobs still run; everything in flight finishes naturally
    /// (watchdogs keep firing, so a hung-but-watched job still ends).
    Finish,
    /// Queued jobs are cancelled without running; running jobs finish.
    CancelPending,
    /// Queued jobs are cancelled and running jobs are asked to stop at
    /// their next phase boundary.
    CancelAll,
}

/// The `--drain` / `drain policy=` tokens.
impl std::str::FromStr for DrainPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<DrainPolicy, String> {
        match s {
            "finish" => Ok(DrainPolicy::Finish),
            "cancel-pending" => Ok(DrainPolicy::CancelPending),
            "cancel-all" => Ok(DrainPolicy::CancelAll),
            other => Err(format!(
                "unknown policy '{other}' (expected finish, cancel-pending, or cancel-all)"
            )),
        }
    }
}

/// A job lifecycle transition, pushed to every [`Scheduler::subscribe`]r
/// in the order the scheduler made them: a job's `Running` (absent if it
/// never ran) precedes its `Done`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobEvent {
    /// The named job was dispatched to a slot.
    Running(String),
    /// The named job reached its terminal state and released every
    /// lease; its outcome is on its [`JobHandle`].
    Done(String),
}

/// What a completed [`Scheduler::drain`] observed.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Queued jobs cancelled by the drain policy.
    pub cancelled_queued: usize,
    /// Running jobs signalled to cancel by the drain policy.
    pub signalled_running: usize,
    /// Wall time from drain start until the scheduler was empty.
    pub elapsed: Duration,
}

struct PendingJob {
    job: StitchJob,
    handle: JobHandle,
    seq: u64,
    submitted: Instant,
}

/// Scheduler-side record of a dispatched job, kept until its guard
/// drops: the watchdog scans these for overdue runs.
struct RunningJob {
    name: String,
    handle: JobHandle,
    started: Instant,
    watchdog: Option<Duration>,
}

struct QueueState {
    pending: Vec<PendingJob>,
    names_in_flight: Vec<String>,
    seq: u64,
    class_pass: HashMap<u32, u64>,
    running: usize,
    running_jobs: Vec<RunningJob>,
    /// Jobs dispatched so far; the next one's [`JobHandle::dispatch_seq`].
    dispatched: u64,
    /// Dispatch is held ([`Scheduler::pause`]). Lives under the queue
    /// lock because the dispatcher reads it and then waits on `wake`
    /// under that lock: a writer outside it could clear the flag and
    /// notify between the read and the wait, and the wakeup would be
    /// lost with every job still queued.
    paused: bool,
}

struct SchedInner {
    workers: usize,
    max_pending: usize,
    device: Option<Device>,
    trace: TraceHandle,
    arbiter: ResourceArbiter,
    queue: Mutex<QueueState>,
    wake: Condvar,
    shutdown: AtomicBool,
    draining: AtomicBool,
    subs: Mutex<Vec<mpsc::Sender<JobEvent>>>,
}

impl SchedInner {
    /// Sends `event()` to every subscriber, pruning those that went away.
    /// Callers hold the queue lock, so every subscriber sees one order.
    fn publish(&self, event: impl Fn() -> JobEvent) {
        self.subs.lock().retain(|tx| tx.send(event()).is_ok());
    }
}

/// The multi-job scheduler. Dropping it drains every queued and running
/// job (prefer [`Scheduler::join`] to observe completion explicitly).
pub struct Scheduler {
    inner: Arc<SchedInner>,
    /// Owns the sending half of the task channel: when it exits, the
    /// slots drain what is queued and stop.
    dispatcher: Option<std::thread::JoinHandle<()>>,
    slots: Vec<std::thread::JoinHandle<()>>,
}

/// A dispatched job, bound to its guard, on its way to a slot thread.
type Task = Box<dyn FnOnce() + Send>;

impl Scheduler {
    /// Starts a scheduler: one dispatcher thread plus `config.workers`
    /// job-slot threads, all alive until the scheduler drops.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let workers = config.workers.max(1);
        let inner = Arc::new(SchedInner {
            workers,
            max_pending: config.max_pending.max(1),
            device: config.device,
            trace: config.trace,
            arbiter: ResourceArbiter::new(config.memory_budget),
            queue: Mutex::new(QueueState {
                pending: Vec::new(),
                names_in_flight: Vec::new(),
                seq: 0,
                class_pass: HashMap::new(),
                running: 0,
                running_jobs: Vec::new(),
                dispatched: 0,
                paused: false,
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            subs: Mutex::new(Vec::new()),
        });
        let (tasks, slot_rx) = mpsc::channel::<Task>();
        let slot_rx = Arc::new(Mutex::new(slot_rx));
        let slots = (0..workers)
            .map(|i| {
                let slot_rx = Arc::clone(&slot_rx);
                std::thread::Builder::new()
                    .name(format!("stitch-job.{i}"))
                    .spawn(move || slot_loop(&slot_rx))
                    .expect("spawn job slot")
            })
            .collect();
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("stitch-sched".into())
                .spawn(move || dispatcher_loop(&inner, &tasks))
                .expect("spawn dispatcher")
        };
        Scheduler {
            inner,
            dispatcher: Some(dispatcher),
            slots,
        }
    }

    /// The shared-resource arbiter (budget counters, plan cache, pool
    /// audit).
    pub fn arbiter(&self) -> &ResourceArbiter {
        &self.inner.arbiter
    }

    /// A stream of every job's [`JobEvent`]s from now on. It ends when
    /// the scheduler drops; a receiver that goes away is pruned.
    pub fn subscribe(&self) -> mpsc::Receiver<JobEvent> {
        let (tx, rx) = mpsc::channel();
        self.inner.subs.lock().push(tx);
        rx
    }

    /// Jobs queued but not yet dispatched.
    pub fn pending(&self) -> usize {
        self.inner.queue.lock().pending.len()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.inner.queue.lock().running
    }

    /// Stops dispatching new jobs until [`Scheduler::resume`]; queued
    /// jobs wait, running jobs continue. Lets tests submit a batch
    /// atomically before any dispatch order is decided.
    pub fn pause(&self) {
        self.inner.queue.lock().paused = true;
    }

    /// Resumes dispatching after [`Scheduler::pause`].
    pub fn resume(&self) {
        self.inner.queue.lock().paused = false;
        self.inner.wake.notify_all();
    }

    /// Submits a job without blocking; see [`SubmitError`] for the
    /// refusal cases.
    pub fn submit(&self, job: StitchJob) -> Result<JobHandle, SubmitError> {
        self.submit_inner(job, false)
    }

    /// Like [`Scheduler::submit`], but waits for queue space instead of
    /// returning [`SubmitError::Busy`].
    pub fn submit_blocking(&self, job: StitchJob) -> Result<JobHandle, SubmitError> {
        self.submit_inner(job, true)
    }

    fn submit_inner(&self, job: StitchJob, block: bool) -> Result<JobHandle, SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        if self.inner.draining.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        if job.variant.needs_device() && self.inner.device.is_none() {
            return Err(SubmitError::NeedsDevice(job.variant));
        }
        // The reservation follows the grid's shorter side; a job that
        // renders its own synthetic plate also needs the plate, which
        // follows the grid's area and is checked here, before anything
        // of that size is generated.
        let bytes = match job.source {
            Some(_) => job.estimated_bytes(),
            None => job.estimated_bytes().max(job.scan.plate_bytes()),
        };
        // A job that can never fit — the global budget, or its own
        // tenant's cap — is rejected outright rather than queued forever.
        let hard_cap = job
            .tenant
            .as_deref()
            .and_then(|t| self.inner.arbiter.scope_cap(t))
            .map_or(self.inner.arbiter.budget(), |cap| {
                cap.min(self.inner.arbiter.budget())
            });
        if bytes > hard_cap {
            return Err(SubmitError::TooLarge {
                requested: bytes,
                budget: hard_cap,
            });
        }
        let mut q = self.inner.queue.lock();
        while q.pending.len() >= self.inner.max_pending {
            if !block {
                return Err(SubmitError::Busy {
                    pending: q.pending.len(),
                    max_pending: self.inner.max_pending,
                });
            }
            self.inner.wake.wait(&mut q);
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if self.inner.draining.load(Ordering::Acquire) {
                return Err(SubmitError::Draining);
            }
        }
        if q.names_in_flight.iter().any(|n| n == &job.name) {
            return Err(SubmitError::DuplicateName(job.name.clone()));
        }
        let inner = Arc::clone(&self.inner);
        // The poke takes the queue lock, like `resume`: the dispatcher holds
        // it from its scan of `pending` until it waits, so the notify cannot
        // fall between the two and be lost.
        let handle = JobHandle::new(&job.name, move || {
            let _q = inner.queue.lock();
            inner.wake.notify_all();
        });
        if job.preview {
            // Installed before the job is queued so the caller can start
            // polling regions immediately; unplaced areas read as zeros.
            handle.set_preview_canvas(Arc::new(SharedCanvas::new(CanvasConfig::default())));
        }
        q.names_in_flight.push(job.name.clone());
        q.seq += 1;
        let seq = q.seq;
        q.pending.push(PendingJob {
            job,
            handle: handle.clone_internal(),
            seq,
            submitted: Instant::now(),
        });
        drop(q);
        self.inner.wake.notify_all();
        Ok(handle)
    }

    /// Blocks until every queued and running job has reached a terminal
    /// state. New submissions remain possible afterwards.
    pub fn join(&self) {
        let mut q = self.inner.queue.lock();
        while !q.pending.is_empty() || q.running > 0 {
            self.inner.wake.wait(&mut q);
        }
    }

    /// Drains the scheduler: admission stops immediately (subsequent
    /// submissions fail with [`SubmitError::Draining`]), in-flight jobs
    /// are finished or cancelled per `policy`, and the call blocks until
    /// every job has reached a terminal state and released its leases.
    /// Idempotent; concurrent drains all block until the queue is empty.
    pub fn drain(&self, policy: DrainPolicy) -> DrainReport {
        let t0 = Instant::now();
        self.inner.draining.store(true, Ordering::Release);
        let mut cancelled_queued = 0;
        let mut signalled_running = 0;
        {
            let q = self.inner.queue.lock();
            if matches!(policy, DrainPolicy::CancelPending | DrainPolicy::CancelAll) {
                for p in &q.pending {
                    p.handle.signal_cancel();
                    cancelled_queued += 1;
                }
            }
            if matches!(policy, DrainPolicy::CancelAll) {
                for r in &q.running_jobs {
                    r.handle.signal_cancel();
                    signalled_running += 1;
                }
            }
        }
        // Wake blocked submitters (they must observe Draining) and the
        // dispatcher (it finalizes the cancelled queued jobs).
        self.inner.wake.notify_all();
        let mut q = self.inner.queue.lock();
        while !q.pending.is_empty() || q.running > 0 {
            self.inner.wake.wait(&mut q);
        }
        DrainReport {
            cancelled_queued,
            signalled_running,
            elapsed: t0.elapsed(),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // Drain: the dispatcher keeps dispatching until the queue is
        // empty, then exits and drops the task sender; the slots finish
        // what was dispatched and are joined.
        {
            // `shutdown` is also read by the dispatcher just before it
            // waits, so it is set under the queue lock like `paused`
            let mut q = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::Release);
            q.paused = false;
        }
        self.inner.wake.notify_all();
        // dispatcher first: it drops the sender the slots wait on
        let threads = self.dispatcher.take().into_iter();
        for thread in threads.chain(self.slots.drain(..)) {
            let _ = thread.join();
        }
        self.inner.subs.lock().clear();
    }
}

/// One job slot: runs dispatched tasks in turn until the dispatcher has
/// dropped the sender and the channel is empty. `run_job` contains the
/// stitcher's panics itself; the `catch_unwind` here covers the rest of
/// the task, so no panic can cost the scheduler a slot.
fn slot_loop(tasks: &Mutex<mpsc::Receiver<Task>>) {
    loop {
        // the lock is held while waiting, not while running: slots take
        // turns receiving and run in parallel
        let task = tasks.lock().recv();
        let Ok(task) = task else { return };
        let _ = std::panic::catch_unwind(AssertUnwindSafe(task));
    }
}

fn dispatcher_loop(inner: &Arc<SchedInner>, slots: &mpsc::Sender<Task>) {
    loop {
        let mut q = inner.queue.lock();
        // Finalize cancelled / expired queued jobs first: they hold no
        // resources, they just need terminal outcomes.
        let mut i = 0;
        while i < q.pending.len() {
            let p = &q.pending[i];
            let verdict = if p.handle.cancelled() {
                Some(p.handle.cancel_status())
            } else if p.job.deadline.is_some_and(|d| p.submitted.elapsed() >= d) {
                Some(JobStatus::Expired)
            } else {
                None
            };
            match verdict {
                Some(status) => {
                    let p = q.pending.remove(i);
                    q.names_in_flight.retain(|n| n != &p.job.name);
                    p.handle.finish(JobOutcome::unstarted(&p.job.name, status));
                    inner.publish(|| JobEvent::Done(p.job.name.clone()));
                    inner.wake.notify_all();
                }
                None => i += 1,
            }
        }

        // Watchdog: cancel running jobs past their run deadline. The
        // cancel is idempotent, so rescanning an already-signalled job
        // is harmless; the entry leaves the list when its guard drops.
        for r in &q.running_jobs {
            if r.watchdog.is_some_and(|wd| r.started.elapsed() >= wd) {
                r.handle.cancel_timeout();
            }
        }

        // On shutdown the dispatcher stays alive while any *watched*
        // job is still running: a hung job needs the watchdog to fire
        // before its slot thread can ever be joined.
        if inner.shutdown.load(Ordering::Acquire)
            && q.pending.is_empty()
            && q.running_jobs.iter().all(|r| r.watchdog.is_none())
        {
            return;
        }

        let mut dispatched = false;
        if !q.paused && q.running < inner.workers {
            // Stride pick: lowest class pass wins; ties prefer heavier
            // weight, then submission order. Skip jobs whose reservation
            // does not currently fit (they stay queued).
            let mut order: Vec<usize> = (0..q.pending.len()).collect();
            let passes = &q.class_pass;
            order.sort_by_key(|&i| {
                let p = &q.pending[i];
                (
                    *passes.get(&p.job.priority).unwrap_or(&0),
                    u64::from(u32::MAX - p.job.priority),
                    p.seq,
                )
            });
            for idx in order {
                let bytes = q.pending[idx].job.estimated_bytes();
                let scope = q.pending[idx].job.tenant.clone();
                if let Ok(reservation) = inner.arbiter.try_reserve_scoped(scope.as_deref(), bytes) {
                    let p = q.pending.remove(idx);
                    let weight = p.job.priority.max(1);
                    let pass = q.class_pass.entry(weight).or_insert(0);
                    *pass += STRIDE / u64::from(weight);
                    q.running += 1;
                    q.running_jobs.push(RunningJob {
                        name: p.job.name.clone(),
                        handle: p.handle.clone_internal(),
                        started: Instant::now(),
                        watchdog: p.job.watchdog,
                    });
                    q.dispatched += 1;
                    p.handle
                        .shared
                        .dispatch_seq
                        .store(q.dispatched, Ordering::Release);
                    inner.publish(|| JobEvent::Running(p.job.name.clone()));
                    let guard = JobGuard {
                        inner: Arc::clone(inner),
                        name: p.job.name.clone(),
                        handle: p.handle.clone_internal(),
                        _reservation: Some(reservation),
                    };
                    let task_inner = Arc::clone(inner);
                    slots
                        .send(Box::new(move || {
                            run_job(&task_inner, p.job, p.handle, guard)
                        }))
                        .expect("job slots outlive the dispatcher");
                    // Queue space just freed: wake submit_blocking waiters.
                    inner.wake.notify_all();
                    dispatched = true;
                    break;
                }
            }
        }

        if !dispatched {
            // Nothing admissible right now: sleep until a submit,
            // cancel, resume, job completion, or shutdown pokes us — or
            // until the next watchdog deadline needs a scan. A cancelled
            // job's deadline is spent: waking for it would poll each
            // millisecond until the job reaches its next phase boundary.
            let next_watchdog = q
                .running_jobs
                .iter()
                .filter(|r| !r.handle.cancelled())
                .filter_map(|r| {
                    let wd = r.watchdog?;
                    Some(wd.saturating_sub(r.started.elapsed()))
                })
                .min();
            match next_watchdog {
                // +1ms so the deadline has actually passed when we scan.
                Some(dur) => {
                    let _ = inner.wake.wait_for(&mut q, dur + Duration::from_millis(1));
                }
                None => inner.wake.wait(&mut q),
            }
        }
    }
}

/// Drop-guard owning a running job's scheduler-side leases. Runs on
/// every exit path — normal completion, cancellation, *and* panic
/// unwinding — so a crashed job still releases its memory reservation,
/// decrements the running count, finalizes its outcome (waiters never
/// hang), publishes its `Done`, and wakes the dispatcher.
struct JobGuard {
    inner: Arc<SchedInner>,
    name: String,
    handle: JobHandle,
    _reservation: Option<crate::arbiter::MemReservation>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self._reservation.take(); // release bytes before waking anyone
        if !self.handle.is_done() {
            // Reached only when run_job unwound before finishing.
            self.handle.finish(JobOutcome::unstarted(
                &self.name,
                JobStatus::Failed("job panicked".into()),
            ));
        }
        let mut q = self.inner.queue.lock();
        q.running = q.running.saturating_sub(1);
        q.running_jobs.retain(|r| r.name != self.name);
        q.names_in_flight.retain(|n| n != &self.name);
        self.inner.publish(|| JobEvent::Done(self.name.clone()));
        drop(q);
        self.inner.wake.notify_all();
    }
}

fn run_job(inner: &Arc<SchedInner>, job: StitchJob, handle: JobHandle, guard: JobGuard) {
    let _guard = guard;
    let t0 = Instant::now();
    if handle.cancelled() {
        handle.finish(JobOutcome::unstarted(&job.name, handle.cancel_status()));
        return;
    }
    // Chaos hang hook: a cancellable stand-in for a hung job. It waits on
    // the job's cancel signal, so a watchdog cancel (or an explicit one)
    // reclaims the worker at once.
    let hang = job.chaos.hang_ms.map(Duration::from_millis);
    if hang.is_some_and(|hang| handle.cancelled_within(hang)) {
        let mut out = JobOutcome::unstarted(&job.name, handle.cancel_status());
        out.elapsed = t0.elapsed();
        handle.finish(out);
        return;
    }
    let job_trace = if inner.trace.is_enabled() {
        TraceHandle::new()
    } else {
        TraceHandle::disabled()
    };
    // GPU jobs check a stream out of the shared device for their whole
    // run: the lease gates concurrent GPU jobs when `stream_slots` is
    // configured and its counters let tests assert lease hygiene.
    let _stream_lease = match (&inner.device, job.variant.needs_device()) {
        (Some(device), true) => Some(device.lease_stream(&format!("job.{}", job.name))),
        _ => None,
    };

    // A job either carries its own tile source (e.g. a shard view of a
    // larger plate) or is fully described by its scan spec, from which a
    // synthetic plate is generated here.
    let generated;
    let source: &dyn TileSource = match &job.source {
        Some(s) => s.as_dyn(),
        None => {
            generated = SyntheticSource::new(SyntheticPlate::generate(job.scan.clone()));
            &generated
        }
    };
    let mut out = JobOutcome::unstarted(&job.name, JobStatus::Completed);
    // Phase 1 is the stitcher's: a panic there fails the job here. One
    // past the first phase boundary unwinds on to the guard, which fails
    // the job the same way a panic anywhere else in it does.
    let past_phase1 = Cell::new(false);
    let stop = || {
        past_phase1.set(true);
        handle.cancelled()
    };
    let pass = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if job.chaos.panic_at_start {
            panic!("chaos: injected job panic");
        }
        if job.preview {
            return run_preview(source, &handle, job.compose, &stop);
        }
        // the arbitrated substrates: a bounded per-job pool quota and the
        // shared FFT plan cache
        let buf_len = PciamContext::spectrum_len(source.tile_dims(), source.nominal_overlap());
        let stitcher = job.variant.build(&Resources {
            threads: job.threads,
            devices: inner.device.iter().cloned().collect(),
            trace: job_trace.clone(),
            spectrum_pool: Some(inner.arbiter.quota_pool(buf_len, job.spectrum_quota())),
            planner: Some(inner.arbiter.planner(PlanMode::Estimate)),
        });
        let mosaic = job.compose.then_some(MosaicSpec {
            blend: Blend::Overlay,
            workers: job.threads,
            highlight: false,
        });
        let policy = FailurePolicy::default();
        run_pass(&*stitcher, source, &policy, mosaic, &job_trace, &stop)
    }));
    match pass {
        Err(panic) if past_phase1.get() => std::panic::resume_unwind(panic),
        Err(_) => out.status = JobStatus::Failed("stitcher panicked".into()),
        Ok(Err(e)) => out.status = JobStatus::Failed(e.to_string()),
        Ok(Ok(pass)) => {
            if pass.stopped {
                out.status = handle.cancel_status();
            }
            out.result = Some(pass.result);
            out.positions = pass.positions;
            out.mosaic = pass.mosaic;
        }
    }
    if job_trace.is_enabled() {
        out.report = Some(RunReport::from_trace(&job_trace));
        inner
            .trace
            .merge_from(&job_trace, &format!("job.{}", job.name));
    }
    out.elapsed = t0.elapsed();
    handle.finish(out);
}

/// A preview job's pass: tiles go in row-major order through the
/// incremental driver, so the job's [`SharedCanvas`] (installed on the
/// handle at submit) fills in as registration proceeds. The displacements
/// are bit-identical to the batch stitchers' — phase 1 is a pure per-pair
/// function, so arrival order is irrelevant — and so is the canvas's
/// final solve: it is phase 2, and the finished canvas is the mosaic, so
/// neither is done twice. A cancel stops the arrivals between tiles and
/// the pass after phase 1.
fn run_preview(
    source: &dyn TileSource,
    handle: &JobHandle,
    compose: bool,
    stop: &dyn Fn() -> bool,
) -> Result<Pass, StitchError> {
    let canvas = handle
        .preview_canvas()
        .expect("preview canvas installed at submit");
    let outcome = run_incremental(
        source,
        source.shape().ids().take_while(|_| !handle.cancelled()),
        IncrementalConfig::default(),
        Arc::clone(&canvas),
        &FailurePolicy::default(),
    )?;
    let mut pass = Pass {
        result: outcome.result,
        positions: None,
        mosaic: None,
        stopped: stop(),
    };
    if !pass.stopped {
        let (tw, th) = source.tile_dims();
        let (mw, mh) = outcome.positions.mosaic_dims(tw, th);
        pass.mosaic = compose.then(|| canvas.get_region(0, 0, 0, mw, mh));
        pass.positions = Some(outcome.positions);
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use std::time::Duration;
    use stitch_image::ScanConfig;

    fn tiny(name: &str) -> StitchJob {
        StitchJob::new(name, ScanConfig::for_grid(2, 2, 32, 24, 0.25, 3)).compose(false)
    }

    #[test]
    fn single_job_completes_end_to_end() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        let h = sched.submit(tiny("solo").compose(true)).expect("submit");
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Completed);
        assert!(out.result.is_some());
        assert!(out.positions.is_some());
        assert!(out.mosaic.is_some());
        sched.join();
        assert_eq!(sched.arbiter().active_reservations(), 0);
        assert_eq!(sched.arbiter().leased_spectra(), 0);
    }

    // The job-slot contract: a panic costs the job, never the slot; at
    // most `workers` jobs run at once; dropping the scheduler joins them.

    #[test]
    fn a_panic_anywhere_in_a_job_fails_it_and_keeps_the_only_slot() {
        use std::sync::atomic::AtomicUsize;
        use stitch_core::{GridShape, SourceError, TileId};
        use stitch_image::Image;

        /// Serves phase 1, then panics in compose — which `run_job` runs
        /// outside its own `catch_unwind`, so only the guard and the
        /// slot's containment stand between this and a dead thread.
        struct PanicsInCompose(SyntheticSource, AtomicUsize);
        impl TileSource for PanicsInCompose {
            fn shape(&self) -> GridShape {
                self.0.shape()
            }
            fn tile_dims(&self) -> (usize, usize) {
                self.0.tile_dims()
            }
            fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
                let loads = self.1.fetch_add(1, Ordering::Relaxed);
                assert!(loads < self.shape().tiles(), "injected compose panic");
                self.0.load(id)
            }
        }

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let sched = Scheduler::new(SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            });
            let plate = SyntheticPlate::generate(ScanConfig::for_grid(2, 2, 32, 24, 0.25, 3));
            let bomb = PanicsInCompose(SyntheticSource::new(plate), AtomicUsize::new(0));
            let statuses: Vec<JobStatus> = [
                StitchJob::over_source("outside", Arc::new(bomb)),
                tiny("inside").chaos(crate::job::ChaosHooks {
                    hang_ms: None,
                    panic_at_start: true,
                }),
                tiny("after"),
            ]
            .into_iter()
            .map(|job| sched.submit(job).expect("submit").wait().status)
            .collect();
            sched.join();
            let _ = tx.send((statuses, sched.arbiter().active_reservations()));
        });
        let (statuses, reservations) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a panicking job took the scheduler's only slot with it");
        assert_eq!(
            statuses,
            [
                JobStatus::Failed("job panicked".into()),
                JobStatus::Failed("stitcher panicked".into()),
                JobStatus::Completed
            ]
        );
        assert_eq!(reservations, 0);
    }

    #[test]
    fn never_more_than_workers_jobs_run_at_once() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        });
        // jobs that hang until cancelled: whatever is dispatched stays
        let hang = crate::job::ChaosHooks {
            hang_ms: Some(u64::MAX),
            panic_at_start: false,
        };
        let handles: Vec<JobHandle> = (0..5)
            .map(|i| sched.submit(tiny(&format!("h{i}")).chaos(hang)).unwrap())
            .collect();
        let started = || {
            handles
                .iter()
                .filter(|h| h.dispatch_seq().is_some())
                .count()
        };
        while started() < 2 {
            std::thread::yield_now();
        }
        // the dispatcher is awake (three jobs are queued) and has memory
        // to spare; only the two slots hold it back
        assert_eq!((sched.running(), sched.pending()), (2, 3));
        // a freed slot is refilled, by one job
        let first = handles
            .iter()
            .find(|h| h.dispatch_seq() == Some(1))
            .unwrap();
        first.cancel();
        assert_eq!(first.wait().status, JobStatus::Cancelled);
        while started() < 3 {
            std::thread::yield_now();
        }
        assert_eq!((sched.running(), sched.pending()), (2, 2));
        // the queued two first, while both slots are still held
        let (ran, queued): (Vec<_>, Vec<_>) =
            handles.iter().partition(|h| h.dispatch_seq().is_some());
        queued.into_iter().chain(ran).for_each(JobHandle::cancel);
        sched.join();
        assert_eq!(started(), 3, "cancelled queued jobs never ran");
    }

    #[test]
    fn dropping_the_scheduler_runs_what_is_queued_and_joins_it() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause(); // all three are still queued when the drop begins
        let handles: Vec<JobHandle> = ["d1", "d2", "d3"]
            .iter()
            .map(|n| sched.submit(tiny(n)).unwrap())
            .collect();
        drop(sched);
        // no waiting: the drop returned, so every job has its outcome
        for h in &handles {
            assert!(h.is_done(), "{} outlived the scheduler", h.name());
            assert_eq!(h.wait().status, JobStatus::Completed);
        }
    }

    #[test]
    fn preview_job_matches_batch_and_serves_regions() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        let scan = ScanConfig::for_grid(2, 3, 32, 24, 0.25, 5);
        let hp = sched
            .submit(StitchJob::new("pv", scan.clone()).preview(true))
            .expect("submit preview");
        // The canvas is readable the moment submit returns.
        let canvas = hp.preview_canvas().expect("preview canvas at submit");
        let outp = hp.wait();
        assert_eq!(outp.status, JobStatus::Completed);
        let hb = sched
            .submit(StitchJob::new("batch", scan))
            .expect("submit batch");
        let outb = hb.wait();
        assert_eq!(outb.status, JobStatus::Completed);
        assert!(hb.preview_canvas().is_none(), "batch jobs carry no canvas");
        let (rp, rb) = (outp.result.unwrap(), outb.result.unwrap());
        assert_eq!(rp.west, rb.west, "arrival-order phase 1 must match batch");
        assert_eq!(rp.north, rb.north);
        assert_eq!(outp.positions, outb.positions);
        // The finished canvas serves the exact composed mosaic.
        let mosaic = outb.mosaic.expect("batch composes by default");
        let region = canvas.get_region(0, 0, 0, mosaic.width(), mosaic.height());
        assert_eq!(region.pixels(), mosaic.pixels());
    }

    #[test]
    fn preview_job_mosaic_is_read_from_its_canvas() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        let scan = ScanConfig::for_grid(3, 2, 32, 24, 0.25, 8);
        let mosaic_of = |job: StitchJob| sched.submit(job).expect("submit").wait().mosaic;
        let preview = mosaic_of(StitchJob::new("pv", scan.clone()).preview(true));
        let batch = mosaic_of(StitchJob::new("batch", scan.clone()).threads(2));
        assert_eq!(preview.expect("composes by default"), batch.unwrap());
        let uncomposed = mosaic_of(StitchJob::new("pv2", scan).preview(true).compose(false));
        assert!(uncomposed.is_none());
    }

    #[test]
    fn submit_refuses_too_large_duplicates_and_deviceless_gpu() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            memory_budget: 1024, // far below any job's footprint
            device: None,
            ..SchedulerConfig::default()
        });
        assert!(matches!(
            sched.submit(tiny("a")),
            Err(SubmitError::TooLarge { .. })
        ));
        assert!(matches!(
            sched.submit(tiny("g").variant(JobVariant::SimpleGpu)),
            Err(SubmitError::NeedsDevice(JobVariant::SimpleGpu))
        ));

        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause();
        let _h = sched.submit(tiny("dup")).unwrap();
        assert!(matches!(
            sched.submit(tiny("dup")),
            Err(SubmitError::DuplicateName(n)) if n == "dup"
        ));
        sched.resume();
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            max_pending: 1,
            ..SchedulerConfig::default()
        });
        sched.pause(); // nothing dispatches, so the queue must fill
        let _h1 = sched.submit(tiny("q1")).unwrap();
        assert!(matches!(
            sched.submit(tiny("q2")),
            Err(SubmitError::Busy {
                pending: 1,
                max_pending: 1
            })
        ));
        // A blocking submit parks until the dispatcher drains the queue.
        let sched = std::sync::Arc::new(sched);
        let s2 = std::sync::Arc::clone(&sched);
        let blocked = std::thread::spawn(move || s2.submit_blocking(tiny("q2")).map(|h| h.wait()));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!blocked.is_finished(), "must wait for queue space");
        sched.resume();
        let out = blocked.join().unwrap().expect("admitted after drain");
        assert_eq!(out.status, JobStatus::Completed);
        sched.join();
    }

    #[test]
    fn stride_scheduling_favors_heavier_classes_two_to_one() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause(); // queue the whole batch before any pick happens
        let mut handles = Vec::new();
        for name in ["a1", "a2", "a3", "a4"] {
            handles.push(sched.submit(tiny(name).priority(2)).unwrap());
        }
        for name in ["b1", "b2"] {
            handles.push(sched.submit(tiny(name).priority(1)).unwrap());
        }
        sched.resume();
        for h in &handles {
            assert_eq!(h.wait().status, JobStatus::Completed);
        }
        // Stride simulation with class passes (2: +1/2, 1: +1, heavier
        // wins ties): a1 b1 a2 a3 b2 a4.
        assert_eq!(
            crate::job::dispatch_order(&handles),
            vec!["a1", "b1", "a2", "a3", "b2", "a4"]
        );
    }

    #[test]
    fn cancelling_a_queued_job_never_runs_it() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause();
        let h = sched.submit(tiny("doomed")).unwrap();
        h.cancel(); // wake hook pokes the paused dispatcher
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Cancelled);
        assert!(out.result.is_none(), "must never have started");
        assert_eq!(h.dispatch_seq(), None);
        sched.resume();
        assert_eq!(sched.arbiter().active_reservations(), 0);
    }

    #[test]
    fn watchdog_times_out_a_hung_job_and_frees_its_leases() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        });
        // Hangs "forever"; only the 40 ms watchdog can end it.
        let hung = sched
            .submit(tiny("hung").watchdog(Duration::from_millis(40)).chaos(
                crate::job::ChaosHooks {
                    hang_ms: Some(u64::MAX),
                    panic_at_start: false,
                },
            ))
            .unwrap();
        let healthy = sched.submit(tiny("healthy")).unwrap();
        assert_eq!(hung.wait().status, JobStatus::TimedOut);
        assert_eq!(healthy.wait().status, JobStatus::Completed);
        sched.join();
        assert_eq!(sched.arbiter().active_reservations(), 0);
        assert_eq!(sched.arbiter().leased_spectra(), 0);
    }

    #[test]
    fn drain_stops_admission_and_cancels_pending_by_policy() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause(); // queue everything before the drain begins
        let queued: Vec<_> = ["d1", "d2", "d3"]
            .iter()
            .map(|n| sched.submit(tiny(n)).unwrap())
            .collect();
        sched.resume();
        let report = sched.drain(DrainPolicy::CancelPending);
        // No new admissions once the drain has begun.
        assert!(matches!(
            sched.submit(tiny("late")),
            Err(SubmitError::Draining)
        ));
        // Every queued job reached a terminal state (the dispatcher may
        // have started some before the drain landed).
        let mut cancelled = 0;
        for h in &queued {
            match h.wait().status {
                JobStatus::Cancelled => cancelled += 1,
                JobStatus::Completed => {}
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!(report.cancelled_queued, cancelled);
        assert_eq!(sched.pending(), 0);
        assert_eq!(sched.running(), 0);
        assert_eq!(sched.arbiter().active_reservations(), 0);
        assert_eq!(sched.arbiter().leased_spectra(), 0);
    }

    #[test]
    fn drain_finish_runs_queued_jobs_to_completion() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause();
        let a = sched.submit(tiny("fa")).unwrap();
        let b = sched.submit(tiny("fb")).unwrap();
        sched.resume();
        let report = sched.drain(DrainPolicy::Finish);
        assert_eq!(report.cancelled_queued, 0);
        assert_eq!(a.wait().status, JobStatus::Completed);
        assert_eq!(b.wait().status, JobStatus::Completed);
        assert_eq!(sched.arbiter().active_reservations(), 0);
    }

    #[test]
    fn tenant_scope_cap_queues_within_quota_and_rejects_impossible_jobs() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        });
        let bytes = tiny("probe").estimated_bytes();
        // Cap the tenant at 1.5 jobs' footprint: two jobs never run
        // concurrently, but both complete.
        sched.arbiter().set_scope_cap("acme", bytes + bytes / 2);
        let a = sched.submit(tiny("t1").tenant("acme")).unwrap();
        let b = sched.submit(tiny("t2").tenant("acme")).unwrap();
        assert_eq!(a.wait().status, JobStatus::Completed);
        assert_eq!(b.wait().status, JobStatus::Completed);
        // A job bigger than its tenant's cap is rejected outright.
        sched.arbiter().set_scope_cap("tiny", bytes / 2);
        assert!(matches!(
            sched.submit(tiny("t3").tenant("tiny")),
            Err(SubmitError::TooLarge { .. })
        ));
        sched.join();
        assert_eq!(sched.arbiter().scoped_reserved("acme"), 0);
    }

    #[test]
    fn queued_past_deadline_expires_without_running() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        });
        sched.pause();
        let h = sched
            .submit(tiny("late").deadline(Duration::from_millis(1)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        sched.resume();
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Expired);
        assert_eq!(h.dispatch_seq(), None);
    }
}
