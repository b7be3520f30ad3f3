//! The long-running serve daemon: a [`Scheduler`] wrapped in tenant
//! quotas, rate limits, a load-shed circuit breaker, watchdog defaults,
//! lifecycle event broadcast, and graceful drain.
//!
//! ## Layers in front of the scheduler
//!
//! ```text
//! line ─▶ parse ─▶ drain gate ─▶ breaker ─▶ rate bucket ─▶ tenant quota
//!            │                                                   │
//!            └ event=error (contained)            Scheduler::submit
//!                                              Busy ⇒ shed + breaker
//! ```
//!
//! Every refusal is *fast and synchronous* — a shed submission never
//! touches the scheduler queue, so overload from one tenant degrades
//! into `event=shed` lines for that tenant instead of latency for all.
//!
//! ## Lifecycle events
//!
//! Jobs stream `queued → running → done` events to every subscriber
//! ([`ServeDaemon::subscribe`]). `queued` is the reply to `submit`;
//! `running` and `done` come from the scheduler, which pushes them
//! ([`Scheduler::subscribe`]) to an event thread that blocks until one
//! arrives — nothing polls, and an idle daemon sleeps. All events are
//! broadcast while the daemon state lock is held, so every subscriber
//! observes a single global order in which each job's `queued` precedes
//! its `running` precedes its `done`. Subscribers that disconnect are
//! pruned on the next broadcast — a dead client never blocks the daemon.
//! A job keeps its name and its tenant slot until its `done` has been
//! broadcast: a resubmission of the name before then is rejected.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use stitch_canvas::SharedCanvas;
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::Fnv64;
use stitch_sched::{
    DrainPolicy, DrainReport, JobEvent, JobHandle, JobStatus, Scheduler, SchedulerConfig,
    StitchJob, SubmitError,
};
use stitch_trace::TraceHandle;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::protocol::{parse_request, Event, Request, ShedReason};
use crate::tenant::{TenantPolicy, TenantState};

/// Tenant assigned to submissions that carry no `tenant=` key.
pub const DEFAULT_TENANT: &str = "default";

/// Daemon construction parameters.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker slots (concurrently running jobs).
    pub workers: usize,
    /// Host-memory byte budget for the scheduler's admission control.
    pub memory_budget: usize,
    /// Bound on the scheduler's pending queue; submissions past it are
    /// shed (`queue-full`) and feed the circuit breaker.
    pub max_pending: usize,
    /// Shared simulated device; `None` creates a default device so
    /// GPU-variant jobs are always servable.
    pub device: Option<Device>,
    /// Master trace; serve-level counters and gauges land here, and
    /// per-job lanes merge as `job.<tenant>/<name>/…`.
    pub trace: TraceHandle,
    /// Watchdog applied to jobs that do not set their own. `None`
    /// leaves unwatched jobs unwatched.
    pub default_watchdog: Option<Duration>,
    /// Admission policy applied to every tenant.
    pub tenant_policy: TenantPolicy,
    /// Load-shed circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// When set, each finished job's run report (if tracing produced
    /// one) is flushed to `<dir>/<tenant>__<job>.report.json`.
    pub reports_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            memory_budget: 256 << 20,
            max_pending: 64,
            device: None,
            trace: TraceHandle::disabled(),
            default_watchdog: None,
            tenant_policy: TenantPolicy::default(),
            breaker: BreakerConfig::default(),
            reports_dir: None,
        }
    }
}

/// Point-in-time daemon counters (the `event=stats` payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions accepted into the scheduler.
    pub accepted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled (client cancel or drain policy).
    pub cancelled: u64,
    /// Jobs cancelled by a watchdog deadline.
    pub timed_out: u64,
    /// Jobs that failed (stitcher error or contained panic).
    pub failed: u64,
    /// Queued jobs abandoned past their queue deadline.
    pub expired: u64,
    /// Submissions shed by overload protection.
    pub shed: u64,
    /// Submissions rejected outright (too large, bad variant, dup).
    pub rejected: u64,
    /// Malformed lines contained as `event=error`.
    pub errors: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Jobs currently queued in the scheduler.
    pub pending: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs the daemon is tracking (queued + running + not yet `done`).
    pub in_flight: u64,
    /// Highest pending-queue depth observed.
    pub pending_high_water: u64,
    /// 1 while draining (admission closed), else 0.
    pub draining: u64,
}

impl ServeStats {
    /// Key/value pairs in wire order.
    pub fn kv(&self) -> [(&'static str, u64); 15] {
        [
            ("accepted", self.accepted),
            ("completed", self.completed),
            ("cancelled", self.cancelled),
            ("timed-out", self.timed_out),
            ("failed", self.failed),
            ("expired", self.expired),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("errors", self.errors),
            ("breaker-trips", self.breaker_trips),
            ("pending", self.pending),
            ("running", self.running),
            ("in-flight", self.in_flight),
            ("pending-high-water", self.pending_high_water),
            ("draining", self.draining),
        ]
    }
}

/// What a completed [`ServeDaemon::drain`] observed.
#[derive(Clone, Debug)]
pub struct DrainSummary {
    /// The scheduler-level drain report.
    pub sched: DrainReport,
    /// Lifetime completed count at drain end.
    pub completed: u64,
    /// Lifetime cancelled count at drain end.
    pub cancelled: u64,
    /// Lifetime watchdog-timeout count at drain end.
    pub timed_out: u64,
    /// Lifetime failed count at drain end.
    pub failed: u64,
}

impl DrainSummary {
    /// The `drained` event announcing this summary.
    fn event(&self) -> Event {
        Event::Drained {
            completed: self.completed,
            cancelled: self.cancelled,
            timed_out: self.timed_out,
            failed: self.failed,
        }
    }
}

struct InFlight {
    tenant: String,
    job: String,
    handle: JobHandle,
}

/// Preview canvases of the most recently *finished* preview jobs are
/// retained (in finish order) so `region` keeps working after `done` —
/// a subscriber that reacts to the done event can still fetch the
/// final mosaic. Bounded so a daemon that serves many preview jobs
/// doesn't accumulate canvases forever.
const RETAINED_PREVIEWS: usize = 8;

struct DaemonState {
    tenants: HashMap<String, TenantState>,
    /// Keyed by the scheduler-side name `<tenant>/<job>`.
    inflight: HashMap<String, InFlight>,
    /// Canvases of finished preview jobs, oldest first (see
    /// [`RETAINED_PREVIEWS`]). Same `<tenant>/<job>` key as `inflight`.
    previews: Vec<(String, Arc<SharedCanvas>)>,
    admitting: bool,
    breaker: CircuitBreaker,
    /// The lifetime counters; the live gauges are read at `stats` time.
    counts: ServeStats,
}

struct Inner {
    sched: Scheduler,
    state: Mutex<DaemonState>,
    /// Subscribers with their ids, oldest first.
    subs: Mutex<Vec<(u64, mpsc::Sender<Event>)>>,
    next_sub: AtomicU64,
    trace: TraceHandle,
    default_watchdog: Option<Duration>,
    policy: TenantPolicy,
    reports_dir: Option<PathBuf>,
    /// Notified when `inflight` empties.
    settled: Condvar,
}

/// The serve daemon. Dropping it drops the scheduler (which joins every
/// job) and then joins the event thread. Call [`ServeDaemon::drain`]
/// before dropping for a *graceful* shutdown (events + reports flushed).
pub struct ServeDaemon {
    // Declared before `_events`, so it drops first: the scheduler's drop
    // ends the stream the event thread blocks on.
    inner: Arc<Inner>,
    _events: EventThread,
}

/// Joins the thread turning scheduler events into daemon events.
struct EventThread(Option<std::thread::JoinHandle<()>>);

impl Drop for EventThread {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            let _ = thread.join();
        }
    }
}

impl ServeDaemon {
    /// Starts a daemon (scheduler + event thread).
    pub fn new(config: ServeConfig) -> ServeDaemon {
        let device = config
            .device
            .or_else(|| Some(Device::new(0, DeviceConfig::default())));
        let sched = Scheduler::new(SchedulerConfig {
            workers: config.workers,
            memory_budget: config.memory_budget,
            max_pending: config.max_pending,
            device,
            trace: config.trace.clone(),
        });
        let inner = Arc::new(Inner {
            sched,
            state: Mutex::new(DaemonState {
                tenants: HashMap::new(),
                inflight: HashMap::new(),
                previews: Vec::new(),
                admitting: true,
                breaker: CircuitBreaker::new(config.breaker),
                counts: ServeStats::default(),
            }),
            subs: Mutex::new(Vec::new()),
            next_sub: AtomicU64::new(0),
            trace: config.trace,
            default_watchdog: config.default_watchdog,
            policy: config.tenant_policy,
            reports_dir: config.reports_dir,
            settled: Condvar::new(),
        });
        let jobs = inner.sched.subscribe();
        // Weak, so the thread does not keep the scheduler (and with it
        // the stream it reads) alive once the daemon drops.
        let daemon = Arc::downgrade(&inner);
        let thread = std::thread::Builder::new()
            .name("serve-events".into())
            .spawn(move || {
                for event in jobs {
                    let Some(inner) = Weak::upgrade(&daemon) else {
                        return;
                    };
                    inner.on_job_event(event);
                }
            })
            .expect("spawn serve event thread");
        ServeDaemon {
            inner,
            _events: EventThread(Some(thread)),
        }
    }

    /// The underlying scheduler (tests audit arbiter/lease invariants
    /// through this).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.sched
    }

    /// Registers a lifecycle-event subscriber. Every event (including
    /// replies to other clients' requests) is delivered; a receiver
    /// that goes away is pruned on the next broadcast.
    pub fn subscribe(&self) -> mpsc::Receiver<Event> {
        self.subscription().1
    }

    /// [`ServeDaemon::subscribe`], plus the id that ends the stream
    /// through [`ServeDaemon::unsubscribe`].
    pub fn subscription(&self) -> (u64, mpsc::Receiver<Event>) {
        let (tx, rx) = mpsc::channel();
        let id = self.inner.next_sub.fetch_add(1, Ordering::Relaxed);
        self.inner.subs.lock().push((id, tx));
        (id, rx)
    }

    /// Ends subscription `id`: its receiver yields every event broadcast
    /// before this call, then disconnects.
    pub fn unsubscribe(&self, id: u64) {
        self.inner.subs.lock().retain(|(sub, _)| *sub != id);
    }

    /// Handles one protocol line: parses, admits/sheds/rejects, and
    /// returns the events it produced (also broadcast to subscribers).
    /// Malformed input yields a single `Error` event — never a panic.
    /// A `drain` line blocks until the drain completes, like
    /// [`ServeDaemon::drain`].
    pub fn handle_line(&self, line: &str) -> Vec<Event> {
        self.inner.handle_line(line)
    }

    /// Current counters (same numbers as `event=stats`).
    pub fn stats(&self) -> ServeStats {
        let state = self.inner.state.lock();
        self.inner.stats_locked(&state)
    }

    /// Graceful drain: closes admission, applies `policy` to in-flight
    /// jobs via [`Scheduler::drain`], waits until every tracked job has
    /// reached a terminal state and had its events + report flushed,
    /// then emits `Drained`. The daemon stays alive (still answers
    /// `ping`/`stats`; submissions shed with `draining`).
    pub fn drain(&self, policy: DrainPolicy) -> DrainSummary {
        self.inner.drain(policy)
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        // An *ungraceful* drop (no prior drain — e.g. a panicking test
        // or caller) must still terminate: cancel everything tracked so
        // an unwatched hung job cannot wedge the scheduler's own drop,
        // which joins all running jobs.
        for entry in self.inner.state.lock().inflight.values() {
            entry.handle.cancel();
        }
        // Disconnect subscribers so forwarder threads iterating the
        // receiver observe end-of-stream.
        self.inner.subs.lock().clear();
    }
}

impl Inner {
    /// Broadcasts `events` to every subscriber. Callers hold the state
    /// lock while emitting, which serializes broadcasts: subscribers
    /// see one global event order (lock order: state → subs; nothing
    /// takes them in reverse). `mpsc` sends never block.
    fn broadcast(&self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let mut subs = self.subs.lock();
        subs.retain(|(_, tx)| events.iter().all(|ev| tx.send(ev.clone()).is_ok()));
    }

    /// Runs `f` under the state lock and broadcasts the events it returns
    /// before releasing it, so they take their place in the one order.
    fn emit(&self, f: impl FnOnce(&mut DaemonState) -> Vec<Event>) -> Vec<Event> {
        let mut state = self.state.lock();
        let events = f(&mut state);
        self.broadcast(&events);
        events
    }

    fn stats_locked(&self, state: &DaemonState) -> ServeStats {
        ServeStats {
            breaker_trips: state.breaker.trips(),
            pending: self.sched.pending() as u64,
            running: self.sched.running() as u64,
            in_flight: state.inflight.len() as u64,
            draining: u64::from(!state.admitting),
            ..state.counts
        }
    }

    fn handle_line(&self, line: &str) -> Vec<Event> {
        let request = match parse_request(line) {
            Ok(Some(request)) => request,
            Ok(None) => return Vec::new(),
            Err(reason) => {
                return self.emit(|state| {
                    state.counts.errors += 1;
                    self.trace.add_counter("serve.errors", 1);
                    vec![Event::Error { reason }]
                })
            }
        };
        match request {
            Request::Ping => self.emit(|_| vec![Event::Pong]),
            Request::Stats => self.emit(|state| vec![Event::Stats(self.stats_locked(state))]),
            Request::Cancel { tenant, name } => self.cancel(tenant, name),
            Request::Region {
                tenant,
                name,
                scale,
                x,
                y,
                w,
                h,
            } => self.region(tenant, name, scale, x, y, w, h),
            Request::Submit(job) => self.submit(*job),
            Request::Drain(policy) => vec![self.drain(policy).event()],
        }
    }

    fn cancel(&self, tenant: Option<String>, name: String) -> Vec<Event> {
        let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let key = format!("{tenant}/{name}");
        self.emit(|state| match state.inflight.get(&key) {
            Some(entry) => {
                entry.handle.cancel();
                vec![Event::Cancelling { tenant, job: name }]
            }
            None => vec![Event::Error {
                reason: format!("cancel: no in-flight job '{name}' for tenant '{tenant}'"),
            }],
        })
    }

    /// Serves a `region` read against a preview job's canvas: in-flight
    /// jobs are looked up live through their handle, finished ones
    /// through the bounded retained-preview list.
    #[allow(clippy::too_many_arguments)]
    fn region(
        &self,
        tenant: Option<String>,
        name: String,
        scale: usize,
        x: i64,
        y: i64,
        w: usize,
        h: usize,
    ) -> Vec<Event> {
        let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let key = format!("{tenant}/{name}");
        let canvas = {
            let state = self.state.lock();
            state
                .inflight
                .get(&key)
                .and_then(|entry| entry.handle.preview_canvas())
                .or_else(|| {
                    state
                        .previews
                        .iter()
                        .rev()
                        .find(|(k, _)| k == &key)
                        .map(|(_, canvas)| Arc::clone(canvas))
                })
        };
        let event = match canvas {
            None => Event::Error {
                reason: format!(
                    "region: no preview canvas for job '{name}' of tenant '{tenant}' \
                     (submit with preview=true)"
                ),
            },
            Some(canvas) if scale > canvas.max_scale() => Event::Error {
                reason: format!(
                    "region: scale {scale} beyond canvas max {}",
                    canvas.max_scale()
                ),
            },
            Some(canvas) => {
                // Pixel work happens outside the state lock so a large
                // read cannot stall admission or lifecycle events.
                let img = canvas.get_region(scale, x, y, w, h);
                let placed = canvas.stats().placements as u64;
                let (mut nonzero, mut sum) = (0u64, 0u64);
                for &p in img.pixels() {
                    nonzero += u64::from(p != 0);
                    sum += u64::from(p);
                }
                Event::Region {
                    tenant,
                    job: name,
                    scale,
                    x,
                    y,
                    w,
                    h,
                    placed,
                    nonzero,
                    sum,
                    digest: fnv64(img.pixels()),
                }
            }
        };
        self.emit(|_| vec![event])
    }

    fn submit(&self, job: StitchJob) -> Vec<Event> {
        self.emit(|state| vec![self.admit(state, job)])
    }

    /// Admits `job` into the scheduler or refuses it; the one event
    /// returned says which.
    fn admit(&self, state: &mut DaemonState, job: StitchJob) -> Event {
        let tenant = job
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let name = job.name.clone();
        let now = Instant::now();
        if !state.admitting {
            return self.shed(state, &tenant, &name, ShedReason::Draining);
        }
        if !state.breaker.admit(now) {
            return self.shed(state, &tenant, &name, ShedReason::BreakerOpen);
        }

        // First touch of a tenant registers its memory scope cap.
        if !state.tenants.contains_key(&tenant) {
            state
                .tenants
                .insert(tenant.clone(), TenantState::new(&self.policy, now));
            if let Some(cap) = self.policy.mem_cap {
                self.sched.arbiter().set_scope_cap(&tenant, cap);
            }
        }
        let tstate = state.tenants.get_mut(&tenant).expect("tenant registered");
        let rate_ok = match tstate.bucket.as_mut() {
            Some(bucket) => bucket.try_take(now),
            None => true,
        };
        if !rate_ok {
            return self.shed(state, &tenant, &name, ShedReason::RateLimit);
        }
        if state.tenants[&tenant].in_flight >= self.policy.max_in_flight {
            return self.shed(state, &tenant, &name, ShedReason::TenantQuota);
        }

        // The scheduler frees a name when it publishes the job's `Done`;
        // the daemon holds it until that `Done` is booked, so one key
        // never names two entries.
        let key = format!("{tenant}/{name}");
        if state.inflight.contains_key(&key) {
            return self.reject(state, tenant, name, SubmitError::DuplicateName(key));
        }
        let mut sched_job = job;
        sched_job.name = key.clone();
        sched_job.tenant = Some(tenant.clone());
        sched_job.watchdog = sched_job.watchdog.or(self.default_watchdog);

        match self.sched.submit(sched_job) {
            Ok(handle) => {
                state.breaker.on_accept(now);
                state.counts.accepted += 1;
                let tstate = state.tenants.get_mut(&tenant).expect("tenant registered");
                tstate.in_flight += 1;
                tstate.accepted += 1;
                state.inflight.insert(
                    key,
                    InFlight {
                        tenant: tenant.clone(),
                        job: name.clone(),
                        handle,
                    },
                );
                let depth = self.sched.pending() as u64;
                state.counts.pending_high_water = state.counts.pending_high_water.max(depth);
                self.trace.add_counter("serve.accepted", 1);
                self.trace
                    .set_gauge_max("serve.pending_high_water", depth as f64);
                Event::Queued { tenant, job: name }
            }
            Err(SubmitError::Busy { .. }) => {
                state.breaker.on_overload(now);
                self.shed(state, &tenant, &name, ShedReason::QueueFull)
            }
            Err(SubmitError::Draining) | Err(SubmitError::ShuttingDown) => {
                self.shed(state, &tenant, &name, ShedReason::Draining)
            }
            Err(err) => self.reject(state, tenant, name, err),
        }
    }

    /// Records a rejection and builds its event.
    fn reject(
        &self,
        state: &mut DaemonState,
        tenant: String,
        job: String,
        err: SubmitError,
    ) -> Event {
        state.counts.rejected += 1;
        self.trace.add_counter("serve.rejected", 1);
        Event::Rejected {
            tenant,
            job,
            reason: err.to_string(),
        }
    }

    /// Records a shed and builds its event.
    fn shed(&self, state: &mut DaemonState, tenant: &str, job: &str, reason: ShedReason) -> Event {
        state.counts.shed += 1;
        if let Some(t) = state.tenants.get_mut(tenant) {
            t.shed += 1;
        }
        self.trace.add_counter("serve.shed", 1);
        Event::Shed {
            tenant: tenant.to_string(),
            job: job.to_string(),
            reason,
        }
    }

    /// Turns one scheduler event into the daemon's: `Running`, or `Done`
    /// with the job's report flushed and its tenant slot released. Runs
    /// on the event thread, under the state lock like every broadcast.
    fn on_job_event(&self, event: JobEvent) {
        let mut state = self.state.lock();
        let event = match event {
            JobEvent::Running(key) => match state.inflight.get(&key) {
                Some(entry) => Event::Running {
                    tenant: entry.tenant.clone(),
                    job: entry.job.clone(),
                },
                None => return,
            },
            JobEvent::Done(key) => match state.inflight.remove(&key) {
                Some(entry) => self.finish(&mut state, key, entry),
                None => return,
            },
        };
        if state.inflight.is_empty() {
            self.settled.notify_all();
        }
        self.broadcast(std::slice::from_ref(&event));
    }

    /// Books a finished job: counters, tenant slot, retained preview and
    /// report file. Returns its `Done` event.
    fn finish(&self, state: &mut DaemonState, key: String, entry: InFlight) -> Event {
        if let Some(canvas) = entry.handle.preview_canvas() {
            // Keep the finished job's canvas addressable for `region`,
            // evicting the oldest past the cap.
            state.previews.retain(|(k, _)| k != &key);
            state.previews.push((key, canvas));
            if state.previews.len() > RETAINED_PREVIEWS {
                let excess = state.previews.len() - RETAINED_PREVIEWS;
                state.previews.drain(..excess);
            }
        }
        let outcome = entry.handle.wait();
        let (count, counter) = match &outcome.status {
            JobStatus::Completed => (&mut state.counts.completed, "serve.completed"),
            JobStatus::Cancelled => (&mut state.counts.cancelled, "serve.cancelled"),
            JobStatus::TimedOut => (&mut state.counts.timed_out, "serve.timed_out"),
            JobStatus::Expired => (&mut state.counts.expired, "serve.expired"),
            JobStatus::Failed(_) => (&mut state.counts.failed, "serve.failed"),
        };
        *count += 1;
        self.trace.add_counter(counter, 1);
        if let Some(t) = state.tenants.get_mut(&entry.tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        if let (Some(dir), Some(report)) = (&self.reports_dir, &outcome.report) {
            let file = dir.join(format!("{}__{}.report.json", entry.tenant, entry.job));
            // Report flushing is best-effort: a full disk must not
            // take the daemon down.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(file, report.to_json());
        }
        Event::Done {
            tenant: entry.tenant,
            job: entry.job,
            status: outcome.status,
            elapsed: outcome.elapsed,
        }
    }

    fn drain(&self, policy: DrainPolicy) -> DrainSummary {
        {
            let mut state = self.state.lock();
            state.admitting = false;
            self.broadcast(&[Event::Draining]);
        }
        let sched_report = self.sched.drain(policy);
        // Every job has ended; wait until the event thread has broadcast
        // each one's `Done` and flushed its report.
        let mut state = self.state.lock();
        while !state.inflight.is_empty() {
            self.settled.wait(&mut state);
        }
        let summary = DrainSummary {
            sched: sched_report,
            completed: state.counts.completed,
            cancelled: state.counts.cancelled,
            timed_out: state.counts.timed_out,
            failed: state.counts.failed,
        };
        self.broadcast(&[summary.event()]);
        summary
    }
}

/// FNV-1a over the region's pixel bytes (little-endian); the `region`
/// reply's change-detection digest.
fn fnv64(pixels: &[u16]) -> u64 {
    let mut hash = Fnv64::new();
    hash.write_u16s(pixels);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_pending: 16,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn lifecycle_events_stream_queued_running_done() {
        let daemon = ServeDaemon::new(tiny_config());
        let rx = daemon.subscribe();
        let events =
            daemon.handle_line("submit name=j1 tenant=acme grid=2x2 tile=32x24 compose=false");
        assert_eq!(
            events,
            vec![Event::Queued {
                tenant: "acme".into(),
                job: "j1".into()
            }]
        );
        daemon.drain(DrainPolicy::Finish);
        let stats = daemon.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.in_flight, 0);
        // The subscriber saw the full lifecycle, in order.
        let seen: Vec<Event> = rx.try_iter().collect();
        let pos = |ev: &Event| seen.iter().position(|e| e == ev);
        let queued = pos(&Event::Queued {
            tenant: "acme".into(),
            job: "j1".into(),
        })
        .expect("queued event");
        let running = pos(&Event::Running {
            tenant: "acme".into(),
            job: "j1".into(),
        })
        .expect("running event");
        let done = seen
            .iter()
            .position(|e| {
                matches!(e, Event::Done { job, status, .. }
                if job == "j1" && *status == JobStatus::Completed)
            })
            .expect("done event");
        assert!(queued < running && running < done);
        assert_eq!(daemon.scheduler().arbiter().reserved(), 0);
    }

    #[test]
    fn region_serves_previews_before_and_after_done() {
        let daemon = ServeDaemon::new(tiny_config());
        let events =
            daemon.handle_line("submit name=pv tenant=acme grid=2x2 tile=32x24 preview=true");
        assert!(matches!(events.last(), Some(Event::Queued { .. })));
        // Readable immediately (possibly before any tile lands): the
        // empty canvas answers with zero coverage, never an error.
        let events = daemon.handle_line("region tenant=acme name=pv w=16 h=16");
        match events.last() {
            Some(Event::Region { placed, w, h, .. }) => {
                assert_eq!((*w, *h), (16, 16));
                assert!(*placed <= 4);
            }
            other => panic!("{other:?}"),
        }
        daemon.drain(DrainPolicy::Finish);
        assert_eq!(daemon.stats().completed, 1);
        // Still readable after done, from the retained-preview list,
        // and deterministic: same read, same digest.
        let read = || match daemon
            .handle_line("region tenant=acme name=pv scale=1 x=0 y=0 w=32 h=24")
            .pop()
        {
            Some(Event::Region {
                placed,
                nonzero,
                digest,
                ..
            }) => (placed, nonzero, digest),
            other => panic!("{other:?}"),
        };
        let (placed, nonzero, digest) = read();
        assert_eq!(placed, 4, "all four tiles placed");
        assert!(nonzero > 0, "finished preview must show pixels");
        assert_eq!(read(), (placed, nonzero, digest));
        // A job that never asked for a preview is a contained error.
        daemon.handle_line("submit name=plain tenant=acme grid=2x2 tile=32x24 compose=false");
        let events = daemon.handle_line("region tenant=acme name=plain");
        assert!(
            matches!(events.last(), Some(Event::Error { reason }) if reason.contains("preview")),
            "{events:?}"
        );
        // Out-of-range scale is a contained error too.
        let events = daemon.handle_line("region tenant=acme name=pv scale=99");
        assert!(
            matches!(events.last(), Some(Event::Error { reason }) if reason.contains("scale")),
            "{events:?}"
        );
    }

    #[test]
    fn malformed_lines_are_contained_and_service_continues() {
        let daemon = ServeDaemon::new(tiny_config());
        for bad in ["gibberish", "submit name=x bogus=1", "drain policy=?", ""] {
            let events = daemon.handle_line(bad);
            if !bad.is_empty() {
                assert!(
                    matches!(events.as_slice(), [Event::Error { .. }]),
                    "{bad:?} -> {events:?}"
                );
            }
        }
        assert_eq!(daemon.handle_line("ping"), vec![Event::Pong]);
        let events = daemon.handle_line("submit name=ok grid=2x2 tile=32x24 compose=false");
        assert!(matches!(events.last(), Some(Event::Queued { .. })));
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.completed, 1);
        assert_eq!(daemon.stats().errors, 3);
    }

    #[test]
    fn tenant_quota_sheds_the_overflow_submission() {
        let mut config = tiny_config();
        config.tenant_policy.max_in_flight = 2;
        config.workers = 1;
        let daemon = ServeDaemon::new(config);
        // Two hang jobs occupy the tenant's whole quota.
        for i in 0..2 {
            let events = daemon.handle_line(&format!(
                "submit name=h{i} tenant=acme grid=2x2 tile=32x24 hang-ms=60000 compose=false"
            ));
            assert!(matches!(events.last(), Some(Event::Queued { .. })));
        }
        let events =
            daemon.handle_line("submit name=h2 tenant=acme grid=2x2 tile=32x24 compose=false");
        assert!(
            matches!(
                events.last(),
                Some(Event::Shed {
                    reason: ShedReason::TenantQuota,
                    ..
                })
            ),
            "{events:?}"
        );
        // A different tenant is unaffected.
        let events =
            daemon.handle_line("submit name=h2 tenant=beta grid=2x2 tile=32x24 compose=false");
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
        // Cancel the hogs; everything finishes.
        daemon.handle_line("cancel tenant=acme name=h0");
        daemon.handle_line("cancel tenant=acme name=h1");
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.cancelled, 2);
        assert_eq!(summary.completed, 1);
        assert_eq!(daemon.scheduler().arbiter().reserved(), 0);
    }

    #[test]
    fn drain_closes_admission_but_daemon_keeps_answering() {
        let daemon = ServeDaemon::new(tiny_config());
        daemon.handle_line("submit name=j1 grid=2x2 tile=32x24 compose=false");
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.completed, 1);
        // Still alive: ping works, submissions shed with `draining`.
        assert_eq!(daemon.handle_line("ping"), vec![Event::Pong]);
        let events = daemon.handle_line("submit name=j2 grid=2x2 tile=32x24 compose=false");
        assert!(matches!(
            events.last(),
            Some(Event::Shed {
                reason: ShedReason::Draining,
                ..
            })
        ));
        assert_eq!(daemon.stats().draining, 1);
    }

    #[test]
    fn wire_drain_verb_blocks_and_reports() {
        let daemon = ServeDaemon::new(tiny_config());
        daemon.handle_line("submit name=j1 grid=2x2 tile=32x24 compose=false");
        let events = daemon.handle_line("drain policy=finish");
        assert!(
            matches!(events.last(), Some(Event::Drained { completed: 1, .. })),
            "{events:?}"
        );
    }

    #[test]
    fn watchdog_default_times_out_hung_jobs_and_counts_them() {
        let mut config = tiny_config();
        config.default_watchdog = Some(Duration::from_millis(30));
        let daemon = ServeDaemon::new(config);
        let events = daemon.handle_line(
            "submit name=hung tenant=acme grid=2x2 tile=32x24 hang-ms=600000 compose=false",
        );
        assert!(matches!(events.last(), Some(Event::Queued { .. })));
        // A healthy sibling completes while the hung job times out.
        daemon.handle_line("submit name=ok tenant=acme grid=2x2 tile=32x24 compose=false");
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.timed_out, 1, "watchdog fired");
        assert_eq!(summary.completed, 1, "sibling unaffected");
        assert_eq!(daemon.scheduler().arbiter().reserved(), 0);
        assert_eq!(daemon.scheduler().arbiter().active_reservations(), 0);
    }

    #[test]
    fn panicking_job_fails_without_taking_the_daemon_down() {
        let daemon = ServeDaemon::new(tiny_config());
        let events = daemon.handle_line(
            "submit name=boom tenant=acme grid=2x2 tile=32x24 panic=true compose=false",
        );
        assert!(matches!(events.last(), Some(Event::Queued { .. })));
        daemon.handle_line("submit name=ok tenant=acme grid=2x2 tile=32x24 compose=false");
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(daemon.scheduler().arbiter().reserved(), 0);
    }

    #[test]
    fn ungraceful_drop_with_unwatched_hung_job_terminates() {
        // No drain, no watchdog, no client cancel: dropping the daemon
        // must still cancel the hung job so the scheduler's drop (which
        // joins all running jobs) cannot wedge forever.
        let daemon = ServeDaemon::new(tiny_config());
        let events = daemon.handle_line(
            "submit name=hung tenant=acme grid=2x2 tile=32x24 hang-ms=600000 compose=false",
        );
        assert!(matches!(events.last(), Some(Event::Queued { .. })));
        drop(daemon); // must return, not hang
    }

    #[test]
    fn a_name_stays_taken_until_its_done_is_booked() {
        let daemon = ServeDaemon::new(tiny_config());
        let rx = daemon.subscribe();
        let line = "submit name=j tenant=acme grid=2x2 tile=32x24 compose=false";
        let job = || match parse_request(line) {
            Ok(Some(Request::Submit(job))) => *job,
            other => panic!("{other:?}"),
        };
        daemon.handle_line(line);
        {
            // Holding the state lock keeps the event thread from booking:
            // the scheduler has published `Done` and freed the name, the
            // daemon has not yet seen it.
            let mut state = daemon.inner.state.lock();
            daemon.scheduler().join();
            let event = daemon.inner.admit(&mut state, job());
            assert!(
                matches!(&event, Event::Rejected { reason, .. } if reason.contains("already in flight")),
                "{event:?}"
            );
            assert_eq!(state.tenants["acme"].in_flight, 1);
            assert!(state.inflight.contains_key("acme/j"));
        }
        let done = rx
            .iter()
            .find(|e| matches!(e, Event::Done { .. }))
            .expect("done event");
        assert!(matches!(
            done,
            Event::Done {
                status: JobStatus::Completed,
                ..
            }
        ));
        // Booked: the name and the tenant slot are free again.
        let events = daemon.handle_line(line);
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
        let summary = daemon.drain(DrainPolicy::Finish);
        assert_eq!(summary.completed, 2);
        assert_eq!(daemon.stats().rejected, 1);
        assert_eq!(daemon.inner.state.lock().tenants["acme"].in_flight, 0);
    }

    #[test]
    fn unsubscribe_ends_the_stream_after_what_was_broadcast() {
        let daemon = ServeDaemon::new(tiny_config());
        let (id, rx) = daemon.subscription();
        daemon.handle_line("ping");
        daemon.unsubscribe(id);
        daemon.handle_line("ping");
        // Iterating ends at disconnect: one pong, not two, and no hang.
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![Event::Pong]);
    }

    #[test]
    fn client_disconnect_prunes_the_subscriber() {
        let daemon = ServeDaemon::new(tiny_config());
        let rx = daemon.subscribe();
        drop(rx); // client went away
        daemon.handle_line("submit name=j1 grid=2x2 tile=32x24 compose=false");
        daemon.drain(DrainPolicy::Finish);
        // Nothing hung, nothing panicked; a fresh subscriber works.
        let rx = daemon.subscribe();
        daemon.handle_line("ping");
        assert!(rx.try_iter().any(|e| e == Event::Pong));
    }
}
