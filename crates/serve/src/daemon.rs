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
//! ([`ServeDaemon::subscribe`]); a reaper thread turns scheduler state
//! into events within ~1 ms. All events are broadcast while the daemon
//! state lock is held, so every subscriber observes a single global
//! order in which each job's `queued` precedes its `running` precedes
//! its `done`. Subscribers that disconnect are pruned on the next
//! broadcast — a dead client never blocks the daemon.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stitch_canvas::SharedCanvas;
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::Fnv64;
use stitch_sched::{
    DrainPolicy, DrainReport, JobHandle, JobStatus, Scheduler, SchedulerConfig, StitchJob,
    SubmitError,
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
    /// Jobs the daemon is tracking (queued + running + unreaped).
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

struct InFlight {
    tenant: String,
    job: String,
    handle: JobHandle,
    /// Its `running` event has been emitted.
    announced: bool,
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
    accepted: u64,
    completed: u64,
    cancelled: u64,
    timed_out: u64,
    failed: u64,
    expired: u64,
    shed: u64,
    rejected: u64,
    errors: u64,
    pending_high_water: u64,
}

struct Inner {
    sched: Scheduler,
    state: Mutex<DaemonState>,
    subs: Mutex<Vec<mpsc::Sender<Event>>>,
    trace: TraceHandle,
    default_watchdog: Option<Duration>,
    policy: TenantPolicy,
    reports_dir: Option<PathBuf>,
    stop_reaper: AtomicBool,
}

/// The serve daemon. Drop order: the reaper stops first, then the
/// scheduler drains. Call [`ServeDaemon::drain`] before dropping for a
/// *graceful* shutdown (events + reports flushed).
pub struct ServeDaemon {
    inner: Arc<Inner>,
    reaper: Option<std::thread::JoinHandle<()>>,
}

impl ServeDaemon {
    /// Starts a daemon (scheduler + reaper thread).
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
                accepted: 0,
                completed: 0,
                cancelled: 0,
                timed_out: 0,
                failed: 0,
                expired: 0,
                shed: 0,
                rejected: 0,
                errors: 0,
                pending_high_water: 0,
            }),
            subs: Mutex::new(Vec::new()),
            trace: config.trace,
            default_watchdog: config.default_watchdog,
            policy: config.tenant_policy,
            reports_dir: config.reports_dir,
            stop_reaper: AtomicBool::new(false),
        });
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-reaper".into())
                .spawn(move || {
                    while !inner.stop_reaper.load(Ordering::Acquire) {
                        inner.reap();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
                .expect("spawn serve reaper")
        };
        ServeDaemon {
            inner,
            reaper: Some(reaper),
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
        let (tx, rx) = mpsc::channel();
        self.inner.subs.lock().push(tx);
        rx
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
        // Reap first so the snapshot reflects finished jobs even if the
        // reaper thread hasn't run this millisecond.
        self.inner.reap();
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
        self.inner.stop_reaper.store(true, Ordering::Release);
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
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
        subs.retain(|tx| events.iter().all(|ev| tx.send(ev.clone()).is_ok()));
    }

    fn stats_locked(&self, state: &DaemonState) -> ServeStats {
        ServeStats {
            accepted: state.accepted,
            completed: state.completed,
            cancelled: state.cancelled,
            timed_out: state.timed_out,
            failed: state.failed,
            expired: state.expired,
            shed: state.shed,
            rejected: state.rejected,
            errors: state.errors,
            breaker_trips: state.breaker.trips(),
            pending: self.sched.pending() as u64,
            running: self.sched.running() as u64,
            in_flight: state.inflight.len() as u64,
            pending_high_water: state.pending_high_water,
            draining: u64::from(!state.admitting),
        }
    }

    fn handle_line(&self, line: &str) -> Vec<Event> {
        let request = match parse_request(line) {
            Ok(Some(request)) => request,
            Ok(None) => return Vec::new(),
            Err(reason) => {
                let mut state = self.state.lock();
                state.errors += 1;
                self.trace.add_counter("serve.errors", 1);
                let events = vec![Event::Error { reason }];
                self.broadcast(&events);
                drop(state);
                return events;
            }
        };
        match request {
            Request::Ping => {
                let state = self.state.lock();
                let events = vec![Event::Pong];
                self.broadcast(&events);
                drop(state);
                events
            }
            Request::Stats => {
                let mut events = self.reap();
                let state = self.state.lock();
                let ev = Event::Stats(self.stats_locked(&state));
                self.broadcast(std::slice::from_ref(&ev));
                drop(state);
                events.push(ev);
                events
            }
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
            Request::Drain(policy) => {
                let summary = self.drain(policy);
                vec![Event::Drained {
                    completed: summary.completed,
                    cancelled: summary.cancelled,
                    timed_out: summary.timed_out,
                    failed: summary.failed,
                }]
            }
        }
    }

    fn cancel(&self, tenant: Option<String>, name: String) -> Vec<Event> {
        let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let key = format!("{tenant}/{name}");
        let state = self.state.lock();
        let events = match state.inflight.get(&key) {
            Some(entry) => {
                entry.handle.cancel();
                vec![Event::Cancelling { tenant, job: name }]
            }
            None => vec![Event::Error {
                reason: format!("cancel: no in-flight job '{name}' for tenant '{tenant}'"),
            }],
        };
        self.broadcast(&events);
        drop(state);
        events
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
                // read cannot stall admission or the reaper.
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
        // Broadcast under the state lock like every other emitter, so
        // subscribers keep seeing one global event order.
        let state = self.state.lock();
        self.broadcast(std::slice::from_ref(&event));
        drop(state);
        vec![event]
    }

    fn submit(&self, job: StitchJob) -> Vec<Event> {
        let tenant = job
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let name = job.name.clone();
        let now = Instant::now();

        // Reap first: a finished-but-unreaped job must not count
        // against its tenant's quota or hold its name.
        let mut events = self.reap();
        let mut state = self.state.lock();

        if !state.admitting {
            events.push(self.shed(&mut state, &tenant, &name, ShedReason::Draining));
            return events;
        }
        if !state.breaker.admit(now) {
            events.push(self.shed(&mut state, &tenant, &name, ShedReason::BreakerOpen));
            return events;
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
            events.push(self.shed(&mut state, &tenant, &name, ShedReason::RateLimit));
            return events;
        }
        let at_quota = state.tenants[&tenant].in_flight >= self.policy.max_in_flight;
        if at_quota {
            events.push(self.shed(&mut state, &tenant, &name, ShedReason::TenantQuota));
            return events;
        }

        let key = format!("{tenant}/{name}");
        let mut sched_job = job;
        sched_job.name = key.clone();
        sched_job.tenant = Some(tenant.clone());
        sched_job.watchdog = sched_job.watchdog.or(self.default_watchdog);

        let event = match self.sched.submit(sched_job) {
            Ok(handle) => {
                state.breaker.on_accept(now);
                state.accepted += 1;
                let tstate = state.tenants.get_mut(&tenant).expect("tenant registered");
                tstate.in_flight += 1;
                tstate.accepted += 1;
                state.inflight.insert(
                    key,
                    InFlight {
                        tenant: tenant.clone(),
                        job: name.clone(),
                        handle,
                        announced: false,
                    },
                );
                let depth = self.sched.pending() as u64;
                state.pending_high_water = state.pending_high_water.max(depth);
                self.trace.add_counter("serve.accepted", 1);
                self.trace
                    .set_gauge_max("serve.pending_high_water", depth as f64);
                Event::Queued { tenant, job: name }
            }
            Err(SubmitError::Busy { .. }) => {
                state.breaker.on_overload(now);
                self.shed(&mut state, &tenant, &name, ShedReason::QueueFull)
            }
            Err(SubmitError::Draining) | Err(SubmitError::ShuttingDown) => {
                self.shed(&mut state, &tenant, &name, ShedReason::Draining)
            }
            Err(err) => {
                state.rejected += 1;
                self.trace.add_counter("serve.rejected", 1);
                Event::Rejected {
                    tenant,
                    job: name,
                    reason: err.to_string(),
                }
            }
        };
        self.broadcast(std::slice::from_ref(&event));
        drop(state);
        events.push(event);
        events
    }

    /// Records a shed and builds its event. Caller holds the state
    /// lock; the event is broadcast here so subscribers see it in
    /// lock order.
    fn shed(&self, state: &mut DaemonState, tenant: &str, job: &str, reason: ShedReason) -> Event {
        state.shed += 1;
        if let Some(t) = state.tenants.get_mut(tenant) {
            t.shed += 1;
        }
        self.trace.add_counter("serve.shed", 1);
        let event = Event::Shed {
            tenant: tenant.to_string(),
            job: job.to_string(),
            reason,
        };
        self.broadcast(std::slice::from_ref(&event));
        event
    }

    /// Turns scheduler progress into events: newly dispatched jobs
    /// become `Running`, finished jobs become `Done` (with their report
    /// flushed and tenant quota released). Runs under the state lock
    /// (events broadcast before it is released); called by the reaper
    /// thread every ~1 ms and inline before admission decisions, so
    /// single-threaded tests see deterministic event order.
    fn reap(&self) -> Vec<Event> {
        let mut state = self.state.lock();
        let mut events = Vec::new();

        // One walk over the in-flight jobs. `is_done` is read before the
        // dispatch stamp: a finished job that ran was stamped before it
        // finished, so its `running` is never left for after its `done`.
        let mut done_keys = Vec::new();
        let mut started = Vec::new();
        for (key, entry) in state.inflight.iter_mut() {
            if entry.handle.is_done() {
                done_keys.push(key.clone());
            }
            if let (false, Some(seq)) = (entry.announced, entry.handle.dispatch_seq()) {
                entry.announced = true;
                let (tenant, job) = (entry.tenant.clone(), entry.job.clone());
                started.push((seq, Event::Running { tenant, job }));
            }
        }
        started.sort_unstable_by_key(|(seq, _)| *seq);
        events.extend(started.into_iter().map(|(_, running)| running));

        for key in done_keys {
            let entry = state.inflight.remove(&key).expect("key just seen");
            if let Some(canvas) = entry.handle.preview_canvas() {
                // Keep the finished job's canvas addressable for
                // `region`, evicting the oldest past the cap.
                state.previews.retain(|(k, _)| k != &key);
                state.previews.push((key.clone(), canvas));
                if state.previews.len() > RETAINED_PREVIEWS {
                    let excess = state.previews.len() - RETAINED_PREVIEWS;
                    state.previews.drain(..excess);
                }
            }
            let outcome = entry.handle.wait();
            match &outcome.status {
                JobStatus::Completed => {
                    state.completed += 1;
                    self.trace.add_counter("serve.completed", 1);
                }
                JobStatus::Cancelled => {
                    state.cancelled += 1;
                    self.trace.add_counter("serve.cancelled", 1);
                }
                JobStatus::TimedOut => {
                    state.timed_out += 1;
                    self.trace.add_counter("serve.timed_out", 1);
                }
                JobStatus::Expired => {
                    state.expired += 1;
                    self.trace.add_counter("serve.expired", 1);
                }
                JobStatus::Failed(_) => {
                    state.failed += 1;
                    self.trace.add_counter("serve.failed", 1);
                }
            }
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
            events.push(Event::Done {
                tenant: entry.tenant,
                job: entry.job,
                status: outcome.status,
                elapsed: outcome.elapsed,
            });
        }

        let depth = self.sched.pending() as u64;
        if depth > state.pending_high_water {
            state.pending_high_water = depth;
            self.trace
                .set_gauge_max("serve.pending_high_water", depth as f64);
        }
        self.broadcast(&events);
        drop(state);
        events
    }

    fn drain(&self, policy: DrainPolicy) -> DrainSummary {
        {
            let mut state = self.state.lock();
            state.admitting = false;
            self.broadcast(&[Event::Draining]);
        }
        let sched_report = self.sched.drain(policy);
        // The scheduler is empty; reap until the daemon's own tracking
        // agrees (every Done event emitted, every report flushed).
        loop {
            self.reap();
            if self.state.lock().inflight.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let state = self.state.lock();
        let summary = DrainSummary {
            sched: sched_report,
            completed: state.completed,
            cancelled: state.cancelled,
            timed_out: state.timed_out,
            failed: state.failed,
        };
        self.broadcast(&[Event::Drained {
            completed: state.completed,
            cancelled: state.cancelled,
            timed_out: state.timed_out,
            failed: state.failed,
        }]);
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
