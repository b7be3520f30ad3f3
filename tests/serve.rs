//! Chaos and soak battery for the `stitch serve` daemon.
//!
//! The contract under test: a long-running daemon fed continuous job
//! submissions from multiple tenants must
//!
//! 1. force every scripted fate deterministically — healthy jobs
//!    complete, panicking jobs fail (contained), hung jobs with a
//!    watchdog time out, hung jobs cancelled by a client cancel —
//!    with `run_serve_chaos(seed)` pure in its seed,
//! 2. contain malformed input as `event=error` lines without dropping
//!    service, and survive subscriber disconnects,
//! 3. shed overload fast (tenant quotas, rate limits, queue-full →
//!    circuit breaker) instead of queueing unboundedly, and
//! 4. drain gracefully: close admission, settle every in-flight job,
//!    flush every report, release every lease.

use std::time::{Duration, Instant};

use stitch_testkit::{run_serve_chaos, run_serve_soak};
use stitching::sched::DrainPolicy;
use stitching::serve::{
    BreakerConfig, CircuitBreaker, Event, RateLimit, ServeConfig, ServeDaemon, ShedReason,
    TenantPolicy,
};

/// Chaos determinism: same seed, same fates, same contained errors —
/// regardless of worker interleaving.
#[test]
fn serve_chaos_is_deterministic_in_its_seed() {
    for seed in [3u64, 11, 2026] {
        let a = run_serve_chaos(seed);
        let b = run_serve_chaos(seed);
        assert_eq!(a, b, "seed {seed}: chaos outcome diverged");
        assert!(a.clean(), "seed {seed}: dirty invariants: {a:?}");
        assert_eq!(
            a.fates,
            a.expected_fates(),
            "seed {seed}: a job escaped its scripted fate"
        );
    }
}

/// Different seeds must produce different storms (the harness is not
/// degenerate).
#[test]
fn serve_chaos_seeds_differ() {
    let a = run_serve_chaos(1);
    let b = run_serve_chaos(2);
    assert_ne!(a.fates, b.fates);
}

/// Soak: hundreds of jobs across three tenants through a deliberately
/// tiny daemon. Every accepted job is accounted for, queue depth stays
/// bounded, nothing leaks, and the drain flushes one report per job
/// that ran.
#[test]
fn serve_soak_accounts_for_every_job_and_leaks_nothing() {
    let out = run_serve_soak(42, 120);
    assert!(out.clean(), "soak invariants violated: {out:?}");
    assert!(
        out.dropped == 0,
        "retrying client should have landed every job: {out:?}"
    );
    assert!(out.completed > 0, "soak ran no jobs: {out:?}");
}

/// CI soak smoke (run explicitly with `--ignored`): ≥500 jobs across
/// three tenants through a small daemon with quotas, rate limits, a
/// watchdog, and injected hangs/panics — zero leaked leases, bounded
/// queue depth, every accepted job accounted for, one report per job
/// that ran.
#[test]
#[ignore = "soak smoke for the CI serve job; seconds-long"]
fn serve_soak_smoke_500() {
    let out = run_serve_soak(2026, 600);
    assert!(out.clean(), "soak invariants violated: {out:?}");
    assert!(out.submitted >= 500, "not a soak: {out:?}");
}

/// Watchdog story, end to end at the daemon level: a hung job is
/// cancelled by its deadline, its leases come back, its trace lane is
/// merged and closed, and the daemon keeps serving other tenants
/// throughout.
#[test]
fn watchdog_cancels_hung_job_while_daemon_serves_others() {
    let trace = stitching::trace::TraceHandle::new();
    let daemon = ServeDaemon::new(ServeConfig {
        workers: 2,
        trace: trace.clone(),
        ..ServeConfig::default()
    });
    let rx = daemon.subscribe();
    let events = daemon.handle_line(
        "submit name=hung tenant=acme grid=2x2 tile=32x24 hang-ms=600000 watchdog-ms=25 \
         compose=false",
    );
    assert!(matches!(events.last(), Some(Event::Queued { .. })));

    // While the watchdog counts down, another tenant gets full service.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut served = 0u32;
    while served < 3 && Instant::now() < deadline {
        let events = daemon.handle_line(&format!(
            "submit name=ok{served} tenant=beta grid=2x2 tile=32x24 compose=false"
        ));
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
        served += 1;
    }

    let summary = daemon.drain(DrainPolicy::Finish);
    assert_eq!(summary.timed_out, 1, "watchdog must have fired");
    assert_eq!(summary.completed, u64::from(served));
    assert_eq!(summary.cancelled, 0);

    // The timed-out job's terminal event says `timeout`.
    let done: Vec<Event> = rx.try_iter().collect();
    assert!(done.iter().any(|e| matches!(
        e,
        Event::Done { job, status, .. }
            if job == "hung" && *status == stitching::sched::JobStatus::TimedOut
    )));

    // Leases reclaimed, nothing tracked, daemon still answering.
    assert_eq!(daemon.scheduler().arbiter().active_reservations(), 0);
    assert_eq!(daemon.scheduler().arbiter().leased_spectra(), 0);
    assert_eq!(daemon.stats().in_flight, 0);
    assert_eq!(daemon.handle_line("ping"), vec![Event::Pong]);

    // The healthy jobs' trace lanes were merged back under the master
    // trace (`job.<tenant>/<name>/…`) — the lanes closed cleanly.
    let spans = trace.spans();
    assert!(
        spans.iter().any(|s| s.track.starts_with("job.beta/ok0/")),
        "missing merged per-job lane among {} spans",
        spans.len()
    );
    assert_eq!(trace.counters().get("serve.timed_out"), Some(&1));
}

/// Overload shedding, all three layers: tenant quota, rate limit, and
/// the queue-full → breaker path, each refusing fast with the right
/// reason.
#[test]
fn overload_sheds_fast_with_the_right_reasons() {
    let daemon = ServeDaemon::new(ServeConfig {
        workers: 1,
        max_pending: 3,
        tenant_policy: TenantPolicy {
            max_in_flight: 4,
            rate: Some(RateLimit {
                burst: 100,
                per_sec: 1000.0,
            }),
            mem_cap: None,
        },
        breaker: BreakerConfig {
            threshold: 2,
            window: Duration::from_secs(10),
            cooldown: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    });
    // One hung job occupies the single worker...
    let events = daemon
        .handle_line("submit name=h0 tenant=acme grid=2x2 tile=32x24 hang-ms=600000 compose=false");
    assert!(
        matches!(events.last(), Some(Event::Queued { .. })),
        "{events:?}"
    );
    // ...and once it is *dispatched* (not merely queued), three more
    // fill the bounded pending queue deterministically.
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.stats().running < 1 {
        assert!(Instant::now() < deadline, "h0 never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    for i in 1..4 {
        let events = daemon.handle_line(&format!(
            "submit name=h{i} tenant=acme grid=2x2 tile=32x24 hang-ms=600000 compose=false"
        ));
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
    }
    // Tenant quota: acme is at max_in_flight (1 running + 3 queued).
    let events = daemon.handle_line("submit name=h4 tenant=acme grid=2x2 tile=32x24 compose=false");
    assert!(matches!(
        events.last(),
        Some(Event::Shed {
            reason: ShedReason::TenantQuota,
            ..
        })
    ));
    // Queue full: another tenant hits the scheduler's bounded queue.
    // Two queue-full overloads trip the breaker...
    for i in 0..2 {
        let events = daemon.handle_line(&format!(
            "submit name=q{i} tenant=beta grid=2x2 tile=32x24 compose=false"
        ));
        assert!(
            matches!(
                events.last(),
                Some(Event::Shed {
                    reason: ShedReason::QueueFull,
                    ..
                })
            ),
            "{events:?}"
        );
    }
    // ...after which the daemon rejects without consulting the
    // scheduler at all (cooldown is 10 min; no probe).
    let events = daemon.handle_line("submit name=q2 tenant=beta grid=2x2 tile=32x24 compose=false");
    assert!(matches!(
        events.last(),
        Some(Event::Shed {
            reason: ShedReason::BreakerOpen,
            ..
        })
    ));
    let stats = daemon.stats();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.shed, 4);
    // Unwedge and shut down cleanly: cancel the hung tenant's jobs,
    // then drain cancelling anything left.
    for i in 0..4 {
        daemon.handle_line(&format!("cancel tenant=acme name=h{i}"));
    }
    let summary = daemon.drain(DrainPolicy::CancelAll);
    assert_eq!(summary.cancelled, 4);
    assert_eq!(daemon.scheduler().arbiter().active_reservations(), 0);
}

/// A standalone rate-limit check with a manual clock (no sleeps): the
/// bucket's burst admits, the next submission sheds `rate-limit`.
#[test]
fn rate_limit_sheds_beyond_burst() {
    let daemon = ServeDaemon::new(ServeConfig {
        workers: 2,
        tenant_policy: TenantPolicy {
            max_in_flight: 100,
            rate: Some(RateLimit {
                burst: 2,
                per_sec: 0.001, // effectively no refill within the test
            }),
            mem_cap: None,
        },
        ..ServeConfig::default()
    });
    for i in 0..2 {
        let events = daemon.handle_line(&format!(
            "submit name=r{i} tenant=acme grid=2x2 tile=32x24 compose=false"
        ));
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
    }
    let events = daemon.handle_line("submit name=r2 tenant=acme grid=2x2 tile=32x24 compose=false");
    assert!(matches!(
        events.last(),
        Some(Event::Shed {
            reason: ShedReason::RateLimit,
            ..
        })
    ));
    daemon.drain(DrainPolicy::Finish);
}

/// Per-tenant memory caps flow through to the arbiter as scope caps: a
/// job that can never fit its tenant's cap is rejected outright even
/// though the global budget would admit it.
#[test]
fn tenant_mem_cap_rejects_oversized_jobs() {
    let daemon = ServeDaemon::new(ServeConfig {
        workers: 2,
        memory_budget: 1 << 30,
        tenant_policy: TenantPolicy {
            max_in_flight: 8,
            rate: None,
            mem_cap: Some(1 << 20), // 1 MiB per tenant
        },
        ..ServeConfig::default()
    });
    // Register the tenant (first touch installs the scope cap), then
    // oversubscribe it.
    let events =
        daemon.handle_line("submit name=small tenant=acme grid=2x2 tile=32x24 compose=false");
    assert!(matches!(events.last(), Some(Event::Queued { .. })));
    let events =
        daemon.handle_line("submit name=big tenant=acme grid=8x8 tile=256x256 compose=false");
    assert!(
        matches!(events.last(), Some(Event::Rejected { .. })),
        "a job beyond its tenant's cap must be rejected: {events:?}"
    );
    let summary = daemon.drain(DrainPolicy::Finish);
    assert_eq!(summary.completed, 1);
    assert_eq!(daemon.stats().rejected, 1);
}

/// The drain request is honored over the wire, and a drained daemon
/// sheds new submissions with `draining` while still answering pings —
/// clients get a clean refusal, not a hang or a dropped connection.
#[test]
fn wire_drain_then_submissions_shed_as_draining() {
    let daemon = ServeDaemon::new(ServeConfig::default());
    daemon.handle_line("submit name=j grid=2x2 tile=32x24 compose=false");
    let events = daemon.handle_line("drain policy=finish");
    assert!(
        matches!(events.last(), Some(Event::Drained { completed: 1, .. })),
        "{events:?}"
    );
    let events = daemon.handle_line("submit name=late grid=2x2 tile=32x24 compose=false");
    assert!(matches!(
        events.last(),
        Some(Event::Shed {
            reason: ShedReason::Draining,
            ..
        })
    ));
    assert_eq!(daemon.handle_line("ping"), vec![Event::Pong]);
}

/// The breaker recovers: after the cooldown, one probe is admitted and
/// a successful probe closes the circuit (tested on the component with
/// a manual clock; the daemon path is covered above).
#[test]
fn breaker_recovers_after_cooldown() {
    let t0 = Instant::now();
    let mut b = CircuitBreaker::new(BreakerConfig {
        threshold: 2,
        window: Duration::from_millis(100),
        cooldown: Duration::from_millis(50),
    });
    b.on_overload(t0);
    b.on_overload(t0);
    assert!(b.is_open());
    let t1 = t0 + Duration::from_millis(60);
    assert!(b.admit(t1), "cooldown elapsed: probe admitted");
    b.on_accept(t1);
    assert!(!b.is_open(), "successful probe closes the breaker");
}

// The push path: the scheduler pushes `running` and `done`, the daemon
// broadcasts them, and nothing on either side polls.

/// A daemon that tracks `jobs` at once, on `workers` slots, with tracing
/// on so every finished job has a report to flush.
fn push_daemon(
    workers: usize,
    jobs: usize,
    reports_dir: Option<std::path::PathBuf>,
) -> ServeDaemon {
    ServeDaemon::new(ServeConfig {
        workers,
        max_pending: jobs,
        trace: stitching::trace::TraceHandle::new(),
        tenant_policy: TenantPolicy {
            max_in_flight: jobs,
            ..TenantPolicy::default()
        },
        reports_dir,
        ..ServeConfig::default()
    })
}

fn tiny_submit(name: &str) -> String {
    format!("submit name={name} tenant=acme grid=2x2 tile=32x24 compose=false")
}

/// Position of the first event in `seen` matching `pred`.
fn first(seen: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
    seen.iter().position(pred).expect("event present")
}

/// A subscriber that only reads — no `stats`, `ping` or `drain` of its
/// own that could settle jobs on its behalf — hears every one of 32
/// concurrent jobs start and finish.
#[test]
fn a_subscriber_that_only_listens_hears_every_job_run_and_finish() {
    const JOBS: usize = 32;
    let daemon = push_daemon(4, JOBS, None);
    let rx = daemon.subscribe();
    let listener = std::thread::spawn(move || {
        let (mut running, mut done) = (Vec::new(), Vec::new());
        while done.len() < JOBS {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Event::Running { job, .. }) => running.push(job),
                Ok(Event::Done { job, status, .. }) => {
                    assert_eq!(status, stitching::sched::JobStatus::Completed, "{job}");
                    done.push(job);
                }
                Ok(_) => {}
                Err(e) => panic!("{} of {JOBS} jobs done, then {e}", done.len()),
            }
        }
        (running, done)
    });
    for i in 0..JOBS {
        let events = daemon.handle_line(&tiny_submit(&format!("j{i}")));
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
    }
    let (mut running, mut done) = listener.join().expect("listener");
    running.sort();
    done.sort();
    let mut all: Vec<String> = (0..JOBS).map(|i| format!("j{i}")).collect();
    all.sort();
    assert_eq!(running, all);
    assert_eq!(done, all);
}

/// Every subscriber sees one global order, and in it every job's
/// `queued` precedes its `running` precedes its `done`.
#[test]
fn two_subscribers_see_one_order_with_queued_running_done() {
    const JOBS: usize = 16;
    let daemon = push_daemon(3, JOBS, None);
    let (a, b) = (daemon.subscribe(), daemon.subscribe());
    for i in 0..JOBS {
        daemon.handle_line(&tiny_submit(&format!("j{i}")));
    }
    daemon.drain(DrainPolicy::Finish);
    let (a, b): (Vec<Event>, Vec<Event>) = (a.try_iter().collect(), b.try_iter().collect());
    assert_eq!(a, b, "subscribers disagree on the order");
    for i in 0..JOBS {
        let name = format!("j{i}");
        let queued = first(
            &a,
            |e| matches!(e, Event::Queued { job, .. } if *job == name),
        );
        let running = first(
            &a,
            |e| matches!(e, Event::Running { job, .. } if *job == name),
        );
        let done = first(&a, |e| matches!(e, Event::Done { job, .. } if *job == name));
        assert!(
            queued < running && running < done,
            "{name}: {queued} {running} {done}"
        );
    }
}

/// `drain` returns after the last `done` is broadcast and the last report
/// is on disk, and its own `drained` comes after every `done`.
#[test]
fn drain_returns_after_every_done_and_report() {
    const JOBS: usize = 12;
    let dir = std::env::temp_dir().join(format!("stitch-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = push_daemon(2, JOBS, Some(dir.clone()));
    let rx = daemon.subscribe();
    for i in 0..JOBS {
        daemon.handle_line(&tiny_submit(&format!("j{i}")));
    }
    let summary = daemon.drain(DrainPolicy::Finish);
    // read the moment drain returns: nothing may still be on its way
    let seen: Vec<Event> = rx.try_iter().collect();
    let reports = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(summary.completed, JOBS as u64);
    assert_eq!(reports, JOBS, "reports flushed before drain returned");
    let done: Vec<usize> = (0..seen.len())
        .filter(|&i| matches!(seen[i], Event::Done { .. }))
        .collect();
    assert_eq!(done.len(), JOBS, "done broadcast before drain returned");
    let drained = first(&seen, |e| matches!(e, Event::Drained { .. }));
    assert!(done.iter().all(|&i| i < drained), "{seen:?}");
}

/// A `hang-ms` job waits on its cancel signal, so the watchdog's cancel
/// ends it at once and its only slot goes to the next job.
#[test]
fn a_watchdog_cancelled_hang_frees_its_slot() {
    let daemon = push_daemon(1, 2, None);
    let rx = daemon.subscribe();
    daemon.handle_line(
        "submit name=hung tenant=acme grid=2x2 tile=32x24 hang-ms=600000 watchdog-ms=25 \
         compose=false",
    );
    daemon.handle_line(&tiny_submit("next"));
    let mut finished = Vec::new();
    while finished.len() < 2 {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Event::Done {
                job,
                status,
                elapsed,
                ..
            }) => finished.push((job, status, elapsed)),
            Ok(_) => {}
            Err(e) => panic!("after {finished:?}: {e}"),
        }
    }
    use stitching::sched::JobStatus;
    assert_eq!(
        (finished[0].0.as_str(), &finished[0].1),
        ("hung", &JobStatus::TimedOut)
    );
    assert!(
        finished[0].2 < Duration::from_secs(10),
        "hang outlived its watchdog"
    );
    assert_eq!(
        (finished[1].0.as_str(), &finished[1].1),
        ("next", &JobStatus::Completed)
    );
    assert_eq!(daemon.scheduler().arbiter().active_reservations(), 0);
}

/// A shed is announced once: a queue-full refusal reaches a subscriber as
/// one `shed` event, like every other reply.
#[test]
fn a_queue_full_shed_is_broadcast_once() {
    let daemon = ServeDaemon::new(ServeConfig {
        workers: 1,
        max_pending: 1,
        ..ServeConfig::default()
    });
    let rx = daemon.subscribe();
    daemon.scheduler().pause();
    daemon.handle_line(&tiny_submit("held"));
    let events = daemon.handle_line(&tiny_submit("over"));
    assert!(
        matches!(
            events.as_slice(),
            [Event::Shed {
                reason: ShedReason::QueueFull,
                ..
            }]
        ),
        "{events:?}"
    );
    daemon.scheduler().resume();
    daemon.drain(DrainPolicy::Finish);
    let sheds = rx
        .try_iter()
        .filter(|e| matches!(e, Event::Shed { job, .. } if job == "over"))
        .count();
    assert_eq!(sheds, 1);
}
