//! The `stitch serve` line protocol: requests in, events out.
//!
//! One request per line, `#` starts a comment, blank lines are ignored.
//! The first token is the verb; everything after it is `key=value`
//! tokens read by the workspace's one option reader (a `submit` payload
//! is exactly the `serve-batch` job line, [`stitch_sched::parse_job_line`]).
//! Every verb, key, default and range rule is in the README's "Option
//! grammar" section.
//!
//! ```text
//! submit tenant=acme name=p7 variant=pipelined-cpu grid=4x5 tile=64x48
//! region tenant=acme name=p7 scale=2 x=0 y=0 w=64 h=64
//! drain policy=finish
//! ```
//!
//! Every response line is an event, `event=<kind>` first:
//!
//! ```text
//! event=queued tenant=acme job=p7
//! event=running tenant=acme job=p7
//! event=done tenant=acme job=p7 status=completed ms=41
//! event=shed tenant=acme job=p8 reason=tenant-quota
//! event=error reason="parse: unknown key 'grdi'"
//! ```
//!
//! Malformed input **never** kills the daemon: a bad line produces
//! exactly one `event=error` and the connection keeps serving.

use std::time::Duration;

use stitch_image::opts::Options;
use stitch_sched::{parse_job_line, DrainPolicy, JobStatus, StitchJob};

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit a job (the payload is the shared job-line grammar).
    Submit(Box<StitchJob>),
    /// Cancel an in-flight job by tenant + name.
    Cancel {
        /// Owning tenant (defaults to the daemon's default tenant).
        tenant: Option<String>,
        /// Job name, as submitted.
        name: String,
    },
    /// Read a progressive-preview region from a `preview=true` job's
    /// canvas (works mid-run and after completion; the reply is a
    /// summary — coverage counts plus a pixel digest — not raw pixels,
    /// keeping the text protocol line-oriented).
    Region {
        /// Owning tenant (defaults to the daemon's default tenant).
        tenant: Option<String>,
        /// Job name, as submitted.
        name: String,
        /// Pyramid scale (0 = full resolution).
        scale: usize,
        /// Region origin in scale-`scale` canvas coordinates.
        x: i64,
        /// Region origin in scale-`scale` canvas coordinates.
        y: i64,
        /// Region width in pixels.
        w: usize,
        /// Region height in pixels.
        h: usize,
    },
    /// Ask for a stats snapshot.
    Stats,
    /// Begin a graceful drain.
    Drain(
        /// What happens to in-flight jobs.
        DrainPolicy,
    ),
    /// Liveness probe.
    Ping,
}

/// Parses one protocol line. `Ok(None)` means the line was blank or a
/// comment; `Err` carries a human-readable reason (the daemon wraps it
/// in an `event=error` rather than failing).
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let request = match verb {
        "submit" => parse_job_line(rest).map(|job| Request::Submit(Box::new(job))),
        "cancel" => keyed(rest, |o| {
            let (tenant, name) = job_key(o)?;
            Ok(Request::Cancel { tenant, name })
        }),
        "region" => keyed(rest, |o| {
            let (tenant, name) = job_key(o)?;
            let (w, h) = (o.take("w")?.unwrap_or(64), o.take("h")?.unwrap_or(64));
            if !(1..=4096).contains(&w) || !(1..=4096).contains(&h) {
                return Err(format!("w/h must be 1..=4096, got {w}x{h}"));
            }
            Ok(Request::Region {
                tenant,
                name,
                scale: o.take("scale")?.unwrap_or(0),
                x: o.take("x")?.unwrap_or(0),
                y: o.take("y")?.unwrap_or(0),
                w,
                h,
            })
        }),
        "drain" => keyed(rest, |o| {
            Ok(Request::Drain(
                o.take("policy")?.unwrap_or(DrainPolicy::Finish),
            ))
        }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        other => {
            return Err(format!(
                "unknown verb '{other}' (submit, cancel, region, stats, drain, ping)"
            ))
        }
    };
    let scope = if verb == "submit" { "parse" } else { verb };
    request.map(Some).map_err(|e| format!("{scope}: {e}"))
}

/// Reads a request's `key=value` arguments with `read`; a key it did not
/// take is an error.
fn keyed(
    rest: &str,
    read: impl FnOnce(&mut Options) -> Result<Request, String>,
) -> Result<Request, String> {
    let mut o = Options::from_pairs(rest.split_whitespace())?;
    let request = read(&mut o)?;
    o.finish()?;
    Ok(request)
}

/// The `[tenant=…] name=…` pair that addresses an in-flight job.
fn job_key(o: &mut Options) -> Result<(Option<String>, String), String> {
    match o.take::<String>("name")? {
        Some(name) if !name.is_empty() => Ok((o.take("tenant")?, name)),
        _ => Err("needs name=<job>".into()),
    }
}

/// Why a submission was shed (refused fast, by design) rather than
/// queued. Shedding is load protection; it is not an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The scheduler's pending queue is at capacity.
    QueueFull,
    /// The tenant is at its concurrent in-flight job quota.
    TenantQuota,
    /// The tenant's token bucket is empty.
    RateLimit,
    /// The load-shed circuit breaker is open after repeated overloads.
    BreakerOpen,
    /// The daemon is draining; nothing new is admitted.
    Draining,
}

impl ShedReason {
    /// Wire token for the reason.
    pub fn token(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::TenantQuota => "tenant-quota",
            ShedReason::RateLimit => "rate-limit",
            ShedReason::BreakerOpen => "breaker-open",
            ShedReason::Draining => "draining",
        }
    }
}

/// Wire token for a terminal job status.
pub fn status_token(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Completed => "completed",
        JobStatus::Cancelled => "cancelled",
        JobStatus::Expired => "expired",
        JobStatus::TimedOut => "timeout",
        JobStatus::Failed(_) => "failed",
    }
}

/// A lifecycle event emitted by the daemon. Every subscriber sees every
/// event; [`Event::to_line`] is the wire form.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A submission was accepted and queued.
    Queued {
        /// Owning tenant.
        tenant: String,
        /// Job name (tenant-local).
        job: String,
    },
    /// A queued job was dispatched to a worker.
    Running {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
    },
    /// A job reached a terminal state.
    Done {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Terminal status.
        status: JobStatus,
        /// Wall time from dispatch to finish.
        elapsed: Duration,
    },
    /// A submission was refused outright (bad variant/size/duplicate).
    Rejected {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Refusal reason.
        reason: String,
    },
    /// A submission was shed by overload protection.
    Shed {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Which protection layer refused it.
        reason: ShedReason,
    },
    /// A cancel request matched an in-flight job (its `done` event
    /// follows once the cancellation lands).
    Cancelling {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
    },
    /// Reply to `region`: a summary of a preview-canvas read. `placed`
    /// counts tiles placed on the canvas so far (coverage grows as the
    /// job runs), `nonzero`/`sum` summarize the region's pixels, and
    /// `digest` is an FNV-1a hash of the pixel data so clients can
    /// detect change (and tests can pin determinism) without shipping
    /// raw pixels over the line protocol.
    Region {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Pyramid scale that was read.
        scale: usize,
        /// Region origin (scale coordinates).
        x: i64,
        /// Region origin (scale coordinates).
        y: i64,
        /// Region width in pixels.
        w: usize,
        /// Region height in pixels.
        h: usize,
        /// Tiles placed on the canvas so far.
        placed: u64,
        /// Count of non-zero pixels in the region.
        nonzero: u64,
        /// Sum of the region's pixel values.
        sum: u64,
        /// FNV-1a 64-bit digest of the region's pixels.
        digest: u64,
    },
    /// A malformed or unserviceable line, contained.
    Error {
        /// What was wrong.
        reason: String,
    },
    /// Stats snapshot (reply to `stats`).
    Stats(
        /// The snapshot.
        crate::daemon::ServeStats,
    ),
    /// Reply to `ping`.
    Pong,
    /// A drain has begun; nothing new will be admitted.
    Draining,
    /// The drain finished: every in-flight job reached a terminal
    /// state and every report was flushed.
    Drained {
        /// Jobs that completed over the daemon's lifetime.
        completed: u64,
        /// Jobs cancelled (including drain-cancelled).
        cancelled: u64,
        /// Jobs timed out by the watchdog.
        timed_out: u64,
        /// Jobs that failed (error or contained panic).
        failed: u64,
    },
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    if value.is_empty() || value.contains(char::is_whitespace) || value.contains('"') {
        // Debug-quote anything that would break token splitting.
        out.push_str(&format!("{value:?}"));
    } else {
        out.push_str(value);
    }
}

impl Event {
    /// The wire form: `event=<kind> key=value ...`, one line, no `\n`.
    pub fn to_line(&self) -> String {
        let mut out = String::from("event=");
        match self {
            Event::Queued { tenant, job } => {
                out.push_str("queued");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
            }
            Event::Running { tenant, job } => {
                out.push_str("running");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
            }
            Event::Done {
                tenant,
                job,
                status,
                elapsed,
            } => {
                out.push_str("done");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
                push_kv(&mut out, "status", status_token(status));
                if let JobStatus::Failed(reason) = status {
                    push_kv(&mut out, "reason", reason);
                }
                push_kv(&mut out, "ms", &elapsed.as_millis().to_string());
            }
            Event::Rejected {
                tenant,
                job,
                reason,
            } => {
                out.push_str("rejected");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
                push_kv(&mut out, "reason", reason);
            }
            Event::Shed {
                tenant,
                job,
                reason,
            } => {
                out.push_str("shed");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
                push_kv(&mut out, "reason", reason.token());
            }
            Event::Cancelling { tenant, job } => {
                out.push_str("cancelling");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
            }
            Event::Region {
                tenant,
                job,
                scale,
                x,
                y,
                w,
                h,
                placed,
                nonzero,
                sum,
                digest,
            } => {
                out.push_str("region");
                push_kv(&mut out, "tenant", tenant);
                push_kv(&mut out, "job", job);
                push_kv(&mut out, "scale", &scale.to_string());
                push_kv(&mut out, "x", &x.to_string());
                push_kv(&mut out, "y", &y.to_string());
                push_kv(&mut out, "w", &w.to_string());
                push_kv(&mut out, "h", &h.to_string());
                push_kv(&mut out, "placed", &placed.to_string());
                push_kv(&mut out, "nonzero", &nonzero.to_string());
                push_kv(&mut out, "sum", &sum.to_string());
                push_kv(&mut out, "digest", &format!("{digest:016x}"));
            }
            Event::Error { reason } => {
                out.push_str("error");
                push_kv(&mut out, "reason", reason);
            }
            Event::Stats(stats) => {
                out.push_str("stats");
                for (key, value) in stats.kv() {
                    push_kv(&mut out, key, &value.to_string());
                }
            }
            Event::Pong => out.push_str("pong"),
            Event::Draining => out.push_str("draining"),
            Event::Drained {
                completed,
                cancelled,
                timed_out,
                failed,
            } => {
                out.push_str("drained");
                push_kv(&mut out, "completed", &completed.to_string());
                push_kv(&mut out, "cancelled", &cancelled.to_string());
                push_kv(&mut out, "timed-out", &timed_out.to_string());
                push_kv(&mut out, "failed", &failed.to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_verbs() {
        assert!(parse_request("").unwrap().is_none());
        assert!(parse_request("  # just a comment").unwrap().is_none());
        assert!(matches!(parse_request("ping"), Ok(Some(Request::Ping))));
        assert!(matches!(parse_request("stats"), Ok(Some(Request::Stats))));
        match parse_request("submit name=j1 tenant=acme grid=2x2 tile=32x24") {
            Ok(Some(Request::Submit(job))) => {
                assert_eq!(job.name, "j1");
                assert_eq!(job.tenant.as_deref(), Some("acme"));
            }
            other => panic!("{other:?}"),
        }
        match parse_request("cancel tenant=acme name=j1") {
            Ok(Some(Request::Cancel { tenant, name })) => {
                assert_eq!(tenant.as_deref(), Some("acme"));
                assert_eq!(name, "j1");
            }
            other => panic!("{other:?}"),
        }
        match parse_request("region tenant=acme name=j1 scale=2 x=-8 y=4 w=32 h=16") {
            Ok(Some(Request::Region {
                tenant,
                name,
                scale,
                x,
                y,
                w,
                h,
            })) => {
                assert_eq!(tenant.as_deref(), Some("acme"));
                assert_eq!(name, "j1");
                assert_eq!((scale, x, y, w, h), (2, -8, 4, 32, 16));
            }
            other => panic!("{other:?}"),
        }
        match parse_request("region name=j1") {
            Ok(Some(Request::Region {
                scale, x, y, w, h, ..
            })) => assert_eq!((scale, x, y, w, h), (0, 0, 0, 64, 64)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("drain policy=cancel-pending"),
            Ok(Some(Request::Drain(DrainPolicy::CancelPending)))
        ));
        assert!(matches!(
            parse_request("drain"),
            Ok(Some(Request::Drain(DrainPolicy::Finish)))
        ));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "frobnicate",
            "submit",                // no name
            "submit name=x bogus=1", // unknown key
            "submit name=x grid=2",  // bad pair
            "cancel tenant=acme",    // no name
            "cancel what",           // bare token
            "drain policy=sideways", // unknown policy
            "submit name=x variant=quantum",
            "region",                 // no name
            "region name=x scale=no", // bad number
            "region name=x w=0",      // degenerate region
            "region name=x w=65536",  // absurd region
            "region name=x frob=1",   // unknown key
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn event_lines_are_single_line_and_quoted() {
        let line = Event::Error {
            reason: "parse: bad key \"x\" near end".into(),
        }
        .to_line();
        assert!(line.starts_with("event=error reason=\""));
        assert!(!line.contains('\n'));
        let line = Event::Done {
            tenant: "acme".into(),
            job: "j1".into(),
            status: JobStatus::Failed("stitcher panicked".into()),
            elapsed: Duration::from_millis(7),
        }
        .to_line();
        assert!(line.contains("status=failed"));
        assert!(line.contains("reason=\"stitcher panicked\""));
        assert!(line.contains("ms=7"));
    }
}
