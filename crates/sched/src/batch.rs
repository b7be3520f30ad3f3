//! Batch runs: a line-based job-file format and a one-call driver that
//! submits every job, waits for the batch, and collects per-job
//! outcomes — the engine behind `stitch serve-batch`.
//!
//! ## Job-file format
//!
//! One job per line, whitespace-separated `key=value` tokens; `#` starts
//! a comment and blank lines are ignored:
//!
//! ```text
//! name=fast    variant=mt-cpu    grid=4x5  tile=64x48  threads=2 priority=4
//! name=gpu0    variant=simple-gpu    grid=4x4 tile=48x32 deadline-ms=5000
//! ```
//!
//! Every key, default and range rule is in the README's "Option grammar"
//! section. The same line is the `stitch serve` daemon's `submit`
//! payload, so batch files and daemon clients share [`parse_job_line`].

use std::time::{Duration, Instant};

use stitch_gpu::{Device, DeviceConfig};
use stitch_image::opts::{Dims, Options};
use stitch_image::ScanConfig;
use stitch_trace::TraceHandle;

use crate::job::{dispatch_order, JobOutcome, StitchJob};
use crate::scheduler::{Scheduler, SchedulerConfig, SubmitError};

/// A parse failure pinned to its job-file line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number in the job file.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Parses a whole job file, containing malformed lines instead of
/// failing: every parseable job is returned, and every bad line becomes
/// a structured [`LineError`]. A duplicated job name is reported as an
/// error on the *later* line; the first occurrence keeps its job. This
/// is the shared submission parser behind `serve-batch` and the
/// `stitch serve` daemon — a bad line never takes down the batch or
/// the daemon.
pub fn parse_job_file_lenient(text: &str) -> (Vec<StitchJob>, Vec<LineError>) {
    let mut jobs: Vec<StitchJob> = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match parse_job_line(line) {
            Ok(job) if jobs.iter().any(|j| j.name == job.name) => errors.push(LineError {
                line: idx + 1,
                message: format!("duplicate job name '{}'", job.name),
            }),
            Ok(job) => jobs.push(job),
            Err(message) => errors.push(LineError {
                line: idx + 1,
                message,
            }),
        }
    }
    (jobs, errors)
}

/// Parses one `key=value ...` job line.
pub fn parse_job_line(line: &str) -> Result<StitchJob, String> {
    let mut o = Options::from_pairs(line.split_whitespace())?;
    let name: String = o.take("name")?.ok_or("every job needs a name=")?;
    let tenant: Option<String> = o.take("tenant")?;
    if name.is_empty() || tenant.as_deref() == Some("") {
        return Err("job name and tenant must be non-empty".into());
    }
    let scan = o.take_scan(
        ScanConfig::for_grid(4, 5, 64, 48, 0.10, 7),
        Dims::Pair("grid"),
        Dims::Pair("tile"),
    )?;
    let mut job = StitchJob::new(name, scan);
    job.tenant = tenant;
    job.variant = o.take("variant")?.unwrap_or(job.variant);
    job.threads = o.take_count("threads")?.unwrap_or(job.threads);
    job.priority = o
        .take::<u32>("priority")?
        .map_or(job.priority, |p| p.max(1));
    job.deadline = o.take("deadline-ms")?.map(Duration::from_millis);
    job.watchdog = o.take("watchdog-ms")?.map(Duration::from_millis);
    job.chaos.hang_ms = o.take("hang-ms")?;
    job.chaos.panic_at_start = o.take("panic")?.unwrap_or(false);
    job.compose = o.take("compose")?.unwrap_or(job.compose);
    job.preview = o.take("preview")?.unwrap_or(job.preview);
    o.finish()?;
    Ok(job)
}

/// Scheduler sizing for a batch run.
#[derive(Clone)]
pub struct BatchOptions {
    /// Concurrent job slots.
    pub workers: usize,
    /// Host-memory admission budget in bytes.
    pub memory_budget: usize,
    /// Shared-device stream-lease bound for GPU jobs; `None` leaves
    /// leasing unbounded.
    pub stream_slots: Option<usize>,
    /// A pre-configured shared device (e.g. with a transfer-time model);
    /// `None` auto-creates a default device when any job needs one.
    /// Takes precedence over [`BatchOptions::stream_slots`].
    pub device: Option<Device>,
    /// Master trace; per-job lanes are merged into it as `job.<name>/…`.
    pub trace: TraceHandle,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 2,
            memory_budget: 256 << 20,
            stream_slots: None,
            device: None,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Everything a batch produced, in submission order.
pub struct BatchReport {
    /// Malformed job-file lines, reported per line instead of aborting
    /// the batch (populated by [`run_batch_text`]).
    pub parse_errors: Vec<LineError>,
    /// Outcomes of admitted jobs.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs refused at submission, with the reason.
    pub rejected: Vec<(String, SubmitError)>,
    /// Wall time for the whole batch.
    pub elapsed: Duration,
    /// Memory high-water mark observed by the arbiter (≤ budget, always).
    pub high_water: usize,
    /// Dispatch order the scheduler chose.
    pub dispatch_order: Vec<String>,
}

/// Runs `jobs` to completion on a freshly constructed scheduler (plus a
/// shared simulated device when any job needs one). Jobs the scheduler
/// refuses at submission land in [`BatchReport::rejected`]; everything
/// else gets an outcome.
pub fn run_batch(jobs: Vec<StitchJob>, opts: &BatchOptions) -> BatchReport {
    let device = opts.device.clone().or_else(|| {
        jobs.iter().any(|j| j.variant.needs_device()).then(|| {
            Device::new(
                0,
                DeviceConfig {
                    stream_slots: opts.stream_slots,
                    ..DeviceConfig::default()
                },
            )
        })
    });
    let sched = Scheduler::new(SchedulerConfig {
        workers: opts.workers,
        memory_budget: opts.memory_budget,
        max_pending: jobs.len().max(1),
        device,
        trace: opts.trace.clone(),
    });
    let t0 = Instant::now();
    let mut handles = Vec::new();
    let mut rejected = Vec::new();
    for job in jobs {
        let name = job.name.clone();
        match sched.submit(job) {
            Ok(h) => handles.push(h),
            Err(e) => rejected.push((name, e)),
        }
    }
    let outcomes: Vec<JobOutcome> = handles.iter().map(|h| h.wait()).collect();
    let elapsed = t0.elapsed();
    BatchReport {
        parse_errors: Vec::new(),
        outcomes,
        rejected,
        elapsed,
        high_water: sched.arbiter().high_water(),
        dispatch_order: dispatch_order(&handles),
    }
}

/// Like [`run_batch`], but starting from raw job-file text: malformed
/// lines are contained as [`BatchReport::parse_errors`] and every
/// well-formed job still runs. Returns an error only when *no* line
/// parses to a job.
pub fn run_batch_text(text: &str, opts: &BatchOptions) -> Result<BatchReport, String> {
    let (jobs, parse_errors) = parse_job_file_lenient(text);
    if jobs.is_empty() {
        return Err(match parse_errors.first() {
            Some(e) => format!("no parseable jobs ({e})"),
            None => "job file contains no jobs".into(),
        });
    }
    let mut report = run_batch(jobs, opts);
    report.parse_errors = parse_errors;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobVariant;

    #[test]
    fn parses_a_full_job_line() {
        let job = parse_job_line(
            "name=j1 variant=mt-cpu grid=3x4 tile=32x24 overlap=0.2 seed=11 \
             threads=3 priority=5 deadline-ms=250 compose=false",
        )
        .unwrap();
        assert_eq!(job.name, "j1");
        assert_eq!(job.variant, JobVariant::MtCpu);
        assert_eq!((job.scan.grid_rows, job.scan.grid_cols), (3, 4));
        assert_eq!((job.scan.tile_width, job.scan.tile_height), (32, 24));
        assert_eq!(job.scan.overlap, 0.2);
        assert_eq!(job.scan.seed, 11);
        assert_eq!(job.threads, 3);
        assert_eq!(job.priority, 5);
        assert_eq!(job.deadline, Some(Duration::from_millis(250)));
        assert!(!job.compose);
    }

    #[test]
    fn file_parser_skips_comments_and_rejects_duplicates() {
        let (jobs, errors) = parse_job_file_lenient(
            "# batch of two\n\
             name=a grid=2x2 tile=32x24  # trailing comment\n\
             \n\
             name=b grid=2x3 tile=32x24\n",
        );
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].name, "b");

        let first_error = |text| parse_job_file_lenient(text).1[0].to_string();
        let err = first_error("name=a\nname=a\n");
        assert!(err.contains("duplicate"), "{err}");
        let err = first_error("variant=mt-cpu\n");
        assert!(err.contains("line 1"), "{err}");
        let err = first_error("name=x bogus=1\n");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn parses_serve_extensions() {
        let job = parse_job_line(
            "name=w tenant=acme watchdog-ms=75 hang-ms=500 panic=true grid=2x2 tile=32x24",
        )
        .unwrap();
        assert_eq!(job.tenant.as_deref(), Some("acme"));
        assert_eq!(job.watchdog, Some(Duration::from_millis(75)));
        assert_eq!(job.chaos.hang_ms, Some(500));
        assert!(job.chaos.panic_at_start);
        assert!(parse_job_line("name=x tenant=").is_err());
        assert!(parse_job_line("name=x watchdog-ms=abc").is_err());
        assert!(parse_job_line("name=x panic=maybe").is_err());
    }

    #[test]
    fn lenient_parse_contains_bad_lines_and_keeps_good_ones() {
        let (jobs, errors) = parse_job_file_lenient(
            "name=a grid=2x2 tile=32x24\n\
             this is not a job\n\
             name=b bogus=1\n\
             name=a grid=2x3 tile=32x24\n\
             name=c grid=2x2 tile=32x24\n",
        );
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[1].name, "c");
        assert_eq!(errors.len(), 3);
        assert_eq!(errors[0].line, 2);
        assert!(errors[1].message.contains("unknown key"), "{}", errors[1]);
        assert_eq!(errors[2].line, 4);
        assert!(errors[2].message.contains("duplicate"), "{}", errors[2]);
    }

    #[test]
    fn run_batch_text_runs_good_jobs_despite_bad_lines() {
        let report = run_batch_text(
            "name=ok grid=2x2 tile=32x24 compose=false\nbroken line here\n",
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].name, "ok");
        assert_eq!(report.parse_errors.len(), 1);
        assert_eq!(report.parse_errors[0].line, 2);
        assert!(run_batch_text("only garbage\n", &BatchOptions::default()).is_err());
    }

    #[test]
    fn run_batch_completes_and_reports_rejections() {
        let jobs = vec![
            StitchJob::new("small", ScanConfig::for_grid(2, 2, 32, 24, 0.25, 3)),
            StitchJob::new("huge", ScanConfig::for_grid(40, 40, 512, 512, 0.1, 3)),
        ];
        let report = run_batch(
            jobs,
            &BatchOptions {
                workers: 2,
                memory_budget: 8 << 20,
                ..BatchOptions::default()
            },
        );
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].name, "small");
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "huge");
        assert!(matches!(report.rejected[0].1, SubmitError::TooLarge { .. }));
        assert!(report.high_water <= 8 << 20);
    }
}
