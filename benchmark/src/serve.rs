//! The `serve_mix` traffic generator: a closed loop over an in-process
//! [`ServeDaemon`].
//!
//! One generator thread holds a fixed window of outstanding jobs — the
//! next `submit` goes out only when a `done` arrives — and reads the
//! preview canvas beside the writers: one `region scale=2` on every
//! `running` event and one full-mosaic `region scale=0` on every `done`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use stitch_sched::{DrainPolicy, JobStatus};
use stitch_serve::{Event, ServeConfig, ServeDaemon, ServeStats};

use crate::procfs;
use crate::spans;
use crate::workload::{serve_tenant, THREADS};

/// Jobs the generator keeps outstanding.
pub const WINDOW: usize = 4;

/// How long the generator waits for any event before giving up on the
/// run (a hung daemon must not hang the benchmark).
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything one generator run observed. Per-job vectors cover the
/// counted jobs only (those after the discarded warm-up jobs).
#[derive(Clone, Debug, Default)]
pub struct ServeRun {
    pub counted: usize,
    /// First counted submit → last `done`.
    pub wall_s: f64,
    /// Process CPU over the same window.
    pub cpu_s: f64,
    /// `submit` line handed to `handle_line` → that job's `done` received.
    pub job_ms: Vec<f64>,
    /// Time inside `handle_line` for each `submit`.
    pub admit_us: Vec<f64>,
    /// `queued` → `running`.
    pub queue_wait_ms: Vec<f64>,
    /// `running` → `done`.
    pub run_ms: Vec<f64>,
    /// `region` line in → `event=region` out, mid-run and final reads.
    pub region_ms: Vec<f64>,
    /// Jobs that were not accepted, or did not end `completed`.
    pub failed_jobs: usize,
    /// Region reads that did not answer with `event=region`.
    pub failed_regions: usize,
    /// Final full-mosaic digest per job index (all jobs, warm-up too).
    pub final_digests: Vec<Option<u64>>,
    pub stats: ServeStats,
}

struct JobTimes {
    submitted: Instant,
    running: Option<Instant>,
}

/// `"j17"` → 17.
fn job_index(name: &str) -> Option<usize> {
    name.strip_prefix('j')?.parse().ok()
}

/// Runs `lines` (the generated `submit` lines, job `i` named `j<i>`)
/// through a fresh daemon. `mosaic` bounds the final full-window read.
pub fn run(lines: &[String], discard: usize, mosaic: (usize, usize)) -> ServeRun {
    let daemon = ServeDaemon::new(ServeConfig {
        workers: THREADS,
        ..ServeConfig::default()
    });
    let rx = daemon.subscribe();
    let total = lines.len();
    let mut out = ServeRun {
        final_digests: vec![None; total],
        ..ServeRun::default()
    };
    let mut times: HashMap<usize, JobTimes> = HashMap::new();
    let mut next = 0usize;
    let mut finished = 0usize;
    let mut window_start: Option<(Instant, f64)> = None;
    let mut last_done = Instant::now();

    let region = |out: &mut ServeRun, index: usize, request: String| -> Option<u64> {
        let t0 = Instant::now();
        let events = {
            let _span = spans::scope("serve.region");
            daemon.handle_line(&request)
        };
        if index >= discard {
            out.region_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        match events.first() {
            Some(Event::Region { digest, .. }) => Some(*digest),
            _ => {
                out.failed_regions += 1;
                None
            }
        }
    };

    loop {
        while next < total && next - finished < WINDOW {
            let index = next;
            next += 1;
            let t0 = Instant::now();
            if index == discard {
                window_start = Some((t0, procfs::cpu_seconds()));
            }
            let events = {
                let _span = spans::scope("serve.submit");
                daemon.handle_line(&lines[index])
            };
            if index >= discard {
                out.admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            if events.iter().any(|e| matches!(e, Event::Queued { .. })) {
                times.insert(
                    index,
                    JobTimes {
                        submitted: t0,
                        running: None,
                    },
                );
            } else {
                // shed or rejected: it will never report `done`
                out.failed_jobs += 1;
                finished += 1;
            }
        }
        if finished == total {
            break;
        }
        let event = match rx.recv_timeout(EVENT_TIMEOUT) {
            Ok(e) => e,
            Err(_) => {
                eprintln!("stitchbench: serve_mix saw no event for {EVENT_TIMEOUT:?}; giving up");
                out.failed_jobs += total - finished;
                break;
            }
        };
        let now = Instant::now();
        match event {
            Event::Running { job, .. } => {
                let Some(index) = job_index(&job) else {
                    continue;
                };
                if let Some(t) = times.get_mut(&index) {
                    t.running = Some(now);
                    if index >= discard {
                        out.queue_wait_ms
                            .push((now - t.submitted).as_secs_f64() * 1e3);
                    }
                }
                let tenant = serve_tenant(index);
                region(
                    &mut out,
                    index,
                    format!("region tenant={tenant} name={job} scale=2"),
                );
            }
            Event::Done { job, status, .. } => {
                let Some(index) = job_index(&job) else {
                    continue;
                };
                let Some(t) = times.remove(&index) else {
                    continue;
                };
                finished += 1;
                last_done = now;
                if status != JobStatus::Completed {
                    out.failed_jobs += 1;
                }
                if index >= discard {
                    out.counted += 1;
                    out.job_ms.push((now - t.submitted).as_secs_f64() * 1e3);
                    if let Some(r) = t.running {
                        out.run_ms.push((now - r).as_secs_f64() * 1e3);
                    }
                }
                let tenant = serve_tenant(index);
                let (w, h) = mosaic;
                out.final_digests[index] = region(
                    &mut out,
                    index,
                    format!("region tenant={tenant} name={job} scale=0 x=0 y=0 w={w} h={h}"),
                );
            }
            _ => {}
        }
    }
    if let Some((t0, cpu0)) = window_start {
        out.wall_s = (last_done - t0).as_secs_f64();
        out.cpu_s = procfs::cpu_seconds() - cpu0;
    }
    out.stats = daemon.stats();
    daemon.drain(DrainPolicy::Finish);
    out
}
