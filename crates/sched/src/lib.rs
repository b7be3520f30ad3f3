//! # stitch-sched — multi-job stitching with shared-resource arbitration
//!
//! The crates below this one stitch *one* grid well; a microscopy
//! facility runs *many* — several plates land while the first is still
//! computing. This crate turns the single-run machinery into a service:
//! N concurrent [`StitchJob`]s on one fixed set of job-slot threads, one
//! simulated device, and one host-memory budget, with the shared substrates
//! arbitrated instead of duplicated:
//!
//! * **Host memory** — [`ResourceArbiter`] grants RAII byte reservations
//!   sized by [`StitchJob::estimated_bytes`]; admission control refuses
//!   (or queues) jobs rather than ever over-committing the budget.
//! * **FFT plans** — one shared [`Planner`](stitch_fft::Planner) per
//!   plan mode; concurrent jobs with equal tile sizes pay plan
//!   construction once.
//! * **Spectrum buffers** — bounded
//!   [`SpectrumPool`](stitch_core::SpectrumPool) quotas per job, audited
//!   by the arbiter so leaks are detectable.
//! * **Device streams** — GPU jobs hold a
//!   [`StreamLease`](stitch_gpu::StreamLease) for their run; a device
//!   configured with `stream_slots` bounds cross-job GPU concurrency.
//!
//! A job is one pass: its stitcher comes from stitch-core's variant table
//! ([`JobVariant`] is `stitch_core::Variant`) built over these arbitrated
//! `Resources`, and `stitch_core::run_pass` runs it, stopping at a phase
//! boundary on cancel. A preview job's pass is the incremental canvas:
//! its final solve is phase 2 and the finished canvas the mosaic.
//!
//! Scheduling is stride-based fair share with priorities
//! ([`Scheduler`]), with per-job cancellation ([`JobHandle::cancel`]),
//! queue deadlines, and backpressure at `max_pending`. Panic containment
//! is layered: the scheduler's slot threads survive task panics, and a
//! drop-guard releases every lease a crashing job held.
//!
//! With tracing enabled, each job records into a private lane that is
//! merged back into the master trace as `job.<name>/…`, so one Chrome
//! trace shows every job's pipeline *and* the cross-job device
//! contention between them.
//!
//! ```no_run
//! use stitch_image::ScanConfig;
//! use stitch_sched::{Scheduler, SchedulerConfig, StitchJob};
//!
//! let sched = Scheduler::new(SchedulerConfig::default());
//! let h = sched
//!     .submit(StitchJob::new("plate-7", ScanConfig::default()))
//!     .unwrap();
//! let outcome = h.wait();
//! println!("{}: {:?}", outcome.name, outcome.status);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod batch;
pub mod job;
pub mod scheduler;

pub use arbiter::{AdmissionError, MemReservation, ResourceArbiter};
pub use batch::{
    parse_job_file_lenient, parse_job_line, run_batch, run_batch_text, BatchOptions, BatchReport,
    LineError,
};
pub use job::{ChaosHooks, JobHandle, JobOutcome, JobSource, JobStatus, JobVariant, StitchJob};
pub use scheduler::{DrainPolicy, DrainReport, Scheduler, SchedulerConfig, SubmitError};
