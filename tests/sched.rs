//! Concurrency battery for the multi-job scheduler.
//!
//! The contract under test: a scheduler may interleave, reorder, and
//! arbitrate shared substrates (FFT plan cache, bounded spectrum pool,
//! device stream slots, memory budget) however it likes, but
//!
//! 1. every admitted job's result is **bit-identical** to the same job
//!    run solo with nothing shared (differential oracle),
//! 2. cancellation and panics free every lease (memory reservation,
//!    pool buffers, stream slots) — nothing leaks, siblings never
//!    deadlock,
//! 3. admission control never over-commits the memory budget, under any
//!    randomized job storm, and
//! 4. `run_sched_stress(seed)` is deterministic in its seed.

use std::time::Duration;

use stitch_testkit::{run_job_solo, run_sched_stress, solo_digests};
use stitching::gpu::{Device, DeviceConfig};
use stitching::image::ScanConfig;
use stitching::sched::{
    ChaosHooks, JobStatus, JobVariant, Scheduler, SchedulerConfig, StitchJob, SubmitError,
};

/// Differential oracle: for every stress seed, each job that completed
/// under the scheduler — sharing the plan cache, pool quotas, device
/// streams, and memory budget with its siblings — must produce the exact
/// displacements, positions, and mosaic hash as a solo run with fully
/// private resources. Both sides build their stitcher from the same
/// variant table and run the same pass driver (`run_pass`); what differs
/// is the `Resources` they hand it: shared on the scheduler's side,
/// private on the solo side.
#[test]
fn admitted_jobs_are_bit_identical_to_solo_runs() {
    for seed in [1u64, 7, 42] {
        let out = run_sched_stress(seed);
        assert!(out.resources_clean(), "seed {seed}: dirty resources");
        let solo = solo_digests(&out.config);
        let mut compared = 0;
        for digest in &out.digests {
            assert_eq!(
                digest.status,
                JobStatus::Completed,
                "seed {seed}: job {} did not complete",
                digest.name
            );
            let baseline = &solo[&digest.name];
            assert_eq!(
                digest, baseline,
                "seed {seed}: job {} diverged from its solo run",
                digest.name
            );
            compared += 1;
        }
        assert!(compared > 0, "seed {seed}: no job was admitted");
    }
}

/// A preview job's positions are its canvas's final solve, not a second
/// one: they equal the solo pass's — on a 1×1 grid, where the canvas
/// commits the nominal position instead of solving, as on larger ones.
#[test]
fn preview_job_positions_equal_solo_runs() {
    let sched = Scheduler::new(SchedulerConfig::default());
    for (name, rows, cols) in [("single", 1, 1), ("strip", 1, 3), ("plate", 3, 4)] {
        let job = StitchJob::new(name, ScanConfig::for_grid(rows, cols, 48, 40, 0.25, 9))
            .preview(true)
            .compose(false);
        let out = sched.submit(job.clone()).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed, "{name}");
        let positions = out.positions.expect("a completed job has positions");
        assert_eq!(positions.positions, run_job_solo(&job).positions, "{name}");
    }
}

/// Determinism: equal seeds give equal digests and equal rejection sets,
/// regardless of thread interleaving; resources always come back clean.
#[test]
fn stress_is_pure_in_its_seed_and_never_overcommits() {
    for seed in 0..6u64 {
        let a = run_sched_stress(seed);
        let b = run_sched_stress(seed);
        assert_eq!(a, b, "seed {seed}: reruns diverged");
        for out in [&a, &b] {
            assert!(
                out.high_water <= out.config.memory_budget,
                "seed {seed}: high water {} exceeded budget {}",
                out.high_water,
                out.config.memory_budget
            );
            assert_eq!(
                out.reservations_after, 0,
                "seed {seed}: leaked reservations"
            );
            assert_eq!(out.leases_after, 0, "seed {seed}: leaked pool leases");
        }
    }
}

/// Cancelling jobs mid-flight releases every lease class: memory
/// reservations, spectrum-pool buffers, and device stream slots all
/// return to zero, and the remaining jobs still complete.
#[test]
fn cancellation_frees_every_lease_class() {
    let device = Device::new(
        0,
        DeviceConfig {
            stream_slots: Some(1),
            ..DeviceConfig::small(256 << 20)
        },
    );
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        device: Some(device.clone()),
        ..SchedulerConfig::default()
    });
    let scan = ScanConfig::for_grid(4, 4, 64, 48, 0.25, 11);
    // One pool-leasing CPU job, one stream-leasing GPU job, one survivor.
    let doomed_cpu = sched
        .submit(
            StitchJob::new("doomed-cpu", scan.clone())
                .variant(JobVariant::PipelinedCpu)
                .threads(2)
                .compose(false),
        )
        .unwrap();
    let doomed_gpu = sched
        .submit(
            StitchJob::new("doomed-gpu", scan.clone())
                .variant(JobVariant::SimpleGpu)
                .compose(false),
        )
        .unwrap();
    let survivor = sched
        .submit(
            StitchJob::new("survivor", ScanConfig::for_grid(2, 2, 32, 24, 0.25, 3)).compose(false),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(15));
    doomed_cpu.cancel();
    doomed_gpu.cancel();
    // Cancellation is best-effort: a job that already crossed its last
    // phase boundary completes. Either way, no lease survives.
    for h in [&doomed_cpu, &doomed_gpu] {
        let out = h.wait();
        assert!(
            matches!(out.status, JobStatus::Cancelled | JobStatus::Completed),
            "{}: unexpected status {:?}",
            out.name,
            out.status
        );
    }
    assert_eq!(survivor.wait().status, JobStatus::Completed);
    sched.join();
    assert_eq!(sched.arbiter().active_reservations(), 0, "memory leaked");
    assert_eq!(sched.arbiter().leased_spectra(), 0, "pool leases leaked");
    assert_eq!(device.active_stream_leases(), 0, "stream leases leaked");
}

/// Panic containment: a job whose stitcher panics is reported as
/// `Failed`, its leases are released by the drop-guard, and sibling jobs
/// sharing the same pool, budget, and device are unaffected.
#[test]
fn panicking_job_is_contained_and_siblings_complete() {
    let device = Device::new(
        0,
        DeviceConfig {
            stream_slots: Some(1),
            ..DeviceConfig::small(256 << 20)
        },
    );
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        device: Some(device.clone()),
        ..SchedulerConfig::default()
    });
    // Zero-size tiles make the FFT planner assert inside the stitcher —
    // a genuine panic on a worker thread, not an error return.
    let bomb = sched
        .submit(StitchJob::new("bomb", ScanConfig::for_grid(2, 2, 0, 0, 0.25, 3)).compose(false))
        .unwrap();
    let mut siblings = Vec::new();
    for (i, variant) in [
        JobVariant::SimpleCpu,
        JobVariant::PipelinedCpu,
        JobVariant::SimpleGpu,
    ]
    .into_iter()
    .enumerate()
    {
        siblings.push(
            sched
                .submit(
                    StitchJob::new(
                        format!("sib{i}"),
                        ScanConfig::for_grid(2, 2, 32, 24, 0.25, 5),
                    )
                    .variant(variant)
                    .compose(false),
                )
                .unwrap(),
        );
    }
    let out = bomb.wait();
    assert!(
        matches!(out.status, JobStatus::Failed(_)),
        "bomb should fail, got {:?}",
        out.status
    );
    for h in &siblings {
        let out = h.wait();
        assert_eq!(
            out.status,
            JobStatus::Completed,
            "sibling {} must survive the panic",
            out.name
        );
        assert!(out.result.is_some());
    }
    sched.join();
    assert_eq!(
        sched.arbiter().active_reservations(),
        0,
        "panic leaked memory"
    );
    assert_eq!(
        sched.arbiter().leased_spectra(),
        0,
        "panic leaked pool leases"
    );
    assert_eq!(
        device.active_stream_leases(),
        0,
        "panic leaked stream leases"
    );

    // The slots survived: the same scheduler still runs new jobs.
    let after = sched
        .submit(StitchJob::new("after", ScanConfig::for_grid(2, 2, 32, 24, 0.25, 9)).compose(false))
        .unwrap();
    assert_eq!(after.wait().status, JobStatus::Completed);
}

/// A panic *inside a pipeline stage* (here: a tile decoder that panics in
/// Pipelined-CPU's read stage) is contained by the stage framework: the
/// job ends `Failed` with the stage named instead of hanging its worker,
/// every lease comes back, and the scheduler keeps serving.
#[test]
fn stage_panic_fails_the_job_and_frees_the_scheduler() {
    use stitching::image::{Image, SyntheticPlate};
    use stitching::prelude::{GridShape, SourceError, SyntheticSource, TileId, TileSource};

    struct PanickingSource(SyntheticSource);
    impl TileSource for PanickingSource {
        fn shape(&self) -> GridShape {
            self.0.shape()
        }
        fn tile_dims(&self) -> (usize, usize) {
            self.0.tile_dims()
        }
        fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
            assert_ne!(id, TileId::new(1, 1), "injected decoder panic");
            self.0.load(id)
        }
    }

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let sched = Scheduler::new(SchedulerConfig::default());
        let plate = SyntheticPlate::generate(ScanConfig::for_grid(3, 4, 32, 24, 0.25, 3));
        let source = std::sync::Arc::new(PanickingSource(SyntheticSource::new(plate)));
        let bomb = sched
            .submit(
                StitchJob::over_source("bomb", source)
                    .variant(JobVariant::PipelinedCpu)
                    .threads(2)
                    .compose(false),
            )
            .unwrap();
        let status = bomb.wait().status;
        sched.join();
        let leases = (
            sched.arbiter().leased_spectra(),
            sched.arbiter().active_reservations(),
        );
        let after = sched
            .submit(
                StitchJob::new("after", ScanConfig::for_grid(2, 2, 32, 24, 0.25, 9))
                    .variant(JobVariant::PipelinedCpu)
                    .compose(false),
            )
            .unwrap();
        let _ = tx.send((status, leases, after.wait().status));
    });
    let (status, leases, after) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a panicking stage hung its job");
    match status {
        JobStatus::Failed(why) => assert!(
            why.starts_with("pipeline failure: stage 'read' panicked: ")
                && why.contains("injected decoder panic"),
            "{why}"
        ),
        other => panic!("bomb should fail, got {other:?}"),
    }
    assert_eq!(leases, (0, 0), "(leased spectra, active reservations)");
    assert_eq!(after, JobStatus::Completed);
}

/// Randomized job storm against a deliberately tight budget: admissions
/// may queue and interleave arbitrarily, but the arbiter's high-water
/// mark never exceeds the budget, and only impossible jobs are rejected.
#[test]
fn job_storm_never_overcommits_the_budget() {
    let probe = StitchJob::new("probe", ScanConfig::for_grid(2, 2, 48, 40, 0.25, 1));
    // Budget fits roughly two mid-size jobs at once.
    let budget = probe.estimated_bytes() * 2 + 1024;
    let sched = Scheduler::new(SchedulerConfig {
        workers: 3,
        memory_budget: budget,
        max_pending: 4,
        ..SchedulerConfig::default()
    });
    let mut handles = Vec::new();
    let mut rejected = 0;
    for i in 0..12 {
        let (rows, cols) = [(2, 2), (2, 3), (3, 3), (8, 8)][i % 4];
        let job = StitchJob::new(
            format!("storm{i}"),
            ScanConfig::for_grid(rows, cols, 48, 40, 0.25, i as u64),
        )
        .priority((i % 3 + 1) as u32)
        .compose(false);
        let too_large = job.estimated_bytes() > budget;
        match sched.submit_blocking(job) {
            Ok(h) => {
                assert!(!too_large, "storm{i} should have been rejected");
                handles.push(h);
            }
            Err(SubmitError::TooLarge { .. }) => {
                assert!(too_large, "storm{i} fits but was rejected");
                rejected += 1;
            }
            Err(e) => panic!("storm{i}: unexpected refusal {e}"),
        }
    }
    assert_eq!(rejected, 3, "every 8x8 job exceeds the two-job budget");
    for h in &handles {
        assert_eq!(h.wait().status, JobStatus::Completed);
    }
    sched.join();
    assert!(
        sched.arbiter().high_water() <= budget,
        "over-committed: {} > {}",
        sched.arbiter().high_water(),
        budget
    );
    assert_eq!(sched.arbiter().active_reservations(), 0);
}

/// `pause → submit 4 toy jobs → resume → wait`, `rounds` times over one
/// scheduler. Each submit wakes the dispatcher, which re-reads `paused`
/// under the queue lock and goes back to sleep; a `resume` that stores
/// and notifies without that lock can land between the read and the
/// sleep, and then nothing ever dispatches. A round that does not finish
/// within the timeout is that lost wakeup.
fn pause_submit_resume_rounds(rounds: usize) {
    use std::sync::mpsc;

    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    let toy = ScanConfig::for_grid(1, 2, 32, 24, 0.25, 3);
    for round in 0..rounds {
        sched.pause();
        let handles: Vec<_> = (0..4)
            .map(|j| {
                sched
                    .submit(StitchJob::new(format!("toy{round}.{j}"), toy.clone()).compose(false))
                    .unwrap()
            })
            .collect();
        // The submits' notifies have the dispatcher looping right now;
        // sweep a sub-microsecond gap so some rounds call `resume` while
        // it is between reading `paused` and going back to sleep.
        for _ in 0..(round % 128) * 4 {
            std::hint::spin_loop();
        }
        sched.resume();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let all_completed = handles
                .iter()
                .all(|h| h.wait().status == JobStatus::Completed);
            let _ = tx.send(all_completed);
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(all_completed) => assert!(all_completed, "round {round}: a toy job failed"),
            Err(_) => panic!("round {round}: jobs still queued 20 s after resume (lost wakeup)"),
        }
        waiter.join().expect("waiter thread");
    }
    sched.join();
    assert_eq!(sched.arbiter().active_reservations(), 0);
}

/// One worker, held by a job that hangs until cancelled, and a standing
/// queue of jobs that can therefore only wait. Then, `rounds` times:
/// submit one more, cancel the *oldest* queued job, wait for it. The
/// submit's notify has the dispatcher scanning `pending` front to back
/// and going back to sleep; a cancel of the front job whose notify lands
/// anywhere between that job's check and the sleep is lost unless it
/// synchronizes with the queue lock — and nothing else will ever wake the
/// dispatcher (no completion, no later submit, no resume), so the
/// cancelled job stays queued forever.
fn cancel_queued_rounds(rounds: usize) {
    use std::collections::VecDeque;
    use std::sync::mpsc;
    use stitching::sched::JobHandle;

    const STANDING: usize = 512;
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        max_pending: 2 * STANDING,
        ..SchedulerConfig::default()
    });
    let toy = ScanConfig::for_grid(1, 2, 32, 24, 0.25, 3);
    let hang = ChaosHooks {
        hang_ms: Some(u64::MAX),
        panic_at_start: false,
    };
    let blocker = sched
        .submit(StitchJob::new("blocker", toy.clone()).chaos(hang))
        .unwrap();
    while blocker.dispatch_seq().is_none() {
        std::thread::yield_now();
    }
    let submit = |n: usize| {
        sched
            .submit(StitchJob::new(format!("queued{n}"), toy.clone()).compose(false))
            .unwrap()
    };
    let mut queued: VecDeque<JobHandle> = (0..STANDING).map(submit).collect();
    // one long-lived waiter: a handle in, its terminal status (and whether
    // it was ever dispatched) out
    let (to_waiter, handles) = mpsc::channel::<JobHandle>();
    let (statuses, from_waiter) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        for handle in handles {
            let _ = statuses.send((handle.wait().status, handle.dispatch_seq()));
        }
    });
    for round in 0..rounds {
        queued.push_back(submit(STANDING + round));
        // sweep the gap up to a few hundred microseconds — past the time
        // the dispatcher takes to wake up — so the cancel lands at every
        // offset into its scan
        for _ in 0..(round % 256) * 64 {
            std::hint::spin_loop();
        }
        let oldest = queued.pop_front().unwrap();
        oldest.cancel();
        to_waiter.send(oldest).unwrap();
        match from_waiter.recv_timeout(Duration::from_secs(20)) {
            Ok(outcome) => assert_eq!(outcome, (JobStatus::Cancelled, None), "round {round}"),
            Err(_) => {
                blocker.cancel(); // or dropping the scheduler would wait on it forever
                panic!("round {round}: cancelled job still queued after 20 s (lost wakeup)");
            }
        }
    }
    assert_eq!(blocker.dispatch_seq(), Some(1));
    assert!(
        queued.iter().all(|h| h.dispatch_seq().is_none()),
        "a queued job ran"
    );
    drop(to_waiter);
    waiter.join().expect("waiter thread");
    queued.iter().for_each(JobHandle::cancel);
    blocker.cancel();
    assert_eq!(blocker.wait().status, JobStatus::Cancelled);
    sched.join();
    assert_eq!(sched.arbiter().active_reservations(), 0);
}

#[test]
fn cancel_of_a_queued_job_never_loses_the_dispatcher_wakeup() {
    cancel_queued_rounds(10_000);
}

/// The CI `sched` job's longer run of the same loop.
#[test]
#[ignore]
fn cancel_of_a_queued_job_never_loses_the_dispatcher_wakeup_long() {
    cancel_queued_rounds(100_000);
}

#[test]
fn resume_never_loses_the_dispatcher_wakeup() {
    pause_submit_resume_rounds(500);
}

/// The CI `sched` job's longer run of the same loop.
#[test]
#[ignore]
fn resume_never_loses_the_dispatcher_wakeup_long() {
    pause_submit_resume_rounds(20_000);
}
