//! Leak gates for the job tier, red on a *count* rather than on a clock:
//! what a finished job leaves allocated in a live scheduler, and what an
//! idle daemon's bookkeeping costs per request once it has history.

use std::sync::{Arc, Mutex};

use stitch_testkit::alloc::CountingAllocator;
use stitching::core::{SyntheticSource, TileSource};
use stitching::image::{ScanConfig, SyntheticPlate};
use stitching::sched::{JobStatus, JobVariant, Scheduler, SchedulerConfig, StitchJob};
use stitching::serve::{Event, ServeConfig, ServeDaemon};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The live-block count is process-wide: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn live_blocks() -> i64 {
    CountingAllocator::allocations() as i64 - CountingAllocator::deallocations() as i64
}

#[test]
fn finished_pipelined_cpu_jobs_leave_nothing_allocated() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let plate = SyntheticPlate::generate(ScanConfig::for_grid(3, 3, 64, 48, 0.25, 7));
    let source: Arc<dyn TileSource> = Arc::new(SyntheticSource::new(plate));
    let run = |jobs: std::ops::Range<usize>| {
        for i in jobs {
            let job = StitchJob::over_source(format!("job{i}"), Arc::clone(&source))
                .variant(JobVariant::PipelinedCpu)
                .threads(2)
                .compose(false);
            let handle = sched.submit_blocking(job).expect("submit");
            assert_eq!(handle.wait().status, JobStatus::Completed);
        }
        sched.join();
        live_blocks()
    };
    let after_10 = run(0..10);
    let after_30 = run(10..30);
    assert_eq!(sched.arbiter().leased_spectra(), 0);
    assert!(
        (after_30 - after_10).abs() <= 32,
        "20 finished jobs left {} blocks allocated in the live scheduler \
         ({after_10} live after 10 jobs, {after_30} after 30)",
        after_30 - after_10
    );
}

/// Heap allocations the calling thread makes over 200 `stats` requests
/// against an idle daemon that has finished `jobs`.
fn stats_allocations_after(jobs: usize) -> u64 {
    let daemon = ServeDaemon::new(ServeConfig::default());
    for i in 0..jobs {
        let line = format!("submit name=j{i} grid=1x2 tile=16x12 compose=false");
        let events = daemon.handle_line(&line);
        assert!(
            matches!(events.last(), Some(Event::Queued { .. })),
            "{events:?}"
        );
        while daemon.stats().in_flight > 0 {
            std::thread::yield_now();
        }
    }
    assert_eq!(daemon.stats().completed, jobs as u64);
    let before = CountingAllocator::thread_allocations();
    for _ in 0..200 {
        daemon.stats();
    }
    CountingAllocator::thread_allocations() - before
}

#[test]
fn idle_daemon_bookkeeping_does_not_grow_with_jobs_ever_run() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (fresh, seasoned) = (stats_allocations_after(5), stats_allocations_after(500));
    assert!(
        seasoned.abs_diff(fresh) <= 16,
        "200 stats requests allocate {fresh} times after 5 jobs but {seasoned} after 500"
    );
}
