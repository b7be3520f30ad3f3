//! Leak gates for the job tier, red on a *count* rather than on a clock:
//! what a finished job leaves allocated in a live scheduler, and what an
//! idle daemon's bookkeeping costs per request once it has history. The
//! paper path's large buffers are gated the same way — a repeated pass
//! allocates none — and, in an ignored release test, by the resident
//! high-water of many passes in one process.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use stitch_testkit::alloc::CountingAllocator;
use stitching::core::{
    Blend, Composer, DirSource, GlobalOptimizer, PipelinedCpuStitcher, Stitcher, SyntheticSource,
    TileSource,
};
use stitching::image::{tiff, ScanConfig, SyntheticPlate};
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

/// A 2×2 plate of the paper's 1392×1040 tiles written under the temp
/// directory as `name`.
fn paper_plate(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let plate = SyntheticPlate::generate(ScanConfig::for_grid(2, 2, 1392, 1040, 0.1, 2014));
    plate
        .write_to_dir(dir.join("tiles"))
        .expect("plate written");
    dir
}

/// One pass of the `stitch stitch --out` path: tiles on disk → Pipelined-CPU
/// registration → solve → whole-mosaic compose → TIFF on disk.
fn paper_pass(dir: &Path) {
    let source = DirSource::open(dir.join("tiles")).expect("dataset opens");
    let result = PipelinedCpuStitcher::new(2)
        .try_compute_displacements(&source, &Default::default())
        .expect("registration");
    let positions = GlobalOptimizer::default().solve(&result);
    let mosaic = Composer::new(positions, Blend::Overlay).compose(&source);
    tiff::write_tiff(dir.join("mosaic.tif"), &mosaic).expect("mosaic written");
}

#[test]
fn a_repeated_pass_allocates_no_large_buffer() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = paper_plate("stitch_leaks_repeat");
    paper_pass(&dir);
    let before = CountingAllocator::large_allocations();
    paper_pass(&dir);
    let fresh = CountingAllocator::large_allocations() - before;
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fresh, 0,
        "the second of two identical passes allocated {fresh} blocks of 1 MiB or more"
    );
}

/// `key`'s value in kB from `/proc/self/status`.
fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix(key));
    let kb = line.and_then(|l| l.split_whitespace().next());
    kb.and_then(|v| v.parse().ok()).expect("a kB field")
}

/// The process's minor page faults so far (`minflt`, the tenth field of
/// `/proc/self/stat`: the count `getrusage` reports for the process).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // fields after the parenthesised command name, which may hold spaces
    let rest = &stat[stat.rfind(')').expect("a command name") + 2..];
    let minflt = rest.split_whitespace().nth(7);
    minflt.and_then(|v| v.parse().ok()).expect("minflt")
}

/// The resident high-water of a process that runs the paper path over and
/// over must stop rising once its buffers are warm: pass 12 may not peak
/// more than 10 % above pass 3. Run with `cargo test --release --test
/// leaks -- --ignored --nocapture`.
#[test]
#[ignore = "release-mode gate: 12 paper-size passes"]
fn resident_high_water_settles_over_repeated_passes() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = paper_plate("stitch_leaks_high_water");
    println!("pass  VmHWM kB  VmRSS kB  minor faults");
    let mut hwm = Vec::new();
    for pass in 1..=12 {
        let faults = minor_faults();
        paper_pass(&dir);
        let faults = minor_faults() - faults;
        hwm.push(status_kb("VmHWM:"));
        let rss = status_kb("VmRSS:");
        println!("{pass:>4}  {:>8}  {rss:>8}  {faults:>12}", hwm[pass - 1]);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        hwm[11] as f64 <= 1.1 * hwm[2] as f64,
        "VmHWM rose from {} kB after pass 3 to {} kB after pass 12",
        hwm[2],
        hwm[11]
    );
}
