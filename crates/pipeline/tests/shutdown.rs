//! Bounded-time shutdown: a panicking stage must wake every thread that
//! is blocked on a queue — or on a resource that queued items hold — and
//! `Pipeline::join` must return (with an error) instead of hanging. Every
//! test here runs the pipeline on a watchdog thread and fails if it does
//! not complete within a generous wall-clock bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use stitch_pipeline::{Pipeline, PipelineError, Queue};

/// Runs `f` on its own thread; panics if it takes longer than `bound`.
fn within<T: Send + 'static>(bound: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(bound)
        .expect("pipeline shutdown exceeded the time bound (hang)")
}

#[test]
fn consumer_blocked_on_pop_wakes_when_producer_panics() {
    let err: PipelineError = within(Duration::from_secs(10), || {
        let q: Queue<u32> = Queue::new(4);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("reader", move || {
            w.push(1);
            w.push(2);
            // consumers are now (or will soon be) parked in q.pop()
            std::thread::sleep(Duration::from_millis(30));
            panic!("injected reader crash");
        });
        // more consumers than items: some never see an item and would
        // block forever without writer-drop-on-unwind
        pl.add_stage("consume", 4, q.clone(), |_v: u32| {});
        pl.join().unwrap_err()
    });
    assert_eq!(err.stage, "reader");
    assert!(err.panic.contains("injected reader crash"), "{}", err.panic);
}

#[test]
fn producer_blocked_on_push_wakes_when_consumer_panics() {
    let err = within(Duration::from_secs(10), || {
        let q: Queue<u32> = Queue::new(1);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("reader", move || {
            // capacity 1 and a dead consumer: without input-close-on-panic
            // this push sequence blocks forever
            for i in 0..1000 {
                if !w.push(i) {
                    return; // queue closed by the dying consumer
                }
            }
        });
        pl.add_stage("consume", 1, q.clone(), |v: u32| {
            if v == 0 {
                panic!("injected consumer crash");
            }
        });
        pl.join().unwrap_err()
    });
    assert_eq!(err.stage, "consume");
}

#[test]
fn mid_stage_panic_unblocks_both_sides() {
    let (err, downstream_done) = within(Duration::from_secs(10), || {
        let q1: Queue<u32> = Queue::new(2);
        let q2: Queue<u32> = Queue::new(2);
        let mut pl = Pipeline::new();
        let w1 = q1.writer();
        pl.add_source("src", move || {
            for i in 0..1000 {
                if !w1.push(i) {
                    return;
                }
            }
        });
        let w2 = q2.writer();
        pl.add_stage("mid", 1, q1.clone(), move |v: u32| {
            if v == 5 {
                panic!("mid died");
            }
            w2.push(v);
        });
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        pl.add_stage("sink", 2, q2.clone(), move |_v: u32| {
            s2.fetch_add(1, Ordering::Relaxed);
        });
        let err = pl.join().unwrap_err();
        (err, seen.load(Ordering::Relaxed))
    });
    assert_eq!(err.stage, "mid");
    // the sink drained what was already in flight, then exited cleanly
    assert!(downstream_done <= 5, "sink saw {downstream_done} items");
}

#[test]
fn healthy_pipeline_still_reports_cleanly() {
    let reports = within(Duration::from_secs(10), || {
        let q: Queue<u64> = Queue::new(8);
        let sum = Arc::new(AtomicU64::new(0));
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            for i in 1..=50 {
                w.push(i);
            }
        });
        let s2 = Arc::clone(&sum);
        pl.add_stage("sink", 2, q.clone(), move |v: u64| {
            s2.fetch_add(v, Ordering::Relaxed);
        });
        let reports = pl.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 50 * 51 / 2);
        reports
    });
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[1].items, 50);
}

/// A counting semaphore whose permits travel inside queue items, like the
/// transform-pool permits of Pipelined-CPU.
struct Permits {
    free: Mutex<usize>,
    returned: Condvar,
}

struct Permit(Arc<Permits>);

impl Permits {
    fn acquire(self: &Arc<Permits>) -> Permit {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.returned.wait(free).unwrap();
        }
        *free -= 1;
        Permit(Arc::clone(self))
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap() += 1;
        self.0.returned.notify_one();
    }
}

enum Work {
    Transform(u32, Permit),
    Pair,
}

/// Pipelined-CPU's wiring in miniature: source → `read` (takes a pool
/// permit per item, so it can block outside any queue) → `work` ⇄ `bk`,
/// the two-stage cycle in which `bk` feeds pairs back to `work`, keeps
/// each permit until the next item arrived, and ends itself once it has
/// seen every item. `panic_in` names the stage that panics at item 17.
/// Returns what `join` returned and how many permits are free afterwards.
fn cpu_replica(
    panic_in: &'static str,
    width: usize,
    floor: usize,
) -> (Result<(), PipelineError>, usize) {
    const ITEMS: u32 = 40;
    const POOL: usize = 2;
    let crash = move |stage: &str, id: u32| {
        if stage == panic_in && id == 17 {
            panic!("injected {stage} crash");
        }
    };
    let permits = Arc::new(Permits {
        free: Mutex::new(POOL),
        returned: Condvar::new(),
    });
    // sized like the real thing: the pool-derived terms keep the cycle
    // deadlock-free, the floor only ever widens them
    let q_ids: Queue<u32> = Queue::new(floor);
    let q_work: Queue<Work> = Queue::new((2 * POOL).max(floor));
    let q_bk: Queue<(u32, Permit)> = Queue::new(POOL.max(floor));

    let mut pl = Pipeline::new();
    let w_ids = q_ids.writer();
    pl.add_source("source", move || {
        for id in 0..ITEMS {
            crash("source", id);
            if !w_ids.push(id) {
                return;
            }
        }
    });
    let readers = (0..width).map(|_| {
        let w_work = q_work.writer();
        let permits = &permits;
        move |id: u32| {
            let permit = permits.acquire();
            crash("read", id);
            w_work.push(Work::Transform(id, permit));
        }
    });
    pl.add_stage_with("read", q_ids.clone(), readers);
    let workers = (0..width).map(|_| {
        let w_bk = q_bk.writer();
        move |work: Work| {
            if let Work::Transform(id, permit) = work {
                crash("work", id);
                w_bk.push((id, permit));
            }
        }
    });
    pl.add_stage_with("work", q_work.clone(), workers);
    let (w_work, bk_in) = (q_work.writer(), q_bk.clone());
    let (mut seen, mut held) = (0, None);
    let bookkeeper = move |(id, permit): (u32, Permit)| {
        crash("bk", id);
        drop(held.replace(permit)); // the previous item's permit goes back
        w_work.push(Work::Pair);
        seen += 1;
        if seen == ITEMS {
            drop(held.take());
            bk_in.close();
        }
    };
    pl.add_stage_with("bk", q_bk.clone(), [bookkeeper]);
    let joined = pl.join().map(|_| ());
    let free = *permits.free.lock().unwrap();
    (joined, free)
}

#[test]
fn panic_anywhere_in_a_cyclic_pipeline_aborts_it_and_returns_every_permit() {
    for panic_in in ["source", "read", "work", "bk"] {
        for width in [1, 2] {
            for floor in [1, 8] {
                let (joined, free) = within(Duration::from_secs(10), move || {
                    cpu_replica(panic_in, width, floor)
                });
                let case = format!("panic in {panic_in}, width {width}, floor {floor}");
                let err = joined.expect_err(&case);
                assert_eq!(err.stage, panic_in, "{case}");
                assert!(err.panic.contains("injected"), "{case}: {}", err.panic);
                assert_eq!(free, 2, "{case}: a permit was stranded");
            }
        }
    }
}

#[test]
fn healthy_cyclic_pipeline_ends_itself_and_returns_every_permit() {
    for width in [1, 2] {
        for floor in [1, 8] {
            let (joined, free) = within(Duration::from_secs(10), move || {
                cpu_replica("", width, floor)
            });
            joined.unwrap_or_else(|e| panic!("width {width}, floor {floor}: {e}"));
            assert_eq!(free, 2, "width {width}, floor {floor}");
        }
    }
}
