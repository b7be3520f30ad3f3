//! Pipeline stages: named groups of worker threads draining a queue.
//!
//! The paper's §VI-A closes by promising "a general purpose API for the
//! pipeline ... so it can be applied to other problems". This module is
//! that API. A [`Pipeline`] *collects* stages — a name, a thread count
//! (Fig 8 annotates one per stage), an input [`Queue`] and a body — and
//! [`Pipeline::join`] runs them: it opens one [`std::thread::scope`],
//! starts every worker, waits, and returns one [`StageReport`] per stage.
//! Because the threads are scoped, stage bodies may borrow from the
//! caller's stack (`'env`); because nothing runs before every stage is
//! registered, every [`QueueWriter`](crate::QueueWriter) a body captured
//! exists before the first item moves, so a writer-counted queue cannot
//! close early.
//!
//! Every worker of every stage runs the same loop: pop, time the wait,
//! run the body, time the work. The framework emits the `"wait"` and
//! `"stage"` spans on track `"{stage}.{thread}"` and the per-stage
//! busy/wait/items totals; a body only adds spans for what happens
//! inside it. A stage ends when its input is closed and drained; one
//! whose work is complete earlier (a bookkeeping stage that has seen
//! every tile) closes its own input from inside the body.
//!
//! ## Panic containment
//!
//! A panicking worker must not hang the rest of the pipeline, and
//! "close my input, drop my writers" is not enough when stages form a
//! cycle or block on a resource carried by queued items (a pool permit,
//! a device buffer). So the first contained panic **aborts the whole
//! pipeline**: every registered input queue is poison-closed
//! ([`Queue::abort`]) — blocked pushes and pops return, parked items are
//! dropped and release what they hold — every worker falls out of its
//! loop, and [`Pipeline::join`] reports the panic as a [`PipelineError`]
//! instead of unwinding into the caller.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use stitch_trace::{StageStat, TraceHandle};

use crate::queue::Queue;

/// A stage worker panicked; the pipeline shut down instead of hanging.
#[derive(Clone, Debug)]
pub struct PipelineError {
    /// Name of the stage whose worker panicked.
    pub stage: String,
    /// The panic payload, rendered to text.
    pub panic: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage '{}' panicked: {}", self.stage, self.panic)
    }
}

impl std::error::Error for PipelineError {}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lifetime counters for one stage (aggregated over its threads).
#[derive(Default)]
struct StageMetrics {
    items: AtomicU64,
    busy_nanos: AtomicU64,
    wait_nanos: AtomicU64,
}

/// Snapshot of one stage's metrics with its name and thread count.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Items processed.
    pub items: u64,
    /// Busy nanoseconds (sum over threads).
    pub busy_nanos: u64,
    /// Input-wait nanoseconds (sum over threads).
    pub wait_nanos: u64,
}

impl StageReport {
    /// busy / (busy + wait).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos + self.wait_nanos;
        if total == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / total as f64
        }
    }
}

type Worker<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Stage<'env> {
    name: String,
    workers: Vec<Worker<'env>>,
    metrics: Arc<StageMetrics>,
}

/// A set of stages forming one execution pipeline. Stages are wired
/// together by the caller through shared [`Queue`]s; the pipeline owns
/// the threads, their instrumentation and their failure handling.
#[derive(Default)]
pub struct Pipeline<'env> {
    stages: Vec<Stage<'env>>,
    /// One per stage input: poison-closes that queue.
    aborts: Vec<Box<dyn Fn() + Send + Sync + 'env>>,
    trace: TraceHandle,
}

impl<'env> Pipeline<'env> {
    /// An empty pipeline.
    pub fn new() -> Pipeline<'env> {
        Pipeline::default()
    }

    /// An empty pipeline whose stage workers record spans into `trace`:
    /// each worker becomes the track `"{stage}.{thread}"`, with `"wait"`
    /// spans around input-queue pops and `"stage"` spans around stage
    /// bodies; [`Pipeline::join`] additionally records one [`StageStat`]
    /// per stage. With a disabled handle this is identical to
    /// [`Pipeline::new`].
    pub fn with_trace(trace: TraceHandle) -> Pipeline<'env> {
        Pipeline {
            trace,
            ..Pipeline::default()
        }
    }

    /// Adds a stage of `threads` workers consuming `input`. Each worker
    /// runs `work(item)` until the queue closes and drains; `work` is
    /// cloned per thread so it may carry per-thread state.
    pub fn add_stage<I, F>(&mut self, name: &str, threads: usize, input: Queue<I>, work: F)
    where
        I: Send + 'env,
        F: FnMut(I) + Clone + Send + 'env,
    {
        self.add_stage_with(name, input, (0..threads).map(|_| work.clone()));
    }

    /// Adds a stage with one worker thread per element of `bodies`, all
    /// consuming `input`: worker `t` runs `bodies[t](item)` until the
    /// queue closes and drains. Each body owns its per-thread state
    /// (scratch buffers, a kernel context, a device stream…) and its own
    /// output writers.
    pub fn add_stage_with<I, W>(
        &mut self,
        name: &str,
        input: Queue<I>,
        bodies: impl IntoIterator<Item = W>,
    ) where
        I: Send + 'env,
        W: FnMut(I) + Send + 'env,
    {
        let metrics = Arc::new(StageMetrics::default());
        let workers: Vec<Worker<'env>> = bodies
            .into_iter()
            .enumerate()
            .map(|(t, mut work)| {
                let input = input.clone();
                let metrics = Arc::clone(&metrics);
                let trace = self.trace.clone();
                let track = format!("{name}.{t}");
                let span = name.to_string();
                Box::new(move || loop {
                    let w0 = Instant::now();
                    let w0_ns = trace.now_ns();
                    let Some(item) = input.pop() else { break };
                    metrics
                        .wait_nanos
                        .fetch_add(w0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    trace.record(&track, "wait", "wait", w0_ns, trace.now_ns());
                    let b0 = Instant::now();
                    let b0_ns = trace.now_ns();
                    work(item);
                    metrics
                        .busy_nanos
                        .fetch_add(b0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    trace.record(&track, "stage", span.as_str(), b0_ns, trace.now_ns());
                    metrics.items.fetch_add(1, Ordering::Relaxed);
                }) as Worker<'env>
            })
            .collect();
        assert!(!workers.is_empty(), "a stage needs at least one thread");
        self.aborts.push(Box::new(move || input.abort()));
        self.stages.push(Stage {
            name: name.to_string(),
            workers,
            metrics,
        });
    }

    /// Adds a source: a single thread that runs `produce()` once (pushing
    /// into downstream queues through writers it captured) and exits. Its
    /// one `"stage"` span is recorded on the track `name`.
    pub fn add_source<F>(&mut self, name: &str, produce: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let metrics = Arc::new(StageMetrics::default());
        let m2 = Arc::clone(&metrics);
        let trace = self.trace.clone();
        let span = name.to_string();
        self.stages.push(Stage {
            name: name.to_string(),
            workers: vec![Box::new(move || {
                let t0 = Instant::now();
                let _span = trace.scope(&span, "stage", span.as_str());
                produce();
                m2.busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                m2.items.fetch_add(1, Ordering::Relaxed);
            })],
            metrics,
        });
    }

    /// Runs the pipeline: starts every worker of every stage on a scoped
    /// thread and waits for all of them. Returns per-stage reports in
    /// registration order, or the first [`PipelineError`] if any worker
    /// panicked (the join itself never hangs: a contained panic aborts
    /// every stage input, see the module docs).
    pub fn join(self) -> Result<Vec<StageReport>, PipelineError> {
        let Pipeline {
            mut stages,
            aborts,
            trace,
        } = self;
        let error: Mutex<Option<PipelineError>> = Mutex::new(None);
        let threads: Vec<usize> = stages.iter().map(|s| s.workers.len()).collect();
        std::thread::scope(|scope| {
            for stage in &mut stages {
                let name = &stage.name;
                for (t, worker) in stage.workers.drain(..).enumerate() {
                    let (error, aborts) = (&error, &aborts);
                    std::thread::Builder::new()
                        .name(format!("{name}-{t}"))
                        .spawn_scoped(scope, move || {
                            // unwinding drops the body and, with it, the
                            // writers, permits and buffers it captured
                            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(worker))
                            {
                                error.lock().get_or_insert_with(|| PipelineError {
                                    stage: name.clone(),
                                    panic: panic_text(payload),
                                });
                                aborts.iter().for_each(|abort| abort());
                            }
                        })
                        .expect("spawn stage thread");
                }
            }
        });
        let reports: Vec<StageReport> = stages
            .into_iter()
            .zip(threads)
            .map(|(stage, threads)| StageReport {
                name: stage.name,
                threads,
                items: stage.metrics.items.load(Ordering::Relaxed),
                busy_nanos: stage.metrics.busy_nanos.load(Ordering::Relaxed),
                wait_nanos: stage.metrics.wait_nanos.load(Ordering::Relaxed),
            })
            .collect();
        for report in &reports {
            trace.record_stage(StageStat {
                name: report.name.clone(),
                threads: report.threads,
                items: report.items,
                busy_ns: report.busy_nanos,
                wait_ns: report.wait_nanos,
            });
        }
        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// Number of registered stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn two_stage_pipeline_processes_everything() {
        let q1: Queue<u64> = Queue::new(8);
        let q2: Queue<u64> = Queue::new(8);
        let sum = Arc::new(AtomicU64::new(0));

        let mut pl = Pipeline::new();
        let w1 = q1.writer();
        pl.add_source("source", move || {
            for i in 1..=100 {
                w1.push(i);
            }
        });
        let w2 = q2.writer();
        pl.add_stage("double", 3, q1.clone(), move |v: u64| {
            w2.push(v * 2);
        });
        let sum2 = Arc::clone(&sum);
        pl.add_stage("sum", 2, q2.clone(), move |v: u64| {
            sum2.fetch_add(v, Ordering::Relaxed);
        });
        let reports = pl.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 2 * (100 * 101) / 2);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].items, 100);
        assert_eq!(reports[2].items, 100);
    }

    #[test]
    fn per_thread_state_via_clone() {
        // Each worker clone keeps its own counter; totals must add up.
        let q: Queue<()> = Queue::new(4);
        let total = Arc::new(AtomicUsize::new(0));
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            for _ in 0..50 {
                w.push(());
            }
        });
        // each of the 4 workers gets its own clone of (counter, shared total)
        let shared = Arc::clone(&total);
        let mut local = 0usize;
        pl.add_stage("count", 4, q.clone(), move |_item: ()| {
            local += 1;
            shared.fetch_add(1, Ordering::Relaxed);
            let _ = local;
        });
        pl.join().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn reports_have_utilization() {
        let q: Queue<u32> = Queue::new(2);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            for i in 0..10 {
                w.push(i);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        pl.add_stage("slow", 1, q.clone(), |_v| {
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        let reports = pl.join().unwrap();
        let slow = &reports[1];
        assert!(slow.utilization() > 0.0 && slow.utilization() <= 1.0);
        assert!(slow.busy_nanos > 0);
    }

    #[test]
    fn empty_pipeline_joins() {
        let pl = Pipeline::new();
        assert_eq!(pl.stage_count(), 0);
        assert!(pl.join().unwrap().is_empty());
    }

    #[test]
    fn panicking_stage_reports_error_not_hang() {
        let q: Queue<u32> = Queue::new(4);
        let q2: Queue<u32> = Queue::new(4);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            for i in 0..100 {
                if !w.push(i) {
                    break; // downstream died; stop producing
                }
            }
        });
        let w2 = q2.writer();
        pl.add_stage("explode", 1, q.clone(), move |v: u32| {
            if v == 3 {
                panic!("injected stage failure");
            }
            w2.push(v);
        });
        pl.add_stage("sink", 1, q2.clone(), |_v: u32| {});
        let err = pl.join().unwrap_err();
        assert_eq!(err.stage, "explode");
        assert!(
            err.panic.contains("injected stage failure"),
            "{}",
            err.panic
        );
    }

    #[test]
    fn traced_pipeline_records_spans_and_stats() {
        let trace = TraceHandle::new();
        let q: Queue<u32> = Queue::new(4);
        let mut pl = Pipeline::with_trace(trace.clone());
        let w = q.writer();
        pl.add_source("src", move || {
            for i in 0..8 {
                w.push(i);
            }
        });
        pl.add_stage("sink", 2, q.clone(), |_v: u32| {});
        pl.join().unwrap();
        q.record_to_trace(&trace, "sink.in");

        let spans = trace.spans();
        assert!(spans.iter().any(|s| s.track == "src" && s.cat == "stage"));
        assert!(spans
            .iter()
            .any(|s| s.track.starts_with("sink.") && s.cat == "stage" && s.name == "sink"));
        assert!(spans
            .iter()
            .any(|s| s.track.starts_with("sink.") && s.cat == "wait"));
        // exactly 8 body spans across the two sink workers
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.cat == "stage" && s.name == "sink")
                .count(),
            8
        );
        let stats = trace.stages();
        assert_eq!(stats.len(), 2, "one StageStat per stage at join");
        let sink = stats.iter().find(|s| s.name == "sink").unwrap();
        assert_eq!(sink.items, 8);
        assert_eq!(sink.threads, 2);
        let queues = trace.queues();
        assert_eq!(queues.len(), 1);
        assert_eq!(queues[0].pushed, 8);
    }

    #[test]
    fn untraced_pipeline_records_nothing() {
        let q: Queue<u32> = Queue::new(4);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            w.push(1);
        });
        pl.add_stage("sink", 1, q.clone(), |_v: u32| {});
        pl.join().unwrap();
        // nothing to assert against a disabled handle beyond "it worked";
        // the default pipeline must behave exactly as before
    }

    #[test]
    fn panicking_source_reports_error_not_hang() {
        let q: Queue<u32> = Queue::new(2);
        let mut pl = Pipeline::new();
        let w = q.writer();
        pl.add_source("src", move || {
            w.push(1);
            panic!("source died");
        });
        pl.add_stage("sink", 2, q.clone(), |_v: u32| {});
        let err = pl.join().unwrap_err();
        assert_eq!(err.stage, "src");
    }
}
