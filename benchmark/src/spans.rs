//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer's public functions; the program under test is not touched.
//! A span carries its name (the layer), start, end, the span that caused
//! it and the pass it belongs to. They stay in memory and are written to
//! `benchmark/out/<workload>.trace.json` when the run ends.
//!
//! The recorder is off during end-to-end passes: `scope` then costs one
//! relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// Sentinel for "no parent" in the ambient slot.
const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Pass identifier shared by every span of one traced pass.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    enabled: AtomicBool,
    pass: AtomicU32,
    /// The innermost open span of the driving thread. Work the program
    /// fans out to its own threads (tile reads inside a stitcher) has no
    /// span stack of its own and takes this as its parent — the driving
    /// thread is blocked inside that span while the workers run.
    ambient: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static REC: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    pass: AtomicU32::new(0),
    ambient: AtomicU32::new(NO_SPAN),
    spans: Mutex::new(Vec::new()),
};

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // a panic while recording leaves plain data behind; keep going
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    REC.enabled.store(on, Ordering::Relaxed);
}

/// Starts a new pass: spans recorded from now on carry the returned id.
pub fn begin_pass() -> u32 {
    REC.pass.fetch_add(1, Ordering::Relaxed) + 1
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span on the driving thread; it becomes the ambient parent of
/// spans recorded on threads the program starts while it is open.
pub fn scope(name: &'static str) -> Guard {
    open(name, true)
}

/// Opens a span on whatever thread the program calls us from (a tile
/// read inside a stitcher's reader thread).
pub fn leaf(name: &'static str) -> Guard {
    open(name, false)
}

fn open(name: &'static str, ambient: bool) -> Guard {
    if !REC.enabled.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = STACK
        .with(|s| s.borrow().last().copied())
        .or_else(|| Some(REC.ambient.load(Ordering::Relaxed)).filter(|&p| p != NO_SPAN));
    let start_ns = now_ns();
    let id = {
        let mut spans = lock(&REC.spans);
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass: REC.pass.load(Ordering::Relaxed),
        });
        (spans.len() - 1) as u32
    };
    STACK.with(|s| s.borrow_mut().push(id));
    if ambient {
        REC.ambient.store(id, Ordering::Relaxed);
    }
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end_ns = now_ns();
        let parent = {
            let mut spans = lock(&REC.spans);
            spans[id as usize].end_ns = end_ns;
            spans[id as usize].parent
        };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        // only the span that set the ambient slot restores it
        let _ = REC.ambient.compare_exchange(
            id,
            parent.unwrap_or(NO_SPAN),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// Times `f` under a span and returns its result with the elapsed
/// milliseconds (measured whether or not recording is on).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _g = scope(name);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// A copy of everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    lock(&REC.spans).clone()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children on parallel threads may overlap
/// each other; covered time counts once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of the root span named `root` (in `pass`) that the layer spans
/// below it account for: one minus the root's own self time over its
/// duration.
pub fn coverage(spans: &[Span], self_ns: &[u64], pass: u32, root: &str) -> f64 {
    spans
        .iter()
        .zip(self_ns)
        .find(|(s, _)| s.pass == pass && s.name == root && s.duration_ns() > 0)
        .map(|(s, &own)| 1.0 - own as f64 / s.duration_ns() as f64)
        .unwrap_or(0.0)
}

/// The trace file's content.
pub fn to_json(spans: &[Span]) -> Value {
    let self_ns = self_times_ns(spans);
    Value::Arr(
        spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, own))| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(own as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("pass", Value::Num(f64::from(s.pass))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("phase1", 10, 60, Some(0)),
            span("compose", 60, 90, Some(0)),
            span("read", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 30, 10]);
    }

    #[test]
    fn overlapping_children_on_parallel_threads_count_once() {
        let spans = vec![
            span("phase1", 0, 100, None),
            span("read", 10, 40, Some(0)),
            span("read", 30, 50, Some(0)),
            span("read", 70, 80, Some(0)),
        ];
        // union of children = [10,50] + [70,80] = 50
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span("a", 10, 20, None), span("b", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn coverage_is_one_minus_the_roots_self_share() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("read", 0, 10, Some(0)),
            span("read", 50, 70, Some(0)),
            span("compose", 70, 95, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(coverage(&spans, &own, 2, "pass"), 0.0);
        assert!((coverage(&spans, &own, 1, "pass") - 0.55).abs() < 1e-12);
    }
}
