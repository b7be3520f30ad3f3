//! Unified run observability: one merged CPU+GPU timeline.
//!
//! The paper's central evidence is timeline profiles (Figs 7 and 9: the
//! Simple-GPU variant's gappy kernel row against the Pipelined-GPU variant's
//! dense, overlapped one), yet instrumentation in this codebase used to be
//! siloed — the simulated device's profiler saw only device spans, the
//! pipeline's stage/queue metrics saw only their own layer, and nothing
//! exported a whole-run picture.
//!
//! This crate is the single sink. A [`TraceHandle`] is a cheap, cloneable
//! recorder that any layer can hold:
//!
//! * **Spans** — named intervals on named *tracks* (one track per thread,
//!   stream, or stage worker), each with a *category* (`"stage"`, `"wait"`,
//!   `"io"`, `"compute"`, `"kernel"`, `"h2d"`, `"d2h"`, `"sync"`, …).
//!   Record them explicitly with [`TraceHandle::record`] or via the RAII
//!   [`TraceHandle::scope`] guard. All timestamps are nanoseconds relative
//!   to the handle's epoch ([`TraceHandle::now_ns`]); another handle's rows
//!   (a job's, a simulated device's) are rebased onto this one by
//!   [`TraceHandle::merge_from`] so host and device rows align.
//! * **Counters and gauges** — monotonic totals ([`TraceHandle::add_counter`])
//!   and last-value measurements ([`TraceHandle::set_gauge`]).
//! * **Stage and queue statistics** — [`StageStat`] / [`QueueStat`] snapshots
//!   pushed by the pipeline layer at join time.
//!
//! Exports:
//!
//! * [`TraceHandle::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`, with one named row per track plus
//!   counter events.
//! * [`RunReport::from_trace`] — a machine-readable summary (per-stage
//!   busy/wait, queue high-water and block time, copy/compute overlap
//!   fraction, kernel density) with a hand-rolled [`RunReport::to_json`].
//!
//! A disabled handle ([`TraceHandle::disabled`]) is a no-op whose methods
//! cost one branch, so instrumented code paths stay free when tracing is
//! off.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub mod json;
mod report;

pub use report::{kernel_density, QueueStat, RunReport, StageStat};

/// One recorded interval on the merged timeline.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Row the span is drawn on (thread, stream, or stage worker name).
    pub track: String,
    /// Category: `"kernel"`, `"h2d"`, `"d2h"`, `"sync"` for device rows;
    /// `"stage"`, `"wait"`, `"io"`, `"compute"`, … for host rows.
    pub cat: String,
    /// Human-readable span label.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (`end_ns >= start_ns`).
    pub end_ns: u64,
}

struct TraceInner {
    epoch: Instant,
    spans: Mutex<Vec<TraceSpan>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    stages: Mutex<Vec<StageStat>>,
    queues: Mutex<Vec<QueueStat>>,
}

/// Cheap, cloneable handle to a process-wide trace recorder. A disabled
/// handle is a no-op; all clones of an enabled handle feed the same sink.
#[derive(Clone)]
pub struct TraceHandle {
    inner: Option<Arc<TraceInner>>,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

/// RAII guard returned by [`TraceHandle::scope`]; records the span when
/// dropped.
pub struct SpanGuard {
    trace: TraceHandle,
    track: String,
    cat: String,
    name: String,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.trace.now_ns();
        self.trace.record(
            &self.track,
            &self.cat,
            std::mem::take(&mut self.name),
            self.start_ns,
            end,
        );
    }
}

impl TraceHandle {
    /// Creates an enabled recorder whose epoch is "now".
    pub fn new() -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::new(TraceInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                stages: Mutex::new(Vec::new()),
                queues: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Creates a no-op handle: every method returns immediately.
    pub fn disabled() -> TraceHandle {
        TraceHandle { inner: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the trace epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records a finished span. `start_ns`/`end_ns` are epoch-relative
    /// (see [`TraceHandle::now_ns`]); a span whose end precedes its start
    /// is clamped to zero length.
    pub fn record(
        &self,
        track: &str,
        cat: &str,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(i) = &self.inner {
            i.spans.lock().push(TraceSpan {
                track: track.to_string(),
                cat: cat.to_string(),
                name: name.into(),
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Opens a scoped span; it is recorded when the returned guard drops.
    pub fn scope(&self, track: &str, cat: &str, name: impl Into<String>) -> SpanGuard {
        SpanGuard {
            trace: self.clone(),
            track: track.to_string(),
            cat: cat.to_string(),
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add_counter(&self, name: &str, delta: u64) {
        if let Some(i) = &self.inner {
            *i.counters.lock().entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets the named gauge to its latest observed value.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(i) = &self.inner {
            i.gauges.lock().insert(name.to_string(), value);
        }
    }

    /// Raises the named gauge to `value` if `value` exceeds its current
    /// reading — a high-water-mark gauge (e.g. peak queue depth over a
    /// daemon's lifetime).
    pub fn set_gauge_max(&self, name: &str, value: f64) {
        if let Some(i) = &self.inner {
            let mut gauges = i.gauges.lock();
            let slot = gauges.entry(name.to_string()).or_insert(value);
            if value > *slot {
                *slot = value;
            }
        }
    }

    /// Pushes a pipeline stage statistic (busy/wait attribution).
    pub fn record_stage(&self, stat: StageStat) {
        if let Some(i) = &self.inner {
            i.stages.lock().push(stat);
        }
    }

    /// Pushes a queue statistic (traffic, depth high-water, block time).
    pub fn record_queue(&self, stat: QueueStat) {
        if let Some(i) = &self.inner {
            i.queues.lock().push(stat);
        }
    }

    /// Distinct track names seen so far, sorted — e.g. to assert that a
    /// merged batch trace carries one `job.<name>/…` lane per job.
    pub fn tracks(&self) -> Vec<String> {
        let mut tracks: Vec<String> = self.spans().into_iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<TraceSpan> {
        match &self.inner {
            Some(i) => i.spans.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(i) => i.counters.lock().clone(),
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        match &self.inner {
            Some(i) => i.gauges.lock().clone(),
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of recorded stage statistics.
    pub fn stages(&self) -> Vec<StageStat> {
        match &self.inner {
            Some(i) => i.stages.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of recorded queue statistics.
    pub fn queues(&self) -> Vec<QueueStat> {
        match &self.inner {
            Some(i) => i.queues.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Copies everything `other` has recorded into this trace, rebasing
    /// `other`'s epoch-relative timestamps onto this trace's epoch so the
    /// merged rows align on one wall clock, and prefixing every track,
    /// counter, gauge, stage, and queue name with `prefix` (joined by
    /// `/`). This is how the batch scheduler folds per-job traces into a
    /// master timeline: each job records into its own handle, then lands
    /// under a `job.<name>/` lane group next to the shared device's rows.
    ///
    /// A disabled handle on either side makes this a no-op. `other` is
    /// only snapshotted — it remains usable (e.g. for a per-job
    /// [`RunReport`]).
    pub fn merge_from(&self, other: &TraceHandle, prefix: &str) {
        let (Some(dst), Some(src)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        // Offset taking a timestamp on `other`'s clock onto ours. Spans
        // that would land before our epoch clamp to it.
        let offset: i128 = if src.epoch >= dst.epoch {
            src.epoch.duration_since(dst.epoch).as_nanos() as i128
        } else {
            -(dst.epoch.duration_since(src.epoch).as_nanos() as i128)
        };
        let rebase = |ns: u64| -> u64 { (ns as i128 + offset).max(0) as u64 };
        let label = |name: &str| -> String {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            }
        };

        let spans = src.spans.lock().clone();
        {
            let mut out = dst.spans.lock();
            out.reserve(spans.len());
            for s in spans {
                out.push(TraceSpan {
                    track: label(&s.track),
                    cat: s.cat,
                    name: s.name,
                    start_ns: rebase(s.start_ns),
                    end_ns: rebase(s.end_ns),
                });
            }
        }
        for (name, value) in src.counters.lock().iter() {
            *dst.counters.lock().entry(label(name)).or_insert(0) += value;
        }
        for (name, value) in src.gauges.lock().iter() {
            dst.gauges.lock().insert(label(name), *value);
        }
        for stat in src.stages.lock().iter() {
            let mut stat = stat.clone();
            stat.name = label(&stat.name);
            dst.stages.lock().push(stat);
        }
        for stat in src.queues.lock().iter() {
            let mut stat = stat.clone();
            stat.name = label(&stat.name);
            dst.queues.lock().push(stat);
        }
    }

    /// Serializes the merged timeline as Chrome trace-event JSON
    /// (`chrome://tracing` / Perfetto "JSON" format). One `pid` holds every
    /// track; each track becomes a named `tid` row (alphabetical order, so
    /// output is deterministic for a given span set). Spans become `"X"`
    /// complete events with microsecond `ts`/`dur`; counters and gauges
    /// become `"C"` counter events stamped at the end of the run.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans();
        let mut tracks: Vec<&str> = spans.iter().map(|s| s.track.as_str()).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let tid_of =
            |track: &str| -> usize { tracks.binary_search(&track).map(|i| i + 1).unwrap_or(0) };

        let mut out = String::with_capacity(256 + spans.len() * 96);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"stitch\"}}",
        );
        for t in &tracks {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                tid_of(t),
                json::quote(t)
            ));
        }
        let mut end_ns = 0u64;
        for s in &spans {
            end_ns = end_ns.max(s.end_ns);
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                json::quote(&s.name),
                json::quote(&s.cat),
                tid_of(&s.track),
                s.start_ns as f64 / 1_000.0,
                (s.end_ns - s.start_ns) as f64 / 1_000.0,
            ));
        }
        let ts_end = end_ns as f64 / 1_000.0;
        for (name, value) in self.counters() {
            out.push_str(&format!(
                ",{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\
                 \"args\":{{\"value\":{}}}}}",
                json::quote(&name),
                ts_end,
                value
            ));
        }
        for (name, value) in self.gauges() {
            out.push_str(&format!(
                ",{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\
                 \"args\":{{\"value\":{}}}}}",
                json::quote(&name),
                ts_end,
                json::number(value)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Total length of the union of `intervals` (each `(start, end)` with
/// `end >= start`). Overlapping and touching intervals are merged, so time
/// covered by several concurrent spans counts once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    merged(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Total length of the intersection between the unions of `a` and `b`
/// (e.g. time where a copy and a kernel were in flight simultaneously).
pub fn intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let a = merged(a);
    let b = merged(b);
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn merged(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = intervals.iter().filter(|(s, e)| e > s).copied().collect();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), 0);
        t.record("a", "stage", "x", 0, 10);
        t.add_counter("c", 1);
        t.set_gauge("g", 1.0);
        drop(t.scope("a", "stage", "y"));
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
        assert!(t.gauges().is_empty());
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let t = TraceHandle::new();
        t.set_gauge_max("depth", 3.0);
        t.set_gauge_max("depth", 7.0);
        t.set_gauge_max("depth", 5.0);
        assert_eq!(t.gauges()["depth"], 7.0);
        let d = TraceHandle::disabled();
        d.set_gauge_max("depth", 1.0);
        assert!(d.gauges().is_empty());
    }

    #[test]
    fn scope_guard_records_on_drop() {
        let t = TraceHandle::new();
        {
            let _g = t.scope("worker0", "compute", "fft");
            thread::sleep(Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, "worker0");
        assert_eq!(spans[0].cat, "compute");
        assert_eq!(spans[0].name, "fft");
        assert!(spans[0].end_ns > spans[0].start_ns);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = TraceHandle::new();
        let t2 = t.clone();
        t2.record("a", "stage", "x", 1, 2);
        t2.add_counter("n", 3);
        t2.add_counter("n", 4);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.counters()["n"], 7);
    }

    #[test]
    fn reversed_span_is_clamped() {
        let t = TraceHandle::new();
        t.record("a", "stage", "x", 10, 5);
        let s = &t.spans()[0];
        assert_eq!((s.start_ns, s.end_ns), (10, 10));
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&[(0, 0), (3, 3)]), 0);
        assert_eq!(union_len(&[]), 0);
        // touching intervals merge without double counting
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn intersection_of_unions() {
        // a covers [0,10)∪[20,30); b covers [5,25)
        assert_eq!(intersection_len(&[(0, 10), (20, 30)], &[(5, 25)]), 10);
        assert_eq!(intersection_len(&[(0, 10)], &[(10, 20)]), 0);
        assert_eq!(intersection_len(&[], &[(0, 5)]), 0);
    }

    #[test]
    fn chrome_json_is_wellformed_and_names_tracks() {
        let t = TraceHandle::new();
        t.record("cpu/read.0", "io", "tile \"3\"", 1_000, 2_000);
        t.record("gpu0/k", "kernel", "fft", 1_500, 3_000);
        t.add_counter("tiles", 2);
        t.set_gauge("overlap", 0.5);
        let s = t.to_chrome_json();
        json::validate(&s).expect("chrome trace must be valid JSON");
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("cpu/read.0"));
        assert!(s.contains("gpu0/k"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"C\""));
        // escaped quote in span name survives round-trip
        assert!(s.contains("tile \\\"3\\\""));
    }

    #[test]
    fn chrome_json_empty_trace_is_valid() {
        let t = TraceHandle::new();
        json::validate(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn merge_from_prefixes_and_rebases() {
        let master = TraceHandle::new();
        thread::sleep(Duration::from_millis(2));
        let job = TraceHandle::new(); // later epoch than master
        job.record("fft.0", "compute", "t", 0, 100);
        job.add_counter("tiles", 4);
        job.set_gauge("overlap", 0.25);
        job.record_stage(StageStat {
            name: "fft".into(),
            threads: 1,
            items: 4,
            busy_ns: 100,
            wait_ns: 0,
        });
        job.record_queue(QueueStat {
            name: "fft.in".into(),
            capacity: 4,
            pushed: 4,
            popped: 4,
            high_water: 2,
            producer_block_ns: 0,
            consumer_block_ns: 0,
        });

        master.merge_from(&job, "job.a");
        let spans = master.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, "job.a/fft.0");
        assert!(
            spans[0].start_ns >= 1_000_000,
            "job epoch is ~2ms after master's; got {}",
            spans[0].start_ns
        );
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 100);
        assert_eq!(master.counters()["job.a/tiles"], 4);
        assert_eq!(master.gauges()["job.a/overlap"], 0.25);
        assert_eq!(master.stages()[0].name, "job.a/fft");
        assert_eq!(master.queues()[0].name, "job.a/fft.in");
        // the job handle is still intact for a per-job report
        assert_eq!(job.spans().len(), 1);
        json::validate(&master.to_chrome_json()).unwrap();
    }

    #[test]
    fn merge_from_disabled_or_self_is_noop() {
        let t = TraceHandle::new();
        t.record("a", "stage", "x", 0, 1);
        t.merge_from(&TraceHandle::disabled(), "j");
        t.merge_from(&t.clone(), "j");
        assert_eq!(t.spans().len(), 1);
        let d = TraceHandle::disabled();
        d.merge_from(&t, "j");
        assert!(d.spans().is_empty());
    }
}
