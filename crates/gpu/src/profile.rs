//! Timeline profiler for the simulated device.
//!
//! Plays the role of NVIDIA's visual profiler in the paper: Figs 7 and 9
//! contrast a Simple-GPU profile (one kernel at a time, gaps between
//! launches) with the Pipelined-GPU profile ("much higher kernel execution
//! density ... does not have the gaps"). The recorder captures every
//! command's span per stream; [`Profiler::render_timeline`] draws the same
//! picture as ASCII and [`Profiler::kernel_density`] turns it into the
//! number the benches compare.

use std::time::Instant;

use parking_lot::Mutex;

/// What kind of device activity a span covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Host→device copy.
    H2D,
    /// Device→host copy.
    D2H,
    /// Compute kernel.
    Kernel,
    /// Synchronization (event wait, stream sync marker).
    Sync,
}

impl SpanKind {
    /// One-character glyph for timeline rendering.
    fn glyph(self) -> char {
        match self {
            SpanKind::H2D => '>',
            SpanKind::D2H => '<',
            SpanKind::Kernel => '#',
            SpanKind::Sync => '.',
        }
    }
}

/// One recorded device activity.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stream name the command executed on.
    pub stream: String,
    /// Activity class.
    pub kind: SpanKind,
    /// Command label (kernel or copy name).
    pub name: String,
    /// Start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the profiler epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from all streams of one device.
pub struct Profiler {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: Mutex<bool>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler whose clock starts now.
    pub fn new() -> Profiler {
        Profiler {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled: Mutex::new(true),
        }
    }

    /// Enables/disables recording (disabled recording is a no-op, so
    /// steady-state runs pay nothing).
    pub fn set_enabled(&self, on: bool) {
        *self.enabled.lock() = on;
    }

    /// Nanoseconds since the profiler epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant all recorded span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Re-times every recorded span onto `trace`'s clock and records it
    /// there, so device rows align with host spans on one merged timeline.
    /// Each stream becomes the track `"{device_label}/{stream}"`; span
    /// kinds map to the categories `"kernel"`, `"h2d"`, `"d2h"`, `"sync"`.
    /// Device activity that predates the trace epoch is clamped to 0.
    pub fn export_to_trace(&self, trace: &stitch_trace::TraceHandle, device_label: &str) {
        let Some(trace_epoch) = trace.epoch() else {
            return;
        };
        // Signed offset (ns) from the trace epoch to the profiler epoch;
        // `Instant` subtraction panics on negative results, so probe both
        // directions with `checked_duration_since`.
        let ahead = self
            .epoch
            .checked_duration_since(trace_epoch)
            .map(|d| d.as_nanos() as i128)
            .unwrap_or(0);
        let behind = trace_epoch
            .checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as i128)
            .unwrap_or(0);
        let offset = ahead - behind;
        let shift = |ns: u64| (ns as i128 + offset).clamp(0, u64::MAX as i128) as u64;
        for s in self.spans() {
            let cat = match s.kind {
                SpanKind::H2D => "h2d",
                SpanKind::D2H => "d2h",
                SpanKind::Kernel => "kernel",
                SpanKind::Sync => "sync",
            };
            trace.record(
                &format!("{device_label}/{}", s.stream),
                cat,
                s.name,
                shift(s.start_ns),
                shift(s.end_ns),
            );
        }
    }

    /// Records a finished span.
    pub fn record(&self, stream: &str, kind: SpanKind, name: &str, start_ns: u64, end_ns: u64) {
        if !*self.enabled.lock() {
            return;
        }
        self.spans.lock().push(Span {
            stream: stream.to_string(),
            kind,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Snapshot of all recorded spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut s = self.spans.lock().clone();
        s.sort_by_key(|sp| sp.start_ns);
        s
    }

    /// Clears all recorded spans.
    pub fn clear(&self) {
        self.spans.lock().clear();
    }

    /// Total busy time of a span kind, in nanoseconds (sum over spans; may
    /// exceed wall time when spans overlap across streams).
    pub fn busy_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_ns())
            .sum()
    }

    /// Kernel execution density: fraction of the **full-run window** (first
    /// start to last end over *all* recorded spans, copies and syncs
    /// included) during which ≥ 1 kernel was executing. This is the Fig 7
    /// vs Fig 9 metric — Simple-GPU shows long copy/sync gaps between
    /// kernels (low density), Pipelined-GPU is dense. Using the full-run
    /// window is deliberate: the gaps a synchronous schedule leaves between
    /// kernels must count against it.
    pub fn kernel_density(&self) -> f64 {
        let spans = self.spans.lock();
        let intervals: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let t0 = spans.iter().map(|s| s.start_ns).min();
        let t1 = spans.iter().map(|s| s.end_ns).max();
        drop(spans);
        match (t0, t1) {
            (Some(t0), Some(t1)) => Self::density_in_window(intervals, t0, t1),
            _ => 0.0,
        }
    }

    /// Fraction of `[t0, t1]` covered by the union of `intervals`.
    fn density_in_window(mut intervals: Vec<(u64, u64)>, t0: u64, t1: u64) -> f64 {
        if intervals.is_empty() || t1 == t0 {
            return 0.0;
        }
        intervals.sort_unstable();
        // merge overlapping intervals, sum covered time
        let mut covered = 0u64;
        let (mut cs, mut ce) = intervals[0];
        for (s, e) in intervals.into_iter().skip(1) {
            if s <= ce {
                ce = ce.max(e);
            } else {
                covered += ce - cs;
                cs = s;
                ce = e;
            }
        }
        covered += ce - cs;
        covered as f64 / (t1 - t0) as f64
    }

    /// Maximum number of kernels executing simultaneously at any instant.
    pub fn peak_concurrency(&self, kind: SpanKind) -> usize {
        let spans = self.spans.lock();
        let mut events: Vec<(u64, i32)> = Vec::new();
        for s in spans.iter().filter(|s| s.kind == kind) {
            events.push((s.start_ns, 1));
            events.push((s.end_ns, -1));
        }
        events.sort_unstable();
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }

    /// Exports all spans as CSV (`stream,kind,name,start_ns,end_ns`),
    /// sorted by start time — for plotting Fig 7/9-style timelines with
    /// external tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("stream,kind,name,start_ns,end_ns\n");
        for s in self.spans() {
            out.push_str(&format!(
                "{},{:?},{},{},{}\n",
                s.stream, s.kind, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }

    /// Renders an ASCII timeline, one row per stream, `width` columns over
    /// the full observed interval. `#` kernel, `>` H2D, `<` D2H, `.` sync,
    /// space idle — the textual cousin of the paper's Fig 7/9 screenshots.
    pub fn render_timeline(&self, width: usize) -> String {
        let spans = self.spans();
        if spans.is_empty() || width == 0 {
            return String::from("(no spans recorded)\n");
        }
        let t0 = spans.iter().map(|s| s.start_ns).min().unwrap();
        let t1 = spans.iter().map(|s| s.end_ns).max().unwrap().max(t0 + 1);
        let mut streams: Vec<String> = Vec::new();
        for s in &spans {
            if !streams.contains(&s.stream) {
                streams.push(s.stream.clone());
            }
        }
        let label_w = streams.iter().map(|s| s.len()).max().unwrap_or(0).max(6);
        let scale = width as f64 / (t1 - t0) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "timeline: {:.3} ms total, {} spans\n",
            (t1 - t0) as f64 / 1e6,
            spans.len()
        ));
        for stream in &streams {
            let mut row = vec![' '; width];
            for s in spans.iter().filter(|s| &s.stream == stream) {
                let a = ((s.start_ns - t0) as f64 * scale) as usize;
                let b = (((s.end_ns - t0) as f64 * scale) as usize)
                    .max(a + 1)
                    .min(width);
                for cell in row.iter_mut().take(b).skip(a.min(width - 1)) {
                    *cell = s.kind.glyph();
                }
            }
            out.push_str(&format!("{stream:>label_w$} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let p = Profiler::new();
        p.record("s0", SpanKind::Kernel, "fft", 0, 100);
        p.record("s0", SpanKind::H2D, "tile", 100, 150);
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.busy_ns(SpanKind::Kernel), 100);
        assert_eq!(p.busy_ns(SpanKind::H2D), 50);
    }

    #[test]
    fn density_with_gap() {
        let p = Profiler::new();
        // kernel covers [0,100] and [300,400] of a [0,400] window → 0.5
        p.record("s0", SpanKind::Kernel, "a", 0, 100);
        p.record("s0", SpanKind::Kernel, "b", 300, 400);
        assert!((p.kernel_density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn density_merges_overlaps() {
        let p = Profiler::new();
        p.record("s0", SpanKind::Kernel, "a", 0, 300);
        p.record("s1", SpanKind::Kernel, "b", 100, 400);
        // union covers the whole [0,400] window
        assert!((p.kernel_density() - 1.0).abs() < 1e-9);
        assert_eq!(p.peak_concurrency(SpanKind::Kernel), 2);
    }

    #[test]
    fn kernel_density_keeps_full_run_window() {
        let p = Profiler::new();
        // h2d [0,100] → kernel [100,200] → d2h [200,400]: the kernel is
        // gapless among kernels but covers only a quarter of the run
        // (kernel_density = 0.25) — the paper's metric must see the copy
        // gaps.
        p.record("copy", SpanKind::H2D, "up", 0, 100);
        p.record("exec", SpanKind::Kernel, "k", 100, 200);
        p.record("copy", SpanKind::D2H, "down", 200, 400);
        assert!((p.kernel_density() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn export_to_trace_maps_streams_and_kinds() {
        let trace = stitch_trace::TraceHandle::new();
        let p = Profiler::new();
        p.record("exec", SpanKind::Kernel, "fft", 10, 20);
        p.record("copy", SpanKind::H2D, "tile", 0, 10);
        p.export_to_trace(&trace, "gpu0");
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        let kernel = spans.iter().find(|s| s.cat == "kernel").unwrap();
        assert_eq!(kernel.track, "gpu0/exec");
        assert_eq!(kernel.name, "fft");
        assert_eq!(kernel.end_ns - kernel.start_ns, 10);
        let h2d = spans.iter().find(|s| s.cat == "h2d").unwrap();
        assert_eq!(h2d.track, "gpu0/copy");
        // the profiler epoch is at or after the trace epoch, so shifted
        // device timestamps keep their relative order on the shared clock
        assert!(h2d.start_ns <= kernel.start_ns);
    }

    #[test]
    fn export_to_disabled_trace_is_noop() {
        let trace = stitch_trace::TraceHandle::disabled();
        let p = Profiler::new();
        p.record("exec", SpanKind::Kernel, "fft", 0, 10);
        p.export_to_trace(&trace, "gpu0");
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn empty_density_zero() {
        let p = Profiler::new();
        assert_eq!(p.kernel_density(), 0.0);
        assert_eq!(p.peak_concurrency(SpanKind::Kernel), 0);
    }

    #[test]
    fn disabled_records_nothing() {
        let p = Profiler::new();
        p.set_enabled(false);
        p.record("s0", SpanKind::Kernel, "a", 0, 10);
        assert!(p.spans().is_empty());
    }

    #[test]
    fn csv_export_lists_spans() {
        let p = Profiler::new();
        p.record("copy", SpanKind::H2D, "tile", 5, 50);
        p.record("exec", SpanKind::Kernel, "fft", 0, 100);
        let csv = p.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "stream,kind,name,start_ns,end_ns");
        assert_eq!(lines[1], "exec,Kernel,fft,0,100", "sorted by start");
        assert_eq!(lines[2], "copy,H2D,tile,5,50");
    }

    #[test]
    fn timeline_renders_rows() {
        let p = Profiler::new();
        p.record("copy", SpanKind::H2D, "a", 0, 50);
        p.record("exec", SpanKind::Kernel, "b", 50, 100);
        let t = p.render_timeline(40);
        assert!(t.contains("copy"));
        assert!(t.contains("exec"));
        assert!(t.contains('>'));
        assert!(t.contains('#'));
    }
}
