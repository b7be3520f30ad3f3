//! Timeline profiler for the simulated device.
//!
//! Plays the role of NVIDIA's visual profiler in the paper: Figs 7 and 9
//! contrast a Simple-GPU profile (one kernel at a time, gaps between
//! launches) with the Pipelined-GPU profile ("much higher kernel execution
//! density ... does not have the gaps"). Every command's span is recorded
//! into the device's own [`TraceHandle`], one track per stream; a run folds
//! those rows into its trace with [`TraceHandle::merge_from`].
//! [`Profiler::render_timeline`] draws the paper's picture as ASCII and
//! [`Profiler::kernel_density`] turns it into the number the benches
//! compare.

use stitch_trace::TraceHandle;

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

/// Each kind, in declaration order, with the trace category it is
/// recorded under and its timeline glyph.
const KINDS: [(SpanKind, &str, char); 4] = [
    (SpanKind::H2D, "h2d", '>'),
    (SpanKind::D2H, "d2h", '<'),
    (SpanKind::Kernel, "kernel", '#'),
    (SpanKind::Sync, "sync", '.'),
];

impl SpanKind {
    fn cat(self) -> &'static str {
        KINDS[self as usize].1
    }

    fn glyph(self) -> char {
        KINDS[self as usize].2
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
    /// Start, nanoseconds since the device trace's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the device trace's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The device's recorder: a [`TraceHandle`] that every stream of one
/// device records into, with the stream name as the track and the
/// [`SpanKind`] as the category (`"h2d"`, `"d2h"`, `"kernel"`, `"sync"`).
pub struct Profiler {
    trace: TraceHandle,
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler {
            trace: TraceHandle::new(),
        }
    }

    /// The device's trace. A run merges it into its own under the prefix
    /// `gpu{id}`, so device rows align with host spans on one timeline.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Records a finished span.
    pub(crate) fn record(
        &self,
        stream: &str,
        kind: SpanKind,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.trace
            .record(stream, kind.cat(), name, start_ns, end_ns);
    }

    /// Snapshot of all recorded spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .trace
            .spans()
            .into_iter()
            .filter_map(|s| {
                Some(Span {
                    kind: KINDS.iter().find(|k| k.1 == s.cat)?.0,
                    stream: s.track,
                    name: s.name,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                })
            })
            .collect();
        spans.sort_by_key(|sp| sp.start_ns);
        spans
    }

    /// Kernel execution density over the whole run, copies and syncs
    /// included in the window: [`stitch_trace::kernel_density`], the
    /// formula `RunReport` applies to a merged run trace.
    pub fn kernel_density(&self) -> f64 {
        stitch_trace::kernel_density(&self.trace.spans())
    }

    /// Maximum number of `kind` spans in flight at any instant.
    pub fn peak_concurrency(&self, kind: SpanKind) -> usize {
        let mut events: Vec<(u64, i32)> = Vec::new();
        for s in self.spans().iter().filter(|s| s.kind == kind) {
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
        let spans = p.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].kind, spans[0].duration_ns()),
            (SpanKind::Kernel, 100)
        );
        assert_eq!(
            (spans[1].kind, spans[1].stream.as_str()),
            (SpanKind::H2D, "s0")
        );
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
    fn merged_device_rows_carry_streams_and_kinds() {
        let trace = TraceHandle::new();
        let p = Profiler::new();
        p.record("exec", SpanKind::Kernel, "fft", 10, 20);
        p.record("copy", SpanKind::H2D, "tile", 0, 10);
        trace.merge_from(p.trace(), "gpu0");
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        let kernel = spans.iter().find(|s| s.cat == "kernel").unwrap();
        assert_eq!(
            (kernel.track.as_str(), kernel.name.as_str()),
            ("gpu0/exec", "fft")
        );
        assert_eq!(kernel.end_ns - kernel.start_ns, 10);
        let h2d = spans.iter().find(|s| s.cat == "h2d").unwrap();
        assert_eq!(h2d.track, "gpu0/copy");
        // the device epoch is at or after the run trace's, so rebased
        // device timestamps keep their relative order on the shared clock
        assert!(h2d.start_ns <= kernel.start_ns);
    }

    #[test]
    fn empty_density_zero() {
        let p = Profiler::new();
        assert_eq!(p.kernel_density(), 0.0);
        assert_eq!(p.peak_concurrency(SpanKind::Kernel), 0);
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
