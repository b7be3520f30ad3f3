//! `RunReport`: a machine-readable summary derived from the merged
//! timeline — the same numbers the paper reads off its profile figures.

use std::collections::BTreeMap;

use crate::{intersection_len, json, union_len, TraceHandle, TraceSpan};

/// Per-stage busy/wait attribution pushed by the pipeline layer.
#[derive(Clone, Debug)]
pub struct StageStat {
    /// Stage name (e.g. `"read"`, `"fft"`).
    pub name: String,
    /// Worker threads the stage ran with.
    pub threads: usize,
    /// Items the stage processed.
    pub items: u64,
    /// Total time workers spent in stage bodies, summed across threads.
    pub busy_ns: u64,
    /// Total time workers spent blocked on their input queue.
    pub wait_ns: u64,
}

impl StageStat {
    /// busy / (busy + wait); 0 when the stage never ran.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// Per-queue traffic/depth/block-time snapshot.
#[derive(Clone, Debug)]
pub struct QueueStat {
    /// Queue name (conventionally `"<consumer stage>.in"`).
    pub name: String,
    /// Capacity bound.
    pub capacity: usize,
    /// Items successfully pushed (blocking or non-blocking path).
    pub pushed: u64,
    /// Items successfully popped (blocking or non-blocking path).
    pub popped: u64,
    /// Maximum depth observed.
    pub high_water: usize,
    /// Time producers spent inside successful blocking pushes.
    pub producer_block_ns: u64,
    /// Time consumers spent inside successful blocking pops.
    pub consumer_block_ns: u64,
}

/// Device span categories — the rows the simulated GPU contributes.
const DEVICE_CATS: [&str; 4] = ["kernel", "h2d", "d2h", "sync"];
const COPY_CATS: [&str; 2] = ["h2d", "d2h"];

/// Kernel execution density, the Figs 7/9 metric: the fraction of the
/// device window — first start to last end over every device-category
/// span, copies and syncs included — during which at least one
/// `"kernel"` span ran. The gaps a synchronous schedule leaves between
/// kernels count against it; host spans do not. 0 without device spans.
pub fn kernel_density(spans: &[TraceSpan]) -> f64 {
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    let mut kernels: Vec<(u64, u64)> = Vec::new();
    for s in spans
        .iter()
        .filter(|s| DEVICE_CATS.contains(&s.cat.as_str()))
    {
        lo = lo.min(s.start_ns);
        hi = hi.max(s.end_ns);
        if s.cat == "kernel" {
            kernels.push((s.start_ns, s.end_ns));
        }
    }
    match hi.saturating_sub(lo) {
        0 => 0.0,
        window => union_len(&kernels) as f64 / window as f64,
    }
}

/// Whole-run summary computed from a [`TraceHandle`]'s merged timeline.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Span of the whole timeline: `max(end) - min(start)` over every span.
    pub wall_ns: u64,
    /// [`kernel_density`] of the merged timeline.
    pub kernel_density: f64,
    /// |union(copies) ∩ union(kernels)| / |union(copies)|: the fraction of
    /// copy time hidden under compute. 0 when no copies were recorded.
    pub copy_compute_overlap: f64,
    /// Per-stage busy/wait attribution.
    pub stages: Vec<StageStat>,
    /// Per-queue traffic and block time.
    pub queues: Vec<QueueStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges.
    pub gauges: BTreeMap<String, f64>,
}

impl RunReport {
    /// Derives the report from everything `trace` recorded so far.
    pub fn from_trace(trace: &TraceHandle) -> RunReport {
        let spans = trace.spans();

        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut kernels: Vec<(u64, u64)> = Vec::new();
        let mut copies: Vec<(u64, u64)> = Vec::new();
        for s in &spans {
            lo = lo.min(s.start_ns);
            hi = hi.max(s.end_ns);
            if s.cat == "kernel" {
                kernels.push((s.start_ns, s.end_ns));
            } else if COPY_CATS.contains(&s.cat.as_str()) {
                copies.push((s.start_ns, s.end_ns));
            }
        }

        let wall_ns = hi.saturating_sub(lo);
        let copy_len = union_len(&copies);
        let copy_compute_overlap = if copy_len == 0 {
            0.0
        } else {
            intersection_len(&copies, &kernels) as f64 / copy_len as f64
        };

        RunReport {
            wall_ns,
            kernel_density: kernel_density(&spans),
            copy_compute_overlap,
            stages: trace.stages(),
            queues: trace.queues(),
            counters: trace.counters(),
            gauges: trace.gauges(),
        }
    }

    /// Serializes the report as JSON (hand-rolled; serde is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"wall_ns\":{}", self.wall_ns));
        out.push_str(&format!(
            ",\"kernel_density\":{}",
            json::number(self.kernel_density)
        ));
        out.push_str(&format!(
            ",\"copy_compute_overlap\":{}",
            json::number(self.copy_compute_overlap)
        ));
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"threads\":{},\"items\":{},\"busy_ns\":{},\
                 \"wait_ns\":{},\"utilization\":{}}}",
                json::quote(&s.name),
                s.threads,
                s.items,
                s.busy_ns,
                s.wait_ns,
                json::number(s.utilization())
            ));
        }
        out.push_str("],\"queues\":[");
        for (i, q) in self.queues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"capacity\":{},\"pushed\":{},\"popped\":{},\
                 \"high_water\":{},\"producer_block_ns\":{},\
                 \"consumer_block_ns\":{}}}",
                json::quote(&q.name),
                q.capacity,
                q.pushed,
                q.popped,
                q.high_water,
                q.producer_block_ns,
                q.consumer_block_ns
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json::quote(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json::quote(k), json::number(*v)));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_density_and_overlap() {
        let t = TraceHandle::new();
        // device window [0, 100]; kernels cover 40 of it; copies cover 30,
        // of which 10 overlap a kernel.
        t.record("gpu0/k", "kernel", "a", 0, 20);
        t.record("gpu0/k", "kernel", "b", 50, 70);
        t.record("gpu0/h2d", "h2d", "up", 10, 30);
        t.record("gpu0/d2h", "d2h", "down", 90, 100);
        // host span outside the device window must not affect density
        t.record("cpu/main", "stage", "setup", 0, 400);
        let r = RunReport::from_trace(&t);
        assert_eq!(r.wall_ns, 400);
        assert!((r.kernel_density - 0.4).abs() < 1e-9);
        assert!((r.copy_compute_overlap - 10.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn report_empty_trace() {
        let r = RunReport::from_trace(&TraceHandle::new());
        assert_eq!(r.wall_ns, 0);
        assert_eq!(r.kernel_density, 0.0);
        assert_eq!(r.copy_compute_overlap, 0.0);
        json::validate(&r.to_json()).unwrap();
    }

    #[test]
    fn report_json_is_wellformed() {
        let t = TraceHandle::new();
        t.record("gpu0/k", "kernel", "fft \"r2c\"", 0, 10);
        t.record_stage(StageStat {
            name: "read".into(),
            threads: 2,
            items: 64,
            busy_ns: 100,
            wait_ns: 50,
        });
        t.record_queue(QueueStat {
            name: "fft.in".into(),
            capacity: 8,
            pushed: 64,
            popped: 64,
            high_water: 8,
            producer_block_ns: 5,
            consumer_block_ns: 7,
        });
        t.add_counter("tiles", 64);
        t.set_gauge("peak_live_tiles", 9.0);
        let r = RunReport::from_trace(&t);
        let js = r.to_json();
        json::validate(&js).unwrap();
        assert!(js.contains("\"utilization\""));
        assert!(js.contains("\"fft.in\""));
        assert!(js.contains("\"peak_live_tiles\""));
    }

    #[test]
    fn stage_utilization() {
        let s = StageStat {
            name: "x".into(),
            threads: 1,
            items: 0,
            busy_ns: 30,
            wait_ns: 10,
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        let idle = StageStat {
            busy_ns: 0,
            wait_ns: 0,
            ..s
        };
        assert_eq!(idle.utilization(), 0.0);
    }
}
