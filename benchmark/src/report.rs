//! Metric tables, the per-run result line, and the check ledger.
//!
//! The tables here are the single list of metric names; `BENCHMARK.json`
//! at the repository root must agree with them (a unit test checks it).

use std::collections::BTreeMap;

use crate::json::Value;
use crate::workload::Workload;

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// All end-to-end metrics are lower-is-better and apply to every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// A per-layer metric: informational, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: [PerLayer; 75] = [
    // image: tile I/O and flat-field
    lower("image.read_ms_per_tile", "ms"),
    higher("image.read_mb_per_s", "MB/s"),
    higher("image.write_mb_per_s", "MB/s"),
    lower("image.loads_per_tile", "count"),
    lower("image.flatfield_fit_ms", "ms"),
    lower("image.flatfield_apply_ms_per_tile", "ms"),
    // fft: transforms at the workload's tile size
    lower("fft.plan_ms", "ms"),
    lower("fft.fwd2d_ms", "ms"),
    lower("fft.inv2d_ms", "ms"),
    lower("fft.fwd2d_real_ms", "ms"),
    lower("fft.fwd2d_ns_per_px", "ns"),
    // core: the PCIAM kernel, stage by stage (single-threaded walk)
    lower("core.pciam.fwd_fft_ms", "ms"),
    lower("core.pciam.corr_peaks_ms", "ms"),
    lower("core.pciam.ccf_ms", "ms"),
    lower("core.pciam.pair_ms", "ms"),
    lower("core.pciam.ccf_share", "ratio"),
    lower("core.pciam.fft_share", "ratio"),
    // core: traversal and variants
    lower("core.phase1_ms", "ms"),
    lower("core.fwd_ffts_per_tile", "count"),
    lower("core.inv_ffts_per_pair", "count"),
    lower("core.ccf_groups_per_pair", "count"),
    lower("core.peak_live_tiles", "count"),
    lower("core.phase1_allocs", "count"),
    lower("core.variant.simple_cpu.phase1_ms", "ms"),
    lower("core.variant.mt_cpu.phase1_ms", "ms"),
    lower("core.variant.pipelined_cpu.phase1_ms", "ms"),
    lower("core.variant.simple_gpu.phase1_ms", "ms"),
    lower("core.variant.pipelined_gpu.phase1_ms", "ms"),
    lower("core.variant.fiji.phase1_ms", "ms"),
    lower("core.transform.real.phase1_ms", "ms"),
    lower("core.transform.padded.phase1_ms", "ms"),
    // core: solve and compose
    lower("core.solve_ms", "ms"),
    lower("core.compose_ms", "ms"),
    higher("core.compose_mpx_per_s", "Mpx/s"),
    lower("core.compose_bands_ms", "ms"),
    // accuracy against the synthetic stage truth
    lower("accuracy.pair_error_frac", "ratio"),
    lower("accuracy.position_max_err_px", "px"),
    // pipeline, gpu, sched
    lower("pipeline.item_overhead_us", "us"),
    higher("gpu.kernel_density", "ratio"),
    higher("gpu.peak_kernel_concurrency", "count"),
    lower("gpu.h2d_mb", "MB"),
    lower("sched.submit_us", "us"),
    lower("sched.arbiter_high_water_mb", "MiB"),
    lower("sched.leaked_reservations", "count"),
    // shard
    lower("shard.jobs_ms", "ms"),
    lower("shard.seam_register_ms", "ms"),
    lower("shard.merge_ms", "ms"),
    lower("shard.hier_solve_ms", "ms"),
    lower("shard.seam_pairs", "count"),
    lower("shard.overhead_frac", "ratio"),
    // canvas
    lower("canvas.bake_ms", "ms"),
    lower("canvas.region_scale0_ms", "ms"),
    lower("canvas.region_scale3_ms", "ms"),
    lower("canvas.live_chunks", "count"),
    lower("canvas.peak_chunk_mb", "MiB"),
    lower("canvas.offer_ms_per_tile", "ms"),
    lower("canvas.resolve_ms", "ms"),
    // core::channel
    lower("channel.register_ms", "ms"),
    lower("channel.replay_ms_per_unit", "ms"),
    lower("channel.replay_vs_solo", "ratio"),
    // serve
    lower("serve.job_ms_p50", "ms"),
    lower("serve.job_ms_p90", "ms"),
    lower("serve.region_ms_p90", "ms"),
    lower("serve.admit_us_p50", "us"),
    lower("serve.queue_wait_ms_p50", "ms"),
    lower("serve.queue_wait_ms_p90", "ms"),
    lower("serve.run_ms_p50", "ms"),
    lower("serve.region_ms_p50", "ms"),
    lower("serve.shed_frac", "ratio"),
    lower("serve.pending_high_water", "count"),
    // tracing cost
    lower("trace.overhead_frac", "ratio"),
    lower("bench.span_overhead_frac", "ratio"),
    higher("bench.span_coverage_frac", "ratio"),
    // derived figures printed for the reader beside wall_s
    lower("derived.ms_per_pair", "ms"),
    higher("derived.tiles_per_s", "1/s"),
];

/// Seconds one run measures: what the acceptance driver passes as
/// `--seconds`, and this benchmark's default.
pub const RUN_SECONDS: f64 = 8.0;

/// The content of `BENCHMARK.json`, from the tables above.
pub fn describe() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Value::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text("lower")),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Metric values by name, in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The verification ledger: every check counts as attempted, and a
/// failed one is named on stderr and in the result.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// `n` operations of which `failed` failed, described by `what`.
    pub fn count(&mut self, n: usize, failed: usize, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed - 1;
            self.fail(format!("{failed} of {n} {what}"));
        }
    }

    fn fail(&mut self, what: String) {
        eprintln!("stitchbench: FAILED {what}");
        self.failed += 1;
        self.failures.push(what);
    }
}

/// The run's last stdout line: `correct`, `attempted`, `failed` and the
/// metrics with their units, taken from the tables above.
pub fn result_line(trace: bool, metrics: &Metrics, checks: &Checks) -> Result<String, String> {
    let units: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in units {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push((
            name.to_string(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(checks.attempted.max(1) as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", Value::Obj(fields)),
    ])
    .to_line())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            committed,
            describe(),
            "regenerate with `stitchbench --describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn description_fits_the_contract() {
        let doc = describe();
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert!(name_ok(w.get("name").and_then(Value::as_str).unwrap()));
        }
        for part in doc.get("command").and_then(Value::as_arr).unwrap() {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert!(doc.to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut m = Metrics::default();
        for e in &END_TO_END {
            m.set(e.name, 1.25);
        }
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        let line = result_line(false, &m, &c).unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        // a metric that was not measured is an error, not a silent gap
        assert!(result_line(true, &m, &c).is_err());
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut c = Checks::default();
        c.check(false, || "a".into());
        c.count(10, 3, "pairs lack a displacement");
        c.count(5, 0, "files are missing");
        assert_eq!((c.attempted, c.failed), (16, 4));
        assert_eq!(c.failures.len(), 2);
    }
}
