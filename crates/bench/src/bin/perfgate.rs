//! perfgate — the repo's performance regression gate.
//!
//! Runs the standard synthetic workloads through all six stitcher
//! variants with warmup + repeats and reports, per variant:
//!
//! * wall-clock **median** and **MAD** (median absolute deviation —
//!   robust against scheduler noise on shared runners),
//! * the run's `OpCounters` snapshot (FFTs, multiplies, CCF groups),
//! * **heap allocation counts**, measured by installing
//!   [`stitch_testkit::alloc::CountingAllocator`] as the global
//!   allocator of this binary.
//!
//! Results are written as machine-readable JSON (`BENCH_PR<k>.json` at
//! the repo root is the committed convention). Because absolute times
//! are machine-dependent, every report embeds a `calibration_ns`
//! measurement of a fixed single-thread stitch; the `--check` gate
//! compares *calibration-normalized* medians so a slower CI runner does
//! not read as a regression.
//!
//! ```text
//! perfgate [--quick] [--out PATH] [--before PATH] [--check BASELINE]
//! perfgate --batch
//! ```
//!
//! * `--quick` — measure only the quick preset (CI smoke).
//! * `--out PATH` — write the JSON report to PATH.
//! * `--before P` — embed the `"after"` section of a previous report P
//!   as this report's `"before"` (before/after in one committed file).
//! * `--check P` — after measuring, compare against the committed
//!   baseline P: exit non-zero if any variant's normalized median
//!   regressed by more than [`TOLERANCE`]×, or if P fails schema
//!   validation.
//! * `--batch` — self-checking scheduler-throughput gate: runs
//!   [`BATCH_JOBS`] identical single-threaded quick jobs through
//!   `stitch-sched` serially (1 worker) and concurrently
//!   ([`BATCH_JOBS`] workers) and exits non-zero unless concurrent
//!   throughput is at least [`BATCH_SPEEDUP_FLOOR`]× serial.

use std::fmt::Write as _;
use std::time::Instant;

use stitch_bench::{fmt_ns, scaled_scan, synthetic_source};
use stitch_core::prelude::*;
use stitch_core::{OpCounters, OpCounts, PciamContext};
use stitch_fft::backend;
use stitch_fft::{BackendChoice, PlanMode, Planner};
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::{Scene, SceneParams};
use stitch_testkit::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Schema marker; bump when the JSON layout changes incompatibly.
const SCHEMA: &str = "stitch-perfgate-v1";

/// `--check` fails when `median/calibration` exceeds the baseline's by
/// this factor. Deliberately loose: the gate exists to catch accidental
/// O(n) slips and allocation storms, not 10 % jitter.
const TOLERANCE: f64 = 2.0;

/// Worker-thread count for the threaded variants.
const THREADS: usize = 4;

/// Jobs in the `--batch` scheduler gate.
const BATCH_JOBS: usize = 4;

/// `--batch` fails unless concurrent throughput reaches this multiple of
/// serial throughput (best of [`BATCH_ROUNDS`] rounds — robust against a
/// noisy neighbor on shared CI runners).
const BATCH_SPEEDUP_FLOOR: f64 = 1.3;

/// Measurement rounds for the `--batch` gate.
const BATCH_ROUNDS: usize = 3;

/// Tile size for the per-backend pair bench. Deliberately larger than
/// the quick preset's 64×48 tiles: down there the per-call cost of the
/// backend boundary (dyn dispatch, feature re-check) is a visible
/// fraction of each kernel invocation and the bench would measure the
/// boundary, not the kernels. 256×192 keeps a full run under a few
/// seconds while approaching the regime of the paper's 1392×1040
/// tiles, where the hot loops dominate.
const PAIR_TILE_W: usize = 256;
const PAIR_TILE_H: usize = 192;

/// Phase-1 pair computations per measured repeat of the per-backend
/// bench (two forward FFTs + NCC + inverse FFT + peaks + CCF each).
const PAIR_BATCH: usize = 4;

/// Warmup and measured rounds for the per-backend bench. Each round
/// times every backend back-to-back (round-robin) so slow drift on a
/// time-shared runner — frequency scaling, steal time — lands on all
/// backends equally instead of biasing whichever ran last.
const PAIR_WARMUP: usize = 1;
const PAIR_REPEATS: usize = 7;

/// The per-backend gate fails unless the `auto` backend completes the
/// pair bench at least this much faster than the `scalar` reference.
/// The ratio is min-over-min: both run in the same process on the same
/// data, and on a time-shared runner interference is strictly additive,
/// so each backend's minimum round is the tightest estimate of its true
/// cost. The target is 2×; the committed floor leaves headroom for
/// throttled CI runners.
const BACKEND_SPEEDUP_FLOOR: f64 = 1.5;

struct Preset {
    name: &'static str,
    rows: usize,
    cols: usize,
    tile_w: usize,
    tile_h: usize,
    warmup: usize,
    repeats: usize,
}

const QUICK: Preset = Preset {
    name: "quick",
    rows: 6,
    cols: 8,
    tile_w: 64,
    tile_h: 48,
    warmup: 1,
    repeats: 3,
};

/// The standard workload: table2's scaled 42×59-shaped grid.
const STANDARD: Preset = Preset {
    name: "standard",
    rows: 14,
    cols: 20,
    tile_w: 96,
    tile_h: 72,
    warmup: 1,
    repeats: 5,
};

struct VariantStats {
    name: String,
    median_ns: u64,
    mad_ns: u64,
    min_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    ops: OpCounts,
    pair_errors: usize,
}

struct PresetReport {
    preset: &'static Preset,
    variants: Vec<VariantStats>,
}

fn variant_builders() -> Vec<Box<dyn Fn() -> Box<dyn Stitcher>>> {
    let gpu = || Device::new(0, DeviceConfig::small(128 << 20));
    vec![
        Box::new(|| Box::new(SimpleCpuStitcher::default()) as Box<dyn Stitcher>),
        Box::new(|| Box::new(MtCpuStitcher::new(THREADS)) as Box<dyn Stitcher>),
        Box::new(|| Box::new(PipelinedCpuStitcher::new(THREADS)) as Box<dyn Stitcher>),
        Box::new(move || Box::new(SimpleGpuStitcher::new(gpu())) as Box<dyn Stitcher>),
        Box::new(move || Box::new(PipelinedGpuStitcher::single(gpu())) as Box<dyn Stitcher>),
        Box::new(|| Box::new(FijiStyleStitcher::new(THREADS)) as Box<dyn Stitcher>),
    ]
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    let n = xs.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2
    }
}

fn mad(xs: &[u64], med: u64) -> u64 {
    let mut devs: Vec<u64> = xs.iter().map(|&x| x.abs_diff(med)).collect();
    median(&mut devs)
}

fn run_preset(preset: &'static Preset) -> PresetReport {
    eprintln!(
        "[perfgate] preset {}: {}x{} grid of {}x{} tiles, {} warmup + {} repeats",
        preset.name,
        preset.rows,
        preset.cols,
        preset.tile_w,
        preset.tile_h,
        preset.warmup,
        preset.repeats
    );
    let source = synthetic_source(scaled_scan(
        preset.rows,
        preset.cols,
        preset.tile_w,
        preset.tile_h,
    ));
    let (tw, tn) = truth_vectors(source.plate());

    let mut variants = Vec::new();
    for build in variant_builders() {
        let name = build().name();
        let mut walls = Vec::with_capacity(preset.repeats);
        let mut allocs = Vec::with_capacity(preset.repeats);
        let mut bytes = Vec::with_capacity(preset.repeats);
        let mut last: Option<StitchResult> = None;
        for rep in 0..preset.warmup + preset.repeats {
            let stitcher = build();
            let a0 = CountingAllocator::allocations();
            let b0 = CountingAllocator::bytes_allocated();
            let t0 = Instant::now();
            let res = stitcher.compute_displacements(&source);
            let wall = t0.elapsed().as_nanos() as u64;
            if rep >= preset.warmup {
                walls.push(wall);
                allocs.push(CountingAllocator::allocations() - a0);
                bytes.push(CountingAllocator::bytes_allocated() - b0);
                last = Some(res);
            }
        }
        let res = last.expect("at least one measured repeat");
        let med = median(&mut walls);
        let stats = VariantStats {
            name: name.clone(),
            median_ns: med,
            mad_ns: mad(&walls, med),
            min_ns: walls.iter().copied().min().unwrap_or(0),
            allocs: median(&mut allocs),
            alloc_bytes: median(&mut bytes),
            ops: res.ops,
            pair_errors: res.count_errors(&tw, &tn, 0),
        };
        eprintln!(
            "[perfgate]   {:<22} median {:>8}  mad {:>7}  allocs {:>9}",
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mad_ns),
            stats.allocs
        );
        variants.push(stats);
    }
    PresetReport { preset, variants }
}

struct BackendStats {
    /// The `--backend` choice name measured.
    choice: &'static str,
    /// What that choice resolves to on this host.
    resolved: &'static str,
    median_ns: u64,
    mad_ns: u64,
    min_ns: u64,
    allocs: u64,
}

/// Times the phase-1 pair computation (two forward FFTs + NCC + inverse
/// FFT + peak extraction + CCF disambiguation) under every compute
/// backend. Same pixels, same process, interleaved rounds — the only
/// variable is the selected backend, so the scalar/auto ratio is a
/// direct measure of the SIMD kernels.
fn run_backend_bench() -> Vec<BackendStats> {
    const CHOICES: [BackendChoice; 4] = [
        BackendChoice::Scalar,
        BackendChoice::Portable,
        BackendChoice::Simd,
        BackendChoice::Auto,
    ];
    let (w, h) = (PAIR_TILE_W, PAIR_TILE_H);
    eprintln!(
        "[perfgate] backend bench: {PAIR_BATCH} pair computes x {PAIR_REPEATS} interleaved \
         rounds per backend on {w}x{h} tiles"
    );
    let scene = Scene::generate(
        w as f64 * 3.0,
        h as f64 * 3.0,
        SceneParams {
            colony_count: 20,
            seed: 99,
            ..SceneParams::default()
        },
    );
    let a = scene.render_region(w as f64, h as f64, w, h, 0.02, 30.0, 1);
    let b = scene.render_region(w as f64 * 1.75, h as f64 + 2.0, w, h, 0.02, 30.0, 2);
    let planner = Planner::new(PlanMode::Estimate);

    // One long-lived context per choice, allocated before any timing so
    // the measured loops stay allocation-free.
    let mut ctxs: Vec<PciamContext> = CHOICES
        .iter()
        .map(|_| PciamContext::new(&planner, w, h, OpCounters::new_shared()))
        .collect();
    let mut walls = vec![Vec::with_capacity(PAIR_REPEATS); CHOICES.len()];
    let mut allocs = vec![Vec::with_capacity(PAIR_REPEATS); CHOICES.len()];
    let mut results = vec![Vec::with_capacity(PAIR_WARMUP + PAIR_REPEATS); CHOICES.len()];
    for rep in 0..PAIR_WARMUP + PAIR_REPEATS {
        for (ci, &choice) in CHOICES.iter().enumerate() {
            backend::select(choice);
            let ctx = &mut ctxs[ci];
            let a0 = CountingAllocator::allocations();
            let t0 = Instant::now();
            let mut last = None;
            for _ in 0..PAIR_BATCH {
                let fa = ctx.forward_fft(&a);
                let fb = ctx.forward_fft(&b);
                last = Some(ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West)));
            }
            let wall = t0.elapsed().as_nanos() as u64;
            results[ci].push(last.expect("PAIR_BATCH > 0"));
            if rep >= PAIR_WARMUP {
                walls[ci].push(wall);
                allocs[ci].push(CountingAllocator::allocations() - a0);
            }
        }
    }

    let mut stats = Vec::new();
    for (ci, choice) in CHOICES.into_iter().enumerate() {
        assert!(
            results[ci].windows(2).all(|p| p[0] == p[1]),
            "backend {}: unstable pair result",
            backend::resolved_name(choice)
        );
        let med = median(&mut walls[ci]);
        let s = BackendStats {
            choice: match choice {
                BackendChoice::Auto => "auto",
                BackendChoice::Scalar => "scalar",
                BackendChoice::Portable => "portable",
                BackendChoice::Simd => "simd",
            },
            resolved: backend::resolved_name(choice),
            median_ns: med,
            mad_ns: mad(&walls[ci], med),
            min_ns: walls[ci].iter().copied().min().unwrap_or(0),
            allocs: median(&mut allocs[ci]),
        };
        eprintln!(
            "[perfgate]   backend {:<8} (-> {:<8}) median {:>8}  mad {:>7}  min {:>8}  allocs {:>6}",
            s.choice,
            s.resolved,
            fmt_ns(s.median_ns),
            fmt_ns(s.mad_ns),
            fmt_ns(s.min_ns),
            s.allocs
        );
        stats.push(s);
    }
    backend::select(BackendChoice::Auto);
    stats
}

/// The committed perf claim: `auto` at least [`BACKEND_SPEEDUP_FLOOR`]×
/// faster than `scalar` on the pair bench (min over min — see the
/// constant's doc for why the minimum round is the right statistic on a
/// time-shared runner).
fn backend_gate(stats: &[BackendStats]) -> Result<f64, String> {
    let best = |name: &str| {
        stats
            .iter()
            .find(|s| s.choice == name)
            .map(|s| s.min_ns)
            .filter(|&m| m > 0)
            .ok_or_else(|| format!("backend bench missing {name:?}"))
    };
    let speedup = best("scalar")? as f64 / best("auto")? as f64;
    if speedup >= BACKEND_SPEEDUP_FLOOR {
        Ok(speedup)
    } else {
        Err(format!(
            "auto backend only x{speedup:.2} over scalar on the pair bench \
             (floor x{BACKEND_SPEEDUP_FLOOR})"
        ))
    }
}

/// A fixed single-thread stitch whose median time normalizes this
/// machine's speed: `--check` compares `median/calibration` ratios, so
/// a uniformly slower runner does not trip the gate.
fn calibrate() -> u64 {
    let source = synthetic_source(scaled_scan(3, 3, 64, 48));
    let mut walls = Vec::with_capacity(5);
    for _ in 0..6 {
        let t0 = Instant::now();
        let res = SimpleCpuStitcher::default().compute_displacements(&source);
        assert!(res.ops.forward_ffts > 0, "calibration stitch did no work");
        walls.push(t0.elapsed().as_nanos() as u64);
    }
    walls.remove(0); // warmup
    median(&mut walls)
}

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled; the offline build has no serde)
// ---------------------------------------------------------------------------

fn emit_report(
    pr: &str,
    calibration_ns: u64,
    presets: &[PresetReport],
    backends: &[BackendStats],
    before_section: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"pr\": \"{pr}\",");
    let _ = writeln!(out, "  \"tolerance\": {TOLERANCE},");
    if let Some(before) = before_section {
        let _ = writeln!(out, "  \"before\": {},", reindent(before, "  "));
    }
    let _ = writeln!(
        out,
        "  \"after\": {}",
        after_section(calibration_ns, presets, backends)
    );
    out.push_str("}\n");
    out
}

fn backends_section(backends: &[BackendStats]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "      \"workload\": {{\"tile_width\": {}, \"tile_height\": {}, \
         \"pairs_per_repeat\": {PAIR_BATCH}, \"warmup\": {PAIR_WARMUP}, \
         \"repeats\": {PAIR_REPEATS}}},",
        PAIR_TILE_W, PAIR_TILE_H
    );
    let _ = writeln!(s, "      \"speedup_floor\": {BACKEND_SPEEDUP_FLOOR},");
    for (i, b) in backends.iter().enumerate() {
        let comma = if i + 1 < backends.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      \"{}\": {{\"resolved\": \"{}\", \"median_ns\": {}, \"mad_ns\": {}, \
             \"min_ns\": {}, \"allocs\": {}}}{comma}",
            b.choice, b.resolved, b.median_ns, b.mad_ns, b.min_ns, b.allocs
        );
    }
    s.push_str("    }");
    s
}

fn after_section(
    calibration_ns: u64,
    presets: &[PresetReport],
    backends: &[BackendStats],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "    \"calibration_ns\": {calibration_ns},");
    let _ = writeln!(s, "    \"backends\": {},", backends_section(backends));
    s.push_str("    \"presets\": {\n");
    for (pi, p) in presets.iter().enumerate() {
        let w = p.preset;
        let _ = writeln!(s, "      \"{}\": {{", w.name);
        let _ = writeln!(
            s,
            "        \"workload\": {{\"rows\": {}, \"cols\": {}, \"tile_width\": {}, \"tile_height\": {}, \"warmup\": {}, \"repeats\": {}}},",
            w.rows, w.cols, w.tile_w, w.tile_h, w.warmup, w.repeats
        );
        s.push_str("        \"variants\": {\n");
        for (vi, v) in p.variants.iter().enumerate() {
            let _ = writeln!(s, "          \"{}\": {{", v.name);
            let _ = writeln!(s, "            \"median_ns\": {},", v.median_ns);
            let _ = writeln!(s, "            \"mad_ns\": {},", v.mad_ns);
            let _ = writeln!(s, "            \"min_ns\": {},", v.min_ns);
            let _ = writeln!(s, "            \"allocs\": {},", v.allocs);
            let _ = writeln!(s, "            \"alloc_bytes\": {},", v.alloc_bytes);
            let _ = writeln!(s, "            \"reads\": {},", v.ops.reads);
            let _ = writeln!(s, "            \"forward_ffts\": {},", v.ops.forward_ffts);
            let _ = writeln!(s, "            \"inverse_ffts\": {},", v.ops.inverse_ffts);
            let _ = writeln!(
                s,
                "            \"elementwise_mults\": {},",
                v.ops.elementwise_mults
            );
            let _ = writeln!(s, "            \"ccf_groups\": {},", v.ops.ccf_groups);
            let _ = writeln!(s, "            \"pair_errors\": {}", v.pair_errors);
            let comma = if vi + 1 < p.variants.len() { "," } else { "" };
            let _ = writeln!(s, "          }}{comma}");
        }
        s.push_str("        }\n");
        let comma = if pi + 1 < presets.len() { "," } else { "" };
        let _ = writeln!(s, "      }}{comma}");
    }
    s.push_str("    }\n  }");
    s
}

/// Re-indents an extracted JSON object so it nests prettily at `pad`.
fn reindent(obj: &str, pad: &str) -> String {
    let mut out = String::with_capacity(obj.len());
    for (i, line) in obj.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
    out
}

// ---------------------------------------------------------------------------
// JSON extraction (string-scanning; enough for our own schema)
// ---------------------------------------------------------------------------

/// Returns the `{...}` object slice that follows `"key":`, honoring
/// nesting and strings. Finds the *first* occurrence of the key.
fn extract_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = json[from..].find(&needle) {
        let rest = &json[from + pos + needle.len()..];
        let rest_trim = rest.trim_start();
        if let Some(after_colon) = rest_trim.strip_prefix(':') {
            let body = after_colon.trim_start();
            if body.starts_with('{') {
                let start = json.len() - body.len();
                let mut depth = 0usize;
                let mut in_str = false;
                let mut escape = false;
                for (i, c) in json[start..].char_indices() {
                    if escape {
                        escape = false;
                        continue;
                    }
                    match c {
                        '\\' if in_str => escape = true,
                        '"' => in_str = !in_str,
                        '{' if !in_str => depth += 1,
                        '}' if !in_str => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(&json[start..start + i + 1]);
                            }
                        }
                        _ => {}
                    }
                }
                return None; // unbalanced
            }
        }
        from += pos + needle.len();
    }
    None
}

/// Reads the first `"key": <integer>` in `json`.
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let pos = json.find(&needle)?;
    let rest = json[pos + needle.len()..].trim_start().strip_prefix(':')?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// The --check gate
// ---------------------------------------------------------------------------

fn check_against(
    baseline: &str,
    calibration_ns: u64,
    presets: &[PresetReport],
    backends: &[BackendStats],
) -> Result<(), String> {
    if !baseline.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("baseline missing schema marker {SCHEMA:?}"));
    }
    let after = extract_object(baseline, "after").ok_or("baseline has no \"after\" section")?;
    let base_cal = extract_u64(after, "calibration_ns")
        .filter(|&c| c > 0)
        .ok_or("baseline has no positive calibration_ns")?;
    let base_presets = extract_object(after, "presets").ok_or("baseline has no presets")?;

    let mut failures = Vec::new();
    // Per-backend columns: compare normalized pair-bench medians when the
    // baseline has them (pre-backend baselines simply skip this block).
    if let Some(base_backends) = extract_object(after, "backends") {
        for b in backends {
            let Some(bb) = extract_object(base_backends, b.choice) else {
                continue;
            };
            let Some(base_med) = extract_u64(bb, "median_ns").filter(|&m| m > 0) else {
                continue;
            };
            let base_norm = base_med as f64 / base_cal as f64;
            let cur_norm = b.median_ns as f64 / calibration_ns as f64;
            let ratio = cur_norm / base_norm;
            eprintln!(
                "[perfgate] check backends/{:<8} {:>8} vs baseline {:>8}  normalized x{:.2}",
                b.choice,
                fmt_ns(b.median_ns),
                fmt_ns(base_med),
                ratio
            );
            if ratio > TOLERANCE {
                failures.push(format!(
                    "backends/{}: normalized pair-bench median regressed x{ratio:.2} \
                     (> x{TOLERANCE}): {} now vs {} at baseline",
                    b.choice,
                    fmt_ns(b.median_ns),
                    fmt_ns(base_med),
                ));
            }
        }
    }
    for p in presets {
        let bp = extract_object(base_presets, p.preset.name)
            .ok_or_else(|| format!("baseline lacks preset {:?}", p.preset.name))?;
        let bvars = extract_object(bp, "variants")
            .ok_or_else(|| format!("baseline preset {:?} lacks variants", p.preset.name))?;
        for v in &p.variants {
            let bv = extract_object(bvars, &v.name)
                .ok_or_else(|| format!("baseline lacks variant {:?}", v.name))?;
            let base_med = extract_u64(bv, "median_ns")
                .filter(|&m| m > 0)
                .ok_or_else(|| format!("baseline variant {:?} has no positive median", v.name))?;
            let base_norm = base_med as f64 / base_cal as f64;
            let cur_norm = v.median_ns as f64 / calibration_ns as f64;
            let ratio = cur_norm / base_norm;
            eprintln!(
                "[perfgate] check {}/{:<22} {:>8} vs baseline {:>8}  normalized x{:.2}",
                p.preset.name,
                v.name,
                fmt_ns(v.median_ns),
                fmt_ns(base_med),
                ratio
            );
            if ratio > TOLERANCE {
                failures.push(format!(
                    "{}/{}: normalized median regressed x{:.2} (> x{TOLERANCE}): \
                     {} now vs {} at baseline (calibration {} vs {})",
                    p.preset.name,
                    v.name,
                    ratio,
                    fmt_ns(v.median_ns),
                    fmt_ns(base_med),
                    fmt_ns(calibration_ns),
                    fmt_ns(base_cal),
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

// ---------------------------------------------------------------------------
// The --batch scheduler-throughput gate
// ---------------------------------------------------------------------------

/// The `--batch` workload: [`BATCH_JOBS`] identical quick jobs on the
/// *shared* simulated device, with the PCIe transfer-time model slowed
/// so each job spends a meaningful fraction of its run stalled in
/// simulated H2D/D2H waits. That is exactly the regime where a multi-job
/// scheduler pays off — one job's transfer stall overlaps another's
/// compute — and, unlike CPU-parallel speedup, it shows up on
/// single-core CI runners too.
fn batch_jobs() -> Vec<stitch_sched::StitchJob> {
    (0..BATCH_JOBS)
        .map(|i| {
            stitch_sched::StitchJob::new(
                format!("quick{i}"),
                stitch_image::ScanConfig::for_grid(
                    QUICK.rows,
                    QUICK.cols,
                    QUICK.tile_w,
                    QUICK.tile_h,
                    0.25,
                    2014 + i as u64,
                ),
            )
            .variant(stitch_sched::JobVariant::SimpleGpu)
            .compose(false)
        })
        .collect()
}

/// The gate's shared device: Kepler-style concurrent kernels (no
/// device-wide FFT serialization, which would defeat cross-job overlap)
/// and deliberately slow simulated transfers.
fn batch_device() -> stitch_gpu::Device {
    stitch_gpu::Device::new(
        0,
        stitch_gpu::DeviceConfig {
            h2d_bytes_per_sec: Some(1.2e6),
            d2h_bytes_per_sec: Some(1.2e6),
            ..stitch_gpu::DeviceConfig::kepler_gk110()
        },
    )
}

fn run_batch_with_workers(workers: usize) -> std::time::Duration {
    let report = stitch_sched::run_batch(
        batch_jobs(),
        &stitch_sched::BatchOptions {
            workers,
            memory_budget: 256 << 20,
            device: Some(batch_device()),
            ..stitch_sched::BatchOptions::default()
        },
    );
    assert!(report.rejected.is_empty(), "gate jobs must all be admitted");
    for out in &report.outcomes {
        assert_eq!(
            out.status,
            stitch_sched::JobStatus::Completed,
            "gate job {} did not complete",
            out.name
        );
    }
    report.elapsed
}

fn batch_gate() -> Result<f64, String> {
    eprintln!(
        "[perfgate] batch gate: {BATCH_JOBS} single-threaded quick jobs, \
         serial (1 worker) vs concurrent ({BATCH_JOBS} workers)"
    );
    // warmup: fault in plan caches, page in the binary
    let _ = run_batch_with_workers(BATCH_JOBS);
    let mut best = 0f64;
    for round in 0..BATCH_ROUNDS {
        let serial = run_batch_with_workers(1);
        let concurrent = run_batch_with_workers(BATCH_JOBS);
        let speedup = serial.as_secs_f64() / concurrent.as_secs_f64();
        eprintln!(
            "[perfgate]   round {round}: serial {serial:.2?}, concurrent {concurrent:.2?} \
             -> x{speedup:.2}"
        );
        best = best.max(speedup);
    }
    if best >= BATCH_SPEEDUP_FLOOR {
        Ok(best)
    } else {
        Err(format!(
            "concurrent batch throughput only x{best:.2} of serial \
             (floor x{BATCH_SPEEDUP_FLOOR})"
        ))
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--batch") {
        match batch_gate() {
            Ok(speedup) => {
                eprintln!(
                    "[perfgate] batch gate OK: x{speedup:.2} \
                     (floor x{BATCH_SPEEDUP_FLOOR})"
                );
                return;
            }
            Err(msg) => {
                eprintln!("[perfgate] batch gate FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    let quick_only = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out");
    let before_path = arg_value(&args, "--before");
    let check_path = arg_value(&args, "--check");

    let before_section = before_path.map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        extract_object(&text, "after")
            .unwrap_or_else(|| panic!("{p} has no \"after\" section to use as before"))
            .to_string()
    });

    eprintln!("[perfgate] calibrating (single-thread 3x3 stitch)...");
    let calibration_ns = calibrate();
    eprintln!("[perfgate] calibration: {}", fmt_ns(calibration_ns));

    let backends = run_backend_bench();
    let mut presets = vec![run_preset(&QUICK)];
    if !quick_only {
        presets.push(run_preset(&STANDARD));
    }

    let report = emit_report(
        "PR7",
        calibration_ns,
        &presets,
        &backends,
        before_section.as_deref(),
    );
    match &out_path {
        Some(p) => {
            std::fs::write(p, &report).unwrap_or_else(|e| panic!("write {p}: {e}"));
            eprintln!("[perfgate] wrote {p}");
        }
        None => println!("{report}"),
    }

    // Self-checking speedup ratchet: runs on every invocation — it needs
    // no baseline, only this process's own scalar/auto ratio.
    match backend_gate(&backends) {
        Ok(speedup) => eprintln!(
            "[perfgate] backend gate OK: auto x{speedup:.2} over scalar \
             (floor x{BACKEND_SPEEDUP_FLOOR})"
        ),
        Err(msg) => {
            eprintln!("[perfgate] backend gate FAILED: {msg}");
            std::process::exit(1);
        }
    }

    if let Some(p) = check_path {
        let baseline = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        match check_against(&baseline, calibration_ns, &presets, &backends) {
            Ok(()) => eprintln!("[perfgate] check vs {p}: OK (tolerance x{TOLERANCE})"),
            Err(msg) => {
                eprintln!("[perfgate] check vs {p} FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
