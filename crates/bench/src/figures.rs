//! The paper's experiments, one function each, and the registry
//! `paperfigs` runs them from.
//!
//! Analytic and virtual-time tables (Table I, Table II, Figs 5, 10–12, the
//! traversal ablation) are pure functions of the code and pinned
//! byte-for-byte by `tests/figures.rs`; the others run real kernels on
//! this host at a scaled-down size to show an *effect* (a cliff, a denser
//! timeline, a planning trade-off). Host timings of the six variants are
//! not here: `stitchbench` reports them (`core.variant.*.phase1_ms`).

use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

use stitch_core::compose::pyramid;
use stitch_core::memlimit::SpillStore;
use stitch_core::opcount::{OpCounters, OpCounts};
use stitch_core::pciam::PciamContext;
use stitch_core::prelude::*;
use stitch_fft::{c64, factor, Direction, Fft2d, PlanMode, Planner, RealFft2d, C32, C64};
use stitch_gpu::{Device, DeviceConfig, SpanKind};
use stitch_image::opts::Options;
use stitch_image::{pgm, tiff, Scene, SceneParams};
use stitch_sim::{
    fig5_compute_fft_ns, pipelined_cpu_ns, pipelined_gpu_ns, table2_rows, CostModel, MachineSpec,
};
use stitch_trace::{RunReport, TraceHandle};

use crate::{fmt_ns, scaled_scan, synthetic_source, ResultTable};

/// `--costs`: where the simulator's per-operation costs come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Costs {
    /// Back-derived from the paper's own numbers (`CostModel::paper_c2070`).
    Paper,
    /// Measured on this host's kernels at 1392×1040: what the virtual
    /// testbed would do with *these* kernels instead of the 2012 ones.
    Calibrated,
}

impl FromStr for Costs {
    type Err = String;

    fn from_str(s: &str) -> Result<Costs, String> {
        match s {
            "paper" => Ok(Costs::Paper),
            "calibrated" => Ok(Costs::Calibrated),
            other => Err(format!(
                "unknown costs '{other}' (expected paper or calibrated)"
            )),
        }
    }
}

/// The flags of `paperfigs`.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--full`: paper-scale workloads where an experiment has one.
    pub full: bool,
    /// `--json DIR`: also write each table (and its attachments) there.
    pub json: Option<PathBuf>,
    /// `--machine testbed|laptop` as spelled (Table II's title names it) …
    pub machine_name: String,
    /// … and the virtual machine it selects.
    pub machine: MachineSpec,
    /// `--costs paper|calibrated`.
    pub costs: Costs,
}

impl Args {
    /// Reads the `--flag value` arguments that follow the experiment ids.
    pub fn parse(flags: &[String]) -> Result<Args, String> {
        let mut o = Options::from_args("paperfigs", flags, &["full"])?;
        let args = Args {
            full: o.take("full")?.unwrap_or(false),
            json: o.take("json")?,
            machine_name: o.take("machine")?.unwrap_or_else(|| "testbed".into()),
            machine: o
                .take("machine")?
                .unwrap_or_else(MachineSpec::paper_testbed),
            costs: o.take("costs")?.unwrap_or(Costs::Paper),
        };
        o.finish()?;
        Ok(args)
    }
}

/// One regenerable experiment: `(id, what it reproduces, how)`.
pub type Experiment = (&'static str, &'static str, fn(&Args) -> Vec<ResultTable>);

/// Every table and figure of the paper (DESIGN.md's experiment index).
pub const REGISTRY: &[Experiment] = &[
    ("table1", "Table I: operation counts & complexities", table1),
    ("table2", "Table II: run times & speedups", table2),
    ("fig5", "Fig 5: the virtual-memory cliff", fig5),
    ("fig7_9", "Figs 7/9: device-profile timelines", fig7_9),
    ("fig10", "Fig 10: Pipelined-GPU vs CCF threads", fig10),
    ("fig11", "Fig 11: Pipelined-CPU strong scaling", fig11),
    ("fig12", "Fig 12: speedup surface, threads x tiles", fig12),
    ("fig13", "Figs 13/14: the composed mosaic", fig13),
    (
        "ablation",
        "§IV-A/§VI-A: planning, padding, r2c, traversal",
        ablation,
    ),
];

/// Resolves what was asked for — `all`, or ids in the order given — or
/// names the first id the registry does not hold.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    match ids {
        [] => return Err("no experiment named".into()),
        [all] if all == "all" => return Ok(REGISTRY.iter().collect()),
        _ => {}
    }
    let find = |id: &String| REGISTRY.iter().find(|e| e.0 == id);
    ids.iter()
        .map(|id| find(id).ok_or_else(|| format!("unknown experiment '{id}'")))
        .collect()
}

const PAPER_GRID: (usize, usize) = (42, 59);

fn paper_shape() -> GridShape {
    GridShape::new(PAPER_GRID.0, PAPER_GRID.1)
}

/// Table I — the paper's cost model for its full-scale grid (counts,
/// per-op complexity, operand sizes), then the counts validated against
/// the instrumented counters of a real run.
fn table1(args: &Args) -> Vec<ResultTable> {
    let (n, m) = PAPER_GRID;
    let (h, w) = (1040usize, 1392usize);
    let nm = n * m;
    let pairs = 2 * nm - n - m;
    let hw = h * w;
    let mut t = ResultTable::new(
        "table1",
        &format!("operation counts & complexities ({n}x{m} grid of {w}x{h} tiles)"),
        &["operation", "count", "per-op cost", "operand bytes"],
    );
    let per_px = format!("h*w = {hw}");
    let per_fft = format!("hw*log(hw) = {:.0}", hw as f64 * (hw as f64).log2());
    for (op, count, cost, bytes_per_px) in [
        ("Read", nm, &per_px, 2),
        ("FFT-2D", nm, &per_fft, 16),
        ("NCC (elt-wise)", pairs, &per_px, 16),
        ("FFT-2D^-1", pairs, &per_fft, 16),
        ("max reduce", pairs, &per_px, 16),
        ("CCF 1..4", pairs, &per_px, 4),
    ] {
        let bytes = format!("{bytes_per_px}hw = {}", bytes_per_px * hw);
        t.row(op, &[count.to_string(), cost.clone(), bytes]);
    }
    t.note("counts: nm tiles, 2nm-n-m adjacent pairs (Table I formulas)");

    let (rows, cols) = if args.full { (12, 16) } else { (5, 7) };
    let src = synthetic_source(scaled_scan(rows, cols, 64, 48));
    let mut v = ResultTable::new(
        "table1_validation",
        &format!("instrumented counts of a real run ({rows}x{cols} grid)"),
        &[
            "operation",
            "predicted",
            "Simple-CPU",
            "Pipelined-CPU",
            "Fiji-style",
        ],
    );
    let runs = [
        OpCounts::predicted(rows, cols),
        SimpleCpuStitcher::default().compute_displacements(&src).ops,
        PipelinedCpuStitcher::new(2).compute_displacements(&src).ops,
        FijiStyleStitcher::new(2).compute_displacements(&src).ops,
    ];
    type Getter = fn(&OpCounts) -> u64;
    let ops: [(&str, Getter); 6] = [
        ("Read", |o| o.reads),
        ("FFT-2D", |o| o.forward_ffts),
        ("NCC", |o| o.elementwise_mults),
        ("FFT-2D^-1", |o| o.inverse_ffts),
        ("max reduce", |o| o.max_reductions),
        ("CCF 1..4", |o| o.ccf_groups),
    ];
    for (name, get) in ops {
        v.row(name, &runs.each_ref().map(|o| get(o).to_string()));
    }
    v.note("Simple/Pipelined match the minimal-work prediction exactly");
    v.note("Fiji-style does 2x reads and 2x forward FFTs per pair — its inefficiency, by design");
    vec![t, v]
}

/// Table II — virtual run times and speedups of all seven configurations
/// on the 42×59 grid: the discrete-event simulator runs each
/// architecture's task graph on `--machine` with `--costs`, and the
/// paper's own numbers are printed alongside.
fn table2(args: &Args) -> Vec<ResultTable> {
    let (cost, costs) = match args.costs {
        Costs::Paper => (CostModel::paper_c2070(), "paper-derived"),
        Costs::Calibrated => {
            eprintln!("(calibrating kernel costs on this host at 1392x1040...)");
            (CostModel::calibrated(1392, 1040, 1), "host-calibrated")
        }
    };
    let rows = table2_rows(paper_shape(), &cost, &args.machine);
    let simple = rows[1].1;
    let mut t = ResultTable::new(
        "table2_virtual",
        &format!(
            "run times & speedups, 42x59 grid of 1392x1040 tiles (virtual {} machine, {costs} costs)",
            args.machine_name
        ),
        &["implementation", "virtual time", "S/CPU", "paper time"],
    );
    for (name, ns, paper) in rows {
        let speedup = format!("{:.1}", simple as f64 / ns as f64);
        t.row(name, &[fmt_ns(ns), speedup, paper.to_string()]);
    }
    t.note("virtual time: discrete-event simulation of each architecture's task graph");
    t.note("costs back-derived from the paper (CostModel::paper_c2070); see stitch-sim docs");
    t.note("S/CPU = speedup relative to Simple-CPU, as in the paper's Table II");
    vec![t]
}

/// Fig 5 — speedup of the "compute FFTs without releasing memory" workload
/// over tiles × threads on the 24 GB virtual machine (the cliff between
/// 832 and 864 tiles), then the same effect for real with the in-process
/// `SpillStore` under a small budget.
fn fig5(_: &Args) -> Vec<ResultTable> {
    let cost = CostModel::paper_c2070();
    let machine = MachineSpec::fig5_machine();
    let mut t = ResultTable::new(
        "fig5",
        "compute-FFT speedup vs tiles (virtual 24 GB machine) — the VM cliff",
        &[
            "tiles",
            "t=1",
            "t=2",
            "t=4",
            "t=8",
            "t=12",
            "t=16",
            "working set",
        ],
    );
    for tiles in [512usize, 576, 640, 704, 768, 832, 864, 896, 960, 1024] {
        let base = fig5_compute_fft_ns(tiles, &cost, &machine, 1);
        let mut vals: Vec<String> = [1usize, 2, 4, 8, 12, 16]
            .iter()
            .map(|&th| {
                let ns = fig5_compute_fft_ns(tiles, &cost, &machine, th);
                format!("{:.2}", base as f64 / ns as f64)
            })
            .collect();
        let ws_gb = tiles as f64 * (cost.transform_bytes as f64 * 1.125) / 1e9;
        vals.push(format!("{ws_gb:.1} GB"));
        t.row(tiles, &vals);
    }
    t.note("cliff: speedup collapses for every thread count once the working set");
    t.note("exceeds physical memory and transform buffers page through one disk");

    let (w, h) = (64usize, 48usize);
    let budget_tiles = 48usize;
    let planner = Planner::default();
    let mut ctx = PciamContext::new(&planner, w, h, OpCounters::new_shared());
    let scene = Scene::generate(4096.0, 4096.0, SceneParams::default());
    let mut r = ResultTable::new(
        "fig5_real",
        &format!("real spill-store demonstration (budget = {budget_tiles} transforms of {w}x{h})"),
        &["tiles", "time/tile", "spills", "faults"],
    );
    for tiles in [16usize, 32, 48, 64, 96] {
        let budget = budget_tiles * PciamContext::spectrum_bytes(w, h);
        let store = SpillStore::new(budget).expect("spill store");
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for i in 0..tiles {
            let img =
                scene.render_region((i * 40) as f64, (i * 24) as f64, w, h, 0.0, 30.0, i as u64);
            handles.push(store.insert(ctx.forward_fft(&img).into_vec()));
        }
        // revisit all transforms once (what the pair computations would do)
        for &hd in &handles {
            store.with(hd, |d| std::hint::black_box(d[0]));
        }
        let per = t0.elapsed().as_micros() as u64 / tiles as u64;
        let (spills, faults) = (store.spill_count(), store.fault_count());
        r.row(
            tiles,
            &[format!("{per} us"), spills.to_string(), faults.to_string()],
        );
    }
    r.note("past the 48-tile budget, spills/faults appear and time per tile jumps");
    vec![t, r]
}

/// Figs 7 & 9 — Simple-GPU and Pipelined-GPU over the paper's 8×8 profile
/// grid on the simulated device with the PCIe transfer model: both
/// timelines are printed, and the table holds the kernel-density numbers
/// the paper reads off its profiler screenshots. The merged Chrome traces,
/// device rows included, ride along as attachments.
fn fig7_9(_: &Args) -> Vec<ResultTable> {
    let src = synthetic_source(scaled_scan(8, 8, 128, 96));
    let cfg = DeviceConfig {
        memory_bytes: 512 << 20,
        ..DeviceConfig::with_transfer_model()
    };
    // each run records a merged host+device timeline; density and overlap
    // come from that timeline, not the raw device profiler, so host gaps
    // count against the schedule
    let (trace_simple, trace_pipe) = (TraceHandle::new(), TraceHandle::new());
    let (dev_simple, dev_pipe) = (Device::new(0, cfg.clone()), Device::new(1, cfg));
    // four CCF threads, Pipelined-GPU's default
    let traced = |variant: Variant, device: &Device, trace: &TraceHandle| {
        variant.build(&Resources {
            threads: 4,
            devices: vec![device.clone()],
            trace: trace.clone(),
            ..Resources::default()
        })
    };
    let r_simple =
        traced(Variant::SimpleGpu, &dev_simple, &trace_simple).compute_displacements(&src);
    println!("-- Fig 7: Simple-GPU profile (8x8 grid) --");
    print!("{}", dev_simple.profiler().render_timeline(110));
    let r_pipe = traced(Variant::PipelinedGpu, &dev_pipe, &trace_pipe).compute_displacements(&src);
    println!("\n-- Fig 9: Pipelined-GPU profile (8x8 grid) --");
    print!("{}", dev_pipe.profiler().render_timeline(110));
    println!("\nlegend: '>' H2D copy, '<' D2H copy, '#' kernel, '.' sync, ' ' idle\n");

    let (rep_simple, rep_pipe) = (
        RunReport::from_trace(&trace_simple),
        RunReport::from_trace(&trace_pipe),
    );
    let kernel_spans = |dev: &Device| {
        let spans = dev.profiler().spans();
        spans.iter().filter(|s| s.kind == SpanKind::Kernel).count()
    };
    let peak = |dev: &Device| dev.profiler().peak_concurrency(SpanKind::Kernel);
    let mut t = ResultTable::new(
        "fig7_9",
        "profile metrics: Simple-GPU (Fig 7) vs Pipelined-GPU (Fig 9)",
        &["metric", "Simple-GPU", "Pipelined-GPU"],
    );
    for (metric, simple, pipe) in [
        (
            "kernel density (merged timeline)",
            format!("{:.3}", rep_simple.kernel_density),
            format!("{:.3}", rep_pipe.kernel_density),
        ),
        (
            "copy/compute overlap",
            format!("{:.3}", rep_simple.copy_compute_overlap),
            format!("{:.3}", rep_pipe.copy_compute_overlap),
        ),
        (
            "peak kernel concurrency",
            peak(&dev_simple).to_string(),
            peak(&dev_pipe).to_string(),
        ),
        (
            "kernel spans",
            kernel_spans(&dev_simple).to_string(),
            kernel_spans(&dev_pipe).to_string(),
        ),
        (
            "elapsed (this host)",
            format!("{:.2?}", r_simple.elapsed),
            format!("{:.2?}", r_pipe.elapsed),
        ),
    ] {
        t.row(metric, &[simple, pipe]);
    }
    t.note("the paper's contrast: the pipelined profile is dense and overlapped,");
    t.note("the simple profile serialized (one kernel at a time, gaps between)");
    // for external plotting / chrome://tracing
    t.attach("fig7_simple_gpu_trace.json", trace_simple.to_chrome_json());
    t.attach("fig9_pipelined_gpu_trace.json", trace_pipe.to_chrome_json());
    vec![t]
}

/// Fig 10 — Pipelined-GPU (2 GPUs) virtual run time vs CCF thread count
/// (the paper's curve drops from ~42 s at one thread to ~29 s at two and
/// stays flat: "performance is limited by GPU computations").
fn fig10(_: &Args) -> Vec<ResultTable> {
    let cost = CostModel::paper_c2070();
    let machine = MachineSpec::paper_testbed();
    let mut t = ResultTable::new(
        "fig10",
        "Pipelined-GPU (2 GPUs) vs CCF threads, 42x59 grid (virtual testbed)",
        &["ccf threads", "virtual time"],
    );
    for threads in 1..=16usize {
        let ns = pipelined_gpu_ns(paper_shape(), &cost, &machine, 2, threads);
        t.row(threads, &[fmt_ns(ns)]);
    }
    t.note("paper: ~42s at 1 thread, ~29s at 2, minimal impact beyond 2");
    t.note("(stage 6 stops being the bottleneck; the per-pipeline readers are)");
    vec![t]
}

/// Fig 11 — strong scaling of Pipelined-CPU, threads 1–16, virtual time
/// at paper scale: "almost linear as the thread count increases up to 8,
/// the number of physical cores; … another linear slope between 9 and 16."
fn fig11(_: &Args) -> Vec<ResultTable> {
    let cost = CostModel::paper_c2070();
    let machine = MachineSpec::paper_testbed();
    let t1 = pipelined_cpu_ns(paper_shape(), &cost, &machine, 1);
    let mut t = ResultTable::new(
        "fig11",
        "Pipelined-CPU strong scaling, 42x59 grid (virtual testbed: 8 cores / 16 HT)",
        &["threads", "virtual time", "speedup", "bar"],
    );
    for threads in 1..=16usize {
        let ns = pipelined_cpu_ns(paper_shape(), &cost, &machine, threads);
        let speedup = t1 as f64 / ns as f64;
        let bar = "#".repeat(speedup.round() as usize);
        t.row(threads, &[fmt_ns(ns), format!("{speedup:.2}"), bar]);
    }
    t.note("near-linear to 8 threads (physical cores), flatter slope 9-16 (hyper-threads)");
    t.note("paper: 16 threads ran the grid in 1.4min with speedup ~7.5 over 1 thread");
    vec![t]
}

/// Fig 12 — Pipelined-CPU speedup surface, threads 1–16 × tiles 128–1024:
/// the scaling of Fig 11 "is consistent across varying grid sizes".
fn fig12(_: &Args) -> Vec<ResultTable> {
    let cost = CostModel::paper_c2070();
    let machine = MachineSpec::paper_testbed();
    let mut t = ResultTable::new(
        "fig12",
        "Pipelined-CPU speedup surface: threads x tiles (virtual testbed)",
        &[
            "tiles", "t=1", "t=2", "t=4", "t=6", "t=8", "t=10", "t=12", "t=14", "t=16",
        ],
    );
    // square-ish grids of 128, 256, … 1024 tiles
    for (rows, cols) in [
        (8, 16),
        (16, 16),
        (16, 24),
        (16, 32),
        (20, 32),
        (24, 32),
        (28, 32),
        (32, 32),
    ] {
        let shape = GridShape::new(rows, cols);
        let t1 = pipelined_cpu_ns(shape, &cost, &machine, 1);
        let vals: Vec<String> = [1usize, 2, 4, 6, 8, 10, 12, 14, 16]
            .iter()
            .map(|&th| pipelined_cpu_ns(shape, &cost, &machine, th))
            .map(|ns| format!("{:.2}", t1 as f64 / ns as f64))
            .collect();
        t.row(rows * cols, &vals);
    }
    t.note("speedup relative to 1 thread for each grid size");
    t.note("the surface is flat along the tile axis: scaling is consistent across grid sizes");
    vec![t]
}

/// Figs 13 & 14 — stitches a 42×59-shaped synthetic plate end to end
/// (phase 1 → 2 → 3) and writes the composed image twice under the temp
/// directory: the Fig 13 overlay blend and the Fig 14 variant with
/// highlighted tile borders, plus a 3-level pyramid (§VI-A prototype).
fn fig13(args: &Args) -> Vec<ResultTable> {
    let (rows, cols, tw, th) = if args.full {
        (42, 59, 256, 192)
    } else {
        (14, 20, 96, 72)
    };
    let src = synthetic_source(scaled_scan(rows, cols, tw, th));
    let out_dir = std::env::temp_dir().join("stitch_fig13");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut t = ResultTable::new(
        "fig13",
        &format!("composed mosaic, {rows}x{cols} grid of {tw}x{th} tiles"),
        &["step", "result"],
    );

    // one pass; the solve and compose spans it stamps time phases 2 and 3
    let (trace, policy) = (TraceHandle::new(), FailurePolicy::default());
    let overlay = MosaicSpec {
        blend: Blend::Overlay,
        workers: stitch_core::default_workers(),
        highlight: false,
    };
    let stitcher = PipelinedCpuStitcher::new(2);
    let pass = run_pass(&stitcher, &src, &policy, Some(overlay), &trace, &|| false)
        .expect("a clean synthetic plate stitches");
    let took = |track: &str| {
        let spans = trace.spans().into_iter();
        let compute = spans.filter(|s| s.track == track && s.cat == "compute");
        Duration::from_nanos(compute.map(|s| s.end_ns - s.start_ns).sum())
    };
    let positions = pass.positions.expect("solved");
    let mosaic = pass.mosaic.expect("composed");
    let (mw, mh) = (mosaic.width(), mosaic.height());
    t.row(
        "phase 1 (displacements)",
        &[format!("{:.2?}", pass.result.elapsed)],
    );
    t.row(
        "phase 2 (global optimization)",
        &[format!("{:.2?}", took("solve"))],
    );
    t.row(
        "phase 3 (compose, overlay)",
        &[format!("{mw}x{mh} px in {:.2?}", took("compose"))],
    );
    let fig13_pgm = out_dir.join("fig13_overlay.pgm");
    pgm::write_pgm(&fig13_pgm, &mosaic).expect("write fig13 pgm");
    tiff::write_tiff(out_dir.join("fig13_overlay.tif"), &mosaic).expect("write fig13 tiff");
    t.row("fig13 output", &[fig13_pgm.display().to_string()]);

    let mut highlighter = Composer::new(positions, Blend::Overlay);
    highlighter.highlight_tiles = true;
    let fig14 = out_dir.join("fig14_highlighted.pgm");
    pgm::write_pgm(&fig14, &highlighter.compose(&src)).expect("write fig14");
    t.row("fig14 output", &[fig14.display().to_string()]);

    for (i, level) in pyramid(mosaic, 3).iter().enumerate().skip(1) {
        let p = out_dir.join(format!("fig13_pyramid_L{i}.pgm"));
        pgm::write_pgm(&p, level).expect("write pyramid level");
        t.row(
            format!("pyramid level {i}"),
            &[format!("{}x{} px", level.width(), level.height())],
        );
    }
    t.note("paper's full-scale output: 17k x 22k px (~1cm x 1.4cm of plate)");
    vec![t]
}

/// Mean milliseconds of one forward complex 2-D transform.
fn time_fft2d(planner: &Planner, w: usize, h: usize, reps: usize) -> f64 {
    let mut data: Vec<C64> = (0..w * h).map(|k| c64((k % 251) as f64, 0.0)).collect();
    let mut scratch = vec![C64::ZERO; w * h];
    let fft = Fft2d::new(planner, w, h, Direction::Forward);
    let t0 = Instant::now();
    for _ in 0..reps {
        fft.process(&mut data, &mut scratch);
    }
    t0.elapsed().as_secs_f64() / reps as f64 * 1e3
}

/// §IV-A / §VI-A ablations, measured on this host: FFT planning modes
/// (§IV-A: patient ≈ 2× faster execution than estimate), tile padding to
/// small prime factors and real-to-complex transforms (§VI-A future work;
/// r2c is what every stitcher now runs), and the traversal orders'
/// peak-live-transform counts (§IV-A: chained-diagonal frees earliest).
fn ablation(args: &Args) -> Vec<ResultTable> {
    let (w, h, reps) = if args.full {
        (1392, 1040, 3)
    } else {
        (348, 260, 10)
    };

    let mut t = ResultTable::new(
        "ablation_planning",
        &format!("FFT planning modes, {w}x{h} transforms"),
        &["mode", "exec ms/transform", "planning cost"],
    );
    for (name, mode) in [
        ("estimate", PlanMode::Estimate),
        ("measure", PlanMode::Measure),
        ("patient", PlanMode::Patient),
    ] {
        let planner = Planner::new(mode);
        let ms = time_fft2d(&planner, w, h, reps);
        let plan_ms = planner.planning_nanos() as f64 / 1e6;
        t.row(name, &[format!("{ms:.2}"), format!("{plan_ms:.1}ms")]);
    }
    t.note("paper: patient mode ~2x faster execution than estimate for their tiles,");
    t.note("plan cost amortized over thousands of transforms");

    let planner = Planner::new(PlanMode::Estimate);
    let mut p = ResultTable::new(
        "ablation_padding",
        "tile padding ablation (§VI-A future work)",
        &["size", "factors", "exec ms/transform", "px overhead"],
    );
    for (label, cw, ch) in [
        ("native", w, h),
        (
            "7-smooth pad",
            factor::next_smooth(w),
            factor::next_smooth(h),
        ),
        ("pow2 pad", w.next_power_of_two(), h.next_power_of_two()),
    ] {
        let ms = time_fft2d(&planner, cw, ch, reps);
        let overhead = (cw * ch) as f64 / (w * h) as f64 - 1.0;
        p.row(
            format!("{label} {cw}x{ch}"),
            &[
                format!("{:?}x{:?}", factor::factorize(cw), factor::factorize(ch)),
                format!("{ms:.2}"),
                format!("{:+.1}%", overhead * 100.0),
            ],
        );
    }
    p.note("padding trades a few % more pixels for friendlier radix schedules");

    let mut r = ResultTable::new(
        "ablation_r2c",
        "real-to-complex vs complex transforms (§VI-A future work)",
        &["path", "exec ms/transform", "spectrum bytes"],
    );
    let ms = time_fft2d(&planner, w, h, reps);
    r.row(
        "complex-to-complex",
        &[format!("{ms:.2}"), (w * h * 16).to_string()],
    );
    let real = RealFft2d::new(&planner, w, h);
    let input: Vec<f32> = (0..w * h).map(|k| (k % 251) as f32).collect();
    let mut spec = vec![C32::ZERO; real.spectrum_len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        real.forward(&input, &mut spec);
    }
    let ms = t0.elapsed().as_secs_f64() / reps as f64 * 1e3;
    let bytes = PciamContext::spectrum_bytes(w, h);
    r.row("real-to-complex", &[format!("{ms:.2}"), bytes.to_string()]);
    r.note("r2c halves the spectrum memory footprint (the paper's stated second win)");
    r.note("the r2c row is the product's transform: single precision halves it again");

    let mut o = ResultTable::new(
        "ablation_traversal",
        "traversal orders: peak live transforms on a 42x59 grid (§IV-A)",
        &["order", "peak live tiles", "RAM at 23MB/transform"],
    );
    for tr in Traversal::ALL {
        let peak = tr.peak_live(paper_shape());
        let ram = format!("{:.1} GB", peak as f64 * 23.2e6 / 1e9);
        o.row(format!("{tr:?}"), &[peak.to_string(), ram]);
    }
    o.note("chained-diagonal frees memory earliest — the paper's default");
    vec![t, p, r, o]
}
