//! One benchmark run of one workload: set-up, measurement, verification
//! and the result line.
//!
//! An end-to-end run (`--trace 0`) sets up three scans of the specimen,
//! then measures the passes in a fresh child process of this binary, so
//! peak memory and allocator state belong to the passes alone, and
//! verifies what the child wrote. A traced run (`--trace 1`) stays in
//! one process: warm-up passes, one traced pass of the workload's own
//! flow, then every other flow, the kernel walk and the probes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stitch_core::{
    AbsolutePositions, Blend, ChannelSession, Composer, DirSource, MultiDirSource, MultiTileSource,
    PlaneSource, SyntheticSource, TileSource,
};
use stitch_image::SyntheticPlate;

use crate::flows::{self, GridPhases};
use crate::json::{self, Value};
use crate::procfs;
use crate::report::{result_line, Checks, Metrics};
use crate::serve;
use crate::spans;
use crate::stats::median;
use crate::workload::{
    self, batch_pass, channel_pass, channel_plan, fnv64, grid_pass, shard_config, shard_pass,
    unit_file, PassOutput, Spec, Workload,
};

/// Scans of the specimen generated per run, each from its own sub-seed.
/// `setup_s` is the median of their set-up times, and the timed passes
/// rotate over them: how long the CCF search runs depends on the stage
/// jitter and noise of the scan, and averaging three scans roughly halves
/// that seed-to-seed variation.
const SCANS: usize = 3;
/// A pass that has not finished after this long is hung, not slow.
const PASS_DEADLINE: Duration = Duration::from_secs(45);
/// The measuring process is killed if it runs longer than this.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);
/// How far solved positions may sit from the stage truth: a detector of
/// gross failure (a wrong stitch is off by tens of pixels), loose enough
/// for the toy tiles' legitimate few-pixel misses.
const MAX_POSITION_ERR_PX: i64 = 10;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch directory of one run, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new(args: &RunArgs) -> std::io::Result<RunDir> {
        let dir = out_root().join(format!(
            "{}-seed{}-pid{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("outputs"))?;
        Ok(RunDir(dir))
    }

    /// Parent directory of the scans.
    fn datasets(&self) -> PathBuf {
        self.0.join("datasets")
    }

    fn outputs(&self) -> PathBuf {
        self.0.join("outputs")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where scan `k` of a run is generated.
fn scan_dir(datasets: &Path, k: usize) -> PathBuf {
    datasets.join(format!("scan{k}"))
}

/// The seed scan `k` is generated from.
fn scan_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SCANS as u64).wrapping_add(k as u64)
}

/// Runs one workload and returns its result line.
pub fn run(args: &RunArgs) -> Result<String, String> {
    let spec = Spec::of(args.workload, args.smoke);
    let dir = RunDir::new(args).map_err(|e| format!("creating {}: {e}", out_root().display()))?;
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    if args.trace {
        let dataset = scan_dir(&dir.datasets(), 0);
        workload::generate(args.workload, &spec, scan_seed(args.seed, 0), &dataset)
            .map_err(|e| format!("generating the dataset: {e}"))?;
        traced_run(
            args,
            &spec,
            &dataset,
            &dir.outputs(),
            &mut metrics,
            &mut checks,
        )?;
        let trace_file = out_root().join(format!("{}.trace.json", args.workload.name()));
        std::fs::write(&trace_file, spans::to_json(&spans::snapshot()).to_line())
            .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    } else {
        metrics.set("setup_s", set_up(args, &spec, &dir)?);
        end_to_end_run(args, &spec, &dir, &mut metrics, &mut checks)?;
    }
    result_line(args.trace, &metrics, &checks)
}

/// Sets up the run's scans and returns the median seconds of one
/// set-up: generate + write the dataset. For `serve_mix` set-up is the
/// daemon's: write the job lines, start a daemon and run the warm-up
/// jobs through it.
fn set_up(args: &RunArgs, spec: &Spec, dir: &RunDir) -> Result<f64, String> {
    let mut seconds = Vec::new();
    for k in 0..SCANS {
        let dataset = scan_dir(&dir.datasets(), k);
        let t0 = Instant::now();
        workload::generate(args.workload, spec, scan_seed(args.seed, k), &dataset)
            .map_err(|e| format!("generating the dataset: {e}"))?;
        if args.workload == Workload::ServeMix {
            let lines = read_job_lines(&dataset)?;
            let warm = serve::run(&lines[..spec.discard], 0, serve_window(spec));
            if warm.failed_jobs > 0 {
                return Err(format!("{} warm-up jobs failed", warm.failed_jobs));
            }
        }
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&seconds))
}

fn read_job_lines(dataset: &Path) -> Result<Vec<String>, String> {
    let path = dataset.join("jobs.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The full-mosaic window a client asks for on `done`.
fn serve_window(spec: &Spec) -> (usize, usize) {
    (spec.cols * spec.tile_w, spec.rows * spec.tile_h)
}

/// One end-to-end pass of the workload, through the CLI's entry points.
/// `counted` routes a batch pass's tiles through the counting adapter
/// (traced runs only).
fn native_pass(
    w: Workload,
    spec: &Spec,
    dataset: &Path,
    outputs: &Path,
    counted: bool,
) -> Result<PassOutput, String> {
    match w {
        Workload::PaperTile | Workload::DenseGrid => batch_pass(dataset, outputs, counted),
        Workload::ShardCanvas => shard_pass(dataset, outputs, spec),
        Workload::ChannelReplay => channel_pass(dataset, outputs),
        Workload::ServeMix => {
            let lines = read_job_lines(dataset)?;
            let run = {
                let _pass = spans::scope("pass");
                serve::run(&lines, spec.discard, serve_window(spec))
            };
            Ok(PassOutput {
                serve: Some(run),
                ..PassOutput::default()
            })
        }
    }
}

/// A pass with its wall and CPU seconds.
struct TimedPass {
    out: PassOutput,
    wall_s: f64,
    cpu_s: f64,
}

/// Runs [`native_pass`] on a thread of its own and gives up on it after
/// [`PASS_DEADLINE`]: a pass that hangs inside the program under test
/// (see README, "Found while building") is abandoned — its parked
/// threads hold no CPU — named on stderr and run again, once.
fn guarded_pass(
    w: Workload,
    spec: &Spec,
    dataset: &Path,
    outputs: &Path,
    counted: bool,
) -> Result<TimedPass, String> {
    for _ in 0..2 {
        let (tx, rx) = mpsc::channel();
        let (spec, dataset, outputs) = (spec.clone(), dataset.to_owned(), outputs.to_owned());
        std::thread::spawn(move || {
            let (cpu0, t0) = (procfs::cpu_seconds(), Instant::now());
            let out = native_pass(w, &spec, &dataset, &outputs, counted);
            let (mut wall_s, mut cpu_s) =
                (t0.elapsed().as_secs_f64(), procfs::cpu_seconds() - cpu0);
            // the receiver is gone if this pass was given up on
            let _ = tx.send(out.map(|out| {
                if let Some(run) = &out.serve {
                    // the serve run times its own counted window
                    (wall_s, cpu_s) = (run.wall_s, run.cpu_s);
                }
                TimedPass { out, wall_s, cpu_s }
            }));
        });
        match rx.recv_timeout(PASS_DEADLINE) {
            Ok(pass) => return pass,
            Err(_) => eprintln!(
                "stitchbench: HUNG: a {} pass did not finish in {PASS_DEADLINE:?}; \
                 abandoned and run again",
                w.name()
            ),
        }
    }
    Err(format!("two {} passes in a row hung", w.name()))
}

// ------------------------------------------------------------ end to end

fn hex(d: u64) -> Value {
    Value::Str(format!("{d:016x}"))
}

fn positions_digest(p: &AbsolutePositions) -> u64 {
    fnv64(
        p.positions
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .flat_map(i64::to_le_bytes),
    )
}

/// The child process: warm-up passes, then timed passes rotating over
/// the scans for at least `seconds` (and at least `min_passes`; the
/// serve workload runs its fixed job count once), reported as one JSON
/// line.
pub fn measure(args: &RunArgs, datasets: &Path, outputs: &Path) -> Result<String, String> {
    let (w, spec) = (args.workload, Spec::of(args.workload, args.smoke));
    for _ in 0..spec.warmups {
        guarded_pass(w, &spec, &scan_dir(datasets, 0), outputs, false)?;
    }
    let mut checks = Checks::default();
    let mut passes = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while passes.len() < spec.min_passes
        || (started.elapsed().as_secs_f64() < args.seconds && w != Workload::ServeMix)
    {
        let scan = passes.len() % SCANS;
        let pass = guarded_pass(w, &spec, &scan_dir(datasets, scan), outputs, false)?;
        let out = &pass.out;
        if let Some(run) = &out.serve {
            flows::check_serve(run, spec.jobs, &mut checks);
        }
        checks.count(out.attempted, out.failed, "operations failed inside a pass");
        if let Some(result) = &out.result {
            let missing = result
                .shape
                .ids()
                .map(|id| {
                    usize::from(id.col > 0 && result.west_of(id).is_none())
                        + usize::from(id.row > 0 && result.north_of(id).is_none())
                })
                .sum();
            checks.count(result.shape.pairs(), missing, "pairs lack a displacement");
        }
        let positions = out.positions.as_ref();
        passes.push(Value::obj([
            ("scan", Value::Num(scan as f64)),
            ("wall_s", Value::Num(pass.wall_s)),
            ("cpu_s", Value::Num(pass.cpu_s)),
            (
                "digests",
                Value::Arr(out.digests.iter().map(|&d| hex(d)).collect()),
            ),
            (
                "positions",
                positions.map_or(Value::Null, |p| hex(positions_digest(p))),
            ),
        ]));
        last = Some(pass.out);
    }
    let last = last.expect("at least one pass ran");
    let positions = last.positions.as_ref().map_or(Value::Null, |p| {
        Value::Arr(
            p.positions
                .iter()
                .flat_map(|&(x, y)| [Value::Num(x as f64), Value::Num(y as f64)])
                .collect(),
        )
    });
    let files = last
        .files
        .iter()
        .filter_map(|f| f.file_name())
        .map(|f| Value::Str(f.to_string_lossy().into_owned()))
        .collect();
    Ok(Value::obj([
        ("peak_rss_mb", Value::Num(procfs::peak_rss_mb())),
        ("passes", Value::Arr(passes)),
        ("positions", positions),
        ("files", Value::Arr(files)),
        ("attempted", Value::Num(checks.attempted as f64)),
        ("failed", Value::Num(checks.failed as f64)),
    ])
    .to_line())
}

/// Starts the measuring child and returns its report, killing it if it
/// outlives [`CHILD_DEADLINE`]. Either way the child has ended when this
/// returns.
fn run_child(args: &RunArgs, dir: &RunDir) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--measure")
        .args(["--workload", args.workload.name()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--dataset")
        .arg(dir.datasets())
        .arg("--outputs")
        .arg(dir.outputs())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // read on a thread so a silent, hung child cannot block us
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut stdout, &mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_DEADLINE => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match other {
                    Err(e) => format!("waiting for the measuring process: {e}"),
                    _ => format!("the measuring process outlived {CHILD_DEADLINE:?}; killed"),
                });
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "reading the measuring process panicked".to_string())?
        .map_err(|e| format!("reading the measuring process: {e}"))?;
    if !status.success() {
        return Err(format!("the measuring process ended with {status}"));
    }
    json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("the measuring process printed no report: {e}"))
}

fn end_to_end_run(
    args: &RunArgs,
    spec: &Spec,
    dir: &RunDir,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let report = run_child(args, dir)?;
    let field = |key: &str| report.get(key).ok_or(format!("report lacks {key}"));
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let passes = field("passes")?.as_arr().unwrap_or(&[]);
    let of_scan = |k: usize| passes.iter().filter(move |p| number(p, "scan") == k as f64);

    // the mean over scans of each scan's median pass
    let over_scans = |key: &str| -> f64 {
        let medians: Vec<f64> = (0..SCANS)
            .map(|k| of_scan(k).map(|p| number(p, key)).collect::<Vec<f64>>())
            .filter(|v| !v.is_empty())
            .map(|v| median(&v))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    };
    m.set("wall_s", over_scans("wall_s"));
    m.set("cpu_s", over_scans("cpu_s"));
    m.set("peak_rss_mb", number(&report, "peak_rss_mb"));
    checks.count(
        number(&report, "attempted") as usize,
        number(&report, "failed") as usize,
        "checks failed in the measuring process (named above)",
    );

    // every timed pass over one scan produced the same positions and pixels
    let outputs_of = |p: &Value| (p.get("digests").cloned(), p.get("positions").cloned());
    let repeatable = (0..SCANS).all(|k| {
        let mut it = of_scan(k).map(outputs_of);
        it.next().is_none_or(|first| it.all(|other| other == first))
    });
    checks.check(repeatable, || {
        "positions or mosaic digests differ between timed passes over one scan".into()
    });
    if args.workload == Workload::ServeMix {
        return Ok(());
    }

    // the files of the last pass decode to the pixels that pass digested
    let last = passes.last().ok_or("no timed pass")?;
    let dataset = scan_dir(&dir.datasets(), number(last, "scan") as usize);
    let digests: Vec<u64> = last
        .get("digests")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| u64::from_str_radix(d.as_str()?, 16).ok())
        .collect();
    let files: Vec<PathBuf> = field("files")?
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .map(|f| dir.outputs().join(f))
        .collect();
    let expected_files = match args.workload {
        Workload::ShardCanvas => 2,
        Workload::ChannelReplay => spec.units(),
        _ => 1,
    };
    checks.check(
        files.len() == expected_files && digests.len() == files.len(),
        || format!("{} output files, expected {expected_files}", files.len()),
    );
    let Some(images) = flows::read_back(&files, &digests, checks) else {
        return Ok(());
    };

    // accuracy against the stage truth in the generated manifest
    let flat: Vec<f64> = field("positions")?
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let positions = AbsolutePositions {
        shape: spec.shape(),
        positions: flat.chunks(2).map(|c| (c[0] as i64, c[1] as i64)).collect(),
    };
    if positions.positions.len() != spec.shape().tiles() {
        checks.check(false, || {
            "the measuring process reported no positions".into()
        });
        return Ok(());
    }
    let multi = MultiDirSource::open(&dataset).map_err(|e| e.to_string())?;
    let (dx, dy) = positions.max_deviation(multi.truth());
    checks.check(dx.max(dy) <= MAX_POSITION_ERR_PX, || {
        format!("solved positions are ({dx}, {dy}) px off the stage truth")
    });

    match args.workload {
        Workload::ShardCanvas => {
            let source = DirSource::open(&dataset).map_err(|e| e.to_string())?;
            let reference = flows::reference_stitch(&source)?;
            checks.check(positions.positions == reference.positions.positions, || {
                "sharded positions differ from the unsharded solve".into()
            });
            checks.check(images[0] == reference.mosaic, || {
                "scale-0 mosaic differs from the unsharded compose".into()
            });
            let levels = stitch_core::pyramid(reference.mosaic, workload::OVERVIEW_SCALE);
            checks.check(levels.last() == Some(&images[1]), || {
                "overview differs from compose::pyramid of the unsharded mosaic".into()
            });
        }
        Workload::ChannelReplay => {
            // plane 0 of each channel equals a solo compose with the
            // shared positions
            let session =
                ChannelSession::new(Arc::new(multi), channel_plan()).map_err(|e| e.to_string())?;
            for unit in session.units().into_iter().filter(|u| u.plane == Some(0)) {
                let solo = Composer::new(positions.clone(), Blend::Overlay)
                    .compose(session.unit_source(unit).as_ref());
                let written = workload::read_image(&unit_file(&dir.outputs(), &unit.label()));
                checks.check(written.as_ref().ok() == Some(&solo), || {
                    format!("unit {} differs from a solo compose", unit.label())
                });
            }
        }
        _ => {}
    }
    Ok(())
}

// ---------------------------------------------------------------- traced

/// True top-left stage position of every tile, row-major.
type StagePositions = Vec<(i64, i64)>;

/// The single grid each workload's grid flow, probe and kernel walk use:
/// the dataset itself, the channel workload's registration plane, or the
/// plate of the serve workload's first job.
fn grid_source(
    w: Workload,
    dataset: &Path,
) -> Result<(Arc<dyn TileSource>, StagePositions), String> {
    match w {
        Workload::ChannelReplay => {
            let multi = MultiDirSource::open(dataset).map_err(|e| e.to_string())?;
            let truth = multi.truth().to_vec();
            let plane = channel_plan().effective_registration_plane(multi.z_planes());
            Ok((Arc::new(PlaneSource::new(Arc::new(multi), 0, plane)), truth))
        }
        Workload::ServeMix => {
            let line = read_job_lines(dataset)?.swap_remove(0);
            let job = stitch_sched::parse_job_line(line.trim_start_matches("submit "))?;
            let plate = SyntheticPlate::generate(job.scan);
            let truth = plate.positions().to_vec();
            Ok((Arc::new(SyntheticSource::new(plate)), truth))
        }
        _ => {
            let dir = DirSource::open(dataset).map_err(|e| e.to_string())?;
            let truth = stitch_image::GridManifest::load(dataset)
                .map_err(|e| e.to_string())?
                .truth;
            Ok((Arc::new(dir), truth))
        }
    }
}

/// Exact-repeat counts: a count observed in two passes of one run must
/// be identical; one that is not is named `unstable` and fails the run.
fn check_counts(a: &PassOutput, b: &[(&'static str, f64)], checks: &mut Checks) {
    for (name, value) in &a.counts {
        if let Some((_, other)) = b.iter().find(|(n, _)| n == name) {
            checks.check(value == other, || {
                format!("unstable: {name} read {value} then {other} in one run")
            });
        }
    }
}

fn traced_run(
    args: &RunArgs,
    spec: &Spec,
    dataset: &Path,
    outputs: &Path,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let w = args.workload;
    let (grid, truth) = grid_source(w, dataset)?;
    let is_batch = matches!(w, Workload::PaperTile | Workload::DenseGrid);

    // 1. warm-up passes of the workload's own flow, recorder off
    let mut warm_ms = Vec::new();
    let mut warm = None;
    for _ in 0..spec.warmups.max(1) {
        let pass = guarded_pass(w, spec, dataset, outputs, true)?;
        warm_ms.push(pass.wall_s * 1e3);
        warm = Some(pass.out);
    }
    let warm = warm.expect("at least one warm-up pass");

    // 2. the traced pass of the workload's own flow
    spans::set_enabled(true);
    let native = spans::begin_pass();
    let t0 = Instant::now();
    let mut traced = PassOutput::default();
    let mut shard_native = None;
    let mut channel_native = None;
    match w {
        Workload::PaperTile | Workload::DenseGrid => {
            traced = batch_pass(dataset, outputs, true)?;
        }
        Workload::ShardCanvas => {
            let _pass = spans::scope("pass");
            shard_native = Some(flows::shard_flow(
                Arc::clone(&grid),
                &shard_config(spec),
                Some((outputs, &mut traced)),
                m,
                checks,
            )?);
        }
        Workload::ChannelReplay => {
            let _pass = spans::scope("pass");
            let multi = MultiDirSource::open(dataset).map_err(|e| e.to_string())?;
            channel_native = Some(flows::channel_flow(
                Arc::new(multi),
                Some((outputs, &mut traced)),
                m,
            )?);
        }
        Workload::ServeMix => traced = native_pass(w, spec, dataset, outputs, true)?,
    }
    let mut native_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(run) = &traced.serve {
        native_ms = run.wall_s * 1e3;
        flows::serve_metrics(run, spec.jobs, m);
        flows::check_serve(run, spec.jobs, checks);
    }
    flows::read_back(&traced.files, &traced.digests, checks);
    checks.count(
        traced.attempted,
        traced.failed,
        "operations failed in the traced pass",
    );
    m.set(
        "bench.span_overhead_frac",
        native_ms / median(&warm_ms) - 1.0,
    );
    let recorded = spans::snapshot();
    let own = spans::self_times_ns(&recorded);
    let coverage = spans::coverage(&recorded, &own, native, "pass");
    m.set("bench.span_coverage_frac", coverage);
    if is_batch {
        checks.check(coverage >= 0.90, || {
            format!("layer spans cover only {coverage:.3} of the traced pass")
        });
    }

    // 3. the single-grid flow (the batch workloads' own; otherwise the
    //    unsharded / solo / one-job reference the other tiers compare to)
    let (grid_out, grid_pass_id) = if is_batch {
        check_counts(&warm, &traced.counts, checks);
        (traced, native)
    } else {
        if let Some(flow) = &shard_native {
            check_counts(
                &warm,
                &[("shard.seam_pairs", flow.seam_pairs as f64)],
                checks,
            );
        }
        let id = spans::begin_pass();
        (grid_pass(|| Ok(Arc::clone(&grid)), outputs, true)?, id)
    };
    let phases = GridPhases::of_pass(grid_pass_id);
    flows::grid_metrics(&grid_out, &phases, grid.as_ref(), &truth, m);
    let accuracy_ok =
        m.get("accuracy.position_max_err_px").unwrap_or(f64::MAX) <= MAX_POSITION_ERR_PX as f64;
    // the serve workload's 64x48 tiles overlap by six pixels: its jobs are
    // about latency, and nothing registers accurately at that size
    checks.check(accuracy_ok || w == Workload::ServeMix, || {
        "registration is further from the stage truth than a correct stitch gets".into()
    });
    let reference = flows::Reference {
        result: grid_out.result.expect("grid pass keeps its result"),
        positions: grid_out.positions.expect("grid pass keeps positions"),
        mosaic: grid_out.mosaic.expect("grid pass keeps its mosaic"),
        stitch_ms: phases.phase1_ms + phases.solve_ms + phases.compose_ms,
    };
    flows::grid_extras(grid.as_ref(), &reference, phases.phase1_ms, m, checks)?;

    // derived figures for the reader, from the traced pass of the
    // workload's own flow
    let units = if w == Workload::ServeMix {
        spec.jobs - spec.discard
    } else {
        1
    };
    let shape = spec.shape();
    m.set(
        "derived.ms_per_pair",
        native_ms / (units * shape.pairs()) as f64,
    );
    m.set(
        "derived.tiles_per_s",
        (units * shape.tiles() * spec.units()) as f64 / (native_ms / 1e3),
    );

    // 4. every other tier over the probe, then the kernel walk and probes
    let probe = flows::probe_of(&grid);
    // the sharded tier: the workload's own plate, or the probe in two
    // row-bands, against an unsharded stitch of the same tiles
    let probe_reference;
    let (flow, unsharded, what) = match shard_native {
        Some(flow) => (flow, &reference, "shard_canvas"),
        None => {
            probe_reference = flows::reference_stitch(probe.as_ref())?;
            let config = stitch_shard::ShardConfig {
                shard_rows: probe.shape().rows.div_ceil(2),
                shard_cols: probe.shape().cols,
                memory_budget: 1 << 30,
                ..shard_config(spec)
            };
            let flow = flows::shard_flow(Arc::clone(&probe), &config, None, m, checks)?;
            (flow, &probe_reference, "shard probe")
        }
    };
    checks.check(
        flows::same_displacements(&flow.result, &unsharded.result),
        || format!("{what}: sharded pair graph differs from the unsharded one"),
    );
    flows::check_shard_against(
        what,
        &flow.positions,
        &flow.mosaic,
        &flow.overview,
        unsharded,
        checks,
    );
    m.set(
        "shard.overhead_frac",
        flow.stitch_ms / unsharded.stitch_ms - 1.0,
    );
    let (session, replay_ms) = match channel_native {
        Some(flow) => flow,
        None => flows::channel_flow(Arc::new(flows::OneUnit(Arc::clone(&probe))), None, m)?,
    };
    flows::channel_extras(&session, replay_ms, m)?;
    if w != Workload::ServeMix {
        let burst = Spec::of(Workload::ServeMix, true);
        let lines: Vec<String> = (0..burst.jobs)
            .map(|i| workload::serve_job_line(&burst, args.seed, i))
            .collect();
        let run = serve::run(&lines, burst.discard, serve_window(&burst));
        flows::serve_metrics(&run, burst.jobs, m);
        flows::check_serve(&run, burst.jobs, checks);
    }
    flows::incremental_flow(probe.as_ref(), &reference.result, m, checks)?;
    flows::kernel_walk(probe.as_ref(), &reference.result, shape, m, checks)?;
    flows::variant_rows(probe.as_ref(), &reference.result, m, checks)?;
    flows::pipeline_probe(m);
    spans::set_enabled(false);
    Ok(())
}
