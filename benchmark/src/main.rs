//! stitchbench — the repository's end-to-end + per-layer benchmark:
//! tiles on disk → mosaic on disk, five workloads. See `README.md`.

mod compare;
mod flows;
mod json;
mod procfs;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use report::{END_TO_END, PER_LAYER};
use run::RunArgs;
use stats::Summary;
use stitch_testkit::alloc::CountingAllocator;
use workload::Workload;

// counts heap allocations for `core.phase1_allocs` (two relaxed atomic
// adds per allocation, the same in every build this benchmark compares)
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const DEFAULT_SEED: u64 = 2014;

const USAGE: &str = "\
stitchbench — end-to-end + per-layer benchmark of the stitching system

  stitchbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
      one run of one workload; the last stdout line is the result:
      end-to-end metrics with --trace 0, per-layer metrics with --trace 1
  stitchbench [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
      every workload (K end-to-end runs with seeds N..N+K-1 and one traced
      run each, every run a fresh process), one JSON report with every metric
  stitchbench --compare A.json B.json
      B against A per workload and end-to-end metric, by the bounds
  stitchbench --describe
      the content of BENCHMARK.json, from the benchmark's metric tables

workloads: paper_tile dense_grid shard_canvas channel_replay serve_mix
";

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.0 } else { report::RUN_SECONDS })
    }
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    /// `None`: the contract's run length, or no minimum with `--smoke`.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
    /// Internal: this process is the measuring child of an end-to-end run.
    measure: bool,
    dataset: Option<PathBuf>,
    outputs: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
        describe: false,
        measure: false,
        dataset: None,
        outputs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--runs" => {
                cli.runs = value()?.parse().map_err(|_| "bad --runs")?;
                if !(1..=100).contains(&cli.runs) {
                    return Err("--runs must be between 1 and 100".into());
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            "--describe" => cli.describe = true,
            "--measure" => cli.measure = true,
            "--dataset" => cli.dataset = Some(value()?.into()),
            "--outputs" => cli.outputs = Some(value()?.into()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("stitchbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("stitchbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(cli: Cli) -> Result<ExitCode, String> {
    if cli.describe {
        print!("{}", report::describe().to_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &cli.compare {
        let load = |p: &PathBuf| -> Result<Value, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        let (breaches, _) = compare::compare(&load(a)?, &load(b)?)?;
        return Ok(if breaches == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let Some(workload) = cli.workload else {
        return full_report(&cli);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    if cli.measure {
        let (dataset, outputs) = cli
            .dataset
            .zip(cli.outputs)
            .ok_or("--measure needs --dataset and --outputs")?;
        println!("{}", run::measure(&args, &dataset, &outputs)?);
        return Ok(ExitCode::SUCCESS);
    }
    // a single run reports failed checks in its result line (`correct`),
    // as the acceptance driver expects, and still exits 0
    println!("{}", run::run(&args)?);
    Ok(ExitCode::SUCCESS)
}

/// Runs `--workload w --trace t` in a fresh process of this binary and
/// returns its parsed result line.
fn child_run(cli: &Cli, w: Workload, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("starting a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {trace}) ended with {}",
            w.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} printed no result: {e}", w.name()))
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result lacks {name}"))
}

/// The one command: every workload, every metric, one report.
fn full_report(cli: &Cli) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        eprintln!("stitchbench: {} ...", w.name());
        let mut results = Vec::new();
        // like the acceptance driver: each run with another seed
        for i in 0..cli.runs {
            results.push(child_run(cli, w, cli.seed.wrapping_add(i as u64), false)?);
        }
        let traced = child_run(cli, w, cli.seed, true)?;
        let mut correct = true;
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in results.iter().chain([&traced]) {
            correct &= r.get("correct") == Some(&Value::Bool(true));
            attempted += r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        }
        all_correct &= correct;
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            let values = results
                .iter()
                .map(|r| metric_value(r, metric.name))
                .collect::<Result<Vec<f64>, _>>()?;
            let s = Summary::of(&values);
            end_to_end.push((
                metric.name.to_string(),
                Value::obj([
                    ("unit", Value::Str(metric.unit.into())),
                    ("bound", Value::Num(metric.bound)),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("min", Value::Num(s.min)),
                    ("max", Value::Num(s.max)),
                    ("n", Value::Num(s.n as f64)),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for metric in &PER_LAYER {
            per_layer.push((
                metric.name.to_string(),
                Value::obj([
                    ("value", Value::Num(metric_value(&traced, metric.name)?)),
                    ("unit", Value::Str(metric.unit.into())),
                ]),
            ));
        }
        workloads.push((
            w.name().to_string(),
            Value::obj([
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("failed_frac", Value::Num(failed / attempted.max(1.0))),
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    let report = Value::obj([
        ("benchmark", Value::Str("stitchbench".into())),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds())),
        ("smoke", Value::Bool(cli.smoke)),
        (
            "host",
            Value::obj([
                ("nproc", Value::Num(procfs::nproc() as f64)),
                ("cpu", Value::Str(procfs::cpu_model())),
                (
                    "backend",
                    Value::Str(stitch_fft::backend::active().name().into()),
                ),
                ("threads", Value::Num(workload::THREADS as f64)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    let text = report.to_pretty();
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| run::out_root().join("report.json"));
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    print!("{text}");
    eprintln!("stitchbench: report -> {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
