//! Command-line interface plumbing for the `stitch` binary.
//!
//! The sub-commands `generate`, `stitch`, `shard`, `serve`, `serve-batch`,
//! `info` and `simulate`, read through the workspace's one option reader
//! ([`stitch_image::opts`]). Parsing is pure so it is unit-testable;
//! execution lives in [`run`], and the daemon's line-protocol session loop
//! in the testable `serve_session`.

use std::fmt::Display;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use stitch_core::prelude::*;
use stitch_fft::BackendChoice;
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::opts::{Dims, Options};
use stitch_image::{
    pgm, tiff, GridManifest, Image, MultiChannelPlate, MultiScanConfig, ScanConfig, SyntheticPlate,
};
use stitch_sched::{DrainPolicy, JobVariant};
use stitch_serve::{BreakerConfig, RateLimit, ServeConfig, ServeDaemon, TenantPolicy};
use stitch_shard::{stitch_sharded, stitch_sharded_into_canvas, ShardConfig as ShardRunConfig};
use stitch_sim::MachineSpec;
use stitch_trace::TraceHandle;

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Write a synthetic dataset to a directory.
    Generate {
        /// Output directory.
        out: PathBuf,
        /// Scan geometry.
        config: ScanConfig,
        /// Fluorescence channels (> 1 writes a multi-channel manifest).
        channels: usize,
        /// Focal planes per tile position (> 1 writes a z-stack).
        z_planes: usize,
    },
    /// Stitch a dataset directory end-to-end.
    Stitch {
        /// Dataset directory (with `manifest.tsv`).
        dataset: PathBuf,
        /// Implementation (`--impl`, one of [`JobVariant::token`]'s tokens).
        implementation: JobVariant,
        /// Worker threads (CPU variants) or CCF threads (GPU variants).
        threads: usize,
        /// Simulated GPU count (GPU variants).
        gpus: usize,
        /// Blend mode for composition.
        blend: Blend,
        /// Mosaic output path (`.pgm` or `.tif`); `None` skips composing.
        out: Option<PathBuf>,
        /// Where to write absolute positions as TSV.
        positions_out: Option<PathBuf>,
        /// Draw tile borders (Fig 14 style).
        highlight: bool,
        /// Max retries per failed tile read.
        retries: u32,
        /// Initial retry backoff in milliseconds (doubles per retry).
        retry_backoff_ms: u64,
        /// Fault-injection spec (`key=value,...`); `None` injects nothing.
        fault_spec: Option<String>,
        /// Degrade to a partial mosaic instead of aborting on tile loss.
        allow_partial: bool,
        /// Where to write the machine-readable health report as JSON.
        health_out: Option<PathBuf>,
        /// Where to write the merged CPU+GPU timeline as Chrome
        /// trace-event JSON (open in `chrome://tracing` / Perfetto).
        trace_out: Option<PathBuf>,
        /// Where to write the run report (per-stage busy/wait, queue
        /// stats, kernel density, copy/compute overlap) as JSON.
        report_out: Option<PathBuf>,
        /// Compute backend for the phase-1 hot loops. `None` defers to
        /// the `STITCH_BACKEND` environment variable, then auto-detect.
        backend: Option<BackendChoice>,
        /// Channel whose images drive registration (multi-channel datasets).
        ref_channel: usize,
        /// Estimate per-channel flat fields and correct every image before
        /// registration and composition.
        correct_illumination: bool,
        /// Compose one max-z projection per channel instead of one mosaic
        /// per (channel, plane).
        maxz: bool,
    },
    /// Stitch shard-by-shard under a fixed memory budget (out-of-core).
    Shard {
        /// Dataset directory; `None` stitches a synthetic plate instead.
        dataset: Option<PathBuf>,
        /// Synthetic scan geometry (used when `dataset` is `None`).
        config: ScanConfig,
        /// Max tile rows per shard.
        shard_rows: usize,
        /// Max tile columns per shard.
        shard_cols: usize,
        /// Memory budget in MB shared by all in-flight shards.
        budget_mb: usize,
        /// Concurrent shard jobs.
        workers: usize,
        /// Per-shard stitcher (CPU variants only).
        implementation: JobVariant,
        /// Compute threads per shard job.
        threads: usize,
        /// Blend mode for composition.
        blend: Blend,
        /// Mosaic output path (`.pgm` or `.tif`); `None` skips composing.
        out: Option<PathBuf>,
        /// Where to write absolute positions as TSV.
        positions_out: Option<PathBuf>,
        /// Pixel rows per composition band.
        band_rows: usize,
        /// Where to write a downsampled overview image (`.pgm` or
        /// `.tif`). Routes the banded composition through the chunked
        /// pyramid canvas, so the overview comes from `--preview-scale`
        /// without ever materializing the full mosaic.
        preview_out: Option<PathBuf>,
        /// Pyramid scale for `--preview` (0 = full resolution).
        preview_scale: usize,
        /// Where to write the merged per-shard timeline as Chrome
        /// trace-event JSON.
        trace_out: Option<PathBuf>,
    },
    /// Run the long-lived job daemon on stdin/stdout (and optionally a
    /// Unix socket), speaking the line protocol of [`stitch_serve`].
    Serve {
        /// Worker slots (concurrently running jobs).
        workers: usize,
        /// Host-memory admission budget in MB.
        budget_mb: usize,
        /// Bound on the pending queue; submissions past it shed.
        max_pending: usize,
        /// Default watchdog deadline for jobs that don't set one.
        watchdog_ms: Option<u64>,
        /// Per-tenant cap on jobs in flight (queued + running).
        tenant_jobs: usize,
        /// Per-tenant token-bucket burst; `None` disables rate limiting.
        rate_burst: Option<u32>,
        /// Token-bucket refill rate (tokens/second).
        rate_per_sec: f64,
        /// Per-tenant memory cap in MB (arbiter scope cap).
        tenant_cap_mb: Option<usize>,
        /// Queue-full overloads within the window that open the breaker
        /// (0 disables it).
        breaker_threshold: usize,
        /// What happens to in-flight jobs when stdin reaches EOF.
        drain: DrainPolicy,
        /// Also listen on this Unix socket (one session per client).
        socket: Option<PathBuf>,
        /// Where to write the merged multi-job Chrome trace on exit.
        trace_out: Option<PathBuf>,
        /// Directory for per-job run reports (`<tenant>__<job>.report.json`).
        reports_dir: Option<PathBuf>,
    },
    /// Run a batch of stitching jobs on the shared scheduler.
    ServeBatch {
        /// Job file (one `key=value ...` job per line; see
        /// [`stitch_sched::parse_job_line`]).
        jobs: PathBuf,
        /// Concurrent job slots.
        workers: usize,
        /// Host-memory admission budget in MB.
        budget_mb: usize,
        /// Stream-lease bound on the shared device (GPU jobs).
        stream_slots: Option<usize>,
        /// Where to write the merged multi-job Chrome trace.
        trace_out: Option<PathBuf>,
        /// Directory for per-job run reports (`report-<name>.json`).
        reports_dir: Option<PathBuf>,
    },
    /// Print dataset information.
    Info {
        /// Dataset directory.
        dataset: PathBuf,
    },
    /// Print the virtual-time Table II for a machine spec.
    Simulate {
        /// The `testbed` or `laptop` preset.
        machine: MachineSpec,
        /// Grid rows.
        rows: usize,
        /// Grid cols.
        cols: usize,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
stitch — hybrid CPU-GPU microscopy image stitching (ICPP 2014 reproduction)

USAGE:
  stitch generate --out DIR [--rows N] [--cols N] [--tile-width N]
                  [--tile-height N] [--overlap F] [--seed N]
                  [--jitter PX] [--noise SIGMA] [--channels N] [--z-planes N]
  stitch stitch --dataset DIR [--impl NAME] [--threads N] [--gpus N]
                [--blend overlay|first|average|linear]
                [--out mosaic.pgm|.tif] [--positions out.tsv] [--highlight]
                [--retries N] [--retry-backoff-ms N] [--allow-partial]
                [--fault-spec SPEC] [--health-json out.json]
                [--trace-json trace.json] [--run-report report.json]
                [--backend auto|scalar|portable|simd]
                [--ref-channel N] [--correct-illumination] [--maxz]
  stitch shard [--dataset DIR | --rows N --cols N [--tile-width N]
               [--tile-height N] [--overlap F] [--seed N]]
               [--shard-rows N] [--shard-cols N] [--mem-budget-mb N]
               [--workers N] [--impl NAME] [--threads N]
               [--blend overlay|first|average|linear] [--band-rows N]
               [--out mosaic.pgm|.tif] [--positions out.tsv]
               [--preview overview.pgm|.tif] [--preview-scale N]
               [--trace-json trace.json]
  stitch serve [--workers N] [--budget-mb N] [--max-pending N]
               [--watchdog-ms N] [--tenant-jobs N] [--rate-burst N]
               [--rate-per-sec F] [--tenant-cap-mb N]
               [--breaker-threshold N] [--drain finish|cancel-pending|cancel-all]
               [--socket PATH] [--trace-json trace.json] [--reports-dir DIR]
  stitch serve-batch --jobs FILE [--workers N] [--budget-mb N]
                     [--stream-slots N] [--trace-json trace.json]
                     [--reports-dir DIR]
  stitch info --dataset DIR
  stitch simulate [--machine testbed|laptop] [--rows N] [--cols N]
  stitch help

OPTION GRAMMAR (README § Option grammar lists every key, default and
range rule; malformed lines are reported per line, the rest still run):
  job line (serve-batch --jobs FILE, one per line, `#` comments):
    name=a variant=pipelined-cpu grid=6x8 tile=64x48 overlap=0.1 seed=5
           threads=2 priority=2 deadline-ms=5000 compose=false
  serve request (one per line on stdin or the socket; responses and job
  lifecycle stream back as `event=... key=value` lines; EOF on stdin
  drains the daemon with the --drain policy and exits):
    submit <job line> tenant=acme [preview=true] | cancel name=a |
    region name=a [scale=N x=N y=N w=N h=N] | stats | ping |
    drain [policy=finish|cancel-pending|cancel-all]
  fault spec (--fault-spec, comma-separated, rates in [0, 1]):
    seed=N transient=RATE corrupt=R.C+R.C latency-ms=N     (tile reads)
    gpu-seed=N gpu-h2d=RATE gpu-d2h=RATE gpu-kernel=RATE
    gpu-oom=RATE gpu-retries=N                             (device ops)

IMPLEMENTATIONS: simple-cpu, mt-cpu, pipelined-cpu (default), simple-gpu,
                 pipelined-gpu, fiji

BACKENDS (phase-1 compute kernels; all bit-identical on displacements):
  auto     pick the fastest the host supports (default)
  scalar   sequential reference loops
  portable lane-unrolled loops the compiler auto-vectorizes
  simd     explicit AVX2 intrinsics (x86_64; falls back to portable)
  The STITCH_BACKEND environment variable applies when --backend is
  absent; --backend wins when both are given.

MULTI-CHANNEL / Z-STACK (generate --channels/--z-planes writes an
extended manifest; stitch detects it and registers ONCE on the
reference channel, replaying the solved frame across every channel and
plane — outputs are suffixed `_cCC_zZZ` / `_cCC_maxz`):
  --ref-channel N          channel whose images drive registration
  --correct-illumination   estimate per-channel flat fields from the
                           tile stack and correct before registering
  --maxz                   compose one max-z projection per channel
  (--fault-spec, --retries, --retry-backoff-ms, --allow-partial and
  --highlight are refused on these datasets, not ignored)
";

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["highlight", "allow-partial", "correct-illumination", "maxz"];

/// `generate` / `shard` defaults for the synthetic plate.
const SYNTHETIC_PLATE: ScanConfig = ScanConfig {
    grid_rows: 8,
    grid_cols: 12,
    tile_width: 128,
    tile_height: 96,
    overlap: 0.25,
    stage_jitter: 3.0,
    backlash_x: 1.5,
    noise_sigma: 50.0,
    vignette: 0.03,
    seed: 2014,
};

/// How `generate` and `shard` spell the plate geometry.
const GRID: Dims = Dims::Each("rows", "cols");
const TILE: Dims = Dims::Each("tile-width", "tile-height");

/// Parses the command line (without the program name). Every flag goes
/// through the one option reader: a flag the sub-command does not read is
/// a typo, not a no-op, and counts and plate geometry are range-checked
/// here rather than discovered by a worker.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, flags)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut o = Options::from_args(cmd, flags, &SWITCHES)?;
    let required = |o: &mut Options, flag: &str, what: &str| {
        o.take::<PathBuf>(flag)?
            .ok_or_else(|| format!("{cmd} requires --{flag} {what}"))
    };
    let command = match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "generate" => {
            let optics = ScanConfig {
                stage_jitter: o.take("jitter")?.unwrap_or(SYNTHETIC_PLATE.stage_jitter),
                noise_sigma: o.take("noise")?.unwrap_or(SYNTHETIC_PLATE.noise_sigma),
                ..SYNTHETIC_PLATE
            };
            Command::Generate {
                out: required(&mut o, "out", "DIR")?,
                config: o.take_scan(optics, GRID, TILE)?,
                channels: o.take("channels")?.unwrap_or(1),
                z_planes: o.take("z-planes")?.unwrap_or(1),
            }
        }
        "stitch" => Command::Stitch {
            dataset: required(&mut o, "dataset", "DIR")?,
            implementation: o.take("impl")?.unwrap_or(JobVariant::PipelinedCpu),
            threads: o.take_count("threads")?.unwrap_or(4),
            gpus: o.take("gpus")?.unwrap_or(1),
            blend: o.take("blend")?.unwrap_or_default(),
            out: o.take("out")?,
            positions_out: o.take("positions")?,
            highlight: o.take("highlight")?.unwrap_or(false),
            retries: o.take("retries")?.unwrap_or(3),
            retry_backoff_ms: o.take("retry-backoff-ms")?.unwrap_or(1),
            fault_spec: o.take("fault-spec")?,
            allow_partial: o.take("allow-partial")?.unwrap_or(false),
            health_out: o.take("health-json")?,
            trace_out: o.take("trace-json")?,
            report_out: o.take("run-report")?,
            backend: o.take("backend")?,
            ref_channel: o.take("ref-channel")?.unwrap_or(0),
            correct_illumination: o.take("correct-illumination")?.unwrap_or(false),
            maxz: o.take("maxz")?.unwrap_or(false),
        },
        "shard" => Command::Shard {
            dataset: o.take("dataset")?,
            config: o.take_scan(SYNTHETIC_PLATE, GRID, TILE)?,
            shard_rows: o.take_count("shard-rows")?.unwrap_or(4),
            shard_cols: o.take_count("shard-cols")?.unwrap_or(4),
            budget_mb: o.take("mem-budget-mb")?.unwrap_or(256),
            workers: o.take_count("workers")?.unwrap_or(2),
            implementation: o.take("impl")?.unwrap_or(JobVariant::SimpleCpu),
            threads: o.take_count("threads")?.unwrap_or(2),
            blend: o.take("blend")?.unwrap_or_default(),
            out: o.take("out")?,
            positions_out: o.take("positions")?,
            band_rows: o.take("band-rows")?.unwrap_or(64),
            preview_out: o.take("preview")?,
            preview_scale: o.take("preview-scale")?.unwrap_or(2),
            trace_out: o.take("trace-json")?,
        },
        "serve" => Command::Serve {
            workers: o.take_count("workers")?.unwrap_or(2),
            budget_mb: o.take("budget-mb")?.unwrap_or(256),
            max_pending: o.take("max-pending")?.unwrap_or(64),
            watchdog_ms: o.take("watchdog-ms")?,
            tenant_jobs: o.take("tenant-jobs")?.unwrap_or(8),
            rate_burst: o.take("rate-burst")?,
            rate_per_sec: o.take("rate-per-sec")?.unwrap_or(100.0),
            tenant_cap_mb: o.take("tenant-cap-mb")?,
            breaker_threshold: o.take("breaker-threshold")?.unwrap_or(8),
            drain: o.take("drain")?.unwrap_or(DrainPolicy::Finish),
            socket: o.take("socket")?,
            trace_out: o.take("trace-json")?,
            reports_dir: o.take("reports-dir")?,
        },
        "serve-batch" => Command::ServeBatch {
            jobs: required(&mut o, "jobs", "FILE")?,
            workers: o.take_count("workers")?.unwrap_or(2),
            budget_mb: o.take("budget-mb")?.unwrap_or(256),
            stream_slots: o.take("stream-slots")?,
            trace_out: o.take("trace-json")?,
            reports_dir: o.take("reports-dir")?,
        },
        "info" => Command::Info {
            dataset: required(&mut o, "dataset", "DIR")?,
        },
        "simulate" => Command::Simulate {
            machine: o
                .take("machine")?
                .unwrap_or_else(MachineSpec::paper_testbed),
            rows: o.take_count("rows")?.unwrap_or(42),
            cols: o.take_count("cols")?.unwrap_or(59),
        },
        other => return Err(format!("unknown command {other:?}; try `stitch help`")),
    };
    o.finish()?;
    Ok(command)
}

/// Drives one daemon session: requests are read line-by-line from
/// `input` and handed to the daemon; every broadcast event (this
/// session's responses *and* all job lifecycle events) streams to
/// `out` as `event=... key=value` lines. On EOF, `drain_on_eof`
/// (set for the primary stdin session, `None` for socket clients)
/// gracefully drains the daemon, and then the session unsubscribes.
/// The output side blocks on the event stream and ends once it has
/// written everything broadcast before that (the drain's `drained`
/// included), on a failed write, or when the daemon drops; the call
/// returns then.
///
/// Pure in its endpoints, so tests drive it with in-memory buffers.
fn serve_session<R, W>(
    daemon: &ServeDaemon,
    input: R,
    out: W,
    drain_on_eof: Option<DrainPolicy>,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let (id, rx) = daemon.subscription();
    std::thread::scope(|s| {
        let pump = s.spawn(move || -> std::io::Result<()> {
            let mut out = out;
            for e in rx {
                writeln!(out, "{}", e.to_line())?;
                out.flush()?;
            }
            Ok(())
        });
        for line in input.lines() {
            let Ok(line) = line else { break };
            daemon.handle_line(&line);
        }
        if let Some(policy) = drain_on_eof {
            daemon.drain(policy);
        }
        daemon.unsubscribe(id);
        pump.join().unwrap_or(Ok(()))
    })
}

/// A failed command: the exit code and the message printed after `error: `.
type Failure = (i32, String);

/// Exit code 1 (usage, dataset and output errors) with `context: cause`.
fn because<E: Display>(context: &str) -> impl FnOnce(E) -> Failure + '_ {
    move |e| (1, format!("{context}: {e}"))
}

/// The shared recorder, enabled iff some output will read it — tracing
/// stays free unless an observability flag asked for it.
fn trace_if(wanted: bool) -> TraceHandle {
    if wanted {
        TraceHandle::new()
    } else {
        TraceHandle::disabled()
    }
}

fn write_file(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), Failure> {
    std::fs::write(path, bytes).map_err(|e| (1, format!("cannot write {}: {e}", path.display())))
}

/// Writes one output file and reports it on stdout as `what -> path`.
fn emit(what: &str, path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), Failure> {
    emit_with(what, path, |path| std::fs::write(path, bytes))
}

/// [`emit`] through `write`, which creates the file at the path it is given.
fn emit_with<E: std::fmt::Display>(
    what: &str,
    path: &Path,
    write: impl FnOnce(&Path) -> Result<(), E>,
) -> Result<(), Failure> {
    write(path).map_err(|e| (1, format!("cannot write {}: {e}", path.display())))?;
    println!("{what} -> {}", path.display());
    Ok(())
}

/// Streams `image` to disk as TIFF when `path` ends in `.tif`/`.tiff`, as
/// PGM otherwise, timed as a `write` layer span.
fn emit_image(
    what: &str,
    path: &Path,
    image: &Image<u16>,
    trace: &TraceHandle,
) -> Result<(), Failure> {
    let _span = trace.layer("write", "write");
    let what = format!("{what}, {}x{}", image.width(), image.height());
    emit_with(&what, path, |path| {
        match path.extension().and_then(|e| e.to_str()) {
            Some("tif") | Some("tiff") => tiff::write_tiff(path, image),
            _ => pgm::write_pgm(path, image),
        }
    })
}

/// Absolute tile positions as a `row col x y` TSV.
fn positions_tsv(positions: &AbsolutePositions) -> String {
    let mut tsv = String::from("row\tcol\tx\ty\n");
    for id in positions.shape.ids() {
        let (x, y) = positions.get(id);
        tsv.push_str(&format!("{}\t{}\t{x}\t{y}\n", id.row, id.col));
    }
    tsv
}

/// Splices a compose-unit label into an output path before the
/// extension: `m.pgm` + `c01_z02` → `m_c01_z02.pgm`.
fn unit_output_path(base: &Path, label: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("mosaic");
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}_{label}.{ext}"),
        None => format!("{stem}_{label}"),
    };
    base.with_file_name(name)
}

/// Executes a parsed command. Returns a process exit code: 0 ok, 1 usage,
/// dataset or output errors, 2 a stitch aborted on tile loss (or a batch
/// with failed jobs).
pub fn run(cmd: Command) -> i32 {
    execute(cmd).unwrap_or_else(|(code, message)| {
        eprintln!("error: {message}");
        code
    })
}

fn execute(cmd: Command) -> Result<i32, Failure> {
    match cmd {
        Command::Help => print!("{USAGE}"),
        Command::Generate {
            out,
            config,
            channels,
            z_planes,
        } => {
            let grid = format!(
                "{}x{} grid of {}x{}",
                config.grid_rows, config.grid_cols, config.tile_width, config.tile_height
            );
            if channels > 1 || z_planes > 1 {
                let cfg = MultiScanConfig::for_channels(config, channels, z_planes);
                let n = MultiChannelPlate::generate(cfg)
                    .write_to_dir(&out)
                    .map_err(because("cannot write dataset"))?;
                println!(
                    "wrote {n} images ({grid}, {} channel(s) x {} plane(s)) to {}",
                    channels.max(1),
                    z_planes.max(1),
                    out.display()
                );
            } else {
                let n = SyntheticPlate::generate(config)
                    .write_to_dir(&out)
                    .map_err(because("cannot write dataset"))?;
                println!("wrote {n} tiles ({grid}) to {}", out.display());
            }
        }
        Command::Info { dataset } => {
            let m = GridManifest::load(&dataset).map_err(because("cannot open dataset"))?;
            println!(
                "dataset {}: {}x{} grid, {}x{} px tiles, {:.0}% nominal overlap, {} files",
                dataset.display(),
                m.rows,
                m.cols,
                m.tile_width,
                m.tile_height,
                m.overlap * 100.0,
                m.tiles()
            );
            println!(
                "tile bytes {} ({:.1} MB dataset)",
                m.tile_width * m.tile_height * 2,
                (m.tiles() * m.tile_width * m.tile_height * 2) as f64 / 1e6
            );
        }
        Command::Simulate {
            machine: m,
            rows,
            cols,
        } => {
            use stitch_sim::*;
            let shape = GridShape::new(rows, cols);
            let cost = CostModel::paper_c2070();
            println!(
                "virtual machine ({} cores / {} threads, {} GPU(s)), \
                 {rows}x{cols} grid of 1392x1040 tiles:",
                m.physical_cores, m.logical_cores, m.gpus
            );
            let table = table2_rows(shape, &cost, &m);
            let simple = table[1].1;
            // the ImageJ/Fiji baseline is Table II's, not a machine preset's
            for (name, ns, _) in table.into_iter().skip(1) {
                // the terminal's shorter spelling of the two multi-GPU rows
                let name = match name {
                    "Pipelined-GPU (1 GPU)" => "Pipelined-GPU x1",
                    "Pipelined-GPU (2 GPUs)" => "Pipelined-GPU x2",
                    other => other,
                };
                println!(
                    "  {name:<22} {:>10.1}s  ({:.1}x vs Simple-CPU)",
                    secs(ns),
                    simple as f64 / ns as f64
                );
            }
        }
        Command::Serve {
            workers,
            budget_mb,
            max_pending,
            watchdog_ms,
            tenant_jobs,
            rate_burst,
            rate_per_sec,
            tenant_cap_mb,
            breaker_threshold,
            drain,
            socket,
            trace_out,
            reports_dir,
        } => {
            let trace = trace_if(trace_out.is_some() || reports_dir.is_some());
            let daemon = Arc::new(ServeDaemon::new(ServeConfig {
                workers,
                memory_budget: budget_mb << 20,
                max_pending,
                device: None,
                trace: trace.clone(),
                default_watchdog: watchdog_ms.map(Duration::from_millis),
                tenant_policy: TenantPolicy {
                    max_in_flight: tenant_jobs,
                    rate: rate_burst.map(|burst| RateLimit {
                        burst,
                        per_sec: rate_per_sec,
                    }),
                    mem_cap: tenant_cap_mb.map(|mb| mb << 20),
                },
                breaker: BreakerConfig {
                    threshold: breaker_threshold,
                    ..BreakerConfig::default()
                },
                reports_dir,
            }));
            if let Some(path) = &socket {
                let _ = std::fs::remove_file(path);
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| (1, format!("cannot bind {}: {e}", path.display())))?;
                eprintln!("serve: listening on {}", path.display());
                let d = Arc::clone(&daemon);
                std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        let Ok(stream) = stream else { continue };
                        let d = Arc::clone(&d);
                        std::thread::spawn(move || {
                            let Ok(reader) = stream.try_clone() else {
                                return;
                            };
                            // socket clients never drain the daemon;
                            // only stdin EOF shuts it down
                            let _ = serve_session(&d, BufReader::new(reader), stream, None);
                        });
                    }
                });
            }
            eprintln!(
                "serve: {workers} worker(s), {budget_mb} MB budget, {max_pending} pending max; \
                 EOF drains ({drain:?})"
            );
            let stdin = BufReader::new(std::io::stdin());
            let session = serve_session(&daemon, stdin, std::io::stdout(), Some(drain));
            if let Some(path) = &socket {
                let _ = std::fs::remove_file(path);
            }
            session.map_err(because("serve session"))?;
            // stdout carries the event stream, so this one goes to stderr
            if let Some(path) = trace_out {
                write_file(&path, trace.to_chrome_json())?;
                eprintln!("merged trace -> {}", path.display());
            }
        }
        Command::ServeBatch {
            jobs,
            workers,
            budget_mb,
            stream_slots,
            trace_out,
            reports_dir,
        } => {
            let text = std::fs::read_to_string(&jobs)
                .map_err(|e| (1, format!("cannot read job file {}: {e}", jobs.display())))?;
            let trace = trace_if(trace_out.is_some() || reports_dir.is_some());
            println!("serve-batch: {workers} worker(s), {budget_mb} MB budget");
            // lenient parse (shared with the serve daemon's wire parser):
            // a malformed line becomes a per-line error in the report and
            // the rest of the batch still runs
            let report = stitch_sched::run_batch_text(
                &text,
                &stitch_sched::BatchOptions {
                    workers,
                    memory_budget: budget_mb << 20,
                    stream_slots,
                    device: None,
                    trace: trace.clone(),
                },
            )
            .map_err(|e| (1, format!("{}: {e}", jobs.display())))?;
            for err in &report.parse_errors {
                println!("  {}: {err}", jobs.display());
            }
            for (name, why) in &report.rejected {
                println!("  {name:<16} rejected: {why}");
            }
            let mut all_ok = report.rejected.is_empty() && report.parse_errors.is_empty();
            for out in &report.outcomes {
                let status = match &out.status {
                    stitch_sched::JobStatus::Completed => "completed".to_string(),
                    other => {
                        all_ok = false;
                        format!("{other:?}")
                    }
                };
                println!("  {:<16} {status:<12} {:>8.2?}", out.name, out.elapsed);
            }
            println!(
                "batch done in {:.2?}; memory high water {:.1} MB of {budget_mb} MB",
                report.elapsed,
                report.high_water as f64 / (1 << 20) as f64
            );
            if let Some(dir) = reports_dir {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| (1, format!("cannot create {}: {e}", dir.display())))?;
                for out in &report.outcomes {
                    if let Some(r) = &out.report {
                        let path = dir.join(format!("report-{}.json", out.name));
                        write_file(&path, r.to_json())?;
                    }
                }
                println!("per-job run reports -> {}", dir.display());
            }
            if let Some(path) = trace_out {
                emit("merged trace", &path, trace.to_chrome_json())?;
            }
            if !all_ok {
                return Ok(2);
            }
        }
        Command::Shard {
            dataset,
            config,
            shard_rows,
            shard_cols,
            budget_mb,
            workers,
            implementation,
            threads,
            blend,
            out,
            positions_out,
            band_rows,
            preview_out,
            preview_scale,
            trace_out,
        } => {
            if implementation.needs_device() {
                return Err((
                    1,
                    "shard runs CPU variants only (the shard scheduler shares no GPU)".into(),
                ));
            }
            let source: Arc<dyn TileSource> = match &dataset {
                Some(dir) => {
                    Arc::new(DirSource::open(dir).map_err(because("cannot open dataset"))?)
                }
                None => Arc::new(SyntheticSource::new(SyntheticPlate::generate(config))),
            };
            let trace = trace_if(trace_out.is_some());
            let shard_config = ShardRunConfig {
                shard_rows,
                shard_cols,
                workers,
                memory_budget: budget_mb << 20,
                variant: implementation,
                threads,
                compose: (out.is_some() || preview_out.is_some()).then_some(blend),
                band_rows,
                trace: trace.clone(),
                ..ShardRunConfig::default()
            };
            let shape = source.shape();
            let (tile_w, tile_h) = source.tile_dims();
            println!(
                "sharded stitch: {}x{} grid in {}x{}-tile shards, {} worker(s), {budget_mb} MB budget",
                shape.rows, shape.cols, shard_rows, shard_cols, workers
            );
            // --preview routes the banded composition through the
            // chunked pyramid canvas (still out-of-core: bands are baked
            // and dropped, only live chunks stay resident).
            let canvas = preview_out
                .as_ref()
                .map(|_| stitch_canvas::SharedCanvas::new(stitch_canvas::CanvasConfig::default()));
            let outcome = match &canvas {
                Some(canvas) => stitch_sharded_into_canvas(source, &shard_config, canvas),
                None => stitch_sharded(source, &shard_config),
            }
            .map_err(|e| (2, e.to_string()))?;
            println!(
                "{} shard(s), {} seam pair(s) in {:.2?}; peak arbiter memory {:.1} MB of {budget_mb} MB",
                outcome.shard_count,
                outcome.seam_pairs,
                outcome.elapsed,
                outcome.high_water as f64 / (1 << 20) as f64,
            );
            println!(
                "hierarchical frame agrees with committed solve to ({}, {}) px",
                outcome.hierarchical_deviation.0, outcome.hierarchical_deviation.1
            );
            if let Some(path) = positions_out {
                emit("positions", &path, positions_tsv(&outcome.positions))?;
            }
            let (mw, mh) = outcome.positions.mosaic_dims(tile_w, tile_h);
            // In canvas mode the driver never collects the mosaic; a
            // requested --out is materialized from the canvas's scale-0
            // plane instead (bit-identical to the collected path).
            let canvas_mosaic = canvas.as_ref().map(|c| c.get_region(0, 0, 0, mw, mh));
            if let (Some(path), Some(mosaic)) =
                (&out, canvas_mosaic.as_ref().or(outcome.mosaic.as_ref()))
            {
                let what = format!("mosaic (banded, {band_rows} rows/band)");
                emit_image(&what, path, mosaic, &trace)?;
            }
            if let (Some(path), Some(canvas)) = (&preview_out, &canvas) {
                let scale = preview_scale.min(canvas.max_scale());
                let (pw, ph) = ((mw >> scale).max(1), (mh >> scale).max(1));
                let overview = canvas.get_region(scale, 0, 0, pw, ph);
                let chunks = canvas.stats().live_chunks;
                let what = format!("scale-{scale} overview ({chunks} live canvas chunks)");
                emit_image(&what, path, &overview, &trace)?;
            }
            if let Some(path) = trace_out {
                emit("trace", &path, trace.to_chrome_json())?;
            }
        }
        Command::Stitch {
            dataset,
            implementation,
            threads,
            gpus,
            blend,
            out,
            positions_out,
            highlight,
            retries,
            retry_backoff_ms,
            fault_spec,
            allow_partial,
            health_out,
            trace_out,
            report_out,
            backend,
            ref_channel,
            correct_illumination,
            maxz,
        } => {
            // Pin the compute backend before any pipeline work; when the
            // flag is absent, the first kernel dispatch resolves it from
            // STITCH_BACKEND / auto-detection instead.
            if let Some(choice) = backend {
                stitch_fft::backend::select(choice);
            }
            let trace = trace_if(trace_out.is_some() || report_out.is_some());
            let policy = FailurePolicy {
                retry: RetryPolicy {
                    max_retries: retries,
                    backoff: Duration::from_millis(retry_backoff_ms),
                    ..RetryPolicy::default()
                },
                allow_partial,
            };
            // one spec string configures both injection layers
            let (tile_faults, gpu_faults) = fault_spec
                .as_deref()
                .map(FaultSpec::parse)
                .transpose()
                .map_err(because("bad --fault-spec"))?
                .unzip();
            let device = |i| {
                let config = DeviceConfig {
                    fault: gpu_faults.flatten(),
                    ..DeviceConfig::default()
                };
                Device::new(i, config)
            };
            let stitcher = implementation.build(&Resources {
                threads,
                devices: (0..gpus.max(1)).map(device).collect(),
                trace: trace.clone(),
                ..Resources::default()
            });
            // Multi-channel / z-stack datasets (extended manifest) — or an
            // explicit channel flag — take the register-once/replay path:
            // one phase-1+2 solve on the reference channel, then pure
            // composition of every (channel, plane) unit in that frame.
            let is_multi = stitch_image::MultiGridManifest::load(&dataset)
                .ok()
                .is_some_and(|m| m.channels > 1 || m.z_planes > 1);
            let (health, positions, mosaics) =
                if is_multi || ref_channel > 0 || correct_illumination || maxz {
                    // the replay driver reads through its own sources with
                    // the default policy: refuse what it cannot honour
                    // rather than accept and ignore it
                    let default = RetryPolicy::default();
                    let single_plane_only = [
                        ("--fault-spec", fault_spec.is_some()),
                        ("--retries", retries != default.max_retries),
                        (
                            "--retry-backoff-ms",
                            policy.retry.backoff != default.backoff,
                        ),
                        ("--allow-partial", allow_partial),
                        ("--highlight", highlight),
                    ];
                    if let Some((flag, _)) = single_plane_only.iter().find(|(_, given)| *given) {
                        return Err((
                            1,
                            format!("{flag} is not supported on multi-channel datasets"),
                        ));
                    }
                    let plan = ChannelPlan {
                        reference_channel: ref_channel,
                        z_mode: if maxz {
                            ZMode::MaxProject
                        } else {
                            ZMode::Stack
                        },
                        registration_plane: None,
                        correct_illumination,
                    };
                    stitch_channels(&dataset, stitcher.as_ref(), plan, blend, out, &trace)?
                } else {
                    let dir = DirSource::open(&dataset).map_err(because("cannot open dataset"))?;
                    let source: Box<dyn TileSource> = match tile_faults.filter(|s| !s.is_noop()) {
                        Some(spec) => Box::new(FaultySource::new(dir, spec)),
                        None => Box::new(dir),
                    };
                    println!(
                        "stitching {} ({}x{} grid) with {}",
                        dataset.display(),
                        source.shape().rows,
                        source.shape().cols,
                        stitcher.name()
                    );
                    let mosaic = out.is_some().then_some(MosaicSpec {
                        blend,
                        workers: threads,
                        highlight,
                    });
                    let pass = run_pass(&*stitcher, &*source, &policy, mosaic, &trace, &|| false)
                        .map_err(|e| (2, e.to_string()))?;
                    let (result, pairs) = (pass.result, source.shape().pairs());
                    let ops = &result.ops;
                    println!(
                        "phase 1: {pairs} pairs in {:.2?} ({} forward FFTs, peak {} live tiles; \
                         CCF {} probes over {} px: {:.1} probes per pair, {:.1} px per probe; \
                         stage window on {} pairs, {} fell back; \
                         coarse search on {} pairs, {} redone)",
                        result.elapsed,
                        ops.forward_ffts,
                        result.peak_live_tiles,
                        ops.ccf_probes,
                        ops.ccf_pixels,
                        ops.ccf_probes as f64 / pairs.max(1) as f64,
                        ops.ccf_pixels as f64 / ops.ccf_probes.max(1) as f64,
                        ops.windowed_pairs,
                        ops.window_fallbacks,
                        ops.coarse_pairs,
                        ops.coarse_fallbacks
                    );
                    let positions = pass.positions.expect("a pass that is never stopped solves");
                    let mosaics = out.zip(pass.mosaic).into_iter().collect();
                    (result.health, positions, mosaics)
                };
            // one epilogue for both paths: every output flag means the
            // same thing whatever the dataset's channel count
            if health.is_degraded() || !health.recovered_tiles().is_empty() {
                println!(
                    "health: {} tile(s) failed, {} recovered, {} retries total",
                    health.failed_tiles().len(),
                    health.recovered_tiles().len(),
                    health.total_retries
                );
                for id in health.failed_tiles() {
                    println!("  lost tile {id}");
                }
            }
            if let Some(path) = health_out {
                emit("health report", &path, health.to_json())?;
            }
            if let Some(path) = positions_out {
                emit("phase 2: positions", &path, positions_tsv(&positions))?;
            }
            for (path, mosaic) in &mosaics {
                emit_image("phase 3: mosaic", path, mosaic, &trace)?;
            }
            // the one memory high-water of the run: the buffer recycler's
            let recycled = stitch_image::buf::usage();
            let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
            trace.set_gauge("memory.recycled_peak_mb", mib(recycled.peak));
            trace.set_gauge("memory.recycled_idle_mb", mib(recycled.idle));
            if let Some(path) = trace_out {
                emit("trace", &path, trace.to_chrome_json())?;
            }
            if let Some(path) = report_out {
                let report = stitch_trace::RunReport::from_trace(&trace);
                let what = format!(
                    "run report (kernel density {:.3}, copy/compute overlap {:.3})",
                    report.kernel_density, report.copy_compute_overlap
                );
                emit(&what, &path, report.to_json())?;
                for l in &report.layers {
                    let ms = |ns: u64| ns as f64 / 1e6;
                    let (n, total, max) = (l.count, ms(l.total_ns), ms(l.max_ns));
                    println!(
                        "  {:<8} {n:>7} spans {total:>10.2} ms total {max:>8.2} ms max",
                        l.name
                    );
                }
            }
        }
    }
    Ok(0)
}

/// What either `stitch` path hands the shared epilogue: read health, the
/// solved frame, and the mosaics `--out` asked for with the file each goes
/// to (one per compose unit on the channel path).
type Stitched = (HealthReport, AbsolutePositions, Vec<(PathBuf, Image<u16>)>);

/// `stitch` on a multi-channel / z-stack dataset: registration runs once
/// on the reference channel and the solved frame replays across every
/// (channel, plane) compose unit — composed only when `--out` asks.
fn stitch_channels(
    dataset: &Path,
    stitcher: &dyn Stitcher,
    plan: ChannelPlan,
    blend: Blend,
    out: Option<PathBuf>,
    trace: &TraceHandle,
) -> Result<Stitched, Failure> {
    let source: Arc<dyn MultiTileSource> =
        Arc::new(MultiDirSource::open(dataset).map_err(because("cannot open dataset"))?);
    let (channels, z_planes) = (source.channels(), source.z_planes());
    let corrected = plan.correct_illumination;
    let session = ChannelSession::traced(source, plan, trace).map_err(|e| (1, e.to_string()))?;
    println!(
        "stitching {} ({} channel(s) x {} plane(s), registering on channel {}{}) with {}",
        dataset.display(),
        channels,
        z_planes,
        session.plan().reference_channel,
        if corrected {
            ", flat-field corrected"
        } else {
            ""
        },
        stitcher.name()
    );
    let run = session
        .replay(stitcher, out.as_ref().map(|_| blend), trace)
        .map_err(|e| (2, e.to_string()))?;
    println!(
        "phase 1+2: {} pair(s) registered once in {:.2?}; frame replays over {} unit(s)",
        run.registration.shape.pairs(),
        run.registration.elapsed,
        session.units().len()
    );
    // each unit's mosaic lands in its own label-suffixed file
    let mosaics = run.mosaics.into_iter().filter_map(|(unit, mosaic)| {
        Some((unit_output_path(out.as_deref()?, &unit.label()), mosaic))
    });
    Ok((run.registration.health, run.positions, mosaics.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_generate_defaults() {
        let cmd = parse(&argv("generate --out /tmp/x")).unwrap();
        match cmd {
            Command::Generate { out, config, .. } => {
                assert_eq!(out, PathBuf::from("/tmp/x"));
                assert_eq!(config.grid_rows, 8);
                assert_eq!(config.tile_width, 128);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_stitch_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --impl pipelined-gpu --gpus 2 --threads 8 \
             --blend linear --out m.tif --highlight",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                implementation,
                gpus,
                threads,
                blend,
                out,
                highlight,
                ..
            } => {
                assert_eq!(implementation, JobVariant::PipelinedGpu);
                assert_eq!(gpus, 2);
                assert_eq!(threads, 8);
                assert_eq!(blend, Blend::Linear);
                assert_eq!(out, Some(PathBuf::from("m.tif")));
                assert!(highlight);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_shard_flags() {
        let cmd = parse(&argv(
            "shard --rows 10 --cols 12 --tile-width 64 --tile-height 48 \
             --shard-rows 2 --shard-cols 3 --mem-budget-mb 64 --workers 3 \
             --impl mt-cpu --threads 4 --band-rows 32 --out m.pgm --positions p.tsv \
             --preview ov.pgm --preview-scale 3",
        ))
        .unwrap();
        match cmd {
            Command::Shard {
                dataset,
                config,
                shard_rows,
                shard_cols,
                budget_mb,
                workers,
                implementation,
                threads,
                out,
                positions_out,
                band_rows,
                preview_out,
                preview_scale,
                ..
            } => {
                assert_eq!(dataset, None);
                assert_eq!((config.grid_rows, config.grid_cols), (10, 12));
                assert_eq!((config.tile_width, config.tile_height), (64, 48));
                assert_eq!((shard_rows, shard_cols), (2, 3));
                assert_eq!(budget_mb, 64);
                assert_eq!(workers, 3);
                assert_eq!(implementation, JobVariant::MtCpu);
                assert_eq!(threads, 4);
                assert_eq!(out, Some(PathBuf::from("m.pgm")));
                assert_eq!(positions_out, Some(PathBuf::from("p.tsv")));
                assert_eq!(band_rows, 32);
                assert_eq!(preview_out, Some(PathBuf::from("ov.pgm")));
                assert_eq!(preview_scale, 3);
            }
            other => panic!("{other:?}"),
        }
        // datasets and synthetic specs both parse; GPU variants are
        // rejected at run time, not parse time
        match parse(&argv("shard --dataset /d")).unwrap() {
            Command::Shard {
                dataset,
                preview_out,
                preview_scale,
                ..
            } => {
                assert_eq!(dataset, Some(PathBuf::from("/d")));
                assert_eq!(preview_out, None, "preview is opt-in");
                assert_eq!(preview_scale, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --retries 5 --retry-backoff-ms 20 \
             --fault-spec transient=0.1,gpu-h2d=0.05 --allow-partial \
             --health-json h.json",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                retries,
                retry_backoff_ms,
                fault_spec,
                allow_partial,
                health_out,
                ..
            } => {
                assert_eq!(retries, 5);
                assert_eq!(retry_backoff_ms, 20);
                assert_eq!(fault_spec.as_deref(), Some("transient=0.1,gpu-h2d=0.05"));
                assert!(allow_partial);
                assert_eq!(health_out, Some(PathBuf::from("h.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_tolerance_defaults_are_strict() {
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                retries,
                retry_backoff_ms,
                fault_spec,
                allow_partial,
                health_out,
                ..
            } => {
                assert_eq!(retries, 3);
                assert_eq!(retry_backoff_ms, 1);
                assert_eq!(fault_spec, None);
                assert!(!allow_partial, "partial mosaics must be opt-in");
                assert_eq!(health_out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --trace-json t.json --run-report r.json",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                trace_out,
                report_out,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(report_out, Some(PathBuf::from("r.json")));
            }
            other => panic!("{other:?}"),
        }
        // both default off: tracing must cost nothing unless asked for
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                trace_out,
                report_out,
                ..
            } => {
                assert_eq!(trace_out, None);
                assert_eq!(report_out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_backend_flag() {
        match parse(&argv("stitch --dataset /d --backend scalar")).unwrap() {
            Command::Stitch { backend, .. } => assert_eq!(backend, Some(BackendChoice::Scalar)),
            other => panic!("{other:?}"),
        }
        // absent: defer to STITCH_BACKEND / auto-detection at dispatch time
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch { backend, .. } => assert_eq!(backend, None),
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("stitch --dataset /d --backend sse9")).unwrap_err();
        assert!(err.contains("--backend"), "{err}");
        assert!(err.contains("sse9"), "{err}");
    }

    #[test]
    fn parses_serve_batch_flags() {
        let cmd = parse(&argv(
            "serve-batch --jobs batch.txt --workers 4 --budget-mb 128 \
             --stream-slots 1 --trace-json t.json --reports-dir out",
        ))
        .unwrap();
        match cmd {
            Command::ServeBatch {
                jobs,
                workers,
                budget_mb,
                stream_slots,
                trace_out,
                reports_dir,
            } => {
                assert_eq!(jobs, PathBuf::from("batch.txt"));
                assert_eq!(workers, 4);
                assert_eq!(budget_mb, 128);
                assert_eq!(stream_slots, Some(1));
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(reports_dir, Some(PathBuf::from("out")));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve-batch --jobs batch.txt")).unwrap() {
            Command::ServeBatch {
                workers,
                budget_mb,
                stream_slots,
                ..
            } => {
                assert_eq!((workers, budget_mb), (2, 256));
                assert_eq!(stream_slots, None, "leasing unbounded by default");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve-batch")).is_err(), "missing --jobs");
        assert!(parse(&argv("serve-batch --jobs f --stream-slots x")).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&argv(
            "serve --workers 3 --max-pending 16 --watchdog-ms 5000 --tenant-jobs 4 \
             --rate-burst 10 --rate-per-sec 2.5 --tenant-cap-mb 64 \
             --breaker-threshold 3 --drain cancel-all --socket /tmp/s.sock",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                workers,
                max_pending,
                watchdog_ms,
                tenant_jobs,
                rate_burst,
                rate_per_sec,
                tenant_cap_mb,
                breaker_threshold,
                drain,
                socket,
                ..
            } => {
                assert_eq!(workers, 3);
                assert_eq!(max_pending, 16);
                assert_eq!(watchdog_ms, Some(5000));
                assert_eq!(tenant_jobs, 4);
                assert_eq!(rate_burst, Some(10));
                assert_eq!(rate_per_sec, 2.5);
                assert_eq!(tenant_cap_mb, Some(64));
                assert_eq!(breaker_threshold, 3);
                assert_eq!(drain, DrainPolicy::CancelAll);
                assert_eq!(socket, Some(PathBuf::from("/tmp/s.sock")));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                workers,
                watchdog_ms,
                rate_burst,
                drain,
                socket,
                ..
            } => {
                assert_eq!(workers, 2);
                assert_eq!(watchdog_ms, None, "no default watchdog");
                assert_eq!(rate_burst, None, "rate limiting is opt-in");
                assert_eq!(drain, DrainPolicy::Finish);
                assert_eq!(socket, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --drain nope")).is_err());
        assert!(parse(&argv("serve --watchdog-ms x")).is_err());
    }

    /// In-memory `Write + Send` sink for driving [`serve_session`].
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_session_streams_events_and_drains_on_eof() {
        let daemon = ServeDaemon::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let input: &[u8] = b"submit name=a grid=2x2 tile=32x24 compose=false\n\
                             this is not a request\n\
                             ping\n";
        let buf = SharedBuf::default();
        serve_session(&daemon, input, buf.clone(), Some(DrainPolicy::Finish)).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("event=queued tenant=default job=a"), "{text}");
        assert!(
            text.contains("event=error"),
            "malformed line contained: {text}"
        );
        assert!(text.contains("event=pong"), "{text}");
        assert!(
            text.contains("event=done tenant=default job=a status=completed"),
            "{text}"
        );
        assert!(text.contains("event=drained"), "EOF must drain: {text}");
    }

    #[test]
    fn serve_session_output_outlives_a_drain_asked_for_before_eof() {
        let daemon = ServeDaemon::new(ServeConfig::default());
        let input: &[u8] = b"drain policy=finish\nping\n";
        let buf = SharedBuf::default();
        serve_session(&daemon, input, buf.clone(), Some(DrainPolicy::Finish)).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("event=pong"), "{text}");
        assert_eq!(text.matches("event=drained").count(), 2, "{text}");
    }

    #[test]
    fn socket_session_on_an_idle_daemon_ends_at_the_clients_eof() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;
        let daemon = ServeDaemon::new(ServeConfig::default());
        let (mut client, server) = UnixStream::pair().unwrap();
        let reader = BufReader::new(server.try_clone().unwrap());
        let session = std::thread::scope(|s| {
            let session = s.spawn(|| serve_session(&daemon, reader, server, None));
            client.write_all(b"ping\n").unwrap();
            // Half-close, like `nc -N`: the reply must still arrive, and
            // then the server must close with no further event to wake it.
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let mut text = String::new();
            client.read_to_string(&mut text).unwrap();
            assert_eq!(text, "event=pong\n");
            session.join().unwrap()
        });
        session.unwrap();
        assert_eq!(daemon.stats().draining, 0, "socket EOF never drains");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("stitch")).is_err(), "missing --dataset");
        assert!(parse(&argv("stitch --dataset /d --impl nope")).is_err());
        assert!(parse(&argv("generate --out /tmp/x --rows abc")).is_err());
        assert!(
            parse(&argv("generate --out")).is_err(),
            "flag without value"
        );
    }

    #[test]
    fn parses_channel_flags() {
        match parse(&argv("generate --out /tmp/x --channels 3 --z-planes 4")).unwrap() {
            Command::Generate {
                channels, z_planes, ..
            } => assert_eq!((channels, z_planes), (3, 4)),
            other => panic!("{other:?}"),
        }
        // single-channel by default: existing datasets are unchanged
        match parse(&argv("generate --out /tmp/x")).unwrap() {
            Command::Generate {
                channels, z_planes, ..
            } => assert_eq!((channels, z_planes), (1, 1)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "stitch --dataset /d --ref-channel 1 --correct-illumination --maxz",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                ref_channel,
                correct_illumination,
                maxz,
                ..
            } => {
                assert_eq!(ref_channel, 1);
                assert!(correct_illumination);
                assert!(maxz);
            }
            other => panic!("{other:?}"),
        }
        // defaults: register on channel 0, no correction, full stacks
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                ref_channel,
                correct_illumination,
                maxz,
                ..
            } => {
                assert_eq!(ref_channel, 0);
                assert!(!correct_illumination, "correction must be opt-in");
                assert!(!maxz);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("stitch --dataset /d --ref-channel x")).is_err());
    }

    #[test]
    fn unit_output_paths_carry_the_label() {
        assert_eq!(
            unit_output_path(std::path::Path::new("/t/m.pgm"), "c01_z02"),
            PathBuf::from("/t/m_c01_z02.pgm")
        );
        assert_eq!(
            unit_output_path(std::path::Path::new("m.tif"), "c00_maxz"),
            PathBuf::from("m_c00_maxz.tif")
        );
        assert_eq!(
            unit_output_path(std::path::Path::new("mosaic"), "c00_z00"),
            PathBuf::from("mosaic_c00_z00")
        );
    }

    #[test]
    fn default_implementation_is_pipelined_cpu() {
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch { implementation, .. } => {
                assert_eq!(implementation, JobVariant::PipelinedCpu)
            }
            other => panic!("{other:?}"),
        }
    }
}
