//! Command-line interface plumbing for the `stitch` binary.
//!
//! A small hand-rolled parser (no external dependency) covering the
//! subcommands: `generate`, `stitch`, `shard`, `serve`, `serve-batch`,
//! `info`, and `simulate`. Parsing is pure so it is unit-testable; execution
//! lives in [`run`], and the daemon's line-protocol session loop in the
//! testable [`serve_session`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stitch_core::prelude::*;
use stitch_fft::BackendChoice;
use stitch_gpu::{Device, DeviceConfig, GpuFaultConfig};
use stitch_image::{pgm, tiff, MultiChannelPlate, MultiScanConfig, ScanConfig, SyntheticPlate};
use stitch_sched::{DrainPolicy, JobVariant};
use stitch_serve::{BreakerConfig, RateLimit, ServeConfig, ServeDaemon, TenantPolicy};
use stitch_shard::{stitch_sharded, stitch_sharded_into_canvas, ShardConfig as ShardRunConfig};

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
        /// Implementation (`--impl`, one of [`JobVariant::parse`]'s tokens).
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
        /// [`stitch_sched::parse_job_file`]).
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
        /// `testbed` or `laptop`.
        machine: String,
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

JOB FILE (serve-batch; one job per line, `#` comments):
  name=a variant=pipelined-cpu grid=6x8 tile=64x48 overlap=0.1 seed=5
         threads=2 priority=2 deadline-ms=5000 compose=false
  (malformed lines are reported per line; the rest of the batch runs)

SERVE PROTOCOL (one request per line on stdin or the socket; responses
and job lifecycle stream back as `event=... key=value` lines):
  submit name=a tenant=acme grid=6x8 tile=64x48 [preview=true] ...
  cancel name=a [tenant=acme]
  region name=a [tenant=acme] [scale=N] [x=N] [y=N] [w=N] [h=N]
  stats | ping | drain [policy=finish|cancel-pending|cancel-all]
  EOF on stdin drains the daemon (--drain policy) and exits.

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

FAULT SPEC (comma-separated key=value):
  seed=N transient=RATE corrupt=R.C+R.C latency-ms=N     (tile reads)
  gpu-seed=N gpu-h2d=RATE gpu-d2h=RATE gpu-kernel=RATE
  gpu-oom=RATE gpu-retries=N                             (device ops)
";

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 4] = ["highlight", "allow-partial", "correct-illumination", "maxz"];

/// Every flag a sub-command reads (space-separated): anything else on
/// its command line is a typo, not a no-op. `None` for `help` and unknown
/// sub-commands, which [`parse`] settles without looking at flags.
fn known_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "generate" => {
            "out rows cols tile-width tile-height overlap seed jitter noise channels z-planes"
        }
        "stitch" => {
            "dataset impl threads gpus blend out positions highlight retries \
             retry-backoff-ms fault-spec allow-partial health-json trace-json run-report \
             backend ref-channel correct-illumination maxz"
        }
        "shard" => {
            "dataset rows cols tile-width tile-height overlap seed shard-rows shard-cols \
             mem-budget-mb workers impl threads blend out positions band-rows preview \
             preview-scale trace-json"
        }
        "serve" => {
            "workers budget-mb max-pending watchdog-ms tenant-jobs rate-burst rate-per-sec \
             tenant-cap-mb breaker-threshold drain socket trace-json reports-dir"
        }
        "serve-batch" => "jobs workers budget-mb stream-slots trace-json reports-dir",
        "info" => "dataset",
        "simulate" => "machine rows cols",
        _ => return None,
    })
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let known = known_flags(cmd);
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if known.is_some_and(|known| !known.split(' ').any(|k| k == name)) {
                return Err(format!("unknown flag --{name} for '{cmd}'"));
            }
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(flags)
}

fn get_blend(flags: &HashMap<String, String>) -> Result<Blend, String> {
    match flags.get("blend").map(String::as_str) {
        None | Some("overlay") => Ok(Blend::Overlay),
        Some("first") => Ok(Blend::First),
        Some("average") => Ok(Blend::Average),
        Some("linear") => Ok(Blend::Linear),
        Some(other) => Err(format!("bad --blend {other:?}")),
    }
}

/// `--impl`, one of [`JobVariant::parse`]'s six tokens.
fn get_variant(flags: &HashMap<String, String>, default: JobVariant) -> Result<JobVariant, String> {
    flags
        .get("impl")
        .map_or(Ok(default), |v| JobVariant::parse(v))
        .map_err(|e| format!("bad --impl: {e}"))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
    }
}

/// Parses the command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let flags = parse_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let out = flags
                .get("out")
                .ok_or("generate requires --out DIR")?
                .into();
            let config = ScanConfig {
                grid_rows: get_num(&flags, "rows", 8)?,
                grid_cols: get_num(&flags, "cols", 12)?,
                tile_width: get_num(&flags, "tile-width", 128)?,
                tile_height: get_num(&flags, "tile-height", 96)?,
                overlap: get_num(&flags, "overlap", 0.25)?,
                stage_jitter: get_num(&flags, "jitter", 3.0)?,
                backlash_x: 1.5,
                noise_sigma: get_num(&flags, "noise", 50.0)?,
                vignette: 0.03,
                seed: get_num(&flags, "seed", 2014)?,
            };
            Ok(Command::Generate {
                out,
                config,
                channels: get_num(&flags, "channels", 1)?,
                z_planes: get_num(&flags, "z-planes", 1)?,
            })
        }
        "stitch" => Ok(Command::Stitch {
            dataset: flags
                .get("dataset")
                .ok_or("stitch requires --dataset DIR")?
                .into(),
            implementation: get_variant(&flags, JobVariant::PipelinedCpu)?,
            threads: get_num(&flags, "threads", 4)?,
            gpus: get_num(&flags, "gpus", 1)?,
            blend: get_blend(&flags)?,
            out: flags.get("out").map(PathBuf::from),
            positions_out: flags.get("positions").map(PathBuf::from),
            highlight: flags.contains_key("highlight"),
            retries: get_num(&flags, "retries", 3)?,
            retry_backoff_ms: get_num(&flags, "retry-backoff-ms", 1)?,
            fault_spec: flags.get("fault-spec").cloned(),
            allow_partial: flags.contains_key("allow-partial"),
            health_out: flags.get("health-json").map(PathBuf::from),
            trace_out: flags.get("trace-json").map(PathBuf::from),
            report_out: flags.get("run-report").map(PathBuf::from),
            backend: flags
                .get("backend")
                .map(|v| BackendChoice::parse(v).map_err(|e| format!("bad --backend: {e}")))
                .transpose()?,
            ref_channel: get_num(&flags, "ref-channel", 0)?,
            correct_illumination: flags.contains_key("correct-illumination"),
            maxz: flags.contains_key("maxz"),
        }),
        "shard" => Ok(Command::Shard {
            dataset: flags.get("dataset").map(PathBuf::from),
            config: ScanConfig {
                grid_rows: get_num(&flags, "rows", 8)?,
                grid_cols: get_num(&flags, "cols", 12)?,
                tile_width: get_num(&flags, "tile-width", 128)?,
                tile_height: get_num(&flags, "tile-height", 96)?,
                overlap: get_num(&flags, "overlap", 0.25)?,
                stage_jitter: 3.0,
                backlash_x: 1.5,
                noise_sigma: 50.0,
                vignette: 0.03,
                seed: get_num(&flags, "seed", 2014)?,
            },
            shard_rows: get_num(&flags, "shard-rows", 4)?,
            shard_cols: get_num(&flags, "shard-cols", 4)?,
            budget_mb: get_num(&flags, "mem-budget-mb", 256)?,
            workers: get_num(&flags, "workers", 2)?,
            implementation: get_variant(&flags, JobVariant::SimpleCpu)?,
            threads: get_num(&flags, "threads", 2)?,
            blend: get_blend(&flags)?,
            out: flags.get("out").map(PathBuf::from),
            positions_out: flags.get("positions").map(PathBuf::from),
            band_rows: get_num(&flags, "band-rows", 64)?,
            preview_out: flags.get("preview").map(PathBuf::from),
            preview_scale: get_num(&flags, "preview-scale", 2)?,
            trace_out: flags.get("trace-json").map(PathBuf::from),
        }),
        "serve" => Ok(Command::Serve {
            workers: get_num(&flags, "workers", 2)?,
            budget_mb: get_num(&flags, "budget-mb", 256)?,
            max_pending: get_num(&flags, "max-pending", 64)?,
            watchdog_ms: flags
                .get("watchdog-ms")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad value for --watchdog-ms: {v:?}"))
                })
                .transpose()?,
            tenant_jobs: get_num(&flags, "tenant-jobs", 8)?,
            rate_burst: flags
                .get("rate-burst")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad value for --rate-burst: {v:?}"))
                })
                .transpose()?,
            rate_per_sec: get_num(&flags, "rate-per-sec", 100.0)?,
            tenant_cap_mb: flags
                .get("tenant-cap-mb")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad value for --tenant-cap-mb: {v:?}"))
                })
                .transpose()?,
            breaker_threshold: get_num(&flags, "breaker-threshold", 8)?,
            drain: match flags.get("drain").map(String::as_str) {
                None | Some("finish") => DrainPolicy::Finish,
                Some("cancel-pending") => DrainPolicy::CancelPending,
                Some("cancel-all") => DrainPolicy::CancelAll,
                Some(other) => return Err(format!("bad --drain {other:?}")),
            },
            socket: flags.get("socket").map(PathBuf::from),
            trace_out: flags.get("trace-json").map(PathBuf::from),
            reports_dir: flags.get("reports-dir").map(PathBuf::from),
        }),
        "serve-batch" => Ok(Command::ServeBatch {
            jobs: flags
                .get("jobs")
                .ok_or("serve-batch requires --jobs FILE")?
                .into(),
            workers: get_num(&flags, "workers", 2)?,
            budget_mb: get_num(&flags, "budget-mb", 256)?,
            stream_slots: flags
                .get("stream-slots")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad value for --stream-slots: {v:?}"))
                })
                .transpose()?,
            trace_out: flags.get("trace-json").map(PathBuf::from),
            reports_dir: flags.get("reports-dir").map(PathBuf::from),
        }),
        "info" => Ok(Command::Info {
            dataset: flags
                .get("dataset")
                .ok_or("info requires --dataset DIR")?
                .into(),
        }),
        "simulate" => Ok(Command::Simulate {
            machine: flags
                .get("machine")
                .cloned()
                .unwrap_or_else(|| "testbed".to_string()),
            rows: get_num(&flags, "rows", 42)?,
            cols: get_num(&flags, "cols", 59)?,
        }),
        other => Err(format!("unknown command {other:?}; try `stitch help`")),
    }
}

/// Drives one daemon session: requests are read line-by-line from
/// `input` and handed to the daemon; every broadcast event (this
/// session's responses *and* all job lifecycle events) streams to
/// `out` as `event=... key=value` lines. On EOF, `drain_on_eof`
/// (set for the primary stdin session, `None` for socket clients)
/// gracefully drains the daemon before returning.
///
/// Pure in its endpoints, so tests drive it with in-memory buffers.
pub fn serve_session<R, W>(
    daemon: &ServeDaemon,
    input: R,
    out: W,
    drain_on_eof: Option<DrainPolicy>,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let rx = daemon.subscribe();
    let done = AtomicBool::new(false);
    let done = &done;
    std::thread::scope(|s| {
        let pump = s.spawn(move || -> std::io::Result<()> {
            let mut out = out;
            loop {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(e) => {
                        writeln!(out, "{}", e.to_line())?;
                        out.flush()?;
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        if done.load(Ordering::Acquire) {
                            // the input side has finished (and drained);
                            // everything left is already in the channel
                            for e in rx.try_iter() {
                                writeln!(out, "{}", e.to_line())?;
                            }
                            out.flush()?;
                            return Ok(());
                        }
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        });
        for line in input.lines() {
            let Ok(line) = line else { break };
            daemon.handle_line(&line);
        }
        if let Some(policy) = drain_on_eof {
            daemon.drain(policy);
        }
        done.store(true, Ordering::Release);
        pump.join().unwrap_or(Ok(()))
    })
}

/// Executes a parsed command. Returns a process exit code.
pub fn run(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::Generate {
            out,
            config,
            channels,
            z_planes,
        } => {
            if channels > 1 || z_planes > 1 {
                let cfg = MultiScanConfig::for_channels(config.clone(), channels, z_planes);
                let plate = MultiChannelPlate::generate(cfg);
                match plate.write_to_dir(&out) {
                    Ok(n) => {
                        println!(
                            "wrote {n} images ({}x{} grid of {}x{}, {} channel(s) x {} plane(s)) to {}",
                            config.grid_rows,
                            config.grid_cols,
                            config.tile_width,
                            config.tile_height,
                            channels.max(1),
                            z_planes.max(1),
                            out.display()
                        );
                        return 0;
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
            let plate = SyntheticPlate::generate(config.clone());
            match plate.write_to_dir(&out) {
                Ok(n) => {
                    println!(
                        "wrote {n} tiles ({}x{} grid of {}x{}) to {}",
                        config.grid_rows,
                        config.grid_cols,
                        config.tile_width,
                        config.tile_height,
                        out.display()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Info { dataset } => match stitch_image::GridManifest::load(&dataset) {
            Ok(m) => {
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
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Command::Simulate {
            machine,
            rows,
            cols,
        } => {
            use stitch_sim::*;
            let m = match machine.as_str() {
                "laptop" => MachineSpec::paper_laptop(),
                _ => MachineSpec::paper_testbed(),
            };
            let shape = GridShape::new(rows, cols);
            let cost = CostModel::paper_c2070();
            println!("virtual {machine} machine, {rows}x{cols} grid of 1392x1040 tiles:");
            let simple = simple_cpu_ns(shape, &cost);
            let rows_out = [
                ("Simple-CPU", simple),
                ("MT-CPU (16t)", mt_cpu_ns(shape, &cost, &m, 16)),
                (
                    "Pipelined-CPU (16t)",
                    pipelined_cpu_ns(shape, &cost, &m, 16),
                ),
                ("Simple-GPU", simple_gpu_ns(shape, &cost)),
                ("Pipelined-GPU x1", pipelined_gpu_ns(shape, &cost, &m, 1, 4)),
                (
                    "Pipelined-GPU x2",
                    pipelined_gpu_ns(shape, &cost, &m, 2.min(m.gpus), 4),
                ),
            ];
            for (name, ns) in rows_out {
                println!(
                    "  {name:<22} {:>10.1}s  ({:.1}x vs Simple-CPU)",
                    secs(ns),
                    simple as f64 / ns as f64
                );
            }
            0
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
            let trace = if trace_out.is_some() || reports_dir.is_some() {
                stitch_trace::TraceHandle::new()
            } else {
                stitch_trace::TraceHandle::disabled()
            };
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
                reports_dir: reports_dir.clone(),
            }));
            if let Some(path) = &socket {
                let _ = std::fs::remove_file(path);
                let listener = match std::os::unix::net::UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("error: cannot bind {}: {e}", path.display());
                        return 1;
                    }
                };
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
            let stdin = std::io::stdin();
            let code = match serve_session(
                &daemon,
                BufReader::new(stdin),
                std::io::stdout(),
                Some(drain),
            ) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("error: serve session: {e}");
                    1
                }
            };
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                    eprintln!("error writing trace: {e}");
                    return 1;
                }
                eprintln!("merged trace -> {}", path.display());
            }
            if let Some(path) = socket {
                let _ = std::fs::remove_file(&path);
            }
            code
        }
        Command::ServeBatch {
            jobs,
            workers,
            budget_mb,
            stream_slots,
            trace_out,
            reports_dir,
        } => {
            let text = match std::fs::read_to_string(&jobs) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read job file {}: {e}", jobs.display());
                    return 1;
                }
            };
            let want_observability = trace_out.is_some() || reports_dir.is_some();
            let trace = if want_observability {
                stitch_trace::TraceHandle::new()
            } else {
                stitch_trace::TraceHandle::disabled()
            };
            println!("serve-batch: {workers} worker(s), {budget_mb} MB budget");
            // lenient parse (shared with the serve daemon's wire parser):
            // a malformed line becomes a per-line error in the report and
            // the rest of the batch still runs
            let report = match stitch_sched::run_batch_text(
                &text,
                &stitch_sched::BatchOptions {
                    workers,
                    memory_budget: budget_mb << 20,
                    stream_slots,
                    device: None,
                    trace: trace.clone(),
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {}: {e}", jobs.display());
                    return 1;
                }
            };
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
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("error creating {}: {e}", dir.display());
                    return 1;
                }
                for out in &report.outcomes {
                    if let Some(r) = &out.report {
                        let path = dir.join(format!("report-{}.json", out.name));
                        if let Err(e) = std::fs::write(&path, r.to_json()) {
                            eprintln!("error writing {}: {e}", path.display());
                            return 1;
                        }
                    }
                }
                println!("per-job run reports -> {}", dir.display());
            }
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                    eprintln!("error writing trace: {e}");
                    return 1;
                }
                println!("merged trace -> {}", path.display());
            }
            if all_ok {
                0
            } else {
                2
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
                eprintln!(
                    "error: shard runs CPU variants only (the shard scheduler shares no GPU)"
                );
                return 1;
            }
            let source: Arc<dyn TileSource> = match &dataset {
                Some(dir) => match DirSource::open(dir) {
                    Ok(s) => Arc::new(s),
                    Err(e) => {
                        eprintln!("error: cannot open dataset: {e}");
                        return 1;
                    }
                },
                None => Arc::new(SyntheticSource::new(SyntheticPlate::generate(config))),
            };
            let trace = if trace_out.is_some() {
                stitch_trace::TraceHandle::new()
            } else {
                stitch_trace::TraceHandle::disabled()
            };
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
            let run = match &canvas {
                Some(canvas) => stitch_sharded_into_canvas(source, &shard_config, canvas),
                None => stitch_sharded(source, &shard_config),
            };
            let outcome = match run {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
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
                if let Err(e) = write_positions(&path, &outcome.positions) {
                    eprintln!("error writing positions: {e}");
                    return 1;
                }
                println!("positions -> {}", path.display());
            }
            // In canvas mode the driver never collects the mosaic; a
            // requested --out is materialized from the canvas's scale-0
            // plane instead (bit-identical to the collected path).
            let canvas_mosaic = match (&canvas, &out) {
                (Some(canvas), Some(_)) => {
                    let (mw, mh) = outcome.positions.mosaic_dims(tile_w, tile_h);
                    Some(canvas.get_region(0, 0, 0, mw, mh))
                }
                _ => None,
            };
            if let (Some(path), Some(mosaic)) =
                (&out, canvas_mosaic.as_ref().or(outcome.mosaic.as_ref()))
            {
                match write_image(path, mosaic) {
                    Ok(()) => println!(
                        "{}x{} mosaic (banded, {} rows/band) -> {}",
                        mosaic.width(),
                        mosaic.height(),
                        band_rows,
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("error writing mosaic: {e}");
                        return 1;
                    }
                }
            }
            if let (Some(path), Some(canvas)) = (&preview_out, &canvas) {
                let (mw, mh) = outcome.positions.mosaic_dims(tile_w, tile_h);
                let scale = preview_scale.min(canvas.max_scale());
                let (pw, ph) = ((mw >> scale).max(1), (mh >> scale).max(1));
                let overview = canvas.get_region(scale, 0, 0, pw, ph);
                match write_image(path, &overview) {
                    Ok(()) => println!(
                        "scale-{scale} overview {pw}x{ph} ({} live canvas chunks) -> {}",
                        canvas.stats().live_chunks,
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("error writing preview: {e}");
                        return 1;
                    }
                }
            }
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                    eprintln!("error writing trace: {e}");
                    return 1;
                }
                println!("trace -> {}", path.display());
            }
            0
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
            // one shared recorder feeds both outputs; stays disabled (and
            // free) unless an observability flag asked for it
            let trace = if trace_out.is_some() || report_out.is_some() {
                stitch_trace::TraceHandle::new()
            } else {
                stitch_trace::TraceHandle::disabled()
            };
            let policy = FailurePolicy {
                retry: RetryPolicy {
                    max_retries: retries,
                    backoff: Duration::from_millis(retry_backoff_ms),
                    ..RetryPolicy::default()
                },
                allow_partial,
            };
            // One spec string configures both injection layers: the core
            // parser reads the tile-level keys, the gpu parser the gpu- ones.
            let tile_faults = match fault_spec.as_deref().map(FaultSpec::parse).transpose() {
                Ok(spec) => spec.filter(|s| !s.is_noop()),
                Err(e) => {
                    eprintln!("error: bad --fault-spec: {e}");
                    return 1;
                }
            };
            let gpu_faults = match fault_spec.as_deref().map(GpuFaultConfig::parse).transpose() {
                Ok(cfg) => cfg.flatten(),
                Err(e) => {
                    eprintln!("error: bad --fault-spec: {e}");
                    return 1;
                }
            };
            let device_config = DeviceConfig {
                fault: gpu_faults,
                ..DeviceConfig::default()
            };
            let stitcher: Box<dyn Stitcher> = match implementation {
                JobVariant::SimpleCpu => {
                    Box::new(SimpleCpuStitcher::default().with_trace(trace.clone()))
                }
                JobVariant::MtCpu => {
                    Box::new(MtCpuStitcher::new(threads).with_trace(trace.clone()))
                }
                JobVariant::PipelinedCpu => {
                    Box::new(PipelinedCpuStitcher::new(threads).with_trace(trace.clone()))
                }
                JobVariant::SimpleGpu => Box::new(
                    SimpleGpuStitcher::new(Device::new(0, device_config.clone()))
                        .with_trace(trace.clone()),
                ),
                JobVariant::PipelinedGpu => {
                    let devices: Vec<Device> = (0..gpus.max(1))
                        .map(|i| Device::new(i, device_config.clone()))
                        .collect();
                    Box::new(
                        PipelinedGpuStitcher::new(
                            devices,
                            stitch_core::PipelinedGpuConfig {
                                ccf_threads: threads.max(1),
                                ..Default::default()
                            },
                        )
                        .with_trace(trace.clone()),
                    )
                }
                JobVariant::FijiStyle => {
                    Box::new(FijiStyleStitcher::new(threads).with_trace(trace.clone()))
                }
            };
            // Multi-channel / z-stack datasets (extended manifest) — or an
            // explicit channel flag — take the register-once/replay path:
            // one phase-1+2 solve on the reference channel, then pure
            // composition of every (channel, plane) unit in that frame.
            let is_multi = stitch_image::MultiGridManifest::load(&dataset)
                .ok()
                .is_some_and(|m| m.channels > 1 || m.z_planes > 1);
            if is_multi || ref_channel > 0 || correct_illumination || maxz {
                return run_channel_stitch(
                    &dataset,
                    stitcher.as_ref(),
                    ChannelPlan {
                        reference_channel: ref_channel,
                        z_mode: if maxz {
                            ZMode::MaxProject
                        } else {
                            ZMode::Stack
                        },
                        registration_plane: None,
                        correct_illumination,
                    },
                    blend,
                    out.as_deref(),
                    positions_out.as_deref(),
                );
            }
            let dir = match DirSource::open(&dataset) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot open dataset: {e}");
                    return 1;
                }
            };
            let source: Box<dyn TileSource> = match tile_faults {
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
            let result = match stitcher.try_compute_displacements(source.as_ref(), &policy) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let health = &result.health;
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
                if let Err(e) = std::fs::write(&path, health.to_json()) {
                    eprintln!("error writing health report: {e}");
                    return 1;
                }
                println!("health report -> {}", path.display());
            }
            println!(
                "phase 1: {} pairs in {:.2?} ({} forward FFTs, peak {} live tiles)",
                source.shape().pairs(),
                result.elapsed,
                result.ops.forward_ffts,
                result.peak_live_tiles
            );
            let positions = GlobalOptimizer::default().solve(&result);
            if let Some(path) = positions_out {
                if let Err(e) = write_positions(&path, &positions) {
                    eprintln!("error writing positions: {e}");
                    return 1;
                }
                println!("phase 2: positions -> {}", path.display());
            }
            if let Some(path) = out {
                let mut composer = Composer::new(positions, blend).with_trace(trace.clone());
                composer.highlight_tiles = highlight;
                let mosaic = composer.compose(source.as_ref());
                match write_image(&path, &mosaic) {
                    Ok(()) => println!(
                        "phase 3: {}x{} mosaic -> {}",
                        mosaic.width(),
                        mosaic.height(),
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("error writing mosaic: {e}");
                        return 1;
                    }
                }
            }
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
                    eprintln!("error writing trace: {e}");
                    return 1;
                }
                println!("trace -> {}", path.display());
            }
            if let Some(path) = report_out {
                let report = stitch_trace::RunReport::from_trace(&trace);
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    eprintln!("error writing run report: {e}");
                    return 1;
                }
                println!(
                    "run report -> {} (kernel density {:.3}, copy/compute overlap {:.3})",
                    path.display(),
                    report.kernel_density,
                    report.copy_compute_overlap
                );
            }
            0
        }
    }
}

/// Writes `image` as TIFF when `path` ends in `.tif`/`.tiff`, as PGM
/// otherwise.
fn write_image(
    path: &std::path::Path,
    image: &stitch_image::Image<u16>,
) -> Result<(), stitch_image::ImageError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("tif") | Some("tiff") => tiff::write_tiff(path, image),
        _ => pgm::write_pgm(path, image),
    }
}

/// Writes absolute tile positions as a `row col x y` TSV.
fn write_positions(path: &std::path::Path, positions: &AbsolutePositions) -> std::io::Result<()> {
    let mut tsv = String::from("row\tcol\tx\ty\n");
    for id in positions.shape.ids() {
        let (x, y) = positions.get(id);
        tsv.push_str(&format!("{}\t{}\t{x}\t{y}\n", id.row, id.col));
    }
    std::fs::write(path, tsv)
}

/// Splices a compose-unit label into an output path before the
/// extension: `m.pgm` + `c01_z02` → `m_c01_z02.pgm`.
fn unit_output_path(base: &std::path::Path, label: &str) -> PathBuf {
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

/// Executes `stitch` on a multi-channel / z-stack dataset: registration
/// runs once on the reference channel, the solved frame replays across
/// every (channel, plane) compose unit, and each unit's mosaic lands in
/// its own label-suffixed file.
fn run_channel_stitch(
    dataset: &std::path::Path,
    stitcher: &dyn Stitcher,
    plan: ChannelPlan,
    blend: Blend,
    out: Option<&std::path::Path>,
    positions_out: Option<&std::path::Path>,
) -> i32 {
    let source: Arc<dyn MultiTileSource> = match MultiDirSource::open(dataset) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: cannot open dataset: {e}");
            return 1;
        }
    };
    let (channels, z_planes) = (source.channels(), source.z_planes());
    let corrected = plan.correct_illumination;
    let session = match ChannelSession::new(source, plan) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
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
    let run = match run_channel_plan(&session, stitcher, blend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "phase 1+2: {} pair(s) registered once in {:.2?}; frame replays over {} unit(s)",
        run.registration.shape.pairs(),
        run.registration.elapsed,
        run.mosaics.len()
    );
    if let Some(path) = positions_out {
        if let Err(e) = write_positions(path, &run.positions) {
            eprintln!("error writing positions: {e}");
            return 1;
        }
        println!("positions (shared by all units) -> {}", path.display());
    }
    if let Some(base) = out {
        for (unit, mosaic) in &run.mosaics {
            let path = unit_output_path(base, &unit.label());
            match write_image(&path, mosaic) {
                Ok(()) => println!(
                    "phase 3: {}x{} mosaic ({}) -> {}",
                    mosaic.width(),
                    mosaic.height(),
                    unit.label(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("error writing mosaic: {e}");
                    return 1;
                }
            }
        }
    }
    0
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
