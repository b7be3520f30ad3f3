//! Pipelined-GPU: the paper's contribution (§IV-B, Fig 8).
//!
//! One six-stage execution pipeline per GPU — all of them, and the CCF
//! stage they share, registered on one `stitch_pipeline::Pipeline` (stage
//! names `pipe{gpu}/read` … `pipe{gpu}/disp`, `ccf`), which owns the
//! threads, the `wait`/`stage` spans and the per-stage statistics, and
//! turns a stage panic into [`StitchError::Pipeline`]:
//!
//! ```text
//! [read]→Q12→[copier]→Q23→[FFT]→Q34→[BK]→Q45→[Disp]→Q56→[CCF ×N]
//! ```
//!
//! 1. **read** — one thread reads image tiles from the source;
//! 2. **copier** — one thread owns the *copy* stream: leases a transform
//!    buffer from the device pool (blocking — this is the back-pressure
//!    that keeps the pipeline inside GPU memory), uploads the tile
//!    asynchronously into a staging buffer, records an event;
//! 3. **FFT** — one thread owns the *fft* stream: waits on the copy event
//!    and launches the forward transform, staging → half spectrum ("the
//!    pipeline architecture handles [Fermi's cuFFT serialization] by
//!    launching one such computation at a time" — our device enforces it
//!    with its FFT lock);
//! 4. **BK** — one bookkeeping thread resolves dependencies and advances
//!    ready pairs; it decrements per-tile reference counts and recycles
//!    device buffers at zero;
//! 5. **Disp** — one thread owns the *disp* stream: NCC kernel, inverse
//!    FFT, max reduction; only the reduction's scalar result crosses back
//!    to the host;
//! 6. **CCF** — `ccf_threads` host threads, *shared by every pipeline*
//!    (Fig 8 draws each pipeline's Q56 into one CCF stage), disambiguate
//!    the peak with cross-correlation factors and write the final
//!    displacement.
//!
//! Multiple GPUs: the grid is decomposed spatially into column bands, one
//! pipeline per device. A pipeline also reads and transforms the *ghost*
//! column just west of its band so boundary west-pairs need no
//! cross-device traffic (the paper defers peer-to-peer copies to future
//! work).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use stitch_fft::{RealFft2d, C32};
use stitch_gpu::{Device, Event, PooledBuffer};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, FaultTracker, StitchError};
use crate::grid::{GridShape, Traversal};
use crate::opcount::OpCounters;
use crate::pairgraph::PairLedger;
use crate::pciam::{resolve_peaks_oriented_into, CcfScratch, PciamContext, DEFAULT_PEAK_COUNT};
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::{PairKind, TileId};
use stitch_pipeline::{Pipeline, Queue};

/// Configuration for the GPU pipeline.
#[derive(Clone, Debug)]
pub struct PipelinedGpuConfig {
    /// CCF (stage 6) host threads, shared across all pipelines ("based on
    /// the number of available CPU cores").
    pub ccf_threads: usize,
    /// Transform-pool buffers per device; `None` sizes from the grid
    /// partition.
    pub pool_size: Option<usize>,
}

impl Default for PipelinedGpuConfig {
    fn default() -> Self {
        PipelinedGpuConfig {
            ccf_threads: 4,
            pool_size: None,
        }
    }
}

/// The multi-GPU pipelined stitcher.
pub struct PipelinedGpuStitcher {
    pub(crate) devices: Vec<Device>,
    pub(crate) config: PipelinedGpuConfig,
    /// Host stages (`"pipe{id}/read"` … `"ccf.{i}"`) with their stats,
    /// then each device profiler's spans (`"gpu{id}/{stream}"`).
    pub(crate) trace: TraceHandle,
    /// Test seam: a device's FFT stage panics when it meets this tile.
    #[cfg(test)]
    pub(crate) fft_panic_at: Option<TileId>,
}

/// A tile's host pixels with their mean, taken once when the tile is
/// read: the CCF stage centres every pair of the tile on it.
struct HostTile {
    img: Image<u16>,
    mean: f64,
}

/// Stage 1 → 2 payload.
struct ReadTile {
    id: TileId,
    payload: ReadPayload,
}

enum ReadPayload {
    /// Freshly read pixels.
    Img(Arc<HostTile>),
    /// The tile could not be read; downstream stages pass the notice on
    /// so bookkeeping can write its pairs off.
    Failed,
}

/// Stage 2 → 3 payload.
enum CopiedMsg {
    Tile(CopiedTile),
    Failed(TileId),
}

/// Stage 3 → 4 payload.
enum TransformedMsg {
    Tile(TransformedTile),
    Failed(TileId),
}

/// Tile resident on the device.
struct CopiedTile {
    id: TileId,
    img: Arc<HostTile>,
    buf: Arc<PooledBuffer<C32>>,
    copied: Event,
    /// The uploaded pixels stage 3 transforms into `buf`.
    staging: PooledBuffer<u16>,
}

/// A tile whose forward transform is on the device.
struct TransformedTile {
    id: TileId,
    share: TransformedShare,
}

/// Stage 4 → 5 payload: both transforms ready.
struct PairTask {
    a: TransformedShare,
    b: TransformedShare,
    kind: PairKind,
    slot: usize,
}

#[derive(Clone)]
struct TransformedShare {
    img: Arc<HostTile>,
    buf: Arc<PooledBuffer<C32>>,
    transformed: Event,
}

/// Stage 5 → 6 payload: reduction scalars back on the host.
struct CcfTask {
    peaks: Vec<usize>,
    a: Arc<HostTile>,
    b: Arc<HostTile>,
    kind: PairKind,
    slot: usize,
}

/// One device's slice of the grid: owned columns `[col_lo, col_hi)` plus
/// the ghost column `col_lo − 1` it must also transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Partition {
    col_lo: usize,
    col_hi: usize,
}

impl Partition {
    fn read_lo(&self) -> usize {
        self.col_lo.saturating_sub(1)
    }

    /// Pairs this pipeline computes: those whose *second* tile is owned.
    fn owns_pair(&self, b: TileId) -> bool {
        b.col >= self.col_lo && b.col < self.col_hi
    }
}

/// Splits `cols` into `parts` contiguous bands.
fn column_bands(cols: usize, parts: usize) -> Vec<Partition> {
    let parts = parts.min(cols).max(1);
    let base = cols / parts;
    let extra = cols % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(Partition {
            col_lo: start,
            col_hi: start + len,
        });
        start += len;
    }
    out
}

impl PipelinedGpuStitcher {
    /// Creates a pipelined stitcher over `devices` (one pipeline each).
    pub fn new(devices: Vec<Device>, config: PipelinedGpuConfig) -> PipelinedGpuStitcher {
        assert!(!devices.is_empty(), "need at least one device");
        assert!(config.ccf_threads >= 1);
        PipelinedGpuStitcher {
            devices,
            config,
            trace: TraceHandle::disabled(),
            #[cfg(test)]
            fft_panic_at: None,
        }
    }

    /// Single-device convenience.
    pub fn single(device: Device) -> PipelinedGpuStitcher {
        PipelinedGpuStitcher::new(vec![device], PipelinedGpuConfig::default())
    }

    /// Registers one device's five stages on `pipeline`. Returns the
    /// closure that snapshots its queues' statistics after the run.
    #[allow(clippy::too_many_arguments)]
    fn add_device_stages<'env>(
        &'env self,
        pipeline: &mut Pipeline<'env>,
        device: &'env Device,
        partition: Partition,
        source: &'env dyn TileSource,
        counters: &'env Arc<OpCounters>,
        live_peak: &'env AtomicUsize,
        tracker: &'env FaultTracker,
        policy: &'env FailurePolicy,
        q56: &Queue<CcfTask>,
    ) -> impl FnOnce(&TraceHandle) {
        let shape = source.shape();
        let (w, h) = source.tile_dims();
        let n = w * h;
        let spectrum_len = PciamContext::spectrum_len(w, h);
        let plan = Arc::new(RealFft2d::new(device.planner(), w, h));
        let part_cols = partition.col_hi - partition.read_lo();
        let pool_size = self
            .config
            .pool_size
            .unwrap_or(2 * shape.rows.min(part_cols) + 4)
            .max(4);
        let pool = device
            .buffer_pool::<C32>(spectrum_len, pool_size)
            .expect("transform pool fits device memory");
        let q12: Queue<ReadTile> = Queue::new(4);
        let q23: Queue<CopiedMsg> = Queue::new(pool_size);
        let q34: Queue<TransformedMsg> = Queue::new(pool_size);
        let q45: Queue<PairTask> = Queue::new(8);

        // traversal over the partition's columns (ghost included)
        let sub_shape = GridShape::new(shape.rows, part_cols);
        let order: Vec<TileId> = Traversal::ChainedDiagonal
            .order(sub_shape)
            .into_iter()
            .map(|t| TileId::new(t.row, t.col + partition.read_lo()))
            .collect();
        let trace = &self.trace;
        let dev_id = device.id();
        let stage = |name: &str| format!("pipe{dev_id}/{name}");

        // Stage 1 — read.
        {
            let w12 = q12.writer();
            let track = stage("read");
            pipeline.add_source(&track.clone(), move || {
                for id in order {
                    let r0 = trace.now_ns();
                    let loaded = tracker.load(source, id, &policy.retry);
                    trace.record(
                        &track,
                        "io",
                        format!("read r{}c{}", id.row, id.col),
                        r0,
                        trace.now_ns(),
                    );
                    let payload = match loaded {
                        Some(img) => {
                            counters.count_read();
                            let mean = img.mean();
                            ReadPayload::Img(Arc::new(HostTile { img, mean }))
                        }
                        None => ReadPayload::Failed,
                    };
                    if !w12.push(ReadTile { id, payload }) {
                        break;
                    }
                }
            });
        }

        // Stage 2 — copier (owns the copy stream and the buffer pool).
        {
            let w23 = q23.writer();
            let stream = device.create_stream("copy");
            // two staging buffers: the upload of one tile overlaps the
            // transform of the previous one, whose kernel returns its
            // staging lease once it has read it
            let staging = device.buffer_pool::<u16>(n, 2).expect("staging buffers");
            let copier = move |t: ReadTile| {
                let item = match t.payload {
                    ReadPayload::Img(img) => {
                        // back-pressure: blocks until a transform buffer is free
                        let buf = Arc::new(pool.acquire());
                        let staging = staging.acquire();
                        stream.h2d(Arc::new(img.img.pixels().to_vec()), &staging);
                        let copied = stream.record_event();
                        CopiedMsg::Tile(CopiedTile {
                            id: t.id,
                            img,
                            buf,
                            copied,
                            staging,
                        })
                    }
                    ReadPayload::Failed => CopiedMsg::Failed(t.id),
                };
                w23.push(item);
            };
            pipeline.add_stage_with(&stage("copy"), q12.clone(), [copier]);
        }

        // Stage 3 — FFT (owns the fft stream).
        {
            let w34 = q34.writer();
            let stream = device.create_stream("fft");
            let real = device.alloc::<f32>(n).expect("fft workspace");
            let plan = Arc::clone(&plan);
            #[cfg(test)]
            let fft_panic_at = self.fft_panic_at;
            let transformer = move |msg: CopiedMsg| {
                let t = match msg {
                    CopiedMsg::Tile(t) => t,
                    CopiedMsg::Failed(id) => {
                        w34.push(TransformedMsg::Failed(id));
                        return;
                    }
                };
                #[cfg(test)]
                assert_ne!(Some(t.id), fft_panic_at, "injected fft-stage panic");
                stream.wait_event(&t.copied);
                stream.fft2d_forward(&plan, t.staging, &real, t.buf.buffer());
                counters.count_forward_fft(&plan);
                let transformed = stream.record_event();
                w34.push(TransformedMsg::Tile(TransformedTile {
                    id: t.id,
                    share: TransformedShare {
                        img: t.img,
                        buf: t.buf,
                        transformed,
                    },
                }));
            };
            pipeline.add_stage_with(&stage("fft"), q23.clone(), [transformer]);
        }

        // Stage 4 — bookkeeping.
        {
            let w45 = q45.writer();
            let bk_in = q34.clone();
            let mut ledger: PairLedger<TransformedShare> =
                PairLedger::with_owner(shape, |b| partition.owns_pair(b));
            let bookkeeper = move |msg: TransformedMsg| {
                match msg {
                    TransformedMsg::Failed(id) => ledger.fail(id),
                    // a released share recycles its device buffer once
                    // the pair tasks holding clones have executed
                    TransformedMsg::Tile(t) => ledger.arrive(t.id, t.share, |a, b, kind, slot| {
                        w45.push(PairTask {
                            a: a.clone(),
                            b: b.clone(),
                            kind,
                            slot,
                        });
                    }),
                }
                if ledger.is_drained() {
                    live_peak.fetch_max(ledger.peak_live(), Ordering::Relaxed);
                    bk_in.close();
                }
            };
            pipeline.add_stage_with(&stage("bk"), q34.clone(), [bookkeeper]);
        }

        // Stage 5 — displacement (owns the disp stream).
        {
            let w56 = q56.writer();
            let stream = device.create_stream("disp");
            let pair_buf = device.alloc::<C32>(spectrum_len).expect("pair buffer");
            let surface = device.alloc::<f32>(n).expect("correlation surface");
            let displacer = move |task: PairTask| {
                stream.wait_event(&task.a.transformed);
                stream.wait_event(&task.b.transformed);
                let (fa, fb) = (task.a.buf.buffer(), task.b.buf.buffer());
                stream.ncc(fa, fb, &pair_buf, spectrum_len);
                counters.count_elementwise();
                stream.fft2d_inverse(&plan, &pair_buf, &surface);
                counters.count_inverse_fft(&plan);
                let peaks = stream
                    .top_abs_peaks(&surface, n, w, DEFAULT_PEAK_COUNT)
                    .wait();
                counters.count_max_reduction();
                // device buffers release here (Arc drop) — after the
                // kernels that read them have executed
                w56.push(CcfTask {
                    peaks: peaks.iter().map(|p| p.index).collect(),
                    a: task.a.img.clone(),
                    b: task.b.img.clone(),
                    kind: task.kind,
                    slot: task.slot,
                });
            };
            pipeline.add_stage_with(&stage("disp"), q45.clone(), [displacer]);
        }

        move |trace: &TraceHandle| {
            q12.record_to_trace(trace, &format!("gpu{dev_id}.q12"));
            q23.record_to_trace(trace, &format!("gpu{dev_id}.q23"));
            q34.record_to_trace(trace, &format!("gpu{dev_id}.q34"));
            q45.record_to_trace(trace, &format!("gpu{dev_id}.q45"));
        }
    }
}

impl Stitcher for PipelinedGpuStitcher {
    fn name(&self) -> String {
        format!(
            "Pipelined-GPU({} GPU{})",
            self.devices.len(),
            if self.devices.len() == 1 { "" } else { "s" }
        )
    }

    fn threads(&self) -> usize {
        self.config.ccf_threads
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let t0 = Instant::now();
        let shape = source.shape();
        if shape.tiles() == 0 {
            return Ok(StitchResult::empty(shape));
        }
        let counters = OpCounters::new_shared();
        let tracker = FaultTracker::new(shape);
        let result = Mutex::new(StitchResult::empty(shape));
        let live_peak = AtomicUsize::new(0);
        let partitions = column_bands(shape.cols, self.devices.len());

        // Stage 6 is *shared* across the per-GPU pipelines (Fig 8 shows
        // every pipeline's Q56 feeding one CCF worker group), so every
        // device's stages and the CCF stage run on one `Pipeline`.
        let q56: Queue<CcfTask> = Queue::new(16 * self.devices.len());
        let trace = &self.trace;
        let joined = {
            let (counters, result) = (&counters, &result);
            let mut pipeline = Pipeline::with_trace(trace.clone());
            let queue_stats: Vec<_> = self
                .devices
                .iter()
                .zip(&partitions)
                .map(|(device, partition)| {
                    self.add_device_stages(
                        &mut pipeline,
                        device,
                        *partition,
                        source,
                        counters,
                        &live_peak,
                        &tracker,
                        policy,
                        &q56,
                    )
                })
                .collect();
            // Stage 6 — CCF workers (host), shared by all pipelines.
            let ccf_workers = (0..self.config.ccf_threads).map(|worker| {
                let track = format!("ccf.{worker}");
                // per-worker CCF scratch, reused across pairs
                let mut scratch = CcfScratch::default();
                move |task: CcfTask| {
                    let s0 = trace.now_ns();
                    let (a, b) = (&task.a, &task.b);
                    let d = resolve_peaks_oriented_into(
                        task.peaks.iter().copied(),
                        (&a.img, a.mean),
                        (&b.img, b.mean),
                        Some(task.kind),
                        &mut scratch,
                        counters,
                    );
                    trace.record(
                        &track,
                        "compute",
                        format!("ccf slot {}", task.slot),
                        s0,
                        trace.now_ns(),
                    );
                    result.lock().set(task.kind, task.slot, d);
                }
            });
            pipeline.add_stage_with("ccf", q56.clone(), ccf_workers);
            let joined = pipeline.join();
            queue_stats.into_iter().for_each(|record| record(trace));
            joined
        };
        q56.record_to_trace(trace, "q56");
        for device in &self.devices {
            trace.merge_from(device.profiler().trace(), &format!("gpu{}", device.id()));
        }
        joined?;

        let mut result = result.into_inner();
        result.elapsed = t0.elapsed();
        result.ops = counters.snapshot();
        result.peak_live_tiles = live_peak.load(Ordering::Relaxed);
        self.trace
            .set_gauge("peak_live_tiles", result.peak_live_tiles as f64);
        result.health = tracker.finish(policy)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_gpu::DeviceConfig;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn source(rows: usize, cols: usize) -> SyntheticSource {
        SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: 64,
            tile_height: 48,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: 83,
        }))
    }

    fn device(id: usize) -> Device {
        Device::new(id, DeviceConfig::small(256 << 20))
    }

    #[test]
    fn column_bands_cover_grid() {
        let bands = column_bands(10, 3);
        assert_eq!(bands.len(), 3);
        assert_eq!(
            bands[0],
            Partition {
                col_lo: 0,
                col_hi: 4
            }
        );
        assert_eq!(
            bands[2],
            Partition {
                col_lo: 7,
                col_hi: 10
            }
        );
    }

    #[test]
    fn bands_emit_every_pair_exactly_once() {
        let shape = GridShape::new(3, 7);
        for parts in 1..=3 {
            let mut emitted = 0;
            for p in column_bands(shape.cols, parts) {
                let mut ledger: PairLedger<()> = PairLedger::with_owner(shape, |b| p.owns_pair(b));
                for id in shape
                    .ids()
                    .filter(|id| (p.read_lo()..p.col_hi).contains(&id.col))
                {
                    ledger.arrive(id, (), |_, _, _, _| emitted += 1);
                }
                assert!(ledger.is_drained(), "parts={parts} band={p:?}");
            }
            assert_eq!(emitted, shape.pairs(), "parts={parts}");
        }
    }

    #[test]
    fn single_gpu_matches_cpu() {
        let src = source(3, 4);
        let cpu = SimpleCpuStitcher::default().compute_displacements(&src);
        let gpu = PipelinedGpuStitcher::single(device(0)).compute_displacements(&src);
        assert_eq!(gpu.west, cpu.west);
        assert_eq!(gpu.north, cpu.north);
    }

    #[test]
    fn two_gpus_match_one() {
        let src = source(3, 6);
        let one = PipelinedGpuStitcher::single(device(0)).compute_displacements(&src);
        let devices = vec![device(0), device(1)];
        let two = PipelinedGpuStitcher::new(devices.clone(), PipelinedGpuConfig::default())
            .compute_displacements(&src);
        assert!(two.is_complete());
        assert_eq!(two.west, one.west);
        assert_eq!(two.north, one.north);
        for d in devices {
            assert_eq!(d.memory_used(), 0, "device {}", d.id());
        }
    }

    #[test]
    fn recovers_ground_truth() {
        let src = source(4, 4);
        let r = PipelinedGpuStitcher::single(device(0)).compute_displacements(&src);
        assert!(r.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(r.count_errors(&tw, &tn, 0), 0);
    }

    #[test]
    fn uploads_hide_under_kernels_where_simple_gpu_serializes_them() {
        // What Fig 7 and Fig 9 contrast is what a schedule does with its
        // copies. (Kernel *density* also moves with how slow the host
        // stages between two launches happen to be, and with whatever else
        // the machine is running, so it is not asserted.) The link is
        // slowed until an upload (≈ 1 ms) lasts about as long as a tile's
        // kernels, so that one which can overlap a kernel will.
        use crate::simple_gpu::SimpleGpuStitcher;
        use stitch_gpu::profile::SpanKind;
        let cfg = DeviceConfig {
            memory_bytes: 256 << 20,
            h2d_bytes_per_sec: Some(40.0e6),
            ..DeviceConfig::with_transfer_model()
        };
        let src = SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
            grid_rows: 6,
            grid_cols: 6,
            tile_width: 160,
            tile_height: 120,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: 83,
        }));
        // uploads that ran while a kernel was executing
        let hidden_uploads = |device: &Device| {
            let spans = device.profiler().spans();
            let of = |kind| spans.iter().filter(move |s| s.kind == kind);
            of(SpanKind::H2D)
                .filter(|c| {
                    of(SpanKind::Kernel).any(|k| k.start_ns < c.end_ns && c.start_ns < k.end_ns)
                })
                .count()
        };
        // every operation of Simple-GPU is followed by a synchronize
        let dev_simple = Device::new(0, cfg.clone());
        SimpleGpuStitcher::new(dev_simple.clone()).compute_displacements(&src);
        assert_eq!(dev_simple.profiler().peak_concurrency(SpanKind::Kernel), 1);
        assert_eq!(hidden_uploads(&dev_simple), 0);
        let dev_pipe = Device::new(1, cfg);
        PipelinedGpuStitcher::single(dev_pipe.clone()).compute_displacements(&src);
        assert!(hidden_uploads(&dev_pipe) > 0);
    }

    #[test]
    fn fft_stage_panic_is_an_error_not_a_hang() {
        for gpus in [1, 2] {
            let devices: Vec<Device> = (0..gpus).map(device).collect();
            let mut stitcher =
                PipelinedGpuStitcher::new(devices.clone(), PipelinedGpuConfig::default());
            stitcher.fft_panic_at = Some(TileId::new(1, 1));
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run = stitcher.try_compute_displacements(&source(3, 6), &Default::default());
                let _ = tx.send(run.map(|_| ()));
            });
            let run = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a panicking fft stage hung the pipeline");
            match run {
                Err(StitchError::Pipeline { detail }) => assert!(
                    detail.contains("stage 'pipe0/fft' panicked: ") && detail.contains("injected"),
                    "{detail}"
                ),
                other => panic!("gpus={gpus}: {other:?}"),
            }
            for d in devices {
                assert_eq!(d.memory_used(), 0, "gpus={gpus}: device {} leaked", d.id());
            }
        }
    }

    #[test]
    fn device_memory_fully_released() {
        let dev = device(0);
        let src = source(2, 3);
        PipelinedGpuStitcher::single(dev.clone()).compute_displacements(&src);
        assert_eq!(dev.memory_used(), 0);
    }
}
