//! Pipelined-CPU: the CPU-only pipeline implementation (paper §IV-B).
//!
//! "To better compare CPU and GPU performance, we implemented a
//! Pipelined-CPU version which includes all the memory mechanisms in its
//! GPU counterpart. The CPU pipeline consists of three stages: reader,
//! displacement/fft, and bookkeeping."
//!
//! Structure (bounded monitor queues between stages of one
//! `stitch_pipeline::Pipeline`, which owns the threads, the `wait`/`stage`
//! spans and the per-stage statistics, and turns a stage panic into
//! [`StitchError::Pipeline`]):
//!
//! ```text
//! traversal ─Q01→ [read ×R] ─Q12→ [fft ×N] ⇄ [bk ×1]
//! ```
//!
//! * the reader loads tiles from disk, throttled by a transform-pool
//!   semaphore — the CPU-side equivalent of the GPU buffer pool, sized
//!   past the smallest grid dimension so chained-diagonal traversal can
//!   always recycle (§IV-B);
//! * fft/displacement workers compute every ready pair's displacement,
//!   then transform the tile they were handed (and notify bookkeeping);
//! * bookkeeping owns the dependency state: when both transforms of an
//!   adjacent pair exist it emits the pair computation, and it drops each
//!   tile's resources when its reference count reaches zero — releasing a
//!   pool permit back to the reader.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stitch_fft::{PlanMode, Planner};
use stitch_gpu::semaphore::{OwnedPermit, Semaphore};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, StitchError};
use crate::grid::Traversal;
use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::pairgraph::PairLedger;
use crate::phase1::Phase1;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::{PairKind, TileId};
use stitch_pipeline::{Pipeline, Queue};

/// Shim, read by no code. There is one spectrum layout and nothing
/// selects it; this enum and the `transform` field of
/// [`PipelinedCpuConfig`] survive only because the frozen benchmark
/// (`benchmark/src/flows.rs`, its `core.transform.{real,padded}.phase1_ms`
/// rows) names them. The `[benchmark]` PR that drops those now-redundant
/// rows deletes both.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub enum TransformKind {
    #[default]
    Complex,
    Real,
    PaddedComplex,
}

/// Configuration for the CPU pipeline.
#[derive(Clone, Debug)]
pub struct PipelinedCpuConfig {
    /// Worker threads in the fft/displacement stage.
    pub threads: usize,
    /// Reader threads.
    pub read_threads: usize,
    /// Transform pool size (max in-flight tiles, at least 4); `None` sizes
    /// it from the grid ([`crate::GridShape::transform_pool`] — host RAM
    /// affords slack well beyond the paper's "exceed the smallest grid
    /// dimension" minimum, and a tight pool stalls the reader on recycle
    /// latency).
    pub pool_size: Option<usize>,
    /// Inert; see [`TransformKind`].
    #[doc(hidden)]
    pub transform: TransformKind,
    /// Capacity floor for the inter-stage queues. `None` keeps the
    /// defaults (id queue 64; work/bookkeeping queues floored at 8 on top
    /// of their pool-derived sizes). The pool-derived terms are never
    /// reduced — they are what makes the work/bookkeeping cycle
    /// deadlock-free — so any floor ≥ 1 is safe. The stress harness sweeps
    /// this to exercise close/pop orderings under tight buffering.
    pub queue_floor: Option<usize>,
}

impl PipelinedCpuConfig {
    /// A sensible default with `threads` compute workers.
    pub fn with_threads(threads: usize) -> PipelinedCpuConfig {
        PipelinedCpuConfig {
            threads,
            read_threads: 1,
            pool_size: None,
            transform: Default::default(),
            queue_floor: None,
        }
    }
}

/// The Pipelined-CPU stitcher.
pub struct PipelinedCpuStitcher {
    pub(crate) config: PipelinedCpuConfig,
    pub(crate) trace: TraceHandle,
    /// Shared pool and planner ([`Resources`](crate::Resources)).
    pub(crate) shared_spectra: Option<SpectrumPool>,
    pub(crate) shared_planner: Option<Arc<Planner>>,
    /// Test seam: the fft stage panics when it meets this tile.
    #[cfg(test)]
    pub(crate) fft_panic_at: Option<TileId>,
}

#[derive(Clone)]
struct TileData {
    img: Arc<Image<u16>>,
    /// Dropping the last clone returns the spectrum to the shared pool.
    fft: Arc<PooledSpectrum>,
}

/// Work items for the fft/displacement stage.
enum Work {
    /// Transform this freshly read tile.
    Fft(TileId, Arc<Image<u16>>, OwnedPermit),
    /// A pair joined the ready list.
    PairReady,
}

/// Both transforms `(a, b)` are ready: compute the displacement of `slot`.
type ReadyPair = (TileData, TileData, PairKind, usize);

/// Bookkeeping input: a completed transform, or notice that a tile is
/// permanently unavailable (so its pairs must be written off).
enum BkMsg {
    Done(FftDone),
    Failed(TileId),
}

/// A completed transform.
struct FftDone {
    id: TileId,
    data: TileData,
    permit: OwnedPermit,
}

/// What bookkeeping holds per resident tile; dropping it releases the
/// tile's pool permit back to the reader.
struct BookEntry {
    data: TileData,
    _permit: OwnedPermit,
}

impl PipelinedCpuStitcher {
    /// Creates a pipeline stitcher with `threads` compute workers.
    pub fn new(threads: usize) -> PipelinedCpuStitcher {
        Self::with_config(PipelinedCpuConfig::with_threads(threads))
    }

    /// Creates a pipeline stitcher with an explicit configuration.
    pub fn with_config(config: PipelinedCpuConfig) -> PipelinedCpuStitcher {
        assert!(config.threads >= 1 && config.read_threads >= 1);
        PipelinedCpuStitcher {
            config,
            trace: TraceHandle::disabled(),
            shared_spectra: None,
            shared_planner: None,
            #[cfg(test)]
            fft_panic_at: None,
        }
    }

    /// Records every stage's spans into `trace`: reader tracks
    /// `"read.{i}"`, compute-worker tracks `"fft.{i}"`, bookkeeping track
    /// `"bk.0"`, each with the pipeline's `"wait"`/`"stage"` spans around
    /// the bodies' phase-1 layer spans (`read`; `fft_fwd`, `ncc`,
    /// `fft_inv`, `peak`, `ccf`); per-stage and per-queue statistics are
    /// recorded after the run.
    pub fn with_trace(mut self, trace: TraceHandle) -> PipelinedCpuStitcher {
        self.trace = trace;
        self
    }
}

impl Stitcher for PipelinedCpuStitcher {
    fn name(&self) -> String {
        format!("Pipelined-CPU({})", self.config.threads)
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let shape = source.shape();
        if shape.tiles() == 0 {
            return Ok(StitchResult::empty(shape));
        }
        let frame = Phase1::start(source, policy, &self.trace);
        let planner = match &self.shared_planner {
            Some(p) => Arc::clone(p),
            None => Arc::new(Planner::new(PlanMode::Estimate)),
        };
        let pool_size = self
            .config
            .pool_size
            .map_or(shape.transform_pool(), |n| n.max(4));
        let pool = Arc::new(Semaphore::new(pool_size));
        // spectra released by bookkeeping recycle through a pool shared by
        // all fft/displacement workers (externally owned when the batch
        // scheduler injected a quota pool)
        let spectrum_len = frame.spectrum_len();
        let spectra = match &self.shared_spectra {
            Some(p) => {
                assert_eq!(
                    p.buf_len(),
                    spectrum_len,
                    "shared spectrum pool sized for different tile dims"
                );
                if let Some(cap) = p.cap() {
                    assert!(
                        cap >= pool_size,
                        "bounded spectrum pool cap {cap} below transform pool {pool_size}: \
                         the run would stall on acquire"
                    );
                }
                p.clone()
            }
            None => SpectrumPool::new(spectrum_len),
        };
        let floor = self.config.queue_floor;
        let q_ids: Queue<TileId> = Queue::new(floor.unwrap_or(64).max(1));
        let q_work: Queue<Work> = Queue::new((2 * pool_size).max(floor.unwrap_or(8).max(1)));
        let q_bk: Queue<BkMsg> = Queue::new(pool_size.max(floor.unwrap_or(8).max(1)));

        // Ready pairs bypass the FIFO: a worker finishes them all before it
        // starts the transform it was handed, because a finished pair
        // releases two spectra and a started transform pins one more. In
        // queue order a fast-read grid had every spectrum live at once.
        let ready: Mutex<VecDeque<ReadyPair>> = Mutex::new(VecDeque::new());
        let result = Mutex::new(StitchResult::empty(shape));
        let live_peak = AtomicUsize::new(0);
        let trace = &self.trace;
        let joined = {
            let (frame, pool, result, live_peak, ready) =
                (&frame, &pool, &result, &live_peak, &ready);
            let mut pipeline = Pipeline::with_trace(trace.clone());

            // Stage 0 — feed tile ids in traversal order.
            let ids = Traversal::ChainedDiagonal.order(shape);
            let w_ids = q_ids.writer();
            pipeline.add_source("traversal", move || {
                for id in ids {
                    if !w_ids.push(id) {
                        break;
                    }
                }
            });

            // Stage 1 — reader(s): disk → memory, throttled by the pool.
            let readers = (0..self.config.read_threads).map(|rt| {
                let (w_work, w_bk) = (q_work.writer(), q_bk.writer());
                let track = format!("read.{rt}");
                move |id: TileId| {
                    let permit = pool.acquire_owned();
                    match frame.load(&track, id) {
                        Some(img) => {
                            w_work.push(Work::Fft(id, Arc::new(img), permit));
                        }
                        None => {
                            // tell bookkeeping directly so it can write off
                            // this tile's pairs; the permit goes straight
                            // back to the pool
                            drop(permit);
                            w_bk.push(BkMsg::Failed(id));
                        }
                    }
                }
            });
            pipeline.add_stage_with("read", q_ids.clone(), readers);

            // Stage 2 — fft/displacement workers.
            let workers = (0..self.config.threads).map(|t| {
                let w_bk = q_bk.writer();
                let mut ctx = frame.context(&planner, spectra.clone(), format!("fft.{t}"));
                #[cfg(test)]
                let fft_panic_at = self.fft_panic_at;
                move |work: Work| {
                    // (a call, so that the lock is not held over the pair)
                    let next_ready = || ready.lock().pop_front();
                    while let Some((a, b, kind, slot)) = next_ready() {
                        let d =
                            ctx.displacement_oriented(&a.fft, &b.fft, &a.img, &b.img, Some(kind));
                        result.lock().set(kind, slot, d);
                    }
                    if let Work::Fft(id, img, permit) = work {
                        #[cfg(test)]
                        assert_ne!(Some(id), fft_panic_at, "injected fft-stage panic");
                        let fft = Arc::new(ctx.forward_fft(&img));
                        let done = FftDone {
                            id,
                            data: TileData { img, fft },
                            permit,
                        };
                        w_bk.push(BkMsg::Done(done));
                    }
                }
            });
            pipeline.add_stage_with("fft", q_work.clone(), workers);

            // Stage 3 — bookkeeping: dependency resolution + recycling.
            let mut ledger: PairLedger<BookEntry> = PairLedger::new(shape);
            let (w_work, bk_in) = (q_work.writer(), q_bk.clone());
            let bookkeeper = move |msg: BkMsg| {
                match msg {
                    BkMsg::Failed(id) => ledger.fail(id),
                    // emit every pair that just became ready; a released
                    // entry returns its pool permit
                    BkMsg::Done(done) => ledger.arrive(
                        done.id,
                        BookEntry {
                            data: done.data,
                            _permit: done.permit,
                        },
                        |a, b, kind, slot| {
                            let pair = (a.data.clone(), b.data.clone(), kind, slot);
                            ready.lock().push_back(pair);
                            w_work.push(Work::PairReady);
                        },
                    ),
                }
                if ledger.is_drained() {
                    // every tile is accounted for: end this stage (the
                    // workers still feed its input, so it would never
                    // close by itself), which drops the work-queue writer
                    // and lets the workers finish
                    live_peak.store(ledger.peak_live(), Ordering::Relaxed);
                    bk_in.close();
                }
            };
            pipeline.add_stage_with("bk", q_bk.clone(), [bookkeeper]);

            pipeline.join()
        };
        q_ids.record_to_trace(trace, "read.in");
        q_work.record_to_trace(trace, "fft.in");
        q_bk.record_to_trace(trace, "bk.in");
        joined?;
        frame.finish(result.into_inner(), live_peak.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn source(rows: usize, cols: usize, seed: u64) -> SyntheticSource {
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
            seed,
        }))
    }

    #[test]
    fn matches_sequential() {
        let src = source(3, 4, 51);
        let seq = SimpleCpuStitcher::default().compute_displacements(&src);
        for threads in [1, 2, 4] {
            let r = PipelinedCpuStitcher::new(threads).compute_displacements(&src);
            assert_eq!(r.west, seq.west, "threads={threads}");
            assert_eq!(r.north, seq.north, "threads={threads}");
        }
    }

    #[test]
    fn recovers_ground_truth() {
        let src = source(4, 4, 52);
        let r = PipelinedCpuStitcher::new(4).compute_displacements(&src);
        assert!(r.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(r.count_errors(&tw, &tn, 0), 0);
    }

    #[test]
    fn pool_bounds_live_tiles() {
        let src = source(4, 6, 53);
        let cfg = PipelinedCpuConfig {
            pool_size: Some(6),
            ..PipelinedCpuConfig::with_threads(4)
        };
        let r = PipelinedCpuStitcher::with_config(cfg).compute_displacements(&src);
        assert!(r.is_complete());
        assert!(
            r.peak_live_tiles <= 6,
            "peak {} > pool 6",
            r.peak_live_tiles
        );
    }

    #[test]
    fn minimal_pool_does_not_deadlock() {
        let src = source(3, 8, 54);
        // the paper requires the pool to exceed the smallest grid
        // dimension; with eager pair completion two anti-diagonals can be
        // live at once, so the safe minimum is 2·min_dim + 2
        let cfg = PipelinedCpuConfig {
            pool_size: Some(8),
            ..PipelinedCpuConfig::with_threads(2)
        };
        let r = PipelinedCpuStitcher::with_config(cfg).compute_displacements(&src);
        assert!(r.is_complete());
    }

    #[test]
    fn tight_queue_floor_still_matches_sequential() {
        let src = source(3, 4, 51);
        let seq = SimpleCpuStitcher::default().compute_displacements(&src);
        for floor in [1, 2, 5] {
            let cfg = PipelinedCpuConfig {
                queue_floor: Some(floor),
                ..PipelinedCpuConfig::with_threads(3)
            };
            let r = PipelinedCpuStitcher::with_config(cfg).compute_displacements(&src);
            assert_eq!(r.west, seq.west, "floor={floor}");
            assert_eq!(r.north, seq.north, "floor={floor}");
        }
    }

    #[test]
    fn op_counts_match_table1() {
        let src = source(3, 3, 55);
        let r = PipelinedCpuStitcher::new(2).compute_displacements(&src);
        // Table I prices six operations; probe and multiply counts are not among them
        let table1 = crate::opcount::OpCounts {
            ccf_probes: 0,
            ccf_pixels: 0,
            fft_real_mults: 0,
            ..r.ops
        };
        assert_eq!(table1, crate::opcount::OpCounts::predicted(3, 3));
    }

    #[test]
    fn multiple_reader_threads() {
        let src = source(3, 4, 58);
        let seq = PipelinedCpuStitcher::new(2).compute_displacements(&src);
        let r = PipelinedCpuStitcher::with_config(PipelinedCpuConfig {
            read_threads: 3,
            ..PipelinedCpuConfig::with_threads(2)
        })
        .compute_displacements(&src);
        assert_eq!(r.west, seq.west);
        assert_eq!(r.north, seq.north);
        assert_eq!(r.ops.reads, 12);
    }

    #[test]
    fn fft_stage_panic_is_an_error_not_a_hang() {
        for threads in [1, 2] {
            let spectra = SpectrumPool::new(crate::PciamContext::spectrum_len((64, 48), None));
            let stitcher = PipelinedCpuStitcher {
                shared_spectra: Some(spectra.clone()),
                fft_panic_at: Some(TileId::new(1, 2)),
                ..PipelinedCpuStitcher::new(threads)
            };
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run =
                    stitcher.try_compute_displacements(&source(3, 4, 59), &Default::default());
                let _ = tx.send(run.map(|_| ()));
            });
            let run = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a panicking fft stage hung the pipeline");
            match run {
                Err(StitchError::Pipeline { detail }) => assert!(
                    detail.contains("stage 'fft' panicked: ") && detail.contains("injected"),
                    "{detail}"
                ),
                other => panic!("threads={threads}: {other:?}"),
            }
            assert_eq!(spectra.leased(), 0, "threads={threads}");
        }
    }

    #[test]
    fn single_tile_grid() {
        let src = source(1, 1, 56);
        let r = PipelinedCpuStitcher::new(2).compute_displacements(&src);
        assert!(r.is_complete());
        assert_eq!(r.ops.forward_ffts, 1);
        assert_eq!(r.ops.inverse_ffts, 0);
    }
}
