//! Fiji-plugin-style baseline stitcher.
//!
//! Models the *cost structure* of the ImageJ/Fiji stitching plugin the
//! paper benchmarks against (Preibisch et al., multi-threaded, same
//! mathematical operators, §II/§V): every adjacent pair is processed
//! independently — both tiles are re-read and both forward transforms
//! recomputed per pair, with no transform caching across pairs. That
//! redundancy (≈2× the FFTs, ≈2× the reads) is the algorithmic half of
//! the gap in Table II; the rest (JVM, boxed pixels) is not reproduced
//! here, so the measured ratio understates the paper's 261x but preserves
//! the ordering. Spectrum *storage* still recycles through the shared
//! host pool — the modeled cost is the redundant reads and FFTs, not
//! allocator churn.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use stitch_fft::{PlanMode, Planner};
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, StitchError};
use crate::hostpool::SpectrumPool;
use crate::phase1::Phase1;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::{PairKind, TileId};

/// Per-pair-recomputation baseline, optionally multi-threaded (the plugin
/// is "fully multithreaded taking advantage of multi-core CPUs").
pub struct FijiStyleStitcher {
    pub(crate) threads: usize,
    /// Each worker's phase-1 layer spans (track `"pair{i}"`).
    pub(crate) trace: TraceHandle,
}

impl FijiStyleStitcher {
    /// Creates the baseline with `threads` workers.
    pub fn new(threads: usize) -> FijiStyleStitcher {
        assert!(threads >= 1);
        FijiStyleStitcher {
            threads,
            trace: TraceHandle::disabled(),
        }
    }
}

impl Stitcher for FijiStyleStitcher {
    fn name(&self) -> String {
        format!("Fiji-style({})", self.threads)
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let frame = Phase1::start(source, policy, &self.trace);
        let shape = source.shape();
        // enumerate all pairs: (a, b, kind) with a west/north of b
        let mut pairs: Vec<(TileId, TileId, PairKind)> = Vec::with_capacity(shape.pairs());
        for id in shape.ids() {
            if let Some(west) = shape.west(id) {
                pairs.push((west, id, PairKind::West));
            }
            if let Some(north) = shape.north(id) {
                pairs.push((north, id, PairKind::North));
            }
        }
        let result = Mutex::new(StitchResult::empty(shape));
        let cursor = AtomicUsize::new(0);
        let planner = Planner::new(PlanMode::Estimate);
        let pool = SpectrumPool::new(frame.spectrum_len());

        std::thread::scope(|scope| {
            for worker in 0..self.threads.min(pairs.len()).max(1) {
                let (frame, pairs, cursor, planner, result) =
                    (&frame, &pairs, &cursor, &planner, &result);
                let pool = pool.clone();
                scope.spawn(move || {
                    let track = format!("pair{worker}");
                    // a fresh context per worker; no *transform* caching
                    // across pairs (the modeled redundancy), but spectrum
                    // storage recycles through the shared pool
                    let mut ctx = frame.context(planner, pool, track.clone());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(a, b, kind)) = pairs.get(i) else {
                            break;
                        };
                        // per-pair re-read and re-transform: the plugin's
                        // redundancy, on purpose. Either read failing
                        // voids just this pair.
                        let Some(img_a) = frame.load(&track, a) else {
                            continue;
                        };
                        let Some(img_b) = frame.load(&track, b) else {
                            continue;
                        };
                        let fa = ctx.forward_fft(&img_a);
                        let fb = ctx.forward_fft(&img_b);
                        let d = ctx.displacement_oriented(&fa, &fb, &img_a, &img_b, Some(kind));
                        result.lock().set(kind, shape.index(b), d);
                    }
                });
            }
        });
        frame.finish(result.into_inner(), 2 * self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn source() -> SyntheticSource {
        SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
            grid_rows: 3,
            grid_cols: 3,
            tile_width: 64,
            tile_height: 48,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: 37,
        }))
    }

    #[test]
    fn same_displacements_as_simple_cpu() {
        let src = source();
        let simple = SimpleCpuStitcher::default().compute_displacements(&src);
        let fiji = FijiStyleStitcher::new(2).compute_displacements(&src);
        assert_eq!(fiji.west, simple.west);
        assert_eq!(fiji.north, simple.north);
    }

    #[test]
    fn does_double_the_transform_work() {
        let src = source();
        let r = FijiStyleStitcher::new(1).compute_displacements(&src);
        let pairs = (2 * 9 - 3 - 3) as u64;
        // 2 reads and 2 forward FFTs per pair instead of 1 per tile
        assert_eq!(r.ops.reads, 2 * pairs);
        assert_eq!(r.ops.forward_ffts, 2 * pairs);
        assert_eq!(r.ops.inverse_ffts, pairs);
        // vs the minimal-work prediction
        let predicted = crate::opcount::OpCounts::predicted(3, 3);
        assert!(r.ops.forward_ffts > predicted.forward_ffts);
    }
}
