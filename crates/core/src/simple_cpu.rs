//! Simple-CPU: the sequential reference implementation (paper §IV-A).
//!
//! One thread walks the grid in a configurable traversal order, computes
//! each tile's forward transform once, and frees it "as soon as the
//! relative displacements of its eastern, southern, western, and northern
//! neighbors were computed" — the early-release strategy whose
//! effectiveness depends on the traversal order (chained-diagonal wins,
//! and became the default).

use stitch_fft::{PlanMode, Planner};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, StitchError};
use crate::grid::Traversal;
use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::pairgraph::PairLedger;
use crate::phase1::Phase1;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};

/// Sequential single-threaded stitcher.
pub struct SimpleCpuStitcher {
    pub(crate) traversal: Traversal,
    pub(crate) plan_mode: PlanMode,
    /// Phase-1 layer spans (track `"cpu/main"`).
    pub(crate) trace: TraceHandle,
}

impl Default for SimpleCpuStitcher {
    fn default() -> Self {
        SimpleCpuStitcher::new(Traversal::ChainedDiagonal, PlanMode::Estimate)
    }
}

/// A tile resident in memory: its pixels (needed by the CCF stage) and
/// its forward transform. When the ledger releases it the
/// `PooledSpectrum` drops and its storage returns to the context's
/// pool for the next tile (§IV-A recycling).
struct LiveTile {
    img: Image<u16>,
    fft: PooledSpectrum,
}

impl SimpleCpuStitcher {
    /// Creates a sequential stitcher with the given traversal order and
    /// FFT planning effort.
    pub fn new(traversal: Traversal, plan_mode: PlanMode) -> SimpleCpuStitcher {
        SimpleCpuStitcher {
            traversal,
            plan_mode,
            trace: TraceHandle::disabled(),
        }
    }
}

impl Stitcher for SimpleCpuStitcher {
    fn name(&self) -> String {
        "Simple-CPU".to_string()
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let frame = Phase1::start(source, policy, &self.trace);
        let shape = source.shape();
        let pool = SpectrumPool::new(frame.spectrum_len());
        let planner = Planner::new(self.plan_mode);
        let mut ctx = frame.context(&planner, pool, "cpu/main".into());
        let mut result = StitchResult::empty(shape);
        let mut ledger: PairLedger<LiveTile> = PairLedger::new(shape);

        for id in self.traversal.order(shape) {
            let Some(img) = frame.load("cpu/main", id) else {
                ledger.fail(id);
                continue;
            };
            let fft = ctx.forward_fft(&img);
            ledger.arrive(id, LiveTile { img, fft }, |a, b, kind, slot| {
                let d = ctx.displacement_oriented(&a.fft, &b.fft, &a.img, &b.img, Some(kind));
                result.set(kind, slot, d);
            });
        }
        debug_assert!(ledger.is_drained(), "all transforms must be released");
        frame.finish(result, ledger.peak_live())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_image::{ScanConfig, SyntheticPlate};

    pub(crate) fn test_plate(rows: usize, cols: usize) -> SyntheticPlate {
        SyntheticPlate::generate(ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: 64,
            tile_height: 48,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            // picked so every grid shape used by these tests has texture in
            // all overlaps (exact phase-1 recovery, no featureless pairs)
            seed: 14,
        })
    }

    #[test]
    fn recovers_ground_truth_exactly() {
        let plate = test_plate(3, 4);
        let src = SyntheticSource::new(plate);
        let result = SimpleCpuStitcher::default().compute_displacements(&src);
        assert!(result.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(
            result.count_errors(&tw, &tn, 0),
            0,
            "west={:?}",
            result.west
        );
    }

    #[test]
    fn op_counts_match_table1() {
        let plate = test_plate(3, 3);
        let src = SyntheticSource::new(plate);
        let result = SimpleCpuStitcher::default().compute_displacements(&src);
        // Table I prices six operations; probe and multiply counts are not among them
        let table1 = crate::opcount::OpCounts {
            ccf_probes: 0,
            ccf_pixels: 0,
            fft_real_mults: 0,
            ..result.ops
        };
        assert_eq!(table1, crate::opcount::OpCounts::predicted(3, 3));
        assert!(result.ops.ccf_probes > 0 && result.ops.ccf_pixels > result.ops.ccf_probes);
    }

    #[test]
    fn all_traversals_agree() {
        let plate = test_plate(3, 3);
        let src = SyntheticSource::new(plate);
        let reference =
            SimpleCpuStitcher::new(Traversal::Row, PlanMode::Estimate).compute_displacements(&src);
        for t in Traversal::ALL {
            let r = SimpleCpuStitcher::new(t, PlanMode::Estimate).compute_displacements(&src);
            assert_eq!(r.west, reference.west, "{t:?}");
            assert_eq!(r.north, reference.north, "{t:?}");
        }
    }

    #[test]
    fn chained_diagonal_bounds_memory() {
        let plate = test_plate(4, 6);
        let src = SyntheticSource::new(plate);
        let r = SimpleCpuStitcher::new(Traversal::ChainedDiagonal, PlanMode::Estimate)
            .compute_displacements(&src);
        // peak live tiles should stay near the smaller grid dimension
        assert!(r.peak_live_tiles <= 2 * 4 + 2, "peak {}", r.peak_live_tiles);
        let row =
            SimpleCpuStitcher::new(Traversal::Row, PlanMode::Estimate).compute_displacements(&src);
        assert!(r.peak_live_tiles <= row.peak_live_tiles);
    }

    #[test]
    fn single_row_grid() {
        let plate = test_plate(1, 5);
        let src = SyntheticSource::new(plate);
        let r = SimpleCpuStitcher::default().compute_displacements(&src);
        assert!(r.is_complete());
        assert!(r.north.iter().all(|d| d.is_none()));
        assert_eq!(r.west.iter().filter(|d| d.is_some()).count(), 4);
    }
}
