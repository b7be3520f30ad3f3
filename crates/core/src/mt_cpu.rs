//! MT-CPU: spatial-domain-decomposition SPMD stitcher (paper §IV-A).
//!
//! "We used the Simple-CPU implementation to develop a simple
//! multi-threaded implementation MT CPU. This implementation uses spatial
//! domain decomposition and a thread-variant of the SPMD approach to
//! handle coarse-grained parallelism." — the grid is split into contiguous
//! row bands, one worker per band. Each worker streams through its band
//! row-major keeping only two rows of transforms live; the band's first
//! row additionally recomputes the transforms of the row above it (the
//! classic ghost-row cost of spatial decomposition, a `cols`-per-boundary
//! overhead that vanishes as bands grow).

use std::sync::Arc;

use parking_lot::Mutex;
use stitch_fft::{PlanMode, Planner};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, StitchError};
use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::phase1::Phase1;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::{PairKind, TileId};

/// A cached tile: pixels for the CCF stage, transform for the NCC stage.
/// Dropping the spectrum returns its storage to the shared pool.
type CachedTile = (Arc<Image<u16>>, Arc<PooledSpectrum>);

/// SPMD multi-threaded stitcher.
pub struct MtCpuStitcher {
    pub(crate) threads: usize,
    /// Each band worker's phase-1 layer spans (track `"band{i}"`).
    pub(crate) trace: TraceHandle,
}

impl MtCpuStitcher {
    /// Creates an SPMD stitcher with `threads` workers.
    pub fn new(threads: usize) -> MtCpuStitcher {
        assert!(threads >= 1);
        MtCpuStitcher {
            threads,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Splits `rows` into at most `parts` contiguous bands of near-equal size.
fn row_bands(rows: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(rows).max(1);
    let base = rows / parts;
    let extra = rows % parts;
    let mut bands = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        bands.push((start, start + len));
        start += len;
    }
    bands
}

impl Stitcher for MtCpuStitcher {
    fn name(&self) -> String {
        format!("MT-CPU({})", self.threads)
    }

    fn threads(&self) -> usize {
        self.threads
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
        let planner = Planner::new(PlanMode::Estimate);
        let result = Mutex::new(StitchResult::empty(shape));
        let bands = row_bands(shape.rows, self.threads);
        // one pool shared by all band workers: transforms released by one
        // band are recycled by whichever band acquires next
        let pool = SpectrumPool::new(frame.spectrum_len());

        std::thread::scope(|scope| {
            for (band, &(r0, r1)) in bands.iter().enumerate() {
                let (frame, planner, result) = (&frame, &planner, &result);
                let pool = pool.clone();
                scope.spawn(move || {
                    let track = format!("band{band}");
                    let mut ctx = frame.context(planner, pool, track.clone());
                    // rolling cache: the row above the current one
                    let mut prev_row: Vec<Option<CachedTile>> = vec![None; shape.cols];
                    // ghost row: recompute the transforms of row r0−1 so the
                    // band's first north pairs can be computed locally
                    let ghost_start = r0.saturating_sub(1);
                    for r in ghost_start..r1 {
                        let ghost = r < r0;
                        let mut prev_in_row: Option<CachedTile> = None;
                        #[allow(clippy::needless_range_loop)] // c builds TileIds too
                        for c in 0..shape.cols {
                            let id = TileId::new(r, c);
                            // a failed tile leaves an empty cache slot: the
                            // pairs that needed it are skipped, the rest of
                            // the band streams on
                            let cached: Option<CachedTile> = frame.load(&track, id).map(|img| {
                                let fft = Arc::new(ctx.forward_fft(&img));
                                (Arc::new(img), fft)
                            });
                            if let (false, Some((img, fft))) = (ghost, &cached) {
                                let west = prev_in_row.as_ref().map(|t| (PairKind::West, t));
                                let north = prev_row[c].as_ref().map(|t| (PairKind::North, t));
                                for (kind, (aimg, afft)) in west.into_iter().chain(north) {
                                    let d =
                                        ctx.displacement_oriented(afft, fft, aimg, img, Some(kind));
                                    result.lock().set(kind, shape.index(id), d);
                                }
                            }
                            prev_in_row = cached.clone();
                            prev_row[c] = cached;
                        }
                    }
                });
            }
        });

        // each worker keeps ≤ 2 rows (+1 in-flight tile) live
        let peak_live = bands.len() * (2 * shape.cols + 1).min(shape.tiles());
        frame.finish(result.into_inner(), peak_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn plate(rows: usize, cols: usize) -> SyntheticPlate {
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
            seed: 23,
        })
    }

    #[test]
    fn bands_partition_rows() {
        assert_eq!(row_bands(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(row_bands(2, 8), vec![(0, 1), (1, 2)]);
        assert_eq!(row_bands(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn matches_sequential_results() {
        let src = SyntheticSource::new(plate(4, 4));
        let seq = SimpleCpuStitcher::default().compute_displacements(&src);
        for threads in [1, 2, 3, 4] {
            let mt = MtCpuStitcher::new(threads).compute_displacements(&src);
            assert_eq!(mt.west, seq.west, "threads={threads}");
            assert_eq!(mt.north, seq.north, "threads={threads}");
        }
    }

    #[test]
    fn recovers_ground_truth() {
        let src = SyntheticSource::new(plate(3, 5));
        let r = MtCpuStitcher::new(3).compute_displacements(&src);
        assert!(r.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(r.count_errors(&tw, &tn, 0), 0);
    }

    #[test]
    fn ghost_rows_add_bounded_fft_overhead() {
        let src = SyntheticSource::new(plate(4, 4));
        let r = MtCpuStitcher::new(4).compute_displacements(&src);
        // 4 bands of 1 row: 3 ghost rows → 16 + 12 forward FFTs
        assert_eq!(r.ops.forward_ffts, 16 + 12);
        // pair work is never duplicated
        assert_eq!(r.ops.inverse_ffts, (2 * 16 - 4 - 4) as u64);
    }

    #[test]
    fn more_threads_than_rows() {
        let src = SyntheticSource::new(plate(2, 3));
        let r = MtCpuStitcher::new(16).compute_displacements(&src);
        assert!(r.is_complete());
    }
}
