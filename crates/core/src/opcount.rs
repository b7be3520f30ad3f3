//! Operation counters validating the paper's Table I cost model.
//!
//! Table I gives, for an `n × m` grid of `h × w` tiles:
//!
//! | operation  | count            | per-op cost     |
//! |------------|------------------|-----------------|
//! | Read       | `n·m`            | `h·w`           |
//! | FFT-2D     | `n·m`            | `h·w·log(h·w)`  |
//! | ⊗ (NCC)    | `2nm − n − m`    | `h·w`           |
//! | FFT-2D⁻¹   | `2nm − n − m`    | `h·w·log(h·w)`  |
//! | /max       | `2nm − n − m`    | `h·w`           |
//! | CCF₁..₄    | `2nm − n − m`    | `h·w`           |
//!
//! Every stitcher implementation threads an [`OpCounters`] through its
//! kernels; integration tests assert the observed counts equal the
//! formulas (baselines that recompute transforms legitimately exceed the
//! FFT row — that surplus *is* their inefficiency, and the Table I bench
//! prints both).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stitch_fft::{Direction, RealFft2d, RowBand};

/// Thread-safe operation tally.
#[derive(Default, Debug)]
pub struct OpCounters {
    reads: AtomicU64,
    forward_ffts: AtomicU64,
    elementwise_mults: AtomicU64,
    inverse_ffts: AtomicU64,
    max_reductions: AtomicU64,
    ccf_groups: AtomicU64,
    ccf_probes: AtomicU64,
    ccf_pixels: AtomicU64,
    fft_real_mults: AtomicU64,
    windowed_pairs: AtomicU64,
    window_fallbacks: AtomicU64,
    coarse_pairs: AtomicU64,
    coarse_fallbacks: AtomicU64,
}

impl OpCounters {
    /// A fresh shared counter set.
    pub fn new_shared() -> Arc<OpCounters> {
        Arc::new(OpCounters::default())
    }

    /// Records a tile read.
    pub fn count_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a forward 2-D FFT executed through `plan`.
    pub fn count_forward_fft(&self, plan: &RealFft2d<f32>) {
        self.forward_ffts.fetch_add(1, Ordering::Relaxed);
        let mults = plan.real_mults(Direction::Forward);
        self.fft_real_mults.fetch_add(mults, Ordering::Relaxed);
    }

    /// Records one element-wise normalized conjugate multiply (⊗).
    pub fn count_elementwise(&self) {
        self.elementwise_mults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an inverse 2-D FFT executed through `plan` onto the rows
    /// of `band`: the whole column pass, the row pass over `band`.
    pub fn count_inverse_fft(&self, plan: &RealFft2d<f32>, band: RowBand) {
        let skipped = plan.row_pass_mults(Direction::Inverse, band.rest().rows());
        self.count_inverse(plan.real_mults(Direction::Inverse) - skipped);
    }

    /// Records the pass that finishes an inverse over `band`: the row
    /// pass over the rows outside it.
    pub fn count_inverse_rest(&self, plan: &RealFft2d<f32>, band: RowBand) {
        self.count_inverse(plan.row_pass_mults(Direction::Inverse, band.rest().rows()));
    }

    fn count_inverse(&self, mults: u64) {
        self.inverse_ffts.fetch_add(1, Ordering::Relaxed);
        self.fft_real_mults.fetch_add(mults, Ordering::Relaxed);
    }

    /// Records a pair searched within its stage window — `coarse`: with
    /// its Fourier half on binned tiles — and whether it fell back.
    pub fn count_windowed_pair(&self, coarse: bool, fell_back: bool) {
        let (pairs, fallbacks) = match coarse {
            true => (&self.coarse_pairs, &self.coarse_fallbacks),
            false => (&self.windowed_pairs, &self.window_fallbacks),
        };
        pairs.fetch_add(1, Ordering::Relaxed);
        fallbacks.fetch_add(u64::from(fell_back), Ordering::Relaxed);
    }

    /// Records a max reduction.
    pub fn count_max_reduction(&self) {
        self.max_reductions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one CCF₁..₄ candidate-disambiguation group that evaluated
    /// the CCF kernel `probes` times over `pixels` overlap pixels in all.
    pub fn count_ccf_group(&self, probes: u64, pixels: u64) {
        self.ccf_groups.fetch_add(1, Ordering::Relaxed);
        self.ccf_probes.fetch_add(probes, Ordering::Relaxed);
        self.ccf_pixels.fetch_add(pixels, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            reads: self.reads.load(Ordering::Relaxed),
            forward_ffts: self.forward_ffts.load(Ordering::Relaxed),
            elementwise_mults: self.elementwise_mults.load(Ordering::Relaxed),
            inverse_ffts: self.inverse_ffts.load(Ordering::Relaxed),
            max_reductions: self.max_reductions.load(Ordering::Relaxed),
            ccf_groups: self.ccf_groups.load(Ordering::Relaxed),
            ccf_probes: self.ccf_probes.load(Ordering::Relaxed),
            ccf_pixels: self.ccf_pixels.load(Ordering::Relaxed),
            fft_real_mults: self.fft_real_mults.load(Ordering::Relaxed),
            windowed_pairs: self.windowed_pairs.load(Ordering::Relaxed),
            window_fallbacks: self.window_fallbacks.load(Ordering::Relaxed),
            coarse_pairs: self.coarse_pairs.load(Ordering::Relaxed),
            coarse_fallbacks: self.coarse_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// Immutable counter snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Tile reads.
    pub reads: u64,
    /// Forward 2-D FFTs, each at the resolution it ran: one per tile,
    /// and two more per coarse fallback.
    pub forward_ffts: u64,
    /// Element-wise NCC multiplies.
    pub elementwise_mults: u64,
    /// Inverse 2-D FFTs: one per pair, and one more per window fallback
    /// (the pass that finishes the rows the windowed one skipped) and
    /// per coarse fallback.
    pub inverse_ffts: u64,
    /// Max reductions: one per pair, and one more per window or coarse
    /// fallback.
    pub max_reductions: u64,
    /// CCF candidate groups: one per pair, and one more per window or
    /// coarse fallback.
    pub ccf_groups: u64,
    /// CCF kernel evaluations inside those groups (memo hits excluded):
    /// a pure function of the tiles, like the pixel count below.
    pub ccf_probes: u64,
    /// Overlap pixels those evaluations visited; Table I says `h·w`.
    pub ccf_pixels: u64,
    /// Real multiplications inside the 2-D FFTs above, forward and
    /// inverse: each plan's plan-time count, so a pure function of grid
    /// and tile size — the deterministic measure of FFT *work*. A
    /// transform counts at the resolution it ran, an inverse the rows it
    /// ran. A GPU schedule's window fallback replays the window on the
    /// host uncounted and is counted as the CPU path's work, the rows the
    /// window skipped, so every schedule counts the same.
    pub fft_real_mults: u64,
    /// Pairs searched within their stage window at full resolution
    /// (DESIGN.md § PCIAM); a coarse fallback's redo is one.
    pub windowed_pairs: u64,
    /// Windowed pairs whose winner did not convince, searched again over
    /// the whole surface.
    pub window_fallbacks: u64,
    /// Pairs whose Fourier half ran on 2×2-binned tiles (DESIGN.md §
    /// PCIAM "Coarse-to-fine").
    pub coarse_pairs: u64,
    /// Coarse pairs whose winner was doubtful, redone at full resolution.
    pub coarse_fallbacks: u64,
}

impl OpCounts {
    /// The Table I prediction for an `n × m` grid (minimal-work
    /// implementations: transforms computed once per tile). Table I does
    /// not price CCF probes, FFT arithmetic or stage windows, so those
    /// counts stay 0.
    pub fn predicted(rows: usize, cols: usize) -> OpCounts {
        let nm = (rows * cols) as u64;
        let pairs = if rows == 0 || cols == 0 {
            0
        } else {
            (2 * rows * cols - rows - cols) as u64
        };
        OpCounts {
            reads: nm,
            forward_ffts: nm,
            elementwise_mults: pairs,
            inverse_ffts: pairs,
            max_reductions: pairs,
            ccf_groups: pairs,
            ..OpCounts::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_matches_table1_formulas() {
        let p = OpCounts::predicted(42, 59);
        assert_eq!(p.reads, 42 * 59);
        assert_eq!(p.forward_ffts, 42 * 59);
        let pairs = 2 * 42 * 59 - 42 - 59;
        assert_eq!(p.elementwise_mults, pairs);
        assert_eq!(p.inverse_ffts, pairs);
        assert_eq!(p.max_reductions, pairs);
        assert_eq!(p.ccf_groups, pairs);
        assert_eq!((p.ccf_probes, p.ccf_pixels, p.fft_real_mults), (0, 0, 0));
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = OpCounters::new_shared();
        let mut hs = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            hs.push(std::thread::spawn(move || {
                let plan = RealFft2d::<f32>::new(&stitch_fft::Planner::default(), 8, 4);
                for _ in 0..100 {
                    c.count_read();
                    c.count_forward_fft(&plan);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.reads, 400);
        assert_eq!(s.forward_ffts, 400);
        assert!(s.fft_real_mults > 0 && s.fft_real_mults.is_multiple_of(400));
        assert_eq!(s.ccf_groups, 0);
    }
}
