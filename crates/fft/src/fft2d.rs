//! 2-D FFT via row-column decomposition with a cache-blocked transpose.
//!
//! This is the operation at the heart of the stitching computation: every
//! tile gets one forward 2-D transform and every adjacent pair one inverse
//! 2-D transform (paper Fig 1, Table I — `(3nm − n − m)` transforms total
//! for an n×m grid).

use std::sync::Arc;

use crate::complex::C64;
use crate::plan::{FftPlan, Planner};
use crate::radix::Direction;

/// Transpose block edge. 32×32 complex doubles = 16 KiB, comfortably
/// resident in L1 while both the source row and destination column streams
/// stay hot.
const BLOCK: usize = 32;

/// Out-of-place transpose of a `rows × cols` row-major matrix into a
/// `cols × rows` row-major matrix, processed in cache-sized blocks.
pub fn transpose(src: &[C64], dst: &mut [C64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for rb in (0..rows).step_by(BLOCK) {
        for cb in (0..cols).step_by(BLOCK) {
            let r_end = (rb + BLOCK).min(rows);
            let c_end = (cb + BLOCK).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// A planned 2-D FFT for a fixed `width × height` and direction.
///
/// Data is row-major: element `(x, y)` lives at index `y * width + x`.
/// Like the 1-D plans, execution is unscaled; `inverse(forward(X)) =
/// (width·height)·X`. Use [`Fft2d::normalize`] after an inverse transform.
pub struct Fft2d {
    width: usize,
    height: usize,
    direction: Direction,
    row_plan: Arc<FftPlan<f64>>,
    col_plan: Arc<FftPlan<f64>>,
}

impl Fft2d {
    /// Plans a `width × height` transform using `planner`'s cache.
    pub fn new(planner: &Planner, width: usize, height: usize, direction: Direction) -> Fft2d {
        assert!(width > 0 && height > 0, "degenerate transform size");
        Fft2d {
            width,
            height,
            direction,
            row_plan: planner.plan(width, direction),
            col_plan: planner.plan(height, direction),
        }
    }

    /// Image width (fast axis).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height (slow axis).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total element count `width × height`.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// True only for the degenerate empty case (never constructed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plan direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Executes the transform in place. `scratch` must be the same length
    /// as `data`; its contents on entry are ignored and clobbered.
    pub fn process(&self, data: &mut [C64], scratch: &mut [C64]) {
        let (w, h) = (self.width, self.height);
        assert_eq!(data.len(), w * h, "data length != width*height");
        assert_eq!(scratch.len(), w * h, "scratch length != width*height");
        // 1. Transform rows: data → scratch (same layout).
        for (src, dst) in data.chunks_exact(w).zip(scratch.chunks_exact_mut(w)) {
            self.row_plan.process(src, dst);
        }
        // 2. Transpose w×h → h×w: scratch → data.
        transpose(scratch, data, h, w);
        // 3. Transform columns (now rows of length h): data → scratch.
        for (src, dst) in data.chunks_exact(h).zip(scratch.chunks_exact_mut(h)) {
            self.col_plan.process(src, dst);
        }
        // 4. Transpose back: scratch → data.
        transpose(scratch, data, w, h);
    }

    /// Divides every element by `width × height` — the normalization an
    /// inverse transform needs for a true round trip.
    pub fn normalize(&self, data: &mut [C64]) {
        let s = 1.0 / (self.width * self.height) as f64;
        for v in data.iter_mut() {
            *v = v.scale(s);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::radix::dft_naive;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|k| c64((k % 9) as f64 - 4.0, (k % 4) as f64))
            .collect()
    }

    /// Naive 2-D DFT for verification.
    pub(crate) fn dft2d_naive(data: &[C64], w: usize, h: usize, dir: Direction) -> Vec<C64> {
        let mut rows = vec![C64::ZERO; w * h];
        for y in 0..h {
            dft_naive(
                &data[y * w..(y + 1) * w],
                &mut rows[y * w..(y + 1) * w],
                dir,
            );
        }
        let mut out = vec![C64::ZERO; w * h];
        let mut col_in = vec![C64::ZERO; h];
        let mut col_out = vec![C64::ZERO; h];
        for x in 0..w {
            for y in 0..h {
                col_in[y] = rows[y * w + x];
            }
            dft_naive(&col_in, &mut col_out, dir);
            for y in 0..h {
                out[y * w + x] = col_out[y];
            }
        }
        out
    }

    #[test]
    fn transpose_round_trip() {
        let (r, c) = (37, 53);
        let m = ramp(r * c);
        let mut t = vec![C64::ZERO; r * c];
        let mut back = vec![C64::ZERO; r * c];
        transpose(&m, &mut t, r, c);
        transpose(&t, &mut back, c, r);
        assert_eq!(
            m.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>(),
            back.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>()
        );
        // spot-check a few elements
        assert_eq!(t[5 * r + 7].re, m[7 * c + 5].re);
    }

    #[test]
    fn matches_naive_2d() {
        let planner = Planner::default();
        for (w, h) in [(4usize, 4usize), (8, 6), (12, 10), (29, 16), (13, 20)] {
            let mut data = ramp(w * h);
            let reference = dft2d_naive(&data, w, h, Direction::Forward);
            let mut scratch = vec![C64::ZERO; w * h];
            Fft2d::new(&planner, w, h, Direction::Forward).process(&mut data, &mut scratch);
            assert!(
                max_err(&data, &reference) < 1e-8 * (w * h) as f64,
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn round_trip_with_normalize() {
        let planner = Planner::default();
        let (w, h) = (24, 18);
        let original = ramp(w * h);
        let mut data = original.clone();
        let mut scratch = vec![C64::ZERO; w * h];
        let inverse = Fft2d::new(&planner, w, h, Direction::Inverse);
        Fft2d::new(&planner, w, h, Direction::Forward).process(&mut data, &mut scratch);
        inverse.process(&mut data, &mut scratch);
        inverse.normalize(&mut data);
        assert!(max_err(&data, &original) < 1e-9 * (w * h) as f64);
    }

    #[test]
    fn delta_gives_flat_spectrum() {
        let planner = Planner::default();
        let (w, h) = (16, 12);
        let mut data = vec![C64::ZERO; w * h];
        data[0] = C64::ONE;
        let mut scratch = vec![C64::ZERO; w * h];
        Fft2d::new(&planner, w, h, Direction::Forward).process(&mut data, &mut scratch);
        for v in &data {
            assert!((*v - C64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn non_square_prime_dims() {
        // exercise Bluestein inside the 2-D path
        let planner = Planner::default();
        let (w, h) = (37, 41);
        let mut data = ramp(w * h);
        let reference = dft2d_naive(&data, w, h, Direction::Forward);
        let mut scratch = vec![C64::ZERO; w * h];
        Fft2d::new(&planner, w, h, Direction::Forward).process(&mut data, &mut scratch);
        assert!(max_err(&data, &reference) < 1e-7 * (w * h) as f64);
    }

    #[test]
    #[should_panic]
    fn bad_scratch_len_panics() {
        let planner = Planner::default();
        let f = Fft2d::new(&planner, 8, 8, Direction::Forward);
        let mut d = vec![C64::ZERO; 64];
        let mut s = vec![C64::ZERO; 32];
        f.process(&mut d, &mut s);
    }
}
