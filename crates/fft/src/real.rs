//! Real-to-complex and complex-to-real transforms.
//!
//! Microscopy tiles are real-valued, so their spectra are Hermitian and only
//! `n/2 + 1` of the `n` frequency bins are independent. The paper lists
//! real-to-complex transforms as a planned optimization (§VI-A: "using real
//! to complex transforms ... will further improve performance by doing less
//! work; it will also reduce the computation's memory footprint"). This
//! module implements that extension; the `fft_padding`/`ablation` benches
//! measure it against the complex path.
//!
//! Even lengths use the classic pack-two-reals-into-one-complex trick
//! (one length-`n/2` complex FFT); odd lengths fall back to a full complex
//! transform internally but expose the same half-spectrum API.

use std::sync::Arc;

use crate::complex::{c64, C64};
use crate::plan::{FftPlan, Planner};
use crate::radix::Direction;
use crate::scratch;

/// Number of independent spectrum bins for a length-`n` real signal.
#[inline]
pub fn spectrum_len(n: usize) -> usize {
    n / 2 + 1
}

/// A planned 1-D real-input FFT (forward: `n` reals → `n/2+1` complex;
/// inverse: back to `n` reals, scaled so the round trip is the identity).
pub struct RealFft {
    n: usize,
    /// Even-length fast path: length n/2 complex plans.
    half_fwd: Option<Arc<FftPlan>>,
    half_inv: Option<Arc<FftPlan>>,
    /// Odd-length fallback: full-length complex plans.
    full_fwd: Option<Arc<FftPlan>>,
    full_inv: Option<Arc<FftPlan>>,
    /// Twiddles `e^{-2πi j/n}` for the even-length recombination.
    twiddle: Vec<C64>,
}

impl RealFft {
    /// Plans a length-`n` real transform (`n ≥ 1`).
    pub fn new(planner: &Planner, n: usize) -> RealFft {
        assert!(n > 0, "transform length must be positive");
        if n.is_multiple_of(2) && n >= 2 {
            let half = n / 2;
            let step = -2.0 * std::f64::consts::PI / n as f64;
            RealFft {
                n,
                half_fwd: Some(planner.plan(half, Direction::Forward)),
                half_inv: Some(planner.plan(half, Direction::Inverse)),
                full_fwd: None,
                full_inv: None,
                twiddle: (0..=half).map(|j| C64::cis(step * j as f64)).collect(),
            }
        } else {
            RealFft {
                n,
                half_fwd: None,
                half_inv: None,
                full_fwd: Some(planner.plan(n, Direction::Forward)),
                full_inv: Some(planner.plan(n, Direction::Inverse)),
                twiddle: Vec::new(),
            }
        }
    }

    /// Signal length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 case (never constructed).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Spectrum length `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        spectrum_len(self.n)
    }

    /// Forward transform: `input.len() == n`, `output.len() == n/2+1`.
    /// Matches the first `n/2+1` bins of the full complex DFT exactly
    /// (unscaled).
    pub fn forward(&self, input: &[f64], output: &mut [C64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.spectrum_len());
        if let Some(fwd) = &self.half_fwd {
            let half = self.n / 2;
            scratch::with_scratch(2 * half, |buf| {
                let (packed, z) = buf.split_at_mut(half);
                // Pack x[2k] + i·x[2k+1] and transform at half length.
                for (k, p) in packed.iter_mut().enumerate() {
                    *p = c64(input[2 * k], input[2 * k + 1]);
                }
                fwd.process(packed, z);
                // Recombine: X[j] = E_j + W^j·O_j with
                // E_j = (Z_j + conj(Z_{half−j}))/2, O_j = −i(Z_j − conj(Z_{half−j}))/2.
                for (j, out) in output.iter_mut().enumerate() {
                    let zj = z[j % half];
                    let zc = z[(half - j % half) % half].conj();
                    let e = (zj + zc).scale(0.5);
                    let o = (zj - zc).scale(0.5).mul_neg_i();
                    *out = e + self.twiddle[j] * o;
                }
            })
        } else {
            scratch::with_scratch(2 * self.n, |buf| {
                let (full, spec) = buf.split_at_mut(self.n);
                for (f, &r) in full.iter_mut().zip(input) {
                    *f = c64(r, 0.0);
                }
                self.full_fwd.as_ref().unwrap().process(full, spec);
                output.copy_from_slice(&spec[..self.spectrum_len()]);
            })
        }
    }

    /// Inverse transform: `input.len() == n/2+1` Hermitian half-spectrum,
    /// `output.len() == n` reals. *Scaled*: `inverse(forward(x)) == x`.
    pub fn inverse(&self, input: &[C64], output: &mut [f64]) {
        assert_eq!(input.len(), self.spectrum_len());
        assert_eq!(output.len(), self.n);
        if let Some(inv) = &self.half_inv {
            let half = self.n / 2;
            scratch::with_scratch(2 * half, |buf| {
                let (z, packed) = buf.split_at_mut(half);
                // Rebuild Z_j from the half-spectrum, then one half-length
                // inverse FFT recovers the packed signal.
                for (j, zj) in z.iter_mut().enumerate() {
                    let xj = input[j];
                    let xc = input[half - j].conj();
                    let e = (xj + xc).scale(0.5);
                    let o = (xj - xc).scale(0.5) * self.twiddle[j].conj();
                    *zj = e + o.mul_i();
                }
                inv.process(z, packed);
                let s = 1.0 / half as f64;
                for (k, p) in packed.iter().enumerate() {
                    output[2 * k] = p.re * s;
                    output[2 * k + 1] = p.im * s;
                }
            })
        } else {
            scratch::with_scratch(2 * self.n, |buf| {
                let (spec, full) = buf.split_at_mut(self.n);
                // Mirror the half-spectrum into a full Hermitian spectrum.
                spec[..self.spectrum_len()].copy_from_slice(input);
                for j in self.spectrum_len()..self.n {
                    spec[j] = input[self.n - j].conj();
                }
                self.full_inv.as_ref().unwrap().process(spec, full);
                let s = 1.0 / self.n as f64;
                for (o, f) in output.iter_mut().zip(full.iter()) {
                    *o = f.re * s;
                }
            })
        }
    }
}

/// A planned 2-D real-input FFT: `w × h` reals → `(w/2+1) × h` complex
/// (row-major, the reduced axis is the fast one).
pub struct RealFft2d {
    width: usize,
    height: usize,
    row: RealFft,
    col_fwd: Arc<FftPlan>,
    col_inv: Arc<FftPlan>,
}

impl RealFft2d {
    /// Plans a `width × height` real transform.
    pub fn new(planner: &Planner, width: usize, height: usize) -> RealFft2d {
        assert!(width > 0 && height > 0);
        RealFft2d {
            width,
            height,
            row: RealFft::new(planner, width),
            col_fwd: planner.plan(height, Direction::Forward),
            col_inv: planner.plan(height, Direction::Inverse),
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spectrum width `w/2 + 1`.
    fn spectrum_width(&self) -> usize {
        spectrum_len(self.width)
    }

    /// Total spectrum element count `(w/2+1) × h`.
    pub fn spectrum_len(&self) -> usize {
        self.spectrum_width() * self.height
    }

    /// Forward: `input.len() == w·h` (row-major reals) →
    /// `output.len() == (w/2+1)·h`. Unscaled.
    pub fn forward(&self, input: &[f64], output: &mut [C64]) {
        assert_eq!(input.len(), self.width * self.height);
        assert_eq!(output.len(), self.spectrum_len());
        let sw = self.spectrum_width();
        // r2c along rows.
        for (y, row) in input.chunks_exact(self.width).enumerate() {
            self.row.forward(row, &mut output[y * sw..(y + 1) * sw]);
        }
        // c2c along columns of the reduced spectrum.
        scratch::with_scratch(2 * self.height, |buf| {
            let (col_in, col_out) = buf.split_at_mut(self.height);
            for x in 0..sw {
                for y in 0..self.height {
                    col_in[y] = output[y * sw + x];
                }
                self.col_fwd.process(col_in, col_out);
                for y in 0..self.height {
                    output[y * sw + x] = col_out[y];
                }
            }
        })
    }

    /// Inverse: half-spectrum back to `w·h` reals. *Scaled* so the round
    /// trip is the identity.
    pub fn inverse(&self, input: &[C64], output: &mut [f64]) {
        assert_eq!(input.len(), self.spectrum_len());
        assert_eq!(output.len(), self.width * self.height);
        let sw = self.spectrum_width();
        scratch::with_scratch(self.spectrum_len() + 2 * self.height, |buf| {
            let (spec, cols) = buf.split_at_mut(self.spectrum_len());
            let (col_in, col_out) = cols.split_at_mut(self.height);
            spec.copy_from_slice(input);
            // inverse c2c along columns (unscaled), then scale by 1/h.
            let s = 1.0 / self.height as f64;
            for x in 0..sw {
                for y in 0..self.height {
                    col_in[y] = spec[y * sw + x];
                }
                self.col_inv.process(col_in, col_out);
                for y in 0..self.height {
                    spec[y * sw + x] = col_out[y].scale(s);
                }
            }
            // c2r along rows (RealFft::inverse is already scaled).
            for (y, row) in output.chunks_exact_mut(self.width).enumerate() {
                self.row.inverse(&spec[y * sw..(y + 1) * sw], row);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::fft_forward;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k * 7) % 13) as f64 - 6.0 + 0.5 * ((k % 5) as f64))
            .collect()
    }

    #[test]
    fn forward_matches_complex_fft_even() {
        for n in [2usize, 8, 16, 30, 64, 348] {
            let x = signal(n);
            let r = RealFft::new(&Planner::default(), n);
            let mut half = vec![C64::ZERO; r.spectrum_len()];
            r.forward(&x, &mut half);
            let full = fft_forward(&x.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
            for j in 0..r.spectrum_len() {
                assert!((half[j] - full[j]).abs() < 1e-8 * n as f64, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn forward_matches_complex_fft_odd() {
        for n in [1usize, 3, 7, 15, 29] {
            let x = signal(n);
            let r = RealFft::new(&Planner::default(), n);
            let mut half = vec![C64::ZERO; r.spectrum_len()];
            r.forward(&x, &mut half);
            let full = fft_forward(&x.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
            for j in 0..r.spectrum_len() {
                assert!(
                    (half[j] - full[j]).abs() < 1e-9 * n.max(4) as f64,
                    "n={n} j={j}"
                );
            }
        }
    }

    #[test]
    fn round_trip_1d() {
        for n in [2usize, 9, 16, 31, 100, 1040] {
            let x = signal(n);
            let r = RealFft::new(&Planner::default(), n);
            let mut spec = vec![C64::ZERO; r.spectrum_len()];
            let mut back = vec![0.0; n];
            r.forward(&x, &mut spec);
            r.inverse(&spec, &mut back);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn round_trip_2d() {
        for (w, h) in [(8usize, 6usize), (13, 9), (16, 16), (30, 22)] {
            let x = signal(w * h);
            let r = RealFft2d::new(&Planner::default(), w, h);
            let mut spec = vec![C64::ZERO; r.spectrum_len()];
            let mut back = vec![0.0; w * h];
            r.forward(&x, &mut spec);
            r.inverse(&spec, &mut back);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-7, "{w}x{h}");
            }
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = signal(24);
        let r = RealFft::new(&Planner::default(), 24);
        let mut spec = vec![C64::ZERO; r.spectrum_len()];
        r.forward(&x, &mut spec);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
    }

    #[test]
    fn spectrum_width_reduction() {
        let r = RealFft2d::new(&Planner::default(), 1040, 16);
        assert_eq!(r.spectrum_width(), 521);
        assert_eq!(r.spectrum_len(), 521 * 16);
    }
}
