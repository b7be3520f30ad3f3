//! The lane-unrolled auto-vectorizable backend.
//!
//! The NCC and the co-moment rows come straight from [`crate::vectorops`]
//! (the PR-4-era vector-shaped loops); the 2-D FFT runs the shared engine
//! over `[f64; 4]` lanes — four rows or columns per pass, an independent
//! body per lane. LLVM turns these into packed SIMD at whatever width the
//! target offers without a single intrinsic — the portable floor every
//! platform gets.

use crate::complex::C64;
use crate::real::RealFft2d;
use crate::vectorops;

use super::ComputeBackend;

/// Lane-unrolled loops LLVM auto-vectorizes (`--backend portable`).
pub struct PortableBackend;

impl ComputeBackend for PortableBackend {
    fn name(&self) -> &'static str {
        "portable"
    }

    fn ncc(&self, a: &[C64], b: &[C64], out: &mut [C64]) {
        vectorops::ncc_vectorized(a, b, out);
    }

    fn comoment_rect(
        &self,
        a: &[u16],
        b: &[u16],
        stride: usize,
        rows: usize,
        cols: usize,
        (ca, cb): (f64, f64),
    ) -> [f64; 5] {
        vectorops::comoment_rect(a, b, stride, rows, cols, |ra, rb| {
            vectorops::comoment_u16_vectorized(ra, rb, ca, cb)
        })
    }

    fn real_fft2d_forward(&self, plan: &RealFft2d, input: &[f64], output: &mut [C64]) {
        plan.forward_lanes::<[f64; 4]>(input, output);
    }

    fn real_fft2d_inverse(&self, plan: &RealFft2d, spectrum: &mut [C64], output: &mut [f64]) {
        plan.inverse_lanes::<[f64; 4]>(spectrum, output);
    }
}
