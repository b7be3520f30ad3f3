//! The lane-unrolled auto-vectorizable backend.
//!
//! The NCC and the integer co-moments come straight from
//! [`crate::vectorops`]; the 2-D FFT runs the shared engine one register
//! wide (`[f32; 8]`, `[f64; 4]`) — eight (four) rows or columns per pass,
//! an independent body per lane. LLVM turns these into packed SIMD at
//! whatever width the target offers without a single intrinsic — the
//! portable floor every platform gets.

use crate::complex::C32;
use crate::vectorops;

use super::{ComputeBackend, FftLanes};

/// Lane-unrolled loops LLVM auto-vectorizes (`--backend portable`).
pub struct PortableBackend;

impl ComputeBackend for PortableBackend {
    fn name(&self) -> &'static str {
        "portable"
    }

    fn ncc(&self, a: &[C32], b: &[C32], out: &mut [C32]) {
        vectorops::ncc_vectorized(a, b, out);
    }

    fn comoment_rect(
        &self,
        a: &[u16],
        b: &[u16],
        stride: usize,
        rows: usize,
        cols: usize,
    ) -> [i64; 5] {
        vectorops::comoment_rect(a, b, stride, rows, cols)
    }

    fn fft_lanes(&self) -> FftLanes {
        FftLanes::Wide
    }
}
