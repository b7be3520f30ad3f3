//! The sequential reference backend.
//!
//! Every kernel is a plain scalar loop — the ground truth the other
//! backends are measured and verified (testkit backend oracle) against.
//! The NCC shares its expression DAG with the vectorized backends and is
//! bit-identical to them; the co-moments are the exact integer loop every
//! backend's must equal. The 2-D FFT runs the shared engine one lane wide.

use crate::complex::C32;
use crate::vectorops;

use super::{ComputeBackend, FftLanes};

/// Sequential reference loops (`--backend scalar`).
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn ncc(&self, a: &[C32], b: &[C32], out: &mut [C32]) {
        vectorops::ncc_scalar(a, b, out);
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
        FftLanes::One
    }
}
