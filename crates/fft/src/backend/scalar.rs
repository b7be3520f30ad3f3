//! The sequential reference backend.
//!
//! Every kernel is a plain scalar loop — the ground truth the other
//! backends are measured and verified (testkit backend oracle) against.
//! The element-wise kernels and the max reduction share their expression
//! DAGs with the vectorized backends and are bit-identical to them; the
//! co-moment reductions accumulate in strict left-to-right order, which
//! the lane-split backends re-associate.

use crate::complex::C64;
use crate::vectorops;

use super::ComputeBackend;

/// Sequential reference loops (`--backend scalar`).
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn ncc(&self, a: &[C64], b: &[C64], out: &mut [C64]) {
        vectorops::ncc_scalar(a, b, out);
    }

    fn max_norm_sqr(&self, data: &[C64]) -> Option<(usize, f64)> {
        vectorops::max_norm_sqr_scalar(data)
    }

    fn comoment(&self, a: &[f64], b: &[f64]) -> [f64; 5] {
        vectorops::comoment_scalar(a, b)
    }

    fn comoment_u16(&self, a: &[u16], b: &[u16], ca: f64, cb: f64) -> [f64; 5] {
        vectorops::comoment_u16_scalar(a, b, ca, cb)
    }

    fn radix2_pass(&self, out: &mut [C64], m: usize, twiddles: &[C64], tw_step: usize) {
        radix2_scalar(out, m, twiddles, tw_step);
    }

    fn radix4_pass(
        &self,
        out: &mut [C64],
        m: usize,
        twiddles: &[C64],
        tw_step: usize,
        forward: bool,
    ) {
        radix4_scalar(out, m, twiddles, tw_step, forward);
    }
}

/// The radix-2 combine loop, verbatim from the mixed-radix engine. Also
/// the inline small-`m` path in `radix.rs` — one definition keeps the
/// DAGs provably identical.
#[inline]
pub(crate) fn radix2_scalar(out: &mut [C64], m: usize, twiddles: &[C64], tw_step: usize) {
    for j in 0..m {
        let a = out[j];
        let b = out[m + j] * twiddles[j * tw_step];
        out[j] = a + b;
        out[m + j] = a - b;
    }
}

/// The radix-4 combine loop, verbatim from the mixed-radix engine.
#[inline]
pub(crate) fn radix4_scalar(
    out: &mut [C64],
    m: usize,
    twiddles: &[C64],
    tw_step: usize,
    forward: bool,
) {
    let n_total = twiddles.len();
    for j in 0..m {
        let a = out[j];
        let b = out[m + j] * twiddles[j * tw_step];
        let c = out[2 * m + j] * twiddles[(2 * j * tw_step) % n_total];
        let d = out[3 * m + j] * twiddles[(3 * j * tw_step) % n_total];
        let ac_p = a + c;
        let ac_m = a - c;
        let bd_p = b + d;
        // forward: W_4 = -i ; inverse: W_4 = +i
        let bd_m = if forward {
            (b - d).mul_neg_i()
        } else {
            (b - d).mul_i()
        };
        out[j] = ac_p + bd_p;
        out[m + j] = ac_m + bd_m;
        out[2 * m + j] = ac_p - bd_p;
        out[3 * m + j] = ac_m - bd_m;
    }
}
