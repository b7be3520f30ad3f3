//! The explicit-AVX2 backend (x86_64 only).
//!
//! Hand-written `core::arch` intrinsics for the element-wise phase-1
//! hot loops — the modern form of the paper's §IV-A SSE kernels — and
//! the shared four-lane FFT engine compiled with AVX2 enabled (no
//! per-ISA butterfly: it is vectorised across transforms). Each kernel
//! evaluates exactly the expression DAG of its scalar/portable twin:
//!
//! * no FMA — products and sums stay separately rounded
//!   (`_mm256_mul_pd` + `_mm256_add_pd`, never `_mm256_fmadd_pd`);
//! * `_mm256_div_pd` and `_mm256_sqrt_pd` are correctly rounded, so
//!   `re/mag` and `√(re²+im²)` match their scalar counterparts bit for
//!   bit;
//! * the max reduction funnels its four lanes through the same merge
//!   epilogue as the portable version, so tie-breaks are identical by
//!   construction.
//!
//! Only the co-moment kernels are *not* bit-identical to the scalar
//! backend: they re-associate the sum into four lanes — but they share
//! the portable backend's exact summation order, so `portable` and
//! `simd` co-moments are bit-identical to each other (pinned by test).
//!
//! Every public entry point re-checks [`super::simd_supported`] and
//! falls back to the portable implementation, so constructing
//! [`SimdBackend`] on a non-AVX2 host is safe, merely pointless.

use core::arch::x86_64::*;

use crate::complex::C64;
use crate::real::RealFft2d;
use crate::vectorops::{self, merge_lanes_and_tail, LANES};

use super::ComputeBackend;

/// Explicit AVX2 intrinsics (`--backend simd`), selected by `auto` when
/// the host supports them.
pub struct SimdBackend;

impl ComputeBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn ncc(&self, a: &[C64], b: &[C64], out: &mut [C64]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), out.len());
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host; lengths checked above.
            unsafe { ncc_avx2(a, b, out) }
        } else {
            vectorops::ncc_vectorized(a, b, out);
        }
    }

    fn max_norm_sqr(&self, data: &[C64]) -> Option<(usize, f64)> {
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host.
            unsafe { max_norm_sqr_avx2(data) }
        } else {
            vectorops::max_norm_sqr_vectorized(data)
        }
    }

    fn comoment(&self, a: &[f64], b: &[f64]) -> [f64; 5] {
        assert_eq!(a.len(), b.len());
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host; lengths checked above.
            unsafe { comoment_avx2(a, b) }
        } else {
            vectorops::comoment_vectorized(a, b)
        }
    }

    fn comoment_u16(&self, a: &[u16], b: &[u16], ca: f64, cb: f64) -> [f64; 5] {
        assert_eq!(a.len(), b.len());
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host; lengths checked above.
            unsafe { comoment_u16_avx2(a, b, ca, cb) }
        } else {
            vectorops::comoment_u16_vectorized(a, b, ca, cb)
        }
    }

    fn real_fft2d_forward(&self, plan: &RealFft2d, input: &[f64], output: &mut [C64]) {
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host.
            unsafe { real_fft2d_forward_avx2(plan, input, output) }
        } else {
            plan.forward_lanes::<[f64; 4]>(input, output);
        }
    }

    fn real_fft2d_inverse(&self, plan: &RealFft2d, spectrum: &mut [C64], output: &mut [f64]) {
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host.
            unsafe { real_fft2d_inverse_avx2(plan, spectrum, output) }
        } else {
            plan.inverse_lanes::<[f64; 4]>(spectrum, output);
        }
    }
}

/// The four-lane FFT engine with AVX2 code generation: the whole
/// transform inlines into this frame, so each `[f64; 4]` operation is
/// one 256-bit instruction. AVX2 only — without the `fma` feature no
/// multiply-add can be contracted, so lanes round as the portable build
/// does.
#[target_feature(enable = "avx2")]
fn real_fft2d_forward_avx2(plan: &RealFft2d, input: &[f64], output: &mut [C64]) {
    plan.forward_lanes::<[f64; 4]>(input, output);
}

/// Inverse twin of [`real_fft2d_forward_avx2`].
#[target_feature(enable = "avx2")]
fn real_fft2d_inverse_avx2(plan: &RealFft2d, spectrum: &mut [C64], output: &mut [f64]) {
    plan.inverse_lanes::<[f64; 4]>(spectrum, output);
}

/// Deinterleaves four packed complex (`r0 i0 r1 i1 | r2 i2 r3 i3`) into
/// `(re, im)` vectors.
///
/// # Safety
/// AVX required.
#[inline(always)]
unsafe fn deinterleave4(lo: __m256d, hi: __m256d) -> (__m256d, __m256d) {
    let t0 = _mm256_permute2f128_pd(lo, hi, 0x20); // r0 i0 r2 i2
    let t1 = _mm256_permute2f128_pd(lo, hi, 0x31); // r1 i1 r3 i3
    let re = _mm256_unpacklo_pd(t0, t1); // r0 r1 r2 r3
    let im = _mm256_unpackhi_pd(t0, t1); // i0 i1 i2 i3
    (re, im)
}

/// Inverse of [`deinterleave4`].
///
/// # Safety
/// AVX required.
#[inline(always)]
unsafe fn interleave4(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
    let t0 = _mm256_unpacklo_pd(re, im); // r0 i0 r2 i2
    let t1 = _mm256_unpackhi_pd(re, im); // r1 i1 r3 i3
    let lo = _mm256_permute2f128_pd(t0, t1, 0x20); // r0 i0 r1 i1
    let hi = _mm256_permute2f128_pd(t0, t1, 0x31); // r2 i2 r3 i3
    (lo, hi)
}

/// NCC over four complex per iteration. Bit-identical to
/// [`vectorops::ncc_scalar`].
///
/// # Safety
/// AVX2 must be available; all three slices must share one length.
#[target_feature(enable = "avx2")]
unsafe fn ncc_avx2(a: &[C64], b: &[C64], out: &mut [C64]) {
    let n = a.len();
    let chunks = n / LANES;
    let floor = _mm256_set1_pd(1e-300);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    for c in 0..chunks {
        let i = c * LANES;
        let (are, aim) = deinterleave4(
            _mm256_loadu_pd(ap.add(i) as *const f64),
            _mm256_loadu_pd(ap.add(i + 2) as *const f64),
        );
        let (bre, bim) = deinterleave4(
            _mm256_loadu_pd(bp.add(i) as *const f64),
            _mm256_loadu_pd(bp.add(i + 2) as *const f64),
        );
        // re = a.re·b.re + a.im·b.im ; im = a.im·b.re − a.re·b.im
        let re = _mm256_add_pd(_mm256_mul_pd(are, bre), _mm256_mul_pd(aim, bim));
        let im = _mm256_sub_pd(_mm256_mul_pd(aim, bre), _mm256_mul_pd(are, bim));
        // mag = √(re² + im²); underflowed lanes blend to +0.0
        let mag = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
        let keep = _mm256_cmp_pd::<_CMP_GT_OQ>(mag, floor);
        let ore = _mm256_and_pd(_mm256_div_pd(re, mag), keep);
        let oim = _mm256_and_pd(_mm256_div_pd(im, mag), keep);
        let (lo, hi) = interleave4(ore, oim);
        _mm256_storeu_pd(op.add(i) as *mut f64, lo);
        _mm256_storeu_pd(op.add(i + 2) as *mut f64, hi);
    }
    let done = chunks * LANES;
    vectorops::ncc_scalar(&a[done..], &b[done..], &mut out[done..]);
}

/// Four-lane max reduction over squared magnitudes; funnels into the
/// shared lane-merge epilogue so tie-breaks match the portable version
/// exactly.
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
unsafe fn max_norm_sqr_avx2(data: &[C64]) -> Option<(usize, f64)> {
    let chunks = data.len() / LANES;
    let p = data.as_ptr();
    let mut best = _mm256_set1_pd(f64::MIN);
    let mut best_idx = _mm256_setzero_si256();
    let mut idx = _mm256_setr_epi64x(0, 1, 2, 3);
    let four = _mm256_set1_epi64x(LANES as i64);
    for c in 0..chunks {
        let i = c * LANES;
        let (re, im) = deinterleave4(
            _mm256_loadu_pd(p.add(i) as *const f64),
            _mm256_loadu_pd(p.add(i + 2) as *const f64),
        );
        let m = _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im));
        // strict > skips NaN (ordered compare) and keeps earlier
        // indices on ties, exactly like the portable lanes
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(m, best);
        best = _mm256_blendv_pd(best, m, gt);
        best_idx = _mm256_blendv_epi8(best_idx, idx, _mm256_castpd_si256(gt));
        idx = _mm256_add_epi64(idx, four);
    }
    let mut lane_best = [0.0f64; LANES];
    let mut lane_idx64 = [0i64; LANES];
    _mm256_storeu_pd(lane_best.as_mut_ptr(), best);
    _mm256_storeu_si256(lane_idx64.as_mut_ptr() as *mut __m256i, best_idx);
    let mut lane_idx = [0usize; LANES];
    for l in 0..LANES {
        lane_idx[l] = lane_idx64[l] as usize;
    }
    merge_lanes_and_tail(data, chunks * LANES, &lane_best, &lane_idx)
}

/// Horizontal merge of the five accumulator vectors plus the scalar
/// tail, in exactly the portable backend's summation order
/// (`acc = ((0 + lane0) + lane1) + lane2) + lane3`, then `+ tail`).
///
/// # Safety
/// AVX required; `tail` must be the co-moments of `a[done..]`.
#[inline(always)]
unsafe fn comoment_merge(acc: [__m256d; 5], tail: [f64; 5]) -> [f64; 5] {
    let mut out = [0.0f64; 5];
    let mut lanes = [0.0f64; 4];
    for (k, o) in out.iter_mut().enumerate() {
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc[k]);
        let mut v = 0.0f64;
        for lane in lanes {
            v += lane;
        }
        *o = v + tail[k];
    }
    out
}

/// Co-moments over pre-centered `f64` values, four lanes wide.
/// Bit-identical to [`vectorops::comoment_vectorized`].
///
/// # Safety
/// AVX2 must be available; slices must share one length.
#[target_feature(enable = "avx2")]
unsafe fn comoment_avx2(a: &[f64], b: &[f64]) -> [f64; 5] {
    let chunks = a.len() / LANES;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = [_mm256_setzero_pd(); 5];
    for c in 0..chunks {
        let va = _mm256_loadu_pd(ap.add(c * LANES));
        let vb = _mm256_loadu_pd(bp.add(c * LANES));
        accumulate(&mut acc, va, vb);
    }
    let done = chunks * LANES;
    comoment_merge(acc, vectorops::comoment_scalar(&a[done..], &b[done..]))
}

/// One accumulation step shared by the `f64` and `u16` co-moment loops.
///
/// # Safety
/// AVX required.
#[inline(always)]
unsafe fn accumulate(acc: &mut [__m256d; 5], va: __m256d, vb: __m256d) {
    acc[0] = _mm256_add_pd(acc[0], va);
    acc[1] = _mm256_add_pd(acc[1], vb);
    acc[2] = _mm256_add_pd(acc[2], _mm256_mul_pd(va, vb));
    acc[3] = _mm256_add_pd(acc[3], _mm256_mul_pd(va, va));
    acc[4] = _mm256_add_pd(acc[4], _mm256_mul_pd(vb, vb));
}

/// The CCF inner loop: widen four `u16` pixels to `f64` (exact), center
/// on the tile means, accumulate five co-moments. Bit-identical to
/// [`vectorops::comoment_u16_vectorized`].
///
/// # Safety
/// AVX2 must be available; slices must share one length.
#[target_feature(enable = "avx2")]
unsafe fn comoment_u16_avx2(a: &[u16], b: &[u16], ca: f64, cb: f64) -> [f64; 5] {
    let chunks = a.len() / LANES;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let vca = _mm256_set1_pd(ca);
    let vcb = _mm256_set1_pd(cb);
    let mut acc = [_mm256_setzero_pd(); 5];
    for c in 0..chunks {
        let i = c * LANES;
        // 4×u16 → 4×i32 → 4×f64: every step exact
        let ra = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(_mm_loadl_epi64(
            ap.add(i) as *const __m128i
        )));
        let rb = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(_mm_loadl_epi64(
            bp.add(i) as *const __m128i
        )));
        let va = _mm256_sub_pd(ra, vca);
        let vb = _mm256_sub_pd(rb, vcb);
        accumulate(&mut acc, va, vb);
    }
    let done = chunks * LANES;
    comoment_merge(
        acc,
        vectorops::comoment_u16_scalar(&a[done..], &b[done..], ca, cb),
    )
}
