//! The explicit-AVX2 backend (x86_64 only).
//!
//! Hand-written `core::arch` intrinsics for the element-wise phase-1
//! hot loops — the modern form of the paper's §IV-A SSE kernels — and
//! the shared wide FFT engine (`[f32; 8]`: one `ymm` register) compiled
//! with AVX2 enabled (no per-ISA butterfly: it is vectorised across
//! transforms). Each kernel evaluates exactly the expression DAG of its
//! scalar/portable twin:
//!
//! * the NCC widens its `f32` bins exactly to `f64` (`_mm256_cvtps_pd`),
//!   works there and rounds once back (`_mm256_cvtpd_ps`, round to
//!   nearest even, as `as f32`);
//! * no FMA — products and sums stay separately rounded
//!   (`_mm256_mul_pd` + `_mm256_add_pd`, never `_mm256_fmadd_pd`);
//! * `_mm256_div_pd` and `_mm256_sqrt_pd` are correctly rounded, so
//!   `re/mag` and `√(re²+im²)` match their scalar counterparts bit for
//!   bit;
//! * the co-moment row kernel merges its four lanes in the portable
//!   backend's order, and the rectangle adds its rows in the same order.
//!
//! Only the co-moments are *not* bit-identical to the scalar backend:
//! they re-associate each row's sum into four lanes — but they share the
//! portable backend's exact summation order, so `portable` and `simd`
//! co-moments are bit-identical to each other (pinned by test).
//!
//! Every public entry point re-checks [`super::simd_supported`] and
//! falls back to the portable implementation, so constructing
//! [`SimdBackend`] on a non-AVX2 host is safe, merely pointless.

use core::arch::x86_64::*;

use crate::complex::{Cx, Float, C32};
use crate::real::RealFft2d;
use crate::vectorops::{self, LANES};

use super::{ComputeBackend, FftLanes};

/// Explicit AVX2 intrinsics (`--backend simd`), selected by `auto` when
/// the host supports them.
pub struct SimdBackend;

impl ComputeBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn ncc(&self, a: &[C32], b: &[C32], out: &mut [C32]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), out.len());
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host; lengths checked above.
            unsafe { ncc_avx2(a, b, out) }
        } else {
            vectorops::ncc_vectorized(a, b, out);
        }
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
        if super::simd_supported() {
            // SAFETY: AVX2 confirmed on this host.
            unsafe { comoment_rect_avx2(a, b, stride, rows, cols, (ca, cb)) }
        } else {
            vectorops::comoment_rect(a, b, stride, rows, cols, |ra, rb| {
                vectorops::comoment_u16_vectorized(ra, rb, ca, cb)
            })
        }
    }

    fn fft_lanes(&self) -> FftLanes {
        FftLanes::WideAvx2
    }
}

/// The wide FFT engine with AVX2 code generation: the whole transform
/// inlines into this frame, so each `[f32; 8]` (`[f64; 4]`) operation is
/// one 256-bit instruction. AVX2 only — without the `fma` feature no
/// multiply-add can be contracted, so lanes round as the portable build
/// does.
#[target_feature(enable = "avx2")]
pub(crate) fn real_fft2d_forward_avx2<T: Float>(
    plan: &RealFft2d<T>,
    input: &[T],
    output: &mut [Cx<T>],
) {
    plan.forward_lanes::<T::Wide>(input, output);
}

/// Inverse twin of [`real_fft2d_forward_avx2`].
#[target_feature(enable = "avx2")]
pub(crate) fn real_fft2d_inverse_avx2<T: Float>(
    plan: &RealFft2d<T>,
    spectrum: &mut [Cx<T>],
    output: &mut [T],
) {
    plan.inverse_lanes::<T::Wide>(spectrum, output);
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

/// Four `C32` bins from `p`, widened exactly: `(re, im)` at `f64`.
///
/// # Safety
/// AVX required; `p..p+4` must be readable.
#[inline(always)]
unsafe fn load4_wide(p: *const C32) -> (__m256d, __m256d) {
    deinterleave4(
        _mm256_cvtps_pd(_mm_loadu_ps(p as *const f32)),
        _mm256_cvtps_pd(_mm_loadu_ps(p.add(2) as *const f32)),
    )
}

/// NCC over four complex per iteration, `f32` storage and `f64`
/// arithmetic. Bit-identical to [`vectorops::ncc_scalar`].
///
/// # Safety
/// AVX2 must be available; all three slices must share one length.
#[target_feature(enable = "avx2")]
unsafe fn ncc_avx2(a: &[C32], b: &[C32], out: &mut [C32]) {
    let n = a.len();
    let chunks = n / LANES;
    let floor = _mm256_set1_pd(1e-300);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    for c in 0..chunks {
        let i = c * LANES;
        let (are, aim) = load4_wide(ap.add(i));
        let (bre, bim) = load4_wide(bp.add(i));
        // re = a.re·b.re + a.im·b.im ; im = a.im·b.re − a.re·b.im
        let re = _mm256_add_pd(_mm256_mul_pd(are, bre), _mm256_mul_pd(aim, bim));
        let im = _mm256_sub_pd(_mm256_mul_pd(aim, bre), _mm256_mul_pd(are, bim));
        // mag = √(re² + im²); underflowed lanes blend to +0.0
        let mag = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
        let keep = _mm256_cmp_pd::<_CMP_GT_OQ>(mag, floor);
        let ore = _mm256_and_pd(_mm256_div_pd(re, mag), keep);
        let oim = _mm256_and_pd(_mm256_div_pd(im, mag), keep);
        let (lo, hi) = interleave4(ore, oim);
        _mm_storeu_ps(op.add(i) as *mut f32, _mm256_cvtpd_ps(lo));
        _mm_storeu_ps(op.add(i + 2) as *mut f32, _mm256_cvtpd_ps(hi));
    }
    let done = chunks * LANES;
    vectorops::ncc_scalar(&a[done..], &b[done..], &mut out[done..]);
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

/// The CCF co-moments of one overlap rectangle: the row loop and the row
/// kernel inline into this one AVX2 frame, so a probe pays one dispatch
/// and one feature check, not one per row.
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
unsafe fn comoment_rect_avx2(
    a: &[u16],
    b: &[u16],
    stride: usize,
    rows: usize,
    cols: usize,
    (ca, cb): (f64, f64),
) -> [f64; 5] {
    vectorops::comoment_rect(a, b, stride, rows, cols, |ra, rb| {
        // SAFETY: AVX2 is the caller's contract; the row slices share
        // the length `cols`.
        unsafe { comoment_u16_avx2(ra, rb, ca, cb) }
    })
}

/// The CCF row kernel: widen four `u16` pixels to `f64` (exact), center
/// on the tile means, accumulate five co-moments. Bit-identical to
/// [`vectorops::comoment_u16_vectorized`].
///
/// # Safety
/// AVX2 must be available; slices must share one length.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn comoment_u16_avx2(a: &[u16], b: &[u16], ca: f64, cb: f64) -> [f64; 5] {
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
        acc[0] = _mm256_add_pd(acc[0], va);
        acc[1] = _mm256_add_pd(acc[1], vb);
        acc[2] = _mm256_add_pd(acc[2], _mm256_mul_pd(va, vb));
        acc[3] = _mm256_add_pd(acc[3], _mm256_mul_pd(va, va));
        acc[4] = _mm256_add_pd(acc[4], _mm256_mul_pd(vb, vb));
    }
    let done = chunks * LANES;
    comoment_merge(
        acc,
        vectorops::comoment_u16_scalar(&a[done..], &b[done..], ca, cb),
    )
}
