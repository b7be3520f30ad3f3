//! The explicit-AVX2 backend (x86_64 only).
//!
//! Hand-written `core::arch` intrinsics for the element-wise phase-1
//! hot loops — the modern form of the paper's §IV-A SSE kernels — and
//! the shared wide FFT engine (`[f32; 8]`: one `ymm` register) compiled
//! with AVX2 enabled (no per-ISA butterfly: it is vectorised across
//! transforms). Each kernel returns exactly what its scalar twin does:
//!
//! * the NCC evaluates the scalar expression DAG: it widens its `f32`
//!   bins exactly to `f64` (`_mm256_cvtps_pd`), works there without FMA
//!   (`_mm256_div_pd` and `_mm256_sqrt_pd` are correctly rounded) and
//!   rounds once back (`_mm256_cvtpd_ps`, round to nearest even, as
//!   `as f32`);
//! * the co-moments are integers: sixteen pixels per step biased to
//!   `i16`, every product from `_mm256_madd_epi16`, widened to `i64`
//!   accumulators each step, so the sums are exact and equal the scalar
//!   loop's whatever the lane split.
//!
//! Every public entry point re-checks [`super::simd_supported`] and
//! falls back to the portable implementation, so constructing
//! [`SimdBackend`] on a non-AVX2 host is safe, merely pointless.

use core::arch::x86_64::*;
use std::mem::transmute;

use crate::complex::{Cx, Float, C32};
use crate::real::{RealFft2d, RowBand};
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
    ) -> [i64; 5] {
        if rows == 0 || cols == 0 {
            return [0; 5];
        }
        let end = (rows - 1) * stride + cols;
        assert!(end <= a.len() && end <= b.len(), "rectangle past the tile");
        if super::simd_supported() && cols <= I32_STEPS * STEP {
            // SAFETY: AVX2 confirmed on this host; every row lies inside
            // both slices (asserted above).
            unsafe { comoment_rect_avx2(a, b, stride, rows, cols) }
        } else {
            vectorops::comoment_rect(a, b, stride, rows, cols)
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
    columns: bool,
    band: RowBand,
) {
    plan.inverse_lanes::<T::Wide>(spectrum, output, columns, band);
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

/// Pixels per row step: one `ymm` of `u16`.
const STEP: usize = 16;

/// Row steps whose `Σa'`, `Σb'` pair sums (each in `[−65 536, 65 534]`)
/// an `i32` lane holds; a wider row goes to the scalar loop.
const I32_STEPS: usize = 32_767;

/// A madd lane of `a'·b'` pairs lies in `[−CROSS, 2³¹]`, a span under
/// `2³²`: adding `CROSS` (mod `2³²`) maps it onto `u32` exactly, where
/// the one lane `2³¹` (two `−32 768 · −32 768` products) wraps as `i32`.
const CROSS: i32 = 0x7FFF_0000;

/// Adds the eight `u32` lanes of `v` into the four `i64` lanes of `acc`.
///
/// # Safety
/// AVX2 required.
#[inline(always)]
unsafe fn add_u32(acc: __m256i, v: __m256i) -> __m256i {
    let low = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFF_FFFF));
    _mm256_add_epi64(_mm256_add_epi64(acc, low), _mm256_srli_epi64::<32>(v))
}

/// One row step: the pair sums of `a'b'` (offset by [`CROSS`]), `a'²`
/// and `b'²` into the `i64` lanes of `acc[0..3]`, those of `a'` and `b'`
/// into the `i32` lanes of `acc[3..5]`.
///
/// # Safety
/// AVX2 required.
#[inline(always)]
unsafe fn step(acc: &mut [__m256i; 5], va: __m256i, vb: __m256i) {
    let (cross, ones) = (_mm256_set1_epi32(CROSS), _mm256_set1_epi16(1));
    acc[0] = add_u32(acc[0], _mm256_add_epi32(_mm256_madd_epi16(va, vb), cross));
    acc[1] = add_u32(acc[1], _mm256_madd_epi16(va, va));
    acc[2] = add_u32(acc[2], _mm256_madd_epi16(vb, vb));
    acc[3] = _mm256_add_epi32(acc[3], _mm256_madd_epi16(va, ones));
    acc[4] = _mm256_add_epi32(acc[4], _mm256_madd_epi16(vb, ones));
}

/// The last `tail = cols mod 16` pixels of a row at `p`, biased, in the
/// lanes `keep` and zero elsewhere: whole `u16` pairs by
/// `_mm256_maskload_epi32` (lanes `pairs`), an odd last pixel inserted
/// alone, so nothing past `p[tail − 1]` is read.
///
/// # Safety
/// AVX2 required; `p..p + tail` must be readable; `keep` and `pairs` set
/// the first `tail` and `tail & !1` lanes.
#[inline(always)]
unsafe fn load_tail(p: *const u16, tail: usize, pairs: __m256i, keep: __m256i) -> __m256i {
    let mut v = _mm256_maskload_epi32(p.cast(), pairs);
    if tail % 2 == 1 {
        let last = _mm256_set1_epi16(*p.add(tail - 1) as i16);
        v = _mm256_or_si256(v, _mm256_andnot_si256(pairs, _mm256_and_si256(last, keep)));
    }
    _mm256_and_si256(_mm256_xor_si256(v, _mm256_set1_epi16(i16::MIN)), keep)
}

/// The CCF co-moments of one overlap rectangle, exact. Each row step
/// biases sixteen pixels of each tile to `i16` (`a' = a − 32 768`) and
/// takes its products from `_mm256_madd_epi16` ([`step`]); the `i32`
/// sums of `a'`, `b'` are flushed before they could overflow. A row's
/// last `cols mod 16` pixels are one masked step ([`load_tail`]); masked
/// lanes are zero after the bias and add nothing. The bias comes off
/// once, at the end.
///
/// # Safety
/// AVX2 must be available; `rows, cols ≥ 1`, `cols ≤ I32_STEPS·STEP`, and
/// `(rows − 1)·stride + cols` must not exceed either slice's length.
#[target_feature(enable = "avx2")]
unsafe fn comoment_rect_avx2(
    a: &[u16],
    b: &[u16],
    stride: usize,
    rows: usize,
    cols: usize,
) -> [i64; 5] {
    let bias = _mm256_set1_epi16(i16::MIN);
    let (tail, full, row_steps) = (cols % STEP, cols - cols % STEP, cols.div_ceil(STEP));
    let lane = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let keep = _mm256_cmpgt_epi16(_mm256_set1_epi16(tail as i16), lane);
    let pairs = _mm256_cmpgt_epi16(_mm256_set1_epi16((tail & !1) as i16), lane);
    let mut acc = [_mm256_setzero_si256(); 5];
    let (mut sum_a, mut sum_b, mut pending) = (0i64, 0i64, 0usize);
    for r in 0..rows {
        let (pa, pb) = (a.as_ptr().add(r * stride), b.as_ptr().add(r * stride));
        for i in (0..full).step_by(STEP) {
            let va = _mm256_xor_si256(_mm256_loadu_si256(pa.add(i).cast()), bias);
            let vb = _mm256_xor_si256(_mm256_loadu_si256(pb.add(i).cast()), bias);
            step(&mut acc, va, vb);
        }
        if tail > 0 {
            let va = load_tail(pa.add(full), tail, pairs, keep);
            step(&mut acc, va, load_tail(pb.add(full), tail, pairs, keep));
        }
        pending += row_steps;
        if pending + row_steps > I32_STEPS || r + 1 == rows {
            sum_a += transmute::<__m256i, [i32; 8]>(acc[3])
                .map(i64::from)
                .iter()
                .sum::<i64>();
            sum_b += transmute::<__m256i, [i32; 8]>(acc[4])
                .map(i64::from)
                .iter()
                .sum::<i64>();
            (acc[3], acc[4], pending) = (_mm256_setzero_si256(), _mm256_setzero_si256(), 0);
        }
    }
    let [ab, aa, bb] =
        [acc[0], acc[1], acc[2]].map(|v| transmute::<__m256i, [i64; 4]>(v).iter().sum::<i64>());
    let (c, n) = (32_768i64, (rows * cols) as i64);
    let ab = ab - i64::from(CROSS) * (8 * rows * row_steps) as i64;
    [
        sum_a + c * n,
        sum_b + c * n,
        ab + c * (sum_a + sum_b) + c * c * n,
        aa + 2 * c * sum_a + c * c * n,
        bb + 2 * c * sum_b + c * c * n,
    ]
}
