//! Hand-vectorized element-wise kernels.
//!
//! The paper found GCC 4.6 would not auto-vectorize the stitching
//! computation's two hot element-wise loops and coded them "with SSE
//! intrinsics" (§IV-A): the normalized conjugate multiplication (the NCC,
//! step 4 of Fig 2) and the max reduction (step 5). Rust/LLVM vectorizes
//! far more readily, but the same loops still benefit from being written
//! in an explicitly unrollable, dependency-free form: fixed-width chunks
//! with independent accumulator lanes, exactly the shape the paper's
//! intrinsics imposed.
//!
//! This module holds the *implementations* the [`crate::backend`] layer
//! wraps. Three kernels live here:
//!
//! * the NCC, a sequential scalar reference loop and its lane-unrolled
//!   `_vectorized` twin (the `scalar` and `portable` backends; `simd`
//!   replaces it with AVX2 intrinsics evaluating the same expression DAG),
//!   bit-identical at either storage precision — each bin multiplied and
//!   normalised in `f64`;
//! * the top-k peak extraction ([`top_peaks_into`]), one copy for every
//!   spectrum layout and the simulated device;
//! * the CCF co-moments of one overlap rectangle (`comoment_rect`), summed
//!   exactly in `i64`: the `scalar` and `portable` backends run it as it
//!   stands, `simd` computes the same integers sixteen pixels at a time.
//!   Exact sums leave nothing to re-associate, so every backend returns
//!   the same moments.

use crate::complex::{Cx, Float};
use crate::real::RowBand;

/// Lanes of the vector-shaped loops. Four independent accumulator chains
/// keep a reduction free of a serial dependency, the same trick as the
/// paper's SSE reduction (and Harris's CUDA one).
pub(crate) const LANES: usize = 4;

/// Magnitudes at or below this are treated as underflow: the NCC output
/// is zeroed instead of dividing by a denormal.
const NCC_MAG_FLOOR: f64 = 1e-300;

/// One NCC bin: `a·conj(b) / |a·conj(b)|`, zero where the product
/// magnitude underflows. Multiplied and normalised in `f64` whatever the
/// storage precision — a paper-size `f32` spectrum's DC bin is ≈ 4e9, so
/// `|a·conj b|²` would overflow `f32` and zero the bin that should be 1 —
/// then rounded once to `T`.
///
/// The normalization divides each component by the magnitude (`re/mag`,
/// `im/mag`) rather than multiplying by its reciprocal — the same
/// expression DAG as the vectorized and AVX2 forms, so all three are
/// bit-identical (IEEE division is correctly rounded; a reciprocal
/// multiply is not the same operation).
#[inline(always)]
fn ncc_bin<T: Float>(a: Cx<T>, b: Cx<T>) -> Cx<T> {
    let (a, b) = (a.to_c64(), b.to_c64());
    let re = a.re * b.re + a.im * b.im;
    let im = a.im * b.re - a.re * b.im;
    let mag = (re * re + im * im).sqrt();
    if mag > NCC_MAG_FLOOR {
        Cx {
            re: T::from_f64(re / mag),
            im: T::from_f64(im / mag),
        }
    } else {
        Cx::ZERO
    }
}

/// Scalar reference: `out[i] = a[i]·conj(b[i]) / |a[i]·conj(b[i])|`,
/// zero where the product magnitude underflows; see `ncc_bin`.
pub fn ncc_scalar<T: Float>(a: &[Cx<T>], b: &[Cx<T>], out: &mut [Cx<T>]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for i in 0..a.len() {
        out[i] = ncc_bin(a[i], b[i]);
    }
}

/// Vector-shaped NCC: the same computation in stride-[`LANES`] chunks
/// with no cross-iteration dependencies, so LLVM emits packed SIMD for
/// the multiply/normalize pipeline. Bit-identical to [`ncc_scalar`].
pub fn ncc_vectorized<T: Float>(a: &[Cx<T>], b: &[Cx<T>], out: &mut [Cx<T>]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    let chunks = a.len() / LANES;
    let (a_main, a_rest) = a.split_at(chunks * LANES);
    let (b_main, b_rest) = b.split_at(chunks * LANES);
    let (o_main, o_rest) = out.split_at_mut(chunks * LANES);
    for ((ac, bc), oc) in a_main
        .chunks_exact(LANES)
        .zip(b_main.chunks_exact(LANES))
        .zip(o_main.chunks_exact_mut(LANES))
    {
        // one independent multiply+normalize per lane
        for l in 0..LANES {
            oc[l] = ncc_bin(ac[l], bc[l]);
        }
    }
    ncc_scalar(a_rest, b_rest, o_rest);
}

/// Chebyshev radius within which a weaker maximum counts as the same
/// peak as a stronger one during top-k extraction.
pub const PEAK_SUPPRESSION_RADIUS: usize = 2;

/// The top-k reduction of PCIAM (Fig 2 step 5, widened from the single
/// max): up to `k` distinct maxima of `key` over the rows of `band` of
/// `data` viewed as a row-major surface of width `width` (the other rows
/// are never read), strongest first, as `(flat index, key)`. The one copy shared by every surface on the host
/// (`key` = `|v|` of an `f32` or `f64` surface, `C64::norm_sqr` of the
/// complex reference's) and by the simulated device's kernel.
///
/// Single pass with a small sorted gather buffer — O(n·k) worst case, k
/// is single digits. Gathers `max(4k, 16)` candidates (peaks can shadow
/// each other inside the suppression radius), then drops any within
/// [`PEAK_SUPPRESSION_RADIUS`] of a stronger survivor. Equal keys keep
/// the lower index first. `cand` is the gather buffer and `out` receives
/// the result — both cleared on entry, and their capacities persist, so
/// reuse is allocation-free.
pub fn top_peaks_into<T: Copy>(
    data: &[T],
    width: usize,
    band: RowBand,
    k: usize,
    key: impl Fn(T) -> f64,
    cand: &mut Vec<(usize, f64)>,
    out: &mut Vec<(usize, f64)>,
) {
    assert!(width > 0 && k >= 1);
    let gather = (4 * k).max(16);
    cand.clear();
    cand.reserve(gather + 1);
    let mut floor = f64::MIN;
    for rows in band.ranges() {
        let base = rows.start * width;
        for (i, &v) in data[base..rows.end * width].iter().enumerate() {
            let m = key(v);
            if m <= floor {
                continue;
            }
            let pos = cand.partition_point(|&(_, cm)| cm >= m);
            cand.insert(pos, (base + i, m));
            if cand.len() > gather {
                cand.pop();
                floor = cand[gather - 1].1;
            }
        }
    }
    let r = PEAK_SUPPRESSION_RADIUS;
    out.clear();
    out.reserve(k.min(gather));
    for &(i, m) in cand.iter() {
        let (x, y) = (i % width, i / width);
        let shadowed = out
            .iter()
            .any(|&(j, _)| x.abs_diff(j % width) <= r && y.abs_diff(j / width) <= r);
        if !shadowed {
            out.push((i, m));
            if out.len() == k {
                break;
            }
        }
    }
}

/// The CCF co-moments `[Σa, Σb, Σab, Σa², Σb²]` of a `rows × cols`
/// rectangle of `u16` pixels, row `r` starting at `a[r·stride]` and
/// `b[r·stride]` (two tiles of one width), summed exactly in integers.
/// An integer reduction is associative, so LLVM vectorises this loop as
/// it stands, and every summation order gives the same answer.
pub(crate) fn comoment_rect(
    a: &[u16],
    b: &[u16],
    stride: usize,
    rows: usize,
    cols: usize,
) -> [i64; 5] {
    let mut m = [0i64; 5];
    for r in 0..rows {
        for (&x, &y) in a[r * stride..][..cols].iter().zip(&b[r * stride..][..cols]) {
            let (x, y) = (u32::from(x), u32::from(y));
            m[0] += i64::from(x);
            m[1] += i64::from(y);
            m[2] += i64::from(x * y);
            m[3] += i64::from(x * x);
            m[4] += i64::from(y * y);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, C32, C64};

    fn data(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed);
                c64(
                    ((v >> 16) % 2000) as f64 / 10.0 - 100.0,
                    ((v >> 40) % 2000) as f64 / 10.0 - 100.0,
                )
            })
            .collect()
    }

    #[test]
    fn ncc_matches_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 64, 1001] {
            let a = data(n, 1);
            let b = data(n, 2);
            let mut s = vec![C64::ZERO; n];
            let mut v = vec![C64::ZERO; n];
            ncc_scalar(&a, &b, &mut s);
            ncc_vectorized(&a, &b, &mut v);
            for i in 0..n {
                assert!(
                    s[i].re.to_bits() == v[i].re.to_bits()
                        && s[i].im.to_bits() == v[i].im.to_bits(),
                    "n={n} i={i}"
                );
            }
        }
    }

    /// A paper-size tile's DC bin is ≈ 4.3e9: `|a·conj b|²` ≈ 3.4e38 is
    /// past `f32::MAX`, so the bin is normalised in `f64` — unit, not 0 —
    /// and every `f32` bin is the `f64` result rounded once.
    #[test]
    fn f32_bins_are_normalised_in_f64() {
        let big = C32 {
            re: 4.3e9,
            im: -1.5e9,
        };
        let mut a: Vec<C32> = data(64, 5).into_iter().map(C32::from_c64).collect();
        let b: Vec<C32> = data(64, 6).into_iter().map(C32::from_c64).collect();
        a[0] = big;
        let mut b = b;
        b[0] = C32 {
            re: 65535.0 * 1.5e6,
            im: 0.0,
        };
        let (mut s, mut v) = (vec![C32::ZERO; 64], vec![C32::ZERO; 64]);
        ncc_scalar(&a, &b, &mut s);
        ncc_vectorized(&a, &b, &mut v);
        assert!(s
            .iter()
            .zip(&v)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()));
        let wide = |v: &[C32]| v.iter().map(|z| z.to_c64()).collect::<Vec<_>>();
        let mut reference = vec![C64::ZERO; 64];
        ncc_scalar(&wide(&a), &wide(&b), &mut reference);
        for (got, want) in s.iter().zip(&reference) {
            assert!(got.is_finite());
            assert_eq!((got.re, got.im), (want.re as f32, want.im as f32));
        }
        assert!((s[0].to_c64().abs() - 1.0).abs() < 1e-7, "{:?}", s[0]);
    }

    #[test]
    fn ncc_zero_product_stays_zero() {
        let a = vec![C64::ZERO; 9];
        let b = data(9, 3);
        let mut out = vec![c64(9.0, 9.0); 9];
        ncc_vectorized(&a, &b, &mut out);
        assert!(out.iter().all(|&v| v == C64::ZERO));
    }

    /// 12×10 surface with a distinct small background and one planted
    /// feature per case; see [`top_peaks_match_the_three_retired_copies`].
    fn peak_surface(case: usize) -> (Vec<f64>, usize) {
        let (w, h) = (12usize, 10usize);
        let mut d: Vec<f64> = (0..w * h)
            .map(|i| {
                let v = ((i * 37 + 11) % 101) as f64 / 101.0;
                if i % 3 == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect();
        match case {
            // ties: equal magnitudes, mixed sign, far apart
            0 => {
                d[3 * w + 9] = 5.0;
                d[w + 2] = -5.0;
                d[8 * w + 5] = 5.0;
                d[6 * w] = 4.0;
            }
            // suppression radius: dx = 2 / dy = 2 shadowed, 3 kept
            1 => {
                d[5 * w + 5] = 10.0;
                d[5 * w + 7] = -9.0;
                d[5 * w + 8] = 8.0;
                d[7 * w + 5] = 7.0;
                d[8 * w + 5] = -6.0;
                d[2 * w + 3] = 5.0;
            }
            // a 5×5 plateau fills the gather buffer and shadows the rest
            2 => {
                for y in 2..7 {
                    for x in 3..8 {
                        d[y * w + x] = 20.0 + (y * 5 + x) as f64;
                    }
                }
                d[9 * w + 11] = 15.0;
            }
            // flat-adjacent across a row wrap are not neighbours
            _ => {
                d[2 * w + 11] = 9.0;
                d[3 * w] = -8.0;
                d[4 * w + 1] = 7.0;
            }
        }
        (d, w)
    }

    #[test]
    fn top_peaks_match_the_three_retired_copies() {
        // Indices computed at the last commit that still had three scans
        // (host complex, host real, device kernel); all three agreed.
        const PINNED: [[&[usize]; 3]; 4] = [
            [&[14], &[14, 45, 101], &[14, 45, 101, 72, 117, 5, 65, 81]],
            [&[65], &[65, 68, 101], &[65, 68, 101, 27, 117, 35, 24, 84]],
            // k = 8 yields 7: the plateau used up 25 of the 32 gathered
            [&[79], &[79, 76, 43], &[79, 76, 43, 40, 119, 46, 5]],
            [&[35], &[35, 36, 87], &[35, 36, 87, 16, 117, 54, 84, 114]],
        ];
        let (mut cand, mut out) = (Vec::new(), Vec::new());
        for (case, rows) in PINNED.iter().enumerate() {
            let (real, w) = peak_surface(case);
            let h = real.len() / w;
            let complex: Vec<C64> = real.iter().map(|&v| c64(v, 0.0)).collect();
            for (&k, want) in [1usize, 3, 8].iter().zip(rows) {
                top_peaks_into(&real, w, RowBand::all(h), k, f64::abs, &mut cand, &mut out);
                let got: Vec<usize> = out.iter().map(|p| p.0).collect();
                assert_eq!(&got, want, "real case={case} k={k}");
                assert!(out.iter().all(|&(i, m)| m == real[i].abs()));
                top_peaks_into(
                    &complex,
                    w,
                    RowBand::all(h),
                    k,
                    C64::norm_sqr,
                    &mut cand,
                    &mut out,
                );
                let got: Vec<usize> = out.iter().map(|p| p.0).collect();
                assert_eq!(&got, want, "complex case={case} k={k}");
            }
        }
    }

    #[test]
    fn top_peaks_suppress_within_the_radius() {
        let mut data = vec![0.0; 100]; // 10x10
        data[5 * 10 + 5] = 10.0;
        data[5 * 10 + 6] = 9.0; // within radius — suppressed
        data[10 + 1] = 8.0;
        let (mut cand, mut peaks) = (Vec::new(), Vec::new());
        top_peaks_into(
            &data,
            10,
            RowBand::all(10),
            3,
            f64::abs,
            &mut cand,
            &mut peaks,
        );
        assert_eq!(peaks[0], (55, 10.0));
        assert_eq!(peaks[1], (11, 8.0));
        // a band wrapping from row 8 past row 9 to rows 0..=1 never sees
        // row 5; equal keys keep the lower index
        data[9 * 10 + 3] = 8.0;
        top_peaks_into(
            &data,
            10,
            RowBand::new(8, 4, 10),
            3,
            f64::abs,
            &mut cand,
            &mut peaks,
        );
        assert_eq!(peaks[..2], [(11, 8.0), (93, 8.0)]);
    }
}
