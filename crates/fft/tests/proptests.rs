//! Property-based tests for the FFT substrate: round-trip identity,
//! Parseval energy conservation, linearity, shift theorem, and agreement
//! between all plan kinds — over arbitrary lengths including primes.

use proptest::prelude::*;
use stitch_fft::{
    c64, dft_naive, BluesteinPlan, Direction, Fft2d, MixedRadixPlan, Planner, RealFft2d, C64,
};

/// The forward FFT of `input`, planned by a default planner.
fn fft_forward(input: &[C64]) -> Vec<C64> {
    let mut out = vec![C64::ZERO; input.len()];
    Planner::default()
        .plan(input.len(), Direction::Forward)
        .process(input, &mut out);
    out
}

/// The inverse FFT of `input`, scaled so it undoes [`fft_forward`].
fn fft_inverse(input: &[C64]) -> Vec<C64> {
    let mut out = vec![C64::ZERO; input.len()];
    Planner::default()
        .plan(input.len(), Direction::Inverse)
        .process(input, &mut out);
    let s = 1.0 / input.len() as f64;
    out.iter().map(|v| v.scale(s)).collect()
}

fn max_err(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<C64>> {
    proptest::collection::vec((-100.0..100.0f64, -100.0..100.0f64), len..=len)
        .prop_map(|v| v.into_iter().map(|(r, i)| c64(r, i)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// inverse(forward(x)) == x for any length in 1..=96, any data.
    #[test]
    fn round_trip_any_length(n in 1usize..=96, seed in 0u64..1000) {
        let x: Vec<C64> = (0..n)
            .map(|k| {
                let v = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                c64(((v >> 16) % 1000) as f64 / 10.0 - 50.0, ((v >> 40) % 1000) as f64 / 10.0 - 50.0)
            })
            .collect();
        let back = fft_inverse(&fft_forward(&x));
        prop_assert!(max_err(&back, &x) < 1e-7);
    }

    /// Parseval: Σ|x|² == Σ|X|²/n.
    #[test]
    fn parseval(x in complex_vec(64)) {
        let spec = fft_forward(&x);
        let t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let f: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((t - f).abs() <= 1e-6 * t.max(1.0));
    }

    /// FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
    #[test]
    fn linearity(x in complex_vec(48), y in complex_vec(48), a in -5.0..5.0f64, b in -5.0..5.0f64) {
        let combo: Vec<C64> = x.iter().zip(&y).map(|(p, q)| p.scale(a) + q.scale(b)).collect();
        let lhs = fft_forward(&combo);
        let fx = fft_forward(&x);
        let fy = fft_forward(&y);
        let rhs: Vec<C64> = fx.iter().zip(&fy).map(|(p, q)| p.scale(a) + q.scale(b)).collect();
        prop_assert!(max_err(&lhs, &rhs) < 1e-6);
    }

    /// Circular shift theorem: FFT(shift(x, s))[j] == FFT(x)[j]·e^{-2πi js/n}.
    #[test]
    fn shift_theorem(x in complex_vec(60), s in 0usize..60) {
        let n = 60;
        let shifted: Vec<C64> = (0..n).map(|k| x[(k + n - s) % n]).collect();
        let lhs = fft_forward(&shifted);
        let fx = fft_forward(&x);
        let rhs: Vec<C64> = (0..n)
            .map(|j| fx[j] * C64::cis(-2.0 * std::f64::consts::PI * (j * s) as f64 / n as f64))
            .collect();
        prop_assert!(max_err(&lhs, &rhs) < 1e-6);
    }

    /// Mixed-radix, Bluestein, and naive DFT all agree on smooth sizes.
    #[test]
    fn plan_kinds_agree(x in complex_vec(40)) {
        let n = 40;
        let mut mr = vec![C64::ZERO; n];
        let mut bl = vec![C64::ZERO; n];
        let mut nv = vec![C64::ZERO; n];
        MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut mr);
        BluesteinPlan::new(n, Direction::Forward).process(&x, &mut bl);
        dft_naive(&x, &mut nv, Direction::Forward);
        prop_assert!(max_err(&mr, &nv) < 1e-7);
        prop_assert!(max_err(&bl, &nv) < 1e-7);
    }

    /// Real FFT forward matches the complex FFT on real inputs, any length.
    #[test]
    fn real_matches_complex(n in 1usize..=80, seed in 0u64..500) {
        let x: Vec<f64> = (0..n)
            .map(|k| (((k as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed) >> 20) % 2000) as f64 / 100.0 - 10.0)
            .collect();
        let planner = Planner::default();
        let r = RealFft2d::new(&planner, n, 1);
        let mut half = vec![C64::ZERO; r.spectrum_len()];
        r.forward(&x, &mut half);
        let full = fft_forward(&x.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
        prop_assert!(max_err(&half, &full[..r.spectrum_len()]) < 1e-7 * n.max(4) as f64);
    }

    /// 2-D round trip for arbitrary small rectangles.
    #[test]
    fn fft2d_round_trip(w in 1usize..=24, h in 1usize..=24, seed in 0u64..100) {
        let planner = Planner::default();
        let original: Vec<C64> = (0..w * h)
            .map(|k| {
                let v = (k as u64).wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(seed);
                c64(((v >> 12) % 512) as f64 - 256.0, ((v >> 36) % 512) as f64 - 256.0)
            })
            .collect();
        let mut data = original.clone();
        let mut scratch = vec![C64::ZERO; w * h];
        let fwd = Fft2d::new(&planner, w, h, Direction::Forward);
        let inv = Fft2d::new(&planner, w, h, Direction::Inverse);
        fwd.process(&mut data, &mut scratch);
        inv.process(&mut data, &mut scratch);
        inv.normalize(&mut data);
        prop_assert!(max_err(&data, &original) < 1e-6 * (w * h) as f64);
    }

    /// Forward/inverse round trip through the *explicit* plan kinds at
    /// representative mixed-radix (2^a·3^b·5^c) and prime sizes:
    /// `inverse(forward(x)) == n·x` per the unscaled FFTW convention.
    /// The planner-level round trip above can mask a broken plan kind by
    /// routing around it; this pins each kernel directly.
    #[test]
    fn explicit_plan_round_trip_mixed_and_prime(size_idx in 0usize..10, seed in 0u64..500) {
        const MIXED: [usize; 5] = [8, 12, 30, 60, 72];
        const PRIME: [usize; 5] = [7, 17, 31, 61, 101];
        let (n, prime) = if size_idx < 5 {
            (MIXED[size_idx], false)
        } else {
            (PRIME[size_idx - 5], true)
        };
        let x: Vec<C64> = (0..n)
            .map(|k| {
                let v = (k as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed * 7919);
                c64(((v >> 16) % 1000) as f64 / 10.0 - 50.0, ((v >> 40) % 1000) as f64 / 10.0 - 50.0)
            })
            .collect();
        let mut spec = vec![C64::ZERO; n];
        let mut back = vec![C64::ZERO; n];
        if prime {
            BluesteinPlan::new(n, Direction::Forward).process(&x, &mut spec);
            BluesteinPlan::new(n, Direction::Inverse).process(&spec, &mut back);
        } else {
            MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut spec);
            MixedRadixPlan::new(n, Direction::Inverse).process(&spec, &mut back);
        }
        let scaled: Vec<C64> = back.iter().map(|z| z.scale(1.0 / n as f64)).collect();
        prop_assert!(max_err(&scaled, &x) < 1e-7 * n as f64, "n={n} prime={prime}");
    }

    /// Parseval at prime sizes specifically — the Bluestein path embeds
    /// the transform in a longer convolution, so its energy bookkeeping
    /// deserves its own check (the fixed-size test above only covers the
    /// mixed-radix kernel).
    #[test]
    fn parseval_prime_sizes(size_idx in 0usize..4, x in complex_vec(61)) {
        const PRIMES: [usize; 4] = [13, 29, 47, 61];
        let n = PRIMES[size_idx];
        let x = &x[..n];
        let spec = fft_forward(x);
        let t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let f: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((t - f).abs() <= 1e-6 * t.max(1.0), "n={n}");
    }

    /// Real-FFT round trip at mixed-radix and prime sizes:
    /// `inverse(forward(x)) == x` on one row (the real path is
    /// scaled, unlike the complex convention).
    #[test]
    fn real_fft_round_trip_mixed_and_prime(size_idx in 0usize..8, seed in 0u64..500) {
        const SIZES: [usize; 8] = [8, 12, 48, 60, 7, 17, 41, 61];
        let n = SIZES[size_idx];
        let x: Vec<f64> = (0..n)
            .map(|k| (((k as u64).wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(seed) >> 18) % 4000) as f64 / 100.0 - 20.0)
            .collect();
        let planner = Planner::default();
        let r = RealFft2d::new(&planner, n, 1);
        let mut half = vec![C64::ZERO; r.spectrum_len()];
        let mut back = vec![0.0f64; n];
        r.forward(&x, &mut half);
        r.inverse(&mut half, &mut back);
        let err = x.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-8 * n.max(4) as f64, "n={n} err={err}");
    }

    /// Differential: the half-spectrum real FFT (`real.rs`) against the
    /// full complex kernels driven directly — `radix.rs` at mixed-radix
    /// sizes and `bluestein.rs` at primes.
    #[test]
    fn real_fft_differential_against_explicit_kernels(size_idx in 0usize..8, seed in 0u64..500) {
        const SIZES: [(usize, bool); 8] = [
            (8, false), (24, false), (40, false), (64, false),
            (11, true), (23, true), (43, true), (67, true),
        ];
        let (n, prime) = SIZES[size_idx];
        let x: Vec<f64> = (0..n)
            .map(|k| (((k as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed * 31) >> 22) % 2000) as f64 / 50.0 - 20.0)
            .collect();
        let planner = Planner::default();
        let r = RealFft2d::new(&planner, n, 1);
        let mut half = vec![C64::ZERO; r.spectrum_len()];
        r.forward(&x, &mut half);
        let full_in: Vec<C64> = x.iter().map(|&v| c64(v, 0.0)).collect();
        let mut full = vec![C64::ZERO; n];
        if prime {
            BluesteinPlan::new(n, Direction::Forward).process(&full_in, &mut full);
        } else {
            MixedRadixPlan::new(n, Direction::Forward).process(&full_in, &mut full);
        }
        prop_assert!(
            max_err(&half, &full[..r.spectrum_len()]) < 1e-7 * n.max(4) as f64,
            "n={n} prime={prime}"
        );
    }

    /// Hermitian symmetry of real-input spectra: X[n−j] == conj(X[j]).
    #[test]
    fn hermitian_symmetry(seed in 0u64..2000) {
        let n = 50;
        let x: Vec<C64> = (0..n)
            .map(|k| c64((((k as u64 + seed) * 2654435761) % 997) as f64 - 498.0, 0.0))
            .collect();
        let spec = fft_forward(&x);
        for j in 1..n {
            prop_assert!((spec[n - j] - spec[j].conj()).abs() < 1e-6);
        }
    }

    /// The shared top-k extractor: peaks come out strongest first, no two
    /// within the suppression radius, and keying a real surface by `|v|`
    /// or (widened to complex) by `|z|²` selects the same indices — the
    /// property that lets every spectrum layout and the device kernel
    /// share one scan.
    #[test]
    fn top_peaks_sorted_distinct_and_key_agnostic(seed in 0u64..5000, k in 1usize..8) {
        use stitch_fft::vectorops::{top_peaks_into, PEAK_SUPPRESSION_RADIUS};
        use stitch_fft::RowBand;
        let (w, h) = (24usize, 16usize);
        // integer-valued so squaring cannot merge distinct magnitudes
        let real: Vec<f64> = (0..w * h)
            .map(|i| {
                let v = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                ((v >> 16) % 2000) as f64 - 1000.0
            })
            .collect();
        let complex: Vec<C64> = real.iter().map(|&v| c64(v, 0.0)).collect();
        let (mut cand, mut by_abs, mut by_sqr) = (Vec::new(), Vec::new(), Vec::new());
        top_peaks_into(&real, w, RowBand::all(h), k, f64::abs, &mut cand, &mut by_abs);
        top_peaks_into(&complex, w, RowBand::all(h), k, C64::norm_sqr, &mut cand, &mut by_sqr);
        prop_assert!(!by_abs.is_empty() && by_abs.len() <= k);
        let indices = |p: &[(usize, f64)]| p.iter().map(|&(i, _)| i).collect::<Vec<_>>();
        prop_assert_eq!(indices(&by_abs), indices(&by_sqr));
        for (a, &(i, m)) in by_abs.iter().enumerate() {
            prop_assert_eq!(m, real[i].abs());
            for &(j, n) in &by_abs[a + 1..] {
                prop_assert!(m >= n, "descending order");
                prop_assert!(
                    (i % w).abs_diff(j % w) > PEAK_SUPPRESSION_RADIUS
                        || (i / w).abs_diff(j / w) > PEAK_SUPPRESSION_RADIUS
                );
            }
        }
    }
}
