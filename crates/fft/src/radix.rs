//! Mixed-radix Cooley-Tukey FFT engine.
//!
//! A recursive decimation-in-time transform over an arbitrary radix
//! schedule (see [`crate::factor::radix_schedule`]): hard-coded butterflies
//! for radices 2, 3, 4 and 5, and a table-driven small-prime DFT for the
//! rest (up to [`crate::factor::MAX_NAIVE_PRIME`]). Lengths with larger
//! prime factors are handled by [`crate::bluestein`] instead.
//!
//! Plans are immutable after construction and safe to share across threads,
//! mirroring FFTW's `fftw_plan` reuse model that the paper relies on
//! (plan once during setup, execute thousands of times in the pipeline).

use crate::backend::{self, ComputeBackend, RADIX_DISPATCH_MIN_M};
use crate::complex::{c64, C64};
use crate::factor::{radix_schedule, MAX_NAIVE_PRIME};

/// Transform direction. Forward uses the kernel `e^{-2πi jk/n}`; inverse
/// uses `e^{+2πi jk/n}`. Neither direction scales the output — like FFTW,
/// `inverse(forward(x)) = n·x` and callers normalize when they need to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Signal domain → frequency domain.
    Forward,
    /// Frequency domain → signal domain (unscaled).
    Inverse,
}

impl Direction {
    /// Sign of the exponent: -1 for forward, +1 for inverse.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// Builds the length-`n` twiddle table `t[k] = e^{sign·2πi·k/n}`.
pub fn twiddle_table(n: usize, dir: Direction) -> Vec<C64> {
    let sign = dir.sign();
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    (0..n).map(|k| C64::cis(step * k as f64)).collect()
}

/// Reference O(n²) DFT. The ground truth every fast path is tested against,
/// and the execution fallback for tiny sizes.
pub fn dft_naive(input: &[C64], output: &mut [C64], dir: Direction) {
    let n = input.len();
    assert_eq!(output.len(), n);
    if n == 0 {
        return;
    }
    let tw = twiddle_table(n, dir);
    for (j, out) in output.iter_mut().enumerate() {
        let mut acc = C64::ZERO;
        for (k, &x) in input.iter().enumerate() {
            acc += x * tw[(j * k) % n];
        }
        *out = acc;
    }
}

/// A mixed-radix FFT plan for a fixed length, direction and radix schedule.
pub struct MixedRadixPlan {
    n: usize,
    direction: Direction,
    /// Radix per recursion level, product == n.
    schedule: Vec<usize>,
    /// Full-length twiddle table for the plan's direction.
    twiddles: Vec<C64>,
    /// Per-radix DFT matrices (row-major r×r) for radices without a
    /// hard-coded butterfly. Indexed by radix value.
    small_dft: Vec<Option<Vec<C64>>>,
}

impl MixedRadixPlan {
    /// Plans a transform of length `n` with the default (descending-radix)
    /// schedule. Panics if `n` has a prime factor larger than
    /// [`MAX_NAIVE_PRIME`] — the planner routes those to Bluestein.
    pub fn new(n: usize, direction: Direction) -> MixedRadixPlan {
        Self::with_schedule(n, direction, radix_schedule(n))
    }

    /// Plans with an explicit radix schedule (used by Measure/Patient
    /// planning modes to compare schedule orderings).
    pub fn with_schedule(n: usize, direction: Direction, schedule: Vec<usize>) -> MixedRadixPlan {
        assert!(n > 0, "transform length must be positive");
        assert_eq!(
            schedule.iter().product::<usize>(),
            n,
            "schedule must multiply to n"
        );
        let max_radix = schedule.iter().copied().max().unwrap_or(1);
        assert!(
            max_radix <= MAX_NAIVE_PRIME.max(4),
            "radix {max_radix} too large for mixed-radix plan (use Bluestein)"
        );
        let mut small_dft: Vec<Option<Vec<C64>>> = vec![None; max_radix + 1];
        for &r in &schedule {
            if !matches!(r, 1..=5) && small_dft[r].is_none() {
                let tw = twiddle_table(r, direction);
                let mut m = vec![C64::ZERO; r * r];
                for q in 0..r {
                    for k in 0..r {
                        m[q * r + k] = tw[(q * k) % r];
                    }
                }
                small_dft[r] = Some(m);
            }
        }
        MixedRadixPlan {
            n,
            direction,
            schedule,
            twiddles: twiddle_table(n, direction),
            small_dft,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 case (never constructed).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Plan direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Executes the transform out-of-place. `input` is left untouched.
    ///
    /// Panics if the slice lengths differ from the plan length.
    pub fn process(&self, input: &[C64], output: &mut [C64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.n);
        // Resolve the backend once per transform, not per plan — the
        // active backend can change between calls (testkit sweeps it).
        let backend = backend::active();
        self.rec(backend, input, 1, output, self.n, 0);
    }

    /// Recursive DIT step: `inp` is a strided view (stride `is`) of length
    /// `n`, results land contiguously in `out[..n]`.
    fn rec(
        &self,
        backend: &dyn ComputeBackend,
        inp: &[C64],
        is: usize,
        out: &mut [C64],
        n: usize,
        level: usize,
    ) {
        if n == 1 {
            out[0] = inp[0];
            return;
        }
        let r = self.schedule[level];
        let m = n / r;
        for k in 0..r {
            self.rec(
                backend,
                &inp[k * is..],
                is * r,
                &mut out[k * m..(k + 1) * m],
                m,
                level + 1,
            );
        }
        // Combine: X[j + q·m] = Σ_k (sub_k[j]·W_n^{kj})·W_r^{kq}.
        // For fixed j the reads {out[k·m+j]} and writes {out[q·m+j]} cover
        // the same index set, so gather-then-scatter through `t` is safe.
        let tw_step = self.n / n;
        let mut t = [C64::ZERO; MAX_NAIVE_PRIME + 1];
        match r {
            2 => {
                // Dispatch through the trait only when the butterfly is
                // wide enough to amortize the indirect call; the small-m
                // inline path reuses the scalar backend's definition so
                // both paths share one expression DAG.
                if m >= RADIX_DISPATCH_MIN_M {
                    backend.radix2_pass(&mut out[..2 * m], m, &self.twiddles, tw_step);
                } else {
                    backend::scalar::radix2_scalar(&mut out[..2 * m], m, &self.twiddles, tw_step);
                }
            }
            3 => {
                // W_3 = cis(sign·2π/3)
                let w1 = self.twiddles[self.n / 3];
                let w2 = self.twiddles[2 * (self.n / 3)];
                for j in 0..m {
                    let a = out[j];
                    let b = out[m + j] * self.twiddles[j * tw_step];
                    let c = out[2 * m + j] * self.twiddles[(2 * j * tw_step) % self.n];
                    out[j] = a + b + c;
                    out[m + j] = a + b * w1 + c * w2;
                    out[2 * m + j] = a + b * w2 + c * w1;
                }
            }
            4 => {
                let fwd = self.direction == Direction::Forward;
                if m >= RADIX_DISPATCH_MIN_M {
                    backend.radix4_pass(&mut out[..4 * m], m, &self.twiddles, tw_step, fwd);
                } else {
                    backend::scalar::radix4_scalar(
                        &mut out[..4 * m],
                        m,
                        &self.twiddles,
                        tw_step,
                        fwd,
                    );
                }
            }
            5 => {
                let w = [
                    C64::ONE,
                    self.twiddles[self.n / 5],
                    self.twiddles[2 * (self.n / 5)],
                    self.twiddles[3 * (self.n / 5)],
                    self.twiddles[4 * (self.n / 5)],
                ];
                for j in 0..m {
                    for (k, tk) in t.iter_mut().take(5).enumerate() {
                        *tk = out[k * m + j] * self.twiddles[(k * j * tw_step) % self.n];
                    }
                    for q in 0..5 {
                        let mut acc = t[0];
                        for k in 1..5 {
                            acc += t[k] * w[(q * k) % 5];
                        }
                        out[q * m + j] = acc;
                    }
                }
            }
            _ => {
                let mat = self.small_dft[r]
                    .as_ref()
                    .expect("small DFT matrix built at plan time");
                for j in 0..m {
                    for (k, tk) in t.iter_mut().take(r).enumerate() {
                        *tk = out[k * m + j] * self.twiddles[(k * j * tw_step) % self.n];
                    }
                    for q in 0..r {
                        let row = &mat[q * r..(q + 1) * r];
                        let mut acc = c64(0.0, 0.0);
                        for k in 0..r {
                            acc += t[k] * row[k];
                        }
                        out[q * m + j] = acc;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|k| c64(k as f64 * 0.37 - 1.0, (k * k % 17) as f64 * 0.11))
            .collect()
    }

    #[test]
    fn direction_sign_and_reverse() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
        assert_eq!(Direction::Forward.reverse(), Direction::Inverse);
    }

    #[test]
    fn dft_of_delta_is_flat() {
        let mut x = vec![C64::ZERO; 8];
        x[0] = C64::ONE;
        let mut out = vec![C64::ZERO; 8];
        dft_naive(&x, &mut out, Direction::Forward);
        for v in out {
            assert!((v - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![C64::ONE; 16];
        let mut out = vec![C64::ZERO; 16];
        dft_naive(&x, &mut out, Direction::Forward);
        assert!((out[0] - c64(16.0, 0.0)).abs() < 1e-10);
        for v in &out[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn matches_naive_all_small_sizes() {
        for n in 1..=64usize {
            if !crate::factor::is_smooth(n) {
                continue;
            }
            let x = ramp(n);
            let mut fast = vec![C64::ZERO; n];
            let mut slow = vec![C64::ZERO; n];
            for dir in [Direction::Forward, Direction::Inverse] {
                MixedRadixPlan::new(n, dir).process(&x, &mut fast);
                dft_naive(&x, &mut slow, dir);
                assert!(max_err(&fast, &slow) < 1e-9 * n as f64, "n={n} dir={dir:?}");
            }
        }
    }

    #[test]
    fn matches_naive_tile_like_sizes() {
        // 1392 = 2^4·3·29 and 1040 = 2^4·5·13 — the paper's tile dims.
        for n in [348usize, 1392, 1040, 520] {
            let x = ramp(n);
            let mut fast = vec![C64::ZERO; n];
            let mut slow = vec![C64::ZERO; n];
            MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut fast);
            dft_naive(&x, &mut slow, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_scales_by_n() {
        for n in [1usize, 2, 6, 30, 128, 360, 1024] {
            let x = ramp(n);
            let mut freq = vec![C64::ZERO; n];
            let mut back = vec![C64::ZERO; n];
            MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut freq);
            MixedRadixPlan::new(n, Direction::Inverse).process(&freq, &mut back);
            let scaled: Vec<C64> = x.iter().map(|z| z.scale(n as f64)).collect();
            assert!(max_err(&back, &scaled) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn alternative_schedules_agree() {
        let n = 120; // 2^3·3·5
        let x = ramp(n);
        let mut reference = vec![C64::ZERO; n];
        MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut reference);
        for sched in [
            vec![2, 2, 2, 3, 5],
            vec![5, 3, 4, 2],
            vec![3, 5, 2, 4],
            vec![2, 3, 4, 5],
        ] {
            let mut out = vec![C64::ZERO; n];
            MixedRadixPlan::with_schedule(n, Direction::Forward, sched.clone())
                .process(&x, &mut out);
            assert!(max_err(&out, &reference) < 1e-9, "schedule {sched:?}");
        }
    }

    #[test]
    fn input_is_untouched() {
        let x = ramp(60);
        let snapshot = x.clone();
        let mut out = vec![C64::ZERO; 60];
        MixedRadixPlan::new(60, Direction::Forward).process(&x, &mut out);
        assert_eq!(
            x.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>(),
            snapshot.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 240;
        let x = ramp(n);
        let mut freq = vec![C64::ZERO; n];
        MixedRadixPlan::new(n, Direction::Forward).process(&x, &mut freq);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    #[should_panic]
    fn wrong_output_len_panics() {
        let plan = MixedRadixPlan::new(8, Direction::Forward);
        let x = vec![C64::ZERO; 8];
        let mut out = vec![C64::ZERO; 4];
        plan.process(&x, &mut out);
    }
}
