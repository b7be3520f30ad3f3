//! Bluestein (chirp-z) transform for lengths with large prime factors.
//!
//! Rewrites an arbitrary-length DFT as a linear convolution, which is then
//! evaluated with a power-of-two FFT of size ≥ 2n−1. This is what lets the
//! library accept *any* tile dimension, just as FFTW does — the paper's
//! microscopy tiles (1392×1040) are not guaranteed to have friendly sizes
//! (§III: "there is no guarantee that the partial images will have such
//! nice dimensions"). The chirp and the transformed kernel are computed in
//! `f64` and rounded once to the plan's precision.

use crate::complex::{Cx, Float, Lane, C64};
use crate::factor::next_pow2;
use crate::radix::{Direction, MixedRadixPlan};
use crate::scratch;

/// A Bluestein FFT plan for one fixed length, direction and precision.
pub struct BluesteinPlan<T> {
    n: usize,
    /// Convolution FFT size: power of two ≥ 2n−1.
    m: usize,
    /// Chirp `w[k] = e^{sign·πi·k²/n}` for k in 0..n.
    chirp: Vec<Cx<T>>,
    /// Pre-transformed convolution kernel: `FFT_m(b)` where
    /// `b[k] = conj(chirp[k])` wrapped circularly.
    kernel_freq: Vec<Cx<T>>,
    fwd: MixedRadixPlan<T>,
    inv: MixedRadixPlan<T>,
}

impl<T: Float> BluesteinPlan<T> {
    /// Plans a length-`n` transform. Works for every `n ≥ 1`.
    pub fn new(n: usize, direction: Direction) -> BluesteinPlan<T> {
        assert!(n > 0, "transform length must be positive");
        let m = next_pow2(2 * n - 1);
        let sign = direction.sign();
        // chirp[k] = e^{sign·πi·k²/n}; compute k² mod 2n to avoid precision
        // loss from huge k² arguments.
        let step = sign * std::f64::consts::PI / n as f64;
        let chirp: Vec<C64> = (0..n)
            .map(|k| {
                let k2 = (k * k) % (2 * n);
                C64::cis(step * k2 as f64)
            })
            .collect();
        // b[k] = conj(chirp[|k|]) placed circularly at indices k and m−k.
        let mut b = vec![C64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let v = chirp[k].conj();
            b[k] = v;
            b[m - k] = v;
        }
        let mut kernel_freq = vec![C64::ZERO; m];
        MixedRadixPlan::new(m, Direction::Forward).process(&b, &mut kernel_freq);
        let narrow = |v: Vec<C64>| v.into_iter().map(Cx::from_c64).collect();
        BluesteinPlan {
            n,
            m,
            chirp: narrow(chirp),
            kernel_freq: narrow(kernel_freq),
            fwd: MixedRadixPlan::new(m, Direction::Forward),
            inv: MixedRadixPlan::new(m, Direction::Inverse),
        }
    }

    /// Transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Real multiplications one execution performs, per lane: the two
    /// chirp products, the kernel product, the `1/m` scale and the two
    /// power-of-two transforms.
    pub fn real_mults(&self) -> u64 {
        (4 + 6) * self.n as u64 + 4 * self.m as u64 + self.fwd.real_mults() + self.inv.real_mults()
    }

    /// Scratch elements [`BluesteinPlan::run`] needs: the two length-`m`
    /// convolution buffers.
    pub(crate) fn scratch_len(&self) -> usize {
        2 * self.m
    }

    /// Executes the transform out-of-place; `input` is left untouched.
    /// Allocation-free at steady state: the convolution buffers come from
    /// the thread-local [`crate::scratch`] pool.
    pub fn process(&self, input: &[Cx<T>], output: &mut [Cx<T>]) {
        assert_eq!(input.len(), self.n);
        let mut buf = scratch::take(self.scratch_len());
        self.run(|k| input[k], output, buf.slice())
    }

    /// Executes the transform: element `k` of the input is `load(k)`,
    /// the result lands in `out`; `scratch` holds
    /// [`BluesteinPlan::scratch_len`] elements of unspecified content.
    pub(crate) fn run<L: Lane<Scalar = T>>(
        &self,
        load: impl Fn(usize) -> Cx<L>,
        out: &mut [Cx<L>],
        scratch: &mut [Cx<L>],
    ) {
        assert_eq!(out.len(), self.n);
        let (a, freq) = scratch[..2 * self.m].split_at_mut(self.m);
        // a[k] = x[k]·chirp[k], zero-padded to m.
        for (k, (ak, &c)) in a.iter_mut().zip(&self.chirp).enumerate() {
            *ak = load(k) * c;
        }
        a[self.n..].fill(Cx::default());
        self.fwd.run_slice(a, freq);
        for (f, &k) in freq.iter_mut().zip(&self.kernel_freq) {
            *f = *f * k;
        }
        self.inv.run_slice(freq, a);
        let scale = T::from_f64(1.0 / self.m as f64);
        for ((o, aj), &c) in out.iter_mut().zip(a.iter()).zip(&self.chirp) {
            *o = aj.scale(scale) * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::radix::dft_naive;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|k| c64((k % 7) as f64 - 3.0, (k % 5) as f64 * 0.25))
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_for_primes() {
        for n in [2usize, 3, 5, 37, 97, 101, 211] {
            let x = ramp(n);
            let mut fast = vec![C64::ZERO; n];
            let mut slow = vec![C64::ZERO; n];
            for dir in [Direction::Forward, Direction::Inverse] {
                BluesteinPlan::new(n, dir).process(&x, &mut fast);
                dft_naive(&x, &mut slow, dir);
                assert!(max_err(&fast, &slow) < 1e-8 * n as f64, "n={n} dir={dir:?}");
            }
        }
    }

    #[test]
    fn matches_naive_for_composites() {
        // Bluestein must be correct for smooth sizes too (planner may pick it).
        for n in [1usize, 4, 12, 100, 360] {
            let x = ramp(n);
            let mut fast = vec![C64::ZERO; n];
            let mut slow = vec![C64::ZERO; n];
            BluesteinPlan::new(n, Direction::Forward).process(&x, &mut fast);
            dft_naive(&x, &mut slow, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-8 * (n.max(2)) as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_scales_by_n() {
        for n in [53usize, 149] {
            let x = ramp(n);
            let mut freq = vec![C64::ZERO; n];
            let mut back = vec![C64::ZERO; n];
            BluesteinPlan::new(n, Direction::Forward).process(&x, &mut freq);
            BluesteinPlan::new(n, Direction::Inverse).process(&freq, &mut back);
            let scaled: Vec<C64> = x.iter().map(|z| z.scale(n as f64)).collect();
            assert!(max_err(&back, &scaled) < 1e-7 * n as f64);
        }
    }

    #[test]
    fn conv_len_is_pow2_and_big_enough() {
        for n in [7usize, 31, 97, 1000] {
            let p = BluesteinPlan::<f64>::new(n, Direction::Forward);
            assert!(p.m.is_power_of_two());
            assert!(p.m >= 2 * n - 1);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let p = BluesteinPlan::new(1, Direction::Forward);
        let x = [c64(2.5, -1.5)];
        let mut out = [C64::ZERO];
        p.process(&x, &mut out);
        assert!((out[0] - x[0]).abs() < 1e-12);
    }
}
