//! Mixed-radix Cooley-Tukey FFT engine, generic over its precision and
//! its lane type.
//!
//! One decimation-in-time transform over an arbitrary radix schedule (see
//! [`crate::factor::radix_schedule`]), written once over [`Cx<L>`]: with
//! `L = f32` (or `f64`) it is a single transform, with `L = [f32; 8]`
//! (`[f64; 4]`) eight (four) independent transforms — image columns,
//! image rows — advance through the same butterflies in lock step:
//! vectorised across transforms, so no butterfly needs a shuffle or an
//! ISA of its own, and every lane performs exactly the operations of the
//! one-lane run. A plan's tables are computed in `f64` and rounded once
//! to the plan's precision `T`.
//!
//! The plan is a list of passes built at plan time. The first reads the
//! input — through a caller-supplied `load(index)`, so packing reals,
//! gathering columns or rebuilding a Hermitian spectrum costs no pass of
//! its own — in digit-reversed order, `radix` elements a butterfly, no
//! twiddles. Every later pass combines `radix` finished sub-transforms of
//! length `m` in place, reading its twiddles front to back from its own
//! contiguous table. Butterflies: radix 2 and 4 by hand, and **one**
//! routine for every odd prime up to [`MAX_NAIVE_PRIME`] that uses the
//! Hermitian symmetry of the DFT matrix: with `s_k = t_k + t_{p−k}` and
//! `d_k = t_k − t_{p−k}`,
//!
//! ```text
//! X_q, X_{p−q} = a ± i·b,   a = t_0 + Σ_k cos(2πqk/p)·s_k,
//!                           b = Σ_k ∓sin(2πqk/p)·d_k,   k, q = 1..(p−1)/2
//! ```
//!
//! — `(p−1)²` real multiplications where the `p × p` complex matrix
//! takes `4p²`. Lengths with larger prime factors are handled by
//! [`crate::bluestein`] on top of this engine.
//!
//! Plans are immutable after construction and safe to share across threads,
//! mirroring FFTW's `fftw_plan` reuse model that the paper relies on
//! (plan once during setup, execute thousands of times in the pipeline).

use crate::complex::{Cx, Float, Lane, C64};
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
}

/// Builds the length-`n` twiddle table `t[k] = e^{sign·2πi·k/n}`.
fn twiddle_table(n: usize, dir: Direction) -> Vec<C64> {
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

/// Largest butterfly, and half of it (the odd-prime routine's sums).
const MAX_RADIX: usize = MAX_NAIVE_PRIME + 1;
const MAX_HALF: usize = MAX_NAIVE_PRIME / 2;

/// One butterfly pass: `radix` sub-transforms of length `m` become one
/// of length `radix·m`, in every block of that length.
struct Stage<T> {
    radix: usize,
    m: usize,
    /// `W_{radix·m}^{k·j}` at `[j·(radix−1) + k−1]` for `j < m`,
    /// `1 ≤ k < radix` — the order the pass reads them. Empty for the
    /// first pass (`m = 1`).
    twiddles: Vec<Cx<T>>,
    /// Odd radix `p = 2h+1`: `W_p^{q·k}` at `[(q−1)·h + k−1]` for
    /// `1 ≤ q, k ≤ h`.
    trig: Vec<Cx<T>>,
}

/// Real multiplications of one radix-`r` butterfly.
fn butterfly_mults(r: usize) -> u64 {
    match r {
        2 | 4 => 0,
        p => ((p - 1) * (p - 1)) as u64,
    }
}

/// A mixed-radix FFT plan for a fixed length, direction, radix schedule
/// and precision.
pub struct MixedRadixPlan<T> {
    n: usize,
    direction: Direction,
    /// Passes in execution order: `stages[0]` reads the input.
    stages: Vec<Stage<T>>,
    /// Input index of the first element of each first-pass butterfly
    /// (the rest follow at stride `n / radix`).
    leaf_base: Vec<u32>,
    real_mults: u64,
}

impl<T: Float> MixedRadixPlan<T> {
    /// Plans a transform of length `n` with the default (descending-radix)
    /// schedule. Panics if `n` has a prime factor larger than
    /// [`MAX_NAIVE_PRIME`] — the planner routes those to Bluestein.
    pub fn new(n: usize, direction: Direction) -> MixedRadixPlan<T> {
        Self::with_schedule(n, direction, radix_schedule(n))
    }

    /// Plans with an explicit radix schedule, outermost radix first (used
    /// by Measure/Patient planning modes to compare schedule orderings).
    pub fn with_schedule(
        n: usize,
        direction: Direction,
        schedule: Vec<usize>,
    ) -> MixedRadixPlan<T> {
        assert!(n > 0, "transform length must be positive");
        assert!(u32::try_from(n).is_ok(), "transform length too large");
        assert_eq!(
            schedule.iter().product::<usize>(),
            n,
            "schedule must multiply to n"
        );
        for &r in &schedule {
            assert!(
                r == 2 || r == 4 || (r % 2 == 1 && (3..=MAX_NAIVE_PRIME).contains(&r)),
                "no radix-{r} butterfly (use Bluestein)"
            );
        }
        let full = twiddle_table(n, direction);
        let mut stages = Vec::with_capacity(schedule.len());
        let mut real_mults = 0;
        let mut m = 1;
        for &radix in schedule.iter().rev() {
            let step = n / (radix * m);
            let twiddles = if m == 1 {
                Vec::new()
            } else {
                (0..m)
                    .flat_map(|j| (1..radix).map(move |k| (j, k)))
                    .map(|(j, k)| Cx::from_c64(full[k * j * step]))
                    .collect()
            };
            let h = if radix % 2 == 1 { radix / 2 } else { 0 };
            let unit = twiddle_table(radix, direction);
            let trig = (1..=h)
                .flat_map(|q| (1..=h).map(move |k| (q, k)))
                .map(|(q, k)| Cx::from_c64(unit[q * k % radix]))
                .collect();
            let blocks = (n / (radix * m)) as u64;
            real_mults += blocks * (m as u64 * butterfly_mults(radix) + 4 * twiddles.len() as u64);
            stages.push(Stage {
                radix,
                m,
                twiddles,
                trig,
            });
            m *= radix;
        }
        let leaf = schedule.last().copied().unwrap_or(1);
        let mut leaf_base = vec![0u32; n / leaf];
        fill_leaf_bases(&schedule, 0, 1, 0, n, &mut leaf_base);
        MixedRadixPlan {
            n,
            direction,
            stages,
            leaf_base,
            real_mults,
        }
    }

    /// Transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Real multiplications one execution performs, per lane: four per
    /// twiddle, `(p−1)²` per odd-prime butterfly. A function of length,
    /// schedule and butterflies only.
    pub fn real_mults(&self) -> u64 {
        self.real_mults
    }

    /// Executes the transform out-of-place. `input` is left untouched.
    ///
    /// Panics if the slice lengths differ from the plan length.
    pub fn process(&self, input: &[Cx<T>], output: &mut [Cx<T>]) {
        self.run_slice(input, output);
    }

    /// [`MixedRadixPlan::run`] from a slice: the one instantiation per
    /// lane type that everything reading plain buffers shares.
    pub(crate) fn run_slice<L: Lane<Scalar = T>>(&self, input: &[Cx<L>], out: &mut [Cx<L>]) {
        assert_eq!(input.len(), self.n);
        self.run(|k| input[k], out);
    }

    /// Executes the transform: element `k` of the input is `load(k)`
    /// (called exactly once per `k`), the result lands in `out`.
    /// Always inlined, so the caller's `#[target_feature]` (and its
    /// `load`) compile into the passes.
    #[inline(always)]
    pub(crate) fn run<L: Lane<Scalar = T>>(
        &self,
        load: impl Fn(usize) -> Cx<L>,
        out: &mut [Cx<L>],
    ) {
        assert_eq!(out.len(), self.n);
        let Some((leaf, combines)) = self.stages.split_first() else {
            out[0] = load(0);
            return;
        };
        let fwd = self.direction == Direction::Forward;
        let mut t = [Cx::<L>::default(); MAX_RADIX];
        let mut sd = [[Cx::<L>::default(); 2]; MAX_HALF];
        // A literal radix per arm: the inlined body unrolls for it.
        macro_rules! per_radix {
            ($radix:expr, $r:ident => $body:block) => {
                match $radix {
                    2 => {
                        let $r = 2;
                        $body
                    }
                    3 => {
                        let $r = 3;
                        $body
                    }
                    4 => {
                        let $r = 4;
                        $body
                    }
                    5 => {
                        let $r = 5;
                        $body
                    }
                    $r => $body,
                }
            };
        }
        let stride = self.n / leaf.radix;
        per_radix!(leaf.radix, r => {
            for (blk, &base) in out.chunks_exact_mut(r).zip(&self.leaf_base) {
                for (k, tk) in t[..r].iter_mut().enumerate() {
                    *tk = load(base as usize + k * stride);
                }
                butterfly(&mut t, &mut sd, r, fwd, &leaf.trig);
                blk.copy_from_slice(&t[..r]);
            }
        });
        for st in combines {
            let m = st.m;
            per_radix!(st.radix, r => {
                for blk in out.chunks_exact_mut(r * m) {
                    for (j, tw) in st.twiddles.chunks_exact(r - 1).enumerate() {
                        t[0] = blk[j];
                        for k in 1..r {
                            t[k] = blk[k * m + j] * tw[k - 1];
                        }
                        butterfly(&mut t, &mut sd, r, fwd, &st.trig);
                        for q in 0..r {
                            blk[q * m + j] = t[q];
                        }
                    }
                }
            });
        }
    }
}

/// Walks the decimation tree the way the recursion would and records, for
/// every first-pass butterfly (output block `out_off / leaf`), where its
/// first input element lies.
fn fill_leaf_bases(
    schedule: &[usize],
    in_off: usize,
    in_stride: usize,
    out_off: usize,
    n: usize,
    bases: &mut [u32],
) {
    match schedule {
        [] => {}
        [leaf] => bases[out_off / leaf] = in_off as u32,
        [r, rest @ ..] => {
            let m = n / r;
            for k in 0..*r {
                fill_leaf_bases(
                    rest,
                    in_off + k * in_stride,
                    in_stride * r,
                    out_off + k * m,
                    m,
                    bases,
                );
            }
        }
    }
}

/// The length-`r` DFT of `t[..r]`, in place. `sd` is working room for
/// the odd-prime routine; `trig` its plan-time table.
#[inline(always)]
fn butterfly<L: Lane>(
    t: &mut [Cx<L>; MAX_RADIX],
    sd: &mut [[Cx<L>; 2]; MAX_HALF],
    r: usize,
    fwd: bool,
    trig: &[Cx<L::Scalar>],
) {
    // forward: W_4 = −i ; inverse: W_4 = +i
    let rot = |z: Cx<L>| if fwd { z.mul_neg_i() } else { z.mul_i() };
    match r {
        2 => (t[0], t[1]) = (t[0] + t[1], t[0] - t[1]),
        4 => {
            let (ac_p, ac_m) = (t[0] + t[2], t[0] - t[2]);
            let (bd_p, bd_m) = (t[1] + t[3], rot(t[1] - t[3]));
            t[0] = ac_p + bd_p;
            t[1] = ac_m + bd_m;
            t[2] = ac_p - bd_p;
            t[3] = ac_m - bd_m;
        }
        p => {
            let h = p / 2;
            let t0 = t[0];
            for k in 1..=h {
                sd[k - 1] = [t[k] + t[p - k], t[k] - t[p - k]];
                t[0] = t[0] + sd[k - 1][0];
            }
            for (q, row) in trig.chunks_exact(h).enumerate() {
                let (mut a, mut b) = (t0 + sd[0][0].scale(row[0].re), sd[0][1].scale(row[0].im));
                for (&[s, d], w) in sd[1..].iter().zip(&row[1..]) {
                    a = a + s.scale(w.re);
                    b = b + d.scale(w.im);
                }
                // X_q = a + i·b, X_{p−q} = a − i·b
                t[q + 1] = Cx {
                    re: a.re.sub(b.im),
                    im: a.im.add(b.re),
                };
                t[p - q - 1] = Cx {
                    re: a.re.add(b.im),
                    im: a.im.sub(b.re),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

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
    fn direction_sign() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
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

    /// Every odd-prime butterfly, as the untwiddled first pass
    /// (`[2, p]`), as a twiddled combine (`[p, 4]`) and alone, in both
    /// directions, at both precisions, one lane and a register's worth
    /// (`[f64; 4]`, `[f32; 8]`): each lane against `dft_naive`, and the
    /// wide run bit-identical to that many one-lane runs.
    #[test]
    fn every_prime_butterfly_matches_naive_in_every_lane() {
        fn check<L: Lane>(schedule: &[usize], dir: Direction, tol: f64) {
            let bits = |v: &[Cx<L::Scalar>]| {
                let v = v.iter().map(|z| z.to_c64());
                v.map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            let n: usize = schedule.iter().product();
            let plan = MixedRadixPlan::<L::Scalar>::with_schedule(n, dir, schedule.to_vec());
            let x: Vec<Vec<Cx<L::Scalar>>> = (0..L::N)
                .map(|l| ramp(n + l).into_iter().skip(l).map(Cx::from_c64).collect())
                .collect();
            let mut wide = vec![Cx::<L>::default(); n];
            plan.run(|k| Cx::from_fn(|l| x[l][k]), &mut wide);
            for (l, xl) in x.iter().enumerate() {
                let what = format!("{schedule:?} {dir:?} lane {l} of {}", L::N);
                let mut fast = vec![Cx::ZERO; n];
                plan.process(xl, &mut fast);
                let exact: Vec<C64> = xl.iter().map(|z| z.to_c64()).collect();
                let mut slow = vec![C64::ZERO; n];
                dft_naive(&exact, &mut slow, dir);
                let fast64: Vec<C64> = fast.iter().map(|z| z.to_c64()).collect();
                assert!(max_err(&fast64, &slow) < tol * n as f64, "{what}");
                let lane: Vec<_> = wide.iter().map(|z| z.lane(l)).collect();
                assert_eq!(bits(&lane), bits(&fast), "{what}");
            }
        }
        for p in [3usize, 5, 7, 11, 13, 17, 19, 23, 29, 31] {
            for dir in [Direction::Forward, Direction::Inverse] {
                for schedule in [vec![p], vec![2, p], vec![p, 4]] {
                    check::<[f64; 4]>(&schedule, dir, 1e-10);
                    check::<[f32; 8]>(&schedule, dir, 1e-5);
                }
            }
        }
    }

    #[test]
    fn real_mults_is_the_hand_count() {
        // 696 = 29·4·3·2: twiddles 4·(r−1)·n/r on the three combines,
        // (p−1)² per odd butterfly; the radix-2 first pass is free.
        let plan = MixedRadixPlan::<f64>::new(696, Direction::Forward);
        let combine = |r: u64, bfly: u64| 696 / r * (4 * (r - 1) + bfly);
        assert_eq!(
            plan.real_mults(),
            combine(3, 4) + combine(4, 0) + combine(29, 784)
        );
        assert_eq!(
            MixedRadixPlan::<f64>::new(1024, Direction::Inverse).real_mults(),
            4 * 3 * 256 * 4
        );
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
