//! FFTW-style planner with Estimate / Measure / Patient modes and a
//! process-wide plan cache.
//!
//! The paper (§IV-A) reports that FFTW's *patient* planning mode yielded a
//! 2x execution improvement over *estimate* mode for its 1392×1040 tiles,
//! at a one-time planning cost that is amortized across thousands of
//! transforms. This module reproduces that trade-off: Estimate picks the
//! default radix schedule heuristically; Measure and Patient time candidate
//! schedules on scratch data and keep the fastest, with Patient exploring a
//! larger candidate set.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::bluestein::BluesteinPlan;
use crate::complex::{c64, Cx, Float, Lane};
use crate::factor::{is_smooth, radix_schedule};
use crate::radix::{Direction, MixedRadixPlan};

/// How much effort the planner spends searching for a fast plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PlanMode {
    /// Use the default schedule without measuring. Cheapest to plan,
    /// potentially slower to execute.
    #[default]
    Estimate,
    /// Time a small set of candidate schedules and keep the fastest.
    Measure,
    /// Time a wider set of candidate schedules (FFTW's `FFTW_PATIENT`).
    Patient,
}

impl PlanMode {
    /// Number of timing repetitions per candidate.
    fn reps(self) -> usize {
        match self {
            PlanMode::Estimate => 0,
            PlanMode::Measure => 2,
            PlanMode::Patient => 4,
        }
    }
}

/// A plan's cache key: length, direction and the precision's type.
type PlanKey = (usize, Direction, TypeId);

/// A ready-to-execute 1-D FFT plan at precision `T`: mixed-radix when the
/// length is smooth, Bluestein otherwise. Immutable and shareable across
/// threads.
pub enum FftPlan<T> {
    /// Cooley-Tukey mixed-radix plan.
    MixedRadix(MixedRadixPlan<T>),
    /// Chirp-z plan for lengths with large prime factors.
    Bluestein(BluesteinPlan<T>),
}

impl<T: Float> FftPlan<T> {
    /// Transform length.
    pub(crate) fn len(&self) -> usize {
        match self {
            FftPlan::MixedRadix(p) => p.len(),
            FftPlan::Bluestein(p) => p.len(),
        }
    }

    /// Executes out-of-place; `input` is left untouched. Unscaled in both
    /// directions (FFTW convention): `inverse(forward(x)) = n·x`.
    pub fn process(&self, input: &[Cx<T>], output: &mut [Cx<T>]) {
        match self {
            FftPlan::MixedRadix(p) => p.process(input, output),
            FftPlan::Bluestein(p) => p.process(input, output),
        }
    }

    /// Real multiplications one execution performs, per lane — known at
    /// plan time, the same on every host and backend.
    pub fn real_mults(&self) -> u64 {
        match self {
            FftPlan::MixedRadix(p) => p.real_mults(),
            FftPlan::Bluestein(p) => p.real_mults(),
        }
    }

    /// Scratch elements [`FftPlan::run`] needs beside its output.
    pub(crate) fn scratch_len(&self) -> usize {
        match self {
            FftPlan::MixedRadix(_) => 0,
            FftPlan::Bluestein(p) => p.scratch_len(),
        }
    }

    /// Executes over any lane type: element `k` of the input is
    /// `load(k)`, the result lands in `out`, `scratch` holds
    /// [`FftPlan::scratch_len`] elements of unspecified content. The
    /// mixed-radix passes inline into the caller (see
    /// [`MixedRadixPlan::run`]).
    #[inline(always)]
    pub(crate) fn run<L: Lane<Scalar = T>>(
        &self,
        load: impl Fn(usize) -> Cx<L>,
        out: &mut [Cx<L>],
        scratch: &mut [Cx<L>],
    ) {
        match self {
            FftPlan::MixedRadix(p) => p.run(load, out),
            FftPlan::Bluestein(p) => p.run(load, out, scratch),
        }
    }
}

/// Plans 1-D FFTs and caches them by `(len, direction, precision)`.
///
/// Use one per process so planning cost is paid once, as the pipeline
/// implementations in `stitch-core` do.
pub struct Planner {
    mode: PlanMode,
    /// Values are `Arc<FftPlan<T>>` for the `T` in the key.
    cache: Mutex<HashMap<PlanKey, Arc<dyn Any + Send + Sync>>>,
    /// Cumulative wall time spent planning (the §IV-A "patient planning
    /// took 4min20s" cost — observable so benches can report it).
    planning_nanos: Mutex<u128>,
}

impl Planner {
    /// Creates a planner with the given search effort.
    pub fn new(mode: PlanMode) -> Planner {
        Planner {
            mode,
            cache: Mutex::new(HashMap::new()),
            planning_nanos: Mutex::new(0),
        }
    }

    /// Total time spent planning so far, in nanoseconds.
    pub fn planning_nanos(&self) -> u128 {
        *self.planning_nanos.lock().unwrap()
    }

    /// Returns the plan for `(n, dir)` at precision `T`, planning and
    /// caching it on first use.
    pub fn plan<T: Float>(&self, n: usize, dir: Direction) -> Arc<FftPlan<T>> {
        let key = (n, dir, TypeId::of::<T>());
        let cached = self.cache.lock().unwrap().get(&key).cloned();
        let plan = cached.unwrap_or_else(|| {
            let t0 = Instant::now();
            let plan: Arc<dyn Any + Send + Sync> = Arc::new(self.build::<T>(n, dir));
            *self.planning_nanos.lock().unwrap() += t0.elapsed().as_nanos();
            let mut cache = self.cache.lock().unwrap();
            Arc::clone(cache.entry(key).or_insert(plan))
        });
        plan.downcast()
            .expect("the cache key names the plan's precision")
    }

    fn build<T: Float>(&self, n: usize, dir: Direction) -> FftPlan<T> {
        if !is_smooth(n) {
            return FftPlan::Bluestein(BluesteinPlan::new(n, dir));
        }
        let default = radix_schedule(n);
        let candidates = match self.mode {
            PlanMode::Estimate => vec![default],
            PlanMode::Measure | PlanMode::Patient => {
                let mut c = schedule_candidates(&default);
                if self.mode == PlanMode::Measure {
                    c.truncate(3);
                }
                c
            }
        };
        if candidates.len() == 1 {
            return FftPlan::MixedRadix(MixedRadixPlan::with_schedule(
                n,
                dir,
                candidates.into_iter().next().unwrap(),
            ));
        }
        // Time each candidate on scratch data; keep the fastest.
        let input: Vec<Cx<T>> = (0..n)
            .map(|k| Cx::from_c64(c64((k % 13) as f64, (k % 7) as f64)))
            .collect();
        let mut output = vec![Cx::ZERO; n];
        let reps = self.mode.reps();
        let mut best: Option<(u128, MixedRadixPlan<T>)> = None;
        for sched in candidates {
            let plan = MixedRadixPlan::with_schedule(n, dir, sched);
            plan.process(&input, &mut output); // warm-up
            let t0 = Instant::now();
            for _ in 0..reps {
                plan.process(&input, &mut output);
            }
            let cost = t0.elapsed().as_nanos();
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, plan));
            }
        }
        FftPlan::MixedRadix(best.expect("at least one candidate").1)
    }
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(PlanMode::Estimate)
    }
}

/// Candidate schedule orderings derived from the default: descending,
/// ascending, and rotations placing each distinct radix first.
fn schedule_candidates(default: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![default.to_vec()];
    let mut asc = default.to_vec();
    asc.sort_unstable();
    if asc != default {
        out.push(asc);
    }
    let mut seen_first: Vec<usize> = out.iter().map(|s| s[0]).collect();
    for (i, &r) in default.iter().enumerate() {
        if !seen_first.contains(&r) {
            let mut s = default.to_vec();
            s.rotate_left(i);
            seen_first.push(r);
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;
    use crate::radix::dft_naive;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|k| c64((k % 11) as f64 - 5.0, (k % 3) as f64))
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn planner_routes_smooth_to_mixed_radix() {
        let p = Planner::default();
        assert!(matches!(
            *p.plan::<f64>(1392, Direction::Forward),
            FftPlan::MixedRadix(_)
        ));
        assert!(matches!(
            *p.plan::<f32>(97, Direction::Forward),
            FftPlan::Bluestein(_)
        ));
    }

    #[test]
    fn cache_returns_same_plan() {
        let p = Planner::default();
        let a = p.plan::<f64>(256, Direction::Forward);
        let b = p.plan::<f64>(256, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(p.cache.lock().unwrap().len(), 1);
        p.plan::<f64>(256, Direction::Inverse);
        assert_eq!(p.cache.lock().unwrap().len(), 2);
        // one entry per precision: an f32 plan is its own
        let c = p.plan::<f32>(256, Direction::Forward);
        assert!(Arc::ptr_eq(&c, &p.plan::<f32>(256, Direction::Forward)));
        assert_eq!(p.cache.lock().unwrap().len(), 3);
    }

    #[test]
    fn all_modes_agree_with_naive() {
        let n = 120;
        let x = ramp(n);
        let mut slow = vec![C64::ZERO; n];
        dft_naive(&x, &mut slow, Direction::Forward);
        for mode in [PlanMode::Estimate, PlanMode::Measure, PlanMode::Patient] {
            let p = Planner::new(mode);
            let mut fast = vec![C64::ZERO; n];
            p.plan(n, Direction::Forward).process(&x, &mut fast);
            assert!(max_err(&fast, &slow) < 1e-9, "mode {mode:?}");
        }
    }

    #[test]
    fn measured_modes_record_planning_time() {
        let p = Planner::new(PlanMode::Patient);
        p.plan::<f32>(360, Direction::Forward);
        assert!(p.planning_nanos() > 0);
    }

    #[test]
    fn candidates_all_valid() {
        let d = radix_schedule(720);
        for c in schedule_candidates(&d) {
            assert_eq!(c.iter().product::<usize>(), 720);
        }
    }
}
