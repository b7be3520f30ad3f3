//! Order statistics for the benchmark's own samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spread `--compare` prints is the one the acceptance driver computes.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// The highest percentile worth reporting from `n` samples: the largest
/// of the usual tail percentiles that still has at least ten samples
/// beyond it. `None` below 20 samples (not even the median qualifies).
pub fn highest_percentile(n: usize) -> Option<f64> {
    // in tenths of a percent, so "ten samples beyond" is exact arithmetic
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100] of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `wanted`, lowered to the highest percentile the sample
/// count supports (the median when even that has too few samples).
pub fn tail(values: &[f64], wanted: f64) -> f64 {
    match highest_percentile(values.len()) {
        Some(p) if p > 50.0 => percentile(values, p.min(wanted)),
        _ => median(values),
    }
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median(&v),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median — the run-to-run
    /// spread the bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(150), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        // 30 samples support only the median
        assert_eq!(tail(&few, 90.0), median(&few));
        let many: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&many, 90.0), 135.0);
        // never reports a higher percentile than asked for
        let lots: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&lots, 90.0), 900.0);
    }

    #[test]
    fn summary_spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
