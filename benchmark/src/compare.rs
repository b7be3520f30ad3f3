//! `stitchbench --compare A.json B.json`: per workload and end-to-end
//! metric, B's median against A's and the metric's bound.
//!
//! Two reports of the same code (A/A) must come out `ok` everywhere;
//! parent-vs-change comparisons use the same tool.

use crate::json::Value;
use crate::report::END_TO_END;
use crate::stats::Summary;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Breach,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// All metrics are lower-is-better. `a` and `b` are the per-run values.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let change = if sa.median == 0.0 {
        0.0
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let noisy = sa.spread() > bound || sb.spread() > bound;
    // every run of B better than every run of A settles it despite noise
    let clearly_better = sb.max < sa.min;
    let v = if noisy && !clearly_better {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    };
    (v, change)
}

fn values(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let list = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    let v: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
    (!v.is_empty()).then_some(v)
}

/// Prints the comparison table; returns (breaches, unresolved).
pub fn compare(a: &Value, b: &Value) -> Result<(usize, usize), String> {
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("report A has no workloads")?;
    let (mut breaches, mut unresolved) = (0, 0);
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A iqr", "B iqr"
    );
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            ) else {
                return Err(format!(
                    "{workload}.{} is missing from a report",
                    metric.name
                ));
            };
            let (v, change) = verdict(&va, &vb, metric.bound);
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}% {:>6.1}% {:>6.1}%  {}",
                workload,
                metric.name,
                sa.median,
                sb.median,
                change * 100.0,
                metric.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                }
            );
            breaches += usize::from(v == Verdict::Breach);
            unresolved += usize::from(v == Verdict::Unresolved);
        }
    }
    for (name, report) in [("A", a), ("B", b)] {
        let wrong: Vec<&str> = report
            .get("workloads")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter(|(_, w)| w.get("correct") != Some(&Value::Bool(true)))
            .map(|(n, _)| n.as_str())
            .collect();
        if !wrong.is_empty() {
            println!("report {name}: verification failed on {}", wrong.join(", "));
            breaches += wrong.len();
        }
    }
    println!("{breaches} breach(es), {unresolved} unresolved");
    Ok((breaches, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET_A: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn same_code_is_ok() {
        let (v, change) = verdict(&QUIET_A, &[1.01, 1.00, 1.00, 0.99, 1.02], 0.10);
        assert_eq!(v, Verdict::Ok);
        assert!(change.abs() < 0.02);
    }

    #[test]
    fn a_regression_past_the_bound_is_a_breach() {
        let b = QUIET_A.map(|x| x * 1.15);
        assert_eq!(verdict(&QUIET_A, &b, 0.10).0, Verdict::Breach);
        // inside the bound it is not
        let b = QUIET_A.map(|x| x * 1.08);
        assert_eq!(verdict(&QUIET_A, &b, 0.10).0, Verdict::Ok);
        // an improvement never breaches
        let b = QUIET_A.map(|x| x * 0.5);
        assert_eq!(verdict(&QUIET_A, &b, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(verdict(&noisy, &QUIET_A, 0.10).0, Verdict::Unresolved);
        assert_eq!(verdict(&QUIET_A, &noisy, 0.10).0, Verdict::Unresolved);
    }

    #[test]
    fn every_run_better_settles_a_noisy_comparison() {
        let noisy_but_faster = [0.4, 0.5, 0.65, 0.45, 0.6];
        assert_eq!(verdict(&QUIET_A, &noisy_but_faster, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn single_runs_have_no_spread() {
        assert_eq!(verdict(&[2.0], &[2.1], 0.10).0, Verdict::Ok);
        assert_eq!(verdict(&[2.0], &[2.3], 0.10).0, Verdict::Breach);
    }

    #[test]
    fn compares_whole_reports() {
        let report = |wall: f64| {
            let metric = |v: f64| Value::obj([("values", Value::Arr(vec![Value::Num(v)]))]);
            Value::obj([(
                "workloads",
                Value::obj([(
                    "paper_tile",
                    Value::obj([
                        ("correct", Value::Bool(true)),
                        (
                            "end_to_end",
                            Value::obj([
                                ("wall_s", metric(wall)),
                                ("cpu_s", metric(5.0)),
                                ("peak_rss_mb", metric(300.0)),
                                ("setup_s", metric(1.7)),
                            ]),
                        ),
                    ]),
                )]),
            )])
        };
        assert_eq!(compare(&report(3.0), &report(3.1)).unwrap(), (0, 0));
        assert_eq!(compare(&report(3.0), &report(3.6)).unwrap(), (1, 0));
        assert!(compare(&report(3.0), &Value::obj([])).is_err());
    }
}
