//! `e2e compare A.json B.json`: hold set B against reference set A, metric
//! by metric and workload by workload, under each metric's declared bound
//! and direction.

use crate::metrics::{self, Better, MetricDef};
use crate::report::RunSet;
use crate::workloads::Sample;

/// What a `(workload, metric)` pair came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, and both are steady.
    Ok,
    /// Every run of B reads better than every run of A.
    Better,
    /// The spread of A or B exceeds the bound: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// How far the sample's median may be off, as a share of it. Across runs
/// (`runs > 1`) that is the interquartile distance of the per-run values.
/// A single run only has the quartiles of its own samples — the width of
/// one run's latency distribution, not the uncertainty of its median — so
/// the distance is scaled to what medians of `n` such samples would spread
/// over (1.2533 · IQR / √n for a normal distribution).
fn spread(s: &Sample, runs: usize) -> f64 {
    if s.value == 0.0 {
        return 0.0;
    }
    let iqr = (s.q3 - s.q1) / s.value.abs();
    if runs > 1 {
        iqr
    } else {
        1.2533 * iqr / (s.n.max(1) as f64).sqrt()
    }
}

/// Judge one pair. `a_values` / `b_values` are the per-run values behind
/// the samples (one each for a single-run set).
pub fn judge(
    def: &MetricDef,
    a: &Sample,
    b: &Sample,
    a_values: &[f64],
    b_values: &[f64],
) -> (Verdict, f64) {
    let bound = def.bound.expect("only bounded metrics are judged");
    // Positive = B is worse, as a share of A's median.
    let worse_by = match def.better {
        _ if a.value == 0.0 => 0.0,
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let all_better = a_values.len() > 1
        && b_values.len() > 1
        && match def.better {
            Better::Lower => {
                b_values.iter().copied().fold(f64::MIN, f64::max)
                    < a_values.iter().copied().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b_values.iter().copied().fold(f64::MAX, f64::min)
                    > a_values.iter().copied().fold(f64::MIN, f64::max)
            }
        };
    let verdict = if all_better {
        Verdict::Better
    } else if spread(a, a_values.len()).max(spread(b, b_values.len())) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Compare two sets; returns the printed table and whether B passes (no
/// regression, no higher failed share).
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = format!(
        "A: seed {} · {} s · nproc {} · {} · {} run(s)\nB: seed {} · {} s · nproc {} · {} · {} run(s)\n",
        a.seed, a.seconds, a.nproc, a.scratch_fs, a.runs.len(),
        b.seed, b.seconds, b.nproc, b.scratch_fs, b.runs.len(),
    );
    out.push_str(&format!(
        "{:<14} {:<22} {:>12} {:>23} {:>3} {:>12} {:>23} {:>3} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "n",
        "B median",
        "B [q1, q3]",
        "n",
        "worse by",
        "bound"
    ));
    let mut pass = true;
    for workload in metrics::WORKLOADS {
        for def in metrics::gated_on(workload) {
            let (Some((sa, va)), Some((sb, vb))) =
                (a.sample(workload, def.name), b.sample(workload, def.name))
            else {
                continue;
            };
            let (verdict, worse_by) = judge(def, &sa, &sb, &va, &vb);
            pass &= verdict != Verdict::Regression;
            let quartiles = |s: &Sample| format!("[{:.4}, {:.4}]", s.q1, s.q3);
            out.push_str(&format!(
                "{:<14} {:<22} {:>12.4} {:>23} {:>3} {:>12.4} {:>23} {:>3} {:>+7.1}% {:>5.0}%  {}\n",
                workload,
                def.name,
                sa.value,
                quartiles(&sa),
                sa.n,
                sb.value,
                quartiles(&sb),
                sb.n,
                worse_by * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.word(),
            ));
        }
        let (fa, fb) = (a.failed_share(workload), b.failed_share(workload));
        if fb > fa {
            pass = false;
            out.push_str(&format!(
                "{workload:<14} failed share rose from {fa:.6} to {fb:.6}  REGRESSION\n"
            ));
        }
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadResult;
    use std::collections::BTreeMap;

    fn set(values: &[f64], failed: u64) -> RunSet {
        let mut s = RunSet::new(1, 1.0);
        for v in values {
            let metrics = BTreeMap::from([("time_to_solution_s".to_string(), Sample::one(*v))]);
            let result = WorkloadResult {
                correct: failed == 0,
                attempted: 10,
                failed,
                metrics,
            };
            s.runs.push(BTreeMap::from([("sweep".to_string(), result)]));
        }
        s
    }

    fn verdict_of(a: &[f64], b: &[f64]) -> Verdict {
        let def = metrics::find("time_to_solution_s").unwrap();
        let (sa, va) = set(a, 0).sample("sweep", def.name).unwrap();
        let (sb, vb) = set(b, 0).sample("sweep", def.name).unwrap();
        judge(def, &sa, &sb, &va, &vb).0
    }

    #[test]
    fn bound_and_direction_decide_the_verdict() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict_of(&steady, &[1.05, 1.06, 1.04, 1.05, 1.05]),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&steady, &[1.35, 1.36, 1.34, 1.35, 1.35]),
            Verdict::Regression
        );
        assert_eq!(
            verdict_of(&steady, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Better
        );
        // A spread wider than the 25% bound resolves nothing…
        let noisy = [0.6, 1.0, 1.5, 0.8, 1.3];
        assert_eq!(verdict_of(&noisy, &steady), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            verdict_of(&noisy, &[0.3, 0.5, 0.4, 0.35, 0.45]),
            Verdict::Better
        );
    }

    #[test]
    fn a_single_run_is_judged_by_the_uncertainty_of_its_median() {
        let def = metrics::find("campaign_latency_ms").unwrap();
        // One run each; the latency distribution is wide (IQR = 80% of the
        // median), but over 400 samples its median is pinned to 5%.
        let wide = |value: f64, n: usize| Sample {
            value,
            n,
            q1: value * 0.7,
            q3: value * 1.5,
        };
        let (a, b) = (wide(50.0, 400), wide(52.0, 400));
        assert_eq!(judge(def, &a, &b, &[50.0], &[52.0]).0, Verdict::Ok);
        // Over 9 samples it is not.
        let (a, b) = (wide(50.0, 9), wide(52.0, 9));
        assert_eq!(judge(def, &a, &b, &[50.0], &[52.0]).0, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let def = metrics::find("campaigns_per_s").unwrap();
        let (a, b) = (Sample::one(100.0), Sample::one(70.0));
        let (verdict, worse_by) = judge(def, &a, &b, &[100.0], &[70.0]);
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse_by - 0.30).abs() < 1e-12);
        assert_eq!(judge(def, &b, &a, &[70.0], &[100.0]).0, Verdict::Ok);
    }

    #[test]
    fn compare_fails_on_regression_or_a_higher_failed_share() {
        let a = set(&[1.0, 1.0, 1.0], 0);
        assert!(compare(&a, &a).1);
        let (table, pass) = compare(&a, &set(&[1.4, 1.4, 1.4], 0));
        assert!(!pass && table.contains("REGRESSION") && table.ends_with("FAIL\n"));
        let (table, pass) = compare(&a, &set(&[1.0, 1.0, 1.0], 1));
        assert!(!pass && table.contains("failed share rose"));
    }
}
