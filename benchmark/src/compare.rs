//! `benchmark compare A B`: the noise-aware diff of two result files.
//!
//! Each file holds one result object per run (any number of runs per
//! workload). For every (workload, end-to-end metric) pair it takes
//! each side's median over runs and applies the bound `BENCHMARK.json`
//! fixes for the metric. A pair whose spread — the inter-quartile
//! distance over a side's runs as a share of their median, or a single
//! run's own window spread — exceeds the bound is `unresolved`, not
//! unchanged, unless every run of B reads better than every run of A.

use crate::json::Json;
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub values: Vec<f64>,
    /// Window spreads the runs reported about themselves.
    pub own_spreads: Vec<f64>,
}

impl Side {
    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Spread over runs when there are enough of them to have
    /// quartiles, else the worst spread a run reported of itself.
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            iqr_share(&self.values)
        } else {
            self.own_spreads.iter().copied().fold(0.0, f64::max)
        }
    }
}

/// How far B's median is on the worse side of A's, as a share of A's
/// (negative = better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn judge(a: &Side, b: &Side, bound: f64, lower_is_better: bool) -> Verdict {
    let worse = worsening(a.median(), b.median(), lower_is_better);
    let noisy = a.spread() > bound || b.spread() > bound;
    let b_wins_every_pair = a.values.iter().all(|&x| {
        b.values
            .iter()
            .all(|&y| worsening(x, y, lower_is_better) < 0.0)
    });
    if noisy && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → Side` out of a result file's run objects.
fn collect(runs: &[Json], workload: &str, metric: &str) -> Side {
    let mut side = Side {
        values: Vec::new(),
        own_spreads: Vec::new(),
    };
    for run in runs {
        if run.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let Some(m) = run.get("metrics").and_then(|m| m.get(metric)) else {
            continue;
        };
        if let Some(value) = m.get("value").and_then(Json::as_f64) {
            side.values.push(value);
            side.own_spreads
                .push(m.get("spread").and_then(Json::as_f64).unwrap_or(0.0));
        }
    }
    side
}

fn failed_share(runs: &[Json], workload: &str) -> Option<f64> {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for run in runs {
        if run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        {
            failed += run.get("failed").and_then(Json::as_f64)?;
            attempted += run.get("attempted").and_then(Json::as_f64)?;
        }
    }
    (attempted > 0.0).then(|| failed / attempted)
}

/// Prints one row per (workload, metric) pair and returns whether any
/// pair regressed. `contract` is the parsed `BENCHMARK.json`.
pub fn compare(contract: &Json, a_runs: &[Json], b_runs: &[Json]) -> Result<bool, String> {
    let section = |name: &str| {
        contract
            .get(name)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{name}` list"))
    };
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A sprd", "B sprd", "bound", "runs"
    );
    // The contract's workloads gate; any other workload the files hold
    // (`repl_sync`) is judged by the same rules for the reader's
    // benefit, but cannot fail the comparison.
    let mut workloads: Vec<(&str, bool)> = Vec::new();
    for workload in section("workloads")? {
        let name = workload.get("name").and_then(Json::as_str);
        workloads.push((name.ok_or("workload without a name")?, true));
    }
    for run in a_runs.iter().chain(b_runs) {
        if let Some(name) = run.get("workload").and_then(Json::as_str) {
            if workloads.iter().all(|&(listed, _)| listed != name) {
                workloads.push((name, false));
            }
        }
    }
    for (workload, gated) in workloads {
        let note = if gated { "" } else { " (not gated)" };
        for metric in section("end_to_end")? {
            let field = |key: &str| metric.get(key).ok_or(format!("metric without `{key}`"));
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let lower = field("better")?.as_str() == Some("lower");
            let (a, b) = (
                collect(a_runs, workload, name),
                collect(b_runs, workload, name),
            );
            if a.values.is_empty() || b.values.is_empty() {
                println!("{workload:<16} {name:<18} missing on one side");
                continue;
            }
            let verdict = judge(&a, &b, bound, lower);
            regressed |= gated && verdict == Verdict::Regressed;
            println!(
                "{workload:<16} {name:<18} {:>14.4} {:>14.4} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}% {:>3}/{:<3}  {}{note}",
                a.median(),
                b.median(),
                b.median() / a.median(),
                100.0 * a.spread(),
                100.0 * b.spread(),
                100.0 * bound,
                a.values.len(),
                b.values.len(),
                verdict.label()
            );
        }
        // Failures have no noise band: any increase is a regression.
        if let (Some(a), Some(b)) = (
            failed_share(a_runs, workload),
            failed_share(b_runs, workload),
        ) {
            let verdict = if b > a { "REGRESSED" } else { "ok" };
            regressed |= gated && b > a;
            println!(
                "{workload:<16} {:<18} {a:>14.6} {b:>14.6}  {verdict}{note}",
                "failed_ops_share"
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            own_spreads: vec![0.01; values.len()],
        }
    }

    #[test]
    fn applies_the_bound_in_the_metrics_direction() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 100.0]);
        let slower = runs(&[112.0, 113.0, 111.0, 112.5, 112.0]);
        let same = runs(&[103.0, 104.0, 102.0, 103.5, 103.0]);
        assert_eq!(judge(&a, &slower, 0.08, true), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, 0.08, false), Verdict::Improved);
        assert_eq!(judge(&a, &same, 0.08, true), Verdict::Ok);
        assert_eq!(judge(&a, &same, 0.08, false), Verdict::Ok);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let noisy = runs(&[100.0, 130.0, 80.0, 120.0, 90.0]);
        let b = runs(&[104.0, 105.0, 103.0, 104.0, 104.5]);
        assert_eq!(judge(&noisy, &b, 0.08, true), Verdict::Unresolved);
        assert_eq!(judge(&b, &noisy, 0.08, true), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let clear = runs(&[60.0, 61.0, 59.0, 60.0, 60.5]);
        assert_eq!(judge(&noisy, &clear, 0.08, true), Verdict::Improved);
    }

    #[test]
    fn single_runs_fall_back_on_their_own_window_spread() {
        let steady = Side {
            values: vec![100.0],
            own_spreads: vec![0.02],
        };
        let shaky = Side {
            values: vec![101.0],
            own_spreads: vec![0.20],
        };
        assert_eq!(judge(&steady, &steady, 0.08, true), Verdict::Ok);
        assert_eq!(judge(&steady, &shaky, 0.08, true), Verdict::Unresolved);
    }

    #[test]
    fn collects_by_workload_and_flags_any_new_failure() {
        let file = r#"
            {"workload": "w", "trace": 0, "attempted": 10, "failed": 0,
             "metrics": {"m": {"value": 2.5, "spread": 0.1}}}
            {"workload": "other", "trace": 0, "attempted": 10, "failed": 1,
             "metrics": {"m": {"value": 9.0}}}"#;
        let parsed = Json::parse_all(file).unwrap();
        let side = collect(&parsed, "w", "m");
        assert_eq!((side.values, side.own_spreads), (vec![2.5], vec![0.1]));
        assert_eq!(failed_share(&parsed, "w"), Some(0.0));
        assert_eq!(failed_share(&parsed, "other"), Some(0.1));
        assert_eq!(failed_share(&parsed, "absent"), None);
    }
}
