//! Run sets (the files `collect` writes) and the spread-aware comparison
//! of two of them.
//!
//! A run set holds one result line per (workload, seed). For each
//! (workload, end-to-end metric) the comparison reports both sides'
//! median and quartiles and a verdict:
//!
//! * `unresolved` — either side's interquartile spread exceeds the
//!   metric's bound, unless every run of one side beats every run of the
//!   other;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `better` — the change wins at least nine tenths of the seed-paired
//!   runs and its median improves by more than the parent's
//!   interquartile distance;
//! * `unchanged` — otherwise.
//!
//! Apart from the verdicts, a change set fails the comparison when any of
//! its runs failed its output checks, when it failed more operations on a
//! workload than the parent, or when it lacks a (workload, metric) the
//! parent measured: a gain does not count when the work was not done.

use std::collections::BTreeMap;

use crate::catalog::{Better, Metric};
use crate::json::{self, Value};
use crate::stats::Spread;

/// One run of a run set.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations failed.
    pub failed: u64,
    /// Metric → value.
    pub metrics: BTreeMap<String, f64>,
}

/// A run set's runs: workload → seed → run.
pub type Runs = BTreeMap<String, BTreeMap<u64, Run>>;

/// Reads the runs of a run-set file.
pub fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text).map_err(|e| format!("{path}: {e}"))
}

/// Reads the runs of a run-set document.
fn parse_runs(text: &str) -> Result<Runs, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array")?;
    let mut out = Runs::new();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str);
        let seed = run.get("seed").and_then(Value::as_f64);
        let correct = match run.get("correct") {
            Some(Value::Bool(correct)) => Some(*correct),
            _ => None,
        };
        let failed = run.get("failed").and_then(Value::as_f64);
        let metrics = run.get("metrics").and_then(Value::as_obj);
        let (Some(workload), Some(seed), Some(correct), Some(failed), Some(metrics)) =
            (workload, seed, correct, failed, metrics)
        else {
            return Err("a run lacks workload, seed, correct, failed or metrics".to_string());
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
            .collect();
        out.entry(workload.to_string()).or_default().insert(
            seed as u64,
            Run {
                correct,
                failed: failed as u64,
                metrics,
            },
        );
    }
    Ok(out)
}

/// `(seed, value)` of `metric` across one workload's runs.
pub fn values(runs: &BTreeMap<u64, Run>, metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter_map(|(&seed, run)| Some((seed, *run.metrics.get(metric)?)))
        .collect()
}

/// Why the change set fails regardless of the verdicts: its incorrect
/// runs, its workloads with more failed operations than the parent's, and
/// the (workload, metric) rows of `catalog` the parent has and it lacks.
pub fn defects(parent: &Runs, change: &Runs, catalog: &[Metric]) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, runs) in change {
        for (seed, run) in runs {
            if !run.correct {
                out.push(format!(
                    "{workload} seed {seed}: the change run is incorrect"
                ));
            }
        }
    }
    let failed = |runs: Option<&BTreeMap<u64, Run>>| -> u64 {
        runs.map_or(0, |runs| runs.values().map(|r| r.failed).sum())
    };
    for (workload, parent_runs) in parent {
        let change_runs = change.get(workload);
        let (was, now) = (failed(Some(parent_runs)), failed(change_runs));
        if now > was {
            out.push(format!(
                "{workload}: {now} failed operations, the parent {was}"
            ));
        }
        for metric in catalog {
            let measured = |runs: Option<&BTreeMap<u64, Run>>| {
                runs.is_some_and(|runs| !values(runs, metric.name).is_empty())
            };
            if measured(Some(parent_runs)) && !measured(change_runs) {
                out.push(format!(
                    "{workload} {}: missing from the change",
                    metric.name
                ));
            }
        }
    }
    out
}

/// The comparison outcome of one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the parent's own spread.
    Better,
    /// Regressed beyond the bound.
    Worse,
    /// Within the bound, no resolved gain.
    Unchanged,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `change` against `parent` runs of one metric.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(metric: &Metric, parent: &[(u64, f64)], change: &[(u64, f64)]) -> Verdict {
    let only = |side: &[(u64, f64)]| side.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    let (p, c) = (Spread::of(&only(parent)), Spread::of(&only(change)));
    // Positive means the change is worse.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let beats = |a: f64, b: f64| sign * (a - b) < 0.0;
    let all = |f: &dyn Fn(f64, f64) -> bool| {
        change
            .iter()
            .all(|&(_, b)| parent.iter().all(|&(_, a)| f(b, a)))
    };
    if p.iqr_share() > metric.bound || c.iqr_share() > metric.bound {
        return if all(&|b, a| beats(b, a)) {
            Verdict::Better
        } else if all(&|b, a| beats(a, b)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = sign * (c.median - p.median) / p.median.abs();
    if worse_by > metric.bound {
        return Verdict::Worse;
    }
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|&(seed, a)| {
            let &(_, b) = change.iter().find(|&&(s, _)| s == seed)?;
            Some((a, b))
        })
        .collect();
    let wins = pairs.iter().filter(|&&(a, b)| beats(b, a)).count();
    let gain = -sign * (c.median - p.median);
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && gain > p.q3 - p.q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
    };
    const RATE: Metric = Metric {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.1,
    };

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 + 1, v))
            .collect()
    }

    fn around(center: f64) -> Vec<(u64, f64)> {
        runs(&[0.99, 1.0, 1.01, 0.995, 1.005, 1.0].map(|f| f * center))
    }

    #[test]
    fn a_steady_regression_beyond_the_bound_is_worse() {
        assert_eq!(
            verdict(&LATENCY, &around(10.0), &around(11.5)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&RATE, &around(100.0), &around(85.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_drift_within_the_bound_is_unchanged() {
        assert_eq!(
            verdict(&LATENCY, &around(10.0), &around(10.5)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&RATE, &around(100.0), &around(100.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_needs_nine_of_ten_pair_wins_and_to_clear_the_spread() {
        assert_eq!(
            verdict(&LATENCY, &around(10.0), &around(9.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&RATE, &around(100.0), &around(110.0)),
            Verdict::Better
        );
        // Clears the spread on the median but loses a pair.
        let parent = runs(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 9.0]);
        let change = runs(&[9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.8]);
        assert_eq!(verdict(&LATENCY, &parent, &change), Verdict::Better);
        let change = runs(&[9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 10.5, 9.8]);
        assert_eq!(verdict(&LATENCY, &parent, &change), Verdict::Unchanged);
        // Wins every pair but by less than the parent's own spread.
        let parent = runs(&[9.6, 9.8, 10.0, 10.2, 10.4]);
        let change = runs(&[9.55, 9.75, 9.95, 10.15, 10.35]);
        assert_eq!(verdict(&LATENCY, &parent, &change), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let noisy = runs(&[8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(
            verdict(&LATENCY, &noisy, &around(10.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LATENCY, &around(10.0), &noisy),
            Verdict::Unresolved
        );
        // Every change run beats every parent run: resolved after all.
        assert_eq!(
            verdict(&LATENCY, &noisy, &runs(&[5.0, 6.0, 7.0, 7.5])),
            Verdict::Better
        );
        assert_eq!(
            verdict(&LATENCY, &noisy, &runs(&[13.0, 15.0, 17.0])),
            Verdict::Worse
        );
    }

    /// A run-set document of `(workload, seed, correct, failed, latency)`
    /// runs; a `None` latency leaves the metric out.
    fn set(runs: &[(&str, u64, bool, u64, Option<f64>)]) -> Runs {
        let runs: Vec<String> = runs
            .iter()
            .map(|(workload, seed, correct, failed, latency)| {
                let metrics = latency.map_or(String::new(), |v| format!("\"op_p50_ms\": {v}"));
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"correct\": {correct}, \
                     \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
                )
            })
            .collect();
        parse_runs(&format!("{{\"runs\": [{}]}}", runs.join(", "))).expect("parses")
    }

    #[test]
    fn runs_are_read_per_workload_and_seed() {
        let runs = set(&[
            ("a", 1, true, 0, Some(2.0)),
            ("a", 2, true, 0, Some(3.0)),
            ("b", 1, false, 4, Some(5.0)),
        ]);
        assert_eq!(values(&runs["a"], "op_p50_ms"), [(1, 2.0), (2, 3.0)]);
        assert_eq!(values(&runs["b"], "op_p50_ms"), [(1, 5.0)]);
        assert!(values(&runs["b"], "missing").is_empty());
        assert_eq!((runs["b"][&1].correct, runs["b"][&1].failed), (false, 4));
        assert!(parse_runs(r#"{"runs": [{"workload": "a"}]}"#).is_err());
        assert!(
            parse_runs(r#"{"runs": [{"workload": "a", "seed": 1, "metrics": {}}]}"#).is_err(),
            "a run without its correctness is refused"
        );
    }

    #[test]
    fn incorrect_runs_more_failures_and_missing_rows_are_defects() {
        let parent = set(&[("a", 1, true, 0, Some(2.0)), ("b", 1, true, 1, Some(5.0))]);
        let catalog = [LATENCY];
        assert!(defects(&parent, &parent, &catalog).is_empty());
        // As many failures as the parent is no defect; more is.
        let same = set(&[("a", 1, true, 0, Some(2.0)), ("b", 1, true, 1, Some(5.0))]);
        assert!(defects(&parent, &same, &catalog).is_empty());

        let incorrect = set(&[("a", 1, false, 0, Some(1.0)), ("b", 1, true, 1, Some(5.0))]);
        assert_eq!(
            defects(&parent, &incorrect, &catalog),
            ["a seed 1: the change run is incorrect"]
        );
        let failing = set(&[("a", 1, true, 3, Some(2.0)), ("b", 1, true, 1, Some(5.0))]);
        assert_eq!(
            defects(&parent, &failing, &catalog),
            ["a: 3 failed operations, the parent 0"]
        );
        let no_metric = set(&[("a", 1, true, 0, None), ("b", 1, true, 1, Some(5.0))]);
        assert_eq!(
            defects(&parent, &no_metric, &catalog),
            ["a op_p50_ms: missing from the change"]
        );
        let no_workload = set(&[("a", 1, true, 0, Some(2.0))]);
        assert_eq!(
            defects(&parent, &no_workload, &catalog),
            ["b op_p50_ms: missing from the change"]
        );
    }
}
