//! Field-by-field comparison of run summaries.
//!
//! Every [`RunSummary`] is flattened into a fixed, ordered list of named
//! metrics ([`flatten`]); [`diff_runs`] subtracts two flattenings and
//! [`diff_groups`] does the same over group means, carrying each group's
//! coefficient of variation so the drift detector can tell noise from
//! signal. Sign conventions are explicit: each metric carries a
//! [`Direction`], and `delta` is always `candidate − baseline`, so
//! "better"/"worse" is a property of (delta, direction), never of the
//! reader's memory.

use crate::summary::{RunSummary, MILESTONE_PCTS};
use std::fmt::Write as _;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (costs, rates, times).
    LowerIsBetter,
    /// Larger is better (hit ratios, throughput).
    HigherIsBetter,
    /// Neither direction is good or bad (shares, identities).
    Neutral,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (stable across versions; used by threshold policies).
    pub name: String,
    /// The metric's sign convention.
    pub direction: Direction,
    /// Baseline value (group mean for group diffs). `None` when the
    /// baseline side lacks the metric (e.g. an unreached milestone).
    pub baseline: Option<f64>,
    /// Candidate value, same conventions.
    pub candidate: Option<f64>,
    /// Baseline group's coefficient of variation (`std/|mean|`); 0 for
    /// single-run diffs and degenerate groups.
    pub baseline_cv: f64,
}

impl MetricDelta {
    /// `candidate − baseline` when both sides are present.
    pub fn delta(&self) -> Option<f64> {
        Some(self.candidate? - self.baseline?)
    }

    /// Relative delta `(candidate − baseline) / |baseline|`; `None` when a
    /// side is missing or the baseline is zero.
    pub fn rel(&self) -> Option<f64> {
        let b = self.baseline?;
        if b == 0.0 {
            return None;
        }
        Some((self.candidate? - b) / b.abs())
    }

    /// Whether the candidate moved in the metric's good direction.
    /// `None` for neutral metrics, missing sides, or no movement.
    pub fn improved(&self) -> Option<bool> {
        let d = self.delta()?;
        if d == 0.0 {
            return None;
        }
        match self.direction {
            Direction::LowerIsBetter => Some(d < 0.0),
            Direction::HigherIsBetter => Some(d > 0.0),
            Direction::Neutral => None,
        }
    }

    /// The table marker that spells the sign convention out: `(better)` /
    /// `(worse)` per the metric's direction, `(shifted)` for neutral
    /// metrics, `(appeared)` / `(vanished)` for one-sided ones.
    pub fn marker(&self) -> &'static str {
        match (self.baseline, self.candidate) {
            (None, Some(_)) => " (appeared)",
            (Some(_), None) => " (vanished)",
            _ => match self.improved() {
                Some(true) => " (better)",
                Some(false) => " (worse)",
                None => " (shifted)",
            },
        }
    }
}

/// The full comparison of two runs or two run groups.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Label of the baseline side.
    pub baseline_label: String,
    /// Label of the candidate side.
    pub candidate_label: String,
    /// Runs aggregated on each side (1 for run-vs-run).
    pub baseline_runs: usize,
    /// Runs aggregated on the candidate side.
    pub candidate_runs: usize,
    /// Every compared metric, in flattening order.
    pub metrics: Vec<MetricDelta>,
}

impl RunDiff {
    /// Look up a compared metric by name.
    pub fn metric(&self, name: &str) -> Option<&MetricDelta> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The fixed flattening of a summary: `(name, direction, value)`. Missing
/// values (unreached milestones, absent stages) yield `None` so a diff can
/// distinguish "got worse" from "stopped happening".
pub fn flatten(s: &RunSummary) -> Vec<(String, Direction, Option<f64>)> {
    use Direction::*;
    let mut m: Vec<(String, Direction, Option<f64>)> = vec![
        ("best_ms".into(), LowerIsBetter, Some(s.best_ms).filter(|b| b.is_finite())),
        ("evaluations".into(), HigherIsBetter, Some(s.evaluations as f64)),
        ("search_s".into(), Neutral, Some(s.search_s)),
        ("iterations".into(), Neutral, Some(s.iterations as f64)),
        ("ga_generations".into(), Neutral, Some(s.ga_generations as f64)),
        ("memo_hit_ratio".into(), HigherIsBetter, Some(s.memo_hit_ratio)),
        ("fault_rate".into(), LowerIsBetter, Some(s.fault_rate)),
        ("quarantine_rate".into(), LowerIsBetter, Some(s.quarantine_rate)),
    ];
    for pct in MILESTONE_PCTS {
        let ms = s.milestone(pct);
        m.push((format!("milestone_{pct}pct_v_s"), LowerIsBetter, ms.map(|x| x.v_s)));
        m.push((format!("milestone_{pct}pct_evals"), LowerIsBetter, ms.map(|x| x.evals as f64)));
    }
    // Stage shares are diagnostic (where did the virtual budget go), not
    // good/bad on their own.
    for st in &s.stages {
        m.push((format!("stage_share_{}", st.name), Neutral, Some(s.stage_share(&st.name))));
    }
    for (name, v) in &s.counters {
        m.push((format!("counter_{name}"), Neutral, Some(*v as f64)));
    }
    for h in &s.hists {
        m.push((format!("hist_{}_p50", h.name), LowerIsBetter, finite(h.p50)));
        m.push((format!("hist_{}_p95", h.name), LowerIsBetter, finite(h.p95)));
    }
    m
}

fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

/// Compare two single runs.
pub fn diff_runs(baseline: &RunSummary, candidate: &RunSummary) -> RunDiff {
    diff_groups(
        &baseline.source,
        std::slice::from_ref(baseline),
        &candidate.source,
        std::slice::from_ref(candidate),
    )
}

/// Sample coefficient of variation of repeated runs: the n−1 standard
/// deviation over |mean|, and 0 for fewer than two values or a zero mean.
/// It sets every gate's CV allowance and campaign scenarios' `cv%`.
pub fn sample_cv(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt() / mean.abs()
}

/// Mean and [`sample_cv`] of present values; `None` when no run in the
/// group has the metric.
fn mean_cv(values: &[Option<f64>]) -> (Option<f64>, f64) {
    let xs: Vec<f64> = values.iter().flatten().copied().collect();
    if xs.is_empty() {
        return (None, 0.0);
    }
    (Some(xs.iter().sum::<f64>() / xs.len() as f64), sample_cv(&xs))
}

/// Compare two labeled groups of runs, metric-by-metric over group means.
/// The union of both sides' metric names is compared, in baseline-first
/// flattening order, so a metric present on only one side still shows up
/// (as a one-sided delta). Groups must be non-empty.
pub fn diff_groups(
    baseline_label: &str,
    baseline: &[RunSummary],
    candidate_label: &str,
    candidate: &[RunSummary],
) -> RunDiff {
    assert!(!baseline.is_empty() && !candidate.is_empty(), "diff groups must be non-empty");
    let b_flat: Vec<_> = baseline.iter().map(flatten).collect();
    let c_flat: Vec<_> = candidate.iter().map(flatten).collect();

    // Union of metric names in first-appearance order, baseline first.
    let mut names: Vec<(String, Direction)> = Vec::new();
    for flat in b_flat.iter().chain(c_flat.iter()) {
        for (name, dir, _) in flat {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((name.clone(), *dir));
            }
        }
    }

    let side = |flats: &[Vec<(String, Direction, Option<f64>)>], name: &str| -> Vec<Option<f64>> {
        flats
            .iter()
            .map(|f| f.iter().find(|(n, _, _)| n == name).and_then(|(_, _, v)| *v))
            .collect()
    };

    let metrics = names
        .into_iter()
        .map(|(name, direction)| {
            let (b_mean, b_cv) = mean_cv(&side(&b_flat, &name));
            let (c_mean, _) = mean_cv(&side(&c_flat, &name));
            MetricDelta { name, direction, baseline: b_mean, candidate: c_mean, baseline_cv: b_cv }
        })
        .collect();

    RunDiff {
        baseline_label: baseline_label.to_string(),
        candidate_label: candidate_label.to_string(),
        baseline_runs: baseline.len(),
        candidate_runs: candidate.len(),
        metrics,
    }
}

/// A metric value for a text table (`-` when absent).
pub(crate) fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) if x == x.trunc() && x.abs() < 1e9 => format!("{x:.1}"),
        Some(x) => format!("{x:.4}"),
    }
}

/// Render a diff as an aligned text table, each row ending in its
/// [`MetricDelta::marker`]. Deterministic: depends only on the two
/// summaries.
pub fn render_diff(diff: &RunDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff: {} (n={}) -> {} (n={})",
        diff.baseline_label, diff.baseline_runs, diff.candidate_label, diff.candidate_runs
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>10} {:>9}",
        "metric", "baseline", "candidate", "delta", "rel"
    );
    for m in &diff.metrics {
        // Identical sides (including both-absent) stay out of the table;
        // the diff of two equal runs is visibly empty.
        if m.baseline == m.candidate {
            continue;
        }
        let delta = m.delta().map(|d| format!("{d:+.4}")).unwrap_or_else(|| "-".to_string());
        let rel = m.rel().map(|r| format!("{:+.1}%", 100.0 * r)).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>10} {:>9}{}",
            m.name,
            fmt_value(m.baseline),
            fmt_value(m.candidate),
            delta,
            rel,
            m.marker()
        );
    }
    if diff.metrics.iter().all(|m| m.baseline == m.candidate) {
        let _ = writeln!(out, "(no differences)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{Milestone, StageCost, SUMMARY_VERSION};

    pub fn base_summary() -> RunSummary {
        RunSummary {
            version: SUMMARY_VERSION,
            source: "base".into(),
            stencil: "j3d7pt".into(),
            arch: "a100".into(),
            tuner: "csTuner".into(),
            seed: 1,
            budget_s: 30.0,
            best_ms: 4.0,
            evaluations: 96,
            search_s: 9.5,
            iterations: 3,
            ga_generations: 3,
            memo_hit_ratio: 0.25,
            fault_rate: 0.0,
            quarantine_rate: 0.0,
            milestones: vec![Milestone { within_pct: 10, iteration: 2, v_s: 5.0, evals: 64 }],
            stages: vec![
                StageCost { name: "sampling".into(), v_cost_s: 0.25 },
                StageCost { name: "search".into(), v_cost_s: 9.5 },
            ],
            counters: vec![("evals_attempted".into(), 128)],
            hists: vec![],
            samples: vec![],
        }
    }

    #[test]
    fn equal_runs_diff_empty() {
        let s = base_summary();
        let d = diff_runs(&s, &s);
        assert!(d.metrics.iter().all(|m| m.baseline == m.candidate));
        assert!(render_diff(&d).contains("(no differences)"));
    }

    #[test]
    fn signs_follow_directions() {
        let b = base_summary();
        let mut c = base_summary();
        c.best_ms = 5.0; // lower-is-better got larger: worse
        c.memo_hit_ratio = 0.5; // higher-is-better got larger: better
        let d = diff_runs(&b, &c);
        assert_eq!(d.metric("best_ms").unwrap().improved(), Some(false));
        assert_eq!(d.metric("memo_hit_ratio").unwrap().improved(), Some(true));
        assert!((d.metric("best_ms").unwrap().rel().unwrap() - 0.25).abs() < 1e-12);
        let text = render_diff(&d);
        assert!(text.contains("best_ms") && text.contains("(worse)"), "{text}");
        assert!(text.contains("memo_hit_ratio") && text.contains("(better)"), "{text}");
    }

    #[test]
    fn sample_cv_divides_by_n_minus_1() {
        assert_eq!(sample_cv(&[4.0, 6.0]), 2f64.sqrt() / 5.0);
        assert_eq!(sample_cv(&[7.0]), 0.0);
        assert_eq!(sample_cv(&[]), 0.0);
        assert_eq!(sample_cv(&[-1.0, 1.0]), 0.0, "a zero mean has no CV");
    }

    #[test]
    fn vanished_milestones_are_one_sided() {
        let b = base_summary();
        let mut c = base_summary();
        c.milestones.clear();
        let d = diff_runs(&b, &c);
        let m = d.metric("milestone_10pct_v_s").unwrap();
        assert_eq!(m.baseline, Some(5.0));
        assert_eq!(m.candidate, None);
        assert!(render_diff(&d).contains("(vanished)"));
        // And the reverse direction appears.
        assert!(render_diff(&diff_runs(&c, &b)).contains("(appeared)"));
    }

    #[test]
    fn infinite_best_is_treated_as_absent() {
        let mut c = base_summary();
        c.best_ms = f64::INFINITY;
        let d = diff_runs(&base_summary(), &c);
        assert_eq!(d.metric("best_ms").unwrap().candidate, None);
    }

    #[test]
    fn group_diff_uses_means_and_cv() {
        let mut b1 = base_summary();
        let mut b2 = base_summary();
        b1.best_ms = 4.0;
        b2.best_ms = 6.0;
        let mut c = base_summary();
        c.best_ms = 5.0;
        let d = diff_groups("old", &[b1, b2], "new", &[c]);
        let m = d.metric("best_ms").unwrap();
        assert_eq!(m.baseline, Some(5.0));
        assert_eq!(m.candidate, Some(5.0));
        // CV of {4,6}: std = sqrt(2), mean 5.
        assert!((m.baseline_cv - std::f64::consts::SQRT_2 / 5.0).abs() < 1e-12);
        assert_eq!(d.baseline_runs, 2);
    }

    #[test]
    fn render_is_deterministic() {
        let b = base_summary();
        let mut c = base_summary();
        c.evaluations = 120;
        let d = diff_runs(&b, &c);
        assert_eq!(render_diff(&d), render_diff(&d));
    }
}
