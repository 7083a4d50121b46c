//! Drift detection: classify a [`RunDiff`] into `ok | warn | regress`.
//!
//! Each metric gets a threshold rule from one fixed table: an absolute
//! floor (deltas smaller than measurement granularity are never drift), a
//! CV allowance (deltas within `2 ×` the baseline group's
//! coefficient of variation are noise — the same statistic the paper's
//! CV(top-n) stopping rule trusts), and two relative bands (`rel_warn`,
//! `rel_regress`). Movement in a metric's *good* direction is always
//! `ok`. The gate verdict is the worst class over all metrics; `regress`
//! is what fails CI.

use crate::diff::{fmt_value, Direction, MetricDelta, RunDiff};
use cst_telemetry::json;
use std::fmt::Write as _;

/// Classification of one metric's drift, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftClass {
    /// Within thresholds (or an improvement).
    Ok,
    /// Worse than the warn band but not regression-worthy.
    Warn,
    /// Past the regression band — the gate fails.
    Regress,
}

impl DriftClass {
    /// Lower-case label used in dashboards and the JSON verdict.
    pub fn label(self) -> &'static str {
        match self {
            DriftClass::Ok => "ok",
            DriftClass::Warn => "warn",
            DriftClass::Regress => "regress",
        }
    }
}

/// Per-metric thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Thresholds {
    /// Absolute floor: |delta| at or below this is never drift.
    abs_tol: f64,
    /// Relative band where the class becomes [`DriftClass::Warn`].
    rel_warn: f64,
    /// Relative band where the class becomes [`DriftClass::Regress`].
    rel_regress: f64,
}

/// Deltas within `CV_MULT × baseline_cv × |baseline|` are noise.
const CV_MULT: f64 = 2.0;

/// One row of [`RULES`], kept short so the table reads as a table.
const fn t(abs_tol: f64, rel_warn: f64, rel_regress: f64) -> Thresholds {
    Thresholds { abs_tol, rel_warn, rel_regress }
}

/// `(metric-name prefix, thresholds)`, first match wins; exact names sort
/// before prefixes because the table is checked in order.
const RULES: [(&str, Thresholds); 7] = [
    // The headline metric: tight bands.
    ("best_ms", t(1e-6, 0.02, 0.05)),
    // Convergence speed: virtual-time/eval milestones wobble with seed,
    // so the bands are loose.
    ("milestone_", t(0.05, 0.15, 0.40)),
    ("evaluations", t(1.0, 0.15, 0.40)),
    // Memo efficiency: an absolute two-point drop matters more than its
    // relative size.
    ("memo_hit_ratio", t(0.02, 0.10, 0.50)),
    // Fault machinery: rates near zero, so absolute floors do the work
    // and relative bands are wide.
    ("fault_rate", t(0.01, 0.5, 2.0)),
    ("quarantine_rate", t(0.01, 0.5, 2.0)),
    ("hist_", t(1e-6, 0.25, 1.0)),
];

/// The thresholds of a metric no rule matches.
const DEFAULT_THRESHOLDS: Thresholds = t(1e-9, 0.10, 0.30);

/// The thresholds that apply to a metric name.
fn thresholds(metric: &str) -> Thresholds {
    RULES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or(DEFAULT_THRESHOLDS, |&(_, t)| t)
}

/// Classify one compared metric.
fn classify(m: &MetricDelta) -> DriftClass {
    // Neutral metrics are diagnostic only — never drift.
    if m.direction == Direction::Neutral {
        return DriftClass::Ok;
    }
    let t = thresholds(&m.name);
    let (b, c) = match (m.baseline, m.candidate) {
        (Some(b), Some(c)) => (b, c),
        // One-sided: losing a metric the baseline had (an unreached
        // milestone, a best that became infinite) is a regression;
        // gaining one is fine.
        (Some(_), None) => return DriftClass::Regress,
        _ => return DriftClass::Ok,
    };
    let delta = c - b;
    if m.improved() != Some(false) {
        return DriftClass::Ok;
    }
    if delta.abs() <= t.abs_tol {
        return DriftClass::Ok;
    }
    if delta.abs() <= CV_MULT * m.baseline_cv * b.abs() {
        return DriftClass::Ok;
    }
    let rel = delta.abs() / b.abs().max(t.abs_tol);
    if rel >= t.rel_regress {
        DriftClass::Regress
    } else if rel >= t.rel_warn {
        DriftClass::Warn
    } else {
        DriftClass::Ok
    }
}

/// One gate line: a metric and its classification.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFinding {
    /// The compared metric.
    pub metric: MetricDelta,
    /// Its drift class.
    pub class: DriftClass,
}

/// The gate's full output: every finding plus the overall verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// The diff the gate evaluated.
    pub diff: RunDiff,
    /// One finding per compared metric, in diff order.
    pub findings: Vec<GateFinding>,
    /// Worst class across findings.
    pub verdict: DriftClass,
}

impl GateReport {
    /// Findings of a given class.
    pub fn of_class(&self, class: DriftClass) -> Vec<&GateFinding> {
        self.findings.iter().filter(|f| f.class == class).collect()
    }

    /// Process exit code for `cstuner obs gate`: 0 unless the verdict is
    /// [`DriftClass::Regress`].
    pub fn exit_code(&self) -> i32 {
        if self.verdict == DriftClass::Regress {
            1
        } else {
            0
        }
    }
}

/// Run the drift detector over a diff.
pub fn evaluate_gate(diff: &RunDiff) -> GateReport {
    let findings: Vec<GateFinding> = diff
        .metrics
        .iter()
        .map(|m| GateFinding { metric: m.clone(), class: classify(m) })
        .collect();
    let verdict = findings.iter().map(|f| f.class).max().unwrap_or(DriftClass::Ok);
    GateReport { diff: diff.clone(), findings, verdict }
}

/// Render the gate dashboard: verdict header, then every non-`ok` finding
/// with its thresholds, then a one-line count of the quiet metrics.
/// Deterministic for fixed inputs.
pub fn render_gate_dashboard(report: &GateReport) -> String {
    let mut out = String::new();
    let d = &report.diff;
    let _ = writeln!(
        out,
        "obs gate: {} (n={}) -> {} (n={})",
        d.baseline_label, d.baseline_runs, d.candidate_label, d.candidate_runs
    );
    let _ = writeln!(out, "verdict: {}", report.verdict.label());
    let noisy: Vec<&GateFinding> =
        report.findings.iter().filter(|f| f.class != DriftClass::Ok).collect();
    if !noisy.is_empty() {
        let _ = writeln!(
            out,
            "{:<8} {:<24} {:>12} {:>12} {:>9} {:>14}",
            "class", "metric", "baseline", "candidate", "rel", "bands(w/r)"
        );
        for f in &noisy {
            let m = &f.metric;
            let t = thresholds(&m.name);
            let rel =
                m.rel().map(|r| format!("{:+.1}%", 100.0 * r)).unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<8} {:<24} {:>12} {:>12} {:>9} {:>6.0}%/{:.0}%",
                f.class.label(),
                m.name,
                fmt_value(m.baseline),
                fmt_value(m.candidate),
                rel,
                100.0 * t.rel_warn,
                100.0 * t.rel_regress
            );
        }
    }
    let ok = report.findings.len() - noisy.len();
    let _ = writeln!(
        out,
        "{ok} metrics ok, {} warning, {} regressed",
        { report.of_class(DriftClass::Warn).len() },
        { report.of_class(DriftClass::Regress).len() }
    );
    out
}

/// The machine-readable verdict: one JSON object with the verdict, the
/// counts, and every non-`ok` finding. Byte-deterministic for fixed
/// inputs (floats go through the canonical journal formatter).
pub fn verdict_json(report: &GateReport) -> String {
    let mut o = String::with_capacity(256);
    let _ = write!(o, "{{\"verdict\":\"{}\"", report.verdict.label());
    let _ = write!(o, ",\"baseline\":");
    json::write_escaped(&mut o, &report.diff.baseline_label);
    let _ = write!(o, ",\"candidate\":");
    json::write_escaped(&mut o, &report.diff.candidate_label);
    let _ = write!(
        o,
        ",\"metrics\":{},\"warn\":{},\"regress\":{}",
        report.findings.len(),
        report.of_class(DriftClass::Warn).len(),
        report.of_class(DriftClass::Regress).len()
    );
    o.push_str(",\"findings\":[");
    let flagged = report.findings.iter().filter(|f| f.class != DriftClass::Ok);
    json::write_joined(&mut o, flagged, |o, f| {
        let _ = write!(o, "{{\"metric\":");
        json::write_escaped(o, &f.metric.name);
        let _ = write!(o, ",\"class\":\"{}\"", f.class.label());
        o.push_str(",\"baseline\":");
        json::write_f64(o, f.metric.baseline.unwrap_or(f64::NAN));
        o.push_str(",\"candidate\":");
        json::write_f64(o, f.metric.candidate.unwrap_or(f64::NAN));
        o.push('}');
    });
    o.push_str("]}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_runs;
    use crate::summary::{Milestone, RunSummary, StageCost, SUMMARY_VERSION};

    fn summary(best_ms: f64) -> RunSummary {
        RunSummary {
            version: SUMMARY_VERSION,
            source: "s".into(),
            stencil: "j3d7pt".into(),
            arch: "a100".into(),
            tuner: "csTuner".into(),
            seed: 1,
            budget_s: 30.0,
            best_ms,
            evaluations: 96,
            search_s: 9.5,
            iterations: 3,
            ga_generations: 3,
            memo_hit_ratio: 0.25,
            fault_rate: 0.0,
            quarantine_rate: 0.0,
            milestones: vec![Milestone { within_pct: 10, iteration: 2, v_s: 5.0, evals: 64 }],
            stages: vec![StageCost { name: "search".into(), v_cost_s: 9.5 }],
            counters: vec![("evals_attempted".into(), 128)],
            hists: vec![],
            samples: vec![],
        }
    }

    #[test]
    fn identical_runs_gate_ok_with_exit_0() {
        let s = summary(4.0);
        let report = evaluate_gate(&diff_runs(&s, &s));
        assert_eq!(report.verdict, DriftClass::Ok);
        assert_eq!(report.exit_code(), 0);
        assert!(render_gate_dashboard(&report).contains("verdict: ok"));
    }

    #[test]
    fn big_best_ms_slowdown_regresses_and_exits_nonzero() {
        let report = evaluate_gate(&diff_runs(&summary(4.0), &summary(4.5)));
        assert_eq!(report.verdict, DriftClass::Regress);
        assert_eq!(report.exit_code(), 1);
        let dash = render_gate_dashboard(&report);
        assert!(dash.contains("regress") && dash.contains("best_ms"), "{dash}");
        assert!(verdict_json(&report).contains("\"verdict\":\"regress\""));
    }

    #[test]
    fn small_best_ms_wobble_is_ok_and_mid_band_warns() {
        // +1% < 2% warn band.
        let r = evaluate_gate(&diff_runs(&summary(4.0), &summary(4.04)));
        assert_eq!(r.verdict, DriftClass::Ok);
        // +3% sits between warn (2%) and regress (5%).
        let r = evaluate_gate(&diff_runs(&summary(4.0), &summary(4.12)));
        assert_eq!(r.verdict, DriftClass::Warn);
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn improvement_is_always_ok() {
        let report = evaluate_gate(&diff_runs(&summary(4.0), &summary(2.0)));
        assert_eq!(report.verdict, DriftClass::Ok);
    }

    #[test]
    fn cv_allowance_soaks_group_noise() {
        use crate::diff::diff_groups;
        // Baseline group with ~14% CV; a +20% candidate move stays inside
        // 2×CV and must be treated as noise despite exceeding rel_regress.
        let group = [summary(4.0), summary(4.6), summary(5.4)];
        let d = diff_groups("base", &group, "cand", &[summary(5.6)]);
        let m = d.metric("best_ms").unwrap();
        assert!(m.rel().unwrap() > thresholds("best_ms").rel_regress);
        let report = evaluate_gate(&d);
        let f = report.findings.iter().find(|f| f.metric.name == "best_ms").unwrap();
        assert_eq!(f.class, DriftClass::Ok);
    }

    #[test]
    fn vanished_milestone_regresses() {
        let b = summary(4.0);
        let mut c = summary(4.0);
        c.milestones.clear();
        let report = evaluate_gate(&diff_runs(&b, &c));
        assert_eq!(report.verdict, DriftClass::Regress);
        let dash = render_gate_dashboard(&report);
        assert!(dash.contains("milestone_10pct_v_s"), "{dash}");
    }

    #[test]
    fn neutral_metrics_never_drift() {
        let b = summary(4.0);
        let mut c = summary(4.0);
        c.iterations = 300;
        c.ga_generations = 0;
        c.counters = vec![("evals_attempted".into(), 9999)];
        let report = evaluate_gate(&diff_runs(&b, &c));
        assert_eq!(report.verdict, DriftClass::Ok);
    }

    #[test]
    fn verdict_json_is_deterministic_and_parses() {
        let report = evaluate_gate(&diff_runs(&summary(4.0), &summary(4.5)));
        let j = verdict_json(&report);
        assert_eq!(j, verdict_json(&report));
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("verdict").and_then(json::Value::as_str), Some("regress"));
        assert!(v.get("regress").and_then(json::Value::as_u64).unwrap() >= 1);
    }
}
