//! Span-profile analyzer: a deterministic self-time / total-time /
//! call-count profile of a run.
//!
//! The run journal brackets every pipeline stage with `span_start` /
//! `span_end` records on the virtual clock. The telemetry crate's one
//! journal reader ([`journal::read`]) replays them against a span stack
//! into one row per **call path** (the stack of enclosing span names):
//! summed virtual cost, self time (the part not attributed to child
//! spans) and a call count. A [`Profile`] is those rows plus the fold's
//! histogram digests, whose p50/p95 estimates give it a latency column.
//!
//! Everything here is a pure function of the journal's deterministic
//! core: the fold sums the wall-clock fields but a profile never renders
//! them, rows keep first-completion order, and floats go through the
//! canonical JSON writer — profiling the same journal twice yields
//! byte-identical text, JSON and folded output. [`diff_profiles`]
//! compares two profiles path-by-path with the diff engine's
//! [`MetricDelta`] conventions (`delta = candidate − baseline`,
//! direction-tagged markers), and [`render_fold`] emits collapsed-stack
//! lines (`path;to;span <self_µs>`) for flamegraph tooling.

use crate::diff::{Direction, MetricDelta};
use crate::summary::{HistSummary, RunSummary};
use cst_telemetry::journal::{self, Journal};
use cst_telemetry::json;
use std::fmt::Write as _;

/// One aggregated call path: every completion of a span whose enclosing
/// span stack spelled the same sequence of names.
pub use cst_telemetry::journal::SpanRow as ProfileRow;

/// Version stamped into `profile_json` output. Bump when a field is
/// removed, renamed, or changes meaning.
pub const PROFILE_VERSION: u64 = 1;

/// A folded span profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Where the profile came from (file stem or ingest label).
    pub source: String,
    /// Aggregated rows in first-completion order.
    pub rows: Vec<ProfileRow>,
    /// Histogram condensates from the journal's `counters` record.
    pub hists: Vec<HistSummary>,
}

impl Profile {
    /// Summed virtual cost of root spans — the profile's 100% mark.
    pub fn total_s(&self) -> f64 {
        journal::roots_total_s(&self.rows)
    }

    /// Look up a row by its `;`-joined path.
    pub fn row(&self, key: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.key() == key)
    }

    /// The profile of a folded journal: its span rows and histogram
    /// digests.
    pub fn from_journal(source: &str, j: Journal) -> Profile {
        Profile { source: source.to_string(), rows: j.spans, hists: j.hists }
    }
}

/// Fold a journal (one JSON record per line, wall fields tolerated) into
/// a [`Profile`]. A malformed journal is an error, not a half-filled
/// profile.
pub fn profile_journal(source: &str, lines: &[String]) -> Result<Profile, String> {
    Ok(Profile::from_journal(source, journal::read(lines)?))
}

/// Build a flat profile from an archived [`RunSummary`] — summaries keep
/// per-stage totals but no span nesting or call counts, so every stage
/// becomes a root row with one call and `self == total`.
pub fn profile_summary(source: &str, summary: &RunSummary) -> Profile {
    let rows = summary
        .stages
        .iter()
        .map(|st| ProfileRow {
            path: vec![st.name.clone()],
            calls: 1,
            total_s: st.v_cost_s,
            self_s: st.v_cost_s,
            wall_ms: None,
        })
        .collect();
    Profile { source: source.to_string(), rows, hists: summary.hists.clone() }
}

/// Render the profile as an indented text tree plus a histogram table.
/// Deterministic: depends only on the profile.
pub fn render_profile(p: &Profile) -> String {
    let total = p.total_s();
    let mut out = String::new();
    let _ = writeln!(out, "profile: {}  roots total {total:.6}s", p.source);
    let _ = writeln!(
        out,
        "{:<32} {:>6} {:>12} {:>12} {:>7}",
        "span", "calls", "total_s", "self_s", "total%"
    );
    // Pre-order: roots in first-completion order, each followed by its
    // subtree (children likewise in first-completion order).
    fn walk(out: &mut String, p: &Profile, prefix: &[String], total: f64) {
        for r in p
            .rows
            .iter()
            .filter(|r| r.path.len() == prefix.len() + 1 && r.path[..prefix.len()] == *prefix)
        {
            let pct = if total > 0.0 { 100.0 * r.total_s / total } else { 0.0 };
            let label = format!("{}{}", "  ".repeat(r.depth()), r.name());
            let _ = writeln!(
                out,
                "{label:<32} {:>6} {:>12.6} {:>12.6} {:>6.1}%",
                r.calls, r.total_s, r.self_s, pct
            );
            walk(out, p, &r.path, total);
        }
    }
    walk(&mut out, p, &[], total);
    if !p.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        for h in &p.hists {
            let _ = writeln!(
                out,
                "  {:<24} count {:>6}  p50 {:>10.4}  p95 {:>10.4}  max {:>10.4}",
                h.name, h.count, h.p50, h.p95, h.max
            );
        }
    }
    out
}

/// Serialize the profile to versioned single-line JSON through the
/// canonical writer (byte-deterministic).
pub fn profile_json(p: &Profile) -> String {
    let mut o = String::with_capacity(1024);
    let _ = write!(o, "{{\"profile_version\":{PROFILE_VERSION},\"source\":");
    json::write_escaped(&mut o, &p.source);
    o.push_str(",\"total_s\":");
    json::write_f64(&mut o, p.total_s());
    o.push_str(",\"spans\":[");
    json::write_joined(&mut o, &p.rows, |o, r| {
        o.push_str("{\"path\":");
        json::write_escaped(o, &r.key());
        let _ = write!(o, ",\"depth\":{},\"calls\":{}", r.depth(), r.calls);
        o.push_str(",\"total_s\":");
        json::write_f64(o, r.total_s);
        o.push_str(",\"self_s\":");
        json::write_f64(o, r.self_s);
        o.push('}');
    });
    o.push_str("],\"hists\":[");
    json::write_joined(&mut o, &p.hists, |o, h| {
        o.push_str("{\"name\":");
        json::write_escaped(o, &h.name);
        let _ = write!(o, ",\"count\":{}", h.count);
        for (k, v) in [("p50", h.p50), ("p95", h.p95), ("max", h.max)] {
            let _ = write!(o, ",\"{k}\":");
            json::write_f64(o, v);
        }
        o.push('}');
    });
    o.push_str("]}");
    o
}

/// Render collapsed-stack lines for flamegraph tools: one
/// `path;to;span <value>` line per row, the value its **self** time in
/// integer virtual microseconds. Rows with zero self time are kept (a
/// flamegraph renders them as frame-only entries); lines are sorted
/// lexically so the output is diff-stable.
pub fn render_fold(p: &Profile) -> String {
    let mut lines: Vec<String> = p
        .rows
        .iter()
        .map(|r| format!("{} {}", r.key(), (r.self_s.max(0.0) * 1e6).round() as u64))
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Compare two profiles path-by-path. The union of both sides' paths is
/// compared in baseline-first first-appearance order; each path yields
/// `total_s` / `self_s` deltas (lower is better) and a `calls` delta
/// (neutral), named `<path>:<metric>`.
pub fn diff_profiles(baseline: &Profile, candidate: &Profile) -> Vec<MetricDelta> {
    let mut keys: Vec<String> = Vec::new();
    for r in baseline.rows.iter().chain(candidate.rows.iter()) {
        let k = r.key();
        if !keys.iter().any(|x| x == &k) {
            keys.push(k);
        }
    }
    let mut metrics = Vec::new();
    for key in keys {
        let b = baseline.row(&key);
        let c = candidate.row(&key);
        for (metric, dir, get) in [
            (
                "total_s",
                Direction::LowerIsBetter,
                (|r: &ProfileRow| r.total_s) as fn(&ProfileRow) -> f64,
            ),
            ("self_s", Direction::LowerIsBetter, |r: &ProfileRow| r.self_s),
            ("calls", Direction::Neutral, |r: &ProfileRow| r.calls as f64),
        ] {
            metrics.push(MetricDelta {
                name: format!("{key}:{metric}"),
                direction: dir,
                baseline: b.map(get),
                candidate: c.map(get),
                baseline_cv: 0.0,
            });
        }
    }
    metrics
}

/// Render a profile diff as an aligned table, each row ending in its
/// [`MetricDelta::marker`]; identical rows stay out of the table.
pub fn render_profile_diff(
    baseline: &Profile,
    candidate: &Profile,
    metrics: &[MetricDelta],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile diff: {} -> {}", baseline.source, candidate.source);
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>12} {:>10}",
        "span:metric", "baseline", "candidate", "delta"
    );
    for m in metrics.iter().filter(|m| m.baseline != m.candidate) {
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.6}"));
        let delta = m.delta().map(|d| format!("{d:+.6}")).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>10}{}",
            m.name,
            fmt(m.baseline),
            fmt(m.candidate),
            delta,
            m.marker()
        );
    }
    if metrics.iter().all(|m| m.baseline == m.candidate) {
        let _ = writeln!(out, "(no differences)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use cst_telemetry::{event, strip_wall_fields, Telemetry};

    /// A journal with nested and repeated spans: search contains two
    /// model_fit child spans; sampling is a root sibling.
    fn nested_journal() -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[]);
        let sampling = tel.span("sampling", 0.0);
        sampling.end_with_cost(0.0, 0.25);
        let search = tel.span("search", 0.0);
        let fit = tel.span("model_fit", 1.0);
        fit.end(2.0); // cost 1.0
        let fit = tel.span("model_fit", 4.0);
        fit.end(6.5); // cost 2.5
        event!(tel, "iteration", iteration = 1u32, v_s = 7.0, best_ms = 4.0, evals = 8u32);
        search.end(9.0); // cost 9.0, children 3.5, self 5.5
        event!(tel, "outcome", tuner = "t", best_ms = 4.0, evaluations = 8u32, search_s = 9.0);
        tel.observe(cst_telemetry::Hist::EvalTimeMs, 2.0);
        tel.finish(9.0);
        tel.lines().unwrap().iter().map(|l| strip_wall_fields(l)).collect()
    }

    #[test]
    fn folds_nested_spans_with_child_attribution() {
        let p = profile_journal("nested", &nested_journal()).unwrap();
        let keys: Vec<String> = p.rows.iter().map(|r| r.key()).collect();
        assert_eq!(keys, ["sampling", "search;model_fit", "search"]);
        let fit = p.row("search;model_fit").unwrap();
        assert_eq!(fit.calls, 2);
        assert!((fit.total_s - 3.5).abs() < 1e-12);
        assert!((fit.self_s - 3.5).abs() < 1e-12);
        let search = p.row("search").unwrap();
        assert_eq!(search.calls, 1);
        assert!((search.total_s - 9.0).abs() < 1e-12);
        assert!((search.self_s - 5.5).abs() < 1e-12, "children attributed: {}", search.self_s);
        assert!((p.total_s() - 9.25).abs() < 1e-12);
        assert_eq!(p.hists.len(), 1);
        // The report lists the same rows by path and totals the roots.
        let text = cst_telemetry::report::render_report(&nested_journal()).unwrap();
        assert!(text.contains("search;model_fit       3.5000"), "{text}");
        assert!(text.contains("total                9.2500"), "{text}");
    }

    #[test]
    fn renders_deterministically_in_every_format() {
        let lines = nested_journal();
        let a = profile_journal("x", &lines).unwrap();
        let b = profile_journal("x", &lines).unwrap();
        assert_eq!(render_profile(&a), render_profile(&b));
        assert_eq!(profile_json(&a), profile_json(&b));
        assert_eq!(render_fold(&a), render_fold(&b));
        let text = render_profile(&a);
        assert!(text.contains("  model_fit"), "child indented:\n{text}");
        let fold = render_fold(&a);
        assert!(fold.contains("search;model_fit 3500000"), "{fold}");
        assert!(fold.contains("search 5500000"), "{fold}");
        assert!(profile_json(&a).starts_with("{\"profile_version\":1,"));
    }

    #[test]
    fn unclosed_spans_fold_at_final_clock() {
        let lines = vec![
            r#"{"type":"journal_start","seq":0,"schema":2,"source":"t"}"#.to_string(),
            r#"{"type":"span_start","seq":1,"name":"search","v_s":1.0}"#.to_string(),
            r#"{"type":"journal_end","seq":2,"events":3,"v_s":5.0}"#.to_string(),
        ];
        let p = profile_journal("trunc", &lines).unwrap();
        let row = p.row("search").unwrap();
        assert!((row.total_s - 4.0).abs() < 1e-12, "closed at final v_s: {row:?}");
        // The summary's stage costs fold by the same rules.
        let s = summarize("trunc", &lines).unwrap();
        assert_eq!(s.stages.len(), 1);
        assert!((s.stage_share("search") - 1.0).abs() < 1e-12);
        assert!((s.total_stage_cost_s() - 4.0).abs() < 1e-12, "{:?}", s.stages);
        // So does the report's stage table.
        let text = cst_telemetry::report::render_report(&lines).unwrap();
        assert!(text.contains("search               4.0000   100.0%"), "{text}");
    }

    #[test]
    fn summary_fallback_is_flat() {
        let lines = nested_journal();
        let s = summarize("s", &lines).unwrap();
        let p = profile_summary("s", &s);
        assert!(p.rows.iter().all(|r| r.depth() == 0 && r.total_s == r.self_s));
        // Stage totals match the journal's span totals per name.
        let jp = profile_journal("s", &lines).unwrap();
        let search_total: f64 =
            jp.rows.iter().filter(|r| r.name() == "search").map(|r| r.total_s).sum();
        assert!((p.row("search").unwrap().total_s - search_total).abs() < 1e-12);
    }

    #[test]
    fn diff_marks_direction_and_one_sided_paths() {
        let base = profile_journal("base", &nested_journal()).unwrap();
        let mut cand = base.clone();
        cand.source = "cand".into();
        cand.rows.iter_mut().find(|r| r.key() == "search").unwrap().self_s += 1.0;
        cand.rows.iter_mut().find(|r| r.key() == "search").unwrap().total_s += 1.0;
        cand.rows.retain(|r| r.key() != "sampling");
        let metrics = diff_profiles(&base, &cand);
        let m = metrics.iter().find(|m| m.name == "search:total_s").unwrap();
        assert_eq!(m.improved(), Some(false), "time grew: worse");
        let gone = metrics.iter().find(|m| m.name == "sampling:total_s").unwrap();
        assert!(gone.baseline.is_some() && gone.candidate.is_none());
        let text = render_profile_diff(&base, &cand, &metrics);
        assert!(text.contains("(worse)") && text.contains("(vanished)"), "{text}");
        let same = diff_profiles(&base, &base);
        assert!(render_profile_diff(&base, &base, &same).contains("(no differences)"));
    }
}
