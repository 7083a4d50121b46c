//! The archive dashboard: N run summaries rendered side by side.
//!
//! Where [`crate::diff`] answers "what changed between these two runs",
//! the dashboard answers "what does the whole archive look like" — one
//! column per run, one row per headline metric, plus convergence
//! milestone and stage-share sections. Built for `cstuner obs dashboard`
//! and the shootout example's multi-tuner archive.

use crate::summary::{RunSummary, MILESTONE_PCTS};
use cst_telemetry::json;
use std::fmt::Write as _;

fn fmt(x: f64) -> String {
    if !x.is_finite() {
        "-".to_string()
    } else if x == x.trunc() && x.abs() < 1e9 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// Render the archive table. Column order follows the input order (the
/// store loads in sorted name order, so the output is deterministic).
pub fn render_dashboard(summaries: &[RunSummary]) -> String {
    let mut out = String::new();
    if summaries.is_empty() {
        out.push_str("obs dashboard: archive is empty\n");
        return out;
    }
    let name_w = 22;
    let col_w = summaries.iter().map(|s| s.source.len().max(10)).max().unwrap() + 2;

    let header_cells: Vec<String> = summaries.iter().map(|s| s.source.clone()).collect();
    let _ = writeln!(out, "obs dashboard: {} runs", summaries.len());
    let mut row = |label: &str, cells: Vec<String>| {
        let _ = write!(out, "{label:<name_w$}");
        for c in cells {
            let _ = write!(out, "{c:>col_w$}");
        }
        out.push('\n');
    };

    row("run", header_cells);
    row("tuner", summaries.iter().map(|s| s.tuner.clone()).collect());
    row("stencil", summaries.iter().map(|s| s.stencil.clone()).collect());
    row("seed", summaries.iter().map(|s| fmt(s.seed as f64)).collect());
    row("best_ms", summaries.iter().map(|s| fmt(s.best_ms)).collect());
    row("evaluations", summaries.iter().map(|s| fmt(s.evaluations as f64)).collect());
    row("search_s", summaries.iter().map(|s| fmt(s.search_s)).collect());
    row("memo_hit_ratio", summaries.iter().map(|s| fmt(s.memo_hit_ratio)).collect());
    row("fault_rate", summaries.iter().map(|s| fmt(s.fault_rate)).collect());

    // Convergence: virtual seconds to reach each milestone band.
    out.push_str("\nconvergence (v_s to within x% of final best):\n");
    for pct in MILESTONE_PCTS {
        let cells: Vec<String> = summaries
            .iter()
            .map(|s| s.milestone(pct).map(|m| fmt(m.v_s)).unwrap_or_else(|| "-".to_string()))
            .collect();
        let label = format!("  within {pct}%");
        let _ = write!(out, "{label:<name_w$}");
        for c in cells {
            let _ = write!(out, "{c:>col_w$}");
        }
        out.push('\n');
    }

    // Stage shares over the union of stage names, first-appearance order.
    let mut stage_names: Vec<&str> = Vec::new();
    for s in summaries {
        for st in &s.stages {
            if !stage_names.contains(&st.name.as_str()) {
                stage_names.push(&st.name);
            }
        }
    }
    if !stage_names.is_empty() {
        out.push_str("\nstage cost share:\n");
        for name in stage_names {
            let cells: Vec<String> =
                summaries.iter().map(|s| format!("{:.1}%", 100.0 * s.stage_share(name))).collect();
            let label = format!("  {name}");
            let _ = write!(out, "{label:<name_w$}");
            for c in cells {
                let _ = write!(out, "{c:>col_w$}");
            }
            out.push('\n');
        }
    }

    // Eval-time percentiles where the runs recorded them.
    if summaries.iter().any(|s| s.hists.iter().any(|h| h.name == "eval_time_ms" && h.count > 0)) {
        out.push_str("\neval time (ms):\n");
        for (label, pick) in [("  p50", 0usize), ("  p95", 1usize)] {
            let cells: Vec<String> = summaries
                .iter()
                .map(|s| {
                    s.hists
                        .iter()
                        .find(|h| h.name == "eval_time_ms" && h.count > 0)
                        .map(|h| fmt(if pick == 0 { h.p50 } else { h.p95 }))
                        .unwrap_or_else(|| "-".to_string())
                })
                .collect();
            let _ = write!(out, "{label:<name_w$}");
            for c in cells {
                let _ = write!(out, "{c:>col_w$}");
            }
            out.push('\n');
        }
    }
    out
}

/// Machine-readable dashboard: the run count plus every summary in its
/// canonical archive form (same float writer, same fixed key order as
/// the `*.summary.json` files), byte-deterministic for fixed inputs.
pub fn dashboard_json(summaries: &[RunSummary]) -> String {
    let mut o = String::with_capacity(256);
    let _ = write!(o, "{{\"runs\":{},\"summaries\":[", summaries.len());
    json::write_joined(&mut o, summaries, |o, s| o.push_str(&s.to_json()));
    o.push_str("]}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{HistSummary, Milestone, StageCost, SUMMARY_VERSION};
    use cst_telemetry::json;

    fn summary(source: &str, best_ms: f64) -> RunSummary {
        RunSummary {
            version: SUMMARY_VERSION,
            source: source.into(),
            stencil: "j3d7pt".into(),
            arch: "a100".into(),
            tuner: source.into(),
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
            stages: vec![
                StageCost { name: "sampling".into(), v_cost_s: 0.5 },
                StageCost { name: "search".into(), v_cost_s: 9.5 },
            ],
            counters: vec![],
            hists: vec![HistSummary {
                name: "eval_time_ms".into(),
                count: 4,
                mean: 3.6,
                min: 0.5,
                max: 8.0,
                p50: 2.5,
                p95: 7.5,
            }],
            samples: vec![],
        }
    }

    #[test]
    fn renders_columns_per_run() {
        let text = render_dashboard(&[summary("ga", 4.0), summary("anneal", 5.5)]);
        assert!(text.contains("obs dashboard: 2 runs"));
        assert!(text.contains("ga") && text.contains("anneal"), "{text}");
        assert!(text.contains("best_ms"), "{text}");
        assert!(text.contains("within 10%"), "{text}");
        assert!(text.contains("search"), "{text}");
        assert!(text.contains("p95"), "{text}");
    }

    #[test]
    fn unreached_milestones_render_as_dashes() {
        let mut s = summary("ga", 4.0);
        s.milestones.clear();
        let text = render_dashboard(&[s]);
        let line = text.lines().find(|l| l.contains("within 50%")).unwrap();
        assert!(line.contains('-'), "{line}");
    }

    #[test]
    fn empty_archive_renders_a_note() {
        assert!(render_dashboard(&[]).contains("archive is empty"));
    }

    #[test]
    fn dashboard_is_deterministic() {
        let runs = [summary("a", 1.0), summary("b", 2.0)];
        assert_eq!(render_dashboard(&runs), render_dashboard(&runs));
    }

    #[test]
    fn dashboard_json_embeds_canonical_summaries() {
        let runs = [summary("a", 1.0), summary("b", 2.0)];
        let j = dashboard_json(&runs);
        assert_eq!(j, dashboard_json(&runs));
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("runs").and_then(json::Value::as_u64), Some(2));
        assert_eq!(v.get("summaries").unwrap().as_arr().unwrap().len(), 2);
        // Entries are the canonical archive form, verbatim.
        assert!(j.contains(&runs[0].to_json()), "{j}");
        assert!(j.contains(&runs[1].to_json()), "{j}");
        assert_eq!(dashboard_json(&[]), "{\"runs\":0,\"summaries\":[]}");
    }
}
