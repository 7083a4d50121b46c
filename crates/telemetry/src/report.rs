//! `cstuner report` — render a run journal into the human-readable
//! summary the paper's figures are built from: per-stage virtual/wall
//! cost breakdown, per-group convergence table, and fault/memo/GA
//! counter summaries. Everything here renders the [`journal`] reader's
//! fold; the stage table is its span rows, one per call path.

use std::fmt::Write as _;

use crate::journal::{self, num, text, uint};
use crate::json::Value;
use crate::SCHEMA_VERSION;

/// Render a journal (one JSON record per line) to the report text.
/// Validates the journal first, so a malformed line is an error, not a
/// garbled table.
pub fn render_report(lines: &[String]) -> Result<String, String> {
    let j = journal::read(lines)?;
    // A journal that only opens and closes (no spans, iterations, outcomes
    // or any other pipeline record) has nothing to report; rendering its
    // empty tables would read as "the run did nothing and that is fine".
    let vacuous = j
        .types_seen
        .iter()
        .all(|t| matches!(t.as_str(), "journal_start" | "run_meta" | "counters" | "journal_end"));
    if vacuous {
        return Err(
            "journal is header-only (no pipeline records); was the run aborted before tuning?"
                .to_string(),
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run journal: schema {SCHEMA_VERSION}, {} records, {} record types",
        lines.len(),
        j.types_seen.len()
    );

    // Free-form run metadata, in emission order.
    for meta in &j.run_meta {
        if let Value::Obj(fields) = meta {
            let rendered: Vec<String> = fields
                .iter()
                .filter(|(k, _)| k != "type" && k != "seq" && !k.starts_with("wall_"))
                .map(|(k, v)| match v {
                    Value::Str(s) => format!("{k}={s}"),
                    Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                        format!("{k}={}", *n as i64)
                    }
                    Value::Num(n) => format!("{k}={n}"),
                    Value::Bool(b) => format!("{k}={b}"),
                    Value::Null => format!("{k}=null"),
                    other => format!("{k}={other:?}"),
                })
                .collect();
            if !rendered.is_empty() {
                let _ = writeln!(out, "meta: {}", rendered.join(" "));
            }
        }
    }

    // Per-stage breakdown: one row per span call path, in first-completion
    // order; the total is the root rows'.
    if !j.spans.is_empty() {
        let total = journal::roots_total_s(&j.spans);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>8} {:>12}",
            "stage", "v-cost (s)", "share", "wall (ms)"
        );
        for r in &j.spans {
            let share = if total > 0.0 { 100.0 * r.total_s / total } else { 0.0 };
            let wall = r.wall_ms.map(|w| format!("{w:.1}")).unwrap_or_else(|| "-".to_string());
            let _ = writeln!(out, "{:<14} {:>12.4} {share:>7.1}% {wall:>12}", r.key(), r.total_s);
        }
        let _ = writeln!(out, "{:<14} {total:>12.4}", "total");
    }

    // Convergence: the best-so-far trajectory plus per-group pin points.
    if !j.iterations.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "convergence ({} iterations):", j.iterations.len());
        let _ = writeln!(out, "  {:>4} {:>10} {:>12}", "it", "v_s", "best_ms");
        for it in &j.iterations {
            let best =
                num(it, "best_ms").map(|b| format!("{b:.4}")).unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  {:>4} {:>10.2} {best:>12}",
                uint(it, "iteration"),
                num(it, "v_s").unwrap_or(0.0)
            );
        }
    }
    if !j.pins.is_empty() {
        let _ = writeln!(out, "groups pinned:");
        for p in &j.pins {
            let _ = writeln!(
                out,
                "  group {} at iteration {} (v={:.2}s)",
                uint(p, "group"),
                uint(p, "iteration"),
                num(p, "v_s").unwrap_or(0.0)
            );
        }
    }

    // Sampling: per-group keep ratios.
    if !j.sampling.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "sampling:");
        for s in &j.sampling {
            let _ = writeln!(
                out,
                "  group {} [{}]: kept {}/{} candidates",
                uint(s, "group"),
                text(s, "params"),
                uint(s, "kept"),
                uint(s, "candidates")
            );
        }
    }

    // Counter summaries (the counters record is emitted once by finish()).
    if let Some(counters) = &j.counters {
        let c = |name: &str| uint(counters, name);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "evaluations: {} attempted, {} committed ({} memo hits / {} misses)",
            c("evals_attempted"),
            c("evals_committed"),
            c("memo_hits"),
            c("memo_misses")
        );
        let faults =
            c("fault_compile") + c("fault_launch") + c("fault_timeout") + c("fault_outliers");
        if faults > 0 || c("fault_retries") > 0 {
            let _ = writeln!(
                out,
                "faults: {} compile, {} launch, {} timeout, {} outliers; {} retries, {} quarantined",
                c("fault_compile"),
                c("fault_launch"),
                c("fault_timeout"),
                c("fault_outliers"),
                c("fault_retries"),
                c("fault_quarantined")
            );
        } else {
            let _ = writeln!(out, "faults: none");
        }
        let _ = writeln!(
            out,
            "search: {} GA generations; sampling kept {} / rejected {}; {} PMNF fits",
            c("ga_generations"),
            c("samples_accepted"),
            c("samples_rejected"),
            c("pmnf_fits")
        );
        for (name, label) in [("pmnf_rse", "pmnf rse"), ("eval_time_ms", "eval time (ms)")] {
            let Some(h) = j.hists.iter().find(|h| h.name == name) else { continue };
            // A `null` min or max reads as 0 here.
            let [min, max] = [h.min, h.max].map(|x| if x.is_nan() { 0.0 } else { x });
            let _ = writeln!(
                out,
                "{label}: n={} mean={:.4} min={min:.4} max={max:.4}",
                h.count, h.mean
            );
            if !h.p50.is_nan() {
                let _ =
                    writeln!(out, "  percentiles: p50~{:.4} p95~{:.4} max={max:.4}", h.p50, h.p95);
            }
        }
    }

    // One line per `outcome` record.
    for o in &j.outcomes {
        let best =
            num(o, "best_ms").map(|b| format!("{b:.4} ms")).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "outcome: {} best {best} in {} evaluations ({:.1}s search)",
            text(o, "tuner"),
            uint(o, "evaluations"),
            num(o, "search_s").unwrap_or(0.0)
        );
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, Telemetry};

    fn sample_journal() -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[
            crate::Field::new("stencil", crate::FieldValue::Str("j3d7pt")),
            crate::Field::new("seed", crate::FieldValue::U64(1)),
        ]);
        let sp = tel.span("sampling", 0.0);
        sp.end_with_cost(0.0, 0.2);
        let sp = tel.span("search", 0.0);
        event!(
            tel,
            "sampling_group",
            group = 0u32,
            params = "bx,by",
            candidates = 96u32,
            kept = 24u32
        );
        event!(tel, "iteration", iteration = 1u32, v_s = 3.0, best_ms = 4.5, evals = 24u32);
        event!(tel, "iteration", iteration = 2u32, v_s = 6.0, best_ms = 3.9, evals = 48u32);
        event!(tel, "group_pinned", group = 0u32, iteration = 2u32, v_s = 6.0);
        sp.end(9.5);
        tel.add(crate::Counter::EvalsAttempted, 128);
        tel.add(crate::Counter::EvalsCommitted, 120);
        tel.add(crate::Counter::MemoHits, 8);
        for v in [0.5, 2.0, 4.0, 8.0, 40.0] {
            tel.observe(crate::Hist::EvalTimeMs, v);
        }
        tel.finish(9.5);
        tel.lines().unwrap()
    }

    #[test]
    fn renders_all_sections() {
        let text = render_report(&sample_journal()).unwrap();
        assert!(text.contains("run journal: schema 2"));
        assert!(text.contains("meta: stencil=j3d7pt"));
        assert!(text.contains("sampling"));
        assert!(text.contains("search"));
        assert!(text.contains("convergence (2 iterations)"));
        assert!(text.contains("group 0 at iteration 2"));
        assert!(text.contains("kept 24/96 candidates"));
        assert!(text.contains("128 attempted, 120 committed (8 memo hits"));
        assert!(text.contains("faults: none"));
        assert!(text.contains("eval time (ms): n=5"), "{text}");
        assert!(text.contains("percentiles: p50~"), "{text}");
    }

    #[test]
    fn header_only_journal_is_an_error() {
        let tel = Telemetry::in_memory();
        tel.meta(&[crate::Field::new("stencil", crate::FieldValue::Str("j3d7pt"))]);
        tel.finish(0.0);
        let err = render_report(&tel.lines().unwrap()).unwrap_err();
        assert!(err.contains("header-only"), "{err}");
    }

    #[test]
    fn report_rejects_invalid_journal() {
        let bad = vec!["not json".to_string()];
        assert!(render_report(&bad).is_err());
    }

    #[test]
    fn report_is_deterministic_after_stripping() {
        let lines = sample_journal();
        let stripped: Vec<String> = lines.iter().map(|l| crate::strip_wall_fields(l)).collect();
        let a = render_report(&stripped).unwrap();
        let b = render_report(&stripped).unwrap();
        assert_eq!(a, b);
        // With wall fields stripped, the wall column renders as "-".
        assert!(a.lines().any(|l| l.starts_with("search") && l.trim_end().ends_with('-')), "{a}");
    }
}
