//! Per-run summaries: the archive's unit record.
//!
//! [`summarize`] reduces a run journal to a [`RunSummary`] — every
//! cross-run comparison in this crate happens over summaries, never raw
//! journals. The summary renders the telemetry crate's one journal fold
//! ([`journal::read`]): its stage costs are the fold's span rows summed
//! by name. The fold reads the wall-clock fields, but the summary keeps
//! only **virtual-clock** quantities, so summarizing the same journal
//! twice, on any host, yields byte-identical JSON.
//!
//! The on-disk format (`*.summary.json`, one JSON object per file) is
//! versioned by [`SUMMARY_VERSION`], independently of the journal schema:
//! a summary consumer (warm-start seeding, CI gates, dashboards) checks
//! the summary version only, and [`RunSummary::from_json`] rejects
//! versions it does not understand.

use cst_telemetry::journal::{self, num, text, uint, Journal};
use cst_telemetry::json::{self, Value};
use cst_telemetry::Counter;
use std::fmt::Write as _;

pub use cst_telemetry::journal::HistSummary;

/// Version stamped into every `*.summary.json`. Bump when a field is
/// removed, renamed, or changes meaning; adding optional fields is
/// backward compatible and needs no bump.
pub const SUMMARY_VERSION: u64 = 1;

/// Convergence milestones recorded per run: "within x% of the final
/// best". Matches the convergence-speed framing of the paper's Figs.
/// 9–11 (how fast a tuner gets *close*, not only where it ends).
pub const MILESTONE_PCTS: [u32; 5] = [50, 20, 10, 5, 1];

/// One convergence milestone: the first iteration whose best-so-far was
/// within `within_pct` percent of the run's final best.
#[derive(Debug, Clone, PartialEq)]
pub struct Milestone {
    /// The band: best-so-far ≤ final·(1 + within_pct/100).
    pub within_pct: u32,
    /// Iteration index that first entered the band.
    pub iteration: u64,
    /// Virtual seconds elapsed at that iteration.
    pub v_s: f64,
    /// Unique evaluations committed by then (0 for journals predating
    /// the `evals` iteration field).
    pub evals: u64,
}

/// One aggregated pipeline stage: total virtual cost of the run's span
/// rows of that name, in first-completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// Span name (`dataset`, `grouping`, `sampling`, `codegen`, `search`).
    pub name: String,
    /// Summed virtual cost in seconds.
    pub v_cost_s: f64,
}

/// The versioned per-run record the observatory archives and compares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Format version ([`SUMMARY_VERSION`]).
    pub version: u64,
    /// Where this summary came from (ingest label or journal file stem).
    pub source: String,
    /// Stencil name from `run_meta` (`"?"` when absent).
    pub stencil: String,
    /// GPU architecture from `run_meta`.
    pub arch: String,
    /// Tuner name from `run_meta` (falling back to the `outcome` record).
    pub tuner: String,
    /// Run seed.
    pub seed: u64,
    /// Iso-time budget in virtual seconds (0 when unbounded/absent).
    pub budget_s: f64,
    /// Final best kernel time in ms (`INFINITY` if the run found nothing).
    pub best_ms: f64,
    /// Unique settings evaluated.
    pub evaluations: u64,
    /// Virtual seconds spent searching.
    pub search_s: f64,
    /// Iterations recorded.
    pub iterations: u64,
    /// GA generations stepped (counter total).
    pub ga_generations: u64,
    /// Evaluator memo hits / (hits + misses); 0 when no lookups happened.
    pub memo_hit_ratio: f64,
    /// Injected measurement failures per attempted evaluation.
    pub fault_rate: f64,
    /// Quarantined settings per attempted evaluation.
    pub quarantine_rate: f64,
    /// Convergence milestones, one per achieved [`MILESTONE_PCTS`] band.
    pub milestones: Vec<Milestone>,
    /// Per-stage virtual-cost totals, in first-completion order.
    pub stages: Vec<StageCost>,
    /// Every journal counter total, in journal order.
    pub counters: Vec<(String, u64)>,
    /// Histogram condensates, in journal order.
    pub hists: Vec<HistSummary>,
    /// Sampled (setting, time_ms) training pairs from the run's `sample`
    /// records, in journal order — the transfer knowledge base mines
    /// these. Empty for journals predating the record type (optional
    /// field, no version bump per the rule above).
    pub samples: Vec<(String, f64)>,
}

impl RunSummary {
    /// Total virtual cost across all stages.
    pub fn total_stage_cost_s(&self) -> f64 {
        self.stages.iter().map(|s| s.v_cost_s).sum()
    }

    /// A stage's share of the total stage cost (0 when there are no
    /// stage records).
    pub fn stage_share(&self, name: &str) -> f64 {
        let total = self.total_stage_cost_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.stages.iter().filter(|s| s.name == name).map(|s| s.v_cost_s).sum::<f64>() / total
    }

    /// A counter total by journal name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    /// The milestone for a band, if the run achieved it.
    pub fn milestone(&self, within_pct: u32) -> Option<&Milestone> {
        self.milestones.iter().find(|m| m.within_pct == within_pct)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Distill a journal (one JSON record per line, wall fields tolerated and
/// ignored) into a [`RunSummary`]. A malformed journal is an error, not a
/// half-filled summary.
pub fn summarize(source: &str, lines: &[String]) -> Result<RunSummary, String> {
    Ok(RunSummary::from_journal(source, &journal::read(lines)?))
}

impl RunSummary {
    /// Summarize a folded journal.
    pub fn from_journal(source: &str, j: &Journal) -> RunSummary {
        let meta = |key: &'static str| j.run_meta.iter().filter_map(move |m| m.get(key));
        let meta_str =
            |key: &'static str| meta(key).find_map(Value::as_str).unwrap_or("?").to_string();
        let outcome = j.outcomes.first();

        // Final quantities: prefer the explicit outcome record, fall back
        // to the iteration stream / counters for journals of aborted runs.
        let best_ms = outcome
            .and_then(|o| num(o, "best_ms"))
            .or_else(|| j.iterations.iter().rev().find_map(|it| num(it, "best_ms")))
            .unwrap_or(f64::INFINITY);

        // Convergence milestones: the first iteration whose best-so-far is
        // within each band of the final best. Iterations with a null best
        // (nothing finite measured yet) cannot enter any band.
        let milestones = MILESTONE_PCTS
            .into_iter()
            .filter(|_| best_ms.is_finite())
            .filter_map(|pct| {
                let band = best_ms * (1.0 + pct as f64 / 100.0);
                let it =
                    j.iterations.iter().find(|it| num(it, "best_ms").is_some_and(|b| b <= band))?;
                Some(Milestone {
                    within_pct: pct,
                    iteration: uint(it, "iteration"),
                    v_s: num(it, "v_s").unwrap_or(0.0),
                    evals: uint(it, "evals"),
                })
            })
            .collect();

        // Per-stage virtual costs: the span rows summed by name, in
        // first-completion order.
        let mut stages: Vec<StageCost> = Vec::new();
        for r in &j.spans {
            match stages.iter_mut().find(|st| st.name == r.name()) {
                Some(st) => st.v_cost_s += r.total_s,
                None => stages.push(StageCost { name: r.name().to_string(), v_cost_s: r.total_s }),
            }
        }

        // Counter totals read 0 without a `counters` record.
        let counter = |key: &str| j.counters.as_ref().map_or(0, |c| uint(c, key));
        let attempted = counter("evals_attempted");
        let (hits, misses) = (counter("memo_hits"), counter("memo_misses"));
        let failures =
            counter("fault_compile") + counter("fault_launch") + counter("fault_timeout");
        RunSummary {
            version: SUMMARY_VERSION,
            source: source.to_string(),
            stencil: meta_str("stencil"),
            arch: meta_str("arch"),
            tuner: match meta_str("tuner") {
                t if t != "?" => t,
                _ => outcome.map_or("?", |o| text(o, "tuner")).to_string(),
            },
            seed: meta("seed").find_map(Value::as_u64).unwrap_or(0),
            budget_s: meta("budget_s").find_map(Value::as_f64).unwrap_or(0.0),
            best_ms,
            evaluations: outcome
                .map_or_else(|| counter("evals_committed"), |o| uint(o, "evaluations")),
            search_s: outcome.and_then(|o| num(o, "search_s")).unwrap_or(j.final_v_s),
            iterations: j.iterations.len() as u64,
            ga_generations: counter("ga_generations"),
            memo_hit_ratio: ratio(hits, hits + misses),
            fault_rate: ratio(failures, attempted),
            quarantine_rate: ratio(counter("fault_quarantined"), attempted),
            milestones,
            stages,
            counters: j
                .counters
                .iter()
                .flat_map(|c| Counter::ALL.map(|k| (k.name().to_string(), uint(c, k.name()))))
                .collect(),
            hists: j.hists.clone(),
            // A null time (non-finite measurement) reads back as INFINITY
            // and is filtered by KB extraction, not here.
            samples: j
                .samples
                .iter()
                .map(|r| {
                    (text(r, "setting").to_string(), num(r, "time_ms").unwrap_or(f64::INFINITY))
                })
                .collect(),
        }
    }

    /// Serialize to the versioned single-line JSON format. Field order is
    /// fixed and floats use the journal's canonical formatting, so the
    /// output is byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        let _ = write!(o, "{{\"summary_version\":{}", self.version);
        for (k, v) in [
            ("source", &self.source),
            ("stencil", &self.stencil),
            ("arch", &self.arch),
            ("tuner", &self.tuner),
        ] {
            let _ = write!(o, ",\"{k}\":");
            json::write_escaped(&mut o, v);
        }
        let _ = write!(o, ",\"seed\":{}", self.seed);
        o.push_str(",\"budget_s\":");
        json::write_f64(&mut o, self.budget_s);
        o.push_str(",\"best_ms\":");
        json::write_f64(&mut o, self.best_ms);
        let _ = write!(o, ",\"evaluations\":{}", self.evaluations);
        o.push_str(",\"search_s\":");
        json::write_f64(&mut o, self.search_s);
        let _ = write!(o, ",\"iterations\":{}", self.iterations);
        let _ = write!(o, ",\"ga_generations\":{}", self.ga_generations);
        for (k, v) in [
            ("memo_hit_ratio", self.memo_hit_ratio),
            ("fault_rate", self.fault_rate),
            ("quarantine_rate", self.quarantine_rate),
        ] {
            let _ = write!(o, ",\"{k}\":");
            json::write_f64(&mut o, v);
        }
        o.push_str(",\"milestones\":[");
        json::write_joined(&mut o, &self.milestones, |o, m| {
            let _ = write!(
                o,
                "{{\"within_pct\":{},\"iteration\":{},\"v_s\":",
                m.within_pct, m.iteration
            );
            json::write_f64(o, m.v_s);
            let _ = write!(o, ",\"evals\":{}}}", m.evals);
        });
        o.push_str("],\"stages\":[");
        json::write_joined(&mut o, &self.stages, |o, s| {
            o.push_str("{\"name\":");
            json::write_escaped(o, &s.name);
            o.push_str(",\"v_cost_s\":");
            json::write_f64(o, s.v_cost_s);
            o.push('}');
        });
        o.push_str("],\"counters\":{");
        json::write_joined(&mut o, &self.counters, |o, (k, v)| {
            let _ = write!(o, "\"{k}\":{v}");
        });
        o.push_str("},\"hists\":[");
        json::write_joined(&mut o, &self.hists, |o, h| {
            o.push_str("{\"name\":");
            json::write_escaped(o, &h.name);
            let _ = write!(o, ",\"count\":{}", h.count);
            for (k, v) in
                [("mean", h.mean), ("min", h.min), ("max", h.max), ("p50", h.p50), ("p95", h.p95)]
            {
                let _ = write!(o, ",\"{k}\":");
                json::write_f64(o, v);
            }
            o.push('}');
        });
        o.push(']');
        // Conditional so sample-free summaries keep the bytes they had
        // before the field existed (committed baselines stay valid).
        if !self.samples.is_empty() {
            o.push_str(",\"samples\":[");
            json::write_joined(&mut o, &self.samples, |o, (setting, t)| {
                o.push_str("{\"setting\":");
                json::write_escaped(o, setting);
                o.push_str(",\"time_ms\":");
                json::write_f64(o, *t);
                o.push('}');
            });
            o.push(']');
        }
        o.push('}');
        o
    }

    /// Parse a `*.summary.json` document, rejecting unknown versions.
    /// Non-finite floats serialize as null; each reads back as the
    /// non-finite value its field semantically carries.
    pub fn from_json(doc: &str) -> Result<RunSummary, String> {
        let v = json::parse(doc.trim())?;
        let version =
            v.get("summary_version").and_then(Value::as_u64).ok_or("missing summary_version")?;
        if version != SUMMARY_VERSION {
            return Err(format!(
                "summary version {version}, this build understands {SUMMARY_VERSION}"
            ));
        }
        let list = |key: &str| v.get(key).and_then(Value::as_arr).unwrap_or(&[]).iter();
        let s = |key: &str| text(&v, key).to_string();
        let f = |key: &str, absent: f64| num(&v, key).unwrap_or(absent);
        let nan = |h: &Value, key: &str| num(h, key).unwrap_or(f64::NAN);
        Ok(RunSummary {
            version,
            source: s("source"),
            stencil: s("stencil"),
            arch: s("arch"),
            tuner: s("tuner"),
            seed: uint(&v, "seed"),
            budget_s: f("budget_s", 0.0),
            best_ms: f("best_ms", f64::INFINITY),
            evaluations: uint(&v, "evaluations"),
            search_s: f("search_s", 0.0),
            iterations: uint(&v, "iterations"),
            ga_generations: uint(&v, "ga_generations"),
            memo_hit_ratio: f("memo_hit_ratio", 0.0),
            fault_rate: f("fault_rate", 0.0),
            quarantine_rate: f("quarantine_rate", 0.0),
            milestones: list("milestones")
                .map(|m| Milestone {
                    within_pct: uint(m, "within_pct") as u32,
                    iteration: uint(m, "iteration"),
                    v_s: num(m, "v_s").unwrap_or(0.0),
                    evals: uint(m, "evals"),
                })
                .collect(),
            stages: list("stages")
                .map(|st| StageCost {
                    name: text(st, "name").to_string(),
                    v_cost_s: num(st, "v_cost_s").unwrap_or(0.0),
                })
                .collect(),
            counters: match v.get("counters") {
                Some(Value::Obj(fields)) => {
                    fields.iter().map(|(k, c)| (k.clone(), c.as_u64().unwrap_or(0))).collect()
                }
                _ => Vec::new(),
            },
            hists: list("hists")
                .map(|h| HistSummary {
                    name: text(h, "name").to_string(),
                    count: uint(h, "count"),
                    mean: nan(h, "mean"),
                    min: nan(h, "min"),
                    max: nan(h, "max"),
                    p50: nan(h, "p50"),
                    p95: nan(h, "p95"),
                })
                .collect(),
            // `samples` is optional: summaries written before the field
            // existed parse to an empty log.
            samples: list("samples")
                .map(|r| {
                    (text(r, "setting").to_string(), num(r, "time_ms").unwrap_or(f64::INFINITY))
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_telemetry::{event, strip_wall_fields, Field, FieldValue, Telemetry};

    /// A small deterministic journal exercising every summary input.
    pub fn fixed_journal() -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[
            Field::new("stencil", FieldValue::Str("j3d7pt")),
            Field::new("arch", FieldValue::Str("a100")),
            Field::new("tuner", FieldValue::Str("csTuner")),
            Field::new("seed", FieldValue::U64(1)),
            Field::new("budget_s", FieldValue::F64(30.0)),
        ]);
        let sp = tel.span("sampling", 0.0);
        sp.end_with_cost(0.0, 0.25);
        let sp = tel.span("search", 0.0);
        event!(tel, "iteration", iteration = 1u32, v_s = 2.0, best_ms = 8.0, evals = 32u32);
        event!(tel, "iteration", iteration = 2u32, v_s = 5.0, best_ms = 4.4, evals = 64u32);
        event!(tel, "iteration", iteration = 3u32, v_s = 9.0, best_ms = 4.0, evals = 96u32);
        sp.end(9.5);
        event!(tel, "sample", setting = "TB_x=32 TB_y=4", time_ms = 4.4);
        event!(tel, "sample", setting = "TB_x=64 TB_y=2", time_ms = 4.0);
        event!(
            tel,
            "outcome",
            tuner = "csTuner",
            best_ms = 4.0,
            evaluations = 96u32,
            search_s = 9.5
        );
        tel.add(cst_telemetry::Counter::EvalsAttempted, 128);
        tel.add(cst_telemetry::Counter::EvalsCommitted, 96);
        tel.add(cst_telemetry::Counter::MemoHits, 32);
        tel.add(cst_telemetry::Counter::MemoMisses, 96);
        tel.add(cst_telemetry::Counter::GaGenerations, 3);
        for v in [0.5, 2.0, 4.0, 8.0] {
            tel.observe(cst_telemetry::Hist::EvalTimeMs, v);
        }
        tel.finish(9.5);
        tel.lines().unwrap().iter().map(|l| strip_wall_fields(l)).collect()
    }

    #[test]
    fn summarizes_the_fixed_journal() {
        let s = summarize("fixed", &fixed_journal()).unwrap();
        assert_eq!(s.version, SUMMARY_VERSION);
        assert_eq!(s.stencil, "j3d7pt");
        assert_eq!(s.tuner, "csTuner");
        assert_eq!(s.seed, 1);
        assert_eq!(s.best_ms, 4.0);
        assert_eq!(s.evaluations, 96);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.ga_generations, 3);
        assert!((s.memo_hit_ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.fault_rate, 0.0);
        // Milestones: 100% band is not tracked; within 50% means ≤ 6.0 —
        // iteration 2 (4.4); within 10% means ≤ 4.4 — also iteration 2;
        // within 5% and 1% need iteration 3.
        assert_eq!(s.milestone(50).unwrap().iteration, 2);
        assert_eq!(s.milestone(50).unwrap().evals, 64);
        assert_eq!(s.milestone(10).unwrap().iteration, 2);
        assert_eq!(s.milestone(1).unwrap().iteration, 3);
        assert_eq!(s.milestones.len(), MILESTONE_PCTS.len());
        // Stage costs: sampling 0.25, search 9.5.
        assert_eq!(s.stages.len(), 2);
        assert!((s.stage_share("search") - 9.5 / 9.75).abs() < 1e-12);
        assert_eq!(s.counter("evals_attempted"), 128);
        let h = s.hists.iter().find(|h| h.name == "eval_time_ms").unwrap();
        assert_eq!(h.count, 4);
        assert!(h.p50 > 0.0 && h.p50 <= h.p95 && h.p95 <= h.max);
        assert_eq!(
            s.samples,
            vec![("TB_x=32 TB_y=4".to_string(), 4.4), ("TB_x=64 TB_y=2".to_string(), 4.0)]
        );
    }

    #[test]
    fn summaries_without_samples_still_parse() {
        // Backward compatibility: pre-transfer summaries lack the field.
        let s = summarize("fixed", &fixed_journal()).unwrap();
        let j = s.to_json();
        let start = j.find(",\"samples\":[").unwrap();
        let end = j[start..].find(']').unwrap() + start + 1;
        let legacy = format!("{}{}", &j[..start], &j[end..]);
        let back = RunSummary::from_json(&legacy).unwrap();
        assert!(back.samples.is_empty());
        assert_eq!(back.best_ms, s.best_ms);
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = summarize("fixed", &fixed_journal()).unwrap();
        let j = s.to_json();
        let back = RunSummary::from_json(&j).unwrap();
        assert_eq!(back, s);
        // Serialization is canonical: round-tripping the text is a no-op.
        assert_eq!(back.to_json(), j);
    }

    #[test]
    fn summary_is_deterministic() {
        let a = summarize("x", &fixed_journal()).unwrap().to_json();
        let b = summarize("x", &fixed_journal()).unwrap().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_summary_version_is_rejected() {
        let s = summarize("fixed", &fixed_journal()).unwrap();
        let j = s.to_json().replace("\"summary_version\":1", "\"summary_version\":99");
        let err = RunSummary::from_json(&j).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn malformed_journal_is_an_error_not_a_partial_summary() {
        assert!(summarize("bad", &["not json".to_string()]).is_err());
        assert!(summarize("empty", &[]).is_err());
    }

    #[test]
    fn infinite_best_survives_the_round_trip() {
        let s =
            RunSummary { best_ms: f64::INFINITY, ..summarize("fixed", &fixed_journal()).unwrap() };
        let back = RunSummary::from_json(&s.to_json()).unwrap();
        assert!(back.best_ms.is_infinite());
    }
}
