//! Campaign reporting: per-scenario aggregation, the comparative
//! dashboard, and the significance-aware campaign gate.
//!
//! A *scenario* is everything but the seed — (stencil, arch, tuner,
//! budget). Seeds are repeats: [`aggregate`] folds each scenario's
//! archived [`RunSummary`]s into mean / CV / worst statistics over the
//! headline metrics, which is the shape of every table in the paper's
//! evaluation (§IV) and the repeat discipline the kernel-tuner
//! benchmarking literature asks for.
//!
//! The gate compares two campaign archives scenario-by-scenario through
//! [`cst_obs::diff_groups`] + [`cst_obs::evaluate_gate`], so each
//! scenario's thresholds inherit the baseline group's CV allowance: a
//! noisy scenario earns slack, a tight one stays tight. The campaign
//! verdict is the worst scenario verdict; a scenario present in the
//! baseline but absent from the candidate is itself a regression (a
//! silently vanished configuration must fail CI, not shrink the matrix).

use crate::spec::{CampaignSpec, Cell};
use cst_obs::{
    diff_groups, evaluate_gate, render_gate_dashboard, sample_cv, DriftClass, GateReport,
    JournalStore, RunSummary,
};
use cst_telemetry::json;
use std::fmt::Write as _;

/// Archived `(cell, summary)` pairs in spec order, plus the cells with
/// no archive entry yet.
pub type LoadedCells = (Vec<(Cell, RunSummary)>, Vec<Cell>);

/// Load every archived cell of a spec from a store. Returns the
/// `(cell, summary)` pairs that exist (in spec order) and the cells that
/// don't — a partially-run campaign reports on what it has.
pub fn load_cells(spec: &CampaignSpec, store: &JournalStore) -> Result<LoadedCells, String> {
    let mut have = Vec::new();
    let mut missing = Vec::new();
    for cell in spec.cells()? {
        match store.load(&cell.name()) {
            Ok(summary) => have.push((cell, summary)),
            Err(_) => missing.push(cell),
        }
    }
    Ok((have, missing))
}

/// Aggregate statistics for one scenario over its seed repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Scenario key: `<stencil>-<arch>-<tuner>-b<budget>`.
    pub scenario: String,
    /// Stencil name.
    pub stencil: String,
    /// Architecture name.
    pub arch: String,
    /// Tuner flag name.
    pub tuner: String,
    /// Iso-time budget, virtual seconds.
    pub budget_s: f64,
    /// The archived repeats, in seed order.
    pub runs: Vec<RunSummary>,
    /// Mean best kernel time over repeats, ms.
    pub best_ms_mean: f64,
    /// Coefficient of variation (sample std / |mean|) of best kernel
    /// time — the stability statistic the paper trusts (CV(top-n)).
    pub best_ms_cv: f64,
    /// Worst (largest) best kernel time over repeats, ms.
    pub best_ms_worst: f64,
    /// Mean unique settings evaluated.
    pub evaluations_mean: f64,
    /// Mean virtual seconds to reach within 5% of the final best, over
    /// the repeats that reached it; `None` when none did.
    pub milestone5_v_s_mean: Option<f64>,
    /// How many repeats reached the 5% milestone.
    pub milestone5_reached: usize,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fold archived `(cell, summary)` pairs into per-scenario statistics.
/// Scenarios keep first-appearance (spec expansion) order; within a
/// scenario, runs keep seed order.
pub fn aggregate(pairs: &[(Cell, RunSummary)]) -> Vec<ScenarioStats> {
    let mut out: Vec<ScenarioStats> = Vec::new();
    for (cell, summary) in pairs {
        let key = cell.scenario();
        let stats = match out.iter_mut().find(|s| s.scenario == key) {
            Some(stats) => stats,
            None => {
                out.push(ScenarioStats {
                    scenario: key,
                    stencil: cell.request.stencil.clone(),
                    arch: cell.request.arch.clone(),
                    tuner: cell.request.tuner.clone(),
                    budget_s: cell.request.budget_s,
                    runs: Vec::new(),
                    best_ms_mean: 0.0,
                    best_ms_cv: 0.0,
                    best_ms_worst: 0.0,
                    evaluations_mean: 0.0,
                    milestone5_v_s_mean: None,
                    milestone5_reached: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        stats.runs.push(summary.clone());
    }
    for stats in &mut out {
        let best: Vec<f64> = stats.runs.iter().map(|r| r.best_ms).collect();
        stats.best_ms_mean = mean(&best);
        stats.best_ms_cv = sample_cv(&best);
        stats.best_ms_worst = best.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        stats.evaluations_mean =
            mean(&stats.runs.iter().map(|r| r.evaluations as f64).collect::<Vec<_>>());
        let reached: Vec<f64> =
            stats.runs.iter().filter_map(|r| r.milestone(5).map(|m| m.v_s)).collect();
        stats.milestone5_reached = reached.len();
        stats.milestone5_v_s_mean = if reached.is_empty() { None } else { Some(mean(&reached)) };
    }
    out
}

/// Group key for the comparative table: every scenario over the same
/// (stencil, arch, budget) competes, tuners are the rows.
fn table_key(s: &ScenarioStats) -> (String, String, f64) {
    (s.stencil.clone(), s.arch.clone(), s.budget_s)
}

/// Index of the winning (lowest mean best_ms) scenario per table group.
fn winners(stats: &[ScenarioStats]) -> Vec<bool> {
    let mut is_winner = vec![false; stats.len()];
    let mut seen: Vec<(String, String, f64)> = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        let key = table_key(s);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key.clone());
        let best = stats
            .iter()
            .enumerate()
            .filter(|(_, t)| table_key(t) == key)
            .min_by(|(_, a), (_, b)| a.best_ms_mean.total_cmp(&b.best_ms_mean))
            .map(|(j, _)| j)
            .unwrap_or(i);
        is_winner[best] = true;
    }
    is_winner
}

/// Render the cross-tuner comparative dashboard: one table per
/// (stencil, arch, budget) group, one row per tuner, `*` marking the
/// winner by mean best_ms. Deterministic for fixed inputs.
pub fn render_campaign(name: &str, stats: &[ScenarioStats], missing: &[Cell]) -> String {
    let mut out = String::new();
    let runs: usize = stats.iter().map(|s| s.runs.len()).sum();
    let _ = writeln!(out, "campaign {name}: {} scenarios, {runs} archived runs", stats.len());
    if stats.is_empty() && missing.is_empty() {
        out.push_str("(spec expands to no cells)\n");
        return out;
    }
    let is_winner = winners(stats);
    let mut printed: Vec<(String, String, f64)> = Vec::new();
    for s in stats {
        let key = table_key(s);
        if printed.contains(&key) {
            continue;
        }
        printed.push(key.clone());
        let _ = writeln!(out, "{} @ {} (budget {}s)", s.stencil, s.arch, s.budget_s);
        let _ = writeln!(
            out,
            "  {:<12} {:>5} {:>10} {:>7} {:>10} {:>8} {:>10}",
            "tuner", "runs", "mean ms", "cv%", "worst ms", "evals", "->5% v_s"
        );
        for (j, t) in stats.iter().enumerate() {
            if table_key(t) != key {
                continue;
            }
            let mark = if is_winner[j] { '*' } else { ' ' };
            let m5 = match t.milestone5_v_s_mean {
                Some(v) if t.milestone5_reached == t.runs.len() => format!("{v:.1}"),
                Some(v) => format!("{v:.1} ({}/{})", t.milestone5_reached, t.runs.len()),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{mark} {:<12} {:>5} {:>10.4} {:>6.1}% {:>10.4} {:>8.0} {:>10}",
                t.tuner,
                t.runs.len(),
                t.best_ms_mean,
                100.0 * t.best_ms_cv,
                t.best_ms_worst,
                t.evaluations_mean,
                m5
            );
        }
    }
    if !missing.is_empty() {
        let _ = writeln!(
            out,
            "{} cells not yet archived (resume with `cstuner campaign run`)",
            missing.len()
        );
    }
    out.push_str(
        "(* = best mean best_ms per group; cv over seed repeats; \
         ->5% v_s = mean virtual seconds to within 5% of final best)\n",
    );
    out
}

/// Machine-readable campaign report: fixed key order, canonical float
/// formatting, byte-deterministic for fixed inputs.
pub fn campaign_json(name: &str, stats: &[ScenarioStats], missing: &[Cell]) -> String {
    let is_winner = winners(stats);
    let mut o = String::with_capacity(512);
    o.push_str("{\"campaign\":");
    json::write_escaped(&mut o, name);
    o.push_str(",\"scenarios\":[");
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"scenario\":");
        json::write_escaped(&mut o, &s.scenario);
        o.push_str(",\"stencil\":");
        json::write_escaped(&mut o, &s.stencil);
        o.push_str(",\"arch\":");
        json::write_escaped(&mut o, &s.arch);
        o.push_str(",\"tuner\":");
        json::write_escaped(&mut o, &s.tuner);
        o.push_str(",\"budget_s\":");
        json::write_f64(&mut o, s.budget_s);
        let _ = write!(o, ",\"runs\":{}", s.runs.len());
        o.push_str(",\"best_ms_mean\":");
        json::write_f64(&mut o, s.best_ms_mean);
        o.push_str(",\"best_ms_cv\":");
        json::write_f64(&mut o, s.best_ms_cv);
        o.push_str(",\"best_ms_worst\":");
        json::write_f64(&mut o, s.best_ms_worst);
        o.push_str(",\"evaluations_mean\":");
        json::write_f64(&mut o, s.evaluations_mean);
        o.push_str(",\"milestone5_v_s_mean\":");
        // write_f64 maps NAN to null, the canonical "not reached".
        json::write_f64(&mut o, s.milestone5_v_s_mean.unwrap_or(f64::NAN));
        let _ = write!(
            o,
            ",\"milestone5_reached\":{},\"winner\":{}}}",
            s.milestone5_reached, is_winner[i]
        );
    }
    o.push_str("],\"missing\":[");
    for (i, cell) in missing.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        json::write_escaped(&mut o, &cell.name());
    }
    o.push_str("]}");
    o
}

/// One scenario's gate outcome.
#[derive(Debug, Clone)]
pub struct ScenarioGate {
    /// The scenario key.
    pub scenario: String,
    /// The drift-gate report for this scenario's baseline/candidate
    /// repeat groups.
    pub report: GateReport,
}

/// The whole campaign's gate outcome.
#[derive(Debug, Clone)]
pub struct CampaignGate {
    /// Per-scenario reports, candidate (spec) order.
    pub scenarios: Vec<ScenarioGate>,
    /// Candidate scenarios with no baseline — new configurations, not a
    /// failure.
    pub missing_baseline: Vec<String>,
    /// Baseline scenarios absent from the candidate — each one is a
    /// regression (the matrix silently shrank).
    pub missing_candidate: Vec<String>,
    /// Worst verdict across scenarios (and missing candidates).
    pub verdict: DriftClass,
}

impl CampaignGate {
    /// Process exit code: 0 unless the campaign verdict is `regress`.
    pub fn exit_code(&self) -> i32 {
        if self.verdict == DriftClass::Regress {
            1
        } else {
            0
        }
    }
}

/// Gate a candidate campaign archive against a baseline one,
/// scenario-by-scenario. Each scenario's repeats diff as *groups*, so
/// the gate's CV allowance is fed by the baseline repeats of that same
/// scenario — significance scales with observed seed noise.
pub fn gate_campaign(
    baseline: &[(Cell, RunSummary)],
    candidate: &[(Cell, RunSummary)],
) -> CampaignGate {
    let base = aggregate(baseline);
    let cand = aggregate(candidate);
    let mut scenarios = Vec::new();
    let mut missing_baseline = Vec::new();
    for c in &cand {
        match base.iter().find(|b| b.scenario == c.scenario) {
            Some(b) => {
                let diff = diff_groups(
                    &format!("baseline/{}", c.scenario),
                    &b.runs,
                    &format!("candidate/{}", c.scenario),
                    &c.runs,
                );
                scenarios.push(ScenarioGate {
                    scenario: c.scenario.clone(),
                    report: evaluate_gate(&diff),
                });
            }
            None => missing_baseline.push(c.scenario.clone()),
        }
    }
    let missing_candidate: Vec<String> = base
        .iter()
        .filter(|b| !cand.iter().any(|c| c.scenario == b.scenario))
        .map(|b| b.scenario.clone())
        .collect();
    let mut verdict = scenarios.iter().map(|s| s.report.verdict).max().unwrap_or(DriftClass::Ok);
    if !missing_candidate.is_empty() {
        verdict = DriftClass::Regress;
    }
    CampaignGate { scenarios, missing_baseline, missing_candidate, verdict }
}

/// Render the campaign gate: one verdict line per scenario, full drift
/// detail (indented) for any non-`ok` scenario, then the overall
/// verdict. Deterministic for fixed inputs.
pub fn render_campaign_gate(gate: &CampaignGate) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "campaign gate: {} scenarios", gate.scenarios.len());
    for s in &gate.scenarios {
        let _ = writeln!(out, "  {:<40} {}", s.scenario, s.report.verdict.label());
        if s.report.verdict != DriftClass::Ok {
            for line in render_gate_dashboard(&s.report).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    for s in &gate.missing_baseline {
        let _ = writeln!(out, "  {s:<40} new (no baseline)");
    }
    for s in &gate.missing_candidate {
        let _ = writeln!(out, "  {s:<40} MISSING from candidate -> regress");
    }
    let _ = writeln!(out, "verdict: {}", gate.verdict.label());
    out
}

/// Machine-readable campaign verdict (fixed key order, deterministic).
pub fn campaign_verdict_json(gate: &CampaignGate) -> String {
    let warn = gate.scenarios.iter().filter(|s| s.report.verdict == DriftClass::Warn).count();
    let regress = gate.scenarios.iter().filter(|s| s.report.verdict == DriftClass::Regress).count();
    let mut o = String::with_capacity(256);
    let _ = write!(
        o,
        "{{\"verdict\":\"{}\",\"scenarios\":{},\"warn\":{warn},\"regress\":{regress}",
        gate.verdict.label(),
        gate.scenarios.len()
    );
    for (key, names) in [
        ("missing_baseline", &gate.missing_baseline),
        ("missing_candidate", &gate.missing_candidate),
    ] {
        let _ = write!(o, ",\"{key}\":[");
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            json::write_escaped(&mut o, name);
        }
        o.push(']');
    }
    o.push('}');
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_obs::summary::StageCost;
    use cst_obs::{Milestone, SUMMARY_VERSION};

    fn spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{"campaign":"rep","stencils":["j3d7pt"],"tuners":["cstuner","random"],
                "budgets_s":[6.0],"seeds":[0,1],"quick":true,"fault":"off"}"#,
        )
        .unwrap()
    }

    fn summary_for(cell: &Cell, best_ms: f64) -> RunSummary {
        RunSummary {
            version: SUMMARY_VERSION,
            source: cell.name(),
            stencil: cell.request.stencil.clone(),
            arch: cell.request.arch.clone(),
            tuner: cell.request.tuner.clone(),
            seed: cell.request.seed,
            budget_s: cell.request.budget_s,
            best_ms,
            evaluations: 100 + cell.request.seed,
            search_s: 5.0,
            iterations: 3,
            ga_generations: 3,
            memo_hit_ratio: 0.25,
            fault_rate: 0.0,
            quarantine_rate: 0.0,
            milestones: vec![Milestone { within_pct: 5, iteration: 2, v_s: 3.0, evals: 64 }],
            stages: vec![StageCost { name: "search".into(), v_cost_s: 5.0 }],
            counters: vec![],
            hists: vec![],
            samples: vec![],
        }
    }

    fn pairs(best: &[f64]) -> Vec<(Cell, RunSummary)> {
        spec()
            .cells()
            .unwrap()
            .into_iter()
            .zip(best)
            .map(|(c, &b)| {
                let s = summary_for(&c, b);
                (c, s)
            })
            .collect()
    }

    #[test]
    fn aggregate_groups_by_scenario_with_mean_cv_worst() {
        let stats = aggregate(&pairs(&[4.0, 6.0, 5.0, 5.0]));
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].tuner, "cstuner");
        assert_eq!(stats[0].runs.len(), 2);
        assert!((stats[0].best_ms_mean - 5.0).abs() < 1e-12);
        assert!((stats[0].best_ms_worst - 6.0).abs() < 1e-12);
        // Sample std of [4, 6] is sqrt(2); cv = sqrt(2)/5.
        assert!((stats[0].best_ms_cv - 2f64.sqrt() / 5.0).abs() < 1e-12);
        assert_eq!(stats[1].tuner, "random");
        assert_eq!(stats[1].best_ms_cv, 0.0);
        assert_eq!(stats[0].milestone5_reached, 2);
        assert_eq!(stats[0].milestone5_v_s_mean, Some(3.0));
    }

    #[test]
    fn dashboard_marks_the_group_winner() {
        let stats = aggregate(&pairs(&[4.0, 4.0, 5.0, 5.0]));
        let text = render_campaign("rep", &stats, &[]);
        assert!(text.contains("campaign rep: 2 scenarios, 4 archived runs"), "{text}");
        let starred: Vec<&str> = text.lines().filter(|l| l.starts_with('*')).collect();
        assert_eq!(starred.len(), 1, "{text}");
        assert!(starred[0].contains("cstuner"), "{text}");
        assert_eq!(text, render_campaign("rep", &stats, &[]));
    }

    #[test]
    fn campaign_json_is_deterministic_and_parses() {
        let all = pairs(&[4.0, 4.0, 5.0, 5.0]);
        let stats = aggregate(&all[..3]);
        let missing: Vec<Cell> = vec![all[3].0.clone()];
        let j = campaign_json("rep", &stats, &missing);
        assert_eq!(j, campaign_json("rep", &stats, &missing));
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("campaign").and_then(json::Value::as_str), Some("rep"));
        let scen = v.get("scenarios").and_then(|s| s.as_arr().map(|a| a.len()));
        assert_eq!(scen, Some(2));
        assert_eq!(v.get("missing").and_then(|m| m.as_arr().map(|a| a.len())), Some(1));
        let first = &v.get("scenarios").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("winner").map(|w| w.kind()), Some("bool"));
    }

    #[test]
    fn identical_campaigns_gate_ok() {
        let base = pairs(&[4.0, 4.2, 5.0, 5.1]);
        let gate = gate_campaign(&base, &base);
        assert_eq!(gate.verdict, DriftClass::Ok);
        assert_eq!(gate.exit_code(), 0);
        assert_eq!(gate.scenarios.len(), 2);
        let text = render_campaign_gate(&gate);
        assert!(text.contains("verdict: ok"), "{text}");
    }

    #[test]
    fn per_tuner_slowdown_regresses_only_that_scenario() {
        let base = pairs(&[4.0, 4.0, 5.0, 5.0]);
        // The random tuner slows 10% (past the 5% regress band, no CV
        // slack since the baseline repeats agree); cstuner is untouched.
        let cand = pairs(&[4.0, 4.0, 5.5, 5.5]);
        let gate = gate_campaign(&base, &cand);
        assert_eq!(gate.verdict, DriftClass::Regress);
        assert_eq!(gate.exit_code(), 1);
        assert_eq!(gate.scenarios[0].report.verdict, DriftClass::Ok);
        assert_eq!(gate.scenarios[1].report.verdict, DriftClass::Regress);
        let text = render_campaign_gate(&gate);
        assert!(text.contains("j3d7pt-a100-random-b6p0"), "{text}");
        assert!(text.contains("best_ms"), "{text}");
        let j = campaign_verdict_json(&gate);
        assert!(j.contains("\"verdict\":\"regress\""), "{j}");
        assert!(j.contains("\"regress\":1"), "{j}");
    }

    #[test]
    fn noisy_baseline_earns_cv_slack() {
        // Baseline repeats for cstuner disagree wildly (~14% CV); the
        // same +10% move that regressed above is soaked by 2×CV here.
        let base = pairs(&[4.0, 5.0, 5.0, 5.0]);
        let cand = pairs(&[4.95, 4.95, 5.0, 5.0]);
        let gate = gate_campaign(&base, &cand);
        assert_eq!(gate.scenarios[0].report.verdict, DriftClass::Ok);
    }

    #[test]
    fn vanished_scenario_is_a_regression_and_new_one_is_not() {
        let base = pairs(&[4.0, 4.0, 5.0, 5.0]);
        // Candidate only ran the cstuner scenario.
        let cand: Vec<_> =
            base.iter().filter(|(c, _)| c.request.tuner == "cstuner").cloned().collect();
        let gate = gate_campaign(&base, &cand);
        assert_eq!(gate.verdict, DriftClass::Regress);
        assert_eq!(gate.missing_candidate, ["j3d7pt-a100-random-b6p0"]);
        let text = render_campaign_gate(&gate);
        assert!(text.contains("MISSING from candidate"), "{text}");
        // The mirror case: candidate grew a scenario — informational only.
        let gate = gate_campaign(&cand, &base);
        assert_eq!(gate.verdict, DriftClass::Ok);
        assert_eq!(gate.missing_baseline, ["j3d7pt-a100-random-b6p0"]);
        let j = campaign_verdict_json(&gate);
        assert!(j.contains("\"missing_baseline\":[\"j3d7pt-a100-random-b6p0\"]"), "{j}");
    }

    #[test]
    fn load_cells_splits_archived_from_missing() {
        let dir =
            std::env::temp_dir().join(format!("cst_campaign_report_load_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JournalStore::open(&dir).unwrap();
        let spec = spec();
        let cells = spec.cells().unwrap();
        // Archive only the first cell's summary.
        let s = summary_for(&cells[0], 4.0);
        std::fs::write(store.path_of(&cells[0].name()), s.to_json() + "\n").unwrap();
        let (have, missing) = load_cells(&spec, &store).unwrap();
        assert_eq!(have.len(), 1);
        assert_eq!(have[0].0, cells[0]);
        assert_eq!(missing.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
