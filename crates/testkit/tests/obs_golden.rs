//! Golden fixtures for the `cst-obs` observatory.
//!
//! Summaries and diffs are pure functions of journal bytes, and journals
//! (wall fields stripped) are pure functions of the seeds — so the whole
//! observatory output is pinnable byte-for-byte. These fixtures are the
//! regression gate's own regression tests: the blessed `RunSummary` is
//! the committed-baseline format CI diffs fresh runs against, and the
//! pinned `obs diff` and `cstuner report` texts freeze the renderings of
//! two fixed journals. Re-bless after an intentional change with
//! `CST_BLESS=1 cargo test -p cst-testkit --test obs_golden`.

use cst_gpu_sim::{FaultProfile, GpuArch};
use cst_obs::{diff_runs, evaluate_gate, render_diff, summarize, DriftClass};
use cst_telemetry::report::render_report;
use cst_testkit::{check_golden, quick_tune_journal, TraceOptions};

fn clean_run() -> cst_obs::RunSummary {
    let lines = quick_tune_journal("j3d7pt", &GpuArch::a100(), &TraceOptions::default());
    summarize("quick_j3d7pt_a100", &lines).expect("summarize clean run")
}

fn hostile_run() -> cst_obs::RunSummary {
    let opts = TraceOptions { profile: FaultProfile::Hostile { seed: 7 }, ..Default::default() };
    let lines = quick_tune_journal("j3d7pt", &GpuArch::a100(), &opts);
    summarize("quick_j3d7pt_a100_hostile", &lines).expect("summarize hostile run")
}

#[test]
fn run_summary_json_is_pinned() {
    // The blessed baseline: the exact on-disk summary bytes CI's obs-gate
    // compares against. Any summary-format or pipeline-numerics change
    // shows up as a one-line fixture diff.
    check_golden("obs_summary_quick_j3d7pt_a100", &(clean_run().to_json() + "\n"));
}

#[test]
fn obs_diff_output_is_pinned() {
    // Two fixed journals (clean vs hostile faults, same seed) rendered
    // through the diff engine, byte-for-byte.
    let text = render_diff(&diff_runs(&clean_run(), &hostile_run()));
    check_golden("obs_diff_clean_vs_hostile", &text);
}

#[test]
fn summary_and_diff_are_byte_deterministic() {
    assert_eq!(clean_run().to_json(), clean_run().to_json());
    let a = render_diff(&diff_runs(&clean_run(), &hostile_run()));
    let b = render_diff(&diff_runs(&clean_run(), &hostile_run()));
    assert_eq!(a, b);
}

#[test]
fn gate_passes_an_unchanged_run_and_fails_an_injected_slowdown() {
    let clean = clean_run();
    // Same seeds, same pipeline → identical summary → verdict ok, exit 0.
    let ok = evaluate_gate(&diff_runs(&clean, &clean_run()));
    assert_eq!(ok.verdict, DriftClass::Ok);
    assert_eq!(ok.exit_code(), 0);
    // An injected 10% best-time slowdown is far past the 5% regress band
    // → the gate must refuse it with a nonzero exit.
    let mut slow = clean_run();
    slow.best_ms *= 1.10;
    let bad = evaluate_gate(&diff_runs(&clean, &slow));
    assert_eq!(bad.verdict, DriftClass::Regress);
    assert_eq!(bad.exit_code(), 1);
    let regressed = bad.of_class(DriftClass::Regress);
    assert!(regressed.iter().any(|f| f.metric.name == "best_ms"));
}

#[test]
fn gate_flags_hostile_fault_injection() {
    // Hostile fault injection degrades the run (fault rate appears,
    // retry-inflated eval times, later milestones); the gate must at
    // least warn — it is not an `ok` run.
    let report = evaluate_gate(&diff_runs(&clean_run(), &hostile_run()));
    assert!(report.verdict >= DriftClass::Warn, "verdict: {:?}", report.verdict);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.metric.name == "fault_rate" && f.class >= DriftClass::Warn),
        "fault_rate should be flagged"
    );
}

#[test]
fn summary_round_trips_through_the_archive_format() {
    let s = clean_run();
    let back = cst_obs::RunSummary::from_json(&s.to_json()).expect("parse own serialization");
    assert_eq!(back, s);
}

#[test]
fn report_text_is_pinned() {
    // `cstuner report` over the same two wall-stripped journals the
    // summaries above come from: the stage table, convergence, sampling
    // and counter sections, byte for byte.
    for (name, profile) in [
        ("report_quick_j3d7pt_a100", FaultProfile::Off),
        ("report_quick_j3d7pt_a100_hostile", FaultProfile::Hostile { seed: 7 }),
    ] {
        let opts = TraceOptions { profile, ..Default::default() };
        let lines = quick_tune_journal("j3d7pt", &GpuArch::a100(), &opts);
        check_golden(name, &render_report(&lines).expect("render report"));
    }
}
