//! Run-journal integration tests: determinism, transparency, schema.
//!
//! The journal contract has three legs. (1) Two same-seed runs emit
//! byte-identical journals once the wall-time fields are stripped —
//! everything else is a pure function of the seeds. (2) Turning the
//! journal on does not perturb the tuning run at all (the differential
//! oracle in `cst_testkit::journal_transparency`). (3) Every emitted
//! record validates against the versioned schema, and a full csTuner run
//! covers all five pipeline stages plus the GA/memo/fault counters.
//! A mutated journal is a typed error in every reader, never a panic.

use cst_gpu_sim::{FaultProfile, GpuArch};
use cst_telemetry::{report, schema, strip_wall_fields, Telemetry};
use cst_testkit::{journal_transparency, PropRunner};
use cstuner_core::{journal_outcome, CsTuner, CsTunerConfig, SimEvaluator, Tuner};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A quick instrumented tuning run; returns the journal lines.
fn journaled_run(seed: u64, profile: FaultProfile) -> Vec<String> {
    let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
    let tel = Telemetry::in_memory();
    let mut eval = SimEvaluator::new(spec, GpuArch::a100(), seed).with_fault_profile(profile);
    eval.set_telemetry(&tel);
    let cfg = CsTunerConfig {
        dataset_size: 48,
        max_iterations: 8,
        codegen_cap: 16,
        ..Default::default()
    };
    let out = CsTuner::new(cfg).tune_with_telemetry(&mut eval, seed, &tel).expect("tune");
    journal_outcome(&tel, &out);
    tel.finish(out.search_s);
    tel.lines().expect("in-memory sink")
}

#[test]
fn two_runs_emit_byte_identical_journals_modulo_wall_time() {
    let a = journaled_run(1, FaultProfile::Off);
    let b = journaled_run(1, FaultProfile::Off);
    assert_eq!(a.len(), b.len(), "journal lengths diverged");
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(strip_wall_fields(la), strip_wall_fields(lb), "journals diverged at record {i}");
    }
}

#[test]
fn journal_on_does_not_perturb_the_tuning_run() {
    let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
    journal_transparency(&spec, &GpuArch::a100(), 1, FaultProfile::Off).unwrap();
    // The faulty path journals retries/quarantines; it must stay
    // transparent there too.
    journal_transparency(&spec, &GpuArch::a100(), 1, FaultProfile::Hostile { seed: 7 }).unwrap();
}

#[test]
fn full_run_journal_is_schema_valid_and_covers_the_pipeline() {
    let lines = journaled_run(1, FaultProfile::Hostile { seed: 7 });
    let summary = schema::validate_journal(&lines).expect("schema-valid journal");
    // All five pipeline stages appear as completed spans.
    for stage in ["dataset", "grouping", "sampling", "codegen", "search"] {
        assert!(
            lines.iter().any(|l| l.contains("\"type\":\"span_end\"")
                && l.contains(&format!("\"name\":\"{stage}\""))),
            "missing span_end for stage `{stage}`"
        );
    }
    for ty in ["ga_gen", "pmnf_fit", "sampling_group", "iteration", "outcome", "counters"] {
        assert!(summary.types_seen.iter().any(|t| t == ty), "missing record type `{ty}`");
    }
    // The counters record carries the GA/memo/fault tallies.
    let counters = lines.iter().find(|l| l.contains("\"type\":\"counters\"")).unwrap();
    for c in ["evals_attempted", "evals_committed", "memo_hits", "memo_misses", "fault_retries"] {
        assert!(counters.contains(c), "counters record missing `{c}`");
    }
    // Stripping wall fields must keep every record schema-valid.
    let stripped: Vec<String> = lines.iter().map(|l| strip_wall_fields(l)).collect();
    schema::validate_journal(&stripped).expect("stripped journal stays valid");
}

/// Apply one mutation to a journal: `kind` picks it, `at` the line or
/// byte it hits (modulo the length), `mask` the XOR of a byte flip (kept
/// below 128, so the line stays ASCII and thus valid UTF-8).
fn mutate(lines: &mut Vec<String>, kind: u32, at: usize, mask: u8) {
    let n = lines.len();
    match kind {
        // Truncate at a line boundary.
        0 => lines.truncate(at % (n + 1)),
        // Truncate at a byte, as a file cut short mid-write reads.
        1 => {
            let text = lines.join("\n");
            let cut = at % (text.len() + 1);
            *lines = text[..cut].lines().map(str::to_string).collect();
        }
        2 if n > 0 => {
            lines.remove(at % n);
        }
        3 if n > 0 => {
            let line = lines[at % n].clone();
            lines.insert(at % n, line);
        }
        4 if n > 0 => {
            let line = &mut lines[at % n];
            if !line.is_empty() {
                let mut bytes = std::mem::take(line).into_bytes();
                let i = (at / n) % bytes.len();
                bytes[i] ^= mask;
                *line = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            }
        }
        _ => {}
    }
}

#[test]
fn mutated_journals_are_typed_errors_in_every_reader() {
    let base = journaled_run(1, FaultProfile::Off);
    assert!(base.iter().all(|l| l.is_ascii()), "byte cuts and flips assume ASCII");
    let mutations = prop::collection::vec((0u32..5, 0usize..1 << 24, 1u8..128), 1..4);
    PropRunner::new("mutated_journals_are_typed_errors_in_every_reader").cases(256).run(
        &mutations,
        |muts| {
            let mut lines = base.clone();
            for (kind, at, mask) in muts {
                mutate(&mut lines, kind, at, mask);
            }
            let readers = catch_unwind(AssertUnwindSafe(|| {
                [
                    schema::validate_journal(&lines).map(drop),
                    cst_obs::summarize("m", &lines).map(drop),
                    cst_obs::profile_journal("m", &lines).map(drop),
                    report::render_report(&lines).map(drop),
                ]
            }))
            .map_err(|_| "a reader panicked".to_string())?;
            let [validate, summary, profile, report] = readers;
            if summary != validate || profile != validate {
                return Err(format!(
                    "readers disagree: validate {validate:?}, summarize {summary:?}, \
                     profile {profile:?}"
                ));
            }
            match (&validate, &report) {
                (Ok(()), Ok(())) => Ok(()),
                (Ok(()), Err(e)) if e.contains("header-only") => Ok(()),
                (Err(a), Err(b)) if a == b => Ok(()),
                _ => Err(format!("report {report:?} vs validate {validate:?}")),
            }
        },
    );
}
