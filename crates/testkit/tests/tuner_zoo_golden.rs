//! Golden journal fixtures for the tuner zoo.
//!
//! Every baseline tuner runs through the production session path
//! (`cst_serve::run_session`, the exact code behind `cstuner tune
//! --tuner` and a served request); its `--quick` journal is pinned byte
//! for byte, wall fields stripped. csTuner itself is pinned by
//! `golden_quick.rs`. Faults are explicitly off in the request, so the
//! fixtures are stable under the fault-injection CI leg. Re-bless after
//! an intentional search change with `CST_BLESS=1`.

use cst_telemetry::schema;
use cst_testkit::{check_golden, quick_tuner_journal};

fn pin(tuner: &str) {
    let journal = quick_tuner_journal(tuner, "j3d7pt", "a100", 1, 8.0);
    schema::validate_journal(&journal).unwrap_or_else(|e| panic!("{tuner} journal schema: {e}"));
    check_golden(&format!("quick_tune_{tuner}_j3d7pt_a100"), &(journal.join("\n") + "\n"));
}

#[test]
fn opentuner_quick_journal_is_pinned() {
    pin("opentuner");
}

#[test]
fn garvey_quick_journal_is_pinned() {
    pin("garvey");
}

#[test]
fn artemis_quick_journal_is_pinned() {
    pin("artemis");
}

#[test]
fn random_quick_journal_is_pinned() {
    pin("random");
}

#[test]
fn grid_quick_journal_is_pinned() {
    pin("grid");
}

#[test]
fn anneal_quick_journal_is_pinned() {
    pin("anneal");
}

#[test]
fn forest_quick_journal_is_pinned() {
    pin("forest");
}
