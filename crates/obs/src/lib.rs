//! Cross-run regression observatory for the csTuner pipeline.
//!
//! The run journal (`cst-telemetry`) records everything one tuning
//! session did, and its one reader ([`cst_telemetry::journal::read`])
//! parses and folds a journal in one pass. This crate is the layer above
//! that makes *runs comparable*; its summary and profile both render
//! that fold:
//!
//! - [`summary`] distills a journal into a versioned [`RunSummary`] —
//!   best cost, convergence milestones (virtual seconds and evaluations
//!   to land within x% of the final best), per-stage virtual-cost
//!   shares, memo hit ratio, fault/quarantine rates and counter totals.
//!   It keeps only virtual-clock quantities, so a summary is a pure,
//!   bit-deterministic function of the journal's deterministic core.
//! - [`store`] is the journal archive: [`JournalStore`] ingests N JSONL
//!   journals into `*.summary.json` records under a directory
//!   (`results/obs/` by convention) that later sessions — warm-start
//!   seeding, dashboards, CI — read back without re-parsing journals.
//!   [`load_run`] is the one place that tells a journal file from a
//!   summary file.
//! - [`diff`] compares two runs, or two labeled groups of runs,
//!   field-by-field with signed relative deltas and explicit
//!   better/worse conventions per metric.
//! - [`drift`] classifies each delta as `ok | warn | regress` against
//!   per-metric thresholds (absolute floor + relative bands + a CV rule
//!   echoing the paper's CV(top-n) stopping criterion) and renders both
//!   a text dashboard and a machine-readable verdict — the engine behind
//!   `cstuner obs gate`, CI's cross-commit performance gate.
//! - [`dashboard`] renders N summaries side by side for eyeballing a
//!   whole archive at once.
//! - [`profile`] renders the fold's span rows — self/total/calls per
//!   call path — as a text tree, versioned JSON, collapsed stacks and
//!   direction-tagged profile diffs.

pub mod dashboard;
pub mod diff;
pub mod drift;
pub mod profile;
pub mod store;
pub mod summary;

pub use dashboard::{dashboard_json, render_dashboard};
pub use diff::{diff_groups, diff_runs, render_diff, sample_cv, Direction, MetricDelta, RunDiff};
pub use drift::{evaluate_gate, render_gate_dashboard, verdict_json, DriftClass, GateReport};
pub use profile::{
    diff_profiles, profile_journal, profile_json, profile_summary, render_fold, render_profile,
    render_profile_diff, Profile, ProfileRow, PROFILE_VERSION,
};
pub use store::{load_run, JournalStore, Run};
pub use summary::{summarize, HistSummary, Milestone, RunSummary, MILESTONE_PCTS, SUMMARY_VERSION};
