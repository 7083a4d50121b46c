//! Declarative benchmarking campaigns for the csTuner reproduction.
//!
//! The paper's evaluation (§IV–V) is a matrix study: stencils ×
//! architectures × tuners × seeds, every cell an iso-time tuning
//! session, every claim an aggregate over repeats. This crate is that
//! study as a first-class subsystem — the standing scenario-diversity
//! harness the one-shot shootout example only sketched:
//!
//! - [`spec`] — the declarative campaign description: a JSON matrix
//!   (`stencils × archs × tuners × budgets_s × seeds`), parsed with the
//!   telemetry crate's canonical JSON machinery and validated through
//!   [`cst_serve::TuneRequest::build`], so a spec that parses is
//!   runnable and its errors are the CLI's own messages. A spec expands
//!   to a deterministic list of [`spec::Cell`]s, each identified by a
//!   content hash of its fully-resolved request.
//! - [`exec`] — the executor: fans pending cells across in-process
//!   lanes (vendored rayon) or an external `cst-serve` daemon via
//!   the JSONL client, and auto-ingests each cell's wall-stripped
//!   journal into a campaign-scoped [`cst_obs::JournalStore`]. Cells
//!   whose summary is already archived are *skipped*, so an interrupted
//!   campaign resumes instead of restarting — the archive is the
//!   checkpoint.
//! - [`report`] — the reporting layer: per-scenario aggregation over
//!   seed repeats (mean/CV/worst of the archived [`cst_obs::RunSummary`]
//!   milestones), a cross-tuner comparative dashboard, a machine-readable
//!   JSON form, and a significance-aware campaign gate built on
//!   [`cst_obs::diff_groups`] + [`cst_obs::evaluate_gate`] (group CV scales
//!   the thresholds, echoing the paper's CV(top-n) trust in repeat
//!   statistics) with a CI exit code.
//!
//! Everything is deterministic for a fixed spec: expansion order, cell
//! identity, archived summary bytes, dashboards and verdicts. The only
//! nondeterminism in the whole path — wall-clock fields — is stripped
//! before ingest, so a resumed campaign's archive is byte-identical to
//! an uninterrupted one.

pub mod exec;
pub mod report;
pub mod spec;

pub use exec::{forget_cells, run_campaign, Backend, CampaignRun, CellRun, CellState};
pub use report::{
    aggregate, campaign_json, campaign_verdict_json, gate_campaign, load_cells, render_campaign,
    render_campaign_gate, CampaignGate, ScenarioGate, ScenarioStats,
};
pub use spec::{CampaignSpec, Cell};
