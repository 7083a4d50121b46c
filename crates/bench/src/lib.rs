//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§V) against the simulated GPU testbeds.
//!
//! Structure:
//! - [`landscape`]: the §III motivation studies — large random samples of
//!   the valid space per stencil feeding Figs. 2–4.
//! - [`runners`]: tuner construction and the iso-iteration / iso-time
//!   protocols of §V-B/C/D (Figs. 8–10), the sampling-ratio sweep
//!   (Fig. 11) and the pre-processing breakdown (Fig. 12).
//! - [`report`]: result tables, their pretty JSON writer and markdown
//!   rendering, so `EXPERIMENTS.md` tables come straight from the
//!   harness output.
//!
//! Run everything with
//! `cargo run -p cst-bench --release --bin experiments -- all`.

pub mod landscape;
pub mod report;
pub mod runners;
