//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§V) against the simulated GPU testbeds.
//!
//! Structure:
//! - [`landscape`]: the §III motivation studies — large random samples of
//!   the valid space per stencil feeding Figs. 2–4.
//! - [`runners`]: the one harness behind every seeded experiment
//!   (Figs. 8–12 and the ablation). [`runners::sweep`] fans an
//!   experiment's (stencil × arm × seed) cells out in parallel, and
//!   [`runners::run`] runs one tuner per cell, iso-iteration or
//!   iso-time. Tuners come from the zoo by flag; the ablation's variant
//!   table lives here too.
//! - [`report`]: result tables, their pretty JSON writer and markdown
//!   rendering, so `EXPERIMENTS.md` tables come straight from the
//!   harness output.
//!
//! Run everything with
//! `cargo run -p cst-bench --release --bin experiments -- all`.

pub mod landscape;
pub mod report;
pub mod runners;
