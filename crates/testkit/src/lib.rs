//! Test harness for the csTuner reproduction.
//!
//! The workspace's correctness story rests on two properties: the
//! pipeline is *bit-deterministic* for a fixed seed (memoized or not,
//! faults on or off), and the hostile testbed (injected compile errors,
//! launch failures, timeouts, timing outliers) degrades every search
//! driver gracefully instead of crashing it. This crate packages the
//! machinery to keep those properties locked down:
//!
//! - [`gen`]: seeded generators and `proptest` strategies for [`Setting`]s,
//!   spaces and [`FaultProfile`]s, shared by property tests across crates.
//! - [`runner`]: a small programmatic property-test runner over the
//!   vendored `proptest` strategies (no new external dependencies), for
//!   tests that need explicit control over cases and failure reporting.
//! - [`oracle`]: differential oracles — memoized vs unmemoized simulator,
//!   precomputed vs direct model, and same-seed faulty-run determinism —
//!   each comparing *bits*, not approximate values.
//! - [`golden`]: golden-trace regression fixtures for `--quick`-scale
//!   runs, blessed with `CST_BLESS=1` and diffed byte-for-byte otherwise.
//! - [`loopback`]: a real cst-serve daemon on an ephemeral localhost
//!   port, for end-to-end tuning-as-a-service tests.
//!
//! [`Setting`]: cst_space::Setting
//! [`FaultProfile`]: cst_gpu_sim::FaultProfile

pub mod gen;
pub mod golden;
pub mod loopback;
pub mod oracle;
pub mod runner;

pub use gen::{
    arb_fault_profile, arb_setting, decode_genes, genome_cards, raw_settings, seeded_rng,
    valid_settings, SettingStrategy,
};
pub use golden::{
    check_golden, hex_bits, preproc_trace, quick_tune_journal, quick_tune_trace,
    quick_tuner_journal, TraceOptions,
};
pub use loopback::{split_stream, LoopbackServer};
pub use oracle::{
    fault_run_determinism, journal_transparency, memo_transparency, outcomes_bit_equal,
    precomp_vs_direct,
};
pub use runner::PropRunner;
