//! Analytical GPU performance model — the hardware substitute.
//!
//! The paper evaluates csTuner by compiling and timing CUDA kernels on
//! NVIDIA A100 and V100 GPUs and profiling them with Nsight Compute. This
//! crate replaces that testbed with a deterministic analytical model built
//! from the SM execution model:
//!
//! - [`arch`]: resource/throughput presets for A100, V100 and a synthetic
//!   small part.
//! - [`footprint`]: (stencil, setting) → registers, shared memory, thread
//!   decomposition, occupancy, coalescing, cache capture and DRAM traffic.
//! - [`cost`]: footprint → compute/memory/sync time with overlap, spill
//!   penalties and a deterministic per-setting perturbation that stands in
//!   for unmodeled microarchitectural ruggedness.
//! - [`metrics`]: Nsight-style metric vectors for the paper's
//!   metric-combination stage (§IV-D).
//! - [`precomp`]: setting-independent model tables hoisted out of the
//!   evaluation hot path, bit-identical to the direct
//!   [`footprint`]/[`cost`] composition; its footprint stage runs alone
//!   for the validity check.
//! - [`memo`]: the per-setting record cache, and [`registry`], which
//!   hands every opted-in simulator on one (stencil, arch) the same
//!   process-wide cache. A [`GpuSim`] holds none until a session runner
//!   opts it in.
//! - [`valid`]: the composed explicit+implicit validity check ("only
//!   non-spilled parameter settings are explored", §IV-B), read from the
//!   footprint alone.
//! - [`clock`]: the virtual wall clock that charges per-evaluation compile
//!   and run costs, enabling faithful iso-time comparisons (§V-C).
//! - [`fault`]: deterministic fault injection (compile errors, launch
//!   failures, timeouts, heavy-tailed timing outliers) so the measurement
//!   path can be hardened and tested against a hostile testbed.
//!
//! See DESIGN.md for why this substitution preserves the behaviour the
//! tuner depends on: a rugged, biased performance landscape, genuine
//! parameter interactions, and runtime-correlated metrics.

pub mod arch;
pub mod clock;
pub mod cost;
pub mod fault;
pub mod footprint;
pub mod memo;
pub mod metrics;
pub mod precomp;
pub mod registry;
pub mod sim;
pub mod valid;

pub use arch::GpuArch;
pub use clock::VirtualClock;
pub use cost::CostBreakdown;
pub use fault::{FaultKind, FaultProfile, FaultStats};
pub use footprint::Footprint;
pub use memo::{EvalRecord, MemoStats, SimMemo};
pub use metrics::{MetricsReport, METRIC_NAMES, N_METRICS};
pub use precomp::ModelPrecomp;
pub use sim::{noisy_measurement, GpuSim};
pub use valid::{Invalid, ValidSpace};
