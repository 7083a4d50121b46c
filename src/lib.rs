//! # cstuner — scalable auto-tuning for complex stencil computation
//!
//! A Rust reproduction of *"csTuner: Scalable Auto-tuning Framework for
//! Complex Stencil Computation on GPUs"* (Sun et al., IEEE CLUSTER 2021).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`stencil`] — stencil IR, the Table III kernel suite, CPU executors.
//! - [`sim`] — the analytical GPU performance model standing in for the
//!   A100/V100 testbeds (see `DESIGN.md` for the substitution rationale).
//! - [`space`] — the Table I parameter space with validity constraints.
//! - [`stats`] — CV/PCC/RSE statistics and PMNF regression modeling.
//! - [`ml`] — the fast/slow random-forest surrogate (Garvey baseline,
//!   forest tuner, transfer warm starts).
//! - [`ga`] — island-model genetic algorithm.
//! - [`codegen`] — CUDA C source generation per (stencil, setting).
//! - [`core`] — the csTuner pipeline: grouping, sampling, evolutionary
//!   search with approximation.
//! - [`baselines`] — Garvey / OpenTuner-style / Artemis-style tuners and
//!   the kernel-native strategies, each an ask/tell `Optimizer`, plus the
//!   `zoo` registry of every tuner by flag name.
//! - [`obs`] — cross-run regression observatory: journal archive,
//!   run-diff engine, drift detection, and the CI perf gate.
//! - [`campaign`] — declarative benchmarking campaigns: stencil × arch ×
//!   tuner × seed matrices with resumable fan-out, comparative dashboards
//!   and significance-aware verdicts.
//! - [`transfer`] — warm-start transfer tuning: a knowledge base mined
//!   from archived runs plus surrogate-guided seeding of new sessions.
//!
//! ## Quickstart
//!
//! ```
//! use cstuner::prelude::*;
//!
//! // Pick a stencil and a (simulated) GPU.
//! let kernel = cstuner::stencil::suite::j3d7pt();
//! let gpu = GpuArch::a100();
//!
//! // Build a simulator-backed evaluator.
//! let mut eval = SimEvaluator::new(kernel.spec.clone(), gpu, 0);
//!
//! // Run the full csTuner pipeline with a small budget.
//! let cfg = CsTunerConfig { dataset_size: 48, max_iterations: 10, ..Default::default() };
//! let mut tuner = CsTuner::new(cfg);
//! let outcome = tuner.tune(&mut eval, 7).expect("tuning succeeds");
//! assert!(outcome.best_time_ms.is_finite());
//! ```

pub use cst_baselines as baselines;
pub use cst_campaign as campaign;
pub use cst_codegen as codegen;
pub use cst_ga as ga;
pub use cst_gpu_sim as sim;
pub use cst_ml as ml;
pub use cst_obs as obs;
pub use cst_serve as serve;
pub use cst_space as space;
pub use cst_stats as stats;
pub use cst_stencil as stencil;
pub use cst_telemetry as telemetry;
pub use cst_transfer as transfer;
pub use cstuner_core as core;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use crate::baselines::{
        zoo, ArtemisOptimizer, ForestOptimizer, GaOptimizer, GarveyOptimizer, GridOptimizer,
        RandomOptimizer, SaOptimizer,
    };
    pub use crate::codegen::generate_cuda;
    pub use crate::core::{drive, KernelTuner, Observation, Optimizer, SearchCtx};
    pub use crate::core::{CsTuner, CsTunerConfig, Evaluator, SimEvaluator, Tuner, TuningOutcome};
    pub use crate::ga::GaConfig;
    pub use crate::sim::{GpuArch, GpuSim, MetricsReport};
    pub use crate::space::{OptSpace, ParamId, Setting};
    pub use crate::stencil::{Grid3, StencilKernel, StencilSpec};
    pub use crate::telemetry::Telemetry;
}
