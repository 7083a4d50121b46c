//! csTuner — the paper's primary contribution.
//!
//! A scalable auto-tuning framework that determines high-performance
//! parameter settings for combined stencil optimizations on GPUs
//! (Sun et al., IEEE CLUSTER 2021). The pipeline (§IV, Fig. 5):
//!
//! 1. **Optimization space parameterization** — provided by `cst-space`
//!    (Table I) composed with the GPU model's resource checks
//!    (`cst-gpu-sim`), so only valid, non-spilled settings are explored.
//! 2. **Performance dataset** ([`dataset`]) — a small random sample of
//!    valid settings profiled for runtime and Nsight-style metrics.
//! 3. **Parameter grouping** ([`grouping`]) — pairwise interaction
//!    quantified by the coefficient of variation of conditional best
//!    values (Eq. 1), grouped by the deque algorithm (Algorithm 1).
//! 4. **Search space sampling** ([`metric_comb`], [`sampling`]) — GPU
//!    metrics combined by Pearson correlation (Algorithm 2), one PMNF
//!    regression model per selected metric (Eq. 3), and per-group
//!    candidate lists filtered to the sampling ratio by predicted quality.
//! 5. **Evolutionary search with approximation** ([`search`]) — an
//!    island-model GA over re-indexed group genes; a group's setting is
//!    pinned once the CV of the top-n fitness drops below the threshold,
//!    so the search narrows itself without a manually chosen iteration
//!    count.
//!
//! The [`Tuner`] trait and [`TuningOutcome`] curve format are shared with
//! the baselines in `cst-baselines`, enabling the paper's iso-iteration
//! and iso-time comparisons. [`CsTuner`] implements it with its own
//! staged pipeline; every baseline is an [`Optimizer`] behind the one
//! [`KernelTuner`], which runs it through the [`asktell`] kernel.

pub mod asktell;
pub mod dataset;
pub mod evaluator;
pub mod grouping;
pub mod metric_comb;
pub mod pipeline;
pub mod sampling;
pub mod search;

pub use asktell::{
    drive, KernelConfig, KernelTuner, MakeOptimizer, Observation, Optimizer, Recorder, SearchCtx,
};
pub use cst_gpu_sim::{FaultKind, FaultProfile, FaultStats};
pub use dataset::{DatasetRecord, PerfDataset};
pub use evaluator::{CancelToken, Evaluator, SimEvaluator};
pub use grouping::{group_from_dataset, group_parameters, is_partition, pairwise_cv, PairCv};
pub use metric_comb::{combine_metrics, select_representatives};
pub use pipeline::{
    journal_outcome, CsTuner, CsTunerConfig, CurvePoint, PreprocBreakdown, TuneError, Tuner,
    TuningOutcome,
};
pub use sampling::{sample_space, SampledSpace, SamplingConfig};
