//! The csTuner pipeline and the shared tuner interface.

use crate::dataset::PerfDataset;
use crate::evaluator::Evaluator;
use crate::grouping::group_from_dataset;
use crate::metric_comb::{combine_metrics, select_representatives};
use crate::sampling::{sample_space, SamplingConfig};
use crate::search::{evolutionary_search, SearchConfig};
use cst_ga::GaConfig;
use cst_gpu_sim::FaultStats;
use cst_space::Setting;
use cst_telemetry::{event, Telemetry};

/// One point of a tuning convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index (one iteration ≈ one population of evaluations).
    pub iteration: u32,
    /// Virtual wall-clock seconds elapsed when the iteration finished.
    pub elapsed_s: f64,
    /// Best kernel time (ms) found so far.
    pub best_ms: f64,
}

/// Host-side pre-processing cost breakdown (Fig. 12).
///
/// The stage costs are *modeled* on the virtual clock — a deterministic
/// function of the work done (dataset records, model fits, candidates
/// scored, source bytes generated) — rather than measured host wall time,
/// so the Fig. 12 fractions are bit-reproducible across hosts and load.
/// The constants are calibrated so a full-scale run lands near the
/// paper's §V-F observation (pre-processing ≈ 0.76% of search).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreprocBreakdown {
    /// Parameter grouping (CV computation + Algorithm 1), seconds.
    pub grouping_s: f64,
    /// Search-space sampling (Algorithm 2 + PMNF fits + filtering), seconds.
    pub sampling_s: f64,
    /// CUDA code generation for the sampled settings, seconds.
    pub codegen_s: f64,
}

impl PreprocBreakdown {
    /// Total pre-processing seconds.
    pub fn total_s(&self) -> f64 {
        self.grouping_s + self.sampling_s + self.codegen_s
    }
}

/// The outcome every tuner reports, feeding the iso-iteration and iso-time
/// comparisons.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Tuner name (e.g. `"csTuner"`, `"Garvey"`).
    pub tuner: &'static str,
    /// Best setting found.
    pub best_setting: Setting,
    /// Its measured kernel time in ms.
    pub best_time_ms: f64,
    /// Best-so-far after each iteration.
    pub curve: Vec<CurvePoint>,
    /// Unique settings evaluated.
    pub evaluations: u64,
    /// Virtual seconds spent searching.
    pub search_s: f64,
    /// Host-side pre-processing breakdown (zero for baselines without a
    /// pre-processing stage).
    pub preproc: PreprocBreakdown,
    /// Per-stage failure/retry counters from the measurement path
    /// (all-zero on a fault-free testbed).
    pub faults: FaultStats,
}

/// Tuning failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The budget expired before anything could be evaluated.
    BudgetTooSmall,
    /// The (sampled) space contained no valid settings.
    EmptySpace,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::BudgetTooSmall => {
                write!(f, "time budget expired before the first evaluation")
            }
            TuneError::EmptySpace => write!(f, "no valid settings to search"),
        }
    }
}

impl std::error::Error for TuneError {}

/// The common auto-tuner interface: csTuner's staged pipeline and the
/// [`KernelTuner`](crate::KernelTuner) every ask/tell strategy runs
/// behind.
pub trait Tuner {
    /// Run one tuning session against the evaluator, journaling stages,
    /// iterations and counters through `tel`. The evaluator's virtual
    /// clock carries the iso-time budget; `seed` controls all stochastic
    /// choices.
    fn tune_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError>;

    /// [`Tuner::tune_with_telemetry`] with the journal off.
    fn tune(&mut self, eval: &mut dyn Evaluator, seed: u64) -> Result<TuningOutcome, TuneError> {
        self.tune_with_telemetry(eval, seed, &Telemetry::noop())
    }

    /// Offer surrogate-ranked warm-start seeds for the next tuning run
    /// and return how many the tuner keeps. The default keeps none:
    /// csTuner's staged pipeline has no seeding notion.
    fn warm_start(&mut self, seeds: Vec<Setting>) -> usize {
        let _ = seeds;
        0
    }
}

/// Emit the `outcome` journal record summarizing a finished tuning run
/// (used by the CLI and by multi-tuner drivers such as the shootout
/// example, so per-tuner journals stay comparable).
pub fn journal_outcome(tel: &Telemetry, out: &TuningOutcome) {
    event!(
        tel,
        "outcome",
        tuner = out.tuner,
        best_ms = out.best_time_ms,
        evaluations = out.evaluations,
        search_s = out.search_s
    );
}

/// Full csTuner configuration (§V-A defaults).
#[derive(Debug, Clone)]
pub struct CsTunerConfig {
    /// Performance-dataset size (paper: 128).
    pub dataset_size: usize,
    /// Number of metric collections for Algorithm 2.
    pub n_metric_collections: usize,
    /// Sampling stage options (ratio, random-sampling ablation).
    pub sampling: SamplingConfig,
    /// Genetic algorithm options (migration on or off).
    pub ga: GaConfig,
    /// `n` for the CV(top-n) approximation.
    pub top_n: usize,
    /// CV threshold of the approximation stop.
    pub cv_threshold: f64,
    /// Iteration cap (for iso-iteration runs).
    pub max_iterations: u32,
    /// Cap on the number of sampled settings whose CUDA sources are
    /// generated up front (bounds the Fig. 12 codegen stage).
    pub codegen_cap: usize,
    /// Ablation: replace Algorithm 1's data-driven groups with one
    /// singleton group per parameter (no joint tuning, no product terms).
    pub flat_grouping: bool,
}

impl Default for CsTunerConfig {
    fn default() -> Self {
        CsTunerConfig {
            dataset_size: 128,
            n_metric_collections: 4,
            sampling: SamplingConfig::default(),
            ga: GaConfig::default(),
            top_n: 10,
            cv_threshold: 0.05,
            max_iterations: u32::MAX,
            codegen_cap: 128,
            flat_grouping: false,
        }
    }
}

/// The csTuner auto-tuner (Fig. 5 pipeline).
///
/// ```
/// use cstuner_core::{CsTuner, CsTunerConfig, SimEvaluator, Tuner};
/// use cst_gpu_sim::GpuArch;
///
/// let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
/// let mut eval = SimEvaluator::new(spec, GpuArch::a100(), 0);
/// let cfg = CsTunerConfig { dataset_size: 32, max_iterations: 5, codegen_cap: 4, ..Default::default() };
/// let outcome = CsTuner::new(cfg).tune(&mut eval, 0).unwrap();
/// assert!(outcome.best_time_ms.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct CsTuner {
    cfg: CsTunerConfig,
}

impl CsTuner {
    /// Build with a configuration.
    pub fn new(cfg: CsTunerConfig) -> Self {
        CsTuner { cfg }
    }
}

impl Tuner for CsTuner {
    fn tune_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError> {
        // Offline: the performance dataset (not charged to the clock).
        let sp = tel.span("dataset", eval.clock().now_s());
        let dataset = PerfDataset::collect(eval, self.cfg.dataset_size, seed);
        let records = dataset.records.len();
        sp.end_with_cost(eval.clock().now_s(), 0.0);
        event!(tel, "dataset", records = records, v_s = eval.clock().now_s());

        // Pre-processing stage 1: parameter grouping. Cost model: one CV
        // computation per parameter pair over the whole dataset.
        let sp = tel.span("grouping", eval.clock().now_s());
        let groups: Vec<Vec<cst_space::ParamId>> = if self.cfg.flat_grouping {
            cst_space::ParamId::ALL.iter().map(|&p| vec![p]).collect()
        } else {
            group_from_dataset(&dataset)
        };
        let n_params = cst_space::ParamId::ALL.len();
        let pairs = (n_params * (n_params - 1) / 2) as f64;
        let grouping_s = pairs * records as f64 * 4e-6;
        sp.end_with_cost(eval.clock().now_s(), grouping_s);
        if tel.enabled() {
            let rendered: Vec<String> = groups
                .iter()
                .map(|g| {
                    let names: Vec<&str> = g.iter().map(|p| p.name()).collect();
                    format!("[{}]", names.join(","))
                })
                .collect();
            let rendered = rendered.concat();
            event!(tel, "groups", n_groups = groups.len(), groups = &rendered);
        }

        // Pre-processing stage 2: metric combination + PMNF sampling. Cost
        // model: each PMNF fit is a least-squares solve over the dataset,
        // plus a constant per candidate combination scored by the cut.
        let sp = tel.span("sampling", eval.clock().now_s());
        let reps = select_representatives(
            &dataset,
            &combine_metrics(&dataset, self.cfg.n_metric_collections),
        );
        let sampled = sample_space(&dataset, &groups, &reps, eval, &self.cfg.sampling, tel);
        let fits = (sampled.models.len() + 1) as f64; // metric models + time model
        let sampling_s = fits * records as f64 * 2e-4 + sampled.scored as f64 * 2e-5;
        sp.end_with_cost(eval.clock().now_s(), sampling_s);

        // Pre-processing stage 3: generate CUDA sources for the sampled
        // settings (bounded; §V-F measures this stage's share). Cost model:
        // proportional to the source bytes emitted.
        let sp = tel.span("codegen", eval.clock().now_s());
        let mut generated_bytes = 0usize;
        let mut generated_kernels = 0usize;
        if let Some(kernel) = cst_stencil::kernel_by_name(eval.spec().name) {
            let mut left = self.cfg.codegen_cap;
            'outer: for (k, combos) in sampled.combos.iter().enumerate() {
                for combo in combos {
                    if left == 0 {
                        break 'outer;
                    }
                    let mut s = sampled.base;
                    for (&p, &v) in sampled.groups[k].iter().zip(combo) {
                        s.set(p, v);
                    }
                    let src = cst_codegen::generate_cuda(&kernel, &s);
                    generated_bytes += src.code.len();
                    generated_kernels += 1;
                    left -= 1;
                }
            }
        }
        let codegen_s = generated_bytes as f64 * 2e-7;
        sp.end_with_cost(eval.clock().now_s(), codegen_s);
        event!(tel, "codegen", kernels = generated_kernels, bytes = generated_bytes);

        // Search stage (virtual clock).
        if eval.expired() {
            return Err(TuneError::BudgetTooSmall);
        }
        let search_cfg = SearchConfig {
            ga: self.cfg.ga,
            top_n: self.cfg.top_n,
            cv_threshold: self.cfg.cv_threshold,
            max_iterations: self.cfg.max_iterations,
        };
        let sp = tel.span("search", eval.clock().now_s());
        let result = evolutionary_search(eval, &sampled, &search_cfg, seed, tel);
        sp.end(eval.clock().now_s());
        if !result.best_ms.is_finite() {
            return Err(TuneError::EmptySpace);
        }
        Ok(TuningOutcome {
            tuner: "csTuner",
            best_setting: result.best_setting,
            best_time_ms: result.best_ms,
            curve: result.curve,
            evaluations: eval.unique_evaluations(),
            search_s: eval.clock().now_s(),
            preproc: PreprocBreakdown { grouping_s, sampling_s, codegen_s },
            faults: eval.fault_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SimEvaluator;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;

    fn quick_cfg() -> CsTunerConfig {
        CsTunerConfig {
            dataset_size: 48,
            max_iterations: 15,
            codegen_cap: 16,
            ..Default::default()
        }
    }

    #[test]
    fn full_pipeline_runs_and_finds_good_setting() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let mut e = SimEvaluator::new(spec, GpuArch::a100(), 1);
        let mut tuner = CsTuner::new(quick_cfg());
        let out = tuner.tune(&mut e, 1).unwrap();
        assert_eq!(out.tuner, "csTuner");
        assert!(out.best_time_ms.is_finite());
        assert!(!out.curve.is_empty());
        assert!(out.evaluations > 0);
        assert!(out.preproc.total_s() > 0.0);
        // The tuned setting must beat the naive baseline.
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(
            out.best_time_ms < baseline,
            "tuned {} should beat baseline {}",
            out.best_time_ms,
            baseline
        );
    }

    #[test]
    fn iso_time_run_respects_budget() {
        let spec = suite::spec_by_name("addsgd6").unwrap();
        let mut e = SimEvaluator::with_budget(spec, GpuArch::a100(), 2, 60.0);
        let mut tuner =
            CsTuner::new(CsTunerConfig { dataset_size: 48, codegen_cap: 16, ..Default::default() });
        let out = tuner.tune(&mut e, 2).unwrap();
        assert!(out.search_s <= 70.0, "search used {}", out.search_s);
        assert!(out.best_time_ms.is_finite());
    }

    #[test]
    fn preprocessing_is_small_relative_to_search() {
        // §V-F: pre-processing ≈ 0.76% of search. With the virtual search
        // clock the exact share differs, but it must stay a small fraction.
        let spec = suite::spec_by_name("rhs4center").unwrap();
        let mut e = SimEvaluator::with_budget(spec, GpuArch::a100(), 3, 100.0);
        let mut tuner = CsTuner::new(CsTunerConfig { dataset_size: 48, ..Default::default() });
        let out = tuner.tune(&mut e, 3).unwrap();
        assert!(
            out.preproc.total_s() < 0.25 * out.search_s,
            "preproc {} vs search {}",
            out.preproc.total_s(),
            out.search_s
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let spec = suite::spec_by_name("cheby").unwrap();
            let mut e = SimEvaluator::new(spec, GpuArch::a100(), seed);
            CsTuner::new(quick_cfg()).tune(&mut e, seed).unwrap().best_time_ms
        };
        assert_eq!(run(7), run(7));
    }
}
