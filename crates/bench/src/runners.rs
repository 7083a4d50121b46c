//! Tuner-comparison protocols: iso-iteration (§V-B, Fig. 8), iso-time
//! (§V-C, Fig. 9; §V-D, Fig. 10), the sampling-ratio sweep (§V-E, Fig. 11)
//! and the pre-processing breakdown (§V-F, Fig. 12).

use crate::report::{write_object, Json};
use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cst_stencil::StencilSpec;
use cstuner_core::{CsTuner, CsTunerConfig, SamplingConfig, SimEvaluator, Tuner, TuningOutcome};
use rayon::prelude::*;

/// The tuners of the §V comparison, constructed fresh per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TunerKind {
    /// The paper's contribution.
    CsTuner,
    /// Garvey & Abdelrahman (ICPP'15).
    Garvey,
    /// OpenTuner-style global GA.
    OpenTuner,
    /// Artemis-style hierarchical tuner.
    Artemis,
    /// Uniform random search (extra sanity baseline).
    Random,
}

impl TunerKind {
    /// The four tuners of the paper's comparison, in figure order.
    pub const PAPER: [TunerKind; 4] =
        [TunerKind::CsTuner, TunerKind::Garvey, TunerKind::OpenTuner, TunerKind::Artemis];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TunerKind::CsTuner => "csTuner",
            TunerKind::Garvey => "Garvey",
            TunerKind::OpenTuner => "OpenTuner",
            TunerKind::Artemis => "Artemis",
            TunerKind::Random => "Random",
        }
    }

    /// Build the tuner with the paper's §V-A options and the given
    /// iteration cap.
    pub fn build(self, max_iterations: u32) -> Box<dyn Tuner> {
        if self == TunerKind::CsTuner {
            return Box::new(CsTuner::new(CsTunerConfig { max_iterations, ..Default::default() }));
        }
        let mut tuner = zoo::find(&self.name().to_lowercase())
            .and_then(zoo::TunerEntry::kernel_tuner)
            .expect("every baseline is a registered kernel tuner");
        tuner.cfg.max_iterations = max_iterations;
        Box::new(tuner)
    }
}

/// One tuning run's curve, serializable for the JSON result files.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Stencil name.
    pub stencil: String,
    /// Tuner name.
    pub tuner: &'static str,
    /// Seed of this repetition.
    pub seed: u64,
    /// Final best kernel time (ms).
    pub best_ms: f64,
    /// (iteration, virtual seconds, best-so-far ms) triples.
    pub curve: Vec<(u32, f64, f64)>,
    /// Unique settings evaluated.
    pub evaluations: u64,
    /// Pre-processing seconds (grouping, sampling, codegen).
    pub preproc_s: [f64; 3],
    /// Virtual search seconds used.
    pub search_s: f64,
}

impl Json for RunResult {
    fn write(&self, out: &mut String, depth: usize) {
        write_object(
            out,
            depth,
            &[
                ("stencil", &self.stencil),
                ("tuner", &self.tuner),
                ("seed", &self.seed),
                ("best_ms", &self.best_ms),
                ("curve", &self.curve),
                ("evaluations", &self.evaluations),
                ("preproc_s", &self.preproc_s),
                ("search_s", &self.search_s),
            ],
        );
    }
}

fn to_run_result(stencil: &str, seed: u64, out: &TuningOutcome) -> RunResult {
    RunResult {
        stencil: stencil.to_string(),
        tuner: out.tuner,
        seed,
        best_ms: out.best_time_ms,
        curve: out.curve.iter().map(|p| (p.iteration, p.elapsed_s, p.best_ms)).collect(),
        evaluations: out.evaluations,
        preproc_s: [out.preproc.grouping_s, out.preproc.sampling_s, out.preproc.codegen_s],
        search_s: out.search_s,
    }
}

/// Run one tuner on one stencil under the iso-iteration protocol: a fixed
/// number of iterations, no time budget.
pub fn run_iso_iteration(
    spec: &StencilSpec,
    arch: &GpuArch,
    kind: TunerKind,
    iterations: u32,
    seed: u64,
) -> RunResult {
    let mut eval = SimEvaluator::new(spec.clone(), arch.clone(), seed);
    let mut tuner = kind.build(iterations);
    let out = tuner.tune(&mut eval, seed).expect("tuning run failed");
    to_run_result(spec.name, seed, &out)
}

/// Run one tuner on one stencil under the iso-time protocol: a fixed
/// virtual wall-clock budget (the paper uses 100 s), no iteration cap.
pub fn run_iso_time(
    spec: &StencilSpec,
    arch: &GpuArch,
    kind: TunerKind,
    budget_s: f64,
    seed: u64,
) -> RunResult {
    let mut eval = SimEvaluator::with_budget(spec.clone(), arch.clone(), seed, budget_s);
    let mut tuner = kind.build(u32::MAX);
    let out = tuner.tune(&mut eval, seed).expect("tuning run failed");
    to_run_result(spec.name, seed, &out)
}

/// Run a csTuner iso-time session with an explicit sampling ratio
/// (Fig. 11).
pub fn run_cstuner_with_ratio(
    spec: &StencilSpec,
    arch: &GpuArch,
    ratio: f64,
    budget_s: f64,
    seed: u64,
) -> RunResult {
    let mut eval = SimEvaluator::with_budget(spec.clone(), arch.clone(), seed, budget_s);
    let cfg = CsTunerConfig {
        sampling: SamplingConfig { ratio, ..Default::default() },
        ..Default::default()
    };
    let mut tuner = CsTuner::new(cfg);
    let out = tuner.tune(&mut eval, seed).expect("tuning run failed");
    to_run_result(spec.name, seed, &out)
}

/// Run a full (stencils × tuners × seeds) sweep in parallel with the given
/// per-run protocol. Deterministic: every run derives only from its own
/// descriptor.
pub fn sweep<F>(specs: &[StencilSpec], kinds: &[TunerKind], seeds: u64, run: F) -> Vec<RunResult>
where
    F: Fn(&StencilSpec, TunerKind, u64) -> RunResult + Sync,
{
    let mut jobs = Vec::new();
    for spec in specs {
        for &kind in kinds {
            for seed in 0..seeds {
                jobs.push((spec.clone(), kind, seed));
            }
        }
    }
    jobs.par_iter().map(|(spec, kind, seed)| run(spec, *kind, *seed)).collect()
}

/// Average the best-so-far value of a set of runs at a given iteration
/// (carrying the last known value forward; `None` until the first
/// iteration of every run has completed).
pub fn mean_best_at_iteration(runs: &[&RunResult], iter: u32) -> Option<f64> {
    let mut acc = 0.0;
    for r in runs {
        let v = r.curve.iter().take_while(|(i, _, _)| *i <= iter).last().map(|(_, _, b)| *b)?;
        acc += v;
    }
    Some(acc / runs.len() as f64)
}

/// Average the best-so-far value of a set of runs at a given virtual time,
/// carrying values forward after a tuner finishes early (the paper's
/// "missing points" in Fig. 8 are runs that exhausted their space).
pub fn mean_best_at_time(runs: &[&RunResult], t_s: f64) -> Option<f64> {
    let mut acc = 0.0;
    for r in runs {
        let v = r.curve.iter().take_while(|(_, e, _)| *e <= t_s).last().map(|(_, _, b)| *b)?;
        acc += v;
    }
    Some(acc / runs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_stencil::suite;

    #[test]
    fn iso_iteration_respects_cap() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let r = run_iso_iteration(&spec, &GpuArch::a100(), TunerKind::Random, 4, 0);
        assert!(r.curve.last().unwrap().0 <= 5);
        assert!(r.best_ms.is_finite());
    }

    #[test]
    fn iso_time_respects_budget() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let r = run_iso_time(&spec, &GpuArch::a100(), TunerKind::CsTuner, 30.0, 1);
        assert!(r.search_s <= 35.0, "search {}", r.search_s);
    }

    #[test]
    fn all_paper_tuners_run() {
        let spec = suite::spec_by_name("helmholtz").unwrap();
        for kind in TunerKind::PAPER {
            let r = run_iso_iteration(&spec, &GpuArch::a100(), kind, 3, 0);
            assert!(r.best_ms.is_finite(), "{:?}", kind);
            assert_eq!(r.tuner, kind.name());
        }
    }

    #[test]
    fn sweep_produces_all_combinations() {
        let specs = vec![suite::spec_by_name("j3d7pt").unwrap()];
        let runs = sweep(&specs, &[TunerKind::Random, TunerKind::Garvey], 2, |s, k, seed| {
            run_iso_iteration(s, &GpuArch::a100(), k, 2, seed)
        });
        assert_eq!(runs.len(), 4);
    }

    #[test]
    fn mean_best_carries_forward() {
        let r = RunResult {
            stencil: "x".into(),
            tuner: "t",
            seed: 0,
            best_ms: 5.0,
            curve: vec![(1, 1.0, 10.0), (2, 2.0, 5.0)],
            evaluations: 0,
            preproc_s: [0.0; 3],
            search_s: 2.0,
        };
        let rs = [&r];
        assert_eq!(mean_best_at_iteration(&rs, 1), Some(10.0));
        assert_eq!(mean_best_at_iteration(&rs, 50), Some(5.0));
        assert_eq!(mean_best_at_iteration(&rs, 0), None);
        assert_eq!(mean_best_at_time(&rs, 1.5), Some(10.0));
        assert_eq!(mean_best_at_time(&rs, 99.0), Some(5.0));
    }

    #[test]
    fn ratio_runner_accepts_range() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let r = run_cstuner_with_ratio(&spec, &GpuArch::a100(), 0.05, 20.0, 0);
        assert!(r.best_ms.is_finite());
    }
}
