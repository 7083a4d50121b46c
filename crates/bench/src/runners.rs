//! The experiment harness behind every seeded experiment: iso-iteration
//! (§V-B, Fig. 8), iso-time (§V-C, Fig. 9; §V-D, Fig. 10), the
//! sampling-ratio sweep (§V-E, Fig. 11), the pre-processing breakdown
//! (§V-F, Fig. 12) and the ablation. Each is one [`sweep`] over
//! (stencil × arm × seed) cells, where an arm is a zoo tuner flag, a
//! sampling ratio or an ablation variant, and each cell is one [`run`]
//! that returns a seeded [`RunResult`].

use crate::report::{write_object, Json};
use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cst_stencil::StencilSpec;
use cstuner_core::{CsTuner, CsTunerConfig, SimEvaluator, Tuner};
use rayon::prelude::*;

/// The four tuners of the paper's comparison by zoo flag, in figure
/// order.
pub const PAPER: [&str; 4] = ["cstuner", "garvey", "opentuner", "artemis"];

/// An ablation variant: its label and the one edit it makes to a csTuner
/// configuration.
pub type Variant = (&'static str, fn(&mut CsTunerConfig));

/// The ablation's variants (DESIGN.md "Ablations"). `experiments
/// ablation` applies them to the default configuration, the criterion
/// bench to its smaller one.
pub const ABLATION: [Variant; 5] = [
    // The complete pipeline.
    ("full", |_| {}),
    // Singleton groups: Algorithm 1 off.
    ("no-grouping", |c| c.flat_grouping = true),
    // A Garvey-style random cut at the same ratio: the PMNF filter off.
    ("random-sampling", |c| c.sampling.random_mode = Some(7)),
    // The CV(top-n) stop off.
    ("no-approximation", |c| c.cv_threshold = 0.0),
    // Isolated GA islands.
    ("no-migration", |c| c.ga.migration_interval = u32::MAX),
];

/// The zoo's tuner behind `flag` with the paper's §V-A options, capped at
/// `max_iterations`: the entry's kernel tuner, or csTuner's default
/// configuration.
///
/// # Panics
/// Panics if `flag` is not registered in the zoo.
pub fn tuner(flag: &str, max_iterations: u32) -> Box<dyn Tuner> {
    let entry = zoo::find(flag).unwrap_or_else(|| panic!("`{flag}` is not a registered tuner"));
    match entry.kernel_tuner() {
        Some(mut tuner) => {
            tuner.max_iterations = max_iterations;
            Box::new(tuner)
        }
        None => Box::new(CsTuner::new(CsTunerConfig { max_iterations, ..Default::default() })),
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

/// Run one tuner on one stencil. `budget_s` picks the protocol: `None` is
/// iso-iteration (the tuner's iteration cap ends the run), `Some(s)` is
/// iso-time with `s` virtual seconds (the paper uses 100). The evaluator
/// follows the ambient fault profile (`CST_FAULT_SEED`).
pub fn run(
    spec: &StencilSpec,
    arch: &GpuArch,
    tuner: &mut dyn Tuner,
    budget_s: Option<f64>,
    seed: u64,
) -> RunResult {
    let (spec, arch) = (spec.clone(), arch.clone());
    let stencil = spec.name.to_string();
    let mut eval = match budget_s {
        None => SimEvaluator::new(spec, arch, seed),
        Some(budget_s) => SimEvaluator::with_budget(spec, arch, seed, budget_s),
    };
    let out = tuner.tune(&mut eval, seed).expect("tuning run failed");
    RunResult {
        stencil,
        tuner: out.tuner,
        seed,
        best_ms: out.best_time_ms,
        curve: out.curve.iter().map(|p| (p.iteration, p.elapsed_s, p.best_ms)).collect(),
        evaluations: out.evaluations,
        preproc_s: [out.preproc.grouping_s, out.preproc.sampling_s, out.preproc.codegen_s],
        search_s: out.search_s,
    }
}

/// Run every (stencil, arm, seed) cell of an experiment in parallel, seeds
/// `0..seeds`. The runs come back in cell order: stencil-major, then arm,
/// then seed, so each `seeds`-long chunk is one (stencil, arm) cell.
/// Deterministic: every run derives only from its own cell.
pub fn sweep<A, F>(specs: &[StencilSpec], arms: &[A], seeds: u64, run: F) -> Vec<RunResult>
where
    A: Sync,
    F: Fn(&StencilSpec, &A, u64) -> RunResult + Sync,
{
    let mut cells = Vec::new();
    for spec in specs {
        for arm in arms {
            for seed in 0..seeds {
                cells.push((spec, arm, seed));
            }
        }
    }
    cells.par_iter().map(|&(spec, arm, seed)| run(spec, arm, seed)).collect()
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
        let r = run(&spec, &GpuArch::a100(), tuner("random", 4).as_mut(), None, 0);
        assert!(r.curve.last().unwrap().0 <= 5);
        assert!(r.best_ms.is_finite());
    }

    #[test]
    fn iso_time_respects_budget() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let r = run(&spec, &GpuArch::a100(), tuner("cstuner", u32::MAX).as_mut(), Some(30.0), 1);
        assert!(r.search_s <= 35.0, "search {}", r.search_s);
    }

    #[test]
    fn all_paper_tuners_run() {
        let spec = suite::spec_by_name("helmholtz").unwrap();
        for flag in PAPER {
            let r = run(&spec, &GpuArch::a100(), tuner(flag, 3).as_mut(), None, 0);
            assert!(r.best_ms.is_finite(), "{flag}");
            assert_eq!(r.tuner, zoo::find(flag).unwrap().display);
        }
    }

    #[test]
    fn sweep_produces_all_combinations() {
        // Fig. 11 and the ablation read each run's arm from its position:
        // stencil-major, then arm, then seed.
        let specs = ["j3d7pt", "cheby"].map(|s| suite::spec_by_name(s).unwrap());
        let runs = sweep(&specs, &["random", "garvey"], 2, |s, &flag, seed| {
            run(s, &GpuArch::a100(), tuner(flag, 2).as_mut(), None, seed)
        });
        let cells: Vec<(&str, &str, u64)> =
            runs.iter().map(|r| (r.stencil.as_str(), r.tuner, r.seed)).collect();
        assert_eq!(
            cells,
            [
                ("j3d7pt", "Random", 0),
                ("j3d7pt", "Random", 1),
                ("j3d7pt", "Garvey", 0),
                ("j3d7pt", "Garvey", 1),
                ("cheby", "Random", 0),
                ("cheby", "Random", 1),
                ("cheby", "Garvey", 0),
                ("cheby", "Garvey", 1),
            ]
        );
    }

    #[test]
    fn ablation_variants_are_distinct_edits() {
        let configs: Vec<String> = ABLATION
            .iter()
            .map(|(_, edit)| {
                let mut cfg = CsTunerConfig::default();
                edit(&mut cfg);
                format!("{cfg:?}")
            })
            .collect();
        assert_eq!(configs[0], format!("{:?}", CsTunerConfig::default()), "`full` edits nothing");
        for (i, a) in configs.iter().enumerate() {
            assert!(configs[i + 1..].iter().all(|b| a != b), "{} repeats a variant", ABLATION[i].0);
        }
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
}
