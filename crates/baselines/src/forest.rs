//! Forest-surrogate search: a random forest trained online on told
//! records pre-ranks candidate settings.
//!
//! Filipovič et al. ("Using hardware performance counters to speed up
//! autotuning convergence") show cheap learned models cutting the
//! evaluations a searcher needs; Garvey & Abdelrahman use the same
//! forest shape offline for memory-type prediction. This tuner closes
//! the loop *online*: every measured (setting, time) pair becomes
//! training data, the forest learns to recognize the fast 30% by
//! setting features, and each ask over-draws a pool of valid candidates
//! and keeps only the forest's top picks. Before enough records exist
//! it degrades gracefully to random search.

use cst_ga::POPULATION;
use cst_ml::Surrogate;
use cst_space::{Setting, N_PARAMS};
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::random::warm_ask;

/// Most recent told records kept as forest training data.
const TRAIN_WINDOW: usize = 512;

/// Candidates drawn per ask, as a multiple of the population it keeps
/// (this tree's choice).
const POOL_FACTOR: usize = 4;

/// Told records required before the forest starts ranking (this tree's
/// choice).
const MIN_TRAIN: usize = 32;

/// The surrogate as an ask/tell [`Optimizer`]: over-draw, rank by
/// predicted P(fast), keep the top population. Every asked setting is
/// valid: warm seeds are checked, and pool draws are valid by
/// construction.
#[derive(Debug)]
pub struct ForestOptimizer {
    rng: StdRng,
    /// (features, measured ms) for every finite told evaluation.
    records: Vec<([f64; N_PARAMS], f64)>,
    /// Warm-start seeds served as the first ask.
    warm: Vec<Setting>,
}

impl ForestOptimizer {
    /// Fit a fast/slow surrogate on the record window (Garvey's q30
    /// labeling, shared via [`cst_ml::Surrogate`]) and return P(fast)
    /// per pool candidate.
    fn rank_scores(&mut self, pool: &[Setting]) -> Vec<f64> {
        let times: Vec<f64> = self.records.iter().map(|r| r.1).collect();
        let xs: Vec<Vec<f64>> = self.records.iter().map(|r| r.0.to_vec()).collect();
        let surrogate = Surrogate::fit(&xs, &times, &mut self.rng).expect("MIN_TRAIN >= 2 records");
        pool.iter().map(|s| surrogate.score(&s.features())).collect()
    }
}

impl Default for ForestOptimizer {
    /// New surrogate optimizer; the rng is seeded in `init`.
    fn default() -> Self {
        ForestOptimizer { rng: StdRng::seed_from_u64(0), records: Vec::new(), warm: Vec::new() }
    }
}

impl Optimizer for ForestOptimizer {
    fn init(&mut self, _ctx: &mut SearchCtx<'_>, seed: u64, _tel: &Telemetry) {
        // `warm` survives init: the kernel offers seeds first, then inits.
        self.rng = StdRng::seed_from_u64(seed ^ 0x0f0e_e57a);
        self.records.clear();
    }

    fn warm_start(&mut self, seeds: &[Setting]) -> usize {
        self.warm = seeds.to_vec();
        self.warm.len()
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        // Warm-start seeds form the first asks (rank order, validity
        // re-checked against this evaluator), before any pool draw.
        let firsts = warm_ask(&mut self.warm, ctx);
        if !firsts.is_empty() {
            return firsts;
        }
        let pool: Vec<Setting> =
            (0..POPULATION * POOL_FACTOR).map(|_| ctx.random_valid()).collect();
        if self.records.len() < MIN_TRAIN {
            // Cold start: plain random search until the forest has data.
            return pool.into_iter().take(POPULATION).collect();
        }
        let scores = self.rank_scores(&pool);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        // Stable by construction: descending score, pool index breaks
        // ties, so ranking is bit-deterministic.
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        order.into_iter().take(POPULATION).map(|i| pool[i]).collect()
    }

    fn tell(&mut self, obs: &[Observation]) {
        for o in obs {
            if let Some(t) = o.time_ms {
                if t.is_finite() {
                    self.records.push((o.setting.features(), t));
                }
            }
        }
        if self.records.len() > TRAIN_WINDOW {
            let excess = self.records.len() - TRAIN_WINDOW;
            self.records.drain(..excess);
        }
    }
}

#[cfg(test)]
mod tests {
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelTuner, SimEvaluator, Tuner};

    fn forest(max_iterations: u32) -> KernelTuner {
        crate::zoo::capped("forest", max_iterations)
    }

    #[test]
    fn forest_finds_finite_best() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 6);
        let out = forest(8).tune(&mut e, 6).unwrap();
        assert_eq!(out.tuner, "Forest");
        assert!(out.best_time_ms.is_finite());
        assert_eq!(out.curve.len(), 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("helmholtz").unwrap(), GpuArch::a100(), 8);
            forest(6).tune(&mut e, 8).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_time_ms.to_bits(), b.best_time_ms.to_bits());
        assert_eq!(a.best_setting, b.best_setting);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.search_s.to_bits(), b.search_s.to_bits());
    }

    #[test]
    fn surrogate_ranking_kicks_in_after_min_train() {
        // The budget holds many more than MIN_TRAIN evaluations, so the
        // later asks rank — and the run must still complete cleanly.
        let mut e = SimEvaluator::with_budget(
            suite::spec_by_name("cheby").unwrap(),
            GpuArch::a100(),
            9,
            160.0,
        );
        let out = forest(u32::MAX).tune(&mut e, 9);
        assert!(out.unwrap().best_time_ms.is_finite());
    }
}
