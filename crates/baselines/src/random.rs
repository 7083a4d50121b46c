//! Uniform random search over valid settings.

use cst_space::Setting;
use cstuner_core::{Observation, Optimizer, SearchCtx};

/// The sanity-floor baseline as an ask/tell [`Optimizer`]: one
/// population of valid draws per ask (all randomness on the evaluator's
/// seeded stream, so draw order matches the pre-kernel loop bit for
/// bit), nothing learned from tells. Any informed tuner must beat this
/// at equal budget.
#[derive(Debug, Clone)]
pub struct RandomOptimizer {
    /// Draws per ask (matched to the recorded iteration size).
    pub pop: usize,
    /// Warm-start seeds served as the first ask (instead of random
    /// draws, keeping the post-warm draw stream aligned with cold runs).
    pub warm: Vec<Setting>,
}

impl Default for RandomOptimizer {
    fn default() -> Self {
        RandomOptimizer { pop: 32, warm: Vec::new() }
    }
}

impl Optimizer for RandomOptimizer {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn warm_start(&mut self, seeds: &[Setting]) -> usize {
        self.warm = seeds.to_vec();
        self.warm.len()
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        if !self.warm.is_empty() {
            let warm = std::mem::take(&mut self.warm);
            let firsts: Vec<Setting> = warm
                .into_iter()
                .map(|mut s| {
                    ctx.space().canonicalize(&mut s);
                    s
                })
                .filter(|s| ctx.is_valid(s))
                .take(self.pop)
                .collect();
            if !firsts.is_empty() {
                return firsts;
            }
        }
        (0..self.pop).map(|_| ctx.random_valid()).collect()
    }

    fn tell(&mut self, _obs: &[Observation]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelConfig, KernelTuner, SimEvaluator, Tuner};

    #[test]
    fn random_search_finds_finite_best() {
        let mut e = SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), 3);
        let cfg = KernelConfig { pop: 8, max_iterations: 5, ..KernelConfig::DEFAULT };
        let mut t = KernelTuner::new(|| Box::new(RandomOptimizer { pop: 8, warm: vec![] }), cfg);
        let out = t.tune(&mut e, 3).unwrap();
        assert_eq!(out.tuner, "Random");
        assert!(out.best_time_ms.is_finite());
        assert_eq!(out.curve.len(), 5);
    }

    #[test]
    fn iso_time_budget_stops_search() {
        let mut e = SimEvaluator::with_budget(
            suite::spec_by_name("j3d7pt").unwrap(),
            GpuArch::a100(),
            4,
            15.0,
        );
        let mut t =
            KernelTuner::new(|| Box::new(RandomOptimizer::default()), KernelConfig::DEFAULT);
        let out = t.tune(&mut e, 4).unwrap();
        assert!(out.search_s >= 15.0);
        assert!(out.search_s < 25.0);
    }
}
