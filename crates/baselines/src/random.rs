//! Uniform random search over valid settings.

use cst_ga::POPULATION;
use cst_space::Setting;
use cstuner_core::{Observation, Optimizer, SearchCtx};

/// The sanity-floor baseline as an ask/tell [`Optimizer`]: one
/// population of valid draws per ask (all randomness on the evaluator's
/// seeded stream, so draw order matches the pre-kernel loop bit for
/// bit), nothing learned from tells. Any informed tuner must beat this
/// at equal budget. Every asked setting is valid: warm seeds are
/// checked, and draws are valid by construction.
#[derive(Debug, Clone, Default)]
pub struct RandomOptimizer {
    /// Warm-start seeds served as the first ask (instead of random
    /// draws, keeping the post-warm draw stream aligned with cold runs).
    pub warm: Vec<Setting>,
}

impl Optimizer for RandomOptimizer {
    fn warm_start(&mut self, seeds: &[Setting]) -> usize {
        self.warm = seeds.to_vec();
        self.warm.len()
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        let firsts = warm_ask(&mut self.warm, ctx);
        if !firsts.is_empty() {
            return firsts;
        }
        (0..POPULATION).map(|_| ctx.random_valid()).collect()
    }

    fn tell(&mut self, _obs: &[Observation]) {}
}

/// A warm-started strategy's first ask, taking its seeds: each one
/// canonicalized, in rank order, the valid ones up to one population
/// (validity checked lazily, so no seed past the population is looked
/// at). Empty when no seed is left or none is valid on this evaluator.
pub(crate) fn warm_ask(warm: &mut Vec<Setting>, ctx: &SearchCtx<'_>) -> Vec<Setting> {
    std::mem::take(warm)
        .into_iter()
        .map(|mut s| {
            s.canonicalize();
            s
        })
        .filter(|s| ctx.is_valid(s))
        .take(POPULATION)
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::zoo::capped;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{SimEvaluator, Tuner};

    #[test]
    fn random_search_finds_finite_best() {
        let mut e = SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), 3);
        let out = capped("random", 5).tune(&mut e, 3).unwrap();
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
        let out = capped("random", u32::MAX).tune(&mut e, 4).unwrap();
        assert!(out.search_s >= 15.0);
        assert!(out.search_s < 25.0);
    }
}
