//! Coarse grid search over the parameter lattice.
//!
//! The classic manual-tuning strategy: pick a few evenly-spaced levels
//! per parameter and sweep the cross product in lexicographic order.
//! Entirely deterministic — no rng at all — which makes it the
//! simplest possible conformance case for the ask/tell kernel and a
//! useful "no intelligence, full coverage" contrast to random search
//! (which has no coverage guarantee) and the GA (which has no order
//! guarantee).

use cst_ga::POPULATION;
use cst_space::{odometer_step, ParamId, Setting, SettingSet};
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};

/// Grid sweep as an ask/tell [`Optimizer`]: a mixed-radix odometer over
/// per-parameter lattice values, canonicalized and deduplicated
/// (canonicalization collapses inactive-dimension combos onto one
/// setting), one population of fresh lattice points per ask, empty ask
/// once the lattice is exhausted. It takes no warm-start seeds: the sweep
/// visits the lattice exhaustively, so seeds would only reorder its
/// coverage. Its asks may be invalid: lattice points are canonical but
/// may break the resource limits, which, like OpenTuner, the grid
/// discovers by charged evaluation.
#[derive(Debug)]
pub struct GridOptimizer {
    levels: usize,
    /// Per-parameter lattice: values from the parameter's list.
    lattice: Vec<Vec<u32>>,
    /// Odometer over `lattice` (None once exhausted).
    cursor: Option<Vec<u32>>,
    /// Canonical settings already asked this run.
    seen: SettingSet,
}

impl GridOptimizer {
    /// New sweep with `levels` lattice points per parameter.
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0);
        GridOptimizer { levels, lattice: Vec::new(), cursor: None, seen: SettingSet::default() }
    }
}

impl Default for GridOptimizer {
    /// Four lattice levels per parameter.
    fn default() -> Self {
        GridOptimizer::new(4)
    }
}

impl Optimizer for GridOptimizer {
    fn init(&mut self, ctx: &mut SearchCtx<'_>, _seed: u64, _tel: &Telemetry) {
        self.lattice = ParamId::ALL
            .iter()
            .map(|&p| {
                let vals = ctx.space().values(p);
                let n = vals.len();
                let mut idx: Vec<usize> = if self.levels == 1 {
                    vec![0]
                } else if n <= self.levels {
                    (0..n).collect()
                } else {
                    (0..self.levels)
                        .map(|i| (i * (n - 1) + (self.levels - 1) / 2) / (self.levels - 1))
                        .collect()
                };
                idx.dedup();
                idx.into_iter().map(|i| vals[i]).collect()
            })
            .collect();
        self.cursor = Some(vec![0; self.lattice.len()]);
        self.seen.clear();
    }

    fn ask(&mut self, _ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        let mut batch = Vec::with_capacity(POPULATION);
        while batch.len() < POPULATION {
            let Some(cur) = &mut self.cursor else { break };
            let mut s = Setting::baseline();
            for (i, &p) in ParamId::ALL.iter().enumerate() {
                s.set(p, self.lattice[i][cur[i] as usize]);
            }
            s.canonicalize();
            if self.seen.insert(s) {
                batch.push(s);
            }
            // Last parameter fastest; a wrapped odometer ends the sweep.
            if !odometer_step(cur, |i| self.lattice[i].len()) {
                self.cursor = None;
                break;
            }
        }
        batch
    }

    fn tell(&mut self, _obs: &[Observation]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::capped;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelTuner, SimEvaluator, Tuner};

    #[test]
    fn grid_finds_finite_best_and_is_seedless_deterministic() {
        let run = |seed| {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 1);
            capped("grid", 4).tune(&mut e, seed).unwrap()
        };
        let a = run(1);
        let b = run(99);
        assert_eq!(a.tuner, "Grid");
        assert!(a.best_time_ms.is_finite());
        // No rng anywhere: the sweep ignores the seed entirely.
        assert_eq!(a.best_time_ms.to_bits(), b.best_time_ms.to_bits());
        assert_eq!(a.best_setting, b.best_setting);
    }

    #[test]
    fn exhausted_lattice_ends_run_early() {
        // levels=1 → a single lattice point (the first value of every
        // list): the sweep exhausts after one setting and the run ends
        // without touching the budget loop.
        let mut e = SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), 2);
        let mut tuner = KernelTuner::new("Grid", || Box::new(GridOptimizer::new(1)));
        let out = tuner.tune(&mut e, 2).unwrap();
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn asked_settings_never_repeat() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 3);
        let mut opt = GridOptimizer::new(3);
        opt.init(&mut SearchCtx::new(&mut e), 0, &Telemetry::noop());
        let mut all = SettingSet::default();
        for _ in 0..6 {
            let batch = opt.ask(&mut SearchCtx::new(&mut e));
            for s in batch {
                assert!(all.insert(s), "duplicate lattice setting asked");
            }
        }
    }
}
