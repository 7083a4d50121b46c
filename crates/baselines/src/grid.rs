//! Coarse grid search over the parameter lattice.
//!
//! The classic manual-tuning strategy: pick a few evenly-spaced levels
//! per parameter and sweep the cross product in lexicographic order.
//! Entirely deterministic — no rng at all — which makes it the
//! simplest possible conformance case for the ask/tell kernel and a
//! useful "no intelligence, full coverage" contrast to random search
//! (which has no coverage guarantee) and the GA (which has no order
//! guarantee).

use cst_space::{ParamId, Setting, SettingSet};
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};

/// Grid sweep as an ask/tell [`Optimizer`]: a mixed-radix odometer over
/// per-parameter lattice index lists, canonicalized and deduplicated
/// (canonicalization collapses inactive-dimension combos onto one
/// setting), `pop` fresh lattice points per ask, empty ask once the
/// lattice is exhausted. It takes no warm-start seeds: the sweep visits
/// the lattice exhaustively, so seeds would only reorder its coverage.
#[derive(Debug)]
pub struct GridOptimizer {
    levels: usize,
    pop: usize,
    /// Per-parameter lattice: indices into the parameter's value list.
    lattice: Vec<Vec<usize>>,
    /// Odometer over `lattice` (None once exhausted).
    cursor: Option<Vec<usize>>,
    /// Canonical settings already asked this run.
    seen: SettingSet,
}

impl GridOptimizer {
    /// New sweep with `levels` lattice points per parameter, `pop`
    /// settings per ask.
    pub fn new(levels: usize, pop: usize) -> Self {
        assert!(levels > 0 && pop > 0);
        GridOptimizer {
            levels,
            pop,
            lattice: Vec::new(),
            cursor: None,
            seen: SettingSet::default(),
        }
    }

    /// Advance the odometer (last parameter fastest). Returns false once
    /// the sweep wraps.
    fn step(&mut self) -> bool {
        let cur = match &mut self.cursor {
            Some(c) => c,
            None => return false,
        };
        for i in (0..cur.len()).rev() {
            cur[i] += 1;
            if cur[i] < self.lattice[i].len() {
                return true;
            }
            cur[i] = 0;
        }
        self.cursor = None;
        false
    }
}

impl Default for GridOptimizer {
    /// Four lattice levels per parameter, 32 settings per ask.
    fn default() -> Self {
        GridOptimizer::new(4, 32)
    }
}

impl Optimizer for GridOptimizer {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn init(&mut self, ctx: &mut SearchCtx<'_>, _seed: u64, _tel: &Telemetry) {
        self.lattice = ParamId::ALL
            .iter()
            .map(|&p| {
                let n = ctx.space().values(p).len();
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
                idx
            })
            .collect();
        self.cursor = Some(vec![0; self.lattice.len()]);
        self.seen.clear();
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        let mut batch = Vec::with_capacity(self.pop);
        while batch.len() < self.pop {
            let cur = match &self.cursor {
                Some(c) => c.clone(),
                None => break,
            };
            let mut s = Setting::baseline();
            for (i, &p) in ParamId::ALL.iter().enumerate() {
                let vals = ctx.space().values(p);
                s.set(p, vals[self.lattice[i][cur[i]]]);
            }
            ctx.space().canonicalize(&mut s);
            if self.seen.insert(s) {
                batch.push(s);
            }
            if !self.step() {
                break;
            }
        }
        batch
    }

    fn tell(&mut self, _obs: &[Observation]) {}

    fn asks_valid_only(&self) -> bool {
        // Lattice points are canonical but may be resource-invalid; like
        // OpenTuner, the grid discovers that by charged evaluation.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelConfig, KernelTuner, SimEvaluator, Tuner};

    #[test]
    fn grid_finds_finite_best_and_is_seedless_deterministic() {
        let run = |seed| {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 1);
            let cfg = KernelConfig { pop: 8, max_iterations: 4, stall_limit: 10_000 };
            KernelTuner::new(|| Box::new(GridOptimizer::new(4, 8)), cfg).tune(&mut e, seed).unwrap()
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
        let cfg = KernelConfig { pop: 8, max_iterations: 100, stall_limit: 10_000 };
        let out =
            KernelTuner::new(|| Box::new(GridOptimizer::new(1, 8)), cfg).tune(&mut e, 2).unwrap();
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn asked_settings_never_repeat() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 3);
        let mut opt = GridOptimizer::new(3, 16);
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
