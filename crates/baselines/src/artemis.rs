//! Artemis-style hierarchical auto-tuning (Rawat et al., IPDPS'19),
//! re-implemented per §II-C/§V-A2: "Artemis tunes the computation for
//! high-impact optimizations first and then selects a few high-performance
//! candidates".
//!
//! The expert knowledge lives in [`high_impact_params`]: which
//! optimizations matter most is decided from the stencil's class, not
//! learned from data — effective for most stencils (§V-C) but without the
//! generality of csTuner's statistic-driven grouping (§V-D).

use crate::common::Recorder;
use cst_space::{ParamId, Setting};
use cst_stencil::StencilClass;
use cst_telemetry::Telemetry;
use cstuner_core::{Evaluator, TuneError, Tuner, TuningOutcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The Artemis baseline.
#[derive(Debug, Clone)]
pub struct ArtemisTuner {
    /// High-performance candidates kept after the first phase.
    pub candidates: usize,
    /// Evaluations per iteration (matched to the GA population size).
    pub pop: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Cap on enumerated combinations of the high-impact phase.
    pub enum_limit: usize,
}

impl Default for ArtemisTuner {
    fn default() -> Self {
        ArtemisTuner { candidates: 4, pop: 32, max_iterations: u32::MAX, enum_limit: 1024 }
    }
}

/// Expert choice of high-impact optimizations per stencil class:
/// bandwidth-bound stencils live or die by the thread-block shape,
/// streaming and shared-memory staging; compute-bound stencils by the
/// block shape, register-level unrolling and merging.
pub fn high_impact_params(class: StencilClass) -> Vec<ParamId> {
    match class {
        StencilClass::MemoryBound => vec![
            ParamId::TBx,
            ParamId::TBy,
            ParamId::UseShared,
            ParamId::UseStreaming,
            ParamId::SD,
            ParamId::SB,
        ],
        StencilClass::ComputeBound => vec![
            ParamId::TBx,
            ParamId::TBy,
            ParamId::UFx,
            ParamId::UFy,
            ParamId::BMy,
            ParamId::UseRetiming,
        ],
    }
}

/// The remaining parameters, tuned greedily in the second phase.
fn low_impact_params(high: &[ParamId]) -> Vec<ParamId> {
    ParamId::ALL.iter().copied().filter(|p| !high.contains(p)).collect()
}

/// Expert pruning of a parameter's value list: the hand-tuned ranges a
/// GPU performance engineer would actually sweep (no 1-wide thread
/// blocks, no 512-fold unrolling). This is the "expert knowledge" §II-C
/// says the hierarchical tuners rely on.
pub fn expert_values(p: ParamId, full: &[u32]) -> Vec<u32> {
    let keep: Box<dyn Fn(u32) -> bool> = match p {
        ParamId::TBx => Box::new(|v| (8..=256).contains(&v)),
        ParamId::TBy => Box::new(|v| (1..=32).contains(&v)),
        ParamId::TBz => Box::new(|v| v <= 4),
        ParamId::UFx | ParamId::UFy | ParamId::UFz => Box::new(|v| v <= 8),
        ParamId::BMx | ParamId::BMy | ParamId::BMz | ParamId::CMx | ParamId::CMy | ParamId::CMz => {
            Box::new(|v| v <= 16)
        }
        ParamId::SB => Box::new(|v| v >= 8),
        _ => Box::new(|_| true),
    };
    let pruned: Vec<u32> = full.iter().copied().filter(|&v| keep(v)).collect();
    if pruned.is_empty() {
        full.to_vec()
    } else {
        pruned
    }
}

impl Tuner for ArtemisTuner {
    fn name(&self) -> &'static str {
        "Artemis"
    }

    fn tune(&mut self, eval: &mut dyn Evaluator, seed: u64) -> Result<TuningOutcome, TuneError> {
        self.tune_with_telemetry(eval, seed, &Telemetry::noop())
    }

    fn tune_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError> {
        let high = high_impact_params(eval.spec().class);
        let base = Setting::baseline();
        let mut rec = Recorder::new(self.pop, self.max_iterations).with_telemetry(tel);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0a87_e315);

        // Phase 1: the expert's coarse high-impact sweep. Rather than the
        // full cartesian product (which no human would time), Artemis
        // evaluates the curated grid of known-good thread-block shapes
        // crossed with the class's high-impact optimizations, shuffled so
        // budget caps cut it without enumeration bias.
        // The grid reflects the expert knowledge of Artemis's era (pre-
        // Ampere): modest thread-block shapes, classic 2.5-D shared
        // streaming at full extent (no concurrent-streaming SB sweep —
        // that interaction is exactly what data-driven tuning discovers),
        // and register-level levers for compute-bound kernels.
        let ext_sd = eval.spec().grid[2] as u32;
        let tb_shapes: [(u32, u32); 5] = [(32, 4), (64, 2), (32, 8), (128, 1), (64, 4)];
        let mut phase1: Vec<Setting> = Vec::new();
        for &(tbx, tby) in &tb_shapes {
            let tb = base.with(ParamId::TBx, tbx).with(ParamId::TBy, tby).with(ParamId::TBz, 1);
            // Plain, and the classic 2.5-D shared-memory streaming config.
            let variants = [
                tb,
                tb.with(ParamId::UseShared, 2)
                    .with(ParamId::UseStreaming, 2)
                    .with(ParamId::SD, 3)
                    .with(ParamId::TBz, 1)
                    .with(ParamId::SB, ext_sd),
            ];
            for v in variants {
                match eval.spec().class {
                    StencilClass::MemoryBound => phase1.push(v),
                    StencilClass::ComputeBound => {
                        // Compute-bound kernels: also probe unrolling and
                        // retiming, the register-level levers.
                        phase1.push(v);
                        phase1.push(
                            v.with(ParamId::UFx, 4).with(ParamId::BMx, 1).with(ParamId::CMx, 4),
                        );
                        phase1.push(v.with(ParamId::UseRetiming, 2));
                    }
                }
            }
        }
        let mut cleaned: Vec<Setting> = Vec::new();
        for mut s in phase1 {
            eval.space().canonicalize(&mut s);
            if eval.space().is_explicit_valid(&s) && !cleaned.contains(&s) {
                cleaned.push(s);
            }
        }
        cleaned.shuffle(&mut rng);
        cleaned.truncate(self.enum_limit);
        let mut ranked: Vec<(f64, Setting)> = Vec::new();
        for s in cleaned {
            if rec.done(eval) {
                break;
            }
            let t = rec.measure(eval, s);
            if t.is_finite() {
                ranked.push((t, s));
            }
        }
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        ranked.truncate(self.candidates);

        // Phase 2: per candidate, greedy coordinate sweep over the
        // low-impact parameters.
        let low = low_impact_params(&high);
        for (_, cand) in ranked {
            if rec.done(eval) {
                break;
            }
            let mut current = cand;
            let mut current_t = rec.measure(eval, current);
            for &p in &low {
                if rec.done(eval) {
                    break;
                }
                // Experts sweep each remaining knob over its sensible
                // range, not the full power-of-two ladder. The sweep is
                // fixed up front, around the knob's incumbent context.
                let vals: Vec<u32> = expert_values(p, eval.space().values(p));
                let sweep: Vec<Setting> = vals
                    .iter()
                    .filter(|&&v| v != current.get(p))
                    .filter_map(|&v| {
                        let mut s = current.with(p, v);
                        eval.space().canonicalize(&mut s);
                        eval.space().is_explicit_valid(&s).then_some(s)
                    })
                    .collect();
                for s in sweep {
                    if rec.done(eval) {
                        break;
                    }
                    let t = rec.measure(eval, s);
                    if t < current_t {
                        current_t = t;
                        current = s;
                    }
                }
            }
        }
        rec.finish(self.name(), eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::SimEvaluator;

    #[test]
    fn high_impact_depends_on_class() {
        let mem = high_impact_params(StencilClass::MemoryBound);
        let cmp = high_impact_params(StencilClass::ComputeBound);
        assert!(mem.contains(&ParamId::UseStreaming));
        assert!(cmp.contains(&ParamId::UFx));
        assert_ne!(mem, cmp);
    }

    #[test]
    fn low_impact_complements_high() {
        let high = high_impact_params(StencilClass::MemoryBound);
        let low = low_impact_params(&high);
        assert_eq!(high.len() + low.len(), ParamId::ALL.len());
    }

    #[test]
    fn artemis_beats_naive_baseline() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d27pt").unwrap(), GpuArch::a100(), 13);
        let mut t = ArtemisTuner { max_iterations: 25, ..Default::default() };
        let out = t.tune(&mut e, 13).unwrap();
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(out.best_time_ms <= baseline, "{} vs {}", out.best_time_ms, baseline);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut e = SimEvaluator::new(suite::spec_by_name("addsgd4").unwrap(), GpuArch::a100(), 17);
        let mut t = ArtemisTuner { max_iterations: 3, ..Default::default() };
        let out = t.tune(&mut e, 17).unwrap();
        assert!(out.curve.last().unwrap().iteration <= 4);
    }
}
