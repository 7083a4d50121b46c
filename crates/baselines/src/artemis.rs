//! Artemis-style hierarchical auto-tuning (Rawat et al., IPDPS'19),
//! re-implemented per §II-C/§V-A2: "Artemis tunes the computation for
//! high-impact optimizations first and then selects a few high-performance
//! candidates".
//!
//! The expert knowledge lives in [`high_impact_params`]: which
//! optimizations matter most is decided from the stencil's class, not
//! learned from data — effective for most stencils (§V-C) but without the
//! generality of csTuner's statistic-driven grouping (§V-D).

use cst_space::{ParamId, Setting};
use cst_stencil::StencilClass;
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// High-performance candidates kept after the first phase and refined in
/// the second (this tree's choice).
const CANDIDATES: usize = 4;

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

/// What the last ask held, and so how its tell settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Phase 1: the shuffled expert grid.
    Grid,
    /// Phase 2: one kept candidate's own measurement.
    Candidate,
    /// Phase 2: one low-impact knob's sweep around the incumbent.
    Sweep,
}

/// The Artemis baseline as an ask/tell [`Optimizer`]: one ask for the
/// whole phase-1 grid, then per kept candidate one ask for the candidate
/// and one per low-impact knob's sweep. It takes no warm-start seeds:
/// its starting points are the expert grid. Its asks may be invalid:
/// expert settings are checked against the explicit constraints only,
/// and resource overruns are found by measuring.
#[derive(Debug, Clone)]
pub struct ArtemisOptimizer {
    stage: Stage,
    /// The phase-1 grid, built in `init` and asked once.
    grid: Vec<Setting>,
    /// Phase-1 survivors, fastest first, and the next one to refine.
    ranked: Vec<Setting>,
    next_candidate: usize,
    /// The low-impact knobs swept in phase 2 and the next one to sweep.
    low: Vec<ParamId>,
    next_param: usize,
    /// The phase-2 incumbent and its time.
    current: Setting,
    current_t: f64,
}

impl Default for ArtemisOptimizer {
    /// New tuner state; the grid is built in `init`.
    fn default() -> Self {
        ArtemisOptimizer {
            stage: Stage::Grid,
            grid: Vec::new(),
            ranked: Vec::new(),
            next_candidate: 0,
            low: Vec::new(),
            next_param: 0,
            current: Setting::baseline(),
            current_t: f64::INFINITY,
        }
    }
}

impl ArtemisOptimizer {
    /// The next batch to measure, advancing the stage; empty once every
    /// kept candidate is refined.
    fn next_batch(&mut self, ctx: &SearchCtx<'_>) -> Vec<Setting> {
        loop {
            match self.stage {
                Stage::Grid => {
                    if !self.grid.is_empty() {
                        return std::mem::take(&mut self.grid);
                    }
                    self.stage = Stage::Candidate;
                }
                Stage::Candidate => {
                    let Some(&cand) = self.ranked.get(self.next_candidate) else {
                        return Vec::new();
                    };
                    self.next_candidate += 1;
                    self.next_param = 0;
                    self.current = cand;
                    return vec![cand];
                }
                Stage::Sweep => {
                    let Some(&p) = self.low.get(self.next_param) else {
                        self.stage = Stage::Candidate;
                        continue;
                    };
                    self.next_param += 1;
                    // Experts sweep each remaining knob over its sensible
                    // range, not the full power-of-two ladder. The sweep
                    // is fixed up front, around the knob's incumbent
                    // context.
                    let current = self.current;
                    let sweep: Vec<Setting> = expert_values(p, ctx.space().values(p))
                        .into_iter()
                        .filter(|&v| v != current.get(p))
                        .filter_map(|v| {
                            let mut s = current.with(p, v);
                            s.canonicalize();
                            ctx.space().is_explicit_valid(&s).then_some(s)
                        })
                        .collect();
                    if !sweep.is_empty() {
                        return sweep;
                    }
                }
            }
        }
    }
}

impl Optimizer for ArtemisOptimizer {
    fn init(&mut self, ctx: &mut SearchCtx<'_>, seed: u64, _tel: &Telemetry) {
        let high = high_impact_params(ctx.spec().class);
        let base = Setting::baseline();
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
        let ext_sd = ctx.spec().grid[2] as u32;
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
                match ctx.spec().class {
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
            s.canonicalize();
            if ctx.space().is_explicit_valid(&s) && !cleaned.contains(&s) {
                cleaned.push(s);
            }
        }
        cleaned.shuffle(&mut rng);

        *self = ArtemisOptimizer {
            grid: cleaned,
            // Phase 2: per candidate, greedy coordinate sweep over the
            // low-impact parameters.
            low: low_impact_params(&high),
            ..ArtemisOptimizer::default()
        };
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        self.next_batch(ctx)
    }

    fn tell(&mut self, obs: &[Observation]) {
        match self.stage {
            Stage::Grid => {
                // Keep the fastest few finite grid points as candidates.
                let mut ranked: Vec<(f64, Setting)> = obs
                    .iter()
                    .filter_map(|o| o.time_ms.filter(|t| t.is_finite()).map(|t| (t, o.setting)))
                    .collect();
                ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                ranked.truncate(CANDIDATES);
                self.ranked = ranked.into_iter().map(|(_, s)| s).collect();
                self.stage = Stage::Candidate;
            }
            Stage::Candidate => {
                self.current_t = obs[0].time_ms.unwrap_or(f64::INFINITY);
                self.stage = Stage::Sweep;
            }
            Stage::Sweep => {
                for o in obs {
                    if let Some(t) = o.time_ms {
                        if t < self.current_t {
                            self.current_t = t;
                            self.current = o.setting;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelTuner, SimEvaluator, Tuner};

    fn artemis(max_iterations: u32) -> KernelTuner {
        crate::zoo::capped("artemis", max_iterations)
    }

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
        let out = artemis(25).tune(&mut e, 13).unwrap();
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(out.best_time_ms <= baseline, "{} vs {}", out.best_time_ms, baseline);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut e = SimEvaluator::new(suite::spec_by_name("addsgd4").unwrap(), GpuArch::a100(), 17);
        let out = artemis(3).tune(&mut e, 17).unwrap();
        assert!(out.curve.last().unwrap().iteration <= 4);
    }
}
