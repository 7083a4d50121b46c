//! OpenTuner-style global genetic algorithm.
//!
//! OpenTuner (Ansel et al., PACT'14) is a general-purpose program
//! auto-tuner; following §V-A2 we adopt its (global) genetic algorithm
//! with options matched to csTuner's GA. The crucial differences from
//! csTuner: the genome spans the *full* Table I space (one gene per
//! parameter over its entire value list), there is no parameter grouping,
//! no model-guided sampling, and no approximation-based narrowing — so
//! convergence is slow and local optima are a real risk with a small
//! population (§V-B).
//!
//! The production path runs the GA through the ask/tell kernel
//! ([`cstuner_core::drive`]) via [`GaOptimizer`], a split-phase adapter
//! over [`GaState`]. The pre-kernel closed-loop driver is preserved as
//! [`OpenTunerGa::tune_legacy`] solely as the reference side of the
//! `ga_asktell_oracle` differential test — the two are bit-identical.

use cst_ga::{GaConfig, GaState, Genome};
use cst_space::{OptSpace, ParamId, Setting, N_PARAMS};
use cst_telemetry::Telemetry;
use cstuner_core::{
    Evaluator, Observation, Optimizer, Recorder, SearchCtx, TuneError, TuningOutcome,
};

/// The pre-kernel closed-loop OpenTuner GA, kept only as the reference
/// implementation [`GaOptimizer`] is proven bit-identical against.
#[derive(Debug, Clone)]
pub struct OpenTunerGa {
    /// GA options (kept consistent with csTuner per §V-A2).
    pub ga: GaConfig,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl Default for OpenTunerGa {
    fn default() -> Self {
        OpenTunerGa { ga: GaConfig::default(), max_iterations: u32::MAX }
    }
}

impl OpenTunerGa {
    fn decode(space: &OptSpace, genes: &[u32]) -> Setting {
        let mut s = Setting::baseline();
        for p in ParamId::ALL {
            let vals = space.values(p);
            s.set(p, vals[genes[p.index()] as usize]);
        }
        // OpenTuner's configuration manipulators keep parameters
        // structurally consistent (dependent parameters are normalized),
        // so canonicalize; resource-level failures (spills, unlaunchable
        // blocks) are still discovered by running.
        space.canonicalize(&mut s);
        s
    }

    /// The pre-kernel closed-loop driver, kept verbatim as the reference
    /// implementation for the `ga_asktell_oracle` differential test.
    /// Production tuning drives [`GaOptimizer`] through
    /// [`cstuner_core::drive`].
    pub fn tune_legacy(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
    ) -> Result<TuningOutcome, TuneError> {
        self.tune_legacy_with_telemetry(eval, seed, &Telemetry::noop())
    }

    /// [`OpenTunerGa::tune_legacy`] with a telemetry handle.
    pub fn tune_legacy_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError> {
        let cards: Vec<u32> =
            ParamId::ALL.iter().map(|&p| eval.space().values(p).len() as u32).collect();
        assert_eq!(cards.len(), N_PARAMS);
        let pop = self.ga.n_islands * self.ga.pop_per_island;
        let mut rec = Recorder::new(pop, self.max_iterations).with_telemetry(tel);
        let mut state = GaState::new(Genome::new(cards), self.ga, seed);
        state.set_telemetry(tel);
        // OpenTuner starts from the user's default configuration and its
        // manipulators only produce well-formed configurations; seed the
        // population with compilable settings accordingly.
        let encode = |eval: &dyn Evaluator, s: &Setting| -> Vec<u32> {
            ParamId::ALL
                .iter()
                .map(|&p| eval.space().value_index(p, s.get(p)).expect("valid value") as u32)
                .collect()
        };
        let mut seeds = vec![encode(eval, &Setting::baseline())];
        for _ in 1..pop {
            let s = eval.random_valid();
            seeds.push(encode(eval, &s));
        }
        state.seed_with(&seeds);
        while !rec.done(eval) {
            // Measurements respect the budget *inside* the generation, or
            // the overshoot can grow to a population of evaluations.
            state.step(&mut |g: &[u32]| {
                if rec.done(eval) {
                    return f64::NEG_INFINITY;
                }
                // OpenTuner explores the raw space: invalid settings are
                // discovered the hard way (failed compiles, spilled or
                // unlaunchable kernels), each costing a charged evaluation.
                let s = Self::decode(eval.space(), g);
                -rec.measure(eval, s)
            });
        }
        rec.finish("OpenTuner", eval)
    }
}

/// Where the split-phase GA ledger stands inside one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GaPhase {
    /// Next fitness assignment completes the pre-breed evaluation.
    PreBreed,
    /// Next fitness assignment completes the post-breed evaluation.
    PostBreed,
}

/// The island GA as an ask/tell [`Optimizer`]: one legacy
/// `GaState::step` call unrolls to `ask(pre-breed pending) → tell →
/// breed → ask(children) → tell → finish_generation`, with fitness
/// `-time_ms` and skipped settings mapped to `NEG_INFINITY` exactly as
/// the closed-loop driver did. Bit-identical to
/// [`OpenTunerGa::tune_legacy`], which the `ga_asktell_oracle` test
/// pins.
#[derive(Debug)]
pub struct GaOptimizer {
    ga: GaConfig,
    state: Option<GaState>,
    phase: GaPhase,
    /// Settings asked and not yet fully told in the current phase.
    pending: usize,
    /// Fitnesses accumulated across (possibly chunked) tells.
    acc: Vec<f64>,
    /// Warm-start seeds folded into the initial population.
    warm: Vec<Setting>,
}

impl GaOptimizer {
    /// New adapter with the given GA options (state is built in `init`).
    pub fn new(ga: GaConfig) -> Self {
        GaOptimizer {
            ga,
            state: None,
            phase: GaPhase::PreBreed,
            pending: 0,
            acc: Vec::new(),
            warm: Vec::new(),
        }
    }

    /// Balance the ledger for the just-completed phase and advance the
    /// generation machinery.
    fn advance(&mut self, fits: &[f64]) {
        let state = self.state.as_mut().expect("init before advance");
        state.assign_pending(fits);
        match self.phase {
            GaPhase::PreBreed => {
                state.breed_generation();
                self.phase = GaPhase::PostBreed;
            }
            GaPhase::PostBreed => {
                state.finish_generation();
                self.phase = GaPhase::PreBreed;
            }
        }
    }
}

impl Default for GaOptimizer {
    /// csTuner's GA options (§V-A2).
    fn default() -> Self {
        GaOptimizer::new(GaConfig::default())
    }
}

impl Optimizer for GaOptimizer {
    fn name(&self) -> &'static str {
        "OpenTuner"
    }

    fn warm_start(&mut self, seeds: &[Setting]) -> usize {
        self.warm = seeds.to_vec();
        self.warm.len()
    }

    fn init(&mut self, ctx: &mut SearchCtx<'_>, seed: u64, tel: &Telemetry) {
        let cards: Vec<u32> =
            ParamId::ALL.iter().map(|&p| ctx.space().values(p).len() as u32).collect();
        assert_eq!(cards.len(), N_PARAMS);
        let pop = self.ga.n_islands * self.ga.pop_per_island;
        let mut state = GaState::new(Genome::new(cards), self.ga, seed);
        state.set_telemetry(tel);
        // Same seeding as the legacy driver: the baseline setting plus
        // pop−1 valid draws from the evaluator's stream, in that order.
        let encode = |ctx: &SearchCtx<'_>, s: &Setting| -> Vec<u32> {
            ParamId::ALL
                .iter()
                .map(|&p| ctx.space().value_index(p, s.get(p)).expect("valid value") as u32)
                .collect()
        };
        let mut seeds = vec![encode(ctx, &Setting::baseline())];
        // Warm-start seeds join right after the baseline (capped at
        // pop−1, skipping any not encodable on this space's value
        // lists); the rest of the population stays random draws, so a
        // cold run consumes the evaluator's stream exactly as before.
        let warm = std::mem::take(&mut self.warm);
        for mut s in warm {
            if seeds.len() >= pop {
                break;
            }
            ctx.space().canonicalize(&mut s);
            let encodable =
                ParamId::ALL.iter().all(|&p| ctx.space().value_index(p, s.get(p)).is_some());
            if encodable {
                seeds.push(encode(ctx, &s));
            }
        }
        while seeds.len() < pop {
            let s = ctx.random_valid();
            seeds.push(encode(ctx, &s));
        }
        state.seed_with(&seeds);
        self.state = Some(state);
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        loop {
            let genes = self.state.as_ref().expect("init before ask").pending_genes();
            if !genes.is_empty() {
                self.pending = genes.len();
                self.acc.clear();
                return genes.iter().map(|g| OpenTunerGa::decode(ctx.space(), g)).collect();
            }
            // Nothing pending in this phase: the empty assignment still
            // refreshes best-so-far (first-encounter tie rule), exactly
            // like the legacy eval_pending on an empty batch.
            self.advance(&[]);
        }
    }

    fn tell(&mut self, obs: &[Observation]) {
        for o in obs {
            self.acc.push(match o.time_ms {
                Some(t) => -t,
                None => f64::NEG_INFINITY,
            });
        }
        if self.pending > 0 && self.acc.len() >= self.pending {
            assert_eq!(self.acc.len(), self.pending, "told more settings than asked");
            let fits = std::mem::take(&mut self.acc);
            self.pending = 0;
            self.advance(&fits);
        }
    }

    fn mid_generation(&self) -> bool {
        // After the pre-breed tell the generation's ledger is only half
        // balanced: the kernel must keep feeding (possibly all-skip)
        // batches until finish_generation runs, as the legacy driver's
        // between-generations-only budget check did.
        self.phase == GaPhase::PostBreed || self.pending > 0
    }

    fn asks_valid_only(&self) -> bool {
        // Raw genome decodes are canonical but may still be resource-
        // invalid; OpenTuner discovers that by (charged) evaluation.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::{KernelConfig, KernelTuner, SimEvaluator, Tuner};

    fn opentuner(max_iterations: u32) -> KernelTuner {
        let cfg = KernelConfig { max_iterations, ..KernelConfig::DEFAULT };
        KernelTuner::new(|| Box::new(GaOptimizer::default()), cfg)
    }

    #[test]
    fn opentuner_improves_over_iterations() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 5);
        let out = opentuner(12).tune(&mut e, 5).unwrap();
        assert!(out.best_time_ms.is_finite());
        let first = out.curve.first().unwrap().best_ms;
        let last = out.curve.last().unwrap().best_ms;
        assert!(last <= first);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("helmholtz").unwrap(), GpuArch::a100(), seed);
            opentuner(6).tune(&mut e, seed).unwrap().best_time_ms
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn decode_covers_full_value_lists() {
        // Every gene index must map to a legal value of its parameter.
        let e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 1);
        for p in ParamId::ALL {
            let vals = e.space().values(p);
            let mut genes = vec![0u32; N_PARAMS];
            genes[p.index()] = (vals.len() - 1) as u32;
            let s = OpenTunerGa::decode(e.space(), &genes);
            assert!(e.space().values(p).contains(&s.get(p)) || s.get(p) == 1, "{p}");
        }
    }

    #[test]
    fn seeded_population_includes_baseline_quality() {
        // The first curve point must already be competitive: the seeded
        // valid settings dominate random raw draws.
        let spec = suite::spec_by_name("cheby").unwrap();
        let mut e = SimEvaluator::new(spec.clone(), GpuArch::a100(), 3);
        let out = opentuner(1).tune(&mut e, 3).unwrap();
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(
            out.curve[0].best_ms < baseline * 3.0,
            "first iteration {} vs baseline {}",
            out.curve[0].best_ms,
            baseline
        );
    }

    #[test]
    fn kernel_path_matches_legacy_bitwise() {
        // The full differential oracle lives in cst-testkit; this is the
        // crate-local smoke version of the same claim.
        for seed in [2u64, 11] {
            let spec = suite::spec_by_name("j3d7pt").unwrap();
            let mut e1 = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), seed, 40.0);
            let mut e2 = SimEvaluator::with_budget(spec, GpuArch::a100(), seed, 40.0);
            let a = OpenTunerGa::default().tune_legacy(&mut e1, seed).unwrap();
            let b = opentuner(u32::MAX).tune(&mut e2, seed).unwrap();
            assert_eq!(a.best_time_ms.to_bits(), b.best_time_ms.to_bits());
            assert_eq!(a.best_setting, b.best_setting);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.search_s.to_bits(), b.search_s.to_bits());
            assert_eq!(a.curve.len(), b.curve.len());
        }
    }
}
