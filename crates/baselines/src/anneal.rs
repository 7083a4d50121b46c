//! Simulated annealing over the canonical setting space.
//!
//! A single-chain Metropolis walk: perturb one parameter of the
//! incumbent by one step on its value list, accept improvements always
//! and regressions with probability `exp(-Δ/T)` under a geometric
//! cooling schedule. The first tuner written *for* the ask/tell kernel
//! rather than ported to it — all annealer randomness lives on its own
//! seeded rng, candidate validity is checked before asking, and the
//! kernel's stall backstop guards the walk if the neighborhood ever
//! closes over already-measured settings.

use cst_space::{ParamId, Setting, SettingSet, N_PARAMS};
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated annealing as an ask/tell [`Optimizer`]: batch-of-one asks,
/// Metropolis accept/reject in `tell`.
#[derive(Debug)]
pub struct SaOptimizer {
    /// Initial temperature as a fraction of the first measured time.
    t0_frac: f64,
    /// Geometric cooling factor per accepted-or-rejected step.
    alpha: f64,
    rng: StdRng,
    /// Incumbent setting and its measured time (None before the first
    /// observation).
    cur: Option<(Setting, f64)>,
    /// Current temperature (set from the first measurement).
    temp: f64,
    /// Settings already proposed this run.
    seen: SettingSet,
    /// Warm-start seeds walked (in rank order) before the baseline.
    warm: std::collections::VecDeque<Setting>,
}

/// Neighbor-proposal attempts before falling back to a random restart.
const NEIGHBOR_ATTEMPTS: usize = 8;

impl SaOptimizer {
    /// New annealer; the rng is seeded in `init`.
    pub fn new(t0_frac: f64, alpha: f64) -> Self {
        SaOptimizer {
            t0_frac,
            alpha,
            rng: StdRng::seed_from_u64(0),
            cur: None,
            temp: 0.0,
            seen: SettingSet::default(),
            warm: std::collections::VecDeque::new(),
        }
    }

    /// One-parameter, one-step perturbation of the incumbent; falls back
    /// to a fresh valid draw when the local neighborhood is exhausted.
    fn propose(&mut self, ctx: &mut SearchCtx<'_>, cur: Setting) -> Setting {
        for _ in 0..NEIGHBOR_ATTEMPTS {
            let p = ParamId::ALL[self.rng.gen_range(0..N_PARAMS)];
            let vals = ctx.space().values(p);
            if vals.len() < 2 {
                continue;
            }
            // canonicalize may have parked an inactive parameter on a
            // value outside its list — re-enter the lattice at random.
            let ni = match ctx.space().value_index(p, cur.get(p)) {
                Some(0) => 1,
                Some(i) if i == vals.len() - 1 => i - 1,
                Some(i) => {
                    if self.rng.gen::<bool>() {
                        i + 1
                    } else {
                        i - 1
                    }
                }
                None => self.rng.gen_range(0..vals.len()),
            };
            let mut s = cur;
            s.set(p, vals[ni]);
            ctx.space().canonicalize(&mut s);
            if ctx.is_valid(&s) && !self.seen.contains(&s) {
                return s;
            }
        }
        // Random restart: escape a closed neighborhood (and keep the
        // kernel's fresh-evaluation clock moving).
        for _ in 0..NEIGHBOR_ATTEMPTS {
            let s = ctx.random_valid();
            if !self.seen.contains(&s) {
                return s;
            }
        }
        ctx.random_valid()
    }
}

impl Default for SaOptimizer {
    /// Start at 30% of the first measured time, cool by 3% per step.
    fn default() -> Self {
        SaOptimizer::new(0.3, 0.97)
    }
}

impl Optimizer for SaOptimizer {
    fn name(&self) -> &'static str {
        "Anneal"
    }

    fn init(&mut self, _ctx: &mut SearchCtx<'_>, seed: u64, _tel: &Telemetry) {
        // `warm` survives init: the kernel offers seeds first, then inits.
        self.rng = StdRng::seed_from_u64(seed ^ 0x0a11_ea1e);
        self.cur = None;
        self.temp = 0.0;
        self.seen.clear();
    }

    fn warm_start(&mut self, seeds: &[Setting]) -> usize {
        self.warm = seeds.iter().copied().collect();
        self.warm.len()
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        // Drain warm-start seeds first (rank order): the walk then starts
        // its Metropolis chain from the best measurement among them.
        while let Some(mut s) = self.warm.pop_front() {
            ctx.space().canonicalize(&mut s);
            if ctx.is_valid(&s) && !self.seen.contains(&s) {
                self.seen.insert(s);
                return vec![s];
            }
        }
        let s = match self.cur {
            None => {
                // Start from the canonical baseline when it is valid —
                // the tuning story every practitioner begins with — else
                // from a seeded valid draw.
                let mut b = Setting::baseline();
                ctx.space().canonicalize(&mut b);
                if ctx.is_valid(&b) {
                    b
                } else {
                    ctx.random_valid()
                }
            }
            Some((cur, _)) => self.propose(ctx, cur),
        };
        self.seen.insert(s);
        vec![s]
    }

    fn tell(&mut self, obs: &[Observation]) {
        for o in obs {
            let t = match o.time_ms {
                Some(t) => t,
                None => continue, // skipped past expiry: the run is ending
            };
            match self.cur {
                None => {
                    self.cur = Some((o.setting, t));
                    self.temp = (t * self.t0_frac).max(f64::MIN_POSITIVE);
                }
                Some((_, cur_ms)) => {
                    // Metropolis rule; non-finite measurements (faulted
                    // evaluations) are always rejected. The uniform draw
                    // happens on every comparison so the rng stream does
                    // not depend on the outcome.
                    let u = self.rng.gen::<f64>();
                    let accept =
                        t < cur_ms || (t.is_finite() && u < (-(t - cur_ms) / self.temp).exp());
                    if accept {
                        self.cur = Some((o.setting, t));
                    }
                    self.temp = (self.temp * self.alpha).max(f64::MIN_POSITIVE);
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
    use cstuner_core::{KernelConfig, KernelTuner, SimEvaluator, Tuner};

    fn anneal(pop: usize, max_iterations: u32) -> KernelTuner {
        let cfg = KernelConfig { pop, max_iterations, stall_limit: 10_000 };
        KernelTuner::new(|| Box::new(SaOptimizer::default()), cfg)
    }

    #[test]
    fn anneal_finds_finite_best_and_improves() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 7);
        let out = anneal(8, 10).tune(&mut e, 7).unwrap();
        assert_eq!(out.tuner, "Anneal");
        assert!(out.best_time_ms.is_finite());
        let first = out.curve.first().unwrap().best_ms;
        let last = out.curve.last().unwrap().best_ms;
        assert!(last <= first);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::v100(), 5);
            anneal(8, 6).tune(&mut e, 5).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_time_ms.to_bits(), b.best_time_ms.to_bits());
        assert_eq!(a.best_setting, b.best_setting);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn iso_time_budget_stops_search() {
        let mut e = SimEvaluator::with_budget(
            suite::spec_by_name("j3d7pt").unwrap(),
            GpuArch::a100(),
            4,
            15.0,
        );
        let out = anneal(32, u32::MAX).tune(&mut e, 4).unwrap();
        assert!(out.search_s >= 15.0);
        assert!(out.search_s < 25.0);
    }
}
