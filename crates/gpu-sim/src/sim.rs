//! The simulator facade: one stencil on one architecture.

use crate::arch::GpuArch;
use crate::footprint::Footprint;
use crate::memo::{EvalRecord, SimMemo};
use crate::metrics::{synthesize, MetricsReport};
use crate::precomp::ModelPrecomp;
use cst_space::Setting;
use cst_stencil::StencilSpec;
use rand::Rng;
use std::sync::Arc;

/// The GPU performance model for one (stencil, architecture) pair: the
/// stand-in for compiling, launching and profiling kernels on the paper's
/// A100/V100 testbeds. Deterministic; [`noisy_measurement`] adds the
/// timer jitter of a measured run.
///
/// ```
/// use cst_gpu_sim::{GpuArch, GpuSim};
/// use cst_space::Setting;
///
/// let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
/// let sim = GpuSim::new(spec, GpuArch::a100());
/// let t = sim.kernel_time_ms(&Setting::baseline());
/// assert!(t.is_finite() && t > 0.0);
/// let report = sim.profile(&Setting::baseline());
/// assert_eq!(report.time_ms, t);
/// ```
#[derive(Debug, Clone)]
pub struct GpuSim {
    /// Precomputed model tables for this (stencil, arch) pair; also owns
    /// the canonical copies of the inputs. Built once, shared by clones.
    precomp: Arc<ModelPrecomp>,
    /// The process-wide record cache of this (stencil, arch) once
    /// [`GpuSim::enable_shared_memo`] opts in; `None` computes every
    /// record afresh. Clones share it.
    memo: Option<Arc<SimMemo>>,
}

impl GpuSim {
    /// Build a simulator with no memo.
    pub fn new(spec: StencilSpec, arch: GpuArch) -> Self {
        let precomp = ModelPrecomp::new(spec, arch);
        GpuSim { precomp: Arc::new(precomp), memo: None }
    }

    /// This simulator without a memo, so every call recomputes: the
    /// uncached twin of a shared-memo simulator, which the oracles
    /// compare it with.
    pub fn without_memo(mut self) -> Self {
        self.memo = None;
        self
    }

    /// Cache records in the process-wide memo that every opted-in
    /// simulator on the same (stencil, arch) shares — see
    /// [`crate::registry`]. Session runners opt in, so the sessions of
    /// one process reuse each other's records; the model is
    /// deterministic, so sharing changes speed, never results.
    pub fn enable_shared_memo(&mut self) {
        self.memo = Some(crate::registry::shared_memo(self.spec(), self.arch()));
    }

    /// Everything the tuner needs about a setting it measures, profiles
    /// or times — footprint, cost breakdown, virtual-clock charge — as
    /// one record, cached when a shared memo is on. `kernel_time_ms`,
    /// `eval_cost_s` and `profile` are views onto it; the validity check
    /// reads [`GpuSim::footprint`] instead.
    pub fn evaluate_full(&self, s: &Setting) -> Arc<EvalRecord> {
        match &self.memo {
            Some(memo) => memo.get_or_insert_with(s, || self.precomp.record(s)),
            None => Arc::new(self.precomp.record(s)),
        }
    }

    /// The stencil under test.
    pub fn spec(&self) -> &StencilSpec {
        self.precomp.spec()
    }

    /// The architecture preset.
    pub fn arch(&self) -> &GpuArch {
        self.precomp.arch()
    }

    /// The precomputed model tables.
    pub fn precomp(&self) -> &ModelPrecomp {
        &self.precomp
    }

    /// Resource footprint of a setting, from the footprint stage alone:
    /// it builds no cost record and touches no memo.
    pub fn footprint(&self, s: &Setting) -> Footprint {
        self.precomp.footprint(s)
    }

    /// Modeled kernel time in milliseconds (deterministic; infinite when
    /// the setting cannot launch).
    pub fn kernel_time_ms(&self, s: &Setting) -> f64 {
        self.evaluate_full(s).time_ms()
    }

    /// Profile a setting: kernel time plus the Nsight-style metric vector.
    pub fn profile(&self, s: &Setting) -> MetricsReport {
        let r = self.evaluate_full(s);
        synthesize(self.spec(), self.arch(), &r.footprint, &r.cost)
    }

    /// Wall-clock seconds charged to the virtual tuning clock for
    /// evaluating this setting (code generation + compile + timed runs).
    pub fn eval_cost_s(&self, s: &Setting) -> f64 {
        self.evaluate_full(s).cost_s
    }
}

/// One "measured" run of a modeled kernel time: multiplicative Gaussian
/// noise (~1σ = 1.5%), as timers on real hardware jitter. Evaluators
/// apply it to a record's deterministic time, drawing in canonical commit
/// order. Non-finite times consume no randomness and pass through
/// unchanged.
pub fn noisy_measurement(t: f64, rng: &mut impl Rng) -> f64 {
    if !t.is_finite() {
        return t;
    }
    // Box–Muller from two uniforms; cheap and dependency-free.
    let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    t * (1.0 + 0.015 * z).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valid::ValidSpace;
    use cst_space::{OptSpace, ParamId};
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noisy_measurement_jitters_around_model() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        let t = sim.kernel_time_ms(&Setting::baseline());
        let mut rng = StdRng::seed_from_u64(1);
        let runs: Vec<f64> = (0..200).map(|_| noisy_measurement(t, &mut rng)).collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!((mean / t - 1.0).abs() < 0.01, "mean {mean} vs model {t}");
        assert!(runs.iter().any(|&r| r != t), "noise must not be degenerate");
    }

    #[test]
    fn shared_memo_is_opt_in_and_serves_the_uncached_records() {
        // (j3d27pt, a100) is this test's private registry key: no other
        // test in this binary opts that pair in.
        let spec = suite::spec_by_name("j3d27pt").unwrap();
        let plain = GpuSim::new(spec.clone(), GpuArch::a100());
        assert!(plain.memo.is_none(), "a fresh simulator holds no memo");
        let (mut a, mut b) = (plain.clone(), plain.clone());
        a.enable_shared_memo();
        b.enable_shared_memo();
        let memo = Arc::clone(a.memo.as_ref().unwrap());
        assert!(Arc::ptr_eq(&memo, b.memo.as_ref().unwrap()), "opted-in sims share one cache");
        let twin = a.clone().without_memo();
        assert!(twin.memo.is_none());

        // Only opted-in sims fill the cache; their clones read it.
        let s = Setting::baseline();
        let _ = (plain.kernel_time_ms(&s), twin.kernel_time_ms(&s), plain.footprint(&s));
        assert_eq!(memo.len(), 0);
        let _ = b.kernel_time_ms(&s);
        let _ = a.clone().eval_cost_s(&s);
        assert_eq!(memo.len(), 1, "one record serves every opted-in clone");

        let vs = ValidSpace::new(OptSpace::for_stencil(&spec), a.clone());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = vs.random_valid(&mut rng);
            // Twice, so the second pass reads the cache.
            for _ in 0..2 {
                assert_eq!(*a.evaluate_full(&s), *twin.evaluate_full(&s));
                assert_eq!(a.profile(&s), twin.profile(&s));
            }
        }
        assert!(memo.len() > 1);
    }

    #[test]
    fn profile_time_matches_cost() {
        let sim = GpuSim::new(suite::spec_by_name("cheby").unwrap(), GpuArch::v100());
        let s = Setting::baseline().with(ParamId::UseShared, 2);
        assert_eq!(sim.profile(&s).time_ms, sim.kernel_time_ms(&s));
    }

    #[test]
    fn eval_cost_includes_compile_floor() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        assert!(sim.eval_cost_s(&Setting::baseline()) > sim.arch().compile_base_s);
    }

    #[test]
    fn shared_memory_is_more_valuable_on_v100() {
        // §V-D's portability argument in one assertion: V100's small L2
        // makes explicit staging pay more than on A100, so the relative
        // benefit of the classic 2.5-D shared configuration is larger.
        let spec = suite::spec_by_name("j3d27pt").unwrap();
        let plain = Setting::baseline()
            .with(ParamId::TBx, 32)
            .with(ParamId::TBy, 8)
            .with(ParamId::TBz, 1)
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::SB, 512);
        let shared = plain.with(ParamId::UseShared, 2);
        let gain = |arch: GpuArch| {
            let sim = GpuSim::new(spec.clone(), arch);
            sim.kernel_time_ms(&plain) / sim.kernel_time_ms(&shared)
        };
        let gain_a = gain(GpuArch::a100());
        let gain_v = gain(GpuArch::v100());
        assert!(gain_v > gain_a, "V100 gain {gain_v} !> A100 gain {gain_a}");
    }

    #[test]
    fn landscape_median_is_single_digit_slowdown() {
        // Fig. 2 calibration guard: the median valid setting should sit a
        // small factor from the best (the paper's distribution has most
        // mass between 1.25× and 5×), not orders of magnitude away.
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let vs = ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec, GpuArch::a100()));
        let mut rng = StdRng::seed_from_u64(4);
        let mut times: Vec<f64> =
            (0..800).map(|_| vs.sim().kernel_time_ms(&vs.random_valid(&mut rng))).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let best = times[0];
        let median = times[times.len() / 2];
        assert!(median / best < 6.0, "median slowdown {} too harsh", median / best);
        assert!(median / best > 1.2, "landscape too flat: {}", median / best);
    }
}
