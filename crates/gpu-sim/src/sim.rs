//! The simulator facade: one stencil on one architecture.

use crate::arch::GpuArch;
use crate::cost::CostBreakdown;
use crate::footprint::{Footprint, ModelParams};
use crate::memo::{EvalRecord, MemoStats, SimMemo};
use crate::metrics::{synthesize, MetricsReport};
use crate::precomp::ModelPrecomp;
use cst_space::Setting;
use cst_stencil::StencilSpec;
use rand::Rng;
use std::sync::Arc;

/// The GPU performance model for one (stencil, architecture) pair: the
/// stand-in for compiling, launching and profiling kernels on the paper's
/// A100/V100 testbeds. Deterministic unless measurement noise is requested
/// via [`GpuSim::measure`].
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
    /// Precomputed model tables for this (stencil, arch, params) triple;
    /// also owns the canonical copies of the three inputs. Built once,
    /// shared by clones.
    precomp: Arc<ModelPrecomp>,
    /// Shared per-setting cache of footprint/cost/eval-cost; `None`
    /// disables memoization (benchmarking the uncached path). Clones of a
    /// `GpuSim` share the cache, so the validity check, the measurement
    /// and the clock charge for one candidate all hit the same record.
    memo: Option<Arc<SimMemo>>,
}

/// Memoization defaults on; `CST_NO_MEMO=1` disables it process-wide so
/// benchmarks can A/B the uncached path without code changes.
fn memo_enabled() -> bool {
    std::env::var("CST_NO_MEMO").map(|v| v != "1").unwrap_or(true)
}

impl GpuSim {
    /// Build a simulator with default model constants.
    pub fn new(spec: StencilSpec, arch: GpuArch) -> Self {
        Self::with_params(spec, arch, ModelParams::default())
    }

    /// Build with custom model constants (used by calibration tests and
    /// ablations).
    pub fn with_params(spec: StencilSpec, arch: GpuArch, params: ModelParams) -> Self {
        let memo = memo_enabled().then(|| Arc::new(SimMemo::new()));
        GpuSim { precomp: Arc::new(ModelPrecomp::new(spec, arch, params)), memo }
    }

    /// This simulator with memoization disabled (every call recomputes).
    pub fn without_memo(mut self) -> Self {
        self.memo = None;
        self
    }

    /// Whether a memo backs this simulator (false under `CST_NO_MEMO=1`
    /// or after [`GpuSim::without_memo`]).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }

    /// Number of settings with cached model output.
    pub fn memo_len(&self) -> usize {
        self.memo.as_ref().map_or(0, |m| m.len())
    }

    /// Monitoring counters of the backing memo (all-zero when disabled).
    /// Racy-by-design under concurrent sessions; never journal material.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.as_ref().map_or_else(MemoStats::default, |m| m.stats())
    }

    /// Swap the private memo for the process-wide one shared by every
    /// simulator on the same (stencil, arch) — see [`crate::registry`].
    /// Strictly opt-in (concurrent `cst-serve` sessions use it so they
    /// hit each other's cache) and a no-op when memoization is disabled
    /// (`CST_NO_MEMO=1` / [`GpuSim::without_memo`] semantics win) or when
    /// the model constants are non-default: the registry key does not
    /// cover [`ModelParams`], so only default-params simulators may pool.
    pub fn enable_shared_memo(&mut self) {
        if self.memo.is_some() && *self.params() == ModelParams::default() {
            self.memo = Some(crate::registry::shared_memo(self.spec(), self.arch()));
        }
    }

    fn compute_record(&self, s: &Setting) -> EvalRecord {
        self.precomp.record(s)
    }

    /// Everything the tuner needs about `s` — footprint, cost breakdown,
    /// virtual-clock charge — computed once and cached. This is the single
    /// entry point the evaluation hot path goes through; `footprint`,
    /// `kernel_time_ms`, `eval_cost_s` etc. are views onto the record.
    pub fn evaluate_full(&self, s: &Setting) -> Arc<EvalRecord> {
        match &self.memo {
            Some(memo) => memo.get_or_insert_with(s, || self.compute_record(s)),
            None => Arc::new(self.compute_record(s)),
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

    /// The model constants.
    pub fn params(&self) -> &ModelParams {
        self.precomp.params()
    }

    /// The precomputed model tables.
    pub fn precomp(&self) -> &ModelPrecomp {
        &self.precomp
    }

    /// Resource footprint of a setting, as a cheap view borrowing the
    /// cached record (no `Footprint` clone per call).
    pub fn footprint(&self, s: &Setting) -> FootprintView {
        FootprintView(self.evaluate_full(s))
    }

    /// Full cost breakdown of a setting.
    pub fn cost(&self, s: &Setting) -> CostBreakdown {
        self.evaluate_full(s).cost
    }

    /// Modeled kernel time in milliseconds (deterministic; infinite when
    /// the setting cannot launch).
    pub fn kernel_time_ms(&self, s: &Setting) -> f64 {
        self.evaluate_full(s).time_ms()
    }

    /// One "measured" run: the modeled time with multiplicative Gaussian
    /// measurement noise (~1σ = 1.5%), as timers on real hardware jitter.
    pub fn measure(&self, s: &Setting, rng: &mut impl Rng) -> f64 {
        noisy_measurement(self.kernel_time_ms(s), rng)
    }
}

/// A borrowed view of a cached setting's [`Footprint`]: holds the
/// [`EvalRecord`] `Arc` instead of cloning the 23-field struct out of it
/// on every [`GpuSim::footprint`] call. Dereferences to [`Footprint`], so
/// field reads and `&Footprint` arguments work unchanged.
#[derive(Debug, Clone)]
pub struct FootprintView(Arc<EvalRecord>);

impl FootprintView {
    /// An owned copy, for callers that must outlive the cache entry
    /// independently.
    pub fn to_footprint(&self) -> Footprint {
        self.0.footprint.clone()
    }
}

impl std::ops::Deref for FootprintView {
    type Target = Footprint;
    fn deref(&self) -> &Footprint {
        &self.0.footprint
    }
}

impl PartialEq for FootprintView {
    fn eq(&self, other: &Self) -> bool {
        self.0.footprint == other.0.footprint
    }
}

impl PartialEq<Footprint> for FootprintView {
    fn eq(&self, other: &Footprint) -> bool {
        self.0.footprint == *other
    }
}

/// Apply one draw of measurement noise to a modeled kernel time — the
/// stochastic half of [`GpuSim::measure`], split out so evaluators
/// can reuse a cached [`EvalRecord`]'s deterministic time while drawing
/// noise in canonical commit order. Non-finite times consume no
/// randomness and pass through unchanged.
pub fn noisy_measurement(t: f64, rng: &mut impl Rng) -> f64 {
    if !t.is_finite() {
        return t;
    }
    // Box–Muller from two uniforms; cheap and dependency-free.
    let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    t * (1.0 + 0.015 * z).max(0.5)
}

impl GpuSim {
    /// Profile a setting: kernel time plus the Nsight-style metric vector.
    pub fn profile(&self, s: &Setting) -> MetricsReport {
        let r = self.evaluate_full(s);
        synthesize(self.spec(), self.arch(), &r.footprint, &r.cost)
    }

    /// Whether the setting launches without spilling registers or
    /// overflowing shared memory.
    pub fn resource_ok(&self, s: &Setting) -> bool {
        self.evaluate_full(s).resource_ok()
    }

    /// Wall-clock seconds charged to the virtual tuning clock for
    /// evaluating this setting (code generation + compile + timed runs).
    pub fn eval_cost_s(&self, s: &Setting) -> f64 {
        self.evaluate_full(s).cost_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measure_jitters_around_model() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        let s = Setting::baseline();
        let t = sim.kernel_time_ms(&s);
        let mut rng = StdRng::seed_from_u64(1);
        let runs: Vec<f64> = (0..200).map(|_| sim.measure(&s, &mut rng)).collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!((mean / t - 1.0).abs() < 0.01, "mean {mean} vs model {t}");
        assert!(runs.iter().any(|&r| r != t), "noise must not be degenerate");
    }

    #[test]
    fn memoized_results_match_uncached() {
        let spec = suite::spec_by_name("j3d27pt").unwrap();
        let cached = GpuSim::new(spec.clone(), GpuArch::a100());
        let uncached = GpuSim::new(spec, GpuArch::a100()).without_memo();
        let mut rng = StdRng::seed_from_u64(7);
        let vs = crate::valid::ValidSpace::new(
            cst_space::OptSpace::for_stencil(cached.spec()),
            cached.clone(),
        );
        for _ in 0..50 {
            let s = vs.random_valid(&mut rng);
            // Query twice so the second pass exercises the cache hit.
            for _ in 0..2 {
                assert_eq!(cached.kernel_time_ms(&s), uncached.kernel_time_ms(&s));
                assert_eq!(cached.eval_cost_s(&s), uncached.eval_cost_s(&s));
                assert_eq!(cached.footprint(&s), uncached.footprint(&s));
                assert_eq!(cached.resource_ok(&s), uncached.resource_ok(&s));
            }
        }
        assert!(cached.memo_len() > 0);
        assert_eq!(uncached.memo_len(), 0);
    }

    #[test]
    fn clones_share_the_memo() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        let clone = sim.clone();
        let _ = sim.kernel_time_ms(&Setting::baseline());
        assert_eq!(clone.memo_len(), 1, "clone must see the original's cache");
        // The full hot-path triple for one candidate costs one record.
        let _ = clone.resource_ok(&Setting::baseline());
        let _ = clone.eval_cost_s(&Setting::baseline());
        assert_eq!(sim.memo_len(), 1);
    }

    #[test]
    fn shared_memo_is_opt_in_and_respects_gates() {
        // Distinct (stencil, arch) from other tests so registry state
        // stays private to this assertion.
        let spec = suite::spec_by_name("addsgd6").unwrap();
        let mut a = GpuSim::new(spec.clone(), GpuArch::small());
        let mut b = GpuSim::new(spec.clone(), GpuArch::small());
        let plain = GpuSim::new(spec.clone(), GpuArch::small());
        a.enable_shared_memo();
        b.enable_shared_memo();
        let _ = a.kernel_time_ms(&Setting::baseline());
        assert_eq!(b.memo_len(), 1, "opted-in sims share one cache");
        assert_eq!(plain.memo_len(), 0, "non-opted sims keep a private cache");
        // Custom model params must not pool under a key that ignores them.
        let mut custom = GpuSim::with_params(
            spec.clone(),
            GpuArch::small(),
            crate::footprint::ModelParams { ilp_gain: 0.2, ..Default::default() },
        );
        custom.enable_shared_memo();
        let _ = custom.kernel_time_ms(&Setting::baseline().with(ParamId::UFx, 2));
        assert_eq!(b.memo_len(), 1, "non-default params stay out of the shared memo");
        // `without_memo` wins over sharing.
        let mut off = GpuSim::new(spec, GpuArch::small()).without_memo();
        off.enable_shared_memo();
        assert!(!off.has_memo());
    }

    #[test]
    fn footprint_view_derefs_and_compares() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        let s = Setting::baseline();
        let view = sim.footprint(&s);
        assert!(!view.spilled);
        assert!(view.occupancy > 0.0);
        assert_eq!(view, sim.footprint(&s));
        let owned = view.to_footprint();
        assert_eq!(view, owned);
        // The view borrows the cached record rather than cloning it.
        assert_eq!(sim.memo_len(), 1);
    }

    #[test]
    fn profile_time_matches_cost() {
        let sim = GpuSim::new(suite::spec_by_name("cheby").unwrap(), GpuArch::v100());
        let s = Setting::baseline().with(ParamId::UseShared, 2);
        assert_eq!(sim.profile(&s).time_ms, sim.kernel_time_ms(&s));
    }

    #[test]
    fn resource_ok_consistent_with_footprint() {
        let sim = GpuSim::new(suite::spec_by_name("rhs4center").unwrap(), GpuArch::a100());
        assert!(sim.resource_ok(&Setting::baseline()));
        assert!(!sim.resource_ok(&Setting::baseline().with(ParamId::BMy, 256)));
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
        use crate::valid::ValidSpace;
        use cst_space::OptSpace;
        use rand::rngs::StdRng;
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
