//! The evaluation boundary between tuners and "hardware".
//!
//! Every tuner (csTuner and the baselines) sees the system under test only
//! through [`Evaluator`]: validity checks, timed evaluations that charge a
//! virtual wall clock, and offline profiling for dataset collection. The
//! production implementation is [`SimEvaluator`] over the GPU model; tests
//! substitute synthetic landscapes.

use cst_gpu_sim::{
    EvalRecord, FaultKind, FaultProfile, FaultStats, GpuArch, GpuSim, MetricsReport, ValidSpace,
    VirtualClock,
};
use cst_space::{OptSpace, Setting};
use cst_stencil::StencilSpec;
use cst_telemetry::{event, Counter, Hist, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A shared cancellation flag for one tuning session.
///
/// Cloning yields another handle onto the same flag. An evaluator with a
/// token attached reports [`Evaluator::expired`] once the token is
/// cancelled, so every search driver winds down at its next budget check
/// — exactly the code path an exhausted iso-time budget takes — and the
/// session still reports its best-so-far outcome. This is the hook the
/// serving layer uses to cancel an in-flight session without killing its
/// worker thread.
///
/// Cancellation is monotone (there is no "uncancel") and checking is a
/// single relaxed atomic load, so attaching a token costs nothing
/// measurable on the evaluation hot path.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Access to the stencil, the space, validity, and (costed) measurement.
pub trait Evaluator {
    /// The stencil under tuning.
    fn spec(&self) -> &StencilSpec;

    /// The explicit parameter space.
    fn space(&self) -> &OptSpace;

    /// Full validity (explicit constraints + resources).
    fn is_valid(&self, s: &Setting) -> bool;

    /// Measure a setting's kernel time in milliseconds. The first
    /// evaluation of a setting charges compile + run cost to the virtual
    /// clock and is counted; repeats return the memoized measurement for
    /// free (tuners cache results rather than recompiling).
    fn evaluate(&mut self, s: &Setting) -> f64;

    /// Hint that the settings are about to be evaluated. An
    /// implementation MUST NOT change any observable state here. No
    /// tuner calls it: every session evaluates serially, in ask order.
    /// Default: no-op.
    fn prefetch(&mut self, _batch: &[Setting]) {}

    /// Evaluate a batch of settings in input order, exactly as an
    /// [`Evaluator::evaluate`] loop does. No tuner calls it.
    fn evaluate_batch(&mut self, batch: &[Setting]) -> Vec<f64> {
        batch.iter().map(|s| self.evaluate(s)).collect()
    }

    /// Profile a setting offline for the performance dataset: runtime plus
    /// GPU metrics. Not charged to the tuning clock — the paper collects
    /// the dataset once, offline, and excludes it from the online
    /// auto-tuning overhead (§V-F).
    fn profile_offline(&mut self, s: &Setting) -> MetricsReport;

    /// The virtual tuning clock.
    fn clock(&self) -> &VirtualClock;

    /// Whether the time budget (if any) is exhausted.
    fn expired(&self) -> bool {
        self.clock().expired()
    }

    /// Unique settings evaluated (memoization misses).
    fn unique_evaluations(&self) -> u64;

    /// Cumulative per-stage failure/retry counters of this session's
    /// measurement path. Implementations without fault handling report
    /// all-zero (the default).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Draw one fully valid setting.
    fn random_valid(&mut self) -> Setting;
}

/// Simulator-backed evaluator: the stand-in for compiling and running on
/// the paper's GPU testbeds.
///
/// The measurement path is fault-tolerant: with an active
/// [`FaultProfile`] (explicit via [`SimEvaluator::with_fault_profile`],
/// or ambient via `CST_FAULT_SEED`, see [`FaultProfile::from_env`]),
/// failed attempts are retried a bounded number of times with
/// deterministic exponential backoff charged to the virtual clock, and
/// settings that fail every attempt are quarantined: their measurement
/// commits as `f64::INFINITY` (a penalty every search driver already
/// treats as "worst possible"), never to be re-attempted. All fault
/// decisions are pure functions of (profile seed, setting, attempt), so
/// runs stay bit-deterministic, and an inactive profile takes the exact
/// fault-free code path.
#[derive(Debug, Clone)]
pub struct SimEvaluator {
    valid: ValidSpace,
    clock: VirtualClock,
    rng: StdRng,
    memo: cst_space::SettingMap<f64>,
    unique: u64,
    faults: FaultProfile,
    fault_stats: FaultStats,
    quarantine: cst_space::SettingSet,
    tel: Telemetry,
    cancel: Option<CancelToken>,
}

impl SimEvaluator {
    /// Build with an unbounded clock. Fault injection follows the
    /// environment (`CST_FAULT_SEED` et al.); off when unset.
    pub fn new(spec: StencilSpec, arch: GpuArch, seed: u64) -> Self {
        let space = OptSpace::for_stencil(&spec);
        let sim = GpuSim::new(spec, arch);
        SimEvaluator {
            valid: ValidSpace::new(space, sim),
            clock: VirtualClock::unbounded(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_e7a1),
            memo: cst_space::SettingMap::default(),
            unique: 0,
            faults: FaultProfile::from_env().unwrap_or_else(FaultProfile::off),
            fault_stats: FaultStats::default(),
            quarantine: cst_space::SettingSet::default(),
            tel: Telemetry::noop(),
            cancel: None,
        }
    }

    /// Attach a cancellation token: once cancelled, [`Evaluator::expired`]
    /// reports true and the session winds down exactly as if its iso-time
    /// budget had run out. The default is no token (never cancelled).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Attach a telemetry handle: the measurement path then maintains the
    /// evaluation/memo/fault counters and emits `quarantine` records.
    /// The default is the noop handle.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    /// Build with an iso-time budget in seconds.
    pub fn with_budget(spec: StencilSpec, arch: GpuArch, seed: u64, budget_s: f64) -> Self {
        let mut e = Self::new(spec, arch, seed);
        e.clock = VirtualClock::with_budget(budget_s);
        e
    }

    /// This evaluator with an explicit fault profile, overriding the
    /// environment (including overriding it to [`FaultProfile::off`]).
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Self {
        self.faults = profile;
        self
    }

    /// The active fault profile.
    pub fn fault_profile(&self) -> &FaultProfile {
        &self.faults
    }

    /// Whether a setting has been quarantined after exhausting retries.
    pub fn is_quarantined(&self, s: &Setting) -> bool {
        self.quarantine.contains(s)
    }

    /// Number of settings currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantine.len()
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &GpuSim {
        self.valid.sim()
    }

    /// The composed valid space.
    pub fn valid_space(&self) -> &ValidSpace {
        &self.valid
    }

    /// Reset the clock, evaluation memo and fault state (fresh tuning run
    /// on the same stencil/arch). The fault *profile* persists — it is
    /// configuration, not session state.
    pub fn reset(&mut self, seed: u64, budget_s: Option<f64>) {
        self.clock = match budget_s {
            Some(b) => VirtualClock::with_budget(b),
            None => VirtualClock::unbounded(),
        };
        self.rng = StdRng::seed_from_u64(seed ^ 0x5eed_e7a1);
        self.memo.clear();
        self.unique = 0;
        self.fault_stats = FaultStats::default();
        self.quarantine.clear();
    }

    /// Bounded retry loop for one setting under an active fault profile.
    /// Each failed attempt charges a stage-dependent fraction of the
    /// setting's compile+run cost plus exponential backoff to the virtual
    /// clock; a run of `1 + max_retries` consecutive failures quarantines
    /// the setting and commits `f64::INFINITY` as its measurement. The
    /// measurement-noise rng is only drawn on the successful attempt, so
    /// the noise stream position depends solely on the sequence of
    /// committed successes — never on how many faults preceded them.
    fn evaluate_faulty(&mut self, s: &Setting, record: &EvalRecord) -> f64 {
        let mut attempt: u32 = 0;
        loop {
            match self.faults.decide(s, attempt) {
                None => {
                    let mut m = cst_gpu_sim::noisy_measurement(record.time_ms(), &mut self.rng);
                    let outlier = self.faults.outlier_factor(s, attempt);
                    if outlier > 1.0 {
                        self.fault_stats.outliers += 1;
                        self.tel.add(Counter::FaultOutliers, 1);
                        m *= outlier;
                    }
                    self.clock.advance(record.cost_s);
                    return m;
                }
                Some(kind) => {
                    self.fault_stats.record(kind);
                    self.tel.add(
                        match kind {
                            FaultKind::CompileError => Counter::FaultCompile,
                            FaultKind::LaunchFailure => Counter::FaultLaunch,
                            FaultKind::Timeout => Counter::FaultTimeout,
                        },
                        1,
                    );
                    // A failed attempt still costs real time, by the stage
                    // it died at: a compile error skips the run entirely, a
                    // launch failure pays compile plus setup, a timeout
                    // burns the watchdog window on top of the compile.
                    let charge = match kind {
                        FaultKind::CompileError => 0.5 * record.cost_s,
                        FaultKind::LaunchFailure => 0.6 * record.cost_s,
                        FaultKind::Timeout => 2.0 * record.cost_s,
                    };
                    self.clock.advance(charge);
                    if attempt >= self.faults.max_retries {
                        self.fault_stats.quarantined += 1;
                        self.quarantine.insert(*s);
                        self.tel.add(Counter::FaultQuarantined, 1);
                        if self.tel.enabled() {
                            let label = format!("{s:?}");
                            event!(
                                self.tel,
                                "quarantine",
                                setting = &label,
                                v_s = self.clock.now_s()
                            );
                        }
                        return f64::INFINITY;
                    }
                    self.fault_stats.retries += 1;
                    self.tel.add(Counter::FaultRetries, 1);
                    self.clock.advance(self.faults.backoff_s(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Opt this session's simulator into the process-wide shared memo so
    /// concurrent sessions on the same (stencil, arch) hit each other's
    /// cache — see [`cst_gpu_sim::GpuSim::enable_shared_memo`] for the
    /// gating rules (`CST_NO_MEMO`/`without_memo` and non-default model
    /// params keep their semantics). The serving layer calls this per
    /// session; results are unaffected, only evaluation speed.
    pub fn enable_shared_memo(&mut self) {
        self.valid.enable_shared_memo();
    }
}

impl Evaluator for SimEvaluator {
    fn spec(&self) -> &StencilSpec {
        self.valid.sim().spec()
    }

    fn space(&self) -> &OptSpace {
        self.valid.space()
    }

    fn is_valid(&self, s: &Setting) -> bool {
        self.valid.is_valid(s)
    }

    fn evaluate(&mut self, s: &Setting) -> f64 {
        self.tel.add(Counter::EvalsAttempted, 1);
        if let Some(&t) = self.memo.get(s) {
            self.tel.add(Counter::MemoHits, 1);
            return t;
        }
        self.tel.add(Counter::MemoMisses, 1);
        // One model evaluation yields both the measured time and the clock
        // charge (the old path recomputed the footprint for each).
        let record = self.valid.sim().evaluate_full(s);
        let measured = if self.faults.is_active() {
            self.evaluate_faulty(s, &record)
        } else {
            let m = cst_gpu_sim::noisy_measurement(record.time_ms(), &mut self.rng);
            self.clock.advance(record.cost_s);
            m
        };
        self.unique += 1;
        self.memo.insert(*s, measured);
        self.tel.add(Counter::EvalsCommitted, 1);
        self.tel.observe(Hist::EvalTimeMs, measured);
        measured
    }

    fn profile_offline(&mut self, s: &Setting) -> MetricsReport {
        self.valid.sim().profile(s)
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn expired(&self) -> bool {
        self.clock.expired() || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    fn unique_evaluations(&self) -> u64 {
        self.unique
    }

    fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    fn random_valid(&mut self) -> Setting {
        self.valid.random_valid(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_stencil::suite;

    fn eval() -> SimEvaluator {
        SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 1)
    }

    #[test]
    fn evaluation_charges_clock_once() {
        let mut e = eval();
        let s = Setting::baseline();
        let t1 = e.evaluate(&s);
        let after_first = e.clock().now_s();
        assert!(after_first > 0.0);
        let t2 = e.evaluate(&s);
        assert_eq!(t1, t2, "memoized measurement must be stable");
        assert_eq!(e.clock().now_s(), after_first, "repeat must be free");
        assert_eq!(e.unique_evaluations(), 1);
    }

    #[test]
    fn cancel_token_reads_as_expiry_without_touching_the_clock() {
        let mut e = eval();
        let token = CancelToken::new();
        e.set_cancel_token(token.clone());
        assert!(!e.expired());
        e.evaluate(&Setting::baseline());
        let t_before = e.clock().now_s();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(e.expired(), "a cancelled session must read as expired");
        assert_eq!(e.clock().now_s(), t_before, "cancellation charges nothing");
        // Memoized repeats still answer (drivers may consult the best-so-far).
        assert!(e.evaluate(&Setting::baseline()).is_finite());
    }

    #[test]
    fn cancelled_session_still_reports_best_so_far() {
        use crate::pipeline::{CsTuner, CsTunerConfig, Tuner};
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let mut e = SimEvaluator::new(spec, GpuArch::a100(), 3);
        let token = CancelToken::new();
        e.set_cancel_token(token.clone());
        token.cancel();
        // Cancelled before the search stage: the pipeline reports the
        // budget-too-small failure path rather than panicking or looping.
        let cfg = CsTunerConfig { dataset_size: 32, codegen_cap: 4, ..Default::default() };
        let out = CsTuner::new(cfg).tune(&mut e, 3);
        assert!(out.is_err(), "pre-search cancellation is a clean failure");
    }

    #[test]
    fn budget_expires() {
        let mut e = SimEvaluator::with_budget(
            suite::spec_by_name("j3d7pt").unwrap(),
            GpuArch::a100(),
            2,
            3.0,
        );
        let mut n = 0;
        while !e.expired() && n < 100 {
            let s = e.random_valid();
            e.evaluate(&s);
            n += 1;
        }
        assert!(e.expired(), "never expired after {n} evals");
        assert!(n < 100);
    }

    #[test]
    fn profiling_is_free() {
        let mut e = eval();
        e.profile_offline(&Setting::baseline());
        assert_eq!(e.clock().now_s(), 0.0);
        assert_eq!(e.unique_evaluations(), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = eval();
        e.evaluate(&Setting::baseline());
        e.reset(9, Some(5.0));
        assert_eq!(e.clock().now_s(), 0.0);
        assert_eq!(e.unique_evaluations(), 0);
        assert_eq!(e.clock().remaining_s(), 5.0);
    }

    #[test]
    fn measurements_use_noise_but_stay_close_to_model() {
        let mut e = eval();
        let s = Setting::baseline();
        let measured = e.evaluate(&s);
        let model = e.sim().kernel_time_ms(&s);
        assert!((measured / model - 1.0).abs() < 0.1, "{measured} vs {model}");
    }

    #[test]
    fn zero_probability_profile_is_bit_identical_to_fault_free() {
        // Both profiles are pinned explicitly so this holds even under the
        // CI fault leg, where CST_FAULT_SEED makes `new()` default hostile.
        // The zeroed profile keeps aggressive non-probability knobs to prove
        // they are inert when no fault can ever be drawn.
        let mut plain = eval().with_fault_profile(FaultProfile::off());
        let zero_probs = FaultProfile {
            seed: 0xdead_beef,
            max_retries: 9,
            backoff_base_s: 9.9,
            outlier_cap: 64.0,
            ..FaultProfile::off()
        };
        let mut zeroed = eval().with_fault_profile(zero_probs);
        let batch: Vec<Setting> = (0..64).map(|_| plain.random_valid()).collect();
        // Re-sync the witness rng: random_valid above advanced plain's.
        for _ in 0..64 {
            zeroed.random_valid();
        }
        for s in &batch {
            assert_eq!(plain.evaluate(s), zeroed.evaluate(s));
        }
        assert_eq!(plain.clock().now_s(), zeroed.clock().now_s());
        assert!(!zeroed.fault_stats().any());
        assert_eq!(zeroed.quarantined_count(), 0);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_never_panic() {
        let profile = FaultProfile::hostile(11);
        let run = || {
            let mut e = eval().with_fault_profile(profile);
            let batch: Vec<Setting> = (0..128).map(|_| e.random_valid()).collect();
            let times: Vec<f64> = batch.iter().map(|s| e.evaluate(s)).collect();
            (times, e.clock().now_s(), e.fault_stats(), e.quarantined_count())
        };
        let (t1, c1, s1, q1) = run();
        let (t2, c2, s2, q2) = run();
        assert_eq!(
            t1.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            t2.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(s1, s2);
        assert_eq!(q1, q2);
        assert!(s1.failures() > 0, "hostile profile over 128 settings should fault: {s1:?}");
        assert!(t1.iter().all(|t| t.is_finite() || *t == f64::INFINITY));
    }

    #[test]
    fn retries_charge_backoff_and_fault_time_to_the_clock() {
        // A profile that always fails compile quarantines every setting
        // after max_retries, charging 0.5·cost per attempt plus backoff.
        let profile = FaultProfile {
            p_compile: 1.0,
            p_outlier: 0.0,
            max_retries: 2,
            ..FaultProfile::hostile(5)
        };
        let mut e = eval().with_fault_profile(profile);
        let s = Setting::baseline();
        let cost = e.sim().evaluate_full(&s).cost_s;
        let t = e.evaluate(&s);
        assert_eq!(t, f64::INFINITY);
        assert!(e.is_quarantined(&s));
        let stats = e.fault_stats();
        assert_eq!(stats.compile_errors, 3, "1 attempt + 2 retries");
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.quarantined, 1);
        let want = 3.0 * 0.5 * cost + profile.backoff_s(0) + profile.backoff_s(1);
        assert!((e.clock().now_s() - want).abs() < 1e-12, "{} vs {want}", e.clock().now_s());
        // The quarantined measurement is memoized: a repeat is free.
        let before = e.clock().now_s();
        assert_eq!(e.evaluate(&s), f64::INFINITY);
        assert_eq!(e.clock().now_s(), before);
    }

    #[test]
    fn reset_clears_fault_state_but_keeps_profile() {
        let profile = FaultProfile { p_compile: 1.0, ..FaultProfile::hostile(5) };
        let mut e = eval().with_fault_profile(profile);
        e.evaluate(&Setting::baseline());
        assert!(e.fault_stats().any());
        assert_eq!(e.quarantined_count(), 1);
        e.reset(3, None);
        assert!(!e.fault_stats().any());
        assert_eq!(e.quarantined_count(), 0);
        assert_eq!(*e.fault_profile(), profile, "profile is config, not session state");
    }

    #[test]
    fn outliers_inflate_measurements_but_only_successes() {
        let profile = FaultProfile {
            p_compile: 0.0,
            p_launch: 0.0,
            p_timeout: 0.0,
            p_outlier: 0.5,
            outlier_cap: 20.0,
            ..FaultProfile::hostile(13)
        };
        let mut faulty = eval().with_fault_profile(profile);
        let mut clean = eval().with_fault_profile(FaultProfile::off());
        let batch: Vec<Setting> = (0..64).map(|_| faulty.random_valid()).collect();
        for _ in 0..64 {
            clean.random_valid();
        }
        let mut inflated = 0;
        for s in &batch {
            let f = faulty.evaluate(s);
            let c = clean.evaluate(s);
            assert!(f >= c, "outliers can only inflate: {f} < {c}");
            if f > c {
                inflated += 1;
                assert!(f / c <= 20.0 + 1e-9, "cap violated: {}", f / c);
            }
        }
        assert_eq!(faulty.fault_stats().outliers as usize, inflated);
        assert!(inflated > 0, "p_outlier=0.5 over 64 settings should inflate some");
        // The clock charge is unchanged — outliers are timer artifacts,
        // not longer runs.
        assert_eq!(faulty.clock().now_s().to_bits(), clean.clock().now_s().to_bits());
    }
}
