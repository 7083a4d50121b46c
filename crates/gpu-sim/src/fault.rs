//! Deterministic fault injection for the measurement path.
//!
//! Real autotuning campaigns lose samples: kernels fail to compile
//! (register pressure, template blow-ups), launches abort (driver hiccups,
//! invalid residual states), runs hit the watchdog timeout, and timers
//! occasionally report heavy-tailed outliers. Filipovič et al. and Tørring
//! et al. both treat such failed/invalid measurements as a first-class
//! part of the tuning search space; a production tuner has to survive
//! them without losing reproducibility.
//!
//! This module injects those faults *deterministically*: whether a given
//! (setting, attempt) pair faults — and which way — is a pure function of
//! the [`FaultProfile`]'s seed, independent of thread interleaving and
//! the evaluator's measurement-noise rng stream. Two runs with the same
//! seeds therefore observe byte-identical fault sequences, and a
//! zero-probability profile is *exactly* the fault-free path (no extra
//! rng draws, no extra clock charges).

use cst_space::Setting;

/// Ways a kernel measurement can fail, by pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The CUDA compiler rejected or crashed on the generated source.
    CompileError,
    /// Compilation succeeded but the kernel launch aborted.
    LaunchFailure,
    /// The kernel ran past the watchdog and was killed.
    Timeout,
}

/// Per-stage failure/retry counters accumulated by a fault-tolerant
/// evaluator over one tuning session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Compile-stage failures observed (before retry).
    pub compile_errors: u64,
    /// Launch-stage failures observed (before retry).
    pub launch_failures: u64,
    /// Run-stage watchdog timeouts observed (before retry).
    pub timeouts: u64,
    /// Successful measurements inflated by a heavy-tailed timing outlier.
    pub outliers: u64,
    /// Retries performed after a failed attempt.
    pub retries: u64,
    /// Settings quarantined after exhausting their retry budget.
    pub quarantined: u64,
}

impl FaultStats {
    /// Total failed measurement attempts across all stages.
    pub fn failures(&self) -> u64 {
        self.compile_errors + self.launch_failures + self.timeouts
    }

    /// Count one failure of the given kind.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CompileError => self.compile_errors += 1,
            FaultKind::LaunchFailure => self.launch_failures += 1,
            FaultKind::Timeout => self.timeouts += 1,
        }
    }

    /// Whether any fault was observed at all.
    pub fn any(&self) -> bool {
        self.failures() + self.outliers + self.quarantined > 0
    }
}

impl std::ops::Add for FaultStats {
    type Output = FaultStats;
    fn add(self, o: FaultStats) -> FaultStats {
        FaultStats {
            compile_errors: self.compile_errors + o.compile_errors,
            launch_failures: self.launch_failures + o.launch_failures,
            timeouts: self.timeouts + o.timeouts,
            outliers: self.outliers + o.outliers,
            retries: self.retries + o.retries,
            quarantined: self.quarantined + o.quarantined,
        }
    }
}

/// Seeded per-setting failure model plus the retry policy evaluators
/// apply against it.
///
/// Probabilities are per *attempt*: retrying a compile error can succeed,
/// so transient faults cost retries while a persistently unlucky setting
/// (every attempt faulting) ends up quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed of the fault stream (independent of measurement noise).
    pub seed: u64,
    /// Per-attempt probability of a compile-stage failure.
    pub p_compile: f64,
    /// Per-attempt probability of a launch-stage failure.
    pub p_launch: f64,
    /// Per-attempt probability of a run-stage watchdog timeout.
    pub p_timeout: f64,
    /// Probability a *successful* measurement is a heavy-tailed outlier.
    pub p_outlier: f64,
    /// Cap on the outlier multiplier's Pareto tail (≥ 1).
    pub outlier_cap: f64,
    /// Retries granted after a failed attempt before quarantine.
    pub max_retries: u32,
    /// Base of the exponential retry backoff charged to the virtual
    /// clock: retry `k` (0-based) waits `backoff_base_s · 2^k` seconds.
    pub backoff_base_s: f64,
}

impl FaultProfile {
    /// The fault-free profile: every probability zero. Evaluators treat
    /// this as "injection disabled" and take the exact legacy path.
    pub fn off() -> Self {
        FaultProfile {
            seed: 0,
            p_compile: 0.0,
            p_launch: 0.0,
            p_timeout: 0.0,
            p_outlier: 0.0,
            outlier_cap: 1.0,
            max_retries: 2,
            backoff_base_s: 0.05,
        }
    }

    /// A mildly hostile testbed seeded with `seed`: a few percent of
    /// attempts fail per stage, occasional timing outliers. The default
    /// profile of the fault-injection CI leg.
    pub fn hostile(seed: u64) -> Self {
        FaultProfile {
            seed,
            p_compile: 0.03,
            p_launch: 0.02,
            p_timeout: 0.01,
            p_outlier: 0.03,
            outlier_cap: 20.0,
            max_retries: 2,
            backoff_base_s: 0.05,
        }
    }

    /// Read the profile from the environment: `CST_FAULT_SEED=<u64>`
    /// enables injection with the [`FaultProfile::hostile`] rates. Returns
    /// `None` (injection disabled) when `CST_FAULT_SEED` is unset or
    /// unparsable.
    pub fn from_env() -> Option<Self> {
        let seed = std::env::var("CST_FAULT_SEED").ok()?.trim().parse::<u64>().ok()?;
        Some(FaultProfile::hostile(seed))
    }

    /// Whether any fault can ever fire. The fast path that evaluators
    /// branch on: an inactive profile must cost nothing.
    pub fn is_active(&self) -> bool {
        self.p_compile > 0.0 || self.p_launch > 0.0 || self.p_timeout > 0.0 || self.p_outlier > 0.0
    }

    /// Decide deterministically whether attempt `attempt` at measuring
    /// `s` faults, and at which stage. Pure in (seed, setting, attempt):
    /// no shared rng stream, no ordering dependence.
    pub fn decide(&self, s: &Setting, attempt: u32) -> Option<FaultKind> {
        if self.p_compile <= 0.0 && self.p_launch <= 0.0 && self.p_timeout <= 0.0 {
            return None;
        }
        let u = unit(hash_setting(self.seed, s, attempt, 0xfa17));
        if u < self.p_compile {
            Some(FaultKind::CompileError)
        } else if u < self.p_compile + self.p_launch {
            Some(FaultKind::LaunchFailure)
        } else if u < self.p_compile + self.p_launch + self.p_timeout {
            Some(FaultKind::Timeout)
        } else {
            None
        }
    }

    /// Multiplier a successful measurement of `s` on `attempt` suffers
    /// from timer outliers: `1.0` almost always, a capped Pareto tail
    /// (`1/u`, at most [`FaultProfile::outlier_cap`]) with probability
    /// `p_outlier`. Deterministic in (seed, setting, attempt).
    pub fn outlier_factor(&self, s: &Setting, attempt: u32) -> f64 {
        if self.p_outlier <= 0.0 {
            return 1.0;
        }
        let u = unit(hash_setting(self.seed, s, attempt, 0x0071_1e50));
        if u >= self.p_outlier {
            return 1.0;
        }
        // Rescale the hit's sub-uniform into (0,1] and take the Pareto
        // tail 1/u', capped so one outlier cannot dwarf the landscape.
        let u2 = (u / self.p_outlier).max(1.0 / self.outlier_cap.max(1.0));
        (1.0 / u2).clamp(1.0, self.outlier_cap.max(1.0))
    }

    /// Deterministic backoff charged to the virtual clock before retry
    /// `attempt` (0-based): exponential in the attempt index.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.backoff_base_s * (1u64 << attempt.min(16)) as f64
    }
}

/// splitmix64 finalizer — cheap avalanche over the accumulated state.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash (seed, setting, attempt, salt) into one u64.
fn hash_setting(seed: u64, s: &Setting, attempt: u32, salt: u64) -> u64 {
    let mut h = splitmix(seed ^ salt);
    for &v in &s.0 {
        h = splitmix(h ^ v as u64);
    }
    splitmix(h ^ attempt as u64)
}

/// Map a u64 to a uniform in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(n: usize) -> Vec<Setting> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let space = cst_space::OptSpace::for_grid([512, 512, 512]);
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|_| {
                let mut s = space.random_raw(&mut rng);
                s.canonicalize();
                s
            })
            .collect()
    }

    #[test]
    fn off_profile_never_faults() {
        let p = FaultProfile::off();
        assert!(!p.is_active());
        for s in settings(200) {
            for attempt in 0..3 {
                assert_eq!(p.decide(&s, attempt), None);
                assert_eq!(p.outlier_factor(&s, attempt), 1.0);
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions() {
        let p = FaultProfile::hostile(42);
        for s in settings(100) {
            for attempt in 0..3 {
                assert_eq!(p.decide(&s, attempt), p.decide(&s, attempt));
                assert_eq!(p.outlier_factor(&s, attempt), p.outlier_factor(&s, attempt));
            }
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let p = FaultProfile {
            p_compile: 0.10,
            p_launch: 0.05,
            p_timeout: 0.05,
            p_outlier: 0.10,
            ..FaultProfile::hostile(7)
        };
        let ss = settings(4000);
        let mut counts = FaultStats::default();
        for s in &ss {
            match p.decide(s, 0) {
                Some(k) => counts.record(k),
                None => {
                    if p.outlier_factor(s, 0) > 1.0 {
                        counts.outliers += 1;
                    }
                }
            }
        }
        let n = ss.len() as f64;
        let close = |got: u64, want: f64| (got as f64 / n - want).abs() < 0.02;
        assert!(close(counts.compile_errors, 0.10), "{counts:?}");
        assert!(close(counts.launch_failures, 0.05), "{counts:?}");
        assert!(close(counts.timeouts, 0.05), "{counts:?}");
        // Outliers only apply to non-faulted attempts, so the observed
        // rate is p_outlier · (1 − p_fail) ≈ 0.08.
        assert!(close(counts.outliers, 0.10 * 0.80), "{counts:?}");
    }

    #[test]
    fn different_seeds_give_different_fault_sets() {
        let a = FaultProfile::hostile(1);
        let b = FaultProfile::hostile(2);
        let ss = settings(500);
        let fa: Vec<bool> = ss.iter().map(|s| a.decide(s, 0).is_some()).collect();
        let fb: Vec<bool> = ss.iter().map(|s| b.decide(s, 0).is_some()).collect();
        assert_ne!(fa, fb, "seeds must decorrelate the fault stream");
    }

    #[test]
    fn retries_can_clear_transient_faults() {
        // With per-attempt independence, some setting that faults on
        // attempt 0 must succeed on a later attempt.
        let p = FaultProfile { p_compile: 0.2, ..FaultProfile::hostile(3) };
        let cleared = settings(500).iter().any(|s| {
            p.decide(s, 0) == Some(FaultKind::CompileError)
                && (1..=p.max_retries).any(|a| p.decide(s, a).is_none())
        });
        assert!(cleared);
    }

    #[test]
    fn outlier_factor_is_heavy_tailed_and_capped() {
        let p = FaultProfile { p_outlier: 0.5, outlier_cap: 20.0, ..FaultProfile::hostile(9) };
        let factors: Vec<f64> =
            settings(2000).iter().map(|s| p.outlier_factor(s, 0)).filter(|&f| f > 1.0).collect();
        assert!(!factors.is_empty());
        assert!(factors.iter().all(|&f| (1.0..=20.0).contains(&f)));
        assert!(factors.iter().any(|&f| f > 5.0), "tail too light");
        let median = {
            let mut f = factors.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[f.len() / 2]
        };
        assert!(median < 5.0, "median {median} — the tail should be rare");
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let p = FaultProfile::hostile(0);
        assert_eq!(p.backoff_s(0), 0.05);
        assert_eq!(p.backoff_s(1), 0.10);
        assert_eq!(p.backoff_s(2), 0.20);
        assert!(p.backoff_s(60) <= p.backoff_base_s * 65536.0);
    }

    #[test]
    fn stats_add_and_classify() {
        let mut a = FaultStats::default();
        assert!(!a.any());
        a.record(FaultKind::CompileError);
        a.record(FaultKind::Timeout);
        a.outliers += 1;
        let b = FaultStats { retries: 2, quarantined: 1, ..Default::default() };
        let sum = a + b;
        assert_eq!(sum.failures(), 2);
        assert_eq!(sum.retries, 2);
        assert_eq!(sum.quarantined, 1);
        assert!(sum.any());
    }

    #[test]
    fn env_profile_requires_seed() {
        // Serialized env access: this var is only touched here.
        std::env::remove_var("CST_FAULT_SEED");
        assert!(FaultProfile::from_env().is_none());
        std::env::set_var("CST_FAULT_SEED", "99");
        assert_eq!(FaultProfile::from_env(), Some(FaultProfile::hostile(99)));
        std::env::remove_var("CST_FAULT_SEED");
    }
}
