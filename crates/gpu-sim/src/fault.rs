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
//! seeds therefore observe byte-identical fault sequences. There is one
//! hostile testbed: its rates, outlier cap, retry budget, backoff and
//! per-stage attempt charges are the constants below, and a profile is
//! either [`FaultProfile::Off`] or that testbed under a seed.

use cst_space::Setting;

/// Per-attempt probability of a compile-stage failure on the hostile
/// testbed (this tree's value).
pub const P_COMPILE: f64 = 0.03;
/// Per-attempt probability of a launch-stage failure on the hostile
/// testbed (this tree's value).
pub const P_LAUNCH: f64 = 0.02;
/// Per-attempt probability of a run-stage watchdog timeout on the
/// hostile testbed (this tree's value).
pub const P_TIMEOUT: f64 = 0.01;
/// Probability that a *successful* measurement on the hostile testbed is
/// a heavy-tailed timing outlier (this tree's value).
pub const P_OUTLIER: f64 = 0.03;
/// Cap on the outlier multiplier's Pareto tail (this tree's value).
pub const OUTLIER_CAP: f64 = 20.0;
/// Retries granted after a failed attempt before the setting is
/// quarantined (this tree's value).
pub const MAX_RETRIES: u32 = 2;
/// Base of the exponential retry backoff, in virtual seconds (this
/// tree's value).
const BACKOFF_BASE_S: f64 = 0.05;
/// Share of a setting's compile-and-run cost that a compile error
/// charges: the run never happens (this tree's value).
const COMPILE_ERROR_CHARGE: f64 = 0.5;
/// Share of a setting's compile-and-run cost that a launch failure
/// charges: compile plus setup (this tree's value).
const LAUNCH_FAILURE_CHARGE: f64 = 0.6;
/// Share of a setting's compile-and-run cost that a timeout charges: the
/// watchdog window on top of the compile (this tree's value).
const TIMEOUT_CHARGE: f64 = 2.0;

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

impl FaultKind {
    /// Virtual seconds a failed attempt of this kind costs, for a setting
    /// whose compile-and-run cost is `cost_s`: a failed attempt still
    /// costs real time, by the stage it died at.
    pub fn charge_s(self, cost_s: f64) -> f64 {
        let share = match self {
            FaultKind::CompileError => COMPILE_ERROR_CHARGE,
            FaultKind::LaunchFailure => LAUNCH_FAILURE_CHARGE,
            FaultKind::Timeout => TIMEOUT_CHARGE,
        };
        share * cost_s
    }
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

/// The testbed a session measures on.
///
/// Probabilities are per *attempt*: retrying a compile error can succeed,
/// so transient faults cost retries while a persistently unlucky setting
/// (every attempt faulting) ends up quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Fault-free: no attempt ever fails and no measurement is inflated.
    Off,
    /// The hostile testbed: compile errors, launch failures, timeouts and
    /// timing outliers at the rates above, the default profile of the
    /// fault-injection CI leg.
    Hostile {
        /// Seed of the fault stream (independent of measurement noise).
        seed: u64,
    },
}

impl FaultProfile {
    /// Read the profile from the environment: `CST_FAULT_SEED=<u64>`
    /// selects [`FaultProfile::Hostile`] with that seed; unset or
    /// unparsable is [`FaultProfile::Off`].
    pub fn from_env() -> Self {
        match std::env::var("CST_FAULT_SEED").ok().and_then(|v| v.trim().parse::<u64>().ok()) {
            Some(seed) => FaultProfile::Hostile { seed },
            None => FaultProfile::Off,
        }
    }

    /// Decide deterministically whether attempt `attempt` at measuring
    /// `s` faults, and at which stage. Pure in (seed, setting, attempt):
    /// no shared rng stream, no ordering dependence.
    pub fn decide(&self, s: &Setting, attempt: u32) -> Option<FaultKind> {
        let FaultProfile::Hostile { seed } = *self else { return None };
        let u = unit(hash_setting(seed, s, attempt, 0xfa17));
        if u < P_COMPILE {
            Some(FaultKind::CompileError)
        } else if u < P_COMPILE + P_LAUNCH {
            Some(FaultKind::LaunchFailure)
        } else if u < P_COMPILE + P_LAUNCH + P_TIMEOUT {
            Some(FaultKind::Timeout)
        } else {
            None
        }
    }

    /// Multiplier a successful measurement of `s` on `attempt` suffers
    /// from timer outliers: `1.0` almost always, a capped Pareto tail
    /// (`1/u`, at most [`OUTLIER_CAP`]) with probability [`P_OUTLIER`].
    /// Deterministic in (seed, setting, attempt).
    pub fn outlier_factor(&self, s: &Setting, attempt: u32) -> f64 {
        let FaultProfile::Hostile { seed } = *self else { return 1.0 };
        let u = unit(hash_setting(seed, s, attempt, 0x0071_1e50));
        if u >= P_OUTLIER {
            return 1.0;
        }
        // Rescale the hit's sub-uniform into (0,1] and take the Pareto
        // tail 1/u', capped so one outlier cannot dwarf the landscape.
        let u2 = (u / P_OUTLIER).max(1.0 / OUTLIER_CAP);
        (1.0 / u2).clamp(1.0, OUTLIER_CAP)
    }
}

/// Deterministic backoff charged to the virtual clock before retry
/// `attempt` (0-based): `BACKOFF_BASE_S · 2^attempt`, the exponent capped
/// at 16.
pub fn backoff_s(attempt: u32) -> f64 {
    BACKOFF_BASE_S * (1u64 << attempt.min(16)) as f64
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
        let p = FaultProfile::Off;
        for s in settings(200) {
            for attempt in 0..3 {
                assert_eq!(p.decide(&s, attempt), None);
                assert_eq!(p.outlier_factor(&s, attempt), 1.0);
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions() {
        let p = FaultProfile::Hostile { seed: 42 };
        for s in settings(100) {
            for attempt in 0..3 {
                assert_eq!(p.decide(&s, attempt), p.decide(&s, attempt));
                assert_eq!(p.outlier_factor(&s, attempt), p.outlier_factor(&s, attempt));
            }
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let p = FaultProfile::Hostile { seed: 7 };
        let ss = settings(4000);
        let mut counts = FaultStats::default();
        for s in &ss {
            for attempt in 0..4 {
                match p.decide(s, attempt) {
                    Some(k) => counts.record(k),
                    None => {
                        if p.outlier_factor(s, attempt) > 1.0 {
                            counts.outliers += 1;
                        }
                    }
                }
            }
        }
        let n = 4.0 * ss.len() as f64;
        let close = |got: u64, want: f64| (got as f64 / n - want).abs() < want / 4.0;
        assert!(close(counts.compile_errors, P_COMPILE), "{counts:?}");
        assert!(close(counts.launch_failures, P_LAUNCH), "{counts:?}");
        assert!(close(counts.timeouts, P_TIMEOUT), "{counts:?}");
        // Outliers only apply to non-faulted attempts, so the observed
        // rate is P_OUTLIER · (1 − p_fail).
        let p_fail = P_COMPILE + P_LAUNCH + P_TIMEOUT;
        assert!(close(counts.outliers, P_OUTLIER * (1.0 - p_fail)), "{counts:?}");
    }

    #[test]
    fn different_seeds_give_different_fault_sets() {
        let a = FaultProfile::Hostile { seed: 1 };
        let b = FaultProfile::Hostile { seed: 2 };
        let ss = settings(500);
        let fa: Vec<bool> = ss.iter().map(|s| a.decide(s, 0).is_some()).collect();
        let fb: Vec<bool> = ss.iter().map(|s| b.decide(s, 0).is_some()).collect();
        assert_ne!(fa, fb, "seeds must decorrelate the fault stream");
    }

    #[test]
    fn retries_can_clear_transient_faults() {
        // With per-attempt independence, some setting that faults on
        // attempt 0 must succeed on a later attempt.
        let p = FaultProfile::Hostile { seed: 3 };
        let cleared = settings(500).iter().any(|s| {
            p.decide(s, 0) == Some(FaultKind::CompileError)
                && (1..=MAX_RETRIES).any(|a| p.decide(s, a).is_none())
        });
        assert!(cleared);
    }

    #[test]
    fn outlier_factor_is_heavy_tailed_and_capped() {
        let p = FaultProfile::Hostile { seed: 9 };
        let factors: Vec<f64> = settings(4000)
            .iter()
            .flat_map(|s| (0..4).map(move |a| p.outlier_factor(s, a)))
            .filter(|&f| f > 1.0)
            .collect();
        assert!(!factors.is_empty());
        assert!(factors.iter().all(|&f| (1.0..=OUTLIER_CAP).contains(&f)));
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
        assert_eq!(backoff_s(0), 0.05);
        assert_eq!(backoff_s(1), 0.10);
        assert_eq!(backoff_s(2), 0.20);
        for a in 0..20 {
            assert!(backoff_s(a + 1) >= backoff_s(a), "retries never get cheaper");
        }
        assert_eq!(backoff_s(60), backoff_s(16));
    }

    #[test]
    fn failed_attempts_charge_by_stage() {
        assert_eq!(FaultKind::CompileError.charge_s(2.0), 1.0);
        assert_eq!(FaultKind::LaunchFailure.charge_s(2.0), 1.2);
        assert_eq!(FaultKind::Timeout.charge_s(2.0), 4.0);
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
        assert_eq!(FaultProfile::from_env(), FaultProfile::Off);
        std::env::set_var("CST_FAULT_SEED", "99");
        assert_eq!(FaultProfile::from_env(), FaultProfile::Hostile { seed: 99 });
        std::env::remove_var("CST_FAULT_SEED");
    }
}
