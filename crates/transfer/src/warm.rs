//! Surrogate-guided warm-start seeding.
//!
//! Given a [`KnowledgeBase`] and a target (stencil, arch), [`warm_seeds`]
//! ranks every setting the archive has ever measured for that stencil
//! and returns the top K as seeds for `Tuner::warm_start`. Ranking uses
//! the shared [`cst_ml::Surrogate`] (the same q30 quantile-label forest
//! the online forest tuner trains) fit on KB records:
//!
//! - **exact**: the (stencil, arch) pair has enough records — train on
//!   setting features alone.
//! - **cross-arch**: the exact pair is data-poor but the stencil was
//!   measured on other known architectures — train on setting features
//!   extended with [`arch_features`], score candidates with the target
//!   architecture's features appended, and let the forest transfer what
//!   it learned across hardware.
//! - **observed**: too few records to fit any forest — fall back to the
//!   minimum observed time per setting.
//! - **empty**: the archive knows nothing about this stencil; no seeds.
//!
//! Everything here is deterministic for a fixed (KB, target, seed):
//! candidates are sorted by canonical setting string before ranking, and
//! all tie-breaks are lexicographic.

use crate::kb::{KbRecord, KnowledgeBase};
use cst_gpu_sim::GpuArch;
use cst_ml::Surrogate;
use cst_space::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Default number of seeds offered to a tuner. One half of the kernel's
/// default population: warm seeds steer the start without erasing the
/// explorative half.
pub const DEFAULT_TOP_K: usize = 16;

/// Minimum training rows before a forest is worth fitting; below this
/// the observed-time fallback ranks directly.
pub const MIN_FIT: usize = 8;

/// Stream-domain separator for surrogate training draws, XORed with the
/// run seed (forest `^0x0f0e_e57a`, anneal `^0x0a11_ea1e`, ...).
const TRANSFER_STREAM: u64 = 0x7a05_fe2a;

/// Numeric description of an architecture for cross-arch features, in a
/// fixed field order. Capacity-like fields enter as `log2` so the forest
/// sees hardware generations on the same scale as the `Pow2` setting
/// features.
pub fn arch_features(a: &GpuArch) -> Vec<f64> {
    vec![
        (a.sm_count as f64).log2(),
        (a.max_threads_per_sm as f64).log2(),
        (a.max_tb_per_sm as f64).log2(),
        (a.max_warps_per_sm as f64).log2(),
        (a.regs_per_sm as f64).log2(),
        (a.shmem_per_sm as f64).log2(),
        (a.shmem_per_tb as f64).log2(),
        (a.l2_bytes as f64).log2(),
        a.dram_gbps.log2(),
        a.fp64_gflops.log2(),
        a.launch_us,
        a.sync_us,
    ]
}

/// A surrogate specialized to one target (stencil, arch), trained from
/// KB records.
#[derive(Debug, Clone)]
pub struct TransferSurrogate {
    inner: Surrogate,
    /// Target arch features appended to every scored candidate;
    /// empty in exact mode.
    target: Vec<f64>,
    n_train: usize,
}

impl TransferSurrogate {
    /// Train for the target pair. Exact mode when the pair itself has
    /// [`MIN_FIT`] records; otherwise the cross-arch fallback pools the
    /// stencil's records from every [`GpuArch::by_name`]-known
    /// architecture. `None` when neither mode has enough data (or the
    /// target arch is unknown and cross-arch would be required).
    pub fn fit(kb: &KnowledgeBase, stencil: &str, arch: &str, seed: u64) -> Option<Self> {
        let mut rng = StdRng::seed_from_u64(seed ^ TRANSFER_STREAM);
        let exact: Vec<&KbRecord> = kb.for_pair(stencil, arch);
        let rows = |records: &[&KbRecord], with_arch: bool| {
            let mut xs = Vec::new();
            let mut times = Vec::new();
            for r in records {
                let Some(s) = r.parsed_setting() else { continue };
                let mut x = s.features().to_vec();
                if with_arch {
                    let a = GpuArch::by_name(&r.arch)?;
                    x.extend(arch_features(&a));
                }
                xs.push(x);
                times.push(r.time_ms);
            }
            Some((xs, times))
        };
        if exact.len() >= MIN_FIT {
            let (xs, times) = rows(&exact, false)?;
            if xs.len() >= MIN_FIT {
                let n = xs.len();
                let inner = Surrogate::fit(&xs, &times, &mut rng)?;
                return Some(TransferSurrogate { inner, target: Vec::new(), n_train: n });
            }
        }
        let target_arch = GpuArch::by_name(arch)?;
        let pool: Vec<&KbRecord> = kb
            .for_stencil(stencil)
            .into_iter()
            .filter(|r| GpuArch::by_name(&r.arch).is_some())
            .collect();
        let (xs, times) = rows(&pool, true)?;
        if xs.len() < MIN_FIT {
            return None;
        }
        let n = xs.len();
        let inner = Surrogate::fit(&xs, &times, &mut rng)?;
        Some(TransferSurrogate { inner, target: arch_features(&target_arch), n_train: n })
    }

    /// `"exact"` or `"cross-arch"`.
    pub fn mode(&self) -> &'static str {
        if self.target.is_empty() {
            "exact"
        } else {
            "cross-arch"
        }
    }

    /// Training rows behind the fit.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Probability-like fast score for a candidate on the target arch.
    pub fn score(&self, s: &Setting) -> f64 {
        let mut x = s.features().to_vec();
        x.extend_from_slice(&self.target);
        self.inner.score(&x)
    }
}

/// The warm-start decision: ranked seeds plus the stats the serve
/// metrics registry and `cstuner kb rank` report.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Top-K settings, best first, ready for `Tuner::warm_start`.
    pub seeds: Vec<Setting>,
    /// `"exact"`, `"cross-arch"`, `"observed"` or `"empty"`.
    pub mode: &'static str,
    /// Training rows behind the surrogate (0 for observed/empty).
    pub n_train: usize,
    /// Distinct recorded settings considered before the top-K cut.
    pub candidates: usize,
}

/// Rank the archive's distinct settings for `stencil` and return the
/// top `k` as seeds for tuning on `arch`.
pub fn warm_seeds(kb: &KnowledgeBase, stencil: &str, arch: &str, k: usize, seed: u64) -> WarmStart {
    // Distinct candidates: every setting ever measured for the stencil,
    // keyed (and so sorted) by canonical string, carrying the minimum
    // observed time.
    let mut distinct: BTreeMap<String, (Setting, f64)> = BTreeMap::new();
    for r in kb.for_stencil(stencil) {
        let Some(s) = r.parsed_setting() else { continue };
        distinct
            .entry(s.to_string())
            .and_modify(|(_, t)| *t = t.min(r.time_ms))
            .or_insert((s, r.time_ms));
    }
    let mut cands: Vec<(String, Setting, f64)> =
        distinct.into_iter().map(|(key, (s, t))| (key, s, t)).collect();
    if cands.is_empty() {
        return WarmStart { seeds: Vec::new(), mode: "empty", n_train: 0, candidates: 0 };
    }
    let candidates = cands.len();
    match TransferSurrogate::fit(kb, stencil, arch, seed) {
        Some(sur) => {
            // Descending score; the pre-sort makes string order the tie-break.
            let mut scored: Vec<(f64, Setting)> =
                cands.into_iter().map(|(_, s, _)| (sur.score(&s), s)).collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            WarmStart {
                seeds: scored.into_iter().take(k).map(|(_, s)| s).collect(),
                mode: sur.mode(),
                n_train: sur.n_train(),
                candidates,
            }
        }
        None => {
            // Too little data for any forest: fastest observed first.
            cands.sort_by(|a, b| a.2.to_bits().cmp(&b.2.to_bits()).then_with(|| a.0.cmp(&b.0)));
            WarmStart {
                seeds: cands.into_iter().take(k).map(|(_, s, _)| s).collect(),
                mode: "observed",
                n_train: 0,
                candidates,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;

    fn record(stencil: &str, arch: &str, s: &Setting, t: f64) -> KbRecord {
        KbRecord {
            stencil: stencil.into(),
            arch: arch.into(),
            setting: s.to_string(),
            time_ms: t,
            source: "r".into(),
            origin: "0".into(),
        }
    }

    /// Settings varying TB_x over the pow2 lattice; time grows with TB_x
    /// so "small TB_x" is the learnable fast signal.
    fn kb_with(n: usize, arch: &str) -> KnowledgeBase {
        let mut records = Vec::new();
        for i in 0..n {
            let mut s = Setting::baseline();
            s.set(ParamId::TBx, 1 << (i % 6));
            s.canonicalize();
            records.push(record("j3d7pt", arch, &s, 1.0 + (i % 6) as f64));
        }
        KnowledgeBase { records }
    }

    #[test]
    fn empty_kb_yields_empty_mode() {
        let w = warm_seeds(&KnowledgeBase::default(), "j3d7pt", "a100", 8, 1);
        assert_eq!(w.mode, "empty");
        assert!(w.seeds.is_empty());
        assert_eq!(w.candidates, 0);
    }

    #[test]
    fn sparse_kb_falls_back_to_observed_times() {
        let mut s_fast = Setting::baseline();
        s_fast.set(ParamId::TBx, 64);
        s_fast.canonicalize();
        let s_slow = Setting::baseline();
        let kb = KnowledgeBase {
            records: vec![
                record("j3d7pt", "a100", &s_slow, 9.0),
                record("j3d7pt", "a100", &s_fast, 2.0),
            ],
        };
        let w = warm_seeds(&kb, "j3d7pt", "a100", 8, 1);
        assert_eq!(w.mode, "observed");
        assert_eq!(w.candidates, 2);
        assert_eq!(w.seeds[0], s_fast);
        assert_eq!(w.seeds[1], s_slow);
    }

    #[test]
    fn a_setting_recurring_across_archs_and_sources_keeps_its_minimum_time() {
        // `a` is recorded three times (two archs, three sources) at 5, 3
        // and 4 ms; `b` once at 4.5 ms. Too few rows for a forest, so the
        // observed fallback ranks by each candidate's minimum time.
        let a = Setting::baseline();
        let mut b = Setting::baseline();
        b.set(ParamId::TBx, 64);
        b.canonicalize();
        let mut records = vec![
            record("j3d7pt", "A100", &a, 5.0),
            record("j3d7pt", "V100", &a, 3.0),
            record("j3d7pt", "A100", &b, 4.5),
            record("j3d7pt", "A100", &a, 4.0),
        ];
        for (r, source) in records.iter_mut().zip(["r1", "r2", "r1", "r3"]) {
            r.source = source.into();
        }
        let w = warm_seeds(&KnowledgeBase { records }, "j3d7pt", "A100", 8, 1);
        assert_eq!(w.mode, "observed");
        assert_eq!(w.candidates, 2);
        assert_eq!(w.seeds, vec![a, b]);
    }

    #[test]
    fn dense_pair_trains_exact_and_front_loads_fast_settings() {
        let kb = kb_with(24, "a100");
        let w = warm_seeds(&kb, "j3d7pt", "a100", 3, 7);
        assert_eq!(w.mode, "exact");
        assert_eq!(w.n_train, 24);
        assert_eq!(w.seeds.len(), 3);
        // The fast end of the lattice (small TB_x) should dominate the top.
        assert!(w.seeds[0].get(ParamId::TBx) <= 8, "{:?}", w.seeds[0]);
    }

    #[test]
    fn unseen_arch_transfers_cross_arch() {
        let kb = kb_with(24, "v100");
        let w = warm_seeds(&kb, "j3d7pt", "a100", 4, 7);
        assert_eq!(w.mode, "cross-arch");
        assert_eq!(w.n_train, 24);
        assert_eq!(w.seeds.len(), 4);
        let sur = TransferSurrogate::fit(&kb, "j3d7pt", "a100", 7).unwrap();
        assert_eq!(sur.mode(), "cross-arch");
        assert!(sur.n_train() > 0);
    }

    #[test]
    fn foreign_arch_names_cannot_transfer() {
        // Records exist but on an arch GpuArch::by_name does not know,
        // and the pair itself is data-poor: observed fallback.
        let kb = kb_with(24, "tpu-x");
        let w = warm_seeds(&kb, "j3d7pt", "a100", 4, 7);
        assert_eq!(w.mode, "observed");
        assert!(!w.seeds.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_for_fixed_inputs() {
        let kb = kb_with(24, "a100");
        let a = warm_seeds(&kb, "j3d7pt", "a100", 8, 42);
        let b = warm_seeds(&kb, "j3d7pt", "a100", 8, 42);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.mode, b.mode);
    }

    #[test]
    fn arch_features_are_fixed_width_and_ordered() {
        let a = arch_features(&GpuArch::a100());
        let v = arch_features(&GpuArch::v100());
        assert_eq!(a.len(), v.len());
        assert!(a.iter().all(|x| x.is_finite()));
        assert_ne!(a, v);
    }
}
