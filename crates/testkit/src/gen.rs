//! Seeded generators and `proptest` strategies for the tuning domain.
//!
//! Everything here is deterministic in its seed (or in the property
//! test's `TestRng`), so any failing case reproduces across runs and
//! machines. The strategies build on the vendored `proptest` stand-in —
//! no external dependencies.

use cst_gpu_sim::{FaultProfile, ValidSpace};
use cst_space::{OptSpace, ParamId, Setting};
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic rng for generator helpers, decorrelated from the
/// evaluator's measurement-noise stream by a fixed salt.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7e57_c0de_0000_0001)
}

/// `n` canonicalized raw settings drawn uniformly from the explicit
/// per-parameter value lists (no validity filtering — useful for
/// exercising rejection paths).
pub fn raw_settings(space: &OptSpace, seed: u64, n: usize) -> Vec<Setting> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| {
            let mut s = space.random_raw(&mut rng);
            s.canonicalize();
            s
        })
        .collect()
}

/// `n` fully valid settings (explicit constraints + simulated resources).
pub fn valid_settings(valid: &ValidSpace, seed: u64, n: usize) -> Vec<Setting> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| valid.random_valid(&mut rng)).collect()
}

/// Genome cardinalities for a full-space GA: one gene per parameter,
/// indexing that parameter's live value list.
pub fn genome_cards(space: &OptSpace) -> Vec<u32> {
    ParamId::ALL.iter().map(|&p| space.values(p).len() as u32).collect()
}

/// Decode full-space genes (as produced by [`genome_cards`]) into a
/// canonicalized [`Setting`]. Panics if a gene indexes out of its
/// parameter's value list — exactly the accident the GA's `in_range`
/// invariant must rule out.
pub fn decode_genes(space: &OptSpace, genes: &[u32]) -> Setting {
    assert_eq!(genes.len(), ParamId::ALL.len(), "one gene per parameter");
    let mut s = Setting::baseline();
    for (&p, &g) in ParamId::ALL.iter().zip(genes) {
        s.set(p, space.values(p)[g as usize]);
    }
    s.canonicalize();
    s
}

/// Strategy producing canonicalized raw settings of a fixed space.
pub struct SettingStrategy {
    space: OptSpace,
}

impl Strategy for SettingStrategy {
    type Value = Setting;
    fn generate(&self, rng: &mut proptest::TestRng) -> Setting {
        let mut s = Setting::baseline();
        for p in ParamId::ALL {
            let vals = self.space.values(p);
            s.set(p, vals[rng.gen_range(0..vals.len())]);
        }
        s.canonicalize();
        s
    }
}

/// Canonicalized raw settings for a grid's optimization space.
pub fn arb_setting(grid: [usize; 3]) -> SettingStrategy {
    SettingStrategy { space: OptSpace::for_grid(grid) }
}

/// Fault profiles: [`FaultProfile::Off`] one time in four, otherwise the
/// hostile testbed under a seed from the full range.
pub fn arb_fault_profile() -> impl Strategy<Value = FaultProfile> {
    (0u32..4, 0u64..u64::MAX).prop_map(|(pick, seed)| match pick {
        0 => FaultProfile::Off,
        _ => FaultProfile::Hostile { seed },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::{GpuArch, GpuSim};
    use cst_stencil::suite;
    use proptest::TestRng;

    #[test]
    fn raw_settings_are_deterministic_and_canonical() {
        let space = OptSpace::for_grid([512, 512, 512]);
        let a = raw_settings(&space, 9, 32);
        let b = raw_settings(&space, 9, 32);
        assert_eq!(a, b);
        for s in &a {
            let mut c = *s;
            c.canonicalize();
            assert_eq!(c, *s, "generator output must already be canonical");
        }
        assert_ne!(a, raw_settings(&space, 10, 32), "seed must matter");
    }

    #[test]
    fn valid_settings_all_pass_the_composed_check() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let space = OptSpace::for_stencil(&spec);
        let valid = ValidSpace::new(space, GpuSim::new(spec, GpuArch::a100()));
        for s in valid_settings(&valid, 4, 32) {
            assert!(valid.is_valid(&s));
        }
    }

    #[test]
    fn genome_decode_roundtrips_any_in_range_genes() {
        let space = OptSpace::for_grid([512, 512, 512]);
        let cards = genome_cards(&space);
        assert_eq!(cards.len(), ParamId::ALL.len());
        let mut rng = seeded_rng(2);
        for _ in 0..64 {
            let genes: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            let s = decode_genes(&space, &genes);
            for p in ParamId::ALL {
                assert!(space.values(p).contains(&s.get(p)), "{p:?} -> {}", s.get(p));
            }
        }
    }

    #[test]
    fn setting_strategy_respects_value_lists() {
        let strat = arb_setting([256, 256, 256]);
        let space = OptSpace::for_grid([256, 256, 256]);
        let mut rng = TestRng::for_test("setting-strategy");
        for _ in 0..64 {
            let s = strat.generate(&mut rng);
            for p in ParamId::ALL {
                assert!(space.values(p).contains(&s.get(p)));
            }
        }
    }

    #[test]
    fn fault_profile_strategy_covers_active_and_inactive() {
        let strat = arb_fault_profile();
        let mut rng = TestRng::for_test("fault-profile-strategy");
        let profiles: Vec<FaultProfile> = (0..256).map(|_| strat.generate(&mut rng)).collect();
        assert!(profiles.contains(&FaultProfile::Off));
        let seeds: Vec<u64> = profiles
            .iter()
            .filter_map(|p| match p {
                FaultProfile::Hostile { seed } => Some(*seed),
                FaultProfile::Off => None,
            })
            .collect();
        assert!(seeds.len() > 128, "hostile is the common case: {}", seeds.len());
        assert!(seeds.windows(2).any(|w| w[0] != w[1]), "seeds must vary");
    }
}
