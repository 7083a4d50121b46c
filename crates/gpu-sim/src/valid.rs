//! Composition of explicit and implicit validity: the searchable space.
//!
//! §IV-B: *"csTuner checks the above constraints before generating the
//! search codes so that only non-spilled parameter settings are explored."*
//! Explicit constraints live in `cst-space`; the implicit resource
//! constraints (register spilling, shared-memory overflow) need the GPU
//! model, so the composed check lives here. It reads the model's
//! footprint stage alone: a cost record is built only for a setting that
//! is measured, profiled or timed.

use crate::sim::GpuSim;
use cst_space::{OptSpace, Setting};
use rand::Rng;

/// Why a setting is excluded from the search space.
#[derive(Debug, Clone, PartialEq)]
pub enum Invalid {
    /// An explicit Table I constraint failed.
    Explicit(cst_space::ConstraintViolation),
    /// The register estimate exceeds the per-thread file (spill).
    RegisterSpill { regs: f64, limit: u32 },
    /// The shared-memory tile exceeds the per-block limit.
    SharedOverflow { bytes: u64, limit: u32 },
    /// Not a single block fits on an SM (e.g. the block's aggregate
    /// register demand exceeds the SM register file).
    Unlaunchable,
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invalid::Explicit(v) => write!(f, "explicit constraint: {v}"),
            Invalid::RegisterSpill { regs, limit } => {
                write!(f, "register spill: {regs:.0} > {limit}")
            }
            Invalid::SharedOverflow { bytes, limit } => {
                write!(f, "shared overflow: {bytes} > {limit}")
            }
            Invalid::Unlaunchable => write!(f, "no thread block fits on an SM"),
        }
    }
}

/// The explicit space paired with a simulator for resource checks.
#[derive(Debug, Clone)]
pub struct ValidSpace {
    space: OptSpace,
    sim: GpuSim,
}

impl ValidSpace {
    /// Pair a space with a simulator. The space must have been built for
    /// the simulator's stencil grid.
    ///
    /// # Panics
    /// Panics if the grids disagree.
    pub fn new(space: OptSpace, sim: GpuSim) -> Self {
        assert_eq!(space.grid(), sim.spec().grid, "space/simulator grid mismatch");
        ValidSpace { space, sim }
    }

    /// The underlying explicit space.
    pub fn space(&self) -> &OptSpace {
        &self.space
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &GpuSim {
        &self.sim
    }

    /// Opt this space's simulator into the process-wide shared memo —
    /// see [`GpuSim::enable_shared_memo`].
    pub fn enable_shared_memo(&mut self) {
        self.sim.enable_shared_memo();
    }

    /// Full validity check: explicit constraints, then resources. The one
    /// resource rule; it builds no cost record and touches no memo.
    pub fn check(&self, s: &Setting) -> Result<(), Invalid> {
        self.space.check_explicit(s).map_err(Invalid::Explicit)?;
        self.check_resources(s)
    }

    /// The resource half of [`ValidSpace::check`], for a setting already
    /// known to be explicitly valid.
    fn check_resources(&self, s: &Setting) -> Result<(), Invalid> {
        let f = self.sim.footprint(s);
        if f.shmem_overflow {
            return Err(Invalid::SharedOverflow {
                bytes: f.shmem_per_tb,
                limit: self.sim.arch().shmem_per_tb,
            });
        }
        if f.spilled {
            return Err(Invalid::RegisterSpill {
                regs: f.regs_per_thread,
                limit: self.sim.arch().max_regs_per_thread,
            });
        }
        if f.tb_per_sm == 0 {
            return Err(Invalid::Unlaunchable);
        }
        Ok(())
    }

    /// Whether a setting is fully valid.
    pub fn is_valid(&self, s: &Setting) -> bool {
        self.check(s).is_ok()
    }

    /// Rejection-sample one fully valid setting: draw explicitly valid
    /// settings ([`OptSpace::random_explicit_valid`]) until one passes the
    /// resource check. Only those draws reach the footprint stage, and
    /// the stream and the settings are those of canonicalizing every raw
    /// draw and running the full [`ValidSpace::check`] on it.
    pub fn random_valid(&self, rng: &mut impl Rng) -> Setting {
        loop {
            let s = self.space.random_explicit_valid(rng);
            if self.check_resources(&s).is_ok() {
                return s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use cst_space::ParamId;
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn vs(name: &str) -> ValidSpace {
        let spec = suite::spec_by_name(name).unwrap();
        let space = OptSpace::for_stencil(&spec);
        ValidSpace::new(space, GpuSim::new(spec, GpuArch::a100()))
    }

    #[test]
    fn baseline_is_fully_valid_for_all_kernels() {
        for k in suite::all_kernels() {
            let v = vs(k.spec.name);
            assert!(v.is_valid(&Setting::baseline()), "{}", k.spec.name);
        }
    }

    #[test]
    fn spill_is_reported_as_implicit() {
        let v = vs("rhs4center");
        let s = Setting::baseline().with(ParamId::BMy, 256);
        match v.check(&s) {
            Err(Invalid::RegisterSpill { regs, limit }) => {
                assert!(regs > limit as f64);
            }
            other => panic!("expected spill, got {other:?}"),
        }
    }

    #[test]
    fn random_valid_never_spills() {
        let v = vs("addsgd6");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let s = v.random_valid(&mut rng);
            assert!(v.is_valid(&s));
            assert!(!v.sim().footprint(&s).spilled);
        }
    }

    #[test]
    fn random_valid_draws_the_full_check_loops_stream() {
        // The reference is the loop `random_valid` replaced: canonicalize
        // every raw draw and run the full check on it.
        let kernels =
            suite::all_kernels().into_iter().chain(cst_stencil::suite_ext::extension_kernels());
        for (i, k) in kernels.enumerate() {
            for arch in [GpuArch::a100(), GpuArch::v100(), GpuArch::small()] {
                let space = OptSpace::for_stencil(&k.spec);
                let v = ValidSpace::new(space, GpuSim::new(k.spec.clone(), arch.clone()));
                let mut rng = StdRng::seed_from_u64(i as u64);
                let mut reference = rng.clone();
                for _ in 0..16 {
                    let expected = loop {
                        let mut s = v.space().random_raw(&mut reference);
                        s.canonicalize();
                        if v.is_valid(&s) {
                            break s;
                        }
                    };
                    assert_eq!(v.random_valid(&mut rng), expected, "{} {}", k.spec.name, arch.name);
                }
                assert_eq!(rng.next_u64(), reference.next_u64(), "{} {}", k.spec.name, arch.name);
            }
        }
    }

    #[test]
    fn the_check_leaves_the_shared_memo_alone() {
        // (j3d7pt, v100) is this test's private registry key: no other
        // test in this binary opts that pair in, so its entries are ours.
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let arch = GpuArch::v100();
        let mut v = ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec, arch.clone()));
        v.enable_shared_memo();
        let entries = || {
            crate::registry::shared_memo_stats()
                .iter()
                .find(|r| r.stencil == "j3d7pt" && r.arch == arch.name)
                .map(|r| r.entries)
        };
        let before = entries();
        assert_eq!(before, Some(0));
        // The draws `random_valid` rejection-samples.
        let mut rng = StdRng::seed_from_u64(13);
        let mut valid = 0;
        for _ in 0..1000 {
            let mut s = v.space().random_raw(&mut rng);
            s.canonicalize();
            valid += v.is_valid(&s) as usize;
        }
        assert!(valid > 0, "no draw reached the resource check and passed");
        assert_eq!(entries(), before, "the validity check cached records");
    }
}
