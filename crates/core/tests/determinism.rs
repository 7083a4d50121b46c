//! The simulator memo is semantically invisible: every cached quantity
//! equals its uncached recomputation.

use cst_gpu_sim::{GpuArch, GpuSim};
use cst_space::{ParamId, Setting};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary (canonicalized) settings, including invalid ones.
    #[test]
    fn memoized_cost_equals_uncached_cost(
        picks in prop::collection::vec(0usize..1024, cst_space::N_PARAMS),
    ) {
        let spec = cst_stencil::spec_by_name("j3d27pt").unwrap();
        let cached = GpuSim::new(spec.clone(), GpuArch::a100());
        let uncached = GpuSim::new(spec, GpuArch::a100()).without_memo();
        let space = cst_space::OptSpace::for_stencil(cached.spec());
        let mut s = Setting::baseline();
        for (p, pick) in ParamId::ALL.iter().zip(&picks) {
            let vals = space.values(*p);
            s.set(*p, vals[pick % vals.len()]);
        }
        space.canonicalize(&mut s);
        // Twice, so the second pass reads the cache.
        for _ in 0..2 {
            prop_assert_eq!(cached.eval_cost_s(&s), uncached.eval_cost_s(&s));
            let (a, b) = (cached.kernel_time_ms(&s), uncached.kernel_time_ms(&s));
            prop_assert!(a == b || (a.is_nan() && b.is_nan()), "{} vs {}", a, b);
            prop_assert_eq!(cached.resource_ok(&s), uncached.resource_ok(&s));
        }
    }
}
