//! The simulator memo is semantically invisible: a shared-memo simulator
//! serves the records and validity verdicts of its uncached twin.

use cst_gpu_sim::{GpuArch, GpuSim, ValidSpace};
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
        let mut cached = GpuSim::new(spec, GpuArch::a100());
        cached.enable_shared_memo();
        let uncached = cached.clone().without_memo();
        let space = cst_space::OptSpace::for_stencil(cached.spec());
        let mut s = Setting::baseline();
        for (p, pick) in ParamId::ALL.iter().zip(&picks) {
            let vals = space.values(*p);
            s.set(*p, vals[pick % vals.len()]);
        }
        s.canonicalize();
        let vc = ValidSpace::new(space.clone(), cached.clone());
        let vu = ValidSpace::new(space, uncached.clone());
        // Twice, so the second pass reads the cache.
        for _ in 0..2 {
            let (a, b) = (cached.evaluate_full(&s), uncached.evaluate_full(&s));
            // Debug text is exact for f64s (shortest round trip) and, unlike
            // `==`, equates NaNs.
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            prop_assert_eq!(vc.check(&s), vu.check(&s));
        }
    }
}
