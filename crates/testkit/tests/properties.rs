//! Property tests over the testkit's own generators: domain invariants
//! that every downstream consumer (GA, search, baselines) relies on.

use cst_gpu_sim::fault::OUTLIER_CAP;
use cst_gpu_sim::FaultProfile;
use cst_space::{OptSpace, ParamId};
use cst_testkit::{arb_fault_profile, arb_setting};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is idempotent: a canonical setting re-canonicalizes
    /// to itself, so generator output can be hashed/memoized safely.
    #[test]
    fn canonicalize_is_idempotent(s in arb_setting([512, 512, 512])) {
        let mut again = s;
        again.canonicalize();
        prop_assert_eq!(again, s);
    }

    /// Generated settings only take values from each parameter's live
    /// value list (the explicit space of Table I).
    #[test]
    fn generated_settings_stay_on_the_value_lattice(s in arb_setting([256, 256, 512])) {
        let space = OptSpace::for_grid([256, 256, 512]);
        for p in ParamId::ALL {
            prop_assert!(
                space.values(p).contains(&s.get(p)),
                "{:?} = {} not in the live list", p, s.get(p)
            );
        }
    }

    /// Fault decisions are pure functions of (profile, setting, attempt):
    /// re-deciding never flips, outliers stay within the cap, and the
    /// off profile never faults.
    #[test]
    fn fault_decisions_are_stable(s in arb_setting([512, 512, 512]), p in arb_fault_profile()) {
        for attempt in 0..3u32 {
            prop_assert_eq!(p.decide(&s, attempt), p.decide(&s, attempt));
            let f = p.outlier_factor(&s, attempt);
            prop_assert_eq!(f.to_bits(), p.outlier_factor(&s, attempt).to_bits());
            prop_assert!((1.0..=OUTLIER_CAP).contains(&f));
        }
        prop_assert_eq!(FaultProfile::Off.decide(&s, 0), None);
        prop_assert_eq!(FaultProfile::Off.outlier_factor(&s, 0), 1.0);
    }
}
