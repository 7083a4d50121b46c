//! Property-based tests (proptest) over the core invariants:
//!
//! - parameter-space validity, canonicalization and repair,
//! - performance-model sanity (finiteness, monotone resource effects),
//! - statistics identities,
//! - GA genome encoding,
//! - code-generation structural soundness.

use cstuner::prelude::*;
use cstuner::sim::ValidSpace;
use cstuner::space::N_PARAMS;
use cstuner::stencil::suite;
use proptest::prelude::*;

/// Strategy: an arbitrary raw parameter assignment over the 512³ space.
fn raw_setting() -> impl Strategy<Value = Setting> {
    let space = OptSpace::for_grid([512, 512, 512]);
    let lens: Vec<usize> = ParamId::ALL.iter().map(|&p| space.values(p).len()).collect();
    let idx = lens.into_iter().map(|l| 0..l).collect::<Vec<_>>();
    idx.prop_map(move |choice| {
        let space = OptSpace::for_grid([512, 512, 512]);
        let mut v = [1u32; N_PARAMS];
        for (k, p) in ParamId::ALL.iter().enumerate() {
            v[k] = space.values(*p)[choice[k]];
        }
        Setting(v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn canonicalize_is_idempotent(s in raw_setting()) {
        let mut once = s;
        once.canonicalize();
        let mut twice = once;
        twice.canonicalize();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn canonicalize_resolves_dependent_violations(s in raw_setting()) {
        use cstuner::space::ConstraintViolation as CV;
        let space = OptSpace::for_grid([512, 512, 512]);
        let mut c = s;
        c.canonicalize();
        // After repair, the only permissible violations are the primary
        // ones that repair deliberately leaves alone (block shape limits,
        // merge-extent overflow, SB too large).
        match space.check_explicit(&c) {
            Ok(())
            | Err(CV::BlockTooLarge(_))
            | Err(CV::BlockSmallerThanWarp(_))
            | Err(CV::MergeExceedsExtent(_))
            | Err(CV::StreamingBlockTooLarge { .. })
            | Err(CV::BlockNotFlatAlongStream) => {}
            Err(other) => prop_assert!(false, "unrepaired dependent violation: {other:?}"),
        }
    }

    #[test]
    fn model_times_positive_or_infinite(s in raw_setting()) {
        let spec = suite::spec_by_name("cheby").unwrap();
        let sim = GpuSim::new(spec, GpuArch::a100());
        let t = sim.kernel_time_ms(&s);
        prop_assert!(t > 0.0, "non-positive time {t}");
        let fp = sim.footprint(&s);
        prop_assert!(fp.regs_per_thread > 0.0);
        prop_assert!((0.0..=1.0).contains(&fp.occupancy));
        prop_assert!((0.0..=1.0).contains(&fp.tail_eff));
        prop_assert!(fp.gld_eff > 0.0 && fp.gld_eff <= 1.0);
    }

    #[test]
    fn valid_settings_always_have_finite_time(seed in 0u64..500) {
        let spec = suite::spec_by_name("hypterm").unwrap();
        let vs = ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec, GpuArch::a100()));
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let s = vs.random_valid(&mut rng);
        let t = vs.sim().kernel_time_ms(&s);
        prop_assert!(t.is_finite(), "valid setting with infinite time: {s}");
    }

    #[test]
    fn metrics_stay_in_declared_ranges(seed in 0u64..300) {
        let spec = suite::spec_by_name("addsgd6").unwrap();
        let sim = GpuSim::new(spec, GpuArch::v100());
        let space = OptSpace::for_grid([320, 320, 320]);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let s = space.random_explicit_valid(&mut rng);
        let report = sim.profile(&s);
        for (i, name) in cstuner::sim::METRIC_NAMES.iter().enumerate() {
            let v = report.values[i];
            prop_assert!(v.is_finite(), "{name} not finite");
            if name.ends_with(".pct") {
                prop_assert!((0.0..=100.0).contains(&v), "{name} = {v}");
            } else {
                prop_assert!(v >= 0.0, "{name} = {v}");
            }
        }
    }

    #[test]
    fn cv_is_scale_invariant(values in prop::collection::vec(0.1f64..1000.0, 2..40), k in 0.1f64..100.0) {
        let cv1 = cstuner::stats::coefficient_of_variation(&values);
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        let cv2 = cstuner::stats::coefficient_of_variation(&scaled);
        prop_assert!((cv1 - cv2).abs() < 1e-9 * (1.0 + cv1.abs()));
    }

    #[test]
    fn pearson_is_bounded_and_shift_invariant(
        pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..50),
        dx in -50.0f64..50.0,
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = cstuner::stats::pearson(&x, &y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        let xs: Vec<f64> = x.iter().map(|v| v + dx).collect();
        let r2 = cstuner::stats::pearson(&xs, &y);
        prop_assert!((r - r2).abs() < 1e-6, "{r} vs {r2}");
    }

    #[test]
    fn genome_mutation_stays_in_range(
        cards in prop::collection::vec(1u32..64, 1..16),
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        use cstuner::ga::Genome;
        let g = Genome::new(cards);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let mut ind = g.random(&mut rng);
        for _ in 0..8 {
            g.mutate(&mut ind, rate, &mut rng);
            prop_assert!(g.in_range(&ind));
        }
    }

    #[test]
    fn codegen_braces_balance_for_valid_settings(seed in 0u64..200) {
        let kernel = suite::kernel_by_name("helmholtz").unwrap();
        let space = OptSpace::for_stencil(&kernel.spec);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let s = space.random_explicit_valid(&mut rng);
        let src = cstuner::codegen::generate_cuda(&kernel, &s);
        let mut depth = 0i64;
        for ch in src.code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0, "closing brace before opening");
        }
        prop_assert_eq!(depth, 0, "unbalanced braces");
    }

    #[test]
    fn pmnf_predictions_are_finite(seed in 0u64..100) {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), seed);
        let ds = cstuner::core::PerfDataset::collect(&mut e, 24, seed);
        let xs = ds.param_values();
        let y = ds.times();
        let groups: Vec<Vec<usize>> = (0..N_PARAMS).map(|i| vec![i]).collect();
        let m = cstuner::stats::fit_pmnf(&xs, &y, &groups);
        for x in &xs {
            prop_assert!(m.predict(x).is_finite());
        }
    }
}
