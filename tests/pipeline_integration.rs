//! Cross-crate integration tests: the full csTuner pipeline, the baseline
//! tuners and the code generator working together through the public
//! facade, across the Table III suite and both architecture presets.

use cstuner::prelude::*;
use cstuner::stencil::suite;

fn quick_cfg() -> CsTunerConfig {
    CsTunerConfig { dataset_size: 48, max_iterations: 12, codegen_cap: 8, ..Default::default() }
}

#[test]
fn cstuner_tunes_every_suite_stencil() {
    for kernel in suite::all_kernels() {
        let mut eval = SimEvaluator::new(kernel.spec.clone(), GpuArch::a100(), 3);
        let out = CsTuner::new(quick_cfg()).tune(&mut eval, 3).unwrap();
        assert!(out.best_time_ms.is_finite(), "{}", kernel.spec.name);
        assert!(eval.is_valid(&out.best_setting), "{} returned invalid setting", kernel.spec.name);
        // The tuned setting must beat the untuned default (up to the
        // ±1.5%σ measurement noise on the reported best, since the
        // baseline here is the noise-free model value).
        let baseline = eval.sim().kernel_time_ms(&Setting::baseline());
        assert!(
            out.best_time_ms <= baseline * 1.05,
            "{}: tuned {} vs baseline {}",
            kernel.spec.name,
            out.best_time_ms,
            baseline
        );
    }
}

#[test]
fn tuned_setting_produces_generatable_cuda() {
    let kernel = suite::cheby();
    let mut eval = SimEvaluator::new(kernel.spec.clone(), GpuArch::a100(), 5);
    let out = CsTuner::new(quick_cfg()).tune(&mut eval, 5).unwrap();
    let src = generate_cuda(&kernel, &out.best_setting);
    assert!(src.code.contains("__global__ void"));
    assert!(src.launch.total_threads() > 0);
    // The launch covers the whole grid.
    let covered: u64 = (0..3)
        .map(|d| {
            src.launch.grid[d] as u64 * src.launch.block[d] as u64 * src.launch.coverage[d] as u64
        })
        .product();
    assert!(covered >= kernel.spec.total_points() as u64);
}

#[test]
fn all_tuners_complete_under_iso_time_budget() {
    let spec = suite::spec_by_name("helmholtz").unwrap();
    let mut tuners: Vec<(&str, Box<dyn Tuner>)> = vec![
        ("csTuner", Box::new(CsTuner::new(CsTunerConfig::default()))),
        ("Garvey", zoo::build("garvey", false).unwrap()),
        ("OpenTuner", zoo::build("opentuner", false).unwrap()),
        ("Artemis", zoo::build("artemis", false).unwrap()),
        ("Random", zoo::build("random", false).unwrap()),
    ];
    for (name, tuner) in tuners.iter_mut() {
        let mut eval = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), 1, 40.0);
        let out = tuner.tune(&mut eval, 1).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(out.best_time_ms.is_finite(), "{name}");
        assert!(out.search_s <= 45.0, "{name} took {}s", out.search_s);
        // Curves are monotone non-increasing in best and non-decreasing in
        // time/iteration.
        for w in out.curve.windows(2) {
            assert!(w[1].best_ms <= w[0].best_ms, "{name}");
            assert!(w[1].elapsed_s >= w[0].elapsed_s, "{name}");
        }
    }
}

#[test]
fn cstuner_beats_random_search_iso_time() {
    // Averaged over seeds so a lucky random draw cannot flip the verdict.
    let spec = suite::spec_by_name("rhs4center").unwrap();
    let mut cs_total = 0.0;
    let mut rnd_total = 0.0;
    for seed in 0..4 {
        let mut e1 = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), seed, 60.0);
        cs_total +=
            CsTuner::new(CsTunerConfig::default()).tune(&mut e1, seed).unwrap().best_time_ms;
        let mut e2 = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), seed, 60.0);
        rnd_total += zoo::build("random", false).unwrap().tune(&mut e2, seed).unwrap().best_time_ms;
    }
    assert!(
        cs_total < rnd_total,
        "csTuner mean {} must beat random mean {}",
        cs_total / 4.0,
        rnd_total / 4.0
    );
}

#[test]
fn v100_tuning_works_and_differs_from_a100() {
    let spec = suite::spec_by_name("j3d27pt").unwrap();
    let mut e_a = SimEvaluator::new(spec.clone(), GpuArch::a100(), 2);
    let mut e_v = SimEvaluator::new(spec.clone(), GpuArch::v100(), 2);
    let out_a = CsTuner::new(quick_cfg()).tune(&mut e_a, 2).unwrap();
    let out_v = CsTuner::new(quick_cfg()).tune(&mut e_v, 2).unwrap();
    // V100 is the slower part; tuned times must reflect that.
    assert!(out_v.best_time_ms > out_a.best_time_ms * 0.9);
}

#[test]
fn outcome_report_is_self_consistent() {
    let spec = suite::spec_by_name("addsgd4").unwrap();
    let mut eval = SimEvaluator::new(spec, GpuArch::a100(), 9);
    let out = CsTuner::new(quick_cfg()).tune(&mut eval, 9).unwrap();
    assert_eq!(out.tuner, "csTuner");
    let final_curve = out.curve.last().unwrap();
    assert_eq!(final_curve.best_ms, out.best_time_ms);
    assert!(out.evaluations > 0);
    assert!(out.preproc.total_s() >= 0.0);
}
