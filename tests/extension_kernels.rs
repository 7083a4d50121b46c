//! The scalability claim end-to-end: kernels that are *not* part of the
//! paper's evaluation suite flow through the identical pipeline — space
//! construction, simulation, tuning and code generation — with zero
//! tuner changes.

use cstuner::prelude::*;
use cstuner::stencil::suite_ext;

#[test]
fn extension_kernels_tune_end_to_end() {
    for kernel in suite_ext::extension_kernels() {
        let mut eval = SimEvaluator::new(kernel.spec.clone(), GpuArch::a100(), 11);
        let cfg = CsTunerConfig {
            dataset_size: 48,
            max_iterations: 8,
            codegen_cap: 4,
            ..Default::default()
        };
        let out = CsTuner::new(cfg).tune(&mut eval, 11).unwrap_or_else(|e| {
            panic!("{} failed to tune: {e}", kernel.spec.name);
        });
        assert!(out.best_time_ms.is_finite(), "{}", kernel.spec.name);
        // Pre-processing generates CUDA for the sampled settings here too.
        assert!(out.preproc.codegen_s > 0.0, "{}: no code generated", kernel.spec.name);
        // `best_time_ms` carries measurement noise and the short budget
        // (8 iterations) may not beat an already near-optimal default for
        // the bandwidth-trivial kernels — allow a small tolerance.
        let baseline = eval.sim().kernel_time_ms(&Setting::baseline());
        assert!(
            out.best_time_ms <= baseline * 1.15,
            "{}: tuned {} vs baseline {}",
            kernel.spec.name,
            out.best_time_ms,
            baseline
        );
        // The winner is code-generatable.
        let src = generate_cuda(&kernel, &out.best_setting);
        assert!(src.code.contains("__global__"), "{}", kernel.spec.name);
    }
}

#[test]
fn extension_kernels_profile_with_metrics() {
    for kernel in suite_ext::extension_kernels() {
        let sim = GpuSim::new(kernel.spec.clone(), GpuArch::v100());
        let report = sim.profile(&Setting::baseline());
        assert!(report.time_ms.is_finite(), "{}", kernel.spec.name);
        assert!(report.get("achieved_occupancy.pct").unwrap() > 0.0);
    }
}
