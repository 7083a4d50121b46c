//! Differential oracle for the ask/tell search kernel: the GA driven
//! through [`cstuner_core::drive`] must reproduce the legacy closed-loop
//! driver ([`OpenTunerGa::tune_legacy_with_telemetry`]) *bit for bit* —
//! same best setting, same times, same curve, same fault counters, and
//! the same journal byte stream — for every stencil in the suite on both
//! reference architectures, with faults off and under a hostile profile.
//! Approximate agreement is not enough: the kernel replaced the GA's
//! production search loop, so a single reordered rng draw or one
//! differently-skipped setting would silently change tuning outcomes and
//! golden fixtures.
//!
//! The fault-injection CI leg (`CST_FORCE_LANES=4 CST_FAULT_SEED=7`)
//! reruns this binary with an ambient fault seed, which the explicit
//! per-case profiles here override.

use cst_baselines::{zoo, OpenTunerGa};
use cst_gpu_sim::{FaultProfile, GpuArch};
use cst_stencil::suite;
use cst_telemetry::{strip_wall_fields, Telemetry};
use cst_testkit::outcomes_bit_equal;
use cstuner_core::SimEvaluator;

/// Normalize a journal for legacy-vs-kernel comparison: strip wall-clock
/// fields, drop the kernel's `search` span records (the one intentional
/// addition — the legacy driver never emitted spans), and erase the
/// `seq` numbers and the `journal_end` record count those extra records
/// shift.
fn normalize(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.contains("\"type\":\"span_start\"") && !l.contains("\"type\":\"span_end\""))
        .map(|l| erase_count(&erase_count(&strip_wall_fields(l), ",\"seq\":"), ",\"events\":"))
        .collect()
}

/// `line` with the digits after the first `key` removed.
fn erase_count(line: &str, key: &str) -> String {
    match line.find(key) {
        Some(i) => {
            let rest = &line[i + key.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            format!("{}{}", &line[..i], &rest[end..])
        }
        None => line.to_string(),
    }
}

/// Run the same (stencil, arch, profile, seed, budget) through both GA
/// drivers on independent same-seed evaluators and require bit-identical
/// outcomes and byte-identical journals.
fn legacy_vs_kernel(
    stencil: &str,
    arch: &GpuArch,
    profile: FaultProfile,
    seed: u64,
    budget_s: f64,
) {
    let spec =
        suite::spec_by_name(stencil).unwrap_or_else(|| panic!("unknown stencil `{stencil}`"));

    let tel_legacy = Telemetry::in_memory();
    let mut eval = SimEvaluator::with_budget(spec.clone(), arch.clone(), seed, budget_s)
        .with_fault_profile(profile);
    eval.set_telemetry(&tel_legacy);
    let legacy = OpenTunerGa::default()
        .tune_legacy_with_telemetry(&mut eval, seed, &tel_legacy)
        .unwrap_or_else(|e| panic!("legacy {stencil}/{} seed {seed}: {e:?}", arch.name));

    let tel_kernel = Telemetry::in_memory();
    let mut eval =
        SimEvaluator::with_budget(spec, arch.clone(), seed, budget_s).with_fault_profile(profile);
    eval.set_telemetry(&tel_kernel);
    let kernel = zoo::build("opentuner", false)
        .expect("registered")
        .tune_with_telemetry(&mut eval, seed, &tel_kernel)
        .unwrap_or_else(|e| panic!("kernel {stencil}/{} seed {seed}: {e:?}", arch.name));

    outcomes_bit_equal(&legacy, &kernel)
        .unwrap_or_else(|e| panic!("{stencil}/{} seed {seed}: {e}", arch.name));
    assert_eq!(
        normalize(&tel_legacy.lines().unwrap()),
        normalize(&tel_kernel.lines().unwrap()),
        "journals diverged for {stencil}/{} seed {seed}",
        arch.name,
    );
}

/// Full suite × both arches, faults off.
#[test]
fn ga_through_the_kernel_matches_legacy_across_the_suite() {
    for (i, k) in suite::all_kernels().iter().enumerate() {
        for (j, arch) in [GpuArch::a100(), GpuArch::v100()].iter().enumerate() {
            let seed = ((i as u64) << 8) | j as u64;
            legacy_vs_kernel(k.spec.name, arch, FaultProfile::off(), seed, 25.0);
        }
    }
}

/// Hostile testbed: injected compile errors, launch failures, timeouts
/// and outliers exercise the skip/retry paths of both drivers — the
/// equivalence must survive faults, not just the happy path.
#[test]
fn ga_through_the_kernel_matches_legacy_under_hostile_faults() {
    for (stencil, seed) in [("j3d7pt", 11u64), ("cheby", 12), ("hypterm", 13)] {
        for arch in [GpuArch::a100(), GpuArch::v100()] {
            legacy_vs_kernel(stencil, &arch, FaultProfile::hostile(seed), seed, 25.0);
        }
    }
}

/// A budget so small the GA cannot finish its first generation: the
/// mid-generation skip protocol (all-skip rounds until the ledger
/// closes) is exactly where the two drivers are most likely to drift.
#[test]
fn ga_through_the_kernel_matches_legacy_on_tiny_budgets() {
    for budget in [2.0, 5.0] {
        legacy_vs_kernel("helmholtz", &GpuArch::a100(), FaultProfile::off(), 17, budget);
        legacy_vs_kernel("j3d27pt", &GpuArch::v100(), FaultProfile::hostile(19), 19, budget);
    }
}
