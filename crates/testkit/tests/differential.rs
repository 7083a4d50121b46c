//! Differential oracle suite: two code paths that must agree to the bit,
//! swept over stencils, seeds and generated fault profiles.

use cst_gpu_sim::GpuArch;
use cst_stencil::suite;
use cst_testkit::{
    arb_fault_profile, fault_run_determinism, memo_transparency, zero_fault_transparency,
    PropRunner,
};

const STENCILS: [&str; 3] = ["j3d7pt", "cheby", "helmholtz"];

#[test]
fn memoized_and_unmemoized_sim_agree() {
    for (i, name) in STENCILS.iter().enumerate() {
        let spec = suite::spec_by_name(name).unwrap();
        memo_transparency(&spec, &GpuArch::a100(), i as u64, 48).unwrap();
    }
    // A second architecture: the memo key must not leak across arch params.
    let spec = suite::spec_by_name("j3d7pt").unwrap();
    memo_transparency(&spec, &GpuArch::v100(), 9, 48).unwrap();
}

#[test]
fn zero_probability_profile_is_the_fault_free_path() {
    for (i, name) in STENCILS.iter().enumerate() {
        let spec = suite::spec_by_name(name).unwrap();
        zero_fault_transparency(&spec, &GpuArch::a100(), i as u64, 48).unwrap();
    }
}

#[test]
fn faulty_runs_reproduce_across_generated_profiles() {
    let spec = suite::spec_by_name("j3d7pt").unwrap();
    let arch = GpuArch::a100();
    let mut case = 0u64;
    PropRunner::new("faulty-runs-reproduce").cases(12).run(&arb_fault_profile(), |profile| {
        case += 1;
        fault_run_determinism(&spec, &arch, case, profile, 24)
    });
}
