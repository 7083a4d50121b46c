//! Differential oracle suite: two code paths that must agree to the bit,
//! swept over stencils, seeds and generated fault profiles.

use cst_codegen::LaunchConfig;
use cst_gpu_sim::{GpuArch, GpuSim, ValidSpace};
use cst_space::OptSpace;
use cst_stencil::{suite, suite_ext};
use cst_testkit::{
    arb_fault_profile, fault_run_determinism, memo_transparency, seeded_rng, PropRunner,
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
fn faulty_runs_reproduce_across_generated_profiles() {
    let spec = suite::spec_by_name("j3d7pt").unwrap();
    let arch = GpuArch::a100();
    let mut case = 0u64;
    PropRunner::new("faulty-runs-reproduce").cases(12).run(&arb_fault_profile(), |profile| {
        case += 1;
        fault_run_determinism(&spec, &arch, case, profile, 24)
    });
}

/// Codegen's launch configuration re-derives the model's decomposition of
/// a setting: threads per block, blocks launched and the shared tile. The
/// two must agree on every valid setting, or the tuned kernel would not
/// be the one the model timed. One difference is pinned as it stands:
/// with prefetching the model double-buffers the incoming plane in shared
/// memory, while the generated kernel keeps that buffer in registers.
#[test]
fn codegen_launch_and_model_footprint_decompose_a_setting_alike() {
    let kernels = suite::all_kernels().into_iter().chain(suite_ext::extension_kernels());
    let mut prefetching = 0;
    for (i, k) in kernels.enumerate() {
        let spec = k.spec;
        for (j, arch) in
            [GpuArch::a100(), GpuArch::v100(), GpuArch::small()].into_iter().enumerate()
        {
            let valid =
                ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec.clone(), arch));
            let mut rng = seeded_rng((i as u64) << 8 | j as u64);
            for _ in 0..300 {
                let s = valid.random_valid(&mut rng);
                let fp = valid.sim().footprint(&s);
                let launch = LaunchConfig::for_setting(&spec, &s);
                let at = format!("{} on {}: {s}", spec.name, valid.sim().arch().name);
                assert_eq!(launch.block.iter().product::<u32>(), fp.tb_size, "{at}");
                assert_eq!(
                    launch.grid.iter().map(|&g| g as u64).product::<u64>(),
                    fp.n_tbs,
                    "{at}"
                );
                // The model's prefetch buffer: one plane of the staged
                // tile across the non-streaming axes.
                let plane_bytes = if s.use_shared() && s.use_prefetching() {
                    prefetching += 1;
                    let h = 2 * spec.halo() as u64;
                    let tile = |d: usize| (launch.block[d] * launch.coverage[d]) as u64 + h;
                    let plane: u64 = (0..3).filter(|&d| d != s.sd_axis()).map(tile).product();
                    8 * spec.read_arrays.min(3) as u64 * plane
                } else {
                    0
                };
                assert_eq!(launch.shmem_bytes + plane_bytes, fp.shmem_per_tb, "{at}");
            }
        }
    }
    assert!(prefetching > 0, "no sampled setting staged a prefetched plane");
}
