//! The timing half of the performance model: footprint → milliseconds.

use crate::arch::GpuArch;
use crate::footprint::{
    footprint, occ_factor, Footprint, COMPILE_PER_COMPLEXITY, OVERLAP, RUGGEDNESS, RUNS_PER_EVAL,
    RUN_TIMEOUT_MS, SPILL_COMPUTE_PENALTY,
};
use cst_space::hash::fnv1a;
use cst_space::Setting;
use cst_stencil::StencilSpec;

/// Full cost breakdown of one kernel sweep, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Arithmetic pipeline time.
    pub compute_ms: f64,
    /// DRAM traffic time.
    pub memory_ms: f64,
    /// Barrier/synchronization time of the streaming loop.
    pub sync_ms: f64,
    /// Kernel launch latency.
    pub launch_ms: f64,
    /// Final modeled kernel time (with overlap and perturbation applied).
    pub total_ms: f64,
}

/// Deterministic pseudo-random value in [-1, 1] derived from the setting,
/// the architecture and the stencil — the stand-in for unmodeled
/// microarchitectural ruggedness. SplitMix64 finalizer over the combined
/// hashes.
pub fn perturbation(spec: &StencilSpec, arch: &GpuArch, s: &Setting) -> f64 {
    let mut x = s
        .stable_hash()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(fnv1a(spec.name.bytes()))
        .wrapping_add(fnv1a(arch.name.bytes()).rotate_left(17));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Model the kernel time of one sweep under `s`.
///
/// Settings that cannot launch (shared-memory overflow, zero resident
/// blocks) get `f64::INFINITY`; spilled settings run but pay heavy local
/// traffic and issue penalties, mirroring real hardware. The tuner's
/// validity layer excludes both classes up front (§IV-B "non-spilled
/// parameter settings"), but baselines without that layer will see the
/// penalty.
pub fn kernel_cost(spec: &StencilSpec, arch: &GpuArch, s: &Setting) -> CostBreakdown {
    let f = footprint(spec, arch, s);
    kernel_cost_from_footprint(spec, arch, s, &f)
}

/// Same as [`kernel_cost`] but reusing an existing footprint.
pub fn kernel_cost_from_footprint(
    spec: &StencilSpec,
    arch: &GpuArch,
    s: &Setting,
    f: &Footprint,
) -> CostBreakdown {
    let launch_ms = arch.launch_us / 1000.0;
    if f.tb_per_sm == 0 {
        return CostBreakdown {
            compute_ms: f64::INFINITY,
            memory_ms: f64::INFINITY,
            sync_ms: 0.0,
            launch_ms,
            total_ms: f64::INFINITY,
        };
    }
    let pts = spec.total_points() as f64;
    let occ_c = occ_factor(f.occupancy, spec.class);

    // SM-level utilization: a grid smaller than one wave leaves SMs idle.
    let sm_util = f.waves.min(1.0);

    // --- Compute -------------------------------------------------------------
    let mut comp_eff = occ_c * f.ilp * f.tail_eff * sm_util;
    if s.use_constant() {
        // Broadcast coefficient reads skip the load pipeline; the benefit
        // grows with the number of coefficients up to a few percent.
        comp_eff *= 1.0 + 0.035 * (spec.coefficients as f64 / 40.0).min(1.0);
    }
    if f.spilled {
        comp_eff *= SPILL_COMPUTE_PENALTY;
    }
    let compute_ms = pts * f.flops_eff / (arch.fp64_gflops * 1e6) / comp_eff.max(1e-3);

    // --- Memory --------------------------------------------------------------
    // Coalescing waste already inflates the traffic; it also means each
    // warp keeps more bytes in flight, so the bus saturates at lower
    // occupancy — the two penalties are sub-multiplicative.
    let occ_mem = (f.occupancy / f.gld_eff.max(0.25)).min(1.0);
    let mem_eff =
        occ_factor(occ_mem, cst_stencil::StencilClass::MemoryBound) * f.tail_eff * sm_util;
    let memory_ms = f.dram_bytes / (arch.dram_gbps * 1e6) / mem_eff.max(1e-3);

    // --- Synchronization -------------------------------------------------------
    // Each streaming step ends in a block barrier when tiles live in shared
    // memory; prefetching overlaps the next plane's loads with compute and
    // hides most of the barrier (§II-B3).
    let mut sync_ms = 0.0;
    if s.use_streaming() {
        let barrier_cost = if s.use_shared() { arch.sync_us } else { arch.sync_us * 0.3 };
        let hidden = if s.use_prefetching() { 0.35 } else { 1.0 };
        sync_ms = f.waves.max(1.0) * f.stream_steps as f64 * barrier_cost * hidden / 1000.0;
    }

    let (hi, lo) =
        if compute_ms >= memory_ms { (compute_ms, memory_ms) } else { (memory_ms, compute_ms) };
    let mut total = hi + (1.0 - OVERLAP) * lo + sync_ms + launch_ms;
    total *= 1.0 + RUGGEDNESS * perturbation(spec, arch, s);
    CostBreakdown { compute_ms, memory_ms, sync_ms, launch_ms, total_ms: total }
}

/// Wall-clock cost (seconds) of *evaluating* this setting during
/// auto-tuning: building/launching the kernel variant plus the timed runs.
/// The base reflects the paper's §V-F accounting, where sampled kernels
/// are pre-generated and batch-compiled so the online search is dominated
/// by launching and timing; the residual build share still grows with
/// generated code size (unrolled/merged bodies are bigger).
pub fn eval_cost_s(spec: &StencilSpec, arch: &GpuArch, s: &Setting, kernel_ms: f64) -> f64 {
    let uf: u64 = s.uf().iter().map(|&v| v as u64).product();
    let body = s.bm().iter().chain(s.cm().iter()).map(|&v| v as u64).product::<u64>();
    let complexity = spec.flops as f64 / 10.0
        * (1.0 + (uf.min(64) as f64).log2() + 0.5 * (body.min(64) as f64).log2());
    let compile = arch.compile_base_s * (1.0 + COMPILE_PER_COMPLEXITY * complexity);
    let runs = if kernel_ms.is_finite() {
        RUNS_PER_EVAL as f64 * kernel_ms.min(RUN_TIMEOUT_MS) / 1000.0
    } else {
        0.0
    };
    compile + runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;
    use cst_stencil::suite;

    fn cost(name: &str, s: &Setting) -> CostBreakdown {
        let spec = suite::spec_by_name(name).unwrap();
        kernel_cost(&spec, &GpuArch::a100(), s)
    }

    #[test]
    fn baseline_times_are_plausible() {
        // j3d7pt at 512³ with ~2 arrays of traffic on 1.5 TB/s should land
        // in the 1–50 ms range; rhs4center (666 flops/pt) should be slower.
        let t_j = cost("j3d7pt", &Setting::baseline()).total_ms;
        let t_r = cost("rhs4center", &Setting::baseline()).total_ms;
        assert!((0.5..100.0).contains(&t_j), "j3d7pt = {t_j} ms");
        assert!(t_r > t_j, "rhs4center {t_r} !> j3d7pt {t_j}");
    }

    #[test]
    fn deterministic() {
        let s = Setting::baseline().with(ParamId::UFx, 4).with(ParamId::BMx, 4);
        assert_eq!(cost("cheby", &s).total_ms, cost("cheby", &s).total_ms);
    }

    #[test]
    fn perturbation_bounded_and_setting_sensitive() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let arch = GpuArch::a100();
        let a = perturbation(&spec, &arch, &Setting::baseline());
        let b = perturbation(&spec, &arch, &Setting::baseline().with(ParamId::UFy, 2));
        assert!((-1.0..=1.0).contains(&a));
        assert_ne!(a, b);
        // Different arch shifts the landscape.
        let c = perturbation(&spec, &GpuArch::v100(), &Setting::baseline());
        assert_ne!(a, c);
    }

    #[test]
    fn unlaunchable_setting_is_infinite() {
        let s = Setting::baseline()
            .with(ParamId::UseShared, 2)
            .with(ParamId::TBx, 256)
            .with(ParamId::TBy, 4)
            .with(ParamId::BMy, 64);
        assert!(cost("hypterm", &s).total_ms.is_infinite());
    }

    #[test]
    fn spilling_hurts_a_lot() {
        let ok = Setting::baseline().with(ParamId::BMy, 4);
        let spilled = Setting::baseline().with(ParamId::BMy, 256);
        let t_ok = cost("rhs4center", &ok).total_ms;
        let t_sp = cost("rhs4center", &spilled).total_ms;
        assert!(t_sp > 2.0 * t_ok, "{t_sp} vs {t_ok}");
    }

    #[test]
    fn tiny_blocks_are_slow() {
        let tiny = Setting::baseline().with(ParamId::TBx, 1).with(ParamId::TBy, 1);
        let t_tiny = cost("j3d7pt", &tiny).total_ms;
        let t_base = cost("j3d7pt", &Setting::baseline()).total_ms;
        assert!(t_tiny > 3.0 * t_base, "{t_tiny} vs {t_base}");
    }

    #[test]
    fn prefetch_hides_streaming_sync() {
        let stream = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::TBz, 1)
            .with(ParamId::SB, 512)
            .with(ParamId::UseShared, 2);
        let pf = stream.with(ParamId::UsePrefetching, 2);
        let c0 = cost("j3d7pt", &stream);
        let c1 = cost("j3d7pt", &pf);
        assert!(c1.sync_ms < c0.sync_ms);
    }

    #[test]
    fn memory_bound_kernels_are_bandwidth_limited_at_baseline() {
        let c = cost("j3d7pt", &Setting::baseline());
        assert!(c.memory_ms > 5.0 * c.compute_ms, "j3d7pt must be strongly bandwidth-bound");
        // rhs4center starts latency/traffic-heavy too (that is why tuning
        // matters), but its arithmetic share is far larger.
        let c2 = cost("rhs4center", &Setting::baseline());
        assert!(c2.compute_ms > 0.2 * c2.memory_ms, "rhs4center compute share too small");
    }

    #[test]
    fn tuned_25d_config_shifts_rhs4center_toward_compute() {
        // Wide shared tile streamed along z: redundant reads collapse and
        // the kernel's arithmetic becomes the dominant cost.
        let tuned = Setting::baseline()
            .with(ParamId::TBx, 64)
            .with(ParamId::TBy, 4)
            .with(ParamId::TBz, 1)
            .with(ParamId::UseShared, 2)
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::SB, 320);
        let base = cost("rhs4center", &Setting::baseline());
        let t = cost("rhs4center", &tuned);
        assert!(t.total_ms < base.total_ms, "tuned {t:?} vs base {base:?}");
        assert!(
            t.compute_ms / t.memory_ms > base.compute_ms / base.memory_ms,
            "compute share must grow: tuned {t:?} vs base {base:?}"
        );
    }

    #[test]
    fn eval_cost_grows_with_unrolling() {
        let spec = suite::spec_by_name("hypterm").unwrap();
        let arch = GpuArch::a100();
        let e0 = eval_cost_s(&spec, &arch, &Setting::baseline(), 5.0);
        let unrolled = Setting::baseline().with(ParamId::UFx, 16).with(ParamId::BMx, 16);
        let e1 = eval_cost_s(&spec, &arch, &unrolled, 5.0);
        assert!(e1 > e0);
        assert!(e0 > arch.compile_base_s, "compile dominates");
    }

    #[test]
    fn v100_is_slower_than_a100() {
        let spec = suite::spec_by_name("j3d27pt").unwrap();
        let s = Setting::baseline();
        let ta = kernel_cost(&spec, &GpuArch::a100(), &s).total_ms;
        let tv = kernel_cost(&spec, &GpuArch::v100(), &s).total_ms;
        assert!(tv > ta);
    }
}
