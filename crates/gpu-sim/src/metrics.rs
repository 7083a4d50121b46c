//! Nsight-style profiling metrics synthesized from the model state.
//!
//! The paper collects "numerous GPU metrics" per sampled setting with
//! Nsight Compute and combines them by Pearson correlation (§IV-D,
//! Algorithm 2). Here the same role is played by sixteen observables
//! derived from the footprint and cost breakdown: they are genuinely
//! correlated with each other and with runtime through shared underlying
//! factors (occupancy, coalescing, cache capture, spill state), which is
//! what the metric-combination algorithm needs to exercise.

use crate::arch::GpuArch;
use crate::cost::CostBreakdown;
use crate::footprint::Footprint;
use cst_stencil::StencilSpec;

/// Number of synthesized metrics.
pub const N_METRICS: usize = 16;

/// Names of the synthesized metrics, in [`MetricsReport::values`] order,
/// mirroring Nsight Compute counter names.
pub const METRIC_NAMES: [&str; N_METRICS] = [
    "sm__throughput.pct",
    "achieved_occupancy.pct",
    "l1tex__hit_rate.pct",
    "lts__hit_rate.pct",
    "dram__read_throughput.gbps",
    "dram__write_throughput.gbps",
    "smsp__gld_efficiency.pct",
    "smsp__gst_efficiency.pct",
    "warp_execution_efficiency.pct",
    "smsp__ipc.ratio",
    "stall_long_scoreboard.pct",
    "stall_barrier.pct",
    "launch__registers_per_thread.count",
    "launch__shared_mem_per_block.bytes",
    "dp_flop_efficiency.pct",
    "local_memory_overhead.pct",
];

/// One profiled run: the modeled kernel time and the metric vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Modeled kernel execution time in milliseconds.
    pub time_ms: f64,
    /// Metric values in [`METRIC_NAMES`] order.
    pub values: [f64; N_METRICS],
}

impl MetricsReport {
    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        METRIC_NAMES.iter().position(|&n| n == name).map(|i| self.values[i])
    }
}

/// Synthesize the metric vector for a profiled setting.
pub fn synthesize(
    spec: &StencilSpec,
    arch: &GpuArch,
    f: &Footprint,
    c: &CostBreakdown,
) -> MetricsReport {
    let t = c.total_ms.max(1e-6);
    let pts = spec.total_points() as f64;
    let unlaunchable = !c.total_ms.is_finite();

    let mut v = [0.0f64; N_METRICS];
    if !unlaunchable {
        let flops_total = pts * f.flops_eff;
        let dp_peak = arch.fp64_gflops * 1e6; // flops per ms
        let compute_frac = (c.compute_ms / t).min(1.0);
        let memory_frac = (c.memory_ms / t).min(1.0);

        v[0] = 100.0 * compute_frac.max(memory_frac) * f.waves.min(1.0); // sm throughput
        v[1] = 100.0 * f.occupancy;
        // L1 captures the register/shared-adjacent reuse; L2 the rest.
        v[2] = 100.0 * (0.25 + 0.65 * f.cache_capture).min(0.99);
        v[3] = 100.0 * (0.15 + 0.55 * f.cache_capture).min(0.95);
        v[4] = f.dram_bytes
            * (f.reads_eff * 8.0 / (f.reads_eff * 8.0 + spec.write_arrays as f64 * 8.0))
            / (t * 1e6);
        v[5] = f.dram_bytes
            * (spec.write_arrays as f64 * 8.0
                / (f.reads_eff * 8.0 + spec.write_arrays as f64 * 8.0))
            / (t * 1e6);
        v[6] = 100.0 * f.gld_eff;
        v[7] = 100.0 * f.gst_eff;
        v[8] = 100.0 * f.tail_eff;
        // IPC proxy: issued instructions ≈ flops + loads; scaled by time.
        let instrs = flops_total + pts * f.reads_eff;
        v[9] = (instrs / (t * 1e6 * arch.sm_count as f64)).min(64.0);
        v[10] = 100.0 * memory_frac * (1.0 - f.cache_capture).clamp(0.0, 1.0);
        v[11] = 100.0 * (c.sync_ms / t).min(1.0);
        v[12] = f.regs_per_thread.min(arch.max_regs_per_thread as f64);
        v[13] = f.shmem_per_tb as f64;
        v[14] = 100.0 * (flops_total / (dp_peak * t)).min(1.0);
        v[15] = if f.spilled {
            100.0 * ((f.regs_per_thread - arch.max_regs_per_thread as f64) / 64.0).clamp(0.02, 1.0)
        } else {
            0.0
        };
    } else {
        v[12] = f.regs_per_thread;
        v[13] = f.shmem_per_tb as f64;
    }

    MetricsReport { time_ms: c.total_ms, values: v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kernel_cost_from_footprint;
    use crate::footprint::footprint;
    use cst_space::{ParamId, Setting};
    use cst_stencil::suite;

    fn report(name: &str, s: &Setting) -> MetricsReport {
        let spec = suite::spec_by_name(name).unwrap();
        let arch = GpuArch::a100();
        let f = footprint(&spec, &arch, s);
        let c = kernel_cost_from_footprint(&spec, &arch, s, &f);
        synthesize(&spec, &arch, &f, &c)
    }

    #[test]
    fn names_match_vector_len() {
        assert_eq!(METRIC_NAMES.len(), N_METRICS);
        let mut sorted = METRIC_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), N_METRICS, "metric names must be unique");
    }

    #[test]
    fn percentages_stay_in_range() {
        let r = report("cheby", &Setting::baseline());
        for (i, name) in METRIC_NAMES.iter().enumerate() {
            if name.ends_with(".pct") {
                assert!(
                    (0.0..=100.0).contains(&r.values[i]),
                    "{name} = {} out of range",
                    r.values[i]
                );
            }
        }
    }

    #[test]
    fn get_by_name_works() {
        let r = report("j3d7pt", &Setting::baseline());
        assert_eq!(r.get("achieved_occupancy.pct"), Some(r.values[1]));
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    fn occupancy_metric_tracks_footprint() {
        let low = Setting::baseline().with(ParamId::BMy, 64); // heavy registers
        let r_base = report("rhs4center", &Setting::baseline());
        let r_low = report("rhs4center", &low);
        assert!(
            r_low.get("launch__registers_per_thread.count")
                > r_base.get("launch__registers_per_thread.count")
        );
    }

    #[test]
    fn spill_metric_fires_only_when_spilled() {
        let r0 = report("rhs4center", &Setting::baseline());
        assert_eq!(r0.get("local_memory_overhead.pct"), Some(0.0));
        let r1 = report("rhs4center", &Setting::baseline().with(ParamId::BMy, 256));
        assert!(r1.get("local_memory_overhead.pct").unwrap() > 0.0);
    }

    #[test]
    fn dram_throughput_bounded_by_hardware() {
        let r = report("j3d7pt", &Setting::baseline());
        let total = r.get("dram__read_throughput.gbps").unwrap()
            + r.get("dram__write_throughput.gbps").unwrap();
        // Modeled traffic over modeled time can't exceed ~2× of spec
        // (waste bytes count against the same wall clock).
        assert!(total < 2.0 * GpuArch::a100().dram_gbps, "total = {total}");
        assert!(total > 10.0, "suspiciously idle DRAM: {total}");
    }
}
