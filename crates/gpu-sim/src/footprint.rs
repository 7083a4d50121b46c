//! Resource footprint of a stencil kernel under a parameter setting.
//!
//! This is the first half of the performance model: a deterministic mapping
//! from (stencil, architecture, setting) to the quantities that govern GPU
//! behaviour — per-thread registers, per-block shared memory, thread/block
//! decomposition, occupancy, coalescing efficiency and DRAM traffic. The
//! second half ([`crate::cost`]) turns the footprint into time.

use crate::arch::GpuArch;
use cst_space::Setting;
use cst_stencil::{StencilClass, StencilSpec};

// The model's calibration: one value per constant for every stencil and
// architecture, all of them this tree's choice (the paper measures real
// GPUs). `crate::precomp` reads the same constants, so an A/B of the
// calibration edits one line here.

/// Intrinsic register base for any kernel (this tree's calibration).
pub(crate) const REG_BASE: f64 = 18.0;
/// Registers per FLOP of straight-line arithmetic (this tree's calibration).
pub(crate) const REG_PER_FLOP: f64 = 0.085;
/// Registers (f64 pairs) per concurrently-merged output point (this tree's
/// calibration).
pub(crate) const REG_PER_MERGE: f64 = 2.0;
/// Extra live registers per additional unrolled iteration (this tree's
/// calibration).
pub(crate) const REG_PER_UNROLL: f64 = 2.6;
/// Register relief factor when retiming homogenizes accesses (this tree's
/// calibration).
pub(crate) const RETIMING_REG_RELIEF: f64 = 0.75;
/// FLOP overhead factor of retiming's extra accumulations (this tree's
/// calibration).
pub(crate) const RETIMING_FLOP_COST: f64 = 1.08;
/// Registers of the per-thread prefetch double buffer, per read array
/// (this tree's calibration).
pub(crate) const PREFETCH_REG_PER_ARRAY: f64 = 2.0;
/// Half-saturation occupancy of latency hiding for compute-bound kernels
/// (this tree's calibration).
pub(crate) const OCC_HALF_COMPUTE: f64 = 0.08;
/// Same for memory-bound kernels, which need more warps in flight (this
/// tree's calibration).
pub(crate) const OCC_HALF_MEMORY: f64 = 0.18;
/// ILP gain per log2 of the unroll product (this tree's calibration).
pub(crate) const ILP_GAIN: f64 = 0.06;
/// Compute-efficiency multiplier once registers spill (this tree's
/// calibration).
pub(crate) const SPILL_COMPUTE_PENALTY: f64 = 0.35;
/// Extra DRAM bytes per spilled register per point (this tree's
/// calibration).
pub(crate) const SPILL_BYTES_PER_REG: f64 = 0.16;
/// Fraction of compute/memory overlap the hardware achieves (this tree's
/// calibration).
pub(crate) const OVERLAP: f64 = 0.75;
/// Multiplicative amplitude of the deterministic per-setting perturbation
/// standing in for unmodeled microarchitectural effects (this tree's
/// calibration).
pub(crate) const RUGGEDNESS: f64 = 0.06;
/// Timed runs per evaluated setting (this tree's calibration).
pub(crate) const RUNS_PER_EVAL: u32 = 3;
/// Per-run timeout in milliseconds: auto-tuners abort kernels that run
/// absurdly long instead of waiting them out, so a setting's charged run
/// time is capped here (this tree's calibration).
pub(crate) const RUN_TIMEOUT_MS: f64 = 400.0;
/// Compile-time growth per unit of generated-code complexity (this tree's
/// calibration).
pub(crate) const COMPILE_PER_COMPLEXITY: f64 = 0.004;

/// Everything the cost model needs about a (stencil, setting) pair on a
/// specific architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Estimated registers per thread (before the 255 cap).
    pub regs_per_thread: f64,
    /// Whether the estimate exceeds the hard per-thread register file.
    pub spilled: bool,
    /// Shared memory per thread block in bytes (0 when staging is off).
    pub shmem_per_tb: u64,
    /// Whether the block's shared memory exceeds the per-block limit.
    pub shmem_overflow: bool,
    /// Threads launched in total.
    pub threads_total: u64,
    /// Thread block size in threads.
    pub tb_size: u32,
    /// Thread blocks launched.
    pub n_tbs: u64,
    /// Resident blocks per SM under all limits (0 if unlaunchable).
    pub tb_per_sm: u32,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// Number of full block waves over the whole device.
    pub waves: f64,
    /// Fraction of launched threads doing useful work (tile tails).
    pub tail_eff: f64,
    /// Global-load coalescing efficiency in (0, 1].
    pub gld_eff: f64,
    /// Global-store coalescing efficiency in (0, 1].
    pub gst_eff: f64,
    /// Effective DRAM reads per output point (after reuse).
    pub reads_eff: f64,
    /// DRAM traffic in bytes for one sweep (including waste and spills).
    pub dram_bytes: f64,
    /// FLOPs per point after retiming/constant adjustments.
    pub flops_eff: f64,
    /// Instruction-level-parallelism factor from unrolling.
    pub ilp: f64,
    /// Serial streaming steps each thread performs (1 when not streaming).
    pub stream_steps: u64,
    /// Fraction of reads served by on-chip caches (for metric synthesis).
    pub cache_capture: f64,
    /// Unroll product actually effective.
    pub uf_prod: u64,
    /// Concurrently-merged points per thread.
    pub merged_pts: u64,
}

/// Compute the footprint. Pure and cheap (a few hundred FLOPs), so tuners
/// can call it millions of times.
pub fn footprint(spec: &StencilSpec, arch: &GpuArch, s: &Setting) -> Footprint {
    let h = spec.halo() as u64;
    let ext = [spec.grid[0] as u64, spec.grid[1] as u64, spec.grid[2] as u64];
    let streaming = s.use_streaming();
    let sd = s.sd_axis();
    let sb = s.sb() as u64;
    let bm = s.bm().map(|v| v as u64);
    let cm = s.cm().map(|v| v as u64);
    let uf = s.uf().map(|v| v as u64);
    let tb = s.tb().map(|v| v as u64);

    // --- Decomposition -----------------------------------------------------
    // Along the streaming dimension each thread serially walks its SB tile;
    // along the others each thread covers its merged points.
    let mut cover = [0u64; 3];
    let mut merged_pts = 1u64;
    for d in 0..3 {
        if streaming && d == sd {
            cover[d] = sb.max(1);
        } else {
            cover[d] = (bm[d] * cm[d]).max(1);
            merged_pts *= bm[d] * cm[d];
        }
    }
    let mut threads_d = [0u64; 3];
    let mut blocks_d = [0u64; 3];
    let mut tail_eff = 1.0f64;
    for d in 0..3 {
        threads_d[d] = ext[d].div_ceil(cover[d]);
        blocks_d[d] = threads_d[d].div_ceil(tb[d]);
        tail_eff *= threads_d[d] as f64 / (blocks_d[d] * tb[d]) as f64;
    }
    let threads_total = threads_d.iter().product();
    let n_tbs: u64 = blocks_d.iter().product();
    let tb_size = s.tb_size();

    // --- Registers ----------------------------------------------------------
    let uf_eff: u64 = (0..3).map(|d| uf[d].min(cover[d].max(1))).product::<u64>().max(1);
    let flops = spec.flops as f64;
    let mut regs = REG_BASE
        + REG_PER_FLOP * flops.min(700.0)
        + 1.2 * spec.read_arrays as f64
        + 0.8 * spec.write_arrays as f64
        + REG_PER_MERGE * (merged_pts.saturating_sub(1)) as f64
        + REG_PER_UNROLL * (uf_eff - 1) as f64;
    if s.use_prefetching() {
        regs += PREFETCH_REG_PER_ARRAY * spec.read_arrays as f64;
    }
    let mut flops_eff = flops;
    if s.use_retiming() {
        if spec.order >= 2 {
            regs *= RETIMING_REG_RELIEF;
            flops_eff *= RETIMING_FLOP_COST;
        } else {
            // Low-order stencils have little register pressure to relieve;
            // retiming only adds accumulation overhead (§II-B4).
            flops_eff *= RETIMING_FLOP_COST;
        }
    }
    if s.use_shared() {
        regs = (regs - 4.0).max(16.0);
    }
    if !s.use_constant() {
        // Coefficients kept in immediates/registers cost a few registers
        // for the larger kernels.
        regs += (spec.coefficients as f64 / 16.0).min(6.0);
    }
    let spilled = regs > arch.max_regs_per_thread as f64;

    // --- Shared memory -------------------------------------------------------
    let mut shmem_per_tb = 0u64;
    if s.use_shared() {
        let n_stage = spec.read_arrays.min(3) as u64;
        let mut tile_bytes = 8 * n_stage;
        for d in 0..3 {
            let t = if streaming && d == sd {
                2 * h + 1 // sliding window of planes
            } else {
                tb[d] * cover[d] + 2 * h
            };
            tile_bytes = tile_bytes.saturating_mul(t);
        }
        shmem_per_tb = tile_bytes;
        if s.use_prefetching() {
            // Double-buffer the incoming plane.
            let plane: u64 = (0..3)
                .filter(|&d| !(streaming && d == sd))
                .map(|d| tb[d] * cover[d] + 2 * h)
                .product();
            shmem_per_tb += 8 * n_stage * plane;
        }
    }
    let shmem_overflow = shmem_per_tb > arch.shmem_per_tb as u64;

    // --- Occupancy ------------------------------------------------------------
    let regs_granular = ((regs / 8.0).ceil() * 8.0).max(16.0);
    let mut tb_per_sm = arch.max_tb_per_sm.min(arch.max_threads_per_sm / tb_size.max(1));
    let regs_per_tb = regs_granular.min(arch.max_regs_per_thread as f64) * tb_size as f64;
    tb_per_sm = tb_per_sm.min((arch.regs_per_sm as f64 / regs_per_tb.max(1.0)) as u32);
    if shmem_per_tb > 0 {
        tb_per_sm = tb_per_sm.min((arch.shmem_per_sm as u64 / shmem_per_tb.max(1)) as u32);
    }
    if shmem_overflow || tb_size > 1024 {
        tb_per_sm = 0;
    }
    let occupancy = if tb_per_sm == 0 {
        0.0
    } else {
        ((tb_per_sm as u64 * tb_size as u64).min(arch.max_threads_per_sm as u64)) as f64
            / arch.max_threads_per_sm as f64
    };
    let device_blocks = (tb_per_sm as u64 * arch.sm_count as u64).max(1);
    let waves = n_tbs as f64 / device_blocks as f64;

    // --- Coalescing -------------------------------------------------------------
    // Warps linearize x-first: full efficiency needs ≥ a warp of threads
    // along x and unit stride between consecutive threads. Block merging in
    // x strides consecutive threads apart (§II-B2); cyclic merging keeps
    // them adjacent, which is exactly its selling point.
    let lanes_x = (tb[0].min(arch.warp_size as u64)) as f64;
    let mut gld_eff = lanes_x / arch.warp_size as f64;
    if bm[0] > 1 {
        gld_eff /= (bm[0] as f64).min(8.0);
    }
    let gld_eff = gld_eff.clamp(1.0 / 6.0, 1.0);
    let gst_eff = gld_eff; // stores stride identically in this layout

    // --- Reuse / DRAM traffic ------------------------------------------------------
    let pts = spec.total_points() as f64;
    let ra = spec.read_arrays as f64;
    let rpp = spec.reads_per_point as f64;
    // Two cache levels capture part of the neighborhood reuse. L1 serves
    // intra-warp spatial reuse, but only to the extent loads coalesce into
    // shared lines (warps thrash it otherwise); L2 serves the plane-window
    // reuse and degrades as the working set outgrows it.
    let f_l1 = 0.55 * gld_eff;
    let window_bytes = 8.0 * ra * (ext[0] * ext[1]) as f64 * (2 * h + 1) as f64;
    // Saturating capture in the L2-to-working-set ratio: a cache several
    // times larger than the plane window approaches (but never reaches)
    // full capture; a cache smaller than the window captures little.
    let ratio = arch.l2_bytes as f64 / window_bytes;
    let mut f_l2 = (0.78 * ratio / (ratio + 0.6)).clamp(0.10, 0.75);
    if streaming {
        // Register streaming along SD keeps the column window on chip.
        f_l2 = (f_l2 + 0.15).min(0.85);
    }
    let f_cache = 1.0 - (1.0 - f_l1) * (1.0 - f_l2);
    let cached_reads = |arrays: f64, taps: f64| arrays + (taps - arrays) * (1.0 - f_cache);
    let reads_eff;
    let cache_capture;
    if s.use_shared() && !shmem_overflow {
        // Staged arrays load each tile point once plus the halo overlap;
        // the remaining arrays still go through the cache hierarchy.
        let n_stage = spec.read_arrays.min(3) as f64;
        let mut overlapf = 1.0;
        for d in 0..3 {
            if streaming && d == sd {
                continue; // the sliding window removes halo re-reads
            }
            let t = (tb[d] * cover[d]) as f64;
            overlapf *= (t + 2.0 * h as f64) / t;
        }
        let unstaged = ra - n_stage;
        reads_eff = n_stage * overlapf + cached_reads(unstaged, rpp * unstaged / ra);
        cache_capture = 1.0 - (reads_eff / rpp).clamp(0.0, 1.0);
    } else {
        reads_eff = cached_reads(ra, rpp);
        cache_capture = f_cache;
    }
    // Coalescing waste inflates *transactions*, but merged threads still
    // consume the full cache lines they touch, so the true DRAM byte waste
    // is mild — most of the penalty is latency/issue pressure, which the
    // cost model applies through the saturation coupling.
    let byte_eff = 0.5 + 0.5 * gld_eff;
    let mut dram_bytes = pts * 8.0 * (reads_eff / byte_eff + spec.write_arrays as f64 / byte_eff);
    if spilled {
        let excess = regs - arch.max_regs_per_thread as f64;
        dram_bytes += pts * 8.0 * (SPILL_BYTES_PER_REG * excess).min(24.0);
    }

    // --- ILP ------------------------------------------------------------------------
    let ilp = 1.0 + ILP_GAIN * (uf_eff.min(16) as f64).log2();

    let stream_steps = if streaming { sb.max(1) } else { 1 };

    Footprint {
        regs_per_thread: regs,
        spilled,
        shmem_per_tb,
        shmem_overflow,
        threads_total,
        tb_size,
        n_tbs,
        tb_per_sm,
        occupancy,
        waves,
        tail_eff,
        gld_eff,
        gst_eff,
        reads_eff,
        dram_bytes,
        flops_eff,
        ilp,
        stream_steps,
        cache_capture,
        uf_prod: uf_eff,
        merged_pts,
    }
}

/// Occupancy-dependent latency-hiding factor in (0, 1]: saturating in
/// occupancy, with memory-bound kernels needing more resident warps.
pub fn occ_factor(occ: f64, class: StencilClass) -> f64 {
    let half = match class {
        StencilClass::ComputeBound => OCC_HALF_COMPUTE,
        StencilClass::MemoryBound => OCC_HALF_MEMORY,
    };
    if occ <= 0.0 {
        return 0.0;
    }
    (occ * (1.0 + half) / (occ + half)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;
    use cst_stencil::suite;

    fn fp(name: &str, s: &Setting) -> Footprint {
        let spec = suite::spec_by_name(name).unwrap();
        footprint(&spec, &GpuArch::a100(), s)
    }

    #[test]
    fn baseline_launches_everywhere() {
        for k in suite::all_kernels() {
            let f = footprint(&k.spec, &GpuArch::a100(), &Setting::baseline());
            assert!(!f.spilled, "{} spilled at baseline", k.spec.name);
            assert!(f.tb_per_sm > 0, "{} unlaunchable at baseline", k.spec.name);
            assert!(f.occupancy > 0.2, "{} occupancy {}", k.spec.name, f.occupancy);
            assert_eq!(f.threads_total, k.spec.total_points() as u64);
        }
    }

    #[test]
    fn merging_reduces_threads_and_costs_registers() {
        let base = Setting::baseline();
        let merged = base.with(ParamId::BMy, 8);
        let f0 = fp("j3d7pt", &base);
        let f1 = fp("j3d7pt", &merged);
        assert_eq!(f1.threads_total, f0.threads_total / 8);
        assert!(f1.regs_per_thread > f0.regs_per_thread);
        assert_eq!(f1.merged_pts, 8);
    }

    #[test]
    fn extreme_merging_spills() {
        let s = Setting::baseline().with(ParamId::BMy, 256);
        let f = fp("rhs4center", &s);
        assert!(f.spilled, "regs = {}", f.regs_per_thread);
    }

    #[test]
    fn block_merge_x_breaks_coalescing_but_cyclic_does_not() {
        let base = Setting::baseline();
        let bm = base.with(ParamId::BMx, 8);
        let cm = base.with(ParamId::CMx, 8);
        assert!(fp("j3d7pt", &bm).gld_eff < fp("j3d7pt", &base).gld_eff);
        assert_eq!(fp("j3d7pt", &cm).gld_eff, fp("j3d7pt", &base).gld_eff);
    }

    #[test]
    fn narrow_blocks_hurt_coalescing() {
        let wide = Setting::baseline(); // TBx = 32
        let narrow = Setting::baseline().with(ParamId::TBx, 4).with(ParamId::TBy, 32);
        assert!(fp("j3d7pt", &narrow).gld_eff < fp("j3d7pt", &wide).gld_eff);
    }

    #[test]
    fn shared_memory_reduces_reads_in_25d_streaming() {
        // The classic 2.5-D configuration: a wide x-y tile streamed along
        // z. Staging the tile in shared memory removes the redundant halo
        // reads that even a warm cache re-issues.
        let stream = Setting::baseline()
            .with(ParamId::TBx, 32)
            .with(ParamId::TBy, 8)
            .with(ParamId::TBz, 1)
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::SB, 320);
        let shared = stream.with(ParamId::UseShared, 2);
        let f0 = fp("hypterm", &stream);
        let f1 = fp("hypterm", &shared);
        assert!(f1.reads_eff < f0.reads_eff, "{} !< {}", f1.reads_eff, f0.reads_eff);
        assert!(f1.shmem_per_tb > 0);
    }

    #[test]
    fn shared_memory_backfires_on_tiny_high_order_tiles() {
        // A 32×4×1 tile with halo 4 re-loads the halo many times over; the
        // model must reflect that staging tiny tiles is a pessimization.
        let shared = Setting::baseline().with(ParamId::UseShared, 2);
        let f0 = fp("hypterm", &Setting::baseline());
        let f1 = fp("hypterm", &shared);
        assert!(f1.reads_eff > f0.reads_eff);
    }

    #[test]
    fn oversized_tile_overflows_shared_memory() {
        let s = Setting::baseline()
            .with(ParamId::UseShared, 2)
            .with(ParamId::TBx, 256)
            .with(ParamId::TBy, 4)
            .with(ParamId::BMy, 64);
        let f = fp("hypterm", &s);
        assert!(f.shmem_overflow, "shmem = {}", f.shmem_per_tb);
        assert_eq!(f.tb_per_sm, 0);
        assert_eq!(f.occupancy, 0.0);
    }

    #[test]
    fn streaming_walks_tiles_serially() {
        let s = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::TBz, 1)
            .with(ParamId::SB, 64);
        let f = fp("j3d7pt", &s);
        assert_eq!(f.stream_steps, 64);
        // 512/64 = 8 tiles along z.
        assert_eq!(f.threads_total, 512 * 512 * 8);
    }

    #[test]
    fn retiming_relieves_registers_only_for_high_order() {
        let merged = Setting::baseline().with(ParamId::BMy, 16);
        let retimed = merged.with(ParamId::UseRetiming, 2);
        let hi0 = fp("rhs4center", &merged);
        let hi1 = fp("rhs4center", &retimed);
        assert!(hi1.regs_per_thread < hi0.regs_per_thread);
        assert!(hi1.flops_eff > hi0.flops_eff);
        let lo0 = fp("j3d7pt", &merged);
        let lo1 = fp("j3d7pt", &retimed);
        assert!(lo1.regs_per_thread >= lo0.regs_per_thread * 0.99);
        assert!(lo1.flops_eff > lo0.flops_eff);
    }

    #[test]
    fn occ_factor_saturates() {
        let lo = occ_factor(0.1, StencilClass::MemoryBound);
        let mid = occ_factor(0.5, StencilClass::MemoryBound);
        let hi = occ_factor(1.0, StencilClass::MemoryBound);
        assert!(lo < mid && mid < hi);
        assert!((hi - 1.0).abs() < 1e-9);
        // Compute-bound kernels tolerate lower occupancy.
        assert!(
            occ_factor(0.2, StencilClass::ComputeBound)
                > occ_factor(0.2, StencilClass::MemoryBound)
        );
    }

    #[test]
    fn unrolling_raises_ilp_with_diminishing_returns() {
        let f1 = fp("j3d27pt", &Setting::baseline());
        let f4 = fp(
            "j3d27pt",
            &Setting::baseline().with(ParamId::UFx, 4).with(ParamId::BMx, 4).with(ParamId::TBx, 32),
        );
        assert!(f4.ilp > f1.ilp);
        assert!(f4.ilp < 1.5);
    }

    #[test]
    fn tail_efficiency_penalizes_non_dividing_blocks() {
        // 512 threads along y with TBy = 4 divides evenly; merging by 3-ish
        // patterns can't happen (pow2), so force a tail via TB 1024 on a
        // 320 grid: 320/1 = 320 threads, blocks of 1024 → tail 320/1024.
        let s = Setting::baseline().with(ParamId::TBx, 1024).with(ParamId::TBy, 1);
        let f = fp("hypterm", &s); // 320-extent grid
        assert!(f.tail_eff < 0.5, "tail {}", f.tail_eff);
    }
}
