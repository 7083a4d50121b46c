//! Precomputed model tables: the setting-independent half of the model.
//!
//! [`crate::footprint::footprint`], [`crate::cost::kernel_cost_from_footprint`]
//! and [`crate::cost::eval_cost_s`] interleave two kinds of work: quantities
//! that depend only on `(StencilSpec, GpuArch, ModelParams)` — grid extents,
//! per-stencil traffic/flop coefficients, arch throughput denominators, the
//! L2 plane-window capture ratio, the string hashes seeding the perturbation
//! — and the handful of flops that actually depend on the [`Setting`].
//! [`ModelPrecomp`] hoists the former into a table built once per simulator,
//! so the per-setting work shrinks to decoding the setting plus table
//! lookups and the residual arithmetic.
//!
//! **Bit-identity contract.** Every hoisted expression is either (a) the
//! exact subexpression the direct path evaluates, preserved with the same
//! association (f64 addition is not associative, so prefixes are only
//! hoisted where the original expression is left-associated the same way),
//! (b) an integer computation (`wrapping_add` is associative, so the
//! perturbation's two string hashes fold into one salt), or (c) a lookup
//! table over a small discrete domain whose entries are populated by
//! evaluating the original expression per domain value. The differential
//! oracle in `cst-testkit` (`precomp_oracle.rs`) holds this to the bit
//! across the stencil suite × both arches × random settings.

use crate::arch::GpuArch;
use crate::cost::CostBreakdown;
use crate::footprint::{Footprint, ModelParams};
use crate::memo::EvalRecord;
use cst_space::Setting;
use cst_stencil::{StencilClass, StencilSpec};

/// Per-setting values decoded once per record. The accessor calls on
/// [`Setting`] are cheap, but the three model stages used to re-decode
/// them independently.
#[derive(Debug, Clone)]
struct Decoded {
    streaming: bool,
    sd: usize,
    sb: u64,
    bm: [u64; 3],
    cm: [u64; 3],
    uf: [u64; 3],
    tb: [u64; 3],
    tb_size: u32,
    use_shared: bool,
    use_constant: bool,
    use_prefetching: bool,
    use_retiming: bool,
    stable_hash: u64,
}

impl Decoded {
    fn new(s: &Setting) -> Self {
        Decoded {
            streaming: s.use_streaming(),
            sd: s.sd_axis(),
            sb: s.sb() as u64,
            bm: s.bm().map(|v| v as u64),
            cm: s.cm().map(|v| v as u64),
            uf: s.uf().map(|v| v as u64),
            tb: s.tb().map(|v| v as u64),
            tb_size: s.tb_size(),
            use_shared: s.use_shared(),
            use_constant: s.use_constant(),
            use_prefetching: s.use_prefetching(),
            use_retiming: s.use_retiming(),
            stable_hash: s.stable_hash(),
        }
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Setting-independent model state for one `(stencil, arch, params)`
/// triple, built once per [`crate::GpuSim`].
#[derive(Debug, Clone)]
pub struct ModelPrecomp {
    spec: StencilSpec,
    arch: GpuArch,
    params: ModelParams,

    // --- footprint stage ---
    ext: [u64; 3],
    flops: f64,
    /// `reg_base + reg_per_flop·min(flops,700) + 1.2·ra + 0.8·wa`, the
    /// left-associated prefix of the register estimate.
    regs_prefix: f64,
    prefetch_regs: f64,
    no_const_regs: f64,
    retiming_relieves: bool,
    max_regs_f: f64,
    n_stage_f: f64,
    shmem_base: u64,
    two_h: u64,
    two_h_plus1: u64,
    two_h_f: f64,
    regs_per_sm_f: f64,
    max_threads_sm_u64: u64,
    max_threads_sm_f: f64,
    sm_count_u64: u64,
    warp_u64: u64,
    warp_f: f64,
    pts_f: f64,
    pts8: f64,
    ra_f: f64,
    wa_f: f64,
    rpp_f: f64,
    unstaged_f: f64,
    unstaged_taps: f64,
    f_l2_plain: f64,
    f_l2_stream: f64,
    /// `1 + ilp_gain·log2(i)` for `i = uf_eff.min(16)`.
    ilp_lut: [f64; 17],

    // --- cost stage ---
    launch_ms: f64,
    half_main: f64,
    one_plus_half_main: f64,
    half_mem: f64,
    one_plus_half_mem: f64,
    const_boost: f64,
    compute_denom: f64,
    mem_denom: f64,
    barrier_shared: f64,
    barrier_plain: f64,
    /// `fnv(spec.name) ⊞ rotl(fnv(arch.name), 17)` — wrapping addition is
    /// associative, so the two per-call string hashes fold into one salt.
    perturb_salt: u64,

    // --- eval-cost stage ---
    /// `log2(i)` for the `min(·, 64)`-clamped unroll/body products.
    log2_lut: [f64; 65],
    complexity_base: f64,
    runs_f: f64,
}

impl ModelPrecomp {
    /// Hoist everything setting-independent out of the three model stages.
    pub fn new(spec: StencilSpec, arch: GpuArch, params: ModelParams) -> Self {
        let mp = &params;
        let h = spec.halo() as u64;
        let ext = [spec.grid[0] as u64, spec.grid[1] as u64, spec.grid[2] as u64];
        let flops = spec.flops as f64;
        let ra_f = spec.read_arrays as f64;
        let wa_f = spec.write_arrays as f64;
        let rpp_f = spec.reads_per_point as f64;
        let n_stage = spec.read_arrays.min(3) as u64;
        let n_stage_f = spec.read_arrays.min(3) as f64;
        let unstaged_f = ra_f - n_stage_f;
        let pts_f = spec.total_points() as f64;
        let window_bytes = 8.0 * ra_f * (ext[0] * ext[1]) as f64 * (2 * h + 1) as f64;
        let ratio = arch.l2_bytes as f64 / window_bytes;
        let f_l2_plain = (0.78 * ratio / (ratio + 0.6)).clamp(0.10, 0.75);
        let mut ilp_lut = [0.0; 17];
        for (i, slot) in ilp_lut.iter_mut().enumerate() {
            *slot = 1.0 + mp.ilp_gain * (i as f64).log2();
        }
        let mut log2_lut = [0.0; 65];
        for (i, slot) in log2_lut.iter_mut().enumerate() {
            *slot = (i as f64).log2();
        }
        let half_main = match spec.class {
            StencilClass::ComputeBound => mp.occ_half_compute,
            StencilClass::MemoryBound => mp.occ_half_memory,
        };
        let half_mem = mp.occ_half_memory;
        ModelPrecomp {
            ext,
            flops,
            regs_prefix: mp.reg_base + mp.reg_per_flop * flops.min(700.0) + 1.2 * ra_f + 0.8 * wa_f,
            prefetch_regs: mp.prefetch_reg_per_array * ra_f,
            no_const_regs: (spec.coefficients as f64 / 16.0).min(6.0),
            retiming_relieves: spec.order >= 2,
            max_regs_f: arch.max_regs_per_thread as f64,
            n_stage_f,
            shmem_base: 8 * n_stage,
            two_h: 2 * h,
            two_h_plus1: 2 * h + 1,
            two_h_f: 2.0 * h as f64,
            regs_per_sm_f: arch.regs_per_sm as f64,
            max_threads_sm_u64: arch.max_threads_per_sm as u64,
            max_threads_sm_f: arch.max_threads_per_sm as f64,
            sm_count_u64: arch.sm_count as u64,
            warp_u64: arch.warp_size as u64,
            warp_f: arch.warp_size as f64,
            pts_f,
            pts8: pts_f * 8.0,
            ra_f,
            wa_f,
            rpp_f,
            unstaged_f,
            unstaged_taps: rpp_f * unstaged_f / ra_f,
            f_l2_plain,
            f_l2_stream: (f_l2_plain + 0.15).min(0.85),
            ilp_lut,
            launch_ms: arch.launch_us / 1000.0,
            half_main,
            one_plus_half_main: 1.0 + half_main,
            half_mem,
            one_plus_half_mem: 1.0 + half_mem,
            const_boost: 1.0 + 0.035 * (spec.coefficients as f64 / 40.0).min(1.0),
            compute_denom: arch.fp64_gflops * 1e6,
            mem_denom: arch.dram_gbps * 1e6,
            barrier_shared: arch.sync_us,
            barrier_plain: arch.sync_us * 0.3,
            perturb_salt: fnv(spec.name.as_bytes())
                .wrapping_add(fnv(arch.name.as_bytes()).rotate_left(17)),
            log2_lut,
            complexity_base: flops / 10.0,
            runs_f: mp.runs_per_eval as f64,
            spec,
            arch,
            params,
        }
    }

    /// The stencil the tables were built for.
    pub fn spec(&self) -> &StencilSpec {
        &self.spec
    }

    /// The architecture the tables were built for.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The model constants the tables were built for.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// [`crate::footprint::footprint`] with every hoisted constant read
    /// from the table. Mirrors the direct path statement-for-statement,
    /// including its indexed 3-dim loops (bit-identical f64 ordering
    /// matters more than iterator idiom here).
    #[allow(clippy::needless_range_loop)]
    fn footprint_stage(&self, d: &Decoded) -> Footprint {
        let mp = &self.params;

        // --- Decomposition ---
        let mut cover = [0u64; 3];
        let mut merged_pts = 1u64;
        for dim in 0..3 {
            if d.streaming && dim == d.sd {
                cover[dim] = d.sb.max(1);
            } else {
                cover[dim] = (d.bm[dim] * d.cm[dim]).max(1);
                merged_pts *= d.bm[dim] * d.cm[dim];
            }
        }
        let mut threads_d = [0u64; 3];
        let mut blocks_d = [0u64; 3];
        let mut tail_eff = 1.0f64;
        for dim in 0..3 {
            threads_d[dim] = self.ext[dim].div_ceil(cover[dim]);
            blocks_d[dim] = threads_d[dim].div_ceil(d.tb[dim]);
            tail_eff *= threads_d[dim] as f64 / (blocks_d[dim] * d.tb[dim]) as f64;
        }
        let threads_total = threads_d.iter().product();
        let n_tbs: u64 = blocks_d.iter().product();
        let tb_size = d.tb_size;

        // --- Registers ---
        let uf_eff: u64 =
            (0..3).map(|dim| d.uf[dim].min(cover[dim].max(1))).product::<u64>().max(1);
        let mut regs = self.regs_prefix
            + mp.reg_per_merge * (merged_pts.saturating_sub(1)) as f64
            + mp.reg_per_unroll * (uf_eff - 1) as f64;
        if d.use_prefetching {
            regs += self.prefetch_regs;
        }
        let mut flops_eff = self.flops;
        if d.use_retiming {
            if self.retiming_relieves {
                regs *= mp.retiming_reg_relief;
                flops_eff *= mp.retiming_flop_cost;
            } else {
                flops_eff *= mp.retiming_flop_cost;
            }
        }
        if d.use_shared {
            regs = (regs - 4.0).max(16.0);
        }
        if !d.use_constant {
            regs += self.no_const_regs;
        }
        let spilled = regs > self.max_regs_f;

        // --- Shared memory ---
        let mut shmem_per_tb = 0u64;
        if d.use_shared {
            let mut tile_bytes = self.shmem_base;
            for dim in 0..3 {
                let t = if d.streaming && dim == d.sd {
                    self.two_h_plus1
                } else {
                    d.tb[dim] * cover[dim] + self.two_h
                };
                tile_bytes = tile_bytes.saturating_mul(t);
            }
            shmem_per_tb = tile_bytes;
            if d.use_prefetching {
                let plane: u64 = (0..3)
                    .filter(|&dim| !(d.streaming && dim == d.sd))
                    .map(|dim| d.tb[dim] * cover[dim] + self.two_h)
                    .product();
                shmem_per_tb += self.shmem_base * plane;
            }
        }
        let shmem_overflow = shmem_per_tb > self.arch.shmem_per_tb as u64;

        // --- Occupancy ---
        let regs_granular = ((regs / 8.0).ceil() * 8.0).max(16.0);
        let mut tb_per_sm =
            self.arch.max_tb_per_sm.min(self.arch.max_threads_per_sm / tb_size.max(1));
        let regs_per_tb = regs_granular.min(self.max_regs_f) * tb_size as f64;
        tb_per_sm = tb_per_sm.min((self.regs_per_sm_f / regs_per_tb.max(1.0)) as u32);
        if shmem_per_tb > 0 {
            tb_per_sm = tb_per_sm.min((self.arch.shmem_per_sm as u64 / shmem_per_tb.max(1)) as u32);
        }
        if shmem_overflow || tb_size > 1024 {
            tb_per_sm = 0;
        }
        let occupancy = if tb_per_sm == 0 {
            0.0
        } else {
            ((tb_per_sm as u64 * tb_size as u64).min(self.max_threads_sm_u64)) as f64
                / self.max_threads_sm_f
        };
        let device_blocks = (tb_per_sm as u64 * self.sm_count_u64).max(1);
        let waves = n_tbs as f64 / device_blocks as f64;

        // --- Coalescing ---
        let lanes_x = (d.tb[0].min(self.warp_u64)) as f64;
        let mut gld_eff = lanes_x / self.warp_f;
        if d.bm[0] > 1 {
            gld_eff /= (d.bm[0] as f64).min(8.0);
        }
        let gld_eff = gld_eff.clamp(1.0 / 6.0, 1.0);
        let gst_eff = gld_eff;

        // --- Reuse / DRAM traffic ---
        let f_l1 = 0.55 * gld_eff;
        let f_l2 = if d.streaming { self.f_l2_stream } else { self.f_l2_plain };
        let f_cache = 1.0 - (1.0 - f_l1) * (1.0 - f_l2);
        let reads_eff;
        let cache_capture;
        if d.use_shared && !shmem_overflow {
            let mut overlapf = 1.0;
            for dim in 0..3 {
                if d.streaming && dim == d.sd {
                    continue;
                }
                let t = (d.tb[dim] * cover[dim]) as f64;
                overlapf *= (t + self.two_h_f) / t;
            }
            reads_eff = self.n_stage_f * overlapf
                + (self.unstaged_f + (self.unstaged_taps - self.unstaged_f) * (1.0 - f_cache));
            cache_capture = 1.0 - (reads_eff / self.rpp_f).clamp(0.0, 1.0);
        } else {
            reads_eff = self.ra_f + (self.rpp_f - self.ra_f) * (1.0 - f_cache);
            cache_capture = f_cache;
        }
        let byte_eff = 0.5 + 0.5 * gld_eff;
        let mut dram_bytes = self.pts8 * (reads_eff / byte_eff + self.wa_f / byte_eff);
        if spilled {
            let excess = regs - self.max_regs_f;
            dram_bytes += self.pts8 * (mp.spill_bytes_per_reg * excess).min(24.0);
        }

        // --- ILP ---
        let ilp = self.ilp_lut[uf_eff.min(16) as usize];

        let stream_steps = if d.streaming { d.sb.max(1) } else { 1 };

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

    /// `occ_factor` with the `1 + half` numerator hoisted.
    #[inline]
    fn occ_saturation(occ: f64, half: f64, one_plus_half: f64) -> f64 {
        if occ <= 0.0 {
            return 0.0;
        }
        (occ * one_plus_half / (occ + half)).min(1.0)
    }

    /// [`crate::cost::kernel_cost_from_footprint`] over the tables.
    fn cost_stage(&self, d: &Decoded, f: &Footprint) -> CostBreakdown {
        let mp = &self.params;
        let launch_ms = self.launch_ms;
        if f.tb_per_sm == 0 {
            return CostBreakdown {
                compute_ms: f64::INFINITY,
                memory_ms: f64::INFINITY,
                sync_ms: 0.0,
                launch_ms,
                total_ms: f64::INFINITY,
            };
        }
        let occ_c = Self::occ_saturation(f.occupancy, self.half_main, self.one_plus_half_main);
        let sm_util = f.waves.min(1.0);

        // --- Compute ---
        let mut comp_eff = occ_c * f.ilp * f.tail_eff * sm_util;
        if d.use_constant {
            comp_eff *= self.const_boost;
        }
        if f.spilled {
            comp_eff *= mp.spill_compute_penalty;
        }
        let compute_ms = self.pts_f * f.flops_eff / self.compute_denom / comp_eff.max(1e-3);

        // --- Memory ---
        let occ_mem = (f.occupancy / f.gld_eff.max(0.25)).min(1.0);
        let mem_eff = Self::occ_saturation(occ_mem, self.half_mem, self.one_plus_half_mem)
            * f.tail_eff
            * sm_util;
        let memory_ms = f.dram_bytes / self.mem_denom / mem_eff.max(1e-3);

        // --- Synchronization ---
        let mut sync_ms = 0.0;
        if d.streaming {
            let barrier_cost = if d.use_shared { self.barrier_shared } else { self.barrier_plain };
            let hidden = if d.use_prefetching { 0.35 } else { 1.0 };
            sync_ms = f.waves.max(1.0) * f.stream_steps as f64 * barrier_cost * hidden / 1000.0;
        }

        let (hi, lo) =
            if compute_ms >= memory_ms { (compute_ms, memory_ms) } else { (memory_ms, compute_ms) };
        let mut total = hi + (1.0 - mp.overlap) * lo + sync_ms + launch_ms;
        total *= 1.0 + mp.ruggedness * self.perturbation(d);
        CostBreakdown { compute_ms, memory_ms, sync_ms, launch_ms, total_ms: total }
    }

    /// [`crate::cost::perturbation`] with both string hashes folded into
    /// the precomputed salt.
    fn perturbation(&self, d: &Decoded) -> f64 {
        let mut x =
            d.stable_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(self.perturb_salt);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// [`crate::cost::eval_cost_s`] over the tables (the two `log2` calls
    /// become lookups over the clamped pow2 products).
    fn eval_cost_stage(&self, d: &Decoded, kernel_ms: f64) -> f64 {
        let mp = &self.params;
        let uf: u64 = d.uf.iter().product();
        let body: u64 = d.bm.iter().chain(d.cm.iter()).product();
        let complexity = self.complexity_base
            * (1.0
                + self.log2_lut[uf.min(64) as usize]
                + 0.5 * self.log2_lut[body.min(64) as usize]);
        let compile = self.arch.compile_base_s * (1.0 + mp.compile_per_complexity * complexity);
        let runs = if kernel_ms.is_finite() {
            self.runs_f * kernel_ms.min(mp.run_timeout_ms) / 1000.0
        } else {
            0.0
        };
        compile + runs
    }

    /// Full model record for one setting: decode once, run the three
    /// stages. Bit-identical to composing the direct-path functions.
    pub fn record(&self, s: &Setting) -> EvalRecord {
        let d = Decoded::new(s);
        let footprint = self.footprint_stage(&d);
        let cost = self.cost_stage(&d, &footprint);
        let cost_s = self.eval_cost_stage(&d, cost.total_ms);
        EvalRecord { footprint, cost, cost_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{eval_cost_s, kernel_cost_from_footprint};
    use crate::footprint::footprint;
    use cst_space::OptSpace;
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn direct_record(
        spec: &StencilSpec,
        arch: &GpuArch,
        s: &Setting,
        mp: &ModelParams,
    ) -> EvalRecord {
        let f = footprint(spec, arch, s, mp);
        let cost = kernel_cost_from_footprint(spec, arch, s, &f, mp);
        let cost_s = eval_cost_s(spec, arch, s, cost.total_ms, mp);
        EvalRecord { footprint: f, cost, cost_s }
    }

    fn assert_bit_identical(a: &EvalRecord, b: &EvalRecord) {
        // PartialEq would conflate -0.0 with 0.0; compare the f64 payloads
        // by bit pattern.
        let af = &a.footprint;
        let bf = &b.footprint;
        let pairs = [
            (af.regs_per_thread, bf.regs_per_thread),
            (af.occupancy, bf.occupancy),
            (af.waves, bf.waves),
            (af.tail_eff, bf.tail_eff),
            (af.gld_eff, bf.gld_eff),
            (af.gst_eff, bf.gst_eff),
            (af.reads_eff, bf.reads_eff),
            (af.dram_bytes, bf.dram_bytes),
            (af.flops_eff, bf.flops_eff),
            (af.ilp, bf.ilp),
            (af.cache_capture, bf.cache_capture),
            (a.cost.compute_ms, b.cost.compute_ms),
            (a.cost.memory_ms, b.cost.memory_ms),
            (a.cost.sync_ms, b.cost.sync_ms),
            (a.cost.launch_ms, b.cost.launch_ms),
            (a.cost.total_ms, b.cost.total_ms),
            (a.cost_s, b.cost_s),
        ];
        for (x, y) in pairs {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
        assert_eq!(af.spilled, bf.spilled);
        assert_eq!(af.shmem_per_tb, bf.shmem_per_tb);
        assert_eq!(af.shmem_overflow, bf.shmem_overflow);
        assert_eq!(af.threads_total, bf.threads_total);
        assert_eq!(af.tb_size, bf.tb_size);
        assert_eq!(af.n_tbs, bf.n_tbs);
        assert_eq!(af.tb_per_sm, bf.tb_per_sm);
        assert_eq!(af.stream_steps, bf.stream_steps);
        assert_eq!(af.uf_prod, bf.uf_prod);
        assert_eq!(af.merged_pts, bf.merged_pts);
    }

    #[test]
    fn precomp_matches_direct_path_on_random_raw_settings() {
        // Raw (un-repaired) settings included: the model must agree even
        // on spilled/overflowing/unlaunchable corners.
        let mp = ModelParams::default();
        for k in suite::all_kernels() {
            for arch in [GpuArch::a100(), GpuArch::v100()] {
                let pre = ModelPrecomp::new(k.spec.clone(), arch.clone(), mp.clone());
                let space = OptSpace::for_stencil(&k.spec);
                let mut rng = StdRng::seed_from_u64(fnv(k.spec.name.as_bytes()));
                for _ in 0..40 {
                    let s = space.random_raw(&mut rng);
                    assert_bit_identical(&pre.record(&s), &direct_record(&k.spec, &arch, &s, &mp));
                }
            }
        }
    }

    #[test]
    fn precomp_respects_custom_model_params() {
        let spec = suite::spec_by_name("rhs4center").unwrap();
        let arch = GpuArch::small();
        let mp = ModelParams {
            ilp_gain: 0.11,
            occ_half_memory: 0.3,
            ruggedness: 0.2,
            runs_per_eval: 7,
            ..ModelParams::default()
        };
        let pre = ModelPrecomp::new(spec.clone(), arch.clone(), mp.clone());
        let space = OptSpace::for_stencil(&spec);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let s = space.random_raw(&mut rng);
            assert_bit_identical(&pre.record(&s), &direct_record(&spec, &arch, &s, &mp));
        }
    }
}
