//! Process-wide shared memo registry, keyed by (stencil, arch).
//!
//! One process often runs many tuning sessions on the same (stencil,
//! architecture) pair: a `cst-serve` daemon, a campaign, the benchmark.
//! [`shared_memo`] hands every caller with the same (stencil, arch)
//! content the same [`Arc<SimMemo>`], so each session reuses the records
//! its predecessors and siblings computed. This is the only simulator
//! memo: a [`crate::GpuSim`] holds none until
//! [`crate::GpuSim::enable_shared_memo`] opts it in, which session
//! runners (`run_session`, the benchmark) do. A memo private to one
//! simulator bought nothing once the validity check stopped building
//! records (`memo_settle` in `BENCH_eval.json`).
//!
//! The memo carries no observable state — the model is deterministic and
//! the run journal's memo counters come from the evaluator's serial
//! commit path — so a shared cache cannot change any session's results,
//! only its speed.
//!
//! The registry caps each memo at `CST_MEMO_CAP` entries (0 or unset =
//! unbounded), read once at first use and fixed when a memo is created.

use crate::arch::GpuArch;
use crate::memo::SimMemo;
use cst_space::hash::fnv1a;
use cst_stencil::{StencilClass, StencilShape, StencilSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

struct SharedEntry {
    stencil: &'static str,
    arch: &'static str,
    memo: Arc<SimMemo>,
}

struct Registry {
    memos: HashMap<(u64, u64), SharedEntry>,
    cap: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        let cap = std::env::var("CST_MEMO_CAP").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
        Mutex::new(Registry { memos: HashMap::new(), cap })
    })
}

/// FNV-1a over `name` followed by each of `fields` as 8 little-endian
/// bytes.
fn content_key(name: &str, fields: &[u64]) -> u64 {
    fnv1a(name.bytes().chain(fields.iter().flat_map(|v| v.to_le_bytes())))
}

/// Content hash of every [`StencilSpec`] field the model reads, so two
/// specs that would produce different records never share a memo even if
/// they share a name.
fn spec_key(spec: &StencilSpec) -> u64 {
    let [g0, g1, g2] = spec.grid.map(|g| g as u64);
    let shape = match spec.shape {
        StencilShape::Star => 0,
        StencilShape::Box => 1,
        StencilShape::Hybrid => 2,
    };
    let class = match spec.class {
        StencilClass::MemoryBound => 0,
        StencilClass::ComputeBound => 1,
    };
    content_key(
        spec.name,
        &[
            g0,
            g1,
            g2,
            spec.order as u64,
            spec.flops as u64,
            spec.io_arrays as u64,
            spec.read_arrays as u64,
            spec.write_arrays as u64,
            spec.reads_per_point as u64,
            spec.coefficients as u64,
            shape,
            class,
        ],
    )
}

/// Content hash of every [`GpuArch`] field (f64s by bit pattern).
fn arch_key(arch: &GpuArch) -> u64 {
    content_key(
        arch.name,
        &[
            arch.sm_count as u64,
            arch.max_threads_per_sm as u64,
            arch.max_tb_per_sm as u64,
            arch.max_warps_per_sm as u64,
            arch.regs_per_sm as u64,
            arch.max_regs_per_thread as u64,
            arch.shmem_per_sm as u64,
            arch.shmem_per_tb as u64,
            arch.const_cache as u64,
            arch.warp_size as u64,
            arch.l2_bytes,
            arch.dram_gbps.to_bits(),
            arch.fp64_gflops.to_bits(),
            arch.launch_us.to_bits(),
            arch.sync_us.to_bits(),
            arch.compile_base_s.to_bits(),
        ],
    )
}

/// The process-wide shared memo for this (stencil, arch) pair, created on
/// first use with the registry's cap.
pub fn shared_memo(spec: &StencilSpec, arch: &GpuArch) -> Arc<SimMemo> {
    let key = (spec_key(spec), arch_key(arch));
    let mut reg = registry().lock().unwrap();
    let cap = reg.cap;
    Arc::clone(
        &reg.memos
            .entry(key)
            .or_insert_with(|| SharedEntry {
                stencil: spec.name,
                arch: arch.name,
                memo: Arc::new(SimMemo::with_cap(cap)),
            })
            .memo,
    )
}

/// Observability snapshot of one shared memo: the display names of its
/// (stencil, arch) pair plus cache traffic counters and occupancy.
/// Counters are relaxed atomics maintained off the serial commit path —
/// live metrics only, never an input to any tuning decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMemoStats {
    /// Stencil display name (`StencilSpec::name`).
    pub stencil: String,
    /// Architecture display name (`GpuArch::name`).
    pub arch: String,
    /// Memo lookups served from cache.
    pub hits: u64,
    /// Memo lookups that required a fresh model evaluation.
    pub misses: u64,
    /// Entries dropped to honour the cap.
    pub evictions: u64,
    /// Records currently cached.
    pub entries: usize,
    /// Entry cap (0 = unbounded).
    pub cap: usize,
}

/// Per-pair stats for every shared memo in the process, sorted by
/// (stencil, arch) display names so the listing is stable. Distinct
/// content hashes that share display names (e.g. a tweaked spec under
/// the same name) appear as separate rows.
pub fn shared_memo_stats() -> Vec<SharedMemoStats> {
    let reg = registry().lock().unwrap();
    let mut out: Vec<SharedMemoStats> = reg
        .memos
        .values()
        .map(|e| {
            let s = e.memo.stats();
            SharedMemoStats {
                stencil: e.stencil.to_string(),
                arch: e.arch.to_string(),
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                entries: e.memo.len(),
                cap: e.memo.cap(),
            }
        })
        .collect();
    out.sort_by(|a, b| (&a.stencil, &a.arch).cmp(&(&b.stencil, &b.arch)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pair_shares_one_memo_distinct_pairs_do_not() {
        // Use the synthetic small arch with suite specs so no other test's
        // registry traffic collides with these keys.
        let cheby = cst_stencil::spec_by_name("cheby").unwrap();
        let helm = cst_stencil::spec_by_name("helmholtz").unwrap();
        let a = shared_memo(&cheby, &GpuArch::small());
        let b = shared_memo(&cheby, &GpuArch::small());
        let c = shared_memo(&helm, &GpuArch::small());
        assert!(Arc::ptr_eq(&a, &b), "same pair must share");
        assert!(!Arc::ptr_eq(&a, &c), "different stencil must not share");
    }

    #[test]
    fn stats_listing_is_named_and_sorted() {
        let spec = cst_stencil::spec_by_name("hypterm").unwrap();
        let mut sim = crate::GpuSim::new(spec, GpuArch::small());
        sim.enable_shared_memo();
        let _miss = sim.kernel_time_ms(&cst_space::Setting::baseline());
        let stats = shared_memo_stats();
        let row = stats
            .iter()
            .find(|s| s.stencil == "hypterm" && s.arch == GpuArch::small().name)
            .expect("hypterm row present");
        assert!(row.misses >= 1, "recorded miss visible: {row:?}");
        let names: Vec<_> = stats.iter().map(|s| (s.stencil.clone(), s.arch.clone())).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "listing sorted by (stencil, arch)");
    }

    #[test]
    fn keys_are_stable() {
        let spec = |n| spec_key(&cst_stencil::spec_by_name(n).unwrap());
        assert_eq!(spec("j3d7pt"), 0x85c5_d39b_c8b6_cbe5);
        assert_eq!(spec("hypterm"), 0x54ce_1933_bc37_4d29);
        assert_eq!(arch_key(&GpuArch::a100()), 0xeeaf_7d33_410e_fe23);
        assert_eq!(arch_key(&GpuArch::v100()), 0x8479_0ef3_4ed6_5d77);
    }

    #[test]
    fn key_covers_model_fields_not_just_names() {
        let spec = cst_stencil::spec_by_name("addsgd4").unwrap();
        let mut tweaked = spec.clone();
        tweaked.flops += 1;
        let mut arch = GpuArch::small();
        arch.dram_gbps += 1.0;
        assert_ne!(spec_key(&spec), spec_key(&tweaked));
        assert_ne!(arch_key(&GpuArch::small()), arch_key(&arch));
        assert!(!Arc::ptr_eq(
            &shared_memo(&spec, &GpuArch::small()),
            &shared_memo(&tweaked, &GpuArch::small())
        ));
        assert!(!Arc::ptr_eq(&shared_memo(&spec, &GpuArch::small()), &shared_memo(&spec, &arch)));
    }
}
