//! Shared memoization of the analytical model's per-setting outputs.
//!
//! The evaluation hot path historically recomputed the footprint three
//! times per fresh candidate (`is_valid` → `measure` → `eval_cost_s`).
//! [`SimMemo`] computes everything once per distinct [`Setting`] and
//! shares the record across clones of a [`crate::GpuSim`] and across
//! evaluation threads — the in-silico analogue of csTuner's
//! avoid-recompiling-seen-configurations convention.

use crate::cost::CostBreakdown;
use crate::footprint::Footprint;
use cst_space::{BuildFastHasher, Setting};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Everything the tuner needs about one setting, computed once: the
/// resource footprint, the full cost breakdown (whose `total_ms` is the
/// modeled kernel time) and the virtual-clock charge in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Resource footprint (registers, shared memory, occupancy, traffic).
    pub footprint: Footprint,
    /// Cost breakdown; `cost.total_ms` is the modeled kernel time.
    pub cost: CostBreakdown,
    /// Wall-clock seconds charged to the tuning clock per evaluation.
    pub cost_s: f64,
}

impl EvalRecord {
    /// Modeled kernel time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.cost.total_ms
    }

    /// Whether the setting launches without spilling registers or
    /// overflowing shared memory.
    pub fn resource_ok(&self) -> bool {
        !self.footprint.spilled && !self.footprint.shmem_overflow && self.footprint.tb_per_sm > 0
    }
}

const N_SHARDS: usize = 16;

/// Shard map keyed by [`Setting`] with the fast hasher from `cst-space`:
/// settings are internal search state, never attacker-controlled, and the
/// 76-byte key makes SipHash the single largest cost of a memo hit.
type ShardMap = HashMap<Setting, Arc<EvalRecord>, BuildFastHasher>;

/// Sharded concurrent `Setting → EvalRecord` cache. Reads take a shard
/// read lock; a miss computes outside any lock and inserts under the
/// shard write lock, so concurrent evaluators never serialize on the
/// model itself.
pub struct SimMemo {
    shards: [RwLock<ShardMap>; N_SHARDS],
    // Relaxed monitoring counters, NOT part of the determinism contract:
    // under concurrent sessions the hit/miss split depends on thread timing,
    // so these feed dashboards and logs only — never the run journal,
    // whose memo counters come from the evaluator's serial commit path.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Entry cap across all shards; 0 means unbounded. Eviction only
    /// drops cache entries — the model is deterministic, so a re-computed
    /// record is identical and results never depend on the cap.
    cap: AtomicUsize,
}

/// Snapshot of [`SimMemo`]'s monitoring counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from a shard.
    pub hits: u64,
    /// Lookups that computed a fresh record.
    pub misses: u64,
    /// Entries dropped to stay under the configured cap.
    pub evictions: u64,
}

impl Default for SimMemo {
    fn default() -> Self {
        SimMemo {
            shards: std::array::from_fn(|_| RwLock::new(ShardMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            cap: AtomicUsize::new(0),
        }
    }
}

impl std::fmt::Debug for SimMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemo").field("entries", &self.len()).finish()
    }
}

/// FNV-1a over the setting's values; `Setting` is a small fixed array so
/// this beats the default SipHash for shard selection.
fn shard_index(s: &Setting) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in &s.0 {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h >> 32) as usize % N_SHARDS
}

impl SimMemo {
    /// Empty, unbounded memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty memo bounded to roughly `cap` entries (0 = unbounded).
    pub fn with_cap(cap: usize) -> Self {
        let memo = Self::default();
        memo.set_cap(cap);
        memo
    }

    /// The configured entry cap (0 = unbounded).
    pub fn cap(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Set the entry cap (0 = unbounded) and immediately trim overflowing
    /// shards. The cap is spread evenly over the shards, rounding each
    /// shard's share up, so occupancy can sit above `cap` by less than one
    /// entry per shard.
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
        if cap > 0 {
            for shard in &self.shards {
                self.evict_overflow(&mut shard.write().unwrap());
            }
        }
    }

    /// Drop arbitrary entries until `shard` fits its per-shard budget.
    /// Which entries go is not deterministic (HashMap order), but eviction
    /// only forgets cache state — recomputation yields identical records.
    fn evict_overflow(&self, shard: &mut ShardMap) {
        let cap = self.cap.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let budget = cap.div_ceil(N_SHARDS);
        while shard.len() > budget {
            let victim = *shard.keys().next().expect("non-empty over-budget shard");
            shard.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cached record, if present.
    pub fn get(&self, s: &Setting) -> Option<Arc<EvalRecord>> {
        let found = self.shards[shard_index(s)].read().unwrap().get(s).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Cached record, computing and inserting via `compute` on a miss.
    /// `compute` runs outside the lock; if two threads race on the same
    /// setting the first insert wins (the model is deterministic, so both
    /// candidates are identical anyway).
    pub fn get_or_insert_with(
        &self,
        s: &Setting,
        compute: impl FnOnce() -> EvalRecord,
    ) -> Arc<EvalRecord> {
        let shard = &self.shards[shard_index(s)];
        if let Some(r) = shard.read().unwrap().get(s) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return r.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(compute());
        let mut w = shard.write().unwrap();
        let out = w.entry(*s).or_insert(fresh).clone();
        self.evict_overflow(&mut w);
        out
    }

    /// Monitoring counters: lookups served from cache vs computed fresh.
    /// Racy-by-design under concurrent sessions (relaxed atomics) — use
    /// for observability, never for determinism-sensitive output.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized settings.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether no setting is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached record and reset the monitoring counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_record(t: f64) -> EvalRecord {
        let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
        let arch = crate::arch::GpuArch::a100();
        let mp = crate::footprint::ModelParams::default();
        let s = Setting::baseline();
        let footprint = crate::footprint::footprint(&spec, &arch, &s, &mp);
        let mut cost = crate::cost::kernel_cost_from_footprint(&spec, &arch, &s, &footprint, &mp);
        cost.total_ms = t;
        EvalRecord { footprint, cost, cost_s: t / 1000.0 }
    }

    #[test]
    fn get_or_insert_computes_once() {
        let memo = SimMemo::new();
        let s = Setting::baseline();
        let mut calls = 0;
        let a = memo.get_or_insert_with(&s, || {
            calls += 1;
            dummy_record(2.0)
        });
        let b = memo.get_or_insert_with(&s, || {
            calls += 1;
            dummy_record(99.0)
        });
        assert_eq!(calls, 1);
        assert_eq!(a.time_ms(), 2.0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let memo = SimMemo::new();
        let s = Setting::baseline();
        assert_eq!(memo.stats(), MemoStats::default());
        assert!(memo.get(&s).is_none());
        memo.get_or_insert_with(&s, || dummy_record(1.0));
        memo.get_or_insert_with(&s, || dummy_record(2.0));
        let _ = memo.get(&s);
        let stats = memo.stats();
        assert_eq!(stats.misses, 2, "one get miss + one insert miss");
        assert_eq!(stats.hits, 2, "one memoized insert + one get hit");
        memo.clear();
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn clear_empties_every_shard() {
        let memo = SimMemo::new();
        // Distinct settings spread across shards.
        for v in 1..=32u32 {
            let mut s = Setting::baseline();
            s.0[0] = v;
            memo.get_or_insert_with(&s, || dummy_record(v as f64));
        }
        assert_eq!(memo.len(), 32);
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn cap_bounds_entries_and_counts_evictions() {
        let memo = SimMemo::with_cap(16);
        assert_eq!(memo.cap(), 16);
        for v in 0..256u32 {
            let mut s = Setting::baseline();
            s.0[0] = v;
            memo.get_or_insert_with(&s, || dummy_record(v as f64));
        }
        // Per-shard budget is ceil(16/16) = 1, so at most one entry per
        // shard survives.
        assert!(memo.len() <= 16, "len {} over cap", memo.len());
        let stats = memo.stats();
        assert!(stats.evictions >= 240, "evictions {}", stats.evictions);
        // Evicted entries recompute to identical records: correctness
        // never depends on the cap.
        let mut s = Setting::baseline();
        s.0[0] = 3;
        let r = memo.get_or_insert_with(&s, || dummy_record(3.0));
        assert_eq!(r.time_ms(), 3.0);
        memo.clear();
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn set_cap_trims_immediately_and_zero_means_unbounded() {
        let memo = SimMemo::new();
        for v in 0..64u32 {
            let mut s = Setting::baseline();
            s.0[0] = v;
            memo.get_or_insert_with(&s, || dummy_record(v as f64));
        }
        assert_eq!(memo.len(), 64);
        assert_eq!(memo.stats().evictions, 0, "unbounded memo never evicts");
        memo.set_cap(16);
        assert!(memo.len() <= 16);
        assert!(memo.stats().evictions >= 48);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let memo = Arc::new(SimMemo::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let memo = Arc::clone(&memo);
                scope.spawn(move || {
                    for v in 0..64u32 {
                        let mut s = Setting::baseline();
                        s.0[0] = v % 8;
                        let r = memo.get_or_insert_with(&s, || dummy_record((v % 8) as f64));
                        assert_eq!(r.time_ms(), (v % 8) as f64);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 8);
    }
}
