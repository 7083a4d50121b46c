//! Memoization of the analytical model's per-setting records.
//!
//! [`SimMemo`] computes the [`EvalRecord`] of a [`Setting`] once and
//! serves it to every simulator that a session runner opted into the
//! process-wide memo of its (stencil, arch) — see [`crate::registry`] —
//! and to their evaluation threads: the in-silico analogue of csTuner's
//! avoid-recompiling-seen-configurations convention. Only settings that
//! are measured, profiled or timed get a record; the validity check
//! reads the footprint stage alone and never fills the memo.

use crate::cost::CostBreakdown;
use crate::footprint::Footprint;
use cst_space::{BuildFastHasher, Setting};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Entry cap across all shards, fixed at creation; 0 means unbounded.
    /// Eviction only drops cache entries — the model is deterministic, so
    /// a re-computed record is identical and results never depend on the
    /// cap.
    cap: usize,
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
    /// An unbounded memo.
    fn default() -> Self {
        SimMemo::with_cap(0)
    }
}

impl std::fmt::Debug for SimMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemo").field("entries", &self.len()).finish()
    }
}

/// Shard of a setting: bits of the shard maps' own fast hash that their
/// bucket index and tag bits leave unused.
fn shard_index(s: &Setting) -> usize {
    (BuildFastHasher::default().hash_one(s) >> 32) as usize % N_SHARDS
}

impl SimMemo {
    /// Empty memo bounded to roughly `cap` entries (0 = unbounded). The
    /// cap is spread evenly over the shards, rounding each shard's share
    /// up, so occupancy can sit above `cap` by less than one entry per
    /// shard.
    pub fn with_cap(cap: usize) -> Self {
        SimMemo {
            shards: std::array::from_fn(|_| RwLock::new(ShardMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            cap,
        }
    }

    /// The entry cap (0 = unbounded).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Drop arbitrary entries until `shard` fits its per-shard budget.
    /// Which entries go is not deterministic (HashMap order), but eviction
    /// only forgets cache state — recomputation yields identical records.
    fn evict_overflow(&self, shard: &mut ShardMap) {
        if self.cap == 0 {
            return;
        }
        let budget = self.cap.div_ceil(N_SHARDS);
        while shard.len() > budget {
            let victim = *shard.keys().next().expect("non-empty over-budget shard");
            shard.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_record(t: f64) -> EvalRecord {
        let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
        let arch = crate::arch::GpuArch::a100();
        let s = Setting::baseline();
        let footprint = crate::footprint::footprint(&spec, &arch, &s);
        let mut cost = crate::cost::kernel_cost_from_footprint(&spec, &arch, &s, &footprint);
        cost.total_ms = t;
        EvalRecord { footprint, cost, cost_s: t / 1000.0 }
    }

    #[test]
    fn get_or_insert_computes_once() {
        let memo = SimMemo::default();
        assert!(memo.is_empty());
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
        let memo = SimMemo::default();
        let s = Setting::baseline();
        assert_eq!(memo.stats(), MemoStats::default());
        memo.get_or_insert_with(&s, || dummy_record(1.0));
        memo.get_or_insert_with(&s, || dummy_record(2.0));
        memo.get_or_insert_with(&s, || dummy_record(3.0));
        let stats = memo.stats();
        assert_eq!(stats.misses, 1, "the first lookup computes");
        assert_eq!(stats.hits, 2, "repeats are served from the shard");
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
    }

    #[test]
    fn zero_cap_means_unbounded() {
        let memo = SimMemo::default();
        assert_eq!(memo.cap(), 0);
        for v in 0..64u32 {
            let mut s = Setting::baseline();
            s.0[0] = v;
            memo.get_or_insert_with(&s, || dummy_record(v as f64));
        }
        assert_eq!(memo.len(), 64);
        assert_eq!(memo.stats().evictions, 0, "unbounded memo never evicts");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let memo = Arc::new(SimMemo::default());
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
