//! Fast hashing for [`Setting`](crate::Setting)-keyed containers.
//!
//! A [`Setting`](crate::Setting) is 19 `u32`s (76 bytes). The standard library's default
//! SipHash is DoS-resistant but processes that key in many dependent
//! rounds, and it sits on the evaluator's hottest path: every memo
//! lookup, dedup pass and shard probe hashes a full setting. Settings are
//! internal search state — never attacker-chosen map keys — so the
//! hot maps trade SipHash for an Fx-style multiply–rotate–xor chain
//! (one cheap step per written word, ~an order of magnitude faster on
//! this key shape).
//!
//! [`SettingMap`]/[`SettingSet`] are drop-in `HashMap`/`HashSet` aliases
//! using this hasher. Nothing in the engine iterates these containers
//! where order could become observable (results, journals, fixtures), so
//! the hasher swap is invisible outside of speed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx family: odd, high entropy across
/// the upper bits that bucket selection uses after the final multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher: one rotate–xor–multiply per written word.
#[derive(Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (stateless, so `Default` suffices).
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed by [`Setting`](crate::Setting) (or any internal key)
/// with the fast hasher. Construct with `SettingMap::default()` or
/// [`setting_map_with_capacity`].
pub type SettingMap<V> = HashMap<crate::Setting, V, BuildFastHasher>;

/// `HashSet` of [`Setting`](crate::Setting)s with the fast hasher.
pub type SettingSet = HashSet<crate::Setting, BuildFastHasher>;

/// A [`SettingMap`] with preallocated capacity.
pub fn setting_map_with_capacity<V>(cap: usize) -> SettingMap<V> {
    SettingMap::with_capacity_and_hasher(cap, BuildFastHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Setting;
    use std::hash::BuildHasher;

    #[test]
    fn equal_settings_hash_equal_distinct_settings_differ() {
        let b = BuildFastHasher::default();
        let hash_of = |s: &Setting| b.hash_one(s);
        let s = Setting::baseline();
        assert_eq!(hash_of(&s), hash_of(&s.clone()));
        // Every single-position perturbation must change the hash (the
        // chain folds each word with a rotate, so position matters).
        for i in 0..19 {
            let mut t = s;
            t.0[i] = t.0[i].wrapping_add(1);
            assert_ne!(hash_of(&s), hash_of(&t), "position {i} not mixed in");
        }
        // Swapping values between positions must also change the hash.
        let mut swapped = s;
        swapped.0.swap(0, 1);
        if s.0[0] != s.0[1] {
            assert_ne!(hash_of(&s), hash_of(&swapped));
        }
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: SettingMap<u32> = setting_map_with_capacity(4);
        let mut set = SettingSet::default();
        let a = Setting::baseline();
        let c = a.with(crate::ParamId::TBx, 64);
        m.insert(a, 1);
        m.insert(c, 2);
        set.insert(a);
        assert_eq!(m.get(&a), Some(&1));
        assert_eq!(m.get(&c), Some(&2));
        assert!(set.contains(&a) && !set.contains(&c));
    }
}
