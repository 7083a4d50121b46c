//! Order statistics, the seed generator and the outcome digest.

/// Nearest-rank index (1-based) of the `p`-th percentile of `n` samples:
/// the smallest rank with at least `p` percent of the samples at or
/// below it.
fn rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile must be 1..=100");
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// A tail percentile is only reported when at least ten samples lie
/// beyond it; fewer make it the maximum of a handful of runs.
pub fn tail_supported(n: usize, p: u32) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// An ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50)
}

/// Arithmetic mean; 0 for an empty slice (a layer that did no work).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty() && xs.iter().all(|x| *x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: the benchmark's only source of randomness. Everything a
/// workload sends is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one (seed, workload, round) triple.
    pub fn new(seed: u64, stream: u64, round: u64) -> Self {
        let mut s = SplitMix64(seed);
        let a = s.next_u64() ^ stream;
        let b = SplitMix64(a).next_u64() ^ round.wrapping_mul(0xd1b5_4a32_d192_ed03);
        SplitMix64(b)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A tuner seed; 31 bits so it survives any JSON number path exactly.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), 90.0);
        assert_eq!(percentile(&hundred, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert!(tail_supported(100, 90));
        assert!(!tail_supported(99, 90));
        assert!(!tail_supported(999, 99));
        assert!(tail_supported(1000, 99));
        assert!(tail_supported(40, 75));
        assert!(!tail_supported(39, 75));
        assert!(!tail_supported(0, 50));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splitmix_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream, round| {
            let mut r = SplitMix64::new(seed, stream, round);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
