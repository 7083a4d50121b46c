//! Quantile-label performance surrogate: the one fast/slow forest shared
//! by every consumer in the workspace.
//!
//! Garvey's memory-type predictor, the online forest tuner, and the
//! transfer knowledge base all reduce to the same scheme — label the
//! fastest [`FAST_QUANTILE`] of observed times as "fast", fit a
//! [`RandomForest`] classifier on feature vectors, and rank candidates by
//! predicted P(fast). Before this module each caller hand-rolled the
//! labeling and fit loop; they now share this implementation (and its
//! exact rng draw sequence, so the dedup is bit-identical to the old
//! copies).

use crate::{RandomForest, RandomForestConfig};
use rand::Rng;

/// Fraction of observed times labeled "fast" (Garvey's q30 scheme).
pub const FAST_QUANTILE: f64 = 0.3;

/// The fast-time threshold of a sample: sort and take the
/// [`FAST_QUANTILE`] order statistic, exactly as the historical Garvey /
/// forest-tuner copies did.
///
/// # Panics
/// Panics on an empty slice or NaN times (callers feed measured,
/// non-NaN data; `INFINITY` penalties sort last and are harmless).
pub fn fast_threshold(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "need at least one time");
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[(sorted.len() as f64 * FAST_QUANTILE) as usize]
}

/// A fitted fast/slow surrogate: a forest classifier plus the threshold
/// it was labeled against.
#[derive(Debug, Clone)]
pub struct Surrogate {
    forest: RandomForest,
    threshold_ms: f64,
    n_train: usize,
}

impl Surrogate {
    /// Fit on paired (feature vector, observed time) rows. Returns `None`
    /// when fewer than two rows exist (a forest needs something to
    /// split); otherwise draws from `rng` exactly as a direct
    /// [`RandomForest::fit`] with q-quantile labels would.
    pub fn fit(xs: &[Vec<f64>], times: &[f64], rng: &mut impl Rng) -> Option<Surrogate> {
        assert_eq!(xs.len(), times.len(), "need paired rows");
        if xs.len() < 2 {
            return None;
        }
        let threshold_ms = fast_threshold(times);
        let ys: Vec<usize> = times.iter().map(|&t| usize::from(t <= threshold_ms)).collect();
        let forest = RandomForest::fit(xs, &ys, 2, &RandomForestConfig::default(), rng);
        Some(Surrogate { forest, threshold_ms, n_train: xs.len() })
    }

    /// Predicted probability that a candidate lands in the fast class.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.forest.predict_proba(x)[1]
    }

    /// The fast-class time threshold used for labeling.
    pub fn threshold_ms(&self) -> f64 {
        self.threshold_ms
    }

    /// Training rows the surrogate was fitted on.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Indices of `candidates` ranked by descending score, index
    /// breaking ties — stable and bit-deterministic.
    pub fn rank(&self, candidates: &[Vec<f64>]) -> Vec<usize> {
        let scores: Vec<f64> = candidates.iter().map(|x| self.score(x)).collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic() -> (Vec<Vec<f64>>, Vec<f64>) {
        // Time grows with the first feature; the rest is noise-free filler.
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let times: Vec<f64> = (0..60).map(|i| 1.0 + i as f64).collect();
        (xs, times)
    }

    #[test]
    fn threshold_matches_the_legacy_q30_index() {
        let times = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        // sorted = [1,2,3,4,5]; index (5*0.3) as usize = 1 → 2.0
        assert_eq!(fast_threshold(&times), 2.0);
    }

    #[test]
    fn surrogate_prefers_fast_candidates() {
        let (xs, times) = synthetic();
        let s = Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(s.score(&[2.0, 0.0]) > s.score(&[55.0, 0.0]));
        assert_eq!(s.n_train(), 60);
        assert!(s.threshold_ms() < 20.0);
    }

    #[test]
    fn rank_is_deterministic_and_front_loads_fast_rows() {
        let (xs, times) = synthetic();
        let s = Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(2)).unwrap();
        let order = s.rank(&xs);
        let again = s.rank(&xs);
        assert_eq!(order, again);
        let front: f64 = order[..10].iter().map(|&i| times[i]).sum();
        let back: f64 = order[order.len() - 10..].iter().map(|&i| times[i]).sum();
        assert!(front < back, "front {front} vs back {back}");
    }

    #[test]
    fn too_few_rows_yield_none() {
        assert!(Surrogate::fit(&[vec![1.0]], &[2.0], &mut StdRng::seed_from_u64(3)).is_none());
        assert!(Surrogate::fit(&[], &[], &mut StdRng::seed_from_u64(3)).is_none());
    }

    #[test]
    fn fit_draws_rng_exactly_like_a_direct_forest_fit() {
        // The dedup contract: callers that previously labeled and fitted
        // by hand must see an identical rng stream through Surrogate::fit.
        let (xs, times) = synthetic();
        let q = fast_threshold(&times);
        let ys: Vec<usize> = times.iter().map(|&t| usize::from(t <= q)).collect();
        let mut r1 = StdRng::seed_from_u64(9);
        let direct = RandomForest::fit(&xs, &ys, 2, &RandomForestConfig::default(), &mut r1);
        let mut r2 = StdRng::seed_from_u64(9);
        let s = Surrogate::fit(&xs, &times, &mut r2).unwrap();
        for x in &xs {
            assert_eq!(direct.predict_proba(x), vec![1.0 - s.score(x), s.score(x)]);
        }
        // Both consumed the same number of draws.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }
}
