//! Quantile-label performance surrogate: the one fast/slow forest shared
//! by every consumer in the workspace.
//!
//! Garvey's memory-type predictor, the online forest tuner, and the
//! transfer knowledge base all reduce to the same scheme — label the
//! fastest [`FAST_QUANTILE`] of observed times as "fast", fit a random
//! forest on feature vectors, and rank candidates by the share of trees
//! that vote fast.

use crate::tree::{Bins, Grower, Tree};
use rand::Rng;

/// Fraction of observed times labeled "fast" (Garvey's q30 labels).
const FAST_QUANTILE: f64 = 0.3;

/// Trees per forest (this tree's value).
const N_TREES: usize = 25;

/// Garvey's q30 labels: a time is fast when it is at most the
/// [`FAST_QUANTILE`] order statistic of `times`, ties included.
pub(crate) fn fast_labels(times: &[f64]) -> Vec<bool> {
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
    let threshold = sorted[(sorted.len() as f64 * FAST_QUANTILE) as usize];
    times.iter().map(|&t| t <= threshold).collect()
}

/// A fitted fast/slow surrogate: `N_TREES` CART trees, each grown on a
/// bootstrap resample of the rows with random feature subsets.
#[derive(Debug, Clone)]
pub struct Surrogate {
    trees: Vec<Tree>,
    n_features: usize,
}

impl Surrogate {
    /// Fit on paired (feature vector, observed time) rows. Returns `None`
    /// when fewer than two rows exist (a forest needs something to
    /// split). The features are binned once for all the trees; tree by
    /// tree, `rng` draws the bootstrap, then the feature subsets.
    ///
    /// # Panics
    /// Panics on unpaired rows, or on a NaN time or feature value
    /// (`INFINITY` penalties sort last and are harmless).
    pub fn fit(xs: &[Vec<f64>], times: &[f64], rng: &mut impl Rng) -> Option<Surrogate> {
        assert_eq!(xs.len(), times.len(), "need paired rows");
        let n = xs.len();
        if n < 2 {
            return None;
        }
        let fast = fast_labels(times);
        let bins = Bins::new(xs);
        let mut grower = Grower::new(&bins, &fast);
        let trees = (0..N_TREES)
            .map(|_| {
                let mut idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                grower.grow(&mut idx, rng)
            })
            .collect();
        Some(Surrogate { trees, n_features: xs[0].len() })
    }

    /// Predicted probability that a candidate lands in the fast class:
    /// the fraction of trees that vote it fast.
    ///
    /// # Panics
    /// Panics if `x`'s length differs from the training rows'.
    pub fn score(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature length mismatch");
        let fast = self.trees.iter().filter(|t| t.predict(x)).count();
        fast as f64 / N_TREES as f64
    }

    /// The fitted trees, in fit order.
    #[cfg(test)]
    pub(crate) fn trees(&self) -> &[Tree] {
        &self.trees
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
    fn labels_follow_the_legacy_q30_index() {
        // sorted = [1,2,3,4,5]; index (5*0.3) as usize = 1 → 2.0
        assert_eq!(fast_labels(&[5.0, 1.0, 3.0, 2.0, 4.0]), [false, true, false, true, false]);
        // Ties at the cut are all fast.
        assert_eq!(fast_labels(&[2.0, 1.0, 1.0, 1.0]), [false, true, true, true]);
    }

    #[test]
    fn surrogate_prefers_fast_candidates() {
        let (xs, times) = synthetic();
        let s = Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(s.score(&[2.0, 0.0]) > s.score(&[55.0, 0.0]));
    }

    #[test]
    fn scores_are_deterministic_and_front_load_fast_rows() {
        let (xs, times) = synthetic();
        let ranked = |seed| {
            let s = Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(seed)).unwrap();
            let scores: Vec<f64> = xs.iter().map(|x| s.score(x)).collect();
            let mut order: Vec<usize> = (0..xs.len()).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
            order
        };
        let order = ranked(2);
        assert_eq!(order, ranked(2));
        let front: f64 = order[..10].iter().map(|&i| times[i]).sum();
        let back: f64 = order[order.len() - 10..].iter().map(|&i| times[i]).sum();
        assert!(front < back, "front {front} vs back {back}");
    }

    #[test]
    fn training_rows_score_their_labels_despite_label_noise() {
        // Every tenth time is moved to the other end of the range.
        let xs: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64, (i % 11) as f64]).collect();
        let times: Vec<f64> =
            (0..150).map(|i| if i % 10 == 0 { 150.0 - i as f64 } else { i as f64 }).collect();
        let s = Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(5)).unwrap();
        let fast = fast_labels(&times);
        let hits = xs.iter().zip(&fast).filter(|(x, &f)| (s.score(x) > 0.5) == f).count();
        assert!(hits as f64 / xs.len() as f64 > 0.7, "{hits} of {}", xs.len());
    }

    #[test]
    fn too_few_rows_yield_none() {
        assert!(Surrogate::fit(&[vec![1.0]], &[2.0], &mut StdRng::seed_from_u64(3)).is_none());
        assert!(Surrogate::fit(&[], &[], &mut StdRng::seed_from_u64(3)).is_none());
    }
}
