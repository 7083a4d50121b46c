//! Random forest: bagged CART trees with random feature subsets.

use crate::tree::{Bins, DecisionTree, TreeConfig};
use rand::Rng;

/// Hyperparameters of a forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (the feature subset defaults to √features
    /// when left as `None`).
    pub tree: TreeConfig,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig { n_trees: 25, tree: TreeConfig::default() }
    }
}

/// A fitted random-forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fit the forest: each tree sees a bootstrap resample of the rows and
    /// √features candidates per split (unless overridden). The features
    /// are binned once for all the trees.
    ///
    /// # Panics
    /// Panics on empty or inconsistent data, or a NaN feature value.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &RandomForestConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!xs.is_empty() && xs.len() == ys.len(), "need paired samples");
        assert!(cfg.n_trees > 0, "need at least one tree");
        let n_features = xs[0].len();
        let mut tree_cfg = cfg.tree;
        if tree_cfg.feature_subset.is_none() {
            tree_cfg.feature_subset = Some(((n_features as f64).sqrt().ceil() as usize).max(1));
        }
        let n = xs.len();
        let bins = Bins::new(xs);
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let mut idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                DecisionTree::fit_binned(&bins, ys, &mut idx, n_classes, &tree_cfg, rng)
            })
            .collect();
        RandomForest { trees, n_classes }
    }

    /// Majority-vote prediction.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(x)] += 1;
        }
        votes.iter().enumerate().max_by_key(|(_, &v)| v).map(|(k, _)| k).unwrap_or(0)
    }

    /// Per-class vote fractions.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.n_classes];
        for t in &self.trees {
            votes[t.predict(x)] += 1.0;
        }
        let n = self.trees.len() as f64;
        votes.iter_mut().for_each(|v| *v /= n);
        votes
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees (never true once fitted).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The fitted trees, in fit order.
    #[cfg(test)]
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Training accuracy over a labeled set.
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        let hits = xs.iter().zip(ys).filter(|(x, &y)| self.predict(x) == y).count();
        hits as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob_data(rng: &mut StdRng, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Three well-separated 2-D blobs.
        let centers = [(0.0, 0.0), (10.0, 0.0), (5.0, 10.0)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let (cx, cy) = centers[c];
            xs.push(vec![cx + rng.gen_range(-1.5..1.5), cy + rng.gen_range(-1.5..1.5)]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn forest_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let (xs, ys) = blob_data(&mut rng, 120);
        let f = RandomForest::fit(&xs, &ys, 3, &RandomForestConfig::default(), &mut rng);
        assert!(f.accuracy(&xs, &ys) > 0.95);
        assert_eq!(f.predict(&[10.0, 0.0]), 1);
        assert_eq!(f.predict(&[5.0, 10.0]), 2);
    }

    #[test]
    fn proba_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let (xs, ys) = blob_data(&mut rng, 60);
        let f = RandomForest::fit(&xs, &ys, 3, &RandomForestConfig::default(), &mut rng);
        let p = f.predict_proba(&[0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.5);
    }

    #[test]
    fn forest_beats_chance_on_noisy_labels() {
        let mut rng = StdRng::seed_from_u64(5);
        let (xs, mut ys) = blob_data(&mut rng, 150);
        // Flip 10% of the labels.
        for i in (0..ys.len()).step_by(10) {
            ys[i] = (ys[i] + 1) % 3;
        }
        let f = RandomForest::fit(&xs, &ys, 3, &RandomForestConfig::default(), &mut rng);
        assert!(f.accuracy(&xs, &ys) > 0.7);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blob_data(&mut StdRng::seed_from_u64(6), 60);
        let f1 = RandomForest::fit(
            &xs,
            &ys,
            3,
            &RandomForestConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let f2 = RandomForest::fit(
            &xs,
            &ys,
            3,
            &RandomForestConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        for x in &xs {
            assert_eq!(f1.predict(x), f2.predict(x));
        }
    }
}
