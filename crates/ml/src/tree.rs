//! CART classification trees with Gini impurity.
//!
//! The split search is a binned sweep. `Bins` sorts each feature's
//! distinct values once (a forest shares one across its trees) and
//! records every row's bin. A node counts its rows per (bin, class),
//! then walks the bins present at the node in ascending order; each
//! candidate threshold is the midpoint `(a + b) / 2` of two consecutive
//! present values, and every bin whose value is `<= thr` moves into the
//! left counts. Those are exactly the counts a rescan of the node's rows
//! would find, so every gain, the first-best tie-break and the fitted
//! tree are bit for bit those of plain CART, at O(rows + bins) per
//! feature and node instead of O(rows × bins).

use rand::Rng;

/// Hyperparameters of one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: u32,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` tries all (plain
    /// CART), `Some(k)` samples `k` without replacement (random-forest
    /// style).
    pub feature_subset: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 12, min_samples_split: 2, feature_subset: None }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A fitted classification tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
    n_classes: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts {
        let p = c as f64 / total as f64;
        g -= p * p;
    }
    g
}

/// The most frequent class; ties go to the highest class index.
fn majority(counts: &[usize]) -> usize {
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(k, _)| k).unwrap_or(0)
}

/// Every feature's sorted distinct values and each row's bin among them,
/// computed once and shared by all the trees of a forest. `-0.0` and
/// `0.0` compare equal and share a bin.
pub(crate) struct Bins {
    n_rows: usize,
    /// `values[f]`: feature `f`'s distinct values, ascending.
    values: Vec<Vec<f64>>,
    /// `bin[f * n_rows + i]`: the index of row `i`'s value in `values[f]`.
    bin: Vec<u32>,
}

impl Bins {
    /// Bin every feature of `xs`.
    ///
    /// # Panics
    /// Panics on a NaN feature value.
    pub(crate) fn new(xs: &[Vec<f64>]) -> Self {
        let n_rows = xs.len();
        let n_features = xs[0].len();
        let mut values = Vec::with_capacity(n_features);
        let mut bin = vec![0u32; n_features * n_rows];
        let mut order: Vec<usize> = (0..n_rows).collect();
        for f in 0..n_features {
            assert!(xs.iter().all(|x| !x[f].is_nan()), "NaN feature value");
            order.sort_unstable_by(|&a, &b| xs[a][f].partial_cmp(&xs[b][f]).unwrap());
            let mut vals: Vec<f64> = Vec::new();
            for &i in &order {
                let v = xs[i][f];
                if vals.last() != Some(&v) {
                    vals.push(v);
                }
                bin[f * n_rows + i] = (vals.len() - 1) as u32;
            }
            values.push(vals);
        }
        Bins { n_rows, values, bin }
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.bin[f * self.n_rows..][..self.n_rows]
    }
}

/// One tree's fit: the shared bins plus buffers reused across its nodes.
struct Grower<'a> {
    bins: &'a Bins,
    ys: &'a [usize],
    n_classes: usize,
    cfg: &'a TreeConfig,
    /// The node's rows per class.
    counts: Vec<usize>,
    /// The node's rows per (bin, class) of the feature being searched,
    /// at `bin * n_classes + class`; all zero between features.
    hist: Vec<usize>,
    /// The node's rows per bin; all zero between features.
    bin_rows: Vec<usize>,
    /// The bins present at the node, ascending once sorted.
    present: Vec<u32>,
    left: Vec<usize>,
    right: Vec<usize>,
    features: Vec<usize>,
}

impl<'a> Grower<'a> {
    fn new(bins: &'a Bins, ys: &'a [usize], n_classes: usize, cfg: &'a TreeConfig) -> Self {
        let max_bins = bins.values.iter().map(Vec::len).max().unwrap_or(0);
        Grower {
            bins,
            ys,
            n_classes,
            cfg,
            counts: vec![0; n_classes],
            hist: vec![0; max_bins * n_classes],
            bin_rows: vec![0; max_bins],
            present: Vec::with_capacity(max_bins),
            left: vec![0; n_classes],
            right: vec![0; n_classes],
            features: Vec::with_capacity(bins.values.len()),
        }
    }

    /// Grow the subtree over `idx` (row indices, repeats allowed). The
    /// rows are reordered in place, left child's first.
    fn build(&mut self, idx: &mut [usize], depth: u32, rng: &mut impl Rng) -> Node {
        self.counts.fill(0);
        for &i in idx.iter() {
            self.counts[self.ys[i]] += 1;
        }
        let class = majority(&self.counts);
        if depth >= self.cfg.max_depth || idx.len() < self.cfg.min_samples_split {
            return Node::Leaf { class };
        }
        if self.counts.iter().filter(|&&c| c > 0).count() <= 1 {
            return Node::Leaf { class };
        }
        // Candidate features: all, or a random subset without replacement.
        let n_features = self.bins.values.len();
        self.features.clear();
        self.features.extend(0..n_features);
        if let Some(k) = self.cfg.feature_subset {
            for i in 0..k.min(n_features) {
                let j = rng.gen_range(i..n_features);
                self.features.swap(i, j);
            }
            self.features.truncate(k.min(n_features));
        }
        let Some((feature, threshold)) = self.best_split(idx) else {
            return Node::Leaf { class };
        };
        // Zero-gain splits are allowed on impure nodes (XOR-style targets
        // have no first split with positive Gini gain); both sides are
        // non-empty so recursion always terminates.
        let (column, values) = (self.bins.column(feature), &self.bins.values[feature]);
        let mut mid = 0;
        for j in 0..idx.len() {
            if values[column[idx[j]] as usize] <= threshold {
                idx.swap(mid, j);
                mid += 1;
            }
        }
        let (li, ri) = idx.split_at_mut(mid);
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(li, depth + 1, rng)),
            right: Box::new(self.build(ri, depth + 1, rng)),
        }
    }

    /// The best (feature, threshold) over the candidate features by Gini
    /// gain, `self.counts` holding the node's class counts. Every bin
    /// with value `<= thr` moves left, as a midpoint can round onto the
    /// upper value or overflow to infinity; the strict `gain >` keeps
    /// the first of equal gains.
    fn best_split(&mut self, idx: &[usize]) -> Option<(usize, f64)> {
        let Grower { bins, ys, n_classes: c, counts, hist, bin_rows, present, left, right, .. } =
            self;
        let n = idx.len();
        let parent_gini = gini(counts, n);
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
        for &f in &self.features {
            let (column, values) = (bins.column(f), &bins.values[f]);
            present.clear();
            for &i in idx {
                let b = column[i] as usize;
                if bin_rows[b] == 0 {
                    present.push(b as u32);
                }
                bin_rows[b] += 1;
                hist[b * *c + ys[i]] += 1;
            }
            present.sort_unstable();
            left.fill(0);
            let (mut ln, mut moved) = (0, 0);
            for w in present.windows(2) {
                let thr = (values[w[0] as usize] + values[w[1] as usize]) / 2.0;
                while moved < present.len() && values[present[moved] as usize] <= thr {
                    let b = present[moved] as usize;
                    left.iter_mut().zip(&hist[b * *c..]).for_each(|(l, h)| *l += h);
                    ln += bin_rows[b];
                    moved += 1;
                }
                let rn = n - ln;
                if ln == 0 || rn == 0 {
                    continue;
                }
                right.iter_mut().zip(counts.iter().zip(left.iter())).for_each(|(r, (t, l))| {
                    *r = t - l;
                });
                let weighted =
                    (ln as f64 * gini(left, ln) + rn as f64 * gini(right, rn)) / n as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
            for &b in present.iter() {
                let b = b as usize;
                bin_rows[b] = 0;
                hist[b * *c..][..*c].fill(0);
            }
        }
        best.map(|(f, thr, _)| (f, thr))
    }
}

impl DecisionTree {
    /// Fit a tree on `(xs, ys)` with class labels in `0..n_classes`.
    ///
    /// # Panics
    /// Panics on empty/ragged data, out-of-range labels or a NaN
    /// feature value.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!xs.is_empty() && xs.len() == ys.len(), "need paired samples");
        let n_features = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == n_features), "ragged features");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        DecisionTree::fit_binned(&Bins::new(xs), ys, &mut idx, n_classes, cfg, rng)
    }

    /// Fit on a multiset of row indices over pre-binned features (used
    /// by bagging, which bins once per forest). Reorders `idx`.
    pub(crate) fn fit_binned(
        bins: &Bins,
        ys: &[usize],
        idx: &mut [usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let root = Grower::new(bins, ys, n_classes, cfg).build(idx, 0, rng);
        DecisionTree { root, n_features: bins.values.len(), n_classes }
    }

    /// Predict the class of one feature vector.
    ///
    /// # Panics
    /// Panics if the vector length mismatches the training features.
    pub fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "feature length mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of classes this tree was trained with.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Depth of the fitted tree (leaf-only tree has depth 0).
    pub fn depth(&self) -> u32 {
        fn d(n: &Node) -> u32 {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomForest, RandomForestConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    /// The split search the binned sweep replaced, as it was but for
    /// reading the majority class from the node's counts: sort and dedup
    /// the node's values per feature, then rescan the node's rows for
    /// every midpoint. The oracle for [`Grower`].
    fn reference_build(
        xs: &[Vec<f64>],
        ys: &[usize],
        idx: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        depth: u32,
        rng: &mut impl Rng,
    ) -> Node {
        let mut counts = vec![0usize; n_classes];
        for &i in idx {
            counts[ys[i]] += 1;
        }
        let class = majority(&counts);
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split {
            return Node::Leaf { class };
        }
        if counts.iter().filter(|&&c| c > 0).count() <= 1 {
            return Node::Leaf { class };
        }
        let n_features = xs[0].len();
        let features: Vec<usize> = match cfg.feature_subset {
            None => (0..n_features).collect(),
            Some(k) => {
                let mut pool: Vec<usize> = (0..n_features).collect();
                for i in 0..k.min(n_features) {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(k.min(n_features));
                pool
            }
        };
        let parent_gini = gini(&counts, idx.len());
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vals.dedup();
            for w in vals.windows(2) {
                let thr = (w[0] + w[1]) / 2.0;
                let mut lc = vec![0usize; n_classes];
                let mut rc = vec![0usize; n_classes];
                let mut ln = 0;
                let mut rn = 0;
                for &i in idx {
                    if xs[i][f] <= thr {
                        lc[ys[i]] += 1;
                        ln += 1;
                    } else {
                        rc[ys[i]] += 1;
                        rn += 1;
                    }
                }
                if ln == 0 || rn == 0 {
                    continue;
                }
                let weighted =
                    (ln as f64 * gini(&lc, ln) + rn as f64 * gini(&rc, rn)) / idx.len() as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _gain)) = best else {
            return Node::Leaf { class };
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][feature] <= threshold);
        Node::Split {
            feature,
            threshold,
            left: Box::new(reference_build(xs, ys, &li, n_classes, cfg, depth + 1, rng)),
            right: Box::new(reference_build(xs, ys, &ri, n_classes, cfg, depth + 1, rng)),
        }
    }

    fn reference_tree(
        xs: &[Vec<f64>],
        ys: &[usize],
        idx: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut impl Rng,
    ) -> DecisionTree {
        let root = reference_build(xs, ys, idx, n_classes, cfg, 0, rng);
        DecisionTree { root, n_features: xs[0].len(), n_classes }
    }

    /// Values whose midpoints tie, round onto the upper value (1.0 + ε
    /// steps), overflow (±MAX and ±0.75 MAX), are NaN (-inf next to
    /// +inf) or mix zeros of both signs and subnormals.
    const EDGE_VALUES: [f64; 17] = [
        f64::NEG_INFINITY,
        -f64::MAX,
        -0.75 * f64::MAX,
        -1.0,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        1e-323,
        1.0,
        1.0 + f64::EPSILON,
        1.0 + 2.0 * f64::EPSILON,
        1.0 + 3.0 * f64::EPSILON,
        2.0,
        0.75 * f64::MAX,
        f64::MAX,
        f64::INFINITY,
    ];

    /// One random data set: 2–200 rows, 1–31 features, 2–4 classes. Each
    /// feature draws from a few small integers, from a random handful of
    /// [`EDGE_VALUES`], or from a continuum.
    fn random_data(r: &mut StdRng) -> (Vec<Vec<f64>>, Vec<usize>, usize) {
        let n_rows = r.gen_range(2..201);
        let n_features = r.gen_range(1..32);
        let n_classes = r.gen_range(2..5);
        let columns: Vec<Vec<f64>> = (0..n_features)
            .map(|_| match r.gen_range(0..3) {
                0 => {
                    let k = r.gen_range(1..6);
                    (0..n_rows).map(|_| r.gen_range(0..k) as f64).collect()
                }
                1 => {
                    let k: usize = r.gen_range(2..7);
                    let pick: Vec<f64> =
                        (0..k).map(|_| EDGE_VALUES[r.gen_range(0..EDGE_VALUES.len())]).collect();
                    (0..n_rows).map(|_| pick[r.gen_range(0..k)]).collect()
                }
                _ => (0..n_rows).map(|_| r.gen_range(-4.0..4.0)).collect(),
            })
            .collect();
        let xs = (0..n_rows).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let ys = (0..n_rows).map(|_| r.gen_range(0..n_classes)).collect();
        (xs, ys, n_classes)
    }

    fn random_config(r: &mut StdRng, n_features: usize) -> TreeConfig {
        TreeConfig {
            max_depth: r.gen_range(0..13),
            min_samples_split: r.gen_range(0..5),
            feature_subset: match r.gen_range(0..3) {
                0 => None,
                _ => Some(r.gen_range(1..n_features + 2)),
            },
        }
    }

    /// Equal as values and as bits: `Debug` tells `-0.0` from `0.0`.
    fn assert_same_tree(got: &DecisionTree, want: &DecisionTree, case: u64) {
        assert_eq!(got, want, "case {case}");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binned_fits_equal_the_rescanning_reference(case in 0u64..u64::MAX) {
            let mut r = StdRng::seed_from_u64(case);
            let (xs, ys, n_classes) = random_data(&mut r);
            let cfg = random_config(&mut r, xs[0].len());
            let fit_seed = r.gen::<u64>();

            // One tree over every row.
            let (mut a, mut b) = (StdRng::seed_from_u64(fit_seed), StdRng::seed_from_u64(fit_seed));
            let all: Vec<usize> = (0..xs.len()).collect();
            let got = DecisionTree::fit(&xs, &ys, n_classes, &cfg, &mut a);
            assert_same_tree(&got, &reference_tree(&xs, &ys, &all, n_classes, &cfg, &mut b), case);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // One tree over a bootstrap list with repeats.
            let mut idx: Vec<usize> = (0..xs.len()).map(|_| r.gen_range(0..xs.len())).collect();
            let want = reference_tree(&xs, &ys, &idx, n_classes, &cfg, &mut b);
            let got = DecisionTree::fit_binned(&Bins::new(&xs), &ys, &mut idx, n_classes, &cfg, &mut a);
            assert_same_tree(&got, &want, case);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // A forest: the same bootstrap draws, then every tree alike.
            let forest_cfg = RandomForestConfig { n_trees: r.gen_range(1..5), tree: cfg };
            let forest = RandomForest::fit(&xs, &ys, n_classes, &forest_cfg, &mut a);
            let mut tree_cfg = cfg;
            if tree_cfg.feature_subset.is_none() {
                let k = (xs[0].len() as f64).sqrt().ceil() as usize;
                tree_cfg.feature_subset = Some(k.max(1));
            }
            for got in forest.trees() {
                let idx: Vec<usize> = (0..xs.len()).map(|_| b.gen_range(0..xs.len())).collect();
                let want = reference_tree(&xs, &ys, &idx, n_classes, &tree_cfg, &mut b);
                assert_same_tree(got, &want, case);
            }
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn edge_value_splits_match_the_reference() {
        // Hand-picked columns where the midpoint rounds onto the upper
        // value, overflows, or is NaN, each next to a plain column.
        let eps = f64::EPSILON;
        let columns: [&[f64]; 5] = [
            &[1.0 + eps, 1.0 + 2.0 * eps, 1.0 + eps, 1.0 + 2.0 * eps],
            &[0.75 * f64::MAX, f64::MAX, 0.75 * f64::MAX, f64::MAX],
            &[-f64::MAX, -0.75 * f64::MAX, -f64::MAX, -0.75 * f64::MAX],
            &[f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY],
            &[-0.0, 5e-324, 0.0, -5e-324],
        ];
        let ys = [0, 1, 1, 0];
        for col in columns {
            let xs: Vec<Vec<f64>> =
                col.iter().enumerate().map(|(i, &v)| vec![v, i as f64]).collect();
            let cfg = TreeConfig::default();
            let got = DecisionTree::fit(&xs, &ys, 2, &cfg, &mut rng());
            let want = reference_tree(&xs, &ys, &[0, 1, 2, 3], 2, &cfg, &mut rng());
            assert_same_tree(&got, &want, 0);
        }
    }

    #[test]
    #[should_panic(expected = "NaN feature value")]
    fn nan_feature_panics() {
        let xs = vec![vec![0.0, 1.0], vec![1.0, f64::NAN]];
        DecisionTree::fit(&xs, &[0, 1], 2, &TreeConfig::default(), &mut rng());
    }

    #[test]
    fn separable_data_is_memorized() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0], vec![11.0]];
        let ys = vec![0, 0, 0, 1, 1];
        let t = DecisionTree::fit(&xs, &ys, 2, &TreeConfig::default(), &mut rng());
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(t.predict(x), y);
        }
        assert_eq!(t.predict(&[100.0]), 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![0, 1, 1, 0];
        let t = DecisionTree::fit(&xs, &ys, 2, &TreeConfig::default(), &mut rng());
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(t.predict(x), y, "{x:?}");
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn depth_limit_forces_leaf() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0, 1];
        let cfg = TreeConfig { max_depth: 0, ..Default::default() };
        let t = DecisionTree::fit(&xs, &ys, 2, &cfg, &mut rng());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![1, 1, 1];
        let t = DecisionTree::fit(&xs, &ys, 2, &TreeConfig::default(), &mut rng());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[5.0]), 1);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[4, 0], 4), 0.0);
        assert!((gini(&[2, 2], 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        DecisionTree::fit(&[vec![0.0]], &[3], 2, &TreeConfig::default(), &mut rng());
    }
}
