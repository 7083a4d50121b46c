//! CART classification trees over fast/slow labels, with Gini impurity.
//!
//! The split search is a binned sweep. `Bins` sorts each feature's
//! distinct values once (a forest shares one across its trees) and
//! records every row's bin. A node counts its rows and its fast rows per
//! bin, then walks the bins present at the node in ascending order; each
//! candidate threshold is the midpoint `(a + b) / 2` of two consecutive
//! present values, and every bin whose value is `<= thr` moves into the
//! left counts. Those are exactly the counts a rescan of the node's rows
//! would find, so every gain, the first-best tie-break and the fitted
//! tree are bit for bit those of plain CART, at O(rows + bins) per
//! feature and node instead of O(rows × bins).

use rand::Rng;

/// Maximum depth of a tree, the root at depth 0 (this tree's value).
/// A node also stops when it is pure, which covers CART's minimum of two
/// rows per split: one row is always pure.
const MAX_DEPTH: u32 = 12;

/// A fitted tree: a row whose feature value is `<= threshold` goes left.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tree {
    Leaf { fast: bool },
    Split { feature: usize, threshold: f64, left: Box<Tree>, right: Box<Tree> },
}

impl Tree {
    /// Whether this tree votes `x` fast.
    pub(crate) fn predict(&self, x: &[f64]) -> bool {
        let mut node = self;
        loop {
            match node {
                Tree::Leaf { fast } => return *fast,
                Tree::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

/// Gini impurity of `n > 0` rows of which `fast` are fast:
/// `1 - p_slow² - p_fast²`, subtracted in that order.
fn gini(fast: usize, n: usize) -> f64 {
    let (p_slow, p_fast) = ((n - fast) as f64 / n as f64, fast as f64 / n as f64);
    1.0 - p_slow * p_slow - p_fast * p_fast
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

/// Grows the trees of one forest over its shared bins, reusing its
/// buffers across trees and nodes.
pub(crate) struct Grower<'a> {
    bins: &'a Bins,
    fast: &'a [bool],
    /// Candidate features per split, drawn without replacement:
    /// ⌈√features⌉ (this tree's value, the usual random-forest choice).
    n_candidates: usize,
    /// The node's rows per bin of the feature being searched; all zero
    /// between features.
    bin_rows: Vec<usize>,
    /// The node's fast rows per bin, likewise.
    bin_fast: Vec<usize>,
    /// The bins present at the node, ascending once sorted.
    present: Vec<u32>,
    features: Vec<usize>,
}

impl<'a> Grower<'a> {
    pub(crate) fn new(bins: &'a Bins, fast: &'a [bool]) -> Self {
        let n_features = bins.values.len();
        let max_bins = bins.values.iter().map(Vec::len).max().unwrap_or(0);
        Grower {
            bins,
            fast,
            n_candidates: (n_features as f64).sqrt().ceil() as usize,
            bin_rows: vec![0; max_bins],
            bin_fast: vec![0; max_bins],
            present: Vec::with_capacity(max_bins),
            features: Vec::with_capacity(n_features),
        }
    }

    /// Grow a tree over `idx` (row indices, repeats allowed), reordering
    /// it in place.
    pub(crate) fn grow(&mut self, idx: &mut [usize], rng: &mut impl Rng) -> Tree {
        self.node(idx, 0, rng)
    }

    fn node(&mut self, idx: &mut [usize], depth: u32, rng: &mut impl Rng) -> Tree {
        let n = idx.len();
        let n_fast = idx.iter().filter(|&&i| self.fast[i]).count();
        // The majority vote; a tie goes to the fast class.
        let leaf = Tree::Leaf { fast: n_fast >= n - n_fast };
        if depth >= MAX_DEPTH || n_fast == 0 || n_fast == n {
            return leaf;
        }
        let n_features = self.bins.values.len();
        self.features.clear();
        self.features.extend(0..n_features);
        for i in 0..self.n_candidates {
            let j = rng.gen_range(i..n_features);
            self.features.swap(i, j);
        }
        self.features.truncate(self.n_candidates);
        let Some((feature, threshold)) = self.best_split(idx, n_fast) else {
            return leaf;
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
        Tree::Split {
            feature,
            threshold,
            left: Box::new(self.node(li, depth + 1, rng)),
            right: Box::new(self.node(ri, depth + 1, rng)),
        }
    }

    /// The best (feature, threshold) over the candidate features by Gini
    /// gain, for a node of `idx` with `n_fast` fast rows. Every bin with
    /// value `<= thr` moves left, as a midpoint can round onto the upper
    /// value or overflow to infinity; the strict `gain >` keeps the first
    /// of equal gains.
    fn best_split(&mut self, idx: &[usize], n_fast: usize) -> Option<(usize, f64)> {
        let Grower { bins, fast, bin_rows, bin_fast, present, .. } = self;
        let n = idx.len();
        let parent_gini = gini(n_fast, n);
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
                bin_fast[b] += usize::from(fast[i]);
            }
            present.sort_unstable();
            let (mut ln, mut lf, mut moved) = (0, 0, 0);
            for w in present.windows(2) {
                let thr = (values[w[0] as usize] + values[w[1] as usize]) / 2.0;
                while moved < present.len() && values[present[moved] as usize] <= thr {
                    let b = present[moved] as usize;
                    ln += bin_rows[b];
                    lf += bin_fast[b];
                    moved += 1;
                }
                let rn = n - ln;
                if ln == 0 || rn == 0 {
                    continue;
                }
                let weighted =
                    (ln as f64 * gini(lf, ln) + rn as f64 * gini(n_fast - lf, rn)) / n as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
            for &b in present.iter() {
                bin_rows[b as usize] = 0;
                bin_fast[b as usize] = 0;
            }
        }
        best.map(|(f, thr, _)| (f, thr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::fast_labels;
    use crate::Surrogate;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    /// The split search the binned sweep replaced, as it was but for
    /// reading the majority class from the node's counts: sort and dedup
    /// the node's values per feature, then rescan the node's rows for
    /// every midpoint. It keeps the per-class counts, Gini and majority
    /// vote of multi-class CART, with class 1 the fast class. The oracle
    /// for [`Grower`].
    fn reference_build(
        xs: &[Vec<f64>],
        fast: &[bool],
        idx: &[usize],
        depth: u32,
        rng: &mut impl Rng,
    ) -> Tree {
        fn class_gini(counts: &[usize; 2], total: usize) -> f64 {
            let mut g = 1.0;
            for &c in counts {
                let p = c as f64 / total as f64;
                g -= p * p;
            }
            g
        }
        let mut counts = [0usize; 2];
        for &i in idx {
            counts[usize::from(fast[i])] += 1;
        }
        // Ties go to the highest class index, the fast class.
        let class = (0..2).max_by_key(|&k| counts[k]).unwrap();
        let leaf = Tree::Leaf { fast: class == 1 };
        if depth >= MAX_DEPTH || idx.len() < 2 || counts.contains(&0) {
            return leaf;
        }
        let n_features = xs[0].len();
        let k = (n_features as f64).sqrt().ceil() as usize;
        let mut features: Vec<usize> = (0..n_features).collect();
        for i in 0..k.min(n_features) {
            let j = rng.gen_range(i..features.len());
            features.swap(i, j);
        }
        features.truncate(k.min(n_features));
        let parent_gini = class_gini(&counts, idx.len());
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vals.dedup();
            for w in vals.windows(2) {
                let thr = (w[0] + w[1]) / 2.0;
                let (mut lc, mut rc) = ([0usize; 2], [0usize; 2]);
                let (mut ln, mut rn) = (0, 0);
                for &i in idx {
                    if xs[i][f] <= thr {
                        lc[usize::from(fast[i])] += 1;
                        ln += 1;
                    } else {
                        rc[usize::from(fast[i])] += 1;
                        rn += 1;
                    }
                }
                if ln == 0 || rn == 0 {
                    continue;
                }
                let weighted = (ln as f64 * class_gini(&lc, ln) + rn as f64 * class_gini(&rc, rn))
                    / idx.len() as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _gain)) = best else {
            return leaf;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][feature] <= threshold);
        Tree::Split {
            feature,
            threshold,
            left: Box::new(reference_build(xs, fast, &li, depth + 1, rng)),
            right: Box::new(reference_build(xs, fast, &ri, depth + 1, rng)),
        }
    }

    /// A binned tree over `idx`.
    fn grow(xs: &[Vec<f64>], fast: &[bool], idx: &mut [usize], rng: &mut impl Rng) -> Tree {
        Grower::new(&Bins::new(xs), fast).grow(idx, rng)
    }

    /// A binned tree over every row.
    fn grow_all(xs: &[Vec<f64>], fast: &[bool]) -> Tree {
        grow(xs, fast, &mut (0..xs.len()).collect::<Vec<_>>(), &mut rng())
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

    /// One random data set: 2–200 rows of 1–31 features, and a time per
    /// row. Each feature draws from a few small integers, from a random
    /// handful of [`EDGE_VALUES`], or from a continuum. Times take a few
    /// levels, so that ties straddle the q30 cut, or a continuum.
    fn random_data(r: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n_rows = r.gen_range(2..201);
        let n_features = r.gen_range(1..32);
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
        let times = match r.gen_range(0..2) {
            0 => {
                let levels = r.gen_range(1..5);
                (0..n_rows).map(|_| r.gen_range(0..levels) as f64).collect()
            }
            _ => (0..n_rows).map(|_| r.gen_range(0.5..5.0)).collect(),
        };
        (xs, times)
    }

    /// Equal as values and as bits: `Debug` tells `-0.0` from `0.0`.
    fn assert_same_tree(got: &Tree, want: &Tree, case: u64) {
        assert_eq!(got, want, "case {case}");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binned_trees_equal_the_rescanning_reference(case in 0u64..u64::MAX) {
            let mut r = StdRng::seed_from_u64(case);
            let (xs, times) = random_data(&mut r);
            let fast = fast_labels(&times);
            let fit_seed = r.gen::<u64>();

            // One tree over every row.
            let (mut a, mut b) = (StdRng::seed_from_u64(fit_seed), StdRng::seed_from_u64(fit_seed));
            let mut all: Vec<usize> = (0..xs.len()).collect();
            let want = reference_build(&xs, &fast, &all, 0, &mut b);
            assert_same_tree(&grow(&xs, &fast, &mut all, &mut a), &want, case);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // One tree over a bootstrap list with repeats.
            let mut idx: Vec<usize> = (0..xs.len()).map(|_| r.gen_range(0..xs.len())).collect();
            let want = reference_build(&xs, &fast, &idx, 0, &mut b);
            assert_same_tree(&grow(&xs, &fast, &mut idx, &mut a), &want, case);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn surrogate_trees_equal_the_rescanning_reference(case in 0u64..u64::MAX) {
            // The same bootstrap draws, then every tree alike, and the
            // same number of draws in all.
            let mut r = StdRng::seed_from_u64(case);
            let (xs, times) = random_data(&mut r);
            let fast = fast_labels(&times);
            let fit_seed = r.gen::<u64>();
            let (mut a, mut b) = (StdRng::seed_from_u64(fit_seed), StdRng::seed_from_u64(fit_seed));
            let surrogate = Surrogate::fit(&xs, &times, &mut a).expect("at least two rows");
            for got in surrogate.trees() {
                let idx: Vec<usize> = (0..xs.len()).map(|_| b.gen_range(0..xs.len())).collect();
                assert_same_tree(got, &reference_build(&xs, &fast, &idx, 0, &mut b), case);
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
        let fast = [false, true, true, false];
        for col in columns {
            let xs: Vec<Vec<f64>> =
                col.iter().enumerate().map(|(i, &v)| vec![v, i as f64]).collect();
            let want = reference_build(&xs, &fast, &[0, 1, 2, 3], 0, &mut rng());
            assert_same_tree(&grow_all(&xs, &fast), &want, 0);
        }
    }

    #[test]
    #[should_panic(expected = "NaN feature value")]
    fn nan_feature_panics() {
        Bins::new(&[vec![0.0, 1.0], vec![1.0, f64::NAN]]);
    }

    #[test]
    fn separable_data_is_memorized() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0], vec![11.0]];
        let fast = [true, true, true, false, false];
        let t = grow_all(&xs, &fast);
        for (x, &y) in xs.iter().zip(&fast) {
            assert_eq!(t.predict(x), y);
        }
        assert!(!t.predict(&[100.0]));
    }

    #[test]
    fn xor_is_learned_at_depth_two() {
        // No depth-one split separates XOR, so a correct fit is deeper.
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let fast = [false, true, true, false];
        let t = grow_all(&xs, &fast);
        for (x, &y) in xs.iter().zip(&fast) {
            assert_eq!(t.predict(x), y, "{x:?}");
        }
    }

    #[test]
    fn pure_node_stops_splitting() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert_eq!(grow_all(&xs, &[true; 3]), Tree::Leaf { fast: true });
        assert_eq!(grow_all(&xs, &[false; 3]), Tree::Leaf { fast: false });
    }

    #[test]
    fn a_majority_tie_goes_to_the_fast_class() {
        // Two equal rows of either label: no split exists.
        let xs = vec![vec![1.0], vec![1.0]];
        assert_eq!(grow_all(&xs, &[true, false]), Tree::Leaf { fast: true });
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(0, 4), 0.0);
        assert_eq!(gini(4, 4), 0.0);
        assert!((gini(2, 4) - 0.5).abs() < 1e-12);
    }
}
