//! Performance Model Normal Form regression over parameter groups (Eq. 3).
//!
//! PMNF assumes performance-like quantities are combinations of polynomial
//! and logarithmic terms of the inputs. Following the paper, parameters
//! *within* a group (strong correlation) multiply and the groups (weak
//! correlation) accumulate:
//!
//! ```text
//! f(P) = Σ_{k=1..n} c_k · Π_{l ∈ group_k} P_l^i · log2^j(P_l)
//! ```
//!
//! For a fixed exponent pair `(i, j)` the model is *linear* in the
//! coefficients `c_k`, so each candidate is fit by (ridge) least squares —
//! the role scikit-learn's `curve_fit` plays in the original — and the
//! candidate with the lowest residual standard error wins. With
//! `i ∈ {0,1,2}`, `j ∈ {0,1}` (the paper's §V-A ranges) the function search
//! space is `|I|·|J|` regardless of the number of parameters, which is the
//! entire point of grouping.

use crate::basic::residual_standard_error;
use crate::matrix::{ridge_gram, Matrix};

/// Ridge of the least-squares fits: keeps degenerate design matrices
/// (constant columns, collinear groups) solvable.
const RIDGE: f64 = 1e-8;

/// Polynomial exponents `i` of the search space (the paper's §V-A:
/// {0, 1, 2}).
const PMNF_I: [u32; 3] = [0, 1, 2];
/// Logarithm exponents `j` of the search space (the paper's §V-A:
/// {0, 1}).
const PMNF_J: [u32; 2] = [0, 1];

/// Largest parameter value whose factors [`PmnfBank`] tabulates; the
/// suite's values are powers of two up to 1024. Larger values are
/// computed on the fly.
const TABLE_MAX: u32 = 1024;

/// One exponent pair of the PMNF search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmnfCandidate {
    /// Polynomial exponent `i`.
    pub i: u32,
    /// Logarithm exponent `j`.
    pub j: u32,
}

/// A fitted PMNF model.
#[derive(Debug, Clone, PartialEq)]
pub struct PmnfModel {
    /// Winning exponents.
    pub candidate: PmnfCandidate,
    /// Parameter index groups (indices into the sample vectors).
    pub groups: Vec<Vec<usize>>,
    /// Fitted coefficients: intercept followed by one `c_k` per group.
    pub coeffs: Vec<f64>,
    /// Residual standard error on the training data.
    pub rse: f64,
}

/// One parameter's factor in a term: `v^i · log2(v)^j` with `v` clamped
/// to at least 1 (parameters are encoded ≥ 1, §IV-B).
fn factor(x: f64, cand: PmnfCandidate) -> f64 {
    let v = x.max(1.0);
    v.powi(cand.i as i32) * v.log2().powi(cand.j as i32)
}

fn term_value(x: &[f64], group: &[usize], cand: PmnfCandidate) -> f64 {
    let mut prod = 1.0;
    for &l in group {
        prod *= factor(x[l], cand);
    }
    prod
}

fn design(xs: &[Vec<f64>], groups: &[Vec<usize>], cand: PmnfCandidate) -> Matrix {
    Matrix::from_fn(xs.len(), groups.len() + 1, |r, c| {
        if c == 0 {
            1.0
        } else {
            term_value(&xs[r], &groups[c - 1], cand)
        }
    })
}

impl PmnfModel {
    /// Predict the modeled quantity for one parameter-value vector. The
    /// reference evaluation: [`PmnfBank::predict`] gives the same bits.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut y = self.coeffs[0];
        for (k, g) in self.groups.iter().enumerate() {
            y += self.coeffs[k + 1] * term_value(x, g, self.candidate);
        }
        y
    }
}

/// Fit every `(i, j)` candidate of `PMNF_I` × `PMNF_J` and return
/// the model with the smallest RSE. Candidates whose design matrix cannot
/// be solved are skipped; the degenerate all-zero candidate `(0, 0)`
/// (a constant model) is kept as a fallback so the function always
/// returns a model.
///
/// `xs` holds one raw parameter-value vector per sample (values ≥ 1);
/// `y` the observed quantity. The one-target case of
/// [`fit_pmnf_targets`].
///
/// # Panics
/// Panics if the sample set is empty, lengths mismatch, or `groups` is
/// empty.
pub fn fit_pmnf(xs: &[Vec<f64>], y: &[f64], groups: &[Vec<usize>]) -> PmnfModel {
    fit_pmnf_targets(xs, &[y], groups).remove(0)
}

/// [`fit_pmnf`] for several targets over the same samples and groups:
/// each candidate's design matrix and ridge Gram matrix are built once,
/// and only `Xᵀy` and the solve differ between targets. Returns one
/// model per target, in order, each bit-identical to a separate
/// [`fit_pmnf`] on that target.
///
/// # Panics
/// As [`fit_pmnf`], for any target.
pub fn fit_pmnf_targets(xs: &[Vec<f64>], ys: &[&[f64]], groups: &[Vec<usize>]) -> Vec<PmnfModel> {
    assert!(!xs.is_empty() && ys.iter().all(|y| y.len() == xs.len()), "need paired samples");
    assert!(!groups.is_empty(), "need at least one parameter group");
    let mut best: Vec<Option<PmnfModel>> = vec![None; ys.len()];
    for i in PMNF_I {
        for j in PMNF_J {
            let cand = PmnfCandidate { i, j };
            let x = design(xs, groups, cand);
            let g = ridge_gram(&x, RIDGE);
            for (y, best) in ys.iter().zip(&mut best) {
                let Some(coeffs) = g.clone().solve(x.t_mul_vec(y)) else { continue };
                if coeffs.iter().any(|c| !c.is_finite()) {
                    continue;
                }
                let y_hat = x.mul_vec(&coeffs);
                let rse = residual_standard_error(y, &y_hat, coeffs.len());
                if best.as_ref().is_none_or(|b| rse < b.rse) {
                    *best =
                        Some(PmnfModel { candidate: cand, groups: groups.to_vec(), coeffs, rse });
                }
            }
        }
    }
    best.into_iter().map(|b| b.expect("the constant candidate always fits")).collect()
}

/// Several fitted models over one group list, evaluated together on
/// integer parameter vectors. Each distinct exponent pair keeps a table
/// of its per-parameter factor per value, and a term's product is
/// computed once per pair and shared by every model fitted with that
/// pair. Every factor and product is the same operation on the same
/// inputs as in [`PmnfModel::predict`], so the predictions are
/// bit-identical.
#[derive(Debug, Clone)]
pub struct PmnfBank {
    groups: Vec<Vec<usize>>,
    /// Each model's coefficients, in bank order.
    coeffs: Vec<Vec<f64>>,
    pairs: Vec<PairTerms>,
}

/// One distinct exponent pair of a [`PmnfBank`].
#[derive(Debug, Clone)]
struct PairTerms {
    cand: PmnfCandidate,
    /// The factor of each value in `0..=TABLE_MAX`.
    table: Vec<f64>,
    /// Bank indices of the models fitted with this pair.
    models: Vec<usize>,
}

impl PmnfBank {
    /// Bank the models, in order.
    ///
    /// # Panics
    /// Panics if the models do not share one group list.
    pub fn new(models: &[&PmnfModel]) -> Self {
        let groups = models.first().map(|m| m.groups.as_slice()).unwrap_or_default();
        assert!(models.iter().all(|m| m.groups == groups), "banked models share their groups");
        let mut pairs: Vec<PairTerms> = Vec::new();
        for (m, model) in models.iter().enumerate() {
            let cand = model.candidate;
            match pairs.iter_mut().find(|p| p.cand == cand) {
                Some(p) => p.models.push(m),
                None => pairs.push(PairTerms {
                    cand,
                    table: (0..=TABLE_MAX).map(|v| factor(v as f64, cand)).collect(),
                    models: vec![m],
                }),
            }
        }
        PmnfBank {
            groups: groups.to_vec(),
            coeffs: models.iter().map(|m| m.coeffs.clone()).collect(),
            pairs,
        }
    }

    /// Predict every banked model at `x`, in bank order. `buf` is
    /// scratch that the bank sizes itself; reusing it across calls
    /// avoids allocating. The predictions borrow from it.
    ///
    /// # Panics
    /// Panics if a group indexes past `x`.
    pub fn predict<'b>(&self, x: &[u32], buf: &'b mut Vec<f64>) -> &'b [f64] {
        buf.resize(self.coeffs.len() + self.groups.len(), 0.0);
        let (ys, terms) = buf.split_at_mut(self.coeffs.len());
        for p in &self.pairs {
            for (t, g) in terms.iter_mut().zip(&self.groups) {
                let mut prod = 1.0;
                for &l in g {
                    prod *= match p.table.get(x[l] as usize) {
                        Some(&f) => f,
                        None => factor(x[l] as f64, p.cand),
                    };
                }
                *t = prod;
            }
            for &m in &p.models {
                let c = &self.coeffs[m];
                let mut y = c[0];
                for (&ck, &t) in c[1..].iter().zip(terms.iter()) {
                    y += ck * t;
                }
                ys[m] = y;
            }
        }
        ys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_samples(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    2f64.powi(rng.gen_range(0..6)),
                    2f64.powi(rng.gen_range(0..6)),
                    2f64.powi(rng.gen_range(0..4)),
                ]
            })
            .collect()
    }

    #[test]
    fn recovers_linear_product_model() {
        // y = 3 + 2·(p0·p1) + 5·p2 with groups {0,1} and {2} → best (i=1, j=0).
        let mut rng = StdRng::seed_from_u64(1);
        let xs = grid_samples(&mut rng, 60);
        let y: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] * x[1] + 5.0 * x[2]).collect();
        let m = fit_pmnf(&xs, &y, &[vec![0, 1], vec![2]]);
        assert_eq!(m.candidate, PmnfCandidate { i: 1, j: 0 });
        assert!(m.rse < 1e-6, "rse = {}", m.rse);
        assert!((m.predict(&[4.0, 8.0, 2.0]) - (3.0 + 2.0 * 32.0 + 10.0)).abs() < 1e-4);
    }

    #[test]
    fn recovers_logarithmic_model() {
        // y = 1 + 4·log2(p0)·log2(p1) → best (i=0, j=1).
        let mut rng = StdRng::seed_from_u64(2);
        let xs = grid_samples(&mut rng, 60);
        let y: Vec<f64> = xs.iter().map(|x| 1.0 + 4.0 * x[0].log2() * x[1].log2()).collect();
        let m = fit_pmnf(&xs, &y, &[vec![0, 1]]);
        assert_eq!(m.candidate, PmnfCandidate { i: 0, j: 1 });
        assert!(m.rse < 1e-6, "rse = {}", m.rse);
    }

    #[test]
    fn recovers_quadratic_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = grid_samples(&mut rng, 80);
        let y: Vec<f64> = xs.iter().map(|x| 0.5 + 1.5 * x[2] * x[2]).collect();
        let m = fit_pmnf(&xs, &y, &[vec![2]]);
        assert_eq!(m.candidate, PmnfCandidate { i: 2, j: 0 });
    }

    #[test]
    fn noisy_fit_still_selects_right_family() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs = grid_samples(&mut rng, 120);
        let y: Vec<f64> = xs.iter().map(|x| 10.0 + 3.0 * x[0] + rng.gen_range(-0.5..0.5)).collect();
        let m = fit_pmnf(&xs, &y, &[vec![0], vec![1], vec![2]]);
        // Prediction tracks the trend despite the noise.
        let lo = m.predict(&[1.0, 4.0, 4.0]);
        let hi = m.predict(&[32.0, 4.0, 4.0]);
        assert!(hi - lo > 80.0, "slope lost: {lo} → {hi}");
    }

    #[test]
    fn constant_target_yields_tiny_rse() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs = grid_samples(&mut rng, 30);
        let y = vec![7.0; 30];
        let m = fit_pmnf(&xs, &y, &[vec![0, 1, 2]]);
        assert!(m.rse < 1e-6);
        assert!((m.predict(&xs[0]) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn values_below_one_are_clamped_not_nan() {
        let m = fit_pmnf(&[vec![1.0], vec![2.0], vec![4.0]], &[1.0, 2.0, 3.0], &[vec![0]]);
        assert!(m.predict(&[0.5]).is_finite());
    }

    #[test]
    #[should_panic(expected = "paired samples")]
    fn empty_samples_panic() {
        fit_pmnf(&[], &[], &[vec![0]]);
    }

    #[test]
    fn multi_target_fit_equals_separate_fits() {
        let mut rng = StdRng::seed_from_u64(6);
        let xs = grid_samples(&mut rng, 50);
        let ys: Vec<Vec<f64>> = vec![
            xs.iter().map(|x| 3.0 + x[0] * x[1]).collect(),
            xs.iter().map(|x| x[2].log2() + rng.gen_range(-0.1..0.1)).collect(),
            vec![2.0; 50],
        ];
        let targets: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
        let groups = [vec![0, 1], vec![2], vec![0]];
        let shared = fit_pmnf_targets(&xs, &targets, &groups);
        for (m, y) in shared.iter().zip(&ys) {
            let alone = fit_pmnf(&xs, y, &groups);
            assert_eq!(m.candidate, alone.candidate);
            let bits = |m: &PmnfModel| m.coeffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m), bits(&alone));
            assert_eq!(m.rse.to_bits(), alone.rse.to_bits());
        }
    }

    #[test]
    fn bank_predicts_the_bits_of_each_model() {
        // Arbitrary values (inexact logs, some past the table and one
        // zero) and groups of up to four factors, so any change to a
        // factor, a product's order or a sum's order shows in the bits.
        let mut rng = StdRng::seed_from_u64(7);
        let groups = vec![vec![0, 1, 2, 3], vec![4], vec![1, 3, 4], vec![2], vec![0, 5]];
        let models: Vec<PmnfModel> = [(0, 1), (1, 1), (2, 0), (1, 1), (0, 0), (2, 1)]
            .into_iter()
            .map(|(i, j)| PmnfModel {
                candidate: PmnfCandidate { i, j },
                groups: groups.clone(),
                coeffs: (0..=groups.len()).map(|_| rng.gen_range(-5.0..5.0)).collect(),
                rse: 0.0,
            })
            .collect();
        let bank = PmnfBank::new(&models.iter().collect::<Vec<_>>());
        let mut buf = Vec::new();
        for n in 0..500 {
            let x: Vec<u32> =
                (0..6).map(|l| if n == 0 && l == 2 { 0 } else { rng.gen_range(0..1500) }).collect();
            let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            let ys = bank.predict(&x, &mut buf);
            assert_eq!(ys.len(), models.len());
            for (m, y) in models.iter().zip(ys) {
                assert_eq!(y.to_bits(), m.predict(&xf).to_bits(), "{:?} at {x:?}", m.candidate);
            }
        }
    }
}
