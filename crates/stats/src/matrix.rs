//! Minimal dense linear algebra: enough to fit PMNF models.

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty() && !rows[0].is_empty(), "matrix cannot be empty");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix { rows: rows.len(), cols, data: rows.concat() }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `Aᵀ · A` (symmetric positive semi-definite Gram matrix).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
        }
        g
    }

    /// `Aᵀ · v`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn t_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self[(r, c)] * v[r];
            }
        }
        out
    }

    /// `A · v`.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum()).collect()
    }

    /// Solve `A x = b` in place by Gaussian elimination with partial
    /// pivoting. Returns `None` for (numerically) singular systems.
    ///
    /// # Panics
    /// Panics unless `A` is square with `b.len()` rows.
    pub fn solve(mut self, mut b: Vec<f64>) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let n = self.rows;
        for col in 0..n {
            // Pivot: largest magnitude in this column at/below the diagonal.
            let pivot = (col..n).max_by(|&a, &b2| {
                self[(a, col)].abs().partial_cmp(&self[(b2, col)].abs()).unwrap()
            })?;
            if self[(pivot, col)].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = self[(col, c)];
                    self[(col, c)] = self[(pivot, c)];
                    self[(pivot, c)] = tmp;
                }
                b.swap(col, pivot);
            }
            for row in col + 1..n {
                let f = self[(row, col)] / self[(col, col)];
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    self[(row, c)] -= f * self[(col, c)];
                }
                b[row] -= f * b[col];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut s = b[row];
            for c in row + 1..n {
                s -= self[(row, c)] * x[c];
            }
            x[row] = s / self[(row, row)];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// `XᵀX + λI`, the left-hand side of the ridge-regularized least-squares
/// normal equations `(XᵀX + λI) c = Xᵀ y`; the small ridge keeps
/// degenerate PMNF design matrices (constant columns, collinear groups)
/// solvable. It does not depend on `y`, so fits of several targets over
/// one design matrix build it once and solve a clone per target.
pub(crate) fn ridge_gram(x: &Matrix, lambda: f64) -> Matrix {
    let mut g = x.gram();
    for i in 0..g.cols() {
        g[(i, i)] += lambda;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = a.solve(vec![3.0, -1.0, 2.0]).unwrap();
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal; pivoting must recover.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn gram_is_symmetric() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = x.gram();
        assert_eq!(g[(0, 1)], g[(1, 0)]);
        assert_eq!(g[(0, 0)], 1.0 + 9.0 + 25.0);
    }

    #[test]
    fn lstsq_recovers_exact_linear_model() {
        // y = 2 + 3a − b over a small grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                rows.push(vec![1.0, a as f64, b as f64]);
                y.push(2.0 + 3.0 * a as f64 - b as f64);
            }
        }
        let x = Matrix::from_rows(&rows);
        let c = ridge_gram(&x, 1e-9).solve(x.t_mul_vec(&y)).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-5);
        assert!((c[1] - 3.0).abs() < 1e-5);
        assert!((c[2] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn lstsq_survives_constant_column() {
        // Two identical columns would be singular without the ridge.
        let rows = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]];
        let x = Matrix::from_rows(&rows);
        let c = ridge_gram(&x, 1e-6).solve(x.t_mul_vec(&[2.0, 2.0, 2.0])).unwrap();
        let pred = x.mul_vec(&c);
        assert!((pred[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn mul_vec_matches_hand() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.t_mul_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Solving A·x = A·x₀ recovers x₀ for diagonally-dominant
            /// (guaranteed non-singular) systems.
            #[test]
            fn solve_roundtrips_diag_dominant(
                n in 1usize..6,
                seedvals in prop::collection::vec(-2.0f64..2.0, 36 + 6),
            ) {
                let a = Matrix::from_fn(n, n, |r, c| {
                    let v = seedvals[r * 6 + c];
                    if r == c { v + 10.0 } else { v }
                });
                let x0: Vec<f64> = (0..n).map(|i| seedvals[36 + i]).collect();
                let b = a.mul_vec(&x0);
                let x = a.clone().solve(b).expect("diag-dominant is non-singular");
                for (xi, x0i) in x.iter().zip(&x0) {
                    prop_assert!((xi - x0i).abs() < 1e-8, "{xi} vs {x0i}");
                }
            }

            /// Ridge least squares never produces non-finite coefficients
            /// and its residual is no worse than the zero model.
            #[test]
            fn lstsq_residual_beats_zero_model(
                rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 4..30),
                coef in prop::collection::vec(-3.0f64..3.0, 3),
            ) {
                let y: Vec<f64> = rows.iter().map(|r| r.iter().zip(&coef).map(|(a, b)| a * b).sum()).collect();
                let x = Matrix::from_rows(&rows);
                let c = ridge_gram(&x, 1e-8).solve(x.t_mul_vec(&y)).expect("solvable with ridge");
                prop_assert!(c.iter().all(|v| v.is_finite()));
                let pred = x.mul_vec(&c);
                let rss: f64 = pred.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum();
                let zero_rss: f64 = y.iter().map(|t| t * t).sum();
                prop_assert!(rss <= zero_rss + 1e-6, "{rss} > {zero_rss}");
            }
        }
    }
}
