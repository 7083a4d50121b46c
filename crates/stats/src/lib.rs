//! Statistics and regression substrate.
//!
//! Everything §IV of the paper borrows from statistics and machine-learning
//! tooling, implemented from scratch:
//!
//! - [`basic`]: mean/variance, the coefficient of variation of Eq. 1, the
//!   Pearson correlation coefficient of Eq. 2, and the residual standard
//!   error used to select PMNF functions (the paper prefers RSE over R²
//!   for non-linear fits).
//! - [`matrix`]: a small dense row-major matrix with a partial-pivot
//!   Gaussian solver and ridge-regularized linear least squares — the
//!   `curve_fit` replacement (PMNF candidates are linear in their
//!   coefficients once the exponents are fixed).
//! - [`pmnf`]: performance-model-normal-form term generation over
//!   parameter groups (Eq. 3), best-candidate selection by RSE (one
//!   least-squares setup per exponent pair, shared by every target), and
//!   a bank that evaluates several fitted models from per-value factor
//!   tables.

pub mod basic;
pub mod matrix;
pub mod pmnf;

pub use basic::{
    coefficient_of_variation, mean, pearson, residual_standard_error, std_dev, variance,
};
pub use matrix::Matrix;
pub use pmnf::{fit_pmnf, fit_pmnf_targets, PmnfBank, PmnfCandidate, PmnfModel};
