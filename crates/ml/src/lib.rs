//! Minimal machine-learning substrate: CART decision trees and a random
//! forest classifier.
//!
//! The Garvey baseline (§II-C, \[13\]) trains a random forest to predict the
//! optimal *memory type* (global / shared / constant+shared …) of a stencil
//! from kernel features before searching the remaining parameters. No ML
//! crates are in the approved dependency set, so the forest is built from
//! scratch: Gini-impurity CART trees over bootstrap samples with random
//! feature subsets, majority-vote prediction.

pub mod forest;
pub mod surrogate;
pub mod tree;

pub use forest::{RandomForest, RandomForestConfig};
pub use surrogate::{fast_threshold, Surrogate, FAST_QUANTILE};
pub use tree::{DecisionTree, TreeConfig};
