//! The fast/slow forest surrogate shared by the Garvey baseline, the
//! forest tuner and transfer warm starts.
//!
//! The Garvey baseline (§II-C, \[13\]) trains a random forest to predict the
//! optimal *memory type* (global / shared / constant+shared …) of a stencil
//! from kernel features before searching the remaining parameters. This
//! crate fits that one model, [`Surrogate`]: it labels the fastest 30% of
//! observed times fast (Garvey's q30 labels), grows 25 Gini CART trees on
//! bootstrap resamples with ⌈√features⌉ random candidate features per
//! split, and scores a candidate by the fraction of trees that vote it
//! fast. No ML crates are in the approved dependency set, so the forest
//! is built from scratch.
//!
//! The split search is binned: a forest sorts each feature's distinct
//! values once, and a node sweeps a per-bin histogram of its rows and
//! fast rows over the midpoints of the values present at the node. It
//! finds the counts a rescan of the node's rows would, so the trees, the
//! rng draws and every score are plain CART's, bit for bit (see
//! `tree.rs`).

mod surrogate;
mod tree;

pub use surrogate::Surrogate;
