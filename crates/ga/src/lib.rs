//! Island-model genetic algorithm (§IV-E, Fig. 6).
//!
//! The paper runs one sub-population per MPI process, migrating individuals
//! around a single-ring topology; new individuals are bred by uniform
//! gene-level crossover from fitness-biased neighborhood parents and
//! bit-level mutation over binary-encoded genes. This crate reproduces that
//! design in one process, with two drivers over the same state:
//!
//! - [`GaState::step`]: one synchronous generation at a time, letting the
//!   caller evaluate individuals itself (csTuner interleaves evaluation
//!   with virtual-clock accounting and the CV(top-n) approximation stop).
//! - [`IslandGa::run_serial`]: a fixed number of generations over a pure
//!   fitness function (csTuner screens large groups on its own PMNF
//!   models this way).
//!
//! Islands advance in lockstep and migrate around the ring between
//! generations; fitness is evaluated one individual at a time.
//!
//! Genes are indices into re-indexed value sets (Fig. 7), so every bit
//! pattern within a gene's range is meaningful; mutation re-draws values
//! that fall outside the range.

pub mod engine;
pub mod genome;

pub use engine::{GaConfig, GaState, GaSummary, IslandGa};
pub use genome::{Genome, Individual};
