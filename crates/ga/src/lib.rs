//! Island-model genetic algorithm (§IV-E, Fig. 6).
//!
//! The paper runs one sub-population per MPI process, migrating individuals
//! around a single-ring topology; new individuals are bred by uniform
//! gene-level crossover from fitness-biased neighborhood parents and
//! bit-level mutation over binary-encoded genes. This crate reproduces that
//! design in one process with one driver, [`GaState`], which alone knows
//! the order of a generation. It is used two ways:
//!
//! - [`GaState::step`]: one whole generation over a fitness closure
//!   (csTuner's search loop, which interleaves evaluation with
//!   virtual-clock accounting and the CV(top-n) approximation stop, and
//!   its per-group screening on its own PMNF models).
//! - [`GaState::ask`]/[`GaState::tell`]: the same generation one batch at
//!   a time, for a caller that measures between the two (the OpenTuner GA
//!   on the ask/tell kernel); [`GaState::mid_generation`] reports a
//!   half-told generation.
//!
//! Islands advance in lockstep and migrate around the ring between
//! generations; fitness is evaluated one individual at a time.
//!
//! Genes are indices into re-indexed value sets (Fig. 7), so every bit
//! pattern within a gene's range is meaningful; mutation re-draws values
//! that fall outside the range.

pub mod engine;
pub mod genome;

pub use engine::{GaConfig, GaState, POPULATION};
pub use genome::{Genome, Individual};
