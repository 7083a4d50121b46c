//! Re-implementations of the auto-tuners csTuner is evaluated against
//! (§V-A2), plus the kernel-native strategies the ask/tell refactor
//! unlocked, each an [`Optimizer`] on the `cstuner_core` ask/tell kernel:
//!
//! - [`RandomOptimizer`] — uniform random sampling of valid settings,
//!   the floor any tuner must beat.
//! - [`GaOptimizer`] — an OpenTuner-style *global* genetic algorithm over
//!   the full parameter space, options matched to csTuner's GA; no
//!   grouping, no model-guided sampling. [`OpenTunerGa`] keeps its
//!   pre-kernel closed loop as the reference the GA is proven against.
//! - [`GarveyOptimizer`] — Garvey & Abdelrahman (ICPP'15): a random
//!   forest predicts the optimal memory type, the remaining parameters
//!   are grouped *by dimension* (expert knowledge), each group is
//!   randomly sampled at the configured ratio and searched exhaustively,
//!   group by group.
//! - [`ArtemisOptimizer`] — Rawat et al. (IPDPS'19) style hierarchical
//!   auto-tuning: high-impact optimizations (chosen per stencil class by
//!   expert knowledge) are tuned first, a few high-performance candidates
//!   are kept, and the remaining parameters are tuned greedily per
//!   candidate.
//! - [`GridOptimizer`] — a deterministic coarse lattice sweep (no rng).
//! - [`SaOptimizer`] — single-chain simulated annealing with Metropolis
//!   accepts over the canonical setting space.
//! - [`ForestOptimizer`] — an online random-forest surrogate (via
//!   `cst-ml`) trained on told records, pre-ranking candidate settings.
//!
//! Every one runs behind the same [`KernelTuner`], so it speaks the same
//! [`Tuner`] interface and produces the same [`TuningOutcome`] curve
//! format as csTuner, and the experiment harness can run the paper's
//! iso-iteration and iso-time comparisons directly. The [`zoo`] module
//! is the single registry the CLI, the serve daemon, and the shootout
//! example resolve tuner names through.

pub mod anneal;
pub mod artemis;
pub mod forest;
pub mod garvey;
pub mod grid;
pub mod opentuner;
pub mod random;
pub mod zoo;

pub use anneal::SaOptimizer;
pub use artemis::ArtemisOptimizer;
pub use forest::ForestOptimizer;
pub use garvey::GarveyOptimizer;
pub use grid::GridOptimizer;
pub use opentuner::{GaOptimizer, OpenTunerGa};
pub use random::RandomOptimizer;

pub use cstuner_core::{KernelTuner, Optimizer, Tuner, TuningOutcome};
