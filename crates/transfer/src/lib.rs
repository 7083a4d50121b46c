//! Transfer tuning: a persistent knowledge base over archived runs plus
//! a surrogate-guided warm-start layer.
//!
//! Every tuner in the zoo historically started cold on each (stencil,
//! arch) even though `cst-obs` archives every past run. This crate
//! closes the loop: [`KnowledgeBase`] extracts per-run training records
//! — setting feature vectors, observed `time_ms` labels, stencil/arch
//! identity — from a [`cst_obs::JournalStore`]'s summaries into a
//! versioned, byte-deterministic `kb.json` index, and [`WarmStart`]
//! trains the shared [`cst_ml::Surrogate`] on those records to pre-rank
//! previously seen settings before any simulated measurement. The
//! surrogate's top picks are offered to tuners via `Tuner::warm_start`,
//! which hands them to the kernel strategies that take seeds.
//!
//! Determinism contract (pinned by the testkit differential oracle):
//! warm-start changes **only starting points**, never the evaluator —
//! the zero-KB path is bit-identical to a build without this crate, and
//! the same store + seed always produce byte-identical `kb.json` bytes
//! and warm-seed lists.

pub mod kb;
pub mod warm;

pub use kb::{KbBuild, KbRecord, KnowledgeBase, KB_FILE, KB_VERSION};
pub use warm::{warm_seeds, TransferSurrogate, WarmStart, DEFAULT_TOP_K};
