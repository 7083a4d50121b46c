//! The parameterized optimization space of stencil computation on GPUs.
//!
//! Implements Table I of the paper: 19 tuning parameters covering thread
//! block shape, shared/constant memory usage, (concurrent) streaming, loop
//! unrolling, cyclic and block merging, retiming and prefetching — plus the
//! explicit validity constraints of §IV-B (thread-block size limit,
//! streaming-dimension coupling, merge exclusivity, prefetch requirements).
//!
//! Numeric parameters take power-of-two values, consistent with the paper
//! and the frameworks it builds on; boolean and enumeration parameters are
//! encoded starting from 1 with unit stride so that the `log2` operations
//! of the PMNF models and the coefficient-of-variation grouping are always
//! legal (§IV-B).
//!
//! The *implicit* resource constraints (register spilling, shared-memory
//! overflow) are checked by the GPU model in `cst-gpu-sim`; the
//! `ValidSpace` wrapper there composes both.

pub mod hash;
pub mod param;
pub mod setting;
pub mod space;

pub use hash::{setting_map_with_capacity, BuildFastHasher, FastHasher, SettingMap, SettingSet};
pub use param::{ParamId, ParamKind, N_PARAMS};
pub use setting::Setting;
pub use space::{ConstraintViolation, OptSpace};
