//! Stencil intermediate representation and CPU reference execution.
//!
//! This crate provides the *workload* side of the csTuner reproduction:
//!
//! - [`Grid3`]: a dense, flat-allocated 3-D grid of `f64` values with halo
//!   support, the unit of data every stencil sweeps over.
//! - [`StencilSpec`]: the static description of a stencil kernel (order,
//!   FLOPs per point, number of I/O arrays, grid extents) that the GPU
//!   performance model, the parameter space and the code generator consume.
//! - [`suite`]: the eight 3-D double-precision stencils of Table III of the
//!   paper (`j3d7pt`, `j3d27pt`, `helmholtz`, `cheby`, `hypterm`, `addsgd4`,
//!   `addsgd6`, `rhs4center`).
//! - [`exec`]: the sequential CPU reference executor, the semantic ground
//!   truth: loop transformations that the tuner explores (merging,
//!   unrolling, streaming) are validated against it.
//!
//! The stencil *semantics* run on the CPU; their *performance* under a
//! parameter setting is predicted by the `cst-gpu-sim` crate (see DESIGN.md
//! for the hardware-substitution rationale).

pub mod compose;
pub mod exec;
pub mod grid;
pub mod pattern;
pub mod suite;
pub mod suite_ext;
pub mod tap;

pub use compose::{ArrayRef, Arrays, Factor, KernelDef, Stage, Term};
pub use exec::{run_reference, run_transformed, TransformCfg};
pub use grid::Grid3;
pub use pattern::{StencilClass, StencilShape, StencilSpec};
pub use suite::{all_specs, kernel_builder, kernel_by_name, spec_by_name, StencilKernel};
pub use tap::{Tap, TapStencil};
