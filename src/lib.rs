//! # polymg-repro — reproduction of "Optimizing Geometric Multigrid Method
//! Computation using a DSL Approach" (SC'17)
//!
//! This facade crate re-exports the workspace members; see README.md for a
//! guided tour and DESIGN.md for the system inventory.
//!
//! ```
//! use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
//! use polymg_repro::mg::solver::{run_cycles, setup_poisson, DslRunner};
//! use polymg_repro::compiler::{PipelineOptions, Variant};
//!
//! let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps { pre: 4, coarse: 50, post: 4 });
//! let mut runner = DslRunner::new(
//!     &cfg,
//!     PipelineOptions::for_variant(Variant::OptPlus, 2),
//!     "polymg-opt+",
//! ).unwrap();
//! let (mut v, f, _) = setup_poisson(&cfg);
//! let result = run_cycles(&mut runner, &cfg, &mut v, &f, 5);
//! assert!(result.res_final() < result.res0 * 1e-3);
//! ```

/// Flat grid buffers and the manufactured Poisson problem.
pub use gmg_grid as grid;

/// The polyhedral-lite engine (ISL substitute).
pub use gmg_poly as poly;

/// The PolyMG DSL (language constructs + stage graph).
pub use gmg_ir as ir;

/// The optimizing compiler (the paper's contribution).
pub use polymg as compiler;

/// The execution substrate (pool, arenas, kernels, engine).
pub use gmg_runtime as runtime;

/// Multigrid cycles, baselines and solvers.
pub use gmg_multigrid as mg;

/// The NAS MG benchmark.
pub use gmg_nas as nas;
