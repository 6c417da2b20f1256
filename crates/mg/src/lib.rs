//! # gmg-multigrid — geometric multigrid over the PolyMG DSL
//!
//! The benchmark layer of the reproduction. It provides:
//!
//! * [`config`] — problem/cycle configuration (V/W/F cycles, 2-D/3-D,
//!   the paper's 4-4-4 and 10-0-0 smoothing configurations, problem-size
//!   classes);
//! * [`cycles`] — the DSL builders: a recursive cycle builder in the style
//!   of the paper's Figure 3 that emits one feed-forward pipeline per
//!   multigrid cycle (the iteration over cycles stays external, §2), with
//!   weighted-Jacobi, red-black Gauss–Seidel or Chebyshev smoothing;
//! * [`handopt`] — the `handopt` baseline: a hand-written multigrid with
//!   explicit loop parallelisation, two modulo buffers per level and pooled
//!   allocations (modelled on the Ghysels & Vanroose code the paper
//!   compares against);
//! * [`pluto`] — `handopt+pluto`: the same baseline with its smoothing
//!   loops time-tiled by the concurrent-start split/diamond schedule;
//! * [`scenario`] — builders that translate `polymg::scenario` descriptors
//!   into pipelines: variable-coefficient operators, smoother-sequence
//!   swaps (RB-GS, Chebyshev), DSL-native FMG prolongation;
//! * [`solver`] — drivers that iterate cycles to convergence and measure
//!   residual norms, used by the correctness tests and the benchmark
//!   harness.
//!
//! Grid convention: vertex-centred hierarchy, interior sizes `2^k − 1`,
//! allocation `(2^k + 1)^d` including the Dirichlet ghost ring, solving
//! `−∇²u = f` on the unit square/cube with homogeneous boundaries.

pub mod config;
pub mod cycles;
pub mod fmg;
pub mod handopt;
pub mod pluto;
pub mod scenario;
pub mod solver;

pub use config::{CycleType, MgConfig, SmoothSteps};
pub use cycles::{build_cycle_pipeline, build_varcoef_cycle_pipeline};
pub use scenario::{build_scenario_pipeline, scenario_runner, ScenarioSpec};
pub use solver::{residual_norm, CycleRunner, DslRunner, SolveResult};
