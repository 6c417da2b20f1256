//! # polymg — the PolyMG optimizing compiler
//!
//! This crate implements the contribution of the SC'17 paper on top of the
//! `gmg-ir` DSL and the `gmg-poly` engine: it turns a pipeline's unrolled
//! [`gmg_ir::StageGraph`] into a [`plan::CompiledPipeline`] — the complete
//! execution plan the `gmg-runtime` crate carries out. The phases mirror
//! Figure 4 of the paper:
//!
//! 1. **Lowering** ([`lowering`]) — each stage's piecewise definition is
//!    linearised into flat tap lists (the specialised-kernel form); nonlinear
//!    cases fall back to the reference interpreter.
//! 2. **Grouping** ([`grouping`]) — PolyMage's greedy auto-grouping merges
//!    producer groups into consumers under a group-size limit and an
//!    overlap (redundant-computation) threshold (§3.1).
//! 3. **Tiling** ([`plan`]) — each multi-stage group is overlap-tiled over
//!    its finest stage's domain; per-stage scales and scratchpad bounds are
//!    derived with `gmg-poly`. Optionally, pure smoother chains are marked
//!    for diamond/split time tiling (`polymg-dtile-opt+`).
//! 4. **Storage optimization** ([`storage`]) — the paper's Algorithms 2 & 3:
//!    intra-group scratchpad reuse and inter-group full-array reuse over
//!    storage classes, plus pooled allocation/deallocation points (§3.2).
//! 5. **Schedule lowering** ([`schedule`]) — the plan is flattened into an
//!    explicit [`schedule::ExecProgram`] op stream (the analogue of the
//!    paper's generated C, Figure 8) that the runtime VM interprets.
//! 6. **Autotuning** ([`autotune`]) — enumeration of tile-size × group-limit
//!    configurations (§3.2.4).
//!
//! Compiled plans are shared through the fingerprint-keyed [`cache`], so
//! repeated runner construction for one configuration compiles once.
//!
//! The variant matrix of the paper's evaluation (`polymg-naive`,
//! `polymg-opt`, `polymg-opt+`, `polymg-dtile-opt+`) is expressed as
//! [`options::PipelineOptions`] presets.

pub mod autotune;
pub mod cache;
pub mod chaos;
pub mod codegen;
pub mod compile;
pub mod grouping;
pub mod jsonio;
pub mod lowering;
pub mod options;
pub mod plan;
pub mod report;
pub mod scenario;
pub mod schedule;
pub mod specialize;
pub mod storage;

pub use autotune::{TuneConfig, TuneError, TunedStore};
pub use cache::{compile_cached, pipeline_fingerprint, PlanCache};
pub use chaos::{splitmix64, ChaosOptions, ChaosStats, FaultPlan, FaultSite};
pub use compile::compile;
pub use options::{PipelineOptions, Variant};
pub use plan::{
    ArraySpec, CompiledPipeline, GroupPlan, GroupTiling, KernelBody, KernelCase, ScratchBufferSpec,
    StageKernel, StoragePlan, TilePlan,
};
pub use scenario::{Scenario, ScenarioError};
pub use schedule::{ExecOp, ExecProgram, OpInput, SlotSpec, StageExec};
pub use specialize::{KernelImpl, KernelSel, KernelTier};
