//! One compiled plan as the benchmark sees it: how to build it cold with a
//! span around each compiler layer, the exact counts its public structs
//! publish, and the runner that executes it.

use crate::spans::Recorder;
use gmg_ir::{ParamBindings, Pipeline};
use gmg_multigrid::config::MgConfig;
use gmg_multigrid::scenario::{
    build_scenario_pipeline, coeff_field, reciprocal_field, scenario_config, scenario_runner,
    ScenarioSpec,
};
use gmg_multigrid::solver::DslRunner;
use gmg_runtime::Engine;
use polymg::schedule::{ExecOp, ExecProgram, OpInput, StageExec};
use polymg::{CompiledPipeline, PipelineOptions, Scenario, Variant};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Every engine of the benchmark runs on one thread (2-core host; thread
/// scaling is not measured).
pub const ENGINE_THREADS: usize = 1;

#[derive(Clone)]
pub struct PlanSpec {
    pub label: String,
    pub cfg: MgConfig,
    pub scenario: Scenario,
    pub opts: PipelineOptions,
}

impl PlanSpec {
    pub fn new(label: &str, cfg: MgConfig, scenario: Scenario, variant: Variant) -> PlanSpec {
        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
        opts.threads = ENGINE_THREADS;
        PlanSpec {
            label: label.to_string(),
            cfg,
            scenario,
            opts,
        }
    }

    /// Finest interior points `n^d`.
    pub fn points(&self) -> f64 {
        (self.cfg.n as f64).powi(self.cfg.ndims as i32)
    }

    pub fn pipeline(&self) -> Pipeline {
        build_scenario_pipeline(&self.cfg, self.scenario)
    }

    /// The coefficient grid a `varcoef` plan binds (`None` otherwise).
    pub fn coeff(&self) -> Option<Vec<f64>> {
        self.scenario.needs_coeff().then(|| coeff_field(&self.cfg))
    }

    /// The bitwise reference: the same pipeline under `Variant::Naive` with
    /// kernel specialization off (generic tap loops, no fusion, no tiling).
    pub fn reference_runner(&self) -> DslRunner {
        let mut opts = PipelineOptions::for_variant(Variant::Naive, self.cfg.ndims);
        opts.threads = ENGINE_THREADS;
        opts.specialize = false;
        scenario_runner(
            &self.cfg,
            ScenarioSpec::new(self.scenario),
            opts,
            "benchmark-reference",
            self.coeff(),
        )
        .unwrap_or_else(|e| panic!("{}: reference runner: {e}", self.label))
    }
}

/// Wall time of each compiler layer for one cold build, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildNs {
    pub ir: u64,
    pub compile: u64,
    pub lower: u64,
    pub engine_new: u64,
}

impl BuildNs {
    pub fn total(&self) -> u64 {
        self.ir + self.compile + self.lower + self.engine_new
    }
}

pub struct Built {
    pub plan: Arc<CompiledPipeline>,
    pub engine: Engine,
    pub ns: BuildNs,
}

/// IR build → `polymg::compile` (no plan cache), with the instants before,
/// between and after the two calls.
fn compile_cold(spec: &PlanSpec) -> (CompiledPipeline, [Instant; 3]) {
    let t0 = Instant::now();
    let pipeline = spec.pipeline();
    let t1 = Instant::now();
    let plan = polymg::compile(&pipeline, &ParamBindings::new(), spec.opts.clone())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e:?}", spec.label));
    (plan, [t0, t1, Instant::now()])
}

/// IR build → `polymg::compile` (no plan cache) → `schedule::lower` →
/// `Engine::from_program`, each call timed and recorded as a span.
pub fn build_cold(spec: &PlanSpec, rec: &mut Recorder, request_id: u64) -> Built {
    let (plan, [t0, t1, t2]) = compile_cold(spec);
    let program = polymg::schedule::lower(&plan);
    let t3 = Instant::now();
    let engine = Engine::from_program(program);
    let t4 = Instant::now();
    rec.leaf("ir.build", request_id, t0, t1);
    rec.leaf("core.compile", request_id, t1, t2);
    rec.leaf("core.lower", request_id, t2, t3);
    rec.leaf("runtime.engine_new", request_id, t3, t4);
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Built {
        plan: Arc::new(plan),
        engine,
        ns: BuildNs {
            ir: ns(t0, t1),
            compile: ns(t1, t2),
            lower: ns(t2, t3),
            engine_new: ns(t3, t4),
        },
    }
}

/// Exact counts of one plan, from `report::stats` and the lowered program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanCounts {
    pub stages: usize,
    pub groups: usize,
    pub overlapped_groups: usize,
    pub diamond_groups: usize,
    pub ops: usize,
    pub full_arrays: usize,
    pub intermediate_bytes: usize,
    pub peak_scratch_bytes: usize,
    /// External (caller-bound) array bytes.
    pub external_bytes: usize,
    /// Computed bytes one pass moves to and from full arrays.
    pub traffic_bytes: usize,
}

impl PlanCounts {
    pub fn of(plan: &CompiledPipeline, program: &ExecProgram) -> PlanCounts {
        let st = polymg::report::stats(plan);
        PlanCounts {
            stages: st.num_stages,
            groups: st.num_groups,
            overlapped_groups: st.num_overlapped_groups,
            diamond_groups: st.num_diamond_groups,
            ops: program.ops.len(),
            full_arrays: st.num_full_arrays,
            intermediate_bytes: st.intermediate_bytes,
            peak_scratch_bytes: st.peak_scratch_bytes,
            external_bytes: program
                .slots
                .iter()
                .filter(|s| s.external)
                .map(|s| s.len() * 8)
                .sum(),
            traffic_bytes: traffic_bytes(program),
        }
    }

    /// The paper's Fig. 11b quantity: bytes the plan keeps resident.
    pub fn storage_bytes(&self) -> usize {
        self.intermediate_bytes + self.peak_scratch_bytes * ENGINE_THREADS + self.external_bytes
    }
}

/// Computed (not measured) full-array traffic of one pass: per sweep op the
/// distinct slots it reads from outside itself plus the slots it writes,
/// per copy op its region twice; whole-slot extents × 8 bytes. Cache misses
/// are ignored, so this is a lower bound on bytes moved.
pub fn traffic_bytes(program: &ExecProgram) -> usize {
    fn sweep(program: &ExecProgram, stages: &[&StageExec], extra_out: Option<usize>) -> usize {
        let writes: BTreeSet<usize> = stages
            .iter()
            .filter_map(|s| s.slot)
            .chain(extra_out)
            .collect();
        let reads: BTreeSet<usize> = stages
            .iter()
            .flat_map(|s| s.ins.iter())
            .filter_map(|i| match i {
                OpInput::Slot { slot, .. } if !writes.contains(slot) => Some(*slot),
                _ => None,
            })
            .collect();
        reads
            .iter()
            .chain(&writes)
            .map(|&s| program.slots[s].len() * 8)
            .sum()
    }
    program
        .ops
        .iter()
        .map(|op| match op {
            ExecOp::RunUntiledStage { stage } => sweep(program, &[stage], None),
            ExecOp::RunOverlappedGroup { stages, .. } => {
                sweep(program, &stages.iter().collect::<Vec<_>>(), None)
            }
            ExecOp::RunMixedChain { stages, out_slot }
            | ExecOp::RunDiamondChain {
                stages, out_slot, ..
            } => sweep(program, &stages.iter().collect::<Vec<_>>(), Some(*out_slot)),
            ExecOp::CopyLiveOut { region, .. } => 2 * region.len() as usize * 8,
            _ => 0,
        })
        .sum()
}

/// Σ over sweep ops of each scheduled stage's domain size: the cells one
/// pass must compute. `gmg_trace` stage spans count the cells actually
/// computed (overlapped tiles recompute halo cells); the ratio of the two
/// is the redundancy.
pub fn domain_cells(program: &ExecProgram) -> u64 {
    program
        .ops
        .iter()
        .map(|op| match op {
            ExecOp::RunUntiledStage { stage } => stage.domain.len() as u64,
            ExecOp::RunOverlappedGroup { stages, .. }
            | ExecOp::RunMixedChain { stages, .. }
            | ExecOp::RunDiamondChain { stages, .. } => {
                stages.iter().map(|s| s.domain.len() as u64).sum()
            }
            _ => 0,
        })
        .sum()
}

/// A warm runner over one plan, with the per-pass counts the per-layer
/// numbers need.
pub struct Session {
    pub spec: PlanSpec,
    pub runner: DslRunner,
    pub traffic_bytes: usize,
    pub domain_cells: u64,
}

impl Session {
    /// IR build → `polymg::compile` (no plan cache) → `DslRunner::from_plan`
    /// (`schedule::lower` + `Engine::from_program`), each a span.
    pub fn cold(spec: &PlanSpec, rec: &mut Recorder, request_id: u64) -> Session {
        let coeff = spec.coeff();
        let (plan, [t0, t1, t2]) = compile_cold(spec);
        let mut runner = DslRunner::from_plan(plan, &scenario_config(&spec.cfg, spec.scenario));
        let t3 = Instant::now();
        if let Some(a) = coeff {
            runner.bind_extra("Ainv", reciprocal_field(&a));
            runner.bind_extra("A", a);
        }
        rec.leaf("ir.build", request_id, t0, t1);
        rec.leaf("core.compile", request_id, t1, t2);
        rec.leaf("mg.runner_new", request_id, t2, t3);
        let program = runner.engine().program();
        let (traffic_bytes, domain_cells) = (traffic_bytes(program), domain_cells(program));
        Session {
            spec: spec.clone(),
            runner,
            traffic_bytes,
            domain_cells,
        }
    }

    /// One `DslRunner::cycle_with_stats`, timed from outside; the engine's
    /// own `RunStats::elapsed` becomes the child span `runtime.run`.
    pub fn cycle(
        &mut self,
        v: &mut [f64],
        f: &[f64],
        rec: &mut Recorder,
        request_id: u64,
    ) -> (u64, gmg_runtime::RunStats) {
        let t0 = Instant::now();
        let stats = self
            .runner
            .cycle_with_stats(v, f)
            .unwrap_or_else(|e| panic!("{}: cycle failed: {e}", self.spec.label));
        let t1 = Instant::now();
        rec.leaf_with_inner(
            "mg.cycle",
            "runtime.run",
            request_id,
            t0,
            t1,
            stats.elapsed.as_nanos() as u64,
        );
        ((t1 - t0).as_nanos() as u64, stats)
    }
}
