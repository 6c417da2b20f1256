//! The schedule VM: binds external arrays into program slots and interprets
//! a [`polymg::schedule::ExecProgram`] op by op.
//!
//! One [`Engine::run`] call executes one program pass (one multigrid cycle
//! for compiled pipelines). The engine owns no execution logic of its own —
//! every op's behaviour lives in [`crate::ops`]; the loop here only
//! dispatches, times each op for the trace's op-level timeline, and manages
//! slot lifetimes (`malloc_fresh` / `pool_alloc` / `pool_free`).
//!
//! Programs normally come from [`polymg::schedule::lower`], but any
//! hand-assembled [`ExecProgram`] runs too ([`Engine::from_program`]).

use crate::arena::ArenaPool;
use crate::kernel::{copy_box, fill_ghost, SpaceMut};
use crate::ops::OpKernels;
use crate::pool::{BufferPool, PoolStats};
use gmg_grid::Buffer;
use gmg_poly::BoxDomain;
use gmg_trace::{OpHandle, PoolSnapshot, StageHandle, ThreadsSnapshot, Trace};
use polymg::schedule::{ExecOp, ExecProgram};
use polymg::{ChaosOptions, ChaosStats, CompiledPipeline, FaultPlan, FaultSite, TilePlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics of one engine run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Pool statistics after the run (pooled mode only; zeroed otherwise).
    pub pool: PoolStats,
    /// Wall-clock time of the cycle.
    pub elapsed: Duration,
    /// Bytes allocated fresh during this run (malloc traffic).
    pub fresh_bytes: usize,
}

/// Typed execution failure. A serving process must not abort on a mis-bound
/// input, so every user-reachable condition surfaces here instead of
/// panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An external slot had no matching entry in `inputs`/`outputs`.
    NotBound { name: String },
    /// A bound array's length does not match the slot's extents.
    WrongSize {
        name: String,
        expected: usize,
        got: usize,
    },
    /// The schedule wrote to a slot bound as a read-only input.
    WriteToInput { name: String },
    /// The schedule touched a slot outside its allocated lifetime.
    Unallocated { name: String },
    /// The program violated a schedule invariant (lowering bug).
    PlanViolation(&'static str),
    /// A worker panicked inside a parallel section of the named op. The
    /// panic was contained to that op (slots restored, pooled buffers
    /// recovered); the engine and its pools stay usable.
    WorkerPanicked { op: &'static str, detail: String },
    /// An armed [`FaultPlan`] injected an unrecoverable fault at the named
    /// site (sites with a recovery policy never surface here).
    FaultInjected {
        site: &'static str,
        op: &'static str,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NotBound { name } => write!(f, "external array '{name}' not bound"),
            ExecError::WrongSize {
                name,
                expected,
                got,
            } => write!(
                f,
                "array '{name}' has wrong size: expected {expected} elements, got {got}"
            ),
            ExecError::WriteToInput { name } => {
                write!(f, "schedule writes to read-only input '{name}'")
            }
            ExecError::Unallocated { name } => {
                write!(f, "array '{name}' used outside its allocated lifetime")
            }
            ExecError::PlanViolation(what) => write!(f, "schedule invariant violated: {what}"),
            ExecError::WorkerPanicked { op, detail } => {
                write!(f, "worker panicked in op '{op}': {detail}")
            }
            ExecError::FaultInjected { site, op } => {
                write!(f, "injected fault at site '{site}' in op '{op}'")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One storage slot at runtime.
pub(crate) enum Slot<'a> {
    Empty,
    Owned(Buffer),
    In(&'a [f64]),
    Out(&'a mut [f64]),
}

impl Slot<'_> {
    pub(crate) fn try_read(&self, name: &str) -> Result<&[f64], ExecError> {
        match self {
            Slot::Owned(b) => Ok(b.as_slice()),
            Slot::In(s) => Ok(s),
            Slot::Out(s) => Ok(s),
            Slot::Empty => Err(ExecError::Unallocated {
                name: name.to_string(),
            }),
        }
    }

    pub(crate) fn try_write(&mut self, name: &str) -> Result<&mut [f64], ExecError> {
        match self {
            Slot::Owned(b) => Ok(b.as_mut_slice()),
            Slot::Out(s) => Ok(s),
            Slot::In(_) => Err(ExecError::WriteToInput {
                name: name.to_string(),
            }),
            Slot::Empty => Err(ExecError::Unallocated {
                name: name.to_string(),
            }),
        }
    }
}

/// External bindings of one right-hand side in a batched pass (see
/// [`Engine::run_batch`]). Each RHS binds the same external slot *names*
/// the program declares, just to different arrays.
pub struct BatchRhs<'a> {
    pub inputs: Vec<(&'a str, &'a [f64])>,
    pub outputs: Vec<(&'a str, &'a mut [f64])>,
}

/// Per slot: is the ghost ring left untouched by a full program pass?
///
/// A slot's ring is *stable* when every write the program performs on it —
/// stage sweeps, diamond outputs, live-out copies — stays inside the
/// interior box `[origin+1, origin+extent−2]`. For a stable slot the fill
/// value written before the first RHS of a batch is still in place when the
/// next RHS starts, so the batch sweep can skip the re-fill (the interior
/// needs no care either: the recycling invariant guarantees every interior
/// cell is overwritten before it is read).
fn ghost_stable_slots(program: &ExecProgram) -> Vec<bool> {
    let mut stable = vec![true; program.slots.len()];
    let note_write = |stable: &mut Vec<bool>, slot: usize, region: &BoxDomain| {
        let spec = &program.slots[slot];
        let inside = region
            .0
            .iter()
            .zip(spec.origin.iter().zip(&spec.extents))
            .all(|(iv, (&o, &e))| iv.lo > o && iv.hi <= o + e - 2);
        if !inside {
            stable[slot] = false;
        }
    };
    for op in &program.ops {
        match op {
            ExecOp::RunUntiledStage { stage } => {
                if let Some(s) = stage.slot {
                    note_write(&mut stable, s, &stage.domain);
                }
            }
            ExecOp::RunOverlappedGroup { stages, .. } => {
                for st in stages {
                    if let Some(s) = st.slot {
                        note_write(&mut stable, s, &st.domain);
                    }
                }
            }
            ExecOp::RunDiamondChain {
                stages, out_slot, ..
            }
            | ExecOp::RunMixedChain { stages, out_slot } => {
                for st in stages {
                    if let Some(s) = st.slot {
                        note_write(&mut stable, s, &st.domain);
                    }
                }
                if let Some(last) = stages.last() {
                    note_write(&mut stable, *out_slot, &last.domain);
                }
            }
            ExecOp::CopyLiveOut { dst, region, .. } => note_write(&mut stable, *dst, region),
            _ => {}
        }
    }
    stable
}

/// Rebind the program's external slots to one RHS's arrays, replacing the
/// previous RHS's bindings in place. Internal slots are untouched.
fn bind_externals<'a>(
    program: &ExecProgram,
    slots: &mut [Slot<'a>],
    inputs: &[(&'a str, &'a [f64])],
    mut outputs: Vec<(&'a str, &'a mut [f64])>,
) -> Result<(), ExecError> {
    for (i, spec) in program.slots.iter().enumerate() {
        if !spec.external {
            continue;
        }
        let len = spec.len();
        if let Some((_, data)) = inputs.iter().find(|(n, _)| *n == spec.name) {
            if data.len() != len {
                return Err(ExecError::WrongSize {
                    name: spec.name.clone(),
                    expected: len,
                    got: data.len(),
                });
            }
            slots[i] = Slot::In(data);
        } else if let Some(pos) = outputs.iter().position(|(n, _)| *n == spec.name) {
            let (_, d) = outputs.swap_remove(pos);
            if d.len() != len {
                return Err(ExecError::WrongSize {
                    name: spec.name.clone(),
                    expected: len,
                    got: d.len(),
                });
            }
            slots[i] = Slot::Out(d);
        } else {
            return Err(ExecError::NotBound {
                name: spec.name.clone(),
            });
        }
    }
    Ok(())
}

/// The schedule VM. Construct once per program (or compiled plan), call
/// [`Engine::run`] once per cycle. The pool persists across runs (the
/// §3.2.3 cross-cycle behaviour).
pub struct Engine {
    plan: Option<Arc<CompiledPipeline>>,
    program: ExecProgram,
    /// Per op: its stage kernels, bound once per engine rather than per
    /// execution ([`crate::kernel::Bound`]) — at the first run, so that
    /// building an engine costs what it did before binding existed
    /// (compiles and cold sessions build engines that may never run).
    kernels: Option<Vec<OpKernels>>,
    pool: BufferPool,
    /// f32 scratch for mixed-precision chains: a pool of its own, so the
    /// f64 statistics above stay undiluted. Persists across runs like the
    /// f64 pool, so warm cycles allocate nothing new.
    f32_pool: BufferPool<f32>,
    /// The engine's own worker pool, `program.threads` wide (0 = the
    /// host's parallelism); every parallel loop of a run executes on it.
    rayon_pool: rayon::ThreadPool,
    trace: Trace,
    /// Per op: interned timeline handle (disabled until [`Engine::set_trace`]).
    op_handles: Vec<OpHandle>,
    /// Per op, per scheduled stage: interned span handles.
    stage_handles: Vec<Vec<StageHandle>>,
    /// Tile scratch: one slab per worker, as long as the widest overlapped
    /// op needs; persists across runs like the buffer pool.
    scratch: ArenaPool,
    /// Pool counters already ingested into the trace (deltas per run).
    pool_reported: PoolStats,
    /// Thread-pool counters already ingested into the trace (deltas per
    /// run; `workers_spawned` is reported as a level, not a delta).
    threads_reported: rayon::PoolCounters,
    /// Armed fault schedule (disabled by default).
    chaos: FaultPlan,
    /// Chaos counters already ingested into the trace (deltas per run).
    chaos_reported: ChaosStats,
    /// Per slot: ghost ring provably untouched by a program pass (see
    /// [`ghost_stable_slots`]); lets batched runs skip per-RHS re-fills.
    ghost_stable: Vec<bool>,
}

impl Engine {
    /// Lower a compiled plan and build its VM. Accepts both an owned plan
    /// and a shared `Arc` from the plan cache.
    pub fn new(plan: impl Into<Arc<CompiledPipeline>>) -> Engine {
        let plan = plan.into();
        let program = polymg::schedule::lower(&plan);
        let mut e = Engine::from_program(program);
        e.plan = Some(plan);
        e
    }

    /// Build a VM for a hand-assembled program (no compiled plan attached).
    pub fn from_program(program: ExecProgram) -> Engine {
        let rayon_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(program.threads)
            .build()
            .expect("building a thread pool cannot fail");
        let nops = program.ops.len();
        let ghost_stable = ghost_stable_slots(&program);
        let peak_scratch = program
            .ops
            .iter()
            .map(|op| match op {
                ExecOp::RunOverlappedGroup { slab, .. } => slab.scratch_len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let workers = rayon_pool.current_num_threads();
        Engine {
            plan: None,
            program,
            kernels: None,
            pool: BufferPool::new(),
            f32_pool: BufferPool::default(),
            rayon_pool,
            trace: Trace::disabled(),
            op_handles: vec![OpHandle::disabled(); nops],
            stage_handles: vec![Vec::new(); nops],
            scratch: ArenaPool::new(peak_scratch, workers),
            pool_reported: PoolStats::default(),
            threads_reported: rayon::PoolCounters::default(),
            chaos: FaultPlan::disabled(),
            chaos_reported: ChaosStats::default(),
            ghost_stable,
        }
    }

    /// Install a trace: every subsequent [`Engine::run`] records one span
    /// per op (the op-level timeline) plus per-stage spans for sweep ops,
    /// pool and scratch-arena statistics. Passing `Trace::disabled()` turns
    /// instrumentation back off.
    pub fn set_trace(&mut self, trace: Trace) {
        self.op_handles = self
            .program
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| trace.op(i as u64, op.mnemonic()))
            .collect();
        self.stage_handles = self
            .program
            .ops
            .iter()
            .map(|op| match op {
                ExecOp::RunUntiledStage { stage } => {
                    vec![trace.stage(&stage.name, "untiled")]
                }
                ExecOp::RunOverlappedGroup { stages, .. } => stages
                    .iter()
                    .map(|s| trace.stage(&s.name, "overlapped"))
                    .collect(),
                ExecOp::RunDiamondChain { stages, .. } => stages
                    .iter()
                    .map(|s| trace.stage(&s.name, "diamond"))
                    .collect(),
                ExecOp::RunMixedChain { stages, .. } => stages
                    .iter()
                    .map(|s| trace.stage(&s.name, "mixed"))
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        self.trace = trace;
    }

    /// The installed trace handle (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The compiled plan this engine was built from.
    ///
    /// # Panics
    /// For engines built via [`Engine::from_program`]; use
    /// [`Engine::try_plan`] to probe without panicking.
    pub fn plan(&self) -> &CompiledPipeline {
        self.try_plan()
            .expect("engine was built from a raw program, no compiled plan attached")
    }

    /// The compiled plan, or `None` for engines built from a raw program.
    pub fn try_plan(&self) -> Option<&CompiledPipeline> {
        self.plan.as_deref()
    }

    /// Arm (or with `None`, disarm) deterministic fault injection for every
    /// subsequent run. Chaos is a runtime property — it never affects the
    /// compiled plan or its cache fingerprint.
    pub fn set_chaos(&mut self, opts: Option<ChaosOptions>) {
        self.chaos = opts.map_or_else(FaultPlan::disabled, FaultPlan::new);
        self.chaos_reported = ChaosStats::default();
    }

    /// Lifetime chaos counters of the installed fault plan.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos.snapshot()
    }

    /// The schedule this engine interprets.
    pub fn program(&self) -> &ExecProgram {
        &self.program
    }

    /// The tile plan of op `op` (`Some` for an overlapped op): fixed by the
    /// compiler and shared with the plan.
    pub fn tile_plan(&self, op: usize) -> Option<&TilePlan> {
        match self.program.ops.get(op)? {
            ExecOp::RunOverlappedGroup { tile_plan, .. } => Some(tile_plan),
            _ => None,
        }
    }

    /// Overwrite every resident tile-scratch cell with `value`. A tile
    /// writes each scratch cell before reading it, so results must not
    /// depend on this; tests use it to prove that.
    pub fn fill_scratch(&mut self, value: f64) {
        self.scratch.fill(value);
    }

    /// Pool statistics (persist across runs).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Lifetime counters of the engine's own worker pool.
    /// `workers_spawned` staying constant across runs is the persistence
    /// guarantee (one worker set per engine, reused by every cycle).
    pub fn thread_counters(&self) -> rayon::PoolCounters {
        self.rayon_pool.counters()
    }

    /// Zero the pool counters (see [`BufferPool::reset_stats`]) so the next
    /// experiment row starts a fresh footprint measurement.
    pub fn reset_pool_stats(&mut self) {
        self.pool.reset_stats();
        self.pool_reported = self.pool.stats();
    }

    /// Execute one pass of the program. `inputs`/`outputs` bind external
    /// slots by name; buffers are dense with ghost rings already holding
    /// boundary values (the multigrid driver maintains them).
    pub fn run(
        &mut self,
        inputs: &[(&str, &[f64])],
        outputs: Vec<(&str, &mut [f64])>,
    ) -> Result<RunStats, ExecError> {
        self.run_batch(vec![BatchRhs {
            inputs: inputs.to_vec(),
            outputs,
        }])
    }

    /// Execute one pass of the program over every RHS in `batch`
    /// (one [`BatchRhs`] binds one right-hand side's external arrays).
    ///
    /// The first RHS runs the full op stream; later RHS reuse its
    /// allocations (`PoolAlloc` buffers stay live until the last RHS frees
    /// them, `MallocFresh` buffers are retained, not re-zeroed) and skip
    /// ghost re-fills for slots whose rings provably survive a pass. Results
    /// are bitwise-identical to running each RHS through [`Engine::run`]
    /// one at a time.
    pub fn run_batch<'a>(&mut self, batch: Vec<BatchRhs<'a>>) -> Result<RunStats, ExecError> {
        if batch.is_empty() {
            return Err(ExecError::PlanViolation("empty batch"));
        }
        let start = Instant::now();
        let fresh0 = self.pool.stats().allocated_bytes;

        // All slots start empty; externals are (re)bound per RHS, internal
        // slots are brought to life by their MallocFresh / PoolAlloc ops on
        // the first RHS. Declared outside the interpreter closure so the
        // error path can sweep pooled buffers back.
        let mut slots: Vec<Slot<'a>> = self.program.slots.iter().map(|_| Slot::Empty).collect();

        // Split-borrow fields so the interpreter closure can hold &mut to
        // slots/pool while reading the program.
        let program = &self.program;
        let kernels = self.kernels.get_or_insert_with(|| {
            let bind = |op| OpKernels::bind(program, op);
            program.ops.iter().map(bind).collect()
        });
        let kernels = &*kernels;
        let pool = &mut self.pool;
        let f32_pool = &mut self.f32_pool;
        let op_handles = &self.op_handles;
        let stage_handles = &self.stage_handles;
        let scratch = &self.scratch;
        let chaos: &FaultPlan = &self.chaos;
        let ghost_stable = &self.ghost_stable;
        let threads = &self.rayon_pool;
        let nrhs = batch.len();

        let body = move |slots: &mut Vec<Slot<'a>>,
                         pool: &mut BufferPool|
              -> Result<usize, ExecError> {
            let mut fresh_bytes = 0usize;
            for (k, rhs) in batch.into_iter().enumerate() {
                let first = k == 0;
                let last = k + 1 == nrhs;
                bind_externals(program, slots, &rhs.inputs, rhs.outputs)?;
                for (i, op) in program.ops.iter().enumerate() {
                    let oh = &op_handles[i];
                    let t0 = oh.is_enabled().then(Instant::now);
                    match op {
                        ExecOp::MallocFresh { slot } => {
                            let spec = &program.slots[*slot];
                            if first {
                                let len = spec.len();
                                fresh_bytes += len * std::mem::size_of::<f64>();
                                slots[*slot] = Slot::Owned(Buffer::zeroed(len));
                            } else if !ghost_stable[*slot] {
                                // Retained buffer, but the previous RHS may
                                // have dirtied the ring: restore the
                                // zero-init state a fresh malloc provides.
                                // (A gated FillGhost op follows for non-zero
                                // boundaries; interiors never carry data
                                // across a pass — pooled mode recycles them
                                // stale and stays bitwise-identical.)
                                fill_ghost(slots[*slot].try_write(&spec.name)?, &spec.extents, 0.0);
                            }
                        }
                        ExecOp::PoolAlloc { slot } => {
                            if first {
                                // under an injected pool fault the fresh
                                // fallback is zeroed, and the later
                                // FillGhost + full interior overwrite make
                                // it bitwise-equivalent
                                let len = program.slots[*slot].len();
                                slots[*slot] = Slot::Owned(pool.allocate_or_recover(len, chaos));
                            }
                        }
                        ExecOp::FillGhost { slot } => {
                            if first || !ghost_stable[*slot] {
                                let spec = &program.slots[*slot];
                                fill_ghost(
                                    slots[*slot].try_write(&spec.name)?,
                                    &spec.extents,
                                    spec.boundary,
                                );
                            }
                        }
                        ExecOp::PoolFree { slot } => {
                            if last {
                                match std::mem::replace(&mut slots[*slot], Slot::Empty) {
                                    Slot::Owned(b) => pool.deallocate(b),
                                    _ => {
                                        return Err(ExecError::PlanViolation(
                                            "pool free of non-owned array",
                                        ))
                                    }
                                }
                            }
                        }
                        ExecOp::CopyLiveOut { src, dst, region } => {
                            let dspec = &program.slots[*dst];
                            crate::ops::with_outputs(program, slots, &[*dst], |out, slots| {
                                let src = crate::ops::slot_space(program, slots, *src)?;
                                let mut dst = SpaceMut {
                                    data: &mut *out[0],
                                    origin: &dspec.origin,
                                    extents: &dspec.extents,
                                };
                                copy_box(&src, &mut dst, &region.0);
                                Ok(())
                            })?;
                        }
                        sweep => crate::ops::run(
                            sweep,
                            &kernels[i],
                            program,
                            slots,
                            pool,
                            f32_pool,
                            scratch,
                            &stage_handles[i],
                            chaos,
                            threads,
                        )?,
                    }
                    if let Some(t0) = t0 {
                        oh.record(t0.elapsed().as_nanos() as u64);
                    }
                }
            }
            Ok(fresh_bytes)
        };

        // Last line of defence: the op frame (`ops::Frame::contain`)
        // already contains worker panics, but a panic in serial interpreter
        // code must not unwind through the caller either — the engine owns a
        // pool whose accounting has to stay consistent.
        let outcome: Result<usize, ExecError> =
            match catch_unwind(AssertUnwindSafe(|| body(&mut slots, pool))) {
                Ok(r) => r,
                Err(p) => Err(ExecError::WorkerPanicked {
                    op: "engine",
                    detail: crate::ops::panic_detail(p),
                }),
            };

        if outcome.is_err() {
            // A failed pass stops mid-program, so its PoolFree ops never
            // ran. Sweep pooled slots (known statically from the program)
            // back into the free list: nothing leaks, live_bytes returns
            // to its pre-run level, and the pool stays reusable.
            let mut pooled_slot = vec![false; self.program.slots.len()];
            for op in &self.program.ops {
                if let ExecOp::PoolAlloc { slot } = op {
                    pooled_slot[*slot] = true;
                }
            }
            for (i, is_pooled) in pooled_slot.into_iter().enumerate() {
                if is_pooled {
                    if let Slot::Owned(b) = std::mem::replace(&mut slots[i], Slot::Empty) {
                        self.pool.deallocate(b);
                    }
                }
            }
        }

        // Publish trace deltas on both paths: a chaos run that ends in a
        // typed error still shows its armed/fired/recovered counters in
        // the --profile JSON.
        let stats = self.pool.stats();
        if self.trace.is_enabled() {
            self.trace.record_pool(&PoolSnapshot {
                hits: stats.hits.saturating_sub(self.pool_reported.hits) as u64,
                misses: stats.misses.saturating_sub(self.pool_reported.misses) as u64,
                allocated_bytes: stats
                    .allocated_bytes
                    .saturating_sub(self.pool_reported.allocated_bytes)
                    as u64,
                peak_live_bytes: stats.peak_live_bytes as u64,
            });
            self.pool_reported = stats;

            let arenas = self.scratch.take_stats();
            self.trace.record_arena(
                arenas.iter().map(|w| w.0).sum(),
                arenas.iter().map(|w| w.1).sum(),
            );
            self.trace.record_arena_workers(&arenas);

            let tc = self.thread_counters();
            let prev = self.threads_reported;
            self.trace.record_threads(&ThreadsSnapshot {
                workers: tc.workers_spawned,
                regions: tc.regions.saturating_sub(prev.regions),
                items: tc.items.saturating_sub(prev.items),
                parks: tc.parks.saturating_sub(prev.parks),
            });
            self.threads_reported = tc;

            let snap = self.chaos.snapshot();
            let delta = snap.delta_since(&self.chaos_reported);
            self.chaos_reported = snap;
            if delta.total_armed() > 0 {
                let sites = FaultSite::all()
                    .iter()
                    .filter_map(|site| {
                        let i = site.index();
                        let (a, fi, r) = (delta.armed[i], delta.fired[i], delta.recovered[i]);
                        (a | fi | r != 0).then(|| gmg_trace::ChaosSiteSnapshot {
                            site: site.label().to_string(),
                            armed: a,
                            fired: fi,
                            recovered: r,
                        })
                    })
                    .collect();
                self.trace.record_chaos(&gmg_trace::ChaosSnapshot { sites });
            }
        }

        let fresh_bytes = outcome?;
        Ok(RunStats {
            pool: stats,
            elapsed: start.elapsed(),
            fresh_bytes: fresh_bytes + (stats.allocated_bytes - fresh0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
    use gmg_multigrid::cycles::build_cycle_pipeline;
    use gmg_poly::Interval;
    use polymg::{PipelineOptions, Variant};

    fn lowered(ndims: usize, variant: Variant) -> ExecProgram {
        let n = if ndims == 2 { 31 } else { 15 };
        let cfg = MgConfig::new(ndims, n, CycleType::V, SmoothSteps::s444());
        let opts = PipelineOptions::for_variant(variant, ndims);
        let pipeline = build_cycle_pipeline(&cfg);
        let plan = polymg::compile(&pipeline, &gmg_ir::ParamBindings::new(), opts)
            .expect("V-cycle compiles");
        polymg::schedule::lower(&plan)
    }

    /// The slot's whole box, shrunk by `inset` cells on every side.
    fn inset_box(spec: &polymg::SlotSpec, inset: i64) -> BoxDomain {
        BoxDomain(
            spec.origin
                .iter()
                .zip(&spec.extents)
                .map(|(&o, &e)| Interval::new(o + inset, o + e - 1 - inset))
                .collect(),
        )
    }

    /// The analysis finds ghost-filled slots whose ring survives a pass (an
    /// all-false answer would keep batches bitwise but re-fill every ring
    /// per RHS), and withdraws stability from a slot once a live-out copy
    /// reaches into its ring.
    #[test]
    fn ghost_stability_spares_filled_rings_until_a_write_reaches_them() {
        for ndims in [2, 3] {
            for variant in [Variant::OptPlus, Variant::DtileOptPlus] {
                let program = lowered(ndims, variant);
                let stable = ghost_stable_slots(&program);
                let slot = program
                    .ops
                    .iter()
                    .find_map(|op| match op {
                        ExecOp::FillGhost { slot } if stable[*slot] => Some(*slot),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("{ndims}-D {variant:?}: no filled slot is stable"));

                // the analysis reads only a copy's destination and region
                let with_copy = |region: BoxDomain| {
                    let mut p = program.clone();
                    p.ops.push(ExecOp::CopyLiveOut {
                        src: slot,
                        dst: slot,
                        region,
                    });
                    ghost_stable_slots(&p)[slot]
                };
                let spec = &program.slots[slot];
                assert!(with_copy(inset_box(spec, 1)), "{ndims}-D {variant:?}");
                assert!(!with_copy(inset_box(spec, 0)), "{ndims}-D {variant:?}");
            }
        }
    }
}
