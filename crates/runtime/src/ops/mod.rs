//! Per-op execution: the schedule VM's four sweep ops and the frame they
//! share. The interpreter loop in [`crate::schedule`] hands every sweep op
//! to `run`; each module implements one `Run*` op of
//! [`polymg::schedule::ExecOp`] and holds only that op's checks and loop.
//!
//! Every sweep op runs in one frame, in this order:
//!
//! 1. **gate** — `run` consults the op's entry fault site first, before
//!    any check;
//! 2. **checks** — the op's plan invariants (`check_chain` for both
//!    chains) fail as `ExecError::PlanViolation` before anything is
//!    allocated;
//! 3. **allocate** — op-lifetime scratch: the diamond chain's temp buffer
//!    (pooled through `BufferPool::allocate_or_recover`, like the VM's
//!    `PoolAlloc`) and the mixed chain's `f32` buffers;
//! 4. **take** — `with_outputs` moves the op's output slots out of the
//!    slot table, and the inputs are resolved against what is left
//!    (`stage_inputs`, `slot_space`). Every user-reachable failure is
//!    Result-checked here, serially, so the parallel closures are
//!    infallible;
//! 5. **contained parallel section** — `Frame::contain` turns a worker
//!    panic into `ExecError::WorkerPanicked` naming the op;
//! 6. **restore** — the taken slots go back on every path;
//! 7. **free** — the op's scratch goes back to its pool on every path, a
//!    contained panic included.
//!
//! It is the frame of the paper's generated code (`pool_allocate`, one
//! parallel loop, write-back, `pool_deallocate`); only the loop differs
//! from op to op. Each op's stage kernels come bound (`OpKernels`, made
//! once per engine, at its first run), and its kernel-dispatch counts are
//! gathered per work item, then per op, and published once when it ends.

pub(crate) mod diamond;
pub(crate) mod mixed;
pub(crate) mod overlapped;
pub(crate) mod untiled;

use crate::arena::ArenaPool;
use crate::kernel::{Bound, Elem, KernelInput, Space, SpaceMut};
use crate::pool::BufferPool;
use crate::schedule::{ExecError, Slot};
use gmg_poly::{BoxDomain, Interval};
use gmg_trace::dispatch::Tally;
use gmg_trace::StageHandle;
use polymg::schedule::{ExecOp, ExecProgram, OpInput, SlotSpec, StageExec};
use polymg::{FaultPlan, FaultSite};
use rayon::ThreadPool;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Stage inputs kept on the stack per stage execution in a parallel loop (a
/// wider stage spills to the heap); shipped pipelines read at most four
/// grids per stage.
const INLINE_INPUTS: usize = 8;

/// The stage kernels of one sweep op, bound once per engine (at its first
/// run):
/// a mixed chain's steps at `f32`, every other op's stages at `f64`, in the
/// op's stage order (both empty for other ops).
#[derive(Default)]
pub(crate) struct OpKernels {
    pub(crate) f64: Vec<Bound<f64>>,
    pub(crate) f32: Vec<Bound<f32>>,
}

impl OpKernels {
    /// Bind `op`'s stages. A stage naming no kernel of the program leaves
    /// the op unbound, so running it fails as a contained panic.
    pub(crate) fn bind(program: &ExecProgram, op: &ExecOp) -> OpKernels {
        fn bind<T: Elem>(program: &ExecProgram, stages: &[StageExec]) -> Vec<Bound<T>> {
            let kernel =
                |st: &StageExec| Some(Bound::new(st.sel(), program.kernels.get(st.kernel)?));
            stages
                .iter()
                .map(kernel)
                .collect::<Option<_>>()
                .unwrap_or_default()
        }
        let (wide, narrow) = match op {
            ExecOp::RunUntiledStage { stage } => (std::slice::from_ref(stage), &[][..]),
            ExecOp::RunOverlappedGroup { stages, .. } | ExecOp::RunDiamondChain { stages, .. } => {
                (&stages[..], &[][..])
            }
            ExecOp::RunMixedChain { stages, .. } => (&[][..], &stages[..]),
            _ => (&[][..], &[][..]),
        };
        OpKernels {
            f64: bind(program, wide),
            f32: bind(program, narrow),
        }
    }
}

/// What the frame hands an op: the program, the op's stage spans, the fault
/// plan, the engine's worker pool its parallel loop runs on, the op's
/// dispatch tally and the op's name for a contained panic.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'e> {
    pub(crate) program: &'e ExecProgram,
    pub(crate) spans: &'e [StageHandle],
    pub(crate) chaos: &'e FaultPlan,
    pub(crate) pool: &'e ThreadPool,
    tally: &'e Mutex<Tally>,
    op: &'static str,
}

impl Frame<'_> {
    /// Add one work item's dispatch counts to the op's.
    pub(crate) fn count(&self, item: &Tally) {
        let mut op = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        op.absorb(item);
    }

    /// Run the op's parallel section, containing a worker panic (an
    /// injected `WorkerPanic` among them) as `ExecError::WorkerPanicked`
    /// naming the op. The caller's restore and free run after it either way,
    /// so no pooled buffer is stranded in a taken slot.
    pub(crate) fn contain<R>(&self, section: impl FnOnce() -> R) -> Result<R, ExecError> {
        catch_unwind(AssertUnwindSafe(section)).map_err(|p| ExecError::WorkerPanicked {
            op: self.op,
            detail: panic_detail(p),
        })
    }
}

/// Execute one sweep op: the entry gate, then the op's own module; then
/// publish the op's dispatch counts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    op: &ExecOp,
    kernels: &OpKernels,
    program: &ExecProgram,
    slots: &mut [Slot<'_>],
    pool: &mut BufferPool,
    f32_pool: &mut BufferPool<f32>,
    scratch: &ArenaPool,
    spans: &[StageHandle],
    chaos: &FaultPlan,
    threads: &ThreadPool,
) -> Result<(), ExecError> {
    let tally = Mutex::new(Tally::default());
    let f = Frame {
        program,
        spans,
        chaos,
        pool: threads,
        tally: &tally,
        op: op.mnemonic(),
    };
    let gate = |site: FaultSite| {
        if chaos.should_fire(site) {
            Err(ExecError::FaultInjected {
                site: site.label(),
                op: f.op,
            })
        } else {
            Ok(())
        }
    };
    let result = match op {
        ExecOp::RunUntiledStage { stage } => {
            gate(FaultSite::OpUntiled)?;
            untiled::run(f, stage, &kernels.f64[0], slots)
        }
        ExecOp::RunOverlappedGroup {
            stages,
            live_out,
            scratch_slot,
            tile_plan,
            slab,
            ..
        } => {
            gate(FaultSite::OpOverlapped)?;
            overlapped::run(
                f,
                stages,
                &kernels.f64,
                live_out,
                scratch_slot,
                tile_plan,
                slab,
                scratch,
                slots,
            )
        }
        ExecOp::RunDiamondChain {
            stages,
            schedule,
            radius,
            out_slot,
        } => {
            gate(FaultSite::OpDiamond)?;
            let k = &kernels.f64;
            diamond::run(f, stages, k, schedule, *radius, *out_slot, slots, pool)
        }
        ExecOp::RunMixedChain { stages, out_slot } => {
            gate(FaultSite::OpMixed)?;
            mixed::run(f, stages, &kernels.f32, *out_slot, slots, f32_pool)
        }
        _ => Err(ExecError::PlanViolation("not a sweep op")),
    };
    let tally = tally.into_inner();
    tally.unwrap_or_else(PoisonError::into_inner).publish();
    result
}

/// Take the slots `outs` (distinct) out of the slot table, hand `body`
/// their arrays for writing, in `outs` order, together with the rest of
/// the table to read from, and restore them on every path. A slot that
/// cannot be written fails before `body` runs. The VM's `CopyLiveOut` takes
/// its destination the same way.
pub(crate) fn with_outputs<'a, R>(
    program: &ExecProgram,
    slots: &mut [Slot<'a>],
    outs: &[usize],
    body: impl FnOnce(&mut [&mut [f64]], &[Slot<'a>]) -> Result<R, ExecError>,
) -> Result<R, ExecError> {
    let mut taken: Vec<Slot<'a>> = outs
        .iter()
        .map(|&a| std::mem::replace(&mut slots[a], Slot::Empty))
        .collect();
    let result = taken
        .iter_mut()
        .zip(outs)
        .map(|(s, &a)| s.try_write(&program.slots[a].name))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|mut data| body(&mut data, slots));
    for (&a, s) in outs.iter().zip(taken) {
        slots[a] = s;
    }
    result
}

/// A full-array read of slot `s` as a kernel space.
pub(crate) fn slot_space<'s>(
    program: &'s ExecProgram,
    slots: &'s [Slot<'_>],
    s: usize,
) -> Result<Space<'s>, ExecError> {
    let spec = &program.slots[s];
    Ok(Space {
        data: slots[s].try_read(&spec.name)?,
        origin: &spec.origin,
        extents: &spec.extents,
    })
}

/// One stage's kernel inputs, in slot order, and the boundary value of each
/// input's producer (0 for the zero grid). `slot` resolves a full-array
/// read, `local` a read of an earlier step of the same op; the first error
/// either returns stops the resolution.
pub(crate) fn stage_inputs<'s, T, E>(
    stage: &StageExec,
    mut slot: impl FnMut(usize) -> Result<Space<'s, T>, E>,
    mut local: impl FnMut(usize) -> Result<KernelInput<'s, T>, E>,
) -> Result<(Vec<KernelInput<'s, T>>, Vec<f64>), E> {
    stage
        .ins
        .iter()
        .map(|inp| {
            Ok(match *inp {
                OpInput::Zero => (KernelInput::Zero, 0.0),
                OpInput::Slot { slot: s, boundary } => (KernelInput::Grid(slot(s)?), boundary),
                OpInput::Local { stage, boundary } => (local(stage)?, boundary),
            })
        })
        .collect()
}

/// The texts a chain op reports [`check_chain`]'s violations in.
pub(crate) struct ChainViolations {
    pub(crate) empty: &'static str,
    pub(crate) origin: &'static str,
    pub(crate) local: &'static str,
}

/// The invariants both chain ops (diamond, mixed) rely on: at least one
/// step, an origin-0 output slot, and op-local reads of the previous step
/// only (the other parity or ping-pong buffer). A program can reach the
/// engine without the compiler, so the op checks them itself. Returns the
/// output slot's spec.
pub(crate) fn check_chain<'p>(
    program: &'p ExecProgram,
    stages: &[StageExec],
    out_slot: usize,
    violations: &ChainViolations,
) -> Result<&'p SlotSpec, ExecError> {
    if stages.is_empty() {
        return Err(ExecError::PlanViolation(violations.empty));
    }
    let spec = &program.slots[out_slot];
    if spec.origin.iter().any(|&o| o != 0) {
        return Err(ExecError::PlanViolation(violations.origin));
    }
    for (t, st) in stages.iter().enumerate() {
        let reads_elsewhere = st.ins.iter().any(|i| match i {
            OpInput::Local { stage, .. } => t.checked_sub(1) != Some(*stage),
            _ => false,
        });
        if reads_elsewhere {
            return Err(ExecError::PlanViolation(violations.local));
        }
    }
    Ok(spec)
}

/// Best-effort rendering of a caught panic payload for
/// [`ExecError::WorkerPanicked`] details.
pub(crate) fn panic_detail(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The full-array sweep, row-parallel: `domain`'s outer rows split into
/// pieces, and `body` run on the pieces in parallel, each handed the whole
/// outer rows of `data` it owns as a dense window (global coordinates as in
/// `data`, whose view is `origin` / `extents`) and `domain` clipped to them,
/// both on the stack: a piece allocates nothing. There is one piece per
/// worker of the frame's pool, as in the static schedule of the generated
/// code. `body` notes its dispatch counts in the piece's tally, which joins
/// the op's when the piece is done. Returns the number of pieces. A worker
/// panic (an injected `WorkerPanic` among them) unwinds out of the call;
/// callers contain it.
pub(crate) fn sweep_rows<T: Send>(
    f: &Frame<'_>,
    data: &mut [T],
    origin: &[i64],
    extents: &[i64],
    domain: &BoxDomain,
    body: impl Fn(SpaceMut<'_, T>, &BoxDomain, &mut Tally) + Sync,
) -> u64 {
    let nd = extents.len();
    let npieces = f.pool.current_num_threads().max(1);
    let outer = domain.0[0];
    let bounds = rayon::partition_ranges(outer.len() as usize, npieces)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| (outer.lo + r.start as i64, outer.lo + r.end as i64 - 1));
    // split the buffer at row boundaries (whole outer-dim rows)
    let row_block = extents[1..].iter().product::<i64>() as usize;
    let mut pieces: Vec<(&mut [T], (i64, i64))> = Vec::with_capacity(npieces);
    let mut rest = data;
    let mut covered = 0usize;
    for (lo, hi) in bounds {
        let begin = (lo - origin[0]) as usize * row_block;
        let end = (hi - origin[0] + 1) as usize * row_block;
        let (_, tail) = rest.split_at_mut(begin - covered);
        let (mine, tail2) = tail.split_at_mut(end - begin);
        pieces.push((mine, (lo, hi)));
        rest = tail2;
        covered = end;
    }
    let npieces = pieces.len() as u64;
    f.pool.for_each(pieces, |(data, (lo, hi))| {
        if f.chaos.should_fire(FaultSite::WorkerPanic) {
            panic!("chaos: injected worker panic");
        }
        let mut region = *domain;
        let (mut wo, mut we) = ([0i64; 3], [0i64; 3]);
        wo[..nd].copy_from_slice(origin);
        we[..nd].copy_from_slice(extents);
        (region.0[0], wo[0], we[0]) = (Interval::new(lo, hi), lo, hi - lo + 1);
        let window = SpaceMut {
            data,
            origin: &wo[..nd],
            extents: &we[..nd],
        };
        let mut tally = Tally::default();
        body(window, &region, &mut tally);
        f.count(&tally);
    });
    npieces
}
