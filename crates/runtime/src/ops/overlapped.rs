//! `RunOverlappedGroup`: overlapped-tile execution of a fused group with
//! scratchpads (the paper's §3.1 strategy).
//!
//! Lowering fixes the tile list, the group's dependence edges and the
//! stage scales. What each tile computes for each stage — the compute box,
//! the owned box it writes back, the scratchpad box — depends only on those,
//! so it is derived once, on the op's first execution, into a [`TilePlan`]
//! that the engine keeps next to the op. Every later execution is the tile
//! loop alone: read a plan entry, initialise the rim of the scratchpad box
//! outside the compute box, run the stage kernel, copy the owned box out.
//! The loop allocates nothing: boxes are fixed arrays in the plan, a
//! stage's input list lives on the stack, and scratch is the worker's
//! engine-resident slab ([`crate::arena`]).

use super::{panic_detail, propagate_for_tile};
use crate::arena::ArenaPool;
use crate::kernel::{
    execute_stage_region, fill_rim, Inline, KernelInput, KernelOut, Space, SpaceMut,
};
use crate::schedule::{ExecError, Slot};
use crate::tilebuf::SharedOut;
use gmg_poly::tiling::owned_region;
use gmg_poly::{BoxDomain, Interval};
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, OpInput, OverlappedGeom, StageExec};
use polymg::{FaultPlan, FaultSite, ScratchBufferSpec};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Stage inputs kept on the stack per stage execution (a wider stage spills
/// to the heap); shipped pipelines read at most four grids per stage.
const INLINE_INPUTS: usize = 8;

/// A box as a fixed array, right-aligned: a 2-D box occupies axes `1..3`.
type Box3 = [Interval; 3];

fn box3(b: &BoxDomain) -> Box3 {
    let mut out = [Interval::new(0, 0); 3];
    out[3 - b.ndims()..].copy_from_slice(&b.0);
    out
}

/// What one tile does for one stage.
#[derive(Clone, Copy, Debug)]
struct StageTile {
    /// Points the tile evaluates; empty when the tile needs none.
    compute: Box3,
    /// The part of `compute` written back to the stage's full array (empty
    /// for stages that are not live-out).
    owned: Box3,
    /// Corner and extents of the scratchpad box (`compute` plus the ghost
    /// positions consumers read).
    origin: [i64; 3],
    extents: [i64; 3],
}

/// The per-tile geometry of one overlapped op: for every tile × stage the
/// result of backward region propagation, and where each of the op's
/// scratch buffers sits in a worker's slab. Built once per engine on the
/// op's first execution and read-only afterwards (all workers share it).
#[derive(Debug)]
pub struct TilePlan {
    ndims: usize,
    nstages: usize,
    /// Tile-major: entry `tile · nstages + stage`.
    entries: Vec<StageTile>,
    /// Per scratch buffer: `(offset, capacity)` of its slice of the slab.
    buffers: Vec<(usize, usize)>,
    /// Boundary value of every stage input, stage after stage.
    boundaries: Vec<f64>,
    /// Parallel to `boundaries`: for an op-local input, the producer stage
    /// and the slab offset of the buffer holding its result.
    locals: Vec<Option<(usize, usize)>>,
    /// Per stage: where its inputs start in `boundaries` (one extra entry
    /// closes the last stage).
    inputs_at: Vec<usize>,
}

impl TilePlan {
    fn build(
        stages: &[StageExec],
        live_out: &[bool],
        scratch_slot: &[Option<usize>],
        scratch_buffers: &[ScratchBufferSpec],
        geom: &OverlappedGeom,
    ) -> Result<TilePlan, ExecError> {
        let ndims = geom.gstages[0].domain.ndims();
        if !(2..=3).contains(&ndims) {
            return Err(ExecError::PlanViolation(
                "overlapped group of unsupported rank",
            ));
        }
        let mut offset = 0;
        let buffers: Vec<(usize, usize)> = scratch_buffers
            .iter()
            .map(|b| {
                offset += b.capacity;
                (offset - b.capacity, b.capacity)
            })
            .collect();
        let (mut boundaries, mut locals) = (Vec::new(), Vec::new());
        let mut inputs_at = vec![0];
        for st in stages {
            for inp in &st.ins {
                let (boundary, local) = match inp {
                    OpInput::Zero => (0.0, None),
                    OpInput::Slot { boundary, .. } => (*boundary, None),
                    OpInput::Local { stage, boundary } => {
                        let b = scratch_slot[*stage].ok_or(ExecError::PlanViolation(
                            "op-local producer without scratch slot",
                        ))?;
                        (*boundary, Some((*stage, buffers[b].0)))
                    }
                };
                boundaries.push(boundary);
                locals.push(local);
            }
            inputs_at.push(boundaries.len());
        }

        let mut entries = Vec::with_capacity(geom.tiles.len() * stages.len());
        for tile in &geom.tiles {
            let regions =
                propagate_for_tile(&geom.gstages, &geom.edges, &geom.scales, live_out, tile);
            for (i, (st, r)) in stages.iter().zip(&regions).enumerate() {
                let owned = if live_out[i] {
                    owned_region(tile, &geom.scales[i], &st.domain)
                } else {
                    BoxDomain::empty(ndims)
                };
                let alloc = box3(&r.alloc);
                entries.push(StageTile {
                    compute: box3(&r.compute),
                    owned: box3(&owned),
                    origin: alloc.map(|iv| iv.lo),
                    extents: alloc.map(|iv| iv.len()),
                });
            }
        }
        let plan = TilePlan {
            ndims,
            nstages: stages.len(),
            entries,
            buffers,
            boundaries,
            locals,
            inputs_at,
        };
        gmg_trace::tile_plan::record_plan(
            plan.tiles() as u64,
            plan.entries.len() as u64,
            plan.bytes() as u64,
        );
        Ok(plan)
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.entries.len() / self.nstages.max(1)
    }

    /// Number of stages per tile.
    pub fn stages(&self) -> usize {
        self.nstages
    }

    /// Heap bytes the plan occupies.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.len() * size_of::<StageTile>()
            + self.buffers.len() * size_of::<(usize, usize)>()
            + self.locals.len() * size_of::<Option<(usize, usize)>>()
            + (self.boundaries.len() + self.inputs_at.len()) * size_of::<usize>()
    }

    /// Elements of a worker's slab this op uses.
    fn scratch_len(&self) -> usize {
        self.buffers.last().map_or(0, |&(off, cap)| off + cap)
    }

    fn entry(&self, tile: usize, stage: usize) -> &StageTile {
        &self.entries[tile * self.nstages + stage]
    }

    fn domain(&self, b: &Box3) -> BoxDomain {
        BoxDomain::new(b[3 - self.ndims..].to_vec())
    }

    /// The points `tile` evaluates for `stage`.
    pub fn compute(&self, tile: usize, stage: usize) -> BoxDomain {
        self.domain(&self.entry(tile, stage).compute)
    }

    /// The points of `stage` that `tile` writes to the stage's full array.
    pub fn owned(&self, tile: usize, stage: usize) -> BoxDomain {
        self.domain(&self.entry(tile, stage).owned)
    }

    /// The scratchpad box of `stage` in `tile`.
    pub fn alloc(&self, tile: usize, stage: usize) -> BoxDomain {
        let e = self.entry(tile, stage);
        let alloc: Box3 =
            std::array::from_fn(|d| Interval::new(e.origin[d], e.origin[d] + e.extents[d] - 1));
        self.domain(&alloc)
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    program: &ExecProgram,
    stages: &[StageExec],
    live_out: &[bool],
    scratch_slot: &[Option<usize>],
    scratch_buffers: &[ScratchBufferSpec],
    geom: &OverlappedGeom,
    plan: &std::sync::OnceLock<TilePlan>,
    scratch: &ArenaPool,
    slots: &mut [Slot<'_>],
    spans: &[StageHandle],
    chaos: &FaultPlan,
) -> Result<(), ExecError> {
    if chaos.should_fire(FaultSite::OpOverlapped) {
        return Err(ExecError::FaultInjected {
            site: FaultSite::OpOverlapped.label(),
            op: "run_overlapped",
        });
    }
    let plan = match plan.get() {
        Some(p) => p,
        None => {
            let built = TilePlan::build(stages, live_out, scratch_slot, scratch_buffers, geom)?;
            plan.get_or_init(|| built)
        }
    };
    // take all written arrays
    let mut write_arrays = Vec::new();
    for (st, lo) in stages.iter().zip(live_out) {
        if *lo {
            write_arrays.push(st.slot.ok_or(ExecError::PlanViolation(
                "live-out stage without output slot",
            ))?);
        }
    }
    write_arrays.sort_unstable();
    write_arrays.dedup();
    let mut taken: Vec<(usize, Slot<'_>)> = write_arrays
        .iter()
        .map(|&a| (a, std::mem::replace(&mut slots[a], Slot::Empty)))
        .collect();

    let result = (|| -> Result<(), ExecError> {
        // shared outs (checked serially, before any parallelism)
        let mut outs: Vec<(usize, SharedOut)> = Vec::with_capacity(taken.len());
        for (a, s) in taken.iter_mut() {
            outs.push((*a, SharedOut::new(s.try_write(&program.slots[*a].name)?)));
        }
        // per stage: the shared array a live-out stage writes, with its
        // extents (resolved here so the tile loop cannot fail)
        let stage_out: Vec<Option<(SharedOut, &[i64])>> = stages
            .iter()
            .zip(live_out)
            .map(|(st, lo)| {
                if !*lo {
                    return Ok(None);
                }
                let a = st.slot.and_then(|a| outs.iter().find(|(aa, _)| *aa == a));
                let (a, sh) = a.ok_or(ExecError::PlanViolation(
                    "live-out stage slot was not taken for writing",
                ))?;
                Ok(Some((*sh, &program.slots[*a].extents[..])))
            })
            .collect::<Result<_, ExecError>>()?;

        // every stage's inputs, stage after stage, with the full-array reads
        // resolved; op-local inputs are filled in per tile
        let mut inputs: Vec<KernelInput<'_>> = Vec::with_capacity(plan.boundaries.len());
        for inp in stages.iter().flat_map(|st| &st.ins) {
            inputs.push(match inp {
                OpInput::Zero | OpInput::Local { .. } => KernelInput::Zero,
                OpInput::Slot { slot, .. } => {
                    let spec = &program.slots[*slot];
                    KernelInput::Grid(Space {
                        data: slots[*slot].try_read(&spec.name)?,
                        origin: &spec.origin,
                        extents: &spec.extents,
                    })
                }
            });
        }

        let nd = plan.ndims;
        let tracing = spans.iter().any(StageHandle::is_enabled);

        // Catching here (after the slots were taken, before they are
        // restored by the caller below) contains worker panics: the slot
        // restore always runs, so no pooled buffer is stranded.
        catch_unwind(AssertUnwindSafe(|| {
            (0..plan.tiles()).into_par_iter().for_each(|tile| {
                if chaos.should_fire(FaultSite::WorkerPanic) {
                    panic!("chaos: injected worker panic");
                }
                let mut arena = scratch.get(chaos);
                let slab = &mut arena.slab()[..plan.scratch_len()];

                for (i, st) in stages.iter().enumerate() {
                    let kernel = &program.kernels[st.kernel];
                    let entry = plan.entry(tile, i);
                    let compute = &entry.compute[3 - nd..];
                    if compute.iter().any(Interval::is_empty) {
                        continue;
                    }
                    let t0 = tracing.then(Instant::now);

                    // Split the slab around the stage's own buffer: the
                    // kernel writes that part while its producers' buffers
                    // — earlier stages, never the same buffer — are read
                    // from the rest.
                    let (own_at, own_cap) =
                        scratch_slot[i].map_or((slab.len(), 0), |b| plan.buffers[b]);
                    let (before, rest) = slab.split_at_mut(own_at);
                    let (own, after) = rest.split_at_mut(own_cap);
                    let (before, after) = (&*before, &*after);

                    let (lo, hi) = (plan.inputs_at[i], plan.inputs_at[i + 1]);
                    let bnd = &plan.boundaries[lo..hi];
                    let mut ins = Inline::<_, INLINE_INPUTS>::new(hi - lo, KernelInput::Zero);
                    let ins = ins.as_mut_slice();
                    ins.copy_from_slice(&inputs[lo..hi]);
                    for (k, local) in plan.locals[lo..hi].iter().enumerate() {
                        let Some((producer, at)) = *local else {
                            continue;
                        };
                        let produced = plan.entry(tile, producer);
                        let extents = &produced.extents[3 - nd..];
                        let len = extents.iter().product::<i64>() as usize;
                        ins[k] = KernelInput::Grid(Space {
                            data: if at < own_at {
                                &before[at..at + len]
                            } else {
                                &after[at - own_at - own_cap..][..len]
                            },
                            origin: &produced.origin[3 - nd..],
                            extents,
                        });
                    }

                    let (origin, extents) = (&entry.origin[3 - nd..], &entry.extents[3 - nd..]);
                    if scratch_slot[i].is_some() {
                        // compute the full overlap region into the scratchpad
                        let data = &mut own[..extents.iter().product::<i64>() as usize];
                        let mut pad = SpaceMut {
                            data: &mut *data,
                            origin,
                            extents,
                        };
                        fill_rim(&mut pad, compute, st.boundary);
                        let out = KernelOut::Dense(pad);
                        execute_stage_region(st.sel(), kernel, compute, out, ins, bnd);
                        if let Some((sh, array_extents)) = stage_out[i] {
                            // copy the owned sub-region scratch → array
                            let src = Space {
                                data,
                                origin,
                                extents,
                            };
                            // SAFETY: owned boxes partition the array across
                            // tiles.
                            unsafe {
                                sh.copy_box_from(&src, array_extents, &entry.owned[3 - nd..]);
                            }
                        }
                    } else if let Some((out, extents)) = stage_out[i] {
                        // live-out with no in-group consumer: write the owned
                        // region straight into the shared array (the generated-
                        // code behaviour of Figure 8)
                        debug_assert_eq!(&entry.owned[3 - nd..], compute);
                        let out = KernelOut::Shared { out, extents };
                        execute_stage_region(st.sel(), kernel, compute, out, ins, bnd);
                    }

                    if let Some(t0) = t0 {
                        let cells = compute.iter().map(Interval::len).product::<i64>();
                        spans[i].record(t0.elapsed().as_nanos() as u64, 1, cells as u64);
                    }
                }

                scratch.put(arena);
            });
        }))
        .map_err(|p| ExecError::WorkerPanicked {
            op: "run_overlapped",
            detail: panic_detail(p),
        })
    })();

    for (a, s) in taken {
        slots[a] = s;
    }
    result
}
