//! `RunOverlappedGroup`: overlapped-tile execution of a fused group with
//! scratchpads (the paper's §3.1 strategy).
//!
//! What each tile computes for each stage — the compute box, the owned box
//! it writes back, the scratchpad box — is fixed by the compiler in the
//! group's [`polymg::TilePlan`], and where each scratch buffer sits in a
//! worker's slab by lowering ([`polymg::schedule::SlabLayout`]). An
//! execution is the tile loop alone: read a plan entry, initialise the rim
//! of the scratchpad box outside the compute box, run the stage kernel,
//! copy the owned box out. The loop allocates nothing: boxes are fixed
//! arrays in the plan, a stage's input list lives on the stack, and scratch
//! is the worker's engine-resident slab ([`crate::arena`]).

use super::{slot_space, with_outputs, Frame, INLINE_INPUTS};
use crate::arena::ArenaPool;
use crate::kernel::{box_rows, fill_rim, Bound, Inline, KernelInput, KernelOut, Space, SpaceMut};
use crate::schedule::{ExecError, Slot};
use crate::tilebuf::SharedOut;
use gmg_poly::Interval;
use gmg_trace::dispatch::Tally;
use gmg_trace::StageHandle;
use polymg::schedule::{OpInput, SlabLayout, StageExec};
use polymg::{FaultSite, TilePlan};
use std::time::Instant;

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    f: Frame<'_>,
    stages: &[StageExec],
    kernels: &[Bound<f64>],
    live_out: &[bool],
    scratch_slot: &[Option<usize>],
    plan: &TilePlan,
    layout: &SlabLayout,
    scratch: &ArenaPool,
    slots: &mut [Slot<'_>],
) -> Result<(), ExecError> {
    let nd = plan.ndims();
    if !(2..=3).contains(&nd) {
        return Err(ExecError::PlanViolation(
            "overlapped group of unsupported rank",
        ));
    }
    // the arrays the group writes, each taken once
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
    let (program, spans, chaos) = (f.program, f.spans, f.chaos);

    with_outputs(program, slots, &write_arrays, |outs, slots| {
        // per stage: the shared array a live-out stage writes, with its
        // extents (resolved here so the tile loop cannot fail)
        let stage_out: Vec<Option<(SharedOut, &[i64])>> = stages
            .iter()
            .zip(live_out)
            .map(|(st, lo)| {
                let a = st.slot.filter(|_| *lo)?;
                let out = SharedOut::new(outs[write_arrays.partition_point(|&w| w < a)]);
                Some((out, &program.slots[a].extents[..]))
            })
            .collect();

        // every stage's inputs, stage after stage, with the full-array reads
        // resolved; op-local inputs are filled in per tile
        let mut inputs: Vec<KernelInput<'_>> = Vec::with_capacity(layout.boundaries.len());
        for inp in stages.iter().flat_map(|st| &st.ins) {
            inputs.push(match inp {
                OpInput::Zero | OpInput::Local { .. } => KernelInput::Zero,
                OpInput::Slot { slot, .. } => KernelInput::Grid(slot_space(program, slots, *slot)?),
            });
        }

        let tracing = spans.iter().any(StageHandle::is_enabled);

        f.contain(|| {
            f.pool.for_each(0..plan.tiles(), |tile| {
                if chaos.should_fire(FaultSite::WorkerPanic) {
                    panic!("chaos: injected worker panic");
                }
                let mut arena = scratch.get(chaos);
                let slab = &mut arena.slab()[..layout.scratch_len()];
                let mut tally = Tally::default();

                for (i, st) in stages.iter().enumerate() {
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
                        scratch_slot[i].map_or((slab.len(), 0), |b| layout.buffers[b]);
                    let (before, rest) = slab.split_at_mut(own_at);
                    let (own, after) = rest.split_at_mut(own_cap);
                    let (before, after) = (&*before, &*after);

                    let (lo, hi) = (layout.inputs_at[i], layout.inputs_at[i + 1]);
                    let bnd = &layout.boundaries[lo..hi];
                    let mut ins = Inline::<_, INLINE_INPUTS>::new(hi - lo, KernelInput::Zero);
                    let ins = ins.as_mut_slice();
                    ins.copy_from_slice(&inputs[lo..hi]);
                    for (k, local) in layout.locals[lo..hi].iter().enumerate() {
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
                        fill_rim(data, origin, extents, compute, st.boundary);
                        let out = KernelOut::Dense(SpaceMut {
                            data: &mut *data,
                            origin,
                            extents,
                        });
                        kernels[i].run(compute, out, ins, bnd, &mut tally);
                        if let Some((sh, array_extents)) = stage_out[i] {
                            // copy the owned sub-region scratch → array, its
                            // box checked once against the array
                            let owned = &entry.owned[3 - nd..];
                            let mut axes = owned.iter().zip(array_extents);
                            let inside = axes.all(|(iv, &e)| iv.lo >= 0 && iv.hi < e);
                            let cells = array_extents.iter().product::<i64>() as usize;
                            assert!(inside && cells <= sh.len(), "owned box leaves its array");
                            let array = (&[0; 3][..nd], array_extents);
                            box_rows((origin, extents), array, owned, |s, d, w| {
                                let row = &data[s..s + w];
                                // SAFETY: the row lies in the owned box, which
                                // lies in the array (checked above); owned
                                // boxes partition the array across tiles.
                                unsafe {
                                    row.as_ptr().copy_to_nonoverlapping(sh.as_ptr().add(d), w)
                                };
                            });
                        }
                    } else if let Some((out, extents)) = stage_out[i] {
                        // live-out with no in-group consumer: write the owned
                        // region straight into the shared array (the generated-
                        // code behaviour of Figure 8)
                        debug_assert_eq!(&entry.owned[3 - nd..], compute);
                        let out = KernelOut::Shared { out, extents };
                        kernels[i].run(compute, out, ins, bnd, &mut tally);
                    }

                    if let Some(t0) = t0 {
                        let cells = compute.iter().map(Interval::len).product::<i64>();
                        spans[i].record(t0.elapsed().as_nanos() as u64, 1, cells as u64);
                    }
                }

                scratch.put(arena);
                f.count(&tally);
            });
        })
    })
}
