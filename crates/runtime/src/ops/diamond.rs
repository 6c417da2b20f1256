//! `RunDiamondChain`: diamond/split time-tiled execution of a smoother
//! chain with two modulo buffers (the `polymg-dtile-opt+` strategy). The
//! split-tiling band schedule is precomputed at lowering.
//!
//! The band/phase walk allocates nothing per trapezoid and step: its region
//! and output window are fixed arrays, and a step's input list is the one
//! resolved before the parallel section, copied to the stack with its
//! op-local read patched to the previous step's rows.

use super::{
    check_chain, slot_space, stage_inputs, with_outputs, ChainViolations, Frame, INLINE_INPUTS,
};
use crate::kernel::{fill_ghost, Bound, Inline, KernelInput, KernelOut, Space, SpaceMut};
use crate::pool::BufferPool;
use crate::schedule::{ExecError, Slot};
use crate::tilebuf::SharedOut;
use gmg_grid::Buffer;
use gmg_poly::diamond::TimeBand;
use gmg_poly::Interval;
use gmg_trace::dispatch::Tally;
use gmg_trace::StageHandle;
use polymg::schedule::{OpInput, StageExec};
use polymg::FaultSite;
use std::time::Instant;

const VIOLATIONS: ChainViolations = ChainViolations {
    empty: "empty diamond chain",
    origin: "diamond chains assume origin-0 buffers",
    local: "diamond chain local read must target the previous step",
};

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    f: Frame<'_>,
    stages: &[StageExec],
    kernels: &[Bound<f64>],
    schedule: &[TimeBand],
    radius: i64,
    out_slot: usize,
    slots: &mut [Slot<'_>],
    pool: &mut BufferPool,
) -> Result<(), ExecError> {
    let spec = check_chain(f.program, stages, out_slot, &VIOLATIONS)?;
    let steps = stages.len();
    let domain = &stages[0].domain;
    let nd = domain.ndims();
    let ext = &spec.extents;
    let row_block = ext[1..].iter().product::<i64>() as usize;
    let pooled = f.program.pooled;

    // temp modulo buffer (only needed for ≥2 steps); allocated here rather
    // than via slot ops because its lifetime is exactly this op
    let mut temp = (steps >= 2).then(|| {
        let mut b = if pooled {
            pool.allocate_or_recover(spec.len(), f.chaos)
        } else {
            Buffer::zeroed(spec.len())
        };
        fill_ghost(b.as_mut_slice(), ext, spec.boundary);
        b
    });

    let result = with_outputs(f.program, slots, &[out_slot], |out, slots| {
        let out_shared = SharedOut::new(out[0]);
        let temp_shared = temp.as_mut().map(|b| SharedOut::new(b.as_mut_slice()));
        // buf of a step: parity p writes bufs[p]; arrange last step → out.
        // With a single step both parities resolve to `out` (the off parity
        // is never read or written then), so no unwrap is needed.
        let last_parity = (steps - 1) % 2;
        let temp_or_out = temp_shared.unwrap_or(out_shared);
        let buf_of = |p: usize| -> SharedOut {
            if p == last_parity {
                out_shared
            } else {
                temp_or_out
            }
        };

        // every step's inputs with the full-array reads resolved; the
        // op-local read is patched per trapezoid
        let resolved = stages
            .iter()
            .map(|st| {
                stage_inputs(
                    st,
                    |s| slot_space(f.program, slots, s),
                    |_| Ok(KernelInput::Zero),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;

        let outer_dom = domain.0[0];
        let tracing = f.spans.iter().any(StageHandle::is_enabled);

        f.contain(|| {
            for band in schedule {
                for phase in [&band.phase1, &band.phase2] {
                    f.pool.for_each(phase, |trap| {
                        if f.chaos.should_fire(FaultSite::WorkerPanic) {
                            panic!("chaos: injected worker panic");
                        }
                        let mut tally = Tally::default();
                        for s in 0..band.steps {
                            let t = band.t0 + s;
                            let rows = trap.rows_at(s as i64, outer_dom);
                            if rows.is_empty() {
                                continue;
                            }
                            let t0 = tracing.then(Instant::now);
                            let stage = &stages[t];

                            // region: these rows × full inner interior,
                            // written to the rows block of bufs[t%2]
                            let mut region = [Interval::empty(); 3];
                            region[..nd].copy_from_slice(&domain.0);
                            region[0] = rows;
                            let (mut origin, mut extents) = ([0i64; 3], [0i64; 3]);
                            extents[..nd].copy_from_slice(ext);
                            (origin[0], extents[0]) = (rows.lo, rows.len());
                            let d_off = rows.lo as usize * row_block;
                            let d_len = rows.len() as usize * row_block;
                            // SAFETY: trapezoids of one phase write disjoint
                            // rows at each step (split-tiling invariant), and
                            // cross-step writes to one parity buffer are
                            // disjoint by the band-height clamp.
                            let data = unsafe { buf_of(t % 2).segment(d_off, d_len) };
                            let out = KernelOut::Dense(SpaceMut {
                                data,
                                origin: &origin[..nd],
                                extents: &extents[..nd],
                            });

                            // inputs: read rows from the previous parity
                            // buffer, dilated by the radius and clamped to
                            // the ghost
                            let r_lo = (rows.lo - radius).max(0);
                            let r_hi = (rows.hi + radius).min(ext[0] - 1);
                            let (mut r_origin, mut r_ext) = (origin, extents);
                            (r_origin[0], r_ext[0]) = (r_lo, r_hi - r_lo + 1);
                            let r_off = r_lo as usize * row_block;
                            let r_len = r_ext[0] as usize * row_block;
                            let (resolved, bnd) = &resolved[t];
                            let mut ins =
                                Inline::<_, INLINE_INPUTS>::new(bnd.len(), KernelInput::Zero);
                            let ins = ins.as_mut_slice();
                            ins.copy_from_slice(resolved);
                            for (k, input) in stage.ins.iter().enumerate() {
                                if let OpInput::Local { stage: p, .. } = input {
                                    // SAFETY: disjoint from all concurrent
                                    // writes by the band-height clamp.
                                    let data = unsafe { buf_of(p % 2).read_segment(r_off, r_len) };
                                    ins[k] = KernelInput::Grid(Space {
                                        data,
                                        origin: &r_origin[..nd],
                                        extents: &r_ext[..nd],
                                    });
                                }
                            }
                            let region = &region[..nd];
                            kernels[t].run(region, out, ins, bnd, &mut tally);
                            if let Some(t0) = t0 {
                                let cells = region.iter().map(Interval::len).product::<i64>();
                                f.spans[t].record(t0.elapsed().as_nanos() as u64, 1, cells as u64);
                            }
                        }
                        f.count(&tally);
                    });
                }
            }
        })
    });

    if let Some(b) = temp.filter(|_| pooled) {
        pool.deallocate(b);
    }
    result
}
