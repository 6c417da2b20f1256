//! `RunDiamondChain`: diamond/split time-tiled execution of a smoother
//! chain with two modulo buffers (the `polymg-dtile-opt+` strategy). The
//! split-tiling band schedule is precomputed at lowering.

use super::{panic_detail, resolve_ins, ResolvedIn};
use crate::kernel::{execute_stage_sel, fill_ghost, KernelInput, Space, SpaceMut};
use crate::pool::BufferPool;
use crate::schedule::{ExecError, Slot};
use crate::tilebuf::SharedOut;
use gmg_grid::Buffer;
use gmg_poly::diamond::TimeBand;
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, OpInput, StageExec};
use polymg::{FaultPlan, FaultSite};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    program: &ExecProgram,
    stages: &[StageExec],
    schedule: &[TimeBand],
    radius: i64,
    out_slot: usize,
    slots: &mut [Slot<'_>],
    pool: &mut BufferPool,
    pooled: bool,
    spans: &[StageHandle],
    chaos: &FaultPlan,
) -> Result<(), ExecError> {
    if chaos.should_fire(FaultSite::OpDiamond) {
        return Err(ExecError::FaultInjected {
            site: FaultSite::OpDiamond.label(),
            op: "run_diamond",
        });
    }
    let steps = stages.len();
    if steps == 0 {
        return Err(ExecError::PlanViolation("empty diamond chain"));
    }
    let domain = stages[0].domain.clone();
    let nd = domain.ndims();

    let spec = &program.slots[out_slot];
    if spec.origin.iter().any(|&o| o != 0) {
        return Err(ExecError::PlanViolation(
            "diamond chains assume origin-0 buffers",
        ));
    }
    // step t reads op-locally only from step t-1, i.e. the other parity
    // buffer, which is what the band schedule keeps race-free
    for (t, st) in stages.iter().enumerate() {
        let reads_elsewhere = st.ins.iter().any(|i| match i {
            OpInput::Local { stage, .. } => t.checked_sub(1) != Some(*stage),
            _ => false,
        });
        if reads_elsewhere {
            return Err(ExecError::PlanViolation(
                "diamond chain local read must target the previous step",
            ));
        }
    }
    let len = spec.len();
    let ext: Vec<i64> = spec.extents.clone();
    let row_block = spec.extents[1..].iter().product::<i64>() as usize;

    // temp modulo buffer (only needed for ≥2 steps); allocated here rather
    // than via slot ops because its lifetime is exactly this op
    let mut temp = if steps >= 2 {
        let mut b = if pooled && chaos.should_fire(FaultSite::PoolAlloc) {
            // injected pool exhaustion: degrade to a fresh malloc
            let b = pool.allocate_fallback_fresh(len);
            chaos.record_recovered(FaultSite::PoolAlloc);
            b
        } else if pooled {
            pool.allocate(len)
        } else {
            Buffer::zeroed(len)
        };
        fill_ghost(b.as_mut_slice(), &spec.extents, spec.boundary);
        Some(b)
    } else {
        None
    };

    let mut taken = std::mem::replace(&mut slots[out_slot], Slot::Empty);
    let result = (|| -> Result<(), ExecError> {
        let out_data = taken.try_write(&spec.name)?;
        let out_shared = SharedOut::new(out_data);
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

        // pre-resolve every full-array read
        let resolved: Vec<Vec<ResolvedIn<'_>>> = stages
            .iter()
            .map(|st| resolve_ins(program, st, slots))
            .collect::<Result<_, _>>()?;

        let outer_dom = domain.0[0];
        let tracing = spans.iter().any(StageHandle::is_enabled);

        // Catching here (slot taken, restore pending below) contains worker
        // panics so the slot restore and temp deallocation always run.
        catch_unwind(AssertUnwindSafe(|| {
            for band in schedule {
                for phase in [&band.phase1, &band.phase2] {
                    phase.par_iter().for_each(|trap| {
                        if chaos.should_fire(FaultSite::WorkerPanic) {
                            panic!("chaos: injected worker panic");
                        }
                        for s in 0..band.steps {
                            let t = band.t0 + s;
                            let rows = trap.rows_at(s as i64, outer_dom);
                            if rows.is_empty() {
                                continue;
                            }
                            let t0 = tracing.then(Instant::now);
                            let stage = &stages[t];
                            let kernel = &program.kernels[stage.kernel];

                            // region: these rows × full inner interior
                            let mut region = domain.clone();
                            region.0[0] = rows;

                            // destination: rows block of bufs[t%2]
                            let dst = buf_of(t % 2);
                            let d_off = rows.lo as usize * row_block;
                            let d_len = rows.len() as usize * row_block;
                            // SAFETY: trapezoids of one phase write disjoint
                            // rows at each step (split-tiling invariant), and
                            // cross-step writes to one parity buffer are
                            // disjoint by the band-height clamp.
                            let data = unsafe { dst.segment(d_off, d_len) };
                            let mut origin = vec![0i64; nd];
                            origin[0] = rows.lo;
                            let mut extents = ext.clone();
                            extents[0] = rows.len();
                            let mut out = SpaceMut {
                                data,
                                origin: &origin,
                                extents: &extents,
                            };

                            // inputs: read rows from the previous parity buffer,
                            // dilated by the radius and clamped to the ghost
                            let r_lo = (rows.lo - radius).max(0);
                            let r_hi = (rows.hi + radius).min(ext[0] - 1);
                            let r_off = r_lo as usize * row_block;
                            let r_len = (r_hi - r_lo + 1) as usize * row_block;
                            let mut r_origin = vec![0i64; nd];
                            r_origin[0] = r_lo;
                            let mut r_ext = ext.clone();
                            r_ext[0] = r_hi - r_lo + 1;
                            let (r_origin, r_ext) = (r_origin, r_ext);

                            let mut ins: Vec<KernelInput<'_>> =
                                Vec::with_capacity(resolved[t].len());
                            let mut bnd: Vec<f64> = Vec::with_capacity(resolved[t].len());
                            for r in &resolved[t] {
                                match r {
                                    ResolvedIn::Zero => {
                                        ins.push(KernelInput::Zero);
                                        bnd.push(0.0);
                                    }
                                    ResolvedIn::Array(sp, b) => {
                                        ins.push(KernelInput::Grid(*sp));
                                        bnd.push(*b);
                                    }
                                    ResolvedIn::Local(pi, b) => {
                                        bnd.push(*b);
                                        let src = buf_of(pi % 2);
                                        // SAFETY: disjoint from all concurrent
                                        // writes by the band-height clamp.
                                        let pdata = unsafe { src.read_segment(r_off, r_len) };
                                        ins.push(KernelInput::Grid(Space {
                                            data: pdata,
                                            origin: &r_origin,
                                            extents: &r_ext,
                                        }));
                                    }
                                }
                            }
                            execute_stage_sel(
                                stage.sel(),
                                kernel,
                                &region,
                                &mut out,
                                &ins,
                                &bnd,
                            );
                            if let Some(t0) = t0 {
                                spans[t].record(
                                    t0.elapsed().as_nanos() as u64,
                                    1,
                                    region.len() as u64,
                                );
                            }
                        }
                    });
                }
            }
        }))
        .map_err(|p| ExecError::WorkerPanicked {
            op: "run_diamond",
            detail: panic_detail(p),
        })?;
        Ok(())
    })();
    slots[out_slot] = taken;

    if let Some(b) = temp {
        if pooled {
            pool.deallocate(b);
        }
    }
    result
}
