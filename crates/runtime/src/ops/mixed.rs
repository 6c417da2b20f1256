//! `RunMixedChain`: mixed-precision execution of a smoother chain — the
//! opt-in f32 smoothing tier of `PipelineOptions::mixed_precision`.
//!
//! The f64 operands are narrowed to f32 once per chain invocation (ghost
//! rings included), the chain's k sweeps run on two f32 ping-pong scratch
//! buffers, and only the final sweep's interior is widened back to f64 in
//! the output slot. Residual and correction stages keep running in f64
//! elsewhere in the program, so the cycle's convergence degrades gracefully
//! (validated by convergence-vs-speed rows, never bitwise).
//!
//! Eligibility is proven at plan time (`GroupTiling::MixedChain`): every
//! stage is a single-case linear kernel whose taps are pure offsets without
//! coefficient factors. This op re-checks those invariants and reports
//! violations as `ExecError::PlanViolation` rather than computing garbage.

use super::{panic_detail, row_pieces};
use crate::kernel::fill_ghost;
use crate::pool::F32Pool;
use crate::schedule::{ExecError, Slot};
use crate::tilebuf::SharedOut;
use gmg_poly::BoxDomain;
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, OpInput, StageExec};
use polymg::{FaultPlan, FaultSite, KernelBody};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A stage compiled to the f32 sweep form. Tap sources are indices into
/// the op's source table: `0` is the previous ping-pong buffer, `1 + k`
/// is the k-th narrowed external array.
struct F32Stage {
    bias: f32,
    /// `(source index, flat offset, weight)` per tap.
    taps: Vec<(usize, isize, f32)>,
    /// Ghost value this stage expects in the previous step's buffer
    /// (the producer's boundary, from the `Local` input).
    prev_boundary: f32,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    program: &ExecProgram,
    stages: &[StageExec],
    out_slot: usize,
    slots: &mut [Slot<'_>],
    f32_pool: &mut F32Pool,
    spans: &[StageHandle],
    chaos: &FaultPlan,
) -> Result<(), ExecError> {
    if chaos.should_fire(FaultSite::OpMixed) {
        return Err(ExecError::FaultInjected {
            site: FaultSite::OpMixed.label(),
            op: "run_mixed_chain",
        });
    }
    let steps = stages.len();
    if steps == 0 {
        return Err(ExecError::PlanViolation("empty mixed chain"));
    }
    let spec = &program.slots[out_slot];
    if spec.origin.iter().any(|&o| o != 0) {
        return Err(ExecError::PlanViolation(
            "mixed chains assume origin-0 buffers",
        ));
    }
    let ext = &spec.extents;
    let len = spec.len();
    let nd = ext.len();
    if !(2..=3).contains(&nd) {
        return Err(ExecError::PlanViolation("mixed chain of unsupported rank"));
    }
    let mut strides = vec![1isize; nd];
    for d in (0..nd - 1).rev() {
        strides[d] = strides[d + 1] * ext[d + 1] as isize;
    }

    // Compile every stage to the f32 sweep form, collecting the distinct
    // external slots the chain reads (the shared RHS, typically).
    let mut ext_slots: Vec<usize> = Vec::new();
    let mut cstages: Vec<F32Stage> = Vec::with_capacity(steps);
    for (t, st) in stages.iter().enumerate() {
        let kernel = &program.kernels[st.kernel];
        if kernel.cases.len() != 1 {
            return Err(ExecError::PlanViolation(
                "mixed chain stage is not single-case",
            ));
        }
        let KernelBody::Linear(form) = &kernel.cases[0].body else {
            return Err(ExecError::PlanViolation("mixed chain stage is not linear"));
        };
        let mut taps = Vec::with_capacity(form.taps.len());
        let mut prev_boundary = 0.0f32;
        for tap in &form.taps {
            if tap.cfactor.is_some() {
                return Err(ExecError::PlanViolation(
                    "mixed chain tap with coefficient factor",
                ));
            }
            let mut off = 0isize;
            for (d, a) in tap.access.0.iter().enumerate() {
                if a.num != 1 || a.den != 1 {
                    return Err(ExecError::PlanViolation(
                        "mixed chain tap with non-offset access",
                    ));
                }
                off += a.off as isize * strides[d];
            }
            match &st.ins[tap.slot] {
                // reads of the implicit zero grid contribute nothing
                OpInput::Zero => {}
                OpInput::Slot { slot, .. } => {
                    let sspec = &program.slots[*slot];
                    if sspec.extents != spec.extents || sspec.origin.iter().any(|&o| o != 0) {
                        return Err(ExecError::PlanViolation(
                            "mixed chain input with mismatched geometry",
                        ));
                    }
                    let k = ext_slots
                        .iter()
                        .position(|s| s == slot)
                        .unwrap_or_else(|| {
                            ext_slots.push(*slot);
                            ext_slots.len() - 1
                        });
                    taps.push((1 + k, off, tap.coeff as f32));
                }
                OpInput::Local { stage, boundary } => {
                    if t == 0 || *stage != t - 1 {
                        return Err(ExecError::PlanViolation(
                            "mixed chain local read must target the previous step",
                        ));
                    }
                    prev_boundary = *boundary as f32;
                    taps.push((0, off, tap.coeff as f32));
                }
            }
        }
        cstages.push(F32Stage {
            bias: form.bias as f32,
            taps,
            prev_boundary,
        });
    }

    // f32 scratch: two ping-pong state buffers plus one narrowed copy per
    // external. Recycled buffers arrive stale; ghost rings are refilled
    // per step and every cell the sweeps read is written first.
    let mut prev = f32_pool.allocate(len);
    let mut cur = f32_pool.allocate(len);
    let mut ext_bufs: Vec<Vec<f32>> = ext_slots.iter().map(|_| f32_pool.allocate(len)).collect();

    let mut taken = std::mem::replace(&mut slots[out_slot], Slot::Empty);
    let result = (|| -> Result<(), ExecError> {
        let out_data = taken.try_write(&spec.name)?;
        let ext_srcs: Vec<&[f64]> = ext_slots
            .iter()
            .map(|&s| slots[s].try_read(&program.slots[s].name))
            .collect::<Result<_, _>>()?;
        let tracing = spans.iter().any(StageHandle::is_enabled);

        // Catching here (slot taken, restore pending below) contains worker
        // panics so the slot restore and scratch deallocation always run.
        catch_unwind(AssertUnwindSafe(|| {
            for (buf, src) in ext_bufs.iter_mut().zip(&ext_srcs) {
                narrow_par(buf, src, chaos);
            }
            for (t, cs) in cstages.iter().enumerate() {
                let t0 = tracing.then(Instant::now);
                if t > 0 {
                    fill_ghost(&mut prev, ext, cs.prev_boundary);
                }
                let srcs: Vec<&[f32]> = std::iter::once(prev.as_slice())
                    .chain(ext_bufs.iter().map(|b| b.as_slice()))
                    .collect();
                sweep_step(&stages[t].domain, cs, &srcs, &mut cur, &strides, chaos);
                std::mem::swap(&mut prev, &mut cur);
                if let (Some(span), Some(t0)) = (spans.get(t), t0) {
                    span.record(
                        t0.elapsed().as_nanos() as u64,
                        1,
                        stages[t].domain.len() as u64,
                    );
                }
            }
            // the final sweep's result sits in `prev` after the last swap
            widen_region(out_data, &prev, &stages[steps - 1].domain, &strides, chaos);
        }))
        .map_err(|p| ExecError::WorkerPanicked {
            op: "run_mixed_chain",
            detail: panic_detail(p),
        })?;
        Ok(())
    })();
    slots[out_slot] = taken;

    f32_pool.deallocate(prev);
    f32_pool.deallocate(cur);
    for b in ext_bufs {
        f32_pool.deallocate(b);
    }
    result
}

/// Call `f` with the flat index of the first interior cell of every row of
/// `region` whose outer coordinate lies in `[olo, ohi]`.
fn for_each_row(
    region: &BoxDomain,
    (olo, ohi): (i64, i64),
    strides: &[isize],
    mut f: impl FnMut(usize),
) {
    let nd = region.ndims();
    let inner_lo = region.0[nd - 1].lo as isize;
    match nd {
        2 => {
            for o in olo..=ohi {
                f((o as isize * strides[0] + inner_lo) as usize);
            }
        }
        3 => {
            for o in olo..=ohi {
                for m in region.0[1].lo..=region.0[1].hi {
                    f((o as isize * strides[0] + m as isize * strides[1] + inner_lo) as usize);
                }
            }
        }
        d => panic!("unsupported rank {d}"),
    }
}

/// One f32 sweep of one chain stage over `region` into `dst`.
fn sweep_step(
    region: &BoxDomain,
    cs: &F32Stage,
    srcs: &[&[f32]],
    dst: &mut [f32],
    strides: &[isize],
    chaos: &FaultPlan,
) {
    if region.is_empty() {
        return;
    }
    let nd = region.ndims();
    let w = region.0[nd - 1].len() as usize;
    let shared = SharedOut::new(dst);
    row_pieces(region.0[0]).into_par_iter().for_each(|piece| {
        if chaos.should_fire(FaultSite::WorkerPanic) {
            panic!("chaos: injected worker panic");
        }
        let mut rows: Vec<(f32, &[f32])> = Vec::with_capacity(cs.taps.len());
        for_each_row(region, piece, strides, |off0| {
            // SAFETY: pieces cover disjoint outer coordinates, so the row
            // segments written by concurrent workers are disjoint.
            let drow = unsafe { shared.segment(off0, w) };
            rows.clear();
            rows.extend(cs.taps.iter().map(|&(s, off, c)| {
                (c, &srcs[s][(off0 as isize + off) as usize..][..w])
            }));
            run_row_f32(drow, cs.bias, &rows);
        });
    });
}

/// Fused tap accumulation over one unit-stride row. Fixed-arity variants
/// keep the weights in registers and let the autovectorizer produce packed
/// f32 code — the source of the mixed-precision throughput win.
fn run_row_f32(dst: &mut [f32], bias: f32, taps: &[(f32, &[f32])]) {
    macro_rules! fixed {
        ($($k:literal),*) => {
            match taps.len() {
                $(
                    $k => {
                        let mut rs: [(f32, &[f32]); $k] = [(0.0, &[][..]); $k];
                        rs.copy_from_slice(taps);
                        for (i, d) in dst.iter_mut().enumerate() {
                            let mut acc = bias;
                            for (c, r) in &rs {
                                acc += *c * r[i];
                            }
                            *d = acc;
                        }
                    }
                )*
                _ => {
                    for (i, d) in dst.iter_mut().enumerate() {
                        let mut acc = bias;
                        for (c, r) in taps {
                            acc += *c * r[i];
                        }
                        *d = acc;
                    }
                }
            }
        };
    }
    fixed!(1, 2, 3, 4, 5, 6, 7, 8, 9);
}

/// Parallel f64 → f32 narrowing copy (full array, ghosts included).
fn narrow_par(dst: &mut [f32], src: &[f64], chaos: &FaultPlan) {
    debug_assert_eq!(dst.len(), src.len());
    let shared = SharedOut::new(dst);
    let nthreads = rayon::current_num_threads().max(1);
    let pieces: Vec<(usize, usize)> = rayon::partition_ranges(src.len(), nthreads.max(1) * 2)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| (r.start, r.end))
        .collect();
    pieces.into_par_iter().for_each(|(a, b)| {
        if chaos.should_fire(FaultSite::WorkerPanic) {
            panic!("chaos: injected worker panic");
        }
        // SAFETY: pieces are disjoint index ranges.
        let d = unsafe { shared.segment(a, b - a) };
        for (x, s) in d.iter_mut().zip(&src[a..b]) {
            *x = *s as f32;
        }
    });
}

/// Parallel f32 → f64 widening copy of `region` rows into the output.
fn widen_region(out: &mut [f64], src: &[f32], region: &BoxDomain, strides: &[isize], chaos: &FaultPlan) {
    if region.is_empty() {
        return;
    }
    let nd = region.ndims();
    let w = region.0[nd - 1].len() as usize;
    let shared = SharedOut::new(out);
    row_pieces(region.0[0]).into_par_iter().for_each(|piece| {
        if chaos.should_fire(FaultSite::WorkerPanic) {
            panic!("chaos: injected worker panic");
        }
        for_each_row(region, piece, strides, |off0| {
            // SAFETY: pieces cover disjoint outer coordinates.
            let drow = unsafe { shared.segment(off0, w) };
            for (x, s) in drow.iter_mut().zip(&src[off0..off0 + w]) {
                *x = f64::from(*s);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_kernel_matches_dynamic_fallback() {
        let r0: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let r1: Vec<f32> = (0..8).map(|i| (i * i) as f32).collect();
        let taps = vec![(0.5f32, &r0[..]), (0.25f32, &r1[..])];
        let mut fixed = vec![0.0f32; 8];
        run_row_f32(&mut fixed, 1.0, &taps);
        for i in 0..8 {
            let want = 1.0 + 0.5 * r0[i] + 0.25 * r1[i];
            assert_eq!(fixed[i], want);
        }
    }
}
