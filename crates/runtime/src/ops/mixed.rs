//! `RunMixedChain`: mixed-precision execution of a smoother chain — the
//! opt-in f32 smoothing tier of `PipelineOptions::mixed_precision`.
//!
//! The f64 operands are narrowed to f32 once per chain invocation (ghost
//! rings included), the chain's k steps run on two f32 ping-pong scratch
//! buffers, and only the final step's interior is widened back to f64 in
//! the output slot. Residual and correction stages keep running in f64
//! elsewhere in the program, so the cycle's convergence degrades gracefully
//! (validated by convergence-vs-speed rows; the chain's own bits are pinned
//! in `tests/scenario_differential.rs`).
//!
//! Each step is an ordinary stage sweep at element type `f32`: the full-array
//! row-parallel sweep of `RunUntiledStage` ([`super::sweep_rows`]) running
//! the kernel layer's row body, which runs every `f32` row at lane `f32`
//! under its exact rule (see [`crate::kernel`]). What is left here is what
//! is specific to mixed precision: narrowing the inputs, the ping-pong
//! buffers (from the engine's `f32` [`BufferPool`]), the ghost fill before
//! each step, and the widening of the last.
//!
//! Eligibility is proven at plan time (`GroupTiling::MixedChain`). A
//! program can also reach the engine without the compiler, so this op
//! re-checks what it relies on — origin-0 buffers of one geometry, op-local
//! reads only of the previous step, single-case linear stages — and reports
//! a violation as `ExecError::PlanViolation` before it allocates anything.

use super::{panic_detail, sweep_rows};
use crate::kernel::{
    copy_box, execute_stage_region, fill_ghost, Elem, KernelInput, KernelOut, Space,
};
use crate::pool::BufferPool;
use crate::schedule::{ExecError, Slot};
use gmg_poly::{BoxDomain, Interval};
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, OpInput, SlotSpec, StageExec};
use polymg::{FaultPlan, FaultSite, KernelBody};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub(crate) fn run(
    program: &ExecProgram,
    stages: &[StageExec],
    out_slot: usize,
    slots: &mut [Slot<'_>],
    pool: &mut BufferPool<f32>,
    spans: &[StageHandle],
    chaos: &FaultPlan,
) -> Result<(), ExecError> {
    if chaos.should_fire(FaultSite::OpMixed) {
        return Err(ExecError::FaultInjected {
            site: FaultSite::OpMixed.label(),
            op: "run_mixed_chain",
        });
    }
    let Some(last) = stages.last() else {
        return Err(ExecError::PlanViolation("empty mixed chain"));
    };
    let spec = &program.slots[out_slot];
    if spec.origin.iter().any(|&o| o != 0) {
        return Err(ExecError::PlanViolation(
            "mixed chains assume origin-0 buffers",
        ));
    }

    // Check every step, collecting the distinct external slots the chain
    // reads (the shared RHS, typically).
    let mut ext_slots: Vec<usize> = Vec::new();
    for (t, st) in stages.iter().enumerate() {
        let cases = &program.kernels[st.kernel].cases;
        if !matches!(cases.as_slice(), [case] if matches!(case.body, KernelBody::Linear(_))) {
            return Err(ExecError::PlanViolation(
                "mixed chain stage is not single-case linear",
            ));
        }
        for input in &st.ins {
            match input {
                OpInput::Zero => {}
                OpInput::Slot { slot, .. } => {
                    let sspec = &program.slots[*slot];
                    if sspec.extents != spec.extents || sspec.origin != spec.origin {
                        return Err(ExecError::PlanViolation(
                            "mixed chain input with mismatched geometry",
                        ));
                    }
                    if !ext_slots.contains(slot) {
                        ext_slots.push(*slot);
                    }
                }
                OpInput::Local { stage, .. } => {
                    if t.checked_sub(1) != Some(*stage) {
                        return Err(ExecError::PlanViolation(
                            "mixed chain local read must target the previous step",
                        ));
                    }
                }
            }
        }
    }

    // f32 scratch: two ping-pong state buffers plus one narrowed copy per
    // external. Recycled buffers arrive stale; ghost rings are refilled
    // per step and every cell the sweeps read is written first.
    let len = spec.len();
    let mut prev = pool.allocate(len);
    let mut cur = pool.allocate(len);
    let mut ext_bufs: Vec<_> = ext_slots.iter().map(|_| pool.allocate(len)).collect();

    let mut taken = std::mem::replace(&mut slots[out_slot], Slot::Empty);
    let result = (|| -> Result<(), ExecError> {
        let out_data = taken.try_write(&spec.name)?;
        let ext_srcs: Vec<&[f64]> = ext_slots
            .iter()
            .map(|&s| slots[s].try_read(&program.slots[s].name))
            .collect::<Result<_, _>>()?;
        let tracing = spans.iter().any(StageHandle::is_enabled);
        let (origin, extents) = (&spec.origin[..], &spec.extents[..]);
        let whole = BoxDomain::new(extents.iter().map(|&e| Interval::new(0, e - 1)).collect());

        // Catching here (slot taken, restore pending below) contains worker
        // panics so the slot restore and scratch deallocation always run.
        catch_unwind(AssertUnwindSafe(|| {
            for (buf, src) in ext_bufs.iter_mut().zip(&ext_srcs) {
                convert(buf.as_mut_slice(), src, spec, &whole, chaos);
            }
            for (t, st) in stages.iter().enumerate() {
                let t0 = tracing.then(Instant::now);
                let boundary = |input: &OpInput| match input {
                    OpInput::Zero => 0.0,
                    OpInput::Slot { boundary, .. } | OpInput::Local { boundary, .. } => *boundary,
                };
                if t > 0 {
                    // the previous step's ring holds its producer's boundary
                    let local = st.ins.iter().find(|i| matches!(i, OpInput::Local { .. }));
                    fill_ghost(
                        prev.as_mut_slice(),
                        extents,
                        local.map_or(0.0, boundary) as f32,
                    );
                }
                let bnd: Vec<f64> = st.ins.iter().map(boundary).collect();
                let ins: Vec<KernelInput<'_, f32>> = st
                    .ins
                    .iter()
                    .map(|input| {
                        let data = match input {
                            OpInput::Zero => return KernelInput::Zero,
                            OpInput::Slot { slot, .. } => {
                                let k = ext_slots.iter().position(|s| s == slot);
                                ext_bufs[k.expect("collected above")].as_slice()
                            }
                            OpInput::Local { .. } => prev.as_slice(),
                        };
                        KernelInput::Grid(Space {
                            data,
                            origin,
                            extents,
                        })
                    })
                    .collect();
                let kernel = &program.kernels[st.kernel];
                sweep_rows(
                    cur.as_mut_slice(),
                    origin,
                    extents,
                    &st.domain,
                    chaos,
                    |out, region| {
                        let out = KernelOut::Dense(out);
                        execute_stage_region(st.sel(), kernel, region, out, &ins, &bnd)
                    },
                );
                std::mem::swap(&mut prev, &mut cur);
                if let (Some(span), Some(t0)) = (spans.get(t), t0) {
                    span.record(t0.elapsed().as_nanos() as u64, 1, st.domain.len() as u64);
                }
            }
            // the final step's result sits in `prev` after the last swap
            convert(out_data, prev.as_slice(), spec, &last.domain, chaos);
        }))
        .map_err(|p| ExecError::WorkerPanicked {
            op: "run_mixed_chain",
            detail: panic_detail(p),
        })?;
        Ok(())
    })();
    slots[out_slot] = taken;

    pool.deallocate(prev);
    pool.deallocate(cur);
    for b in ext_bufs {
        pool.deallocate(b);
    }
    result
}

/// `region` of `src` copied into `dst`, both of the chain's geometry, at
/// `dst`'s precision, row-parallel: the whole of an external narrowed to
/// `f32` (ghost ring included), or the last step's interior widened into the
/// `f64` output.
fn convert<S: Elem, D: Elem>(
    dst: &mut [D],
    src: &[S],
    spec: &SlotSpec,
    region: &BoxDomain,
    chaos: &FaultPlan,
) {
    let src = Space {
        data: src,
        origin: &spec.origin,
        extents: &spec.extents,
    };
    sweep_rows(
        dst,
        &spec.origin,
        &spec.extents,
        region,
        chaos,
        |mut out, r| copy_box(&src, &mut out, r),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SpaceMut;
    use gmg_ir::{Access, LinearForm, ParityPattern, Tap};
    use polymg::{KernelCase, KernelImpl, KernelSel, StageKernel};

    /// The chain's `f32` steps run the shared row kernels; one interior row
    /// must come out bitwise equal to the generic (dynamic) fallback and to
    /// the form evaluated in tap order.
    #[test]
    fn row_kernel_matches_dynamic_fallback() {
        let (origin, extents) = ([0i64, 0], [3i64, 10]);
        let r0: Vec<f32> = (0..30).map(|i| i as f32).collect();
        let r1: Vec<f32> = (0..30).map(|i| (i * i) as f32).collect();
        let tap = |slot, coeff| Tap {
            slot,
            access: Access::offsets(&[0, 0]),
            coeff,
            cfactor: None,
        };
        let kernel = StageKernel {
            cases: vec![KernelCase {
                pattern: ParityPattern::any(2),
                body: KernelBody::Linear(LinearForm {
                    bias: 1.0,
                    taps: vec![tap(0, 0.5), tap(1, 0.25)],
                }),
            }],
        };
        let region = [Interval::new(1, 1), Interval::new(1, 8)];
        let run = |sel: KernelSel| {
            let mut data = vec![0.0f32; 30];
            let ins = [r0.as_slice(), r1.as_slice()].map(|data| {
                KernelInput::Grid(Space {
                    data,
                    origin: &origin,
                    extents: &extents,
                })
            });
            let out = KernelOut::Dense(SpaceMut {
                data: &mut data,
                origin: &origin,
                extents: &extents,
            });
            execute_stage_region(sel, &kernel, &region, out, &ins, &[0.0, 0.0]);
            data
        };
        let fixed = run(KernelSel::scalar(KernelImpl::Stencil2D5));
        let fallback = run(KernelSel::generic());
        for i in 11..=18 {
            let want = 1.0 + 0.5 * r0[i] + 0.25 * r1[i];
            assert_eq!(fixed[i].to_bits(), want.to_bits(), "cell {i}");
            assert_eq!(fixed[i].to_bits(), fallback[i].to_bits(), "cell {i}");
        }
    }
}
