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

use super::{
    check_chain, slot_space, stage_inputs, sweep_rows, with_outputs, ChainViolations, Frame,
};
use crate::kernel::{copy_box, fill_ghost, Bound, Elem, KernelInput, KernelOut, Space};
use crate::pool::BufferPool;
use crate::schedule::{ExecError, Slot};
use gmg_poly::{BoxDomain, Interval};
use gmg_trace::StageHandle;
use polymg::schedule::{OpInput, StageExec};
use polymg::KernelBody;
use std::convert::Infallible;
use std::time::Instant;

const VIOLATIONS: ChainViolations = ChainViolations {
    empty: "empty mixed chain",
    origin: "mixed chains assume origin-0 buffers",
    local: "mixed chain local read must target the previous step",
};

pub(crate) fn run(
    f: Frame<'_>,
    stages: &[StageExec],
    kernels: &[Bound<f32>],
    out_slot: usize,
    slots: &mut [Slot<'_>],
    pool: &mut BufferPool<f32>,
) -> Result<(), ExecError> {
    let spec = check_chain(f.program, stages, out_slot, &VIOLATIONS)?;
    // Every step is single-case linear and reads full arrays of the chain's
    // geometry; collect the distinct external slots it reads (the shared
    // RHS, typically).
    let mut ext_slots: Vec<usize> = Vec::new();
    for st in stages {
        let cases = &f.program.kernels[st.kernel].cases;
        if !matches!(cases.as_slice(), [case] if matches!(case.body, KernelBody::Linear(_))) {
            return Err(ExecError::PlanViolation(
                "mixed chain stage is not single-case linear",
            ));
        }
        for input in &st.ins {
            if let OpInput::Slot { slot, .. } = input {
                let sspec = &f.program.slots[*slot];
                if sspec.extents != spec.extents || sspec.origin != spec.origin {
                    return Err(ExecError::PlanViolation(
                        "mixed chain input with mismatched geometry",
                    ));
                }
                if !ext_slots.contains(slot) {
                    ext_slots.push(*slot);
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
    let (origin, extents) = (&spec.origin[..], &spec.extents[..]);

    let result = with_outputs(f.program, slots, &[out_slot], |out, slots| {
        let ext_srcs: Vec<Space<'_>> = ext_slots
            .iter()
            .map(|&s| slot_space(f.program, slots, s))
            .collect::<Result<_, _>>()?;
        let tracing = f.spans.iter().any(StageHandle::is_enabled);
        let whole = BoxDomain::new(extents.iter().map(|&e| Interval::new(0, e - 1)).collect());

        f.contain(|| {
            for (buf, src) in ext_bufs.iter_mut().zip(&ext_srcs) {
                convert(&f, buf.as_mut_slice(), src, &whole);
            }
            for (t, st) in stages.iter().enumerate() {
                let t0 = tracing.then(Instant::now);
                if t > 0 {
                    // the previous step's ring holds its producer's boundary
                    let ring = st.ins.iter().find_map(|i| match i {
                        OpInput::Local { boundary, .. } => Some(*boundary),
                        _ => None,
                    });
                    fill_ghost(prev.as_mut_slice(), extents, ring.unwrap_or(0.0) as f32);
                }
                let grid = |data| Space {
                    data,
                    origin,
                    extents,
                };
                let Ok((ins, bnd)) = stage_inputs(
                    st,
                    |s| {
                        let k = ext_slots.iter().position(|&e| e == s);
                        Ok::<_, Infallible>(grid(ext_bufs[k.expect("collected above")].as_slice()))
                    },
                    |_| Ok(KernelInput::Grid(grid(prev.as_slice()))),
                );
                sweep_rows(
                    &f,
                    cur.as_mut_slice(),
                    origin,
                    extents,
                    &st.domain,
                    |out, region, tally| {
                        kernels[t].run(region, KernelOut::Dense(out), &ins, &bnd, tally)
                    },
                );
                std::mem::swap(&mut prev, &mut cur);
                if let (Some(span), Some(t0)) = (f.spans.get(t), t0) {
                    span.record(t0.elapsed().as_nanos() as u64, 1, st.domain.len() as u64);
                }
            }
            // the final step's result sits in `prev` after the last swap
            let last = &stages[stages.len() - 1].domain;
            let src = Space {
                data: prev.as_slice(),
                origin,
                extents,
            };
            convert(&f, out[0], &src, last);
        })
    });

    pool.deallocate(prev);
    pool.deallocate(cur);
    for b in ext_bufs {
        pool.deallocate(b);
    }
    result
}

/// `region` of `src` copied into `dst`, a buffer of `src`'s view, at
/// `dst`'s precision, row-parallel: the whole of an external narrowed to
/// `f32` (ghost ring included), or the last step's interior widened into the
/// `f64` output.
fn convert<S: Elem, D: Elem>(f: &Frame<'_>, dst: &mut [D], src: &Space<'_, S>, region: &BoxDomain) {
    sweep_rows(f, dst, src.origin, src.extents, region, |mut out, r, _| {
        copy_box(src, &mut out, r)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SpaceMut;
    use gmg_ir::{Access, LinearForm, ParityPattern, Tap};
    use polymg::{KernelCase, KernelImpl, KernelSel, StageKernel};

    /// The chain's `f32` steps run the shared sweeps; one interior row must
    /// come out bitwise equal to the generic selection's and to the form
    /// evaluated in tap order.
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
            let mut tally = gmg_trace::dispatch::Tally::default();
            Bound::new(sel, &kernel).run(&region, out, &ins, &[0.0, 0.0], &mut tally);
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
