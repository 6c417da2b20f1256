//! `RunUntiledStage`: one full-domain sweep, parallel over outer rows
//! ([`super::sweep_rows`]).

use super::{panic_detail, resolve_ins, sweep_rows, ResolvedIn};
use crate::kernel::{execute_stage_region, KernelInput, KernelOut};
use crate::schedule::{ExecError, Slot};
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, StageExec};
use polymg::{FaultPlan, FaultSite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub(crate) fn run(
    program: &ExecProgram,
    stage: &StageExec,
    slots: &mut [Slot<'_>],
    spans: &[StageHandle],
    chaos: &FaultPlan,
) -> Result<(), ExecError> {
    if chaos.should_fire(FaultSite::OpUntiled) {
        return Err(ExecError::FaultInjected {
            site: FaultSite::OpUntiled.label(),
            op: "run_untiled",
        });
    }
    let a = stage.slot.ok_or(ExecError::PlanViolation(
        "untiled stage without output slot",
    ))?;
    let spec = &program.slots[a];
    let kernel = &program.kernels[stage.kernel];
    let span = spans.first();

    let mut taken = std::mem::replace(&mut slots[a], Slot::Empty);
    let result = (|| -> Result<(), ExecError> {
        let out_data = taken.try_write(&spec.name)?;
        let resolved = resolve_ins(program, stage, slots)?;
        let mut ins = Vec::with_capacity(resolved.len());
        let mut bnd = Vec::with_capacity(resolved.len());
        for r in &resolved {
            match r {
                ResolvedIn::Zero => {
                    ins.push(KernelInput::Zero);
                    bnd.push(0.0);
                }
                ResolvedIn::Array(sp, b) => {
                    ins.push(KernelInput::Grid(*sp));
                    bnd.push(*b);
                }
                ResolvedIn::Local(..) => {
                    return Err(ExecError::PlanViolation(
                        "untiled stage with op-local input",
                    ))
                }
            }
        }

        let t0 = span.is_some_and(StageHandle::is_enabled).then(Instant::now);
        // Catching here (inside the op, after the slot was taken and before
        // it is restored below) keeps a worker panic contained: the restore
        // always runs, so no pooled buffer is stranded in a taken slot.
        let npieces = catch_unwind(AssertUnwindSafe(|| {
            sweep_rows(
                out_data,
                &spec.origin,
                &spec.extents,
                &stage.domain,
                chaos,
                |out, region| {
                    let out = KernelOut::Dense(out);
                    execute_stage_region(stage.sel(), kernel, region, out, &ins, &bnd)
                },
            )
        }))
        .map_err(|p| ExecError::WorkerPanicked {
            op: "run_untiled",
            detail: panic_detail(p),
        })?;
        if let (Some(span), Some(t0)) = (span, t0) {
            span.record(
                t0.elapsed().as_nanos() as u64,
                npieces,
                stage.domain.len() as u64,
            );
        }
        Ok(())
    })();
    slots[a] = taken;
    result
}
