//! `RunUntiledStage`: one full-domain sweep, parallel over outer rows
//! ([`super::sweep_rows`]).

use super::{slot_space, stage_inputs, sweep_rows, with_outputs, Frame};
use crate::kernel::{Bound, KernelOut};
use crate::schedule::{ExecError, Slot};
use gmg_trace::StageHandle;
use polymg::schedule::StageExec;
use std::time::Instant;

pub(crate) fn run(
    f: Frame<'_>,
    stage: &StageExec,
    kernel: &Bound<f64>,
    slots: &mut [Slot<'_>],
) -> Result<(), ExecError> {
    let a = stage.slot.ok_or(ExecError::PlanViolation(
        "untiled stage without output slot",
    ))?;
    let spec = &f.program.slots[a];
    let span = f.spans.first();

    with_outputs(f.program, slots, &[a], |out, slots| {
        let (ins, bnd) = stage_inputs(
            stage,
            |s| slot_space(f.program, slots, s),
            |_| {
                Err(ExecError::PlanViolation(
                    "untiled stage with op-local input",
                ))
            },
        )?;
        let t0 = span.is_some_and(StageHandle::is_enabled).then(Instant::now);
        let npieces = f.contain(|| {
            sweep_rows(
                &f,
                out[0],
                &spec.origin,
                &spec.extents,
                &stage.domain,
                |out, region, tally| kernel.run(region, KernelOut::Dense(out), &ins, &bnd, tally),
            )
        })?;
        if let (Some(span), Some(t0)) = (span, t0) {
            span.record(
                t0.elapsed().as_nanos() as u64,
                npieces,
                stage.domain.len() as u64,
            );
        }
        Ok(())
    })
}
