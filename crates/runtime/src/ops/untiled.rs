//! `RunUntiledStage`: one full-domain sweep, parallel over outer rows.

use super::{panic_detail, resolve_ins, row_pieces, ResolvedIn};
use crate::kernel::{execute_stage_sel, KernelInput, SpaceMut};
use crate::schedule::{ExecError, Slot};
use gmg_poly::Interval;
use gmg_trace::StageHandle;
use polymg::schedule::{ExecProgram, StageExec};
use polymg::{FaultPlan, FaultSite};
use rayon::prelude::*;
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

        let ext = &spec.extents;
        let row_block = ext[1..].iter().product::<i64>() as usize;
        let origin0 = spec.origin[0];

        let bounds = row_pieces(stage.domain.0[0]);
        // split the buffer at row boundaries (whole outer-dim rows)
        let mut pieces: Vec<(&mut [f64], (i64, i64))> = Vec::with_capacity(bounds.len());
        let mut rest = out_data;
        let mut covered = 0usize;
        for &(lo, hi) in &bounds {
            let begin = (lo - origin0) as usize * row_block;
            let end = (hi - origin0 + 1) as usize * row_block;
            let (_, tail) = rest.split_at_mut(begin - covered);
            let (mine, tail2) = tail.split_at_mut(end - begin);
            pieces.push((mine, (lo, hi)));
            rest = tail2;
            covered = end;
        }

        let region_proto = &stage.domain;
        let t0 = span.is_some_and(StageHandle::is_enabled).then(Instant::now);
        let npieces = pieces.len() as u64;
        // Catching here (inside the op, after the slot was taken and before
        // it is restored below) keeps a worker panic contained: the restore
        // always runs, so no pooled buffer is stranded in a taken slot.
        catch_unwind(AssertUnwindSafe(|| {
            pieces.into_par_iter().for_each(|(data, (lo, hi))| {
                if chaos.should_fire(FaultSite::WorkerPanic) {
                    panic!("chaos: injected worker panic");
                }
                let mut region = region_proto.clone();
                region.0[0] = Interval::new(lo, hi);
                let mut origin = spec.origin.clone();
                origin[0] = lo;
                let mut extents = ext.clone();
                extents[0] = hi - lo + 1;
                let mut out = SpaceMut {
                    data,
                    origin: &origin,
                    extents: &extents,
                };
                execute_stage_sel(stage.sel(), kernel, &region, &mut out, &ins, &bnd);
            });
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
