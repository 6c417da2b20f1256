//! Per-op execution: the bodies of the schedule VM's sweep ops. The
//! interpreter loop in [`crate::schedule`] dispatches here; each module
//! implements one `Run*` op of [`polymg::schedule::ExecOp`].
//!
//! Every user-reachable failure is Result-checked *serially* (slot reads,
//! output takes) before any parallel region starts, so the rayon closures
//! themselves are infallible.

pub(crate) mod diamond;
pub(crate) mod mixed;
pub(crate) mod overlapped;
pub(crate) mod untiled;

use crate::kernel::Space;
use crate::schedule::{ExecError, Slot};
use gmg_poly::Interval;
use polymg::schedule::{ExecProgram, OpInput, StageExec};
use std::any::Any;

/// Best-effort rendering of a caught panic payload for
/// [`ExecError::WorkerPanicked`] details.
pub(crate) fn panic_detail(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A stage input with its full-array reads resolved to spaces (done before
/// entering any parallel section; op-local inputs stay symbolic).
pub(crate) enum ResolvedIn<'s> {
    Zero,
    /// Full-array view + the producer's boundary value.
    Array(Space<'s>, f64),
    /// Read from op-local storage of the given in-op stage index.
    Local(usize, f64),
}

/// Resolve one stage's inputs against the current slot table.
pub(crate) fn resolve_ins<'s>(
    program: &'s ExecProgram,
    stage: &StageExec,
    slots: &'s [Slot<'_>],
) -> Result<Vec<ResolvedIn<'s>>, ExecError> {
    stage
        .ins
        .iter()
        .map(|inp| match inp {
            OpInput::Zero => Ok(ResolvedIn::Zero),
            OpInput::Local { stage, boundary } => Ok(ResolvedIn::Local(*stage, *boundary)),
            OpInput::Slot { slot, boundary } => {
                let spec = &program.slots[*slot];
                let data = slots[*slot].try_read(&spec.name)?;
                Ok(ResolvedIn::Array(
                    Space {
                        data,
                        origin: &spec.origin,
                        extents: &spec.extents,
                    },
                    *boundary,
                ))
            }
        })
        .collect()
}

/// Outer-dimension piece bounds `(lo, hi)` for a row-parallel sweep over
/// `outer`: more pieces than workers, so the pool's chunked stealing can
/// rebalance skewed rows (boundary-heavy stages, NUMA jitter).
pub(crate) fn row_pieces(outer: Interval) -> Vec<(i64, i64)> {
    let nthreads = rayon::current_num_threads().max(1);
    let npieces = if nthreads > 1 { nthreads * 4 } else { 1 };
    rayon::partition_ranges(outer.len() as usize, npieces)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| (outer.lo + r.start as i64, outer.lo + r.end as i64 - 1))
        .collect()
}
