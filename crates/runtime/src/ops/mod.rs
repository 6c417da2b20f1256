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

use crate::kernel::{Space, SpaceMut};
use crate::schedule::{ExecError, Slot};
use gmg_poly::{BoxDomain, Interval};
use polymg::schedule::{ExecProgram, OpInput, StageExec};
use polymg::{FaultPlan, FaultSite};
use rayon::prelude::*;
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

/// The full-array sweep, row-parallel: `domain`'s outer rows split into
/// pieces, and `body` run on the pieces in parallel, each handed the whole
/// outer rows of `data` it owns as a dense window (global coordinates as in
/// `data`, whose view is `origin` / `extents`) and `domain` clipped to them,
/// both on the stack: a piece allocates nothing. There are more pieces than
/// workers, so the pool's chunked stealing can rebalance skewed rows
/// (boundary-heavy stages, NUMA jitter). Returns the number of pieces. A
/// worker panic (an injected `WorkerPanic` among them) unwinds out of the
/// call; callers contain it.
pub(crate) fn sweep_rows<T: Send>(
    data: &mut [T],
    origin: &[i64],
    extents: &[i64],
    domain: &BoxDomain,
    chaos: &FaultPlan,
    body: impl Fn(SpaceMut<'_, T>, &[Interval]) + Sync,
) -> u64 {
    let nd = extents.len();
    let nthreads = rayon::current_num_threads().max(1);
    let npieces = if nthreads > 1 { nthreads * 4 } else { 1 };
    let outer = domain.0[0];
    let bounds = rayon::partition_ranges(outer.len() as usize, npieces)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| (outer.lo + r.start as i64, outer.lo + r.end as i64 - 1));
    // split the buffer at row boundaries (whole outer-dim rows)
    let row_block = extents[1..].iter().product::<i64>() as usize;
    let mut pieces: Vec<(&mut [T], (i64, i64))> = Vec::with_capacity(npieces);
    let mut rest = data;
    let mut covered = 0usize;
    for (lo, hi) in bounds {
        let begin = (lo - origin[0]) as usize * row_block;
        let end = (hi - origin[0] + 1) as usize * row_block;
        let (_, tail) = rest.split_at_mut(begin - covered);
        let (mine, tail2) = tail.split_at_mut(end - begin);
        pieces.push((mine, (lo, hi)));
        rest = tail2;
        covered = end;
    }
    let npieces = pieces.len() as u64;
    pieces.into_par_iter().for_each(|(data, (lo, hi))| {
        if chaos.should_fire(FaultSite::WorkerPanic) {
            panic!("chaos: injected worker panic");
        }
        let mut region = [Interval::empty(); 3];
        let (mut wo, mut we) = ([0i64; 3], [0i64; 3]);
        region[..nd].copy_from_slice(&domain.0);
        wo[..nd].copy_from_slice(origin);
        we[..nd].copy_from_slice(extents);
        (region[0], wo[0], we[0]) = (Interval::new(lo, hi), lo, hi - lo + 1);
        let window = SpaceMut {
            data,
            origin: &wo[..nd],
            extents: &we[..nd],
        };
        body(window, &region[..nd]);
    });
    npieces
}
