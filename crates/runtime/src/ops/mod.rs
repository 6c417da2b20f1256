//! Per-op execution: the bodies of the schedule VM's sweep ops. The
//! interpreter loop in [`crate::schedule`] dispatches here; each module
//! implements one `Run*` op of [`polymg::schedule::ExecOp`].
//!
//! Every user-reachable failure is Result-checked *serially* (slot reads,
//! output takes) before any parallel region starts, so the rayon closures
//! themselves are infallible.

pub(crate) mod diamond;
pub(crate) mod mixed;
pub mod overlapped;
pub(crate) mod untiled;

use crate::kernel::Space;
use crate::schedule::{ExecError, Slot};
use gmg_poly::region::{propagate_regions, GroupEdge, GroupStage, StageRegion};
use gmg_poly::tiling::owned_region;
use gmg_poly::{BoxDomain, Ratio};
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

/// Per-tile region propagation with owned regions derived from the tile.
/// Called once per tile per engine, by the builder of an overlapped op's
/// [`overlapped::TilePlan`].
pub(crate) fn propagate_for_tile(
    gstages: &[GroupStage],
    edges: &[GroupEdge],
    scales: &[Vec<Ratio>],
    live_out: &[bool],
    tile: &BoxDomain,
) -> Vec<StageRegion> {
    let nd = gstages[0].domain.ndims();
    let tile_stages: Vec<GroupStage> = gstages
        .iter()
        .enumerate()
        .map(|(i, s)| GroupStage {
            domain: s.domain.clone(),
            owned: if live_out[i] {
                owned_region(tile, &scales[i], &s.domain)
            } else {
                BoxDomain::empty(nd)
            },
        })
        .collect();
    propagate_regions(&tile_stages, edges)
}
