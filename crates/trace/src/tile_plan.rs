//! Process-wide tile-plan accounting.
//!
//! `polymg`'s compiler builds one tile plan per overlapped group per
//! compile (every engine lowered from the plan shares it), and
//! `gmg-runtime`'s engine creates one scratch slab per worker the first
//! time that worker runs a tile. Each of these events bumps a few relaxed
//! atomics here — never per tile or per run. The counts are lifetime
//! totals of the process: for one compile and engine they are what stays
//! resident, and a server whose `builds` keeps growing is recompiling.
//! Global statics for the same reason as [`crate::dispatch`]: every compile
//! and engine reports, whether or not a [`crate::Trace`] is installed.

use std::sync::atomic::{AtomicU64, Ordering};

/// The `tile_plan` block of a [`crate::Report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TilePlanSnapshot {
    /// Tile plans built: one per overlapped group per compile.
    pub builds: u64,
    /// Tiles those plans cover.
    pub tiles: u64,
    /// Their tile × stage entries.
    pub stage_tiles: u64,
    /// Bytes they occupy.
    pub plan_bytes: u64,
    /// Bytes of worker scratch slabs created.
    pub scratch_bytes: u64,
}

static BUILDS: AtomicU64 = AtomicU64::new(0);
static TILES: AtomicU64 = AtomicU64::new(0);
static STAGE_TILES: AtomicU64 = AtomicU64::new(0);
static PLAN_BYTES: AtomicU64 = AtomicU64::new(0);
static SCRATCH_BYTES: AtomicU64 = AtomicU64::new(0);

/// A plan of `tiles` tiles and `stage_tiles` entries occupying `bytes` was
/// built.
pub fn record_plan(tiles: u64, stage_tiles: u64, bytes: u64) {
    BUILDS.fetch_add(1, Ordering::Relaxed);
    TILES.fetch_add(tiles, Ordering::Relaxed);
    STAGE_TILES.fetch_add(stage_tiles, Ordering::Relaxed);
    PLAN_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// A scratch slab of `bytes` was created.
pub fn record_scratch(bytes: u64) {
    SCRATCH_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Current totals.
pub fn snapshot() -> TilePlanSnapshot {
    TilePlanSnapshot {
        builds: BUILDS.load(Ordering::Relaxed),
        tiles: TILES.load(Ordering::Relaxed),
        stage_tiles: STAGE_TILES.load(Ordering::Relaxed),
        plan_bytes: PLAN_BYTES.load(Ordering::Relaxed),
        scratch_bytes: SCRATCH_BYTES.load(Ordering::Relaxed),
    }
}
