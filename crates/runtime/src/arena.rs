//! Engine-resident tile scratch: one slab per worker.
//!
//! The generated code of Figure 8 declares constant-size scratchpad buffers
//! inside the parallel tile loop — one set per executing thread, on the
//! thread's stack. Here a worker's scratchpads are one heap slab that the
//! [`crate::Engine`] owns, like its buffer pool: as long as the widest
//! overlapped op of the program needs (the sum of that op's
//! [`polymg::ScratchBufferSpec`] capacities — the plan's
//! `peak_scratch_bytes`, which is what storage accounting charges per
//! thread), and carved by each op at its own fixed offsets. A tile writes
//! every scratch cell before reading it, so a slab is never cleared between
//! tiles, ops or runs.
//!
//! A slab is created the first time its worker (identified by
//! [`rayon::current_thread_index`]; a caller outside a parallel region
//! counts as worker 0) runs a tile and then stays with the engine, so after
//! the first pass a tile loop allocates nothing and a worker keeps touching
//! the same cache-warm memory. A slab lost to a worker panic is created
//! again on that worker's next tile.

use polymg::{FaultPlan, FaultSite};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock: a slot holds a plain `Option<Arena>` that is
/// consistent at every point, so after a worker panic (e.g. an injected
/// one) the data is still valid and recovery must keep going rather than
/// propagate the poison.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's scratch slab.
#[derive(Debug)]
pub struct Arena {
    slab: Vec<f64>,
}

impl Arena {
    fn new(len: usize) -> Self {
        gmg_trace::tile_plan::record_scratch((len * std::mem::size_of::<f64>()) as u64);
        Arena {
            slab: vec![0.0; len],
        }
    }

    /// The whole slab; an op carves its scratch buffers out of it.
    pub fn slab(&mut self) -> &mut [f64] {
        &mut self.slab
    }
}

/// Per-worker `(created, recycled)` counters.
#[derive(Debug, Default)]
struct WorkerStats {
    created: AtomicU64,
    recycled: AtomicU64,
}

/// The engine's scratch: one slot per pool worker, each holding that
/// worker's [`Arena`] between tiles.
pub struct ArenaPool {
    /// Slab length in elements.
    len: usize,
    /// Slot `w` belongs to the worker with `current_thread_index() == w`.
    slots: Vec<Mutex<Option<Arena>>>,
    stats: Vec<WorkerStats>,
}

impl ArenaPool {
    /// A pool of `len`-element slabs for `workers` workers; no slab exists
    /// until a worker asks for one.
    pub fn new(len: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        ArenaPool {
            len,
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            stats: (0..workers).map(|_| Default::default()).collect(),
        }
    }

    /// The calling thread's slot. An engine driven from inside someone
    /// else's parallel region sees that region's worker index, which may
    /// exceed its own worker count; any slot will do then, since slots are
    /// locked and an engine runs one pass at a time.
    fn worker(&self) -> usize {
        rayon::current_thread_index().unwrap_or(0) % self.slots.len()
    }

    /// The calling worker's arena, created if it has none. An armed
    /// [`FaultSite::ArenaAlloc`] makes recycling "fail": the tile gets a
    /// fresh arena, which is counted and recovered, not fatal.
    pub fn get(&self, chaos: &FaultPlan) -> Arena {
        let w = self.worker();
        if chaos.should_fire(FaultSite::ArenaAlloc) {
            chaos.record_recovered(FaultSite::ArenaAlloc);
        } else if let Some(a) = relock(&self.slots[w]).take() {
            self.stats[w].recycled.fetch_add(1, Ordering::Relaxed);
            return a;
        }
        self.stats[w].created.fetch_add(1, Ordering::Relaxed);
        Arena::new(self.len)
    }

    /// Hand an arena back to the calling worker's slot. The slot keeps one
    /// arena; a second (a fresh one forced by chaos) is dropped.
    pub fn put(&self, arena: Arena) {
        relock(&self.slots[self.worker()]).get_or_insert(arena);
    }

    /// Overwrite every resident scratch cell with `value`. Tiles fill what
    /// they read, so this must never change a result: the test hook behind
    /// that claim.
    pub fn fill(&mut self, value: f64) {
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(a) = slot {
                a.slab.fill(value);
            }
        }
    }

    /// Per-worker `(created, recycled)` counts since the last call.
    pub fn take_stats(&self) -> Vec<(u64, u64)> {
        self.stats
            .iter()
            .map(|s| {
                (
                    s.created.swap(0, Ordering::Relaxed),
                    s.recycled.swap(0, Ordering::Relaxed),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> FaultPlan {
        FaultPlan::disabled()
    }

    fn totals(pool: &ArenaPool) -> (u64, u64) {
        let per = pool.take_stats();
        (per.iter().map(|s| s.0).sum(), per.iter().map(|s| s.1).sum())
    }

    #[test]
    fn slab_has_the_pool_length() {
        let pool = ArenaPool::new(240, 1);
        let mut a = pool.get(&quiet());
        assert_eq!(a.slab().len(), 240);
    }

    #[test]
    fn recycling_avoids_creation() {
        let pool = ArenaPool::new(240, 1);
        for _ in 0..10 {
            let a = pool.get(&quiet());
            pool.put(a);
        }
        assert_eq!(totals(&pool), (1, 9));
        assert_eq!(totals(&pool), (0, 0), "take_stats drains the counters");
    }

    #[test]
    fn a_slot_keeps_one_arena() {
        let pool = ArenaPool::new(240, 1);
        let a = pool.get(&quiet());
        let b = pool.get(&quiet());
        pool.put(a);
        pool.put(b);
        let _c = pool.get(&quiet());
        let _d = pool.get(&quiet());
        assert_eq!(totals(&pool), (3, 1), "the second put was dropped");
    }

    #[test]
    fn chaos_forces_fresh_arenas_and_counts_recovery() {
        let plan =
            FaultPlan::new(polymg::ChaosOptions::new(9, 1.0).with_sites(polymg::chaos::SITE_ARENA));
        let pool = ArenaPool::new(240, 1);
        for _ in 0..4 {
            let a = pool.get(&plan);
            pool.put(a);
        }
        assert_eq!(totals(&pool), (4, 0), "every get degrades to a fresh arena");
        let snap = plan.snapshot();
        assert_eq!(snap.fired[FaultSite::ArenaAlloc.index()], 4);
        assert_eq!(snap.recovered[FaultSite::ArenaAlloc.index()], 4);
    }

    #[test]
    fn foreign_worker_index_maps_to_a_slot() {
        // a one-worker pool used from worker 1 of an outer two-thread region
        let tp = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        tp.install(|| {
            use rayon::prelude::*;
            (0..8usize).into_par_iter().for_each(|_| {
                let pool = ArenaPool::new(16, 1);
                let a = pool.get(&quiet());
                pool.put(a);
                let _again = pool.get(&quiet());
                assert_eq!(totals(&pool), (1, 1));
            });
        });
    }

    #[test]
    fn fill_reaches_resident_slabs() {
        let mut pool = ArenaPool::new(16, 1);
        let a = pool.get(&quiet());
        pool.put(a);
        pool.fill(f64::NAN);
        let mut a = pool.get(&quiet());
        assert!(a.slab().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn worker_affine_reuse_inside_pool() {
        let tp = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        tp.install(|| {
            use rayon::prelude::*;
            let pool = ArenaPool::new(240, 2);
            (0..32usize).into_par_iter().for_each(|_| {
                let a = pool.get(&quiet());
                pool.put(a);
            });
            let per = pool.take_stats();
            assert_eq!(per.len(), 2, "one entry per worker");
            assert!(per.iter().all(|s| s.0 <= 1), "at most one arena per worker");
            assert_eq!(per.iter().map(|s| s.0 + s.1).sum::<u64>(), 32);
        });
    }
}
