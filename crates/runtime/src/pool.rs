//! The pooled memory allocator of §3.2.3.
//!
//! "We use a pooled memory allocator with appropriate interface calls to it
//! generated along with the output code. […] arrays are actually allocated
//! at the entry of the first multigrid cycle, and are all freed after the
//! last call to it."
//!
//! [`BufferPool::allocate`] scans the free list for a buffer of the exact
//! requested length and recycles it, otherwise it allocates fresh (a real
//! `malloc`). [`BufferPool::deallocate`] is a table update returning the
//! buffer to the free list. Statistics track how many `malloc`s the pool
//! avoided and the peak live footprint — the quantities behind Figure 11b.
//!
//! The pool is generic over the element type: the engine keeps one pool of
//! `f64` grids and a second, `BufferPool<f32>`, for the mixed-precision
//! smoother chain's scratch (`ops::mixed`), so the Figure-11b `f64` reuse
//! statistics stay undiluted. Bytes are counted at `size_of::<T>()` each.

use gmg_grid::Buffer;
use polymg::{FaultPlan, FaultSite};
use std::collections::HashMap;

/// Allocation statistics of a pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served by recycling a free buffer.
    pub hits: usize,
    /// Requests that had to allocate fresh memory.
    pub misses: usize,
    /// Bytes currently handed out.
    pub live_bytes: usize,
    /// Maximum of `live_bytes` over the pool's lifetime.
    pub peak_live_bytes: usize,
    /// Total bytes ever allocated fresh (resident footprint of the pool).
    pub allocated_bytes: usize,
    /// Requests served by [`BufferPool::allocate_fallback_fresh`] — the
    /// graceful-degradation path taken when an injected fault (or a real
    /// exhaustion condition) makes the free list unusable. Counted apart
    /// from `hits`/`misses` so chaos runs don't distort the Figure-11b
    /// reuse statistics.
    pub fallback_fresh: usize,
}

/// A size-keyed pool of buffers of `T` (`f64` unless named).
#[derive(Debug, Default)]
pub struct BufferPool<T = f64> {
    free: HashMap<usize, Vec<Buffer<T>>>,
    stats: PoolStats,
}

impl BufferPool {
    /// New, empty pool of `f64` buffers (`BufferPool::<f32>::default()`
    /// builds the `f32` one).
    pub fn new() -> Self {
        Self::default()
    }

    /// `pool_allocate` under a fault plan: an injected
    /// [`FaultSite::PoolAlloc`] fault makes recycling "fail", and the request
    /// degrades to a counted fresh malloc
    /// ([`BufferPool::allocate_fallback_fresh`]) recorded as recovered. The
    /// VM's `PoolAlloc` op and the diamond chain's temp buffer allocate here.
    pub(crate) fn allocate_or_recover(&mut self, len: usize, chaos: &FaultPlan) -> Buffer {
        if chaos.should_fire(FaultSite::PoolAlloc) {
            let b = self.allocate_fallback_fresh(len);
            chaos.record_recovered(FaultSite::PoolAlloc);
            b
        } else {
            self.allocate(len)
        }
    }
}

impl<T: Copy + Default> BufferPool<T> {
    /// `pool_allocate`: get a buffer of exactly `len` elements. Recycled
    /// buffers keep their previous contents — callers must re-initialise
    /// whatever they rely on (the engine refills ghost rings).
    pub fn allocate(&mut self, len: usize) -> Buffer<T> {
        let bytes = len * std::mem::size_of::<T>();
        self.stats.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        if let Some(buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.hits += 1;
            buf
        } else {
            self.stats.misses += 1;
            self.stats.allocated_bytes += bytes;
            Buffer::zeroed(len)
        }
    }

    /// Degraded allocation: bypass the free list and malloc fresh, as if
    /// the pool were exhausted. Used to recover from injected pool faults
    /// — the run stays correct (the engine refills ghost rings and every
    /// interior cell is overwritten), it just pays malloc traffic, which
    /// `fallback_fresh` counts. The buffer is a normal pool citizen:
    /// `deallocate` returns it to the free list like any other.
    pub fn allocate_fallback_fresh(&mut self, len: usize) -> Buffer<T> {
        let bytes = len * std::mem::size_of::<T>();
        self.stats.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        self.stats.allocated_bytes += bytes;
        self.stats.fallback_fresh += 1;
        Buffer::zeroed(len)
    }

    /// `pool_deallocate`: return a buffer to the free list.
    pub fn deallocate(&mut self, buf: Buffer<T>) {
        let bytes = buf.byte_len();
        // allocate() derives bytes as len · size_of::<T>() while this path
        // trusts the buffer's own byte length; they must agree or
        // live_bytes drifts.
        debug_assert_eq!(buf.byte_len(), buf.len() * std::mem::size_of::<T>());
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(bytes);
        self.free.entry(buf.len()).or_default().push(buf);
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of buffers sitting in the free list.
    pub fn free_count(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Drop all cached buffers (the "freed after the last call" moment).
    /// Statistics survive so a finished experiment can still be reported;
    /// use [`BufferPool::reset_stats`] to start a fresh measurement.
    pub fn clear(&mut self) {
        self.free.clear();
    }

    /// Zero all counters (including `allocated_bytes` / `peak_live_bytes`,
    /// which `clear()` deliberately preserves). Call between experiment
    /// rows that share one process so footprints don't accumulate.
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats {
            live_bytes: self.stats.live_bytes,
            ..PoolStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_exact_sizes() {
        let mut p = BufferPool::new();
        let a = p.allocate(100);
        p.deallocate(a);
        let _b = p.allocate(100);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().allocated_bytes, 800);
    }

    #[test]
    fn f32_pool_recycles_exact_sizes() {
        // the mixed chain's scratch pool: exact-size reuse, four bytes an element
        let mut p = BufferPool::<f32>::default();
        let a = p.allocate(64);
        assert_eq!(p.stats().live_bytes, 256);
        p.deallocate(a);
        let _b = p.allocate(64);
        let _c = p.allocate(65);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.allocated_bytes), (1, 2, 516));
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn different_sizes_do_not_mix() {
        let mut p = BufferPool::new();
        let a = p.allocate(100);
        p.deallocate(a);
        let _b = p.allocate(200);
        assert_eq!(p.stats().hits, 0);
        assert_eq!(p.stats().misses, 2);
    }

    #[test]
    fn peak_tracks_concurrent_liveness() {
        let mut p = BufferPool::new();
        let a = p.allocate(10);
        let b = p.allocate(10);
        assert_eq!(p.stats().live_bytes, 160);
        assert_eq!(p.stats().peak_live_bytes, 160);
        p.deallocate(a);
        p.deallocate(b);
        assert_eq!(p.stats().live_bytes, 0);
        let _c = p.allocate(10);
        assert_eq!(p.stats().peak_live_bytes, 160, "peak must not reset");
        // resident footprint: only 2 buffers were ever malloc'd
        assert_eq!(p.stats().allocated_bytes, 160);
    }

    #[test]
    fn across_cycles_no_new_mallocs() {
        // the §3.2.3 scenario: after the first cycle warms the pool, later
        // cycles allocate nothing new
        let mut p = BufferPool::new();
        for cycle in 0..3 {
            let bufs: Vec<Buffer> = (0..4).map(|i| p.allocate(64 * (i + 1))).collect();
            for b in bufs {
                p.deallocate(b);
            }
            if cycle == 0 {
                assert_eq!(p.stats().misses, 4);
            }
        }
        assert_eq!(p.stats().misses, 4);
        assert_eq!(p.stats().hits, 8);
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    fn fallback_fresh_skips_free_list_but_stays_accounted() {
        let mut p = BufferPool::new();
        let a = p.allocate(100);
        p.deallocate(a);
        // a recycled buffer is available, but the fallback must not touch it
        let b = p.allocate_fallback_fresh(100);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.fallback_fresh), (0, 1, 1));
        assert_eq!(s.allocated_bytes, 1600);
        assert_eq!(s.live_bytes, 800);
        assert_eq!(p.free_count(), 1, "free list untouched");
        // the fallback buffer deallocates like any pool buffer
        p.deallocate(b);
        assert_eq!(p.stats().live_bytes, 0);
        assert_eq!(p.free_count(), 2);
    }

    #[test]
    fn clear_empties_free_list() {
        let mut p = BufferPool::new();
        let a = p.allocate(8);
        p.deallocate(a);
        assert_eq!(p.free_count(), 1);
        p.clear();
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn reset_stats_starts_a_fresh_measurement() {
        let mut p = BufferPool::new();
        let a = p.allocate(100);
        let b = p.allocate(100);
        p.deallocate(a);
        assert!(p.stats().allocated_bytes > 0 && p.stats().peak_live_bytes > 0);
        p.reset_stats();
        let s = p.stats();
        assert_eq!(
            (s.hits, s.misses, s.allocated_bytes, s.peak_live_bytes),
            (0, 0, 0, 0)
        );
        // still-live bytes survive the reset so deallocate stays consistent
        assert_eq!(s.live_bytes, 800);
        p.deallocate(b);
        assert_eq!(p.stats().live_bytes, 0);
    }
}
