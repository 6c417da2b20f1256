//! Minimal in-tree stand-in for the `rayon` crate, backed by a persistent
//! thread pool with a static schedule.
//!
//! The build environment has no network access to a crate registry, so the
//! workspace vendors the small slice of rayon's API it actually uses:
//! `par_iter` / `into_par_iter` / `par_chunks_mut` driven by `for_each`
//! (optionally through `enumerate`), plus `ThreadPool::install` and
//! `current_num_threads`.
//!
//! ## Execution model
//!
//! A [`ThreadPool`] owns `threads - 1` long-lived worker threads (spawned
//! lazily on the first parallel region, parked on a condvar between
//! regions); the caller of every parallel region participates as the
//! remaining worker. One process-wide pool backs code that never installs
//! a pool explicitly. Per region, the item list is split once into one
//! contiguous, order-preserving index range per worker (sizes differ by at
//! most one — see [`partition_ranges`]), the `schedule(static)` of the
//! OpenMP code the compiler emits. The caller runs range 0; every other
//! range goes whole to the participant that claims it with one
//! `fetch_add`, and runs front to back (ascending order, good locality for
//! row/tile sweeps). A participant that finishes its range claims the next
//! unclaimed one, so a region never waits on a worker that has not woken.
//!
//! Workers run items with the thread-scoped parallelism pinned to 1, so
//! nested parallel calls inside a region run inline. Panics inside items
//! are caught, the region completes, and the first payload is rethrown on
//! the calling thread — matching `std::thread::scope` semantics closely
//! enough for this workspace.

use std::cell::{Cell, RefCell};
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// 0 = "no pool installed": fall back to available_parallelism.
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Pool installed on this thread by [`ThreadPool::install`].
    static CURRENT_POOL: RefCell<Option<Arc<PoolInner>>> = const { RefCell::new(None) };
    /// Worker slot this thread occupies inside a region (`usize::MAX` =
    /// not a pool participant).
    static WORKER_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn default_threads() -> usize {
    // Cached: `available_parallelism` re-reads procfs/cgroup files on every
    // call, and this is queried per stage dispatch on the hot path —
    // measured at >50 µs per call on containerized hosts, which dwarfed
    // whole stage kernels before caching.
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of threads the current scope parallelises over.
pub fn current_num_threads() -> usize {
    let n = CURRENT_THREADS.with(|c| c.get());
    if n == 0 {
        default_threads()
    } else {
        n
    }
}

/// The worker slot of the calling thread inside the active pool, or `None`
/// outside parallel regions. Slots are dense in `0..threads`: the region's
/// caller takes slot 0, persistent workers occupy `1..threads`. Used for
/// worker-affine storage (e.g. scratchpad arenas).
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|c| {
        let v = c.get();
        (v != usize::MAX).then_some(v)
    })
}

/// Split `0..len` into at most `nblocks` contiguous, order-preserving
/// ranges whose sizes differ by at most one (the first `len % nblocks`
/// ranges get the extra item). Returns one possibly-empty range when
/// `len == 0`.
pub fn partition_ranges(len: usize, nblocks: usize) -> Vec<Range<usize>> {
    assert!(nblocks > 0, "nblocks must be positive");
    let nblocks = nblocks.min(len).max(1);
    let base = len / nblocks;
    let extra = len % nblocks;
    let mut out = Vec::with_capacity(nblocks);
    let mut lo = 0usize;
    for b in 0..nblocks {
        let size = base + usize::from(b < extra);
        out.push(lo..lo + size);
        lo += size;
    }
    out
}

/// Monotonic lifetime counters of one pool. All values only ever grow;
/// observers work with deltas between snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Worker threads ever spawned (`threads - 1` after first use, then
    /// constant: the persistence guarantee).
    pub workers_spawned: u64,
    /// Parallel regions executed.
    pub regions: u64,
    /// Items executed across all regions.
    pub items: u64,
    /// Times a worker parked waiting for work.
    pub parks: u64,
    /// Items claimed but dropped unexecuted because their region was
    /// poisoned by an earlier panic.
    pub cancelled: u64,
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// Completion/panic state of one region, living on the caller's stack for
/// the duration of [`PoolInner::run_region`].
struct RegionHeader {
    /// Items not yet executed.
    remaining: AtomicUsize,
    /// Persistent workers currently inside the region's `participate`.
    active: AtomicUsize,
    /// Set by the first panicking item; later items of this region are
    /// claimed and dropped instead of executed, so the region drains fast
    /// and the damage never spreads past its own item list.
    poisoned: AtomicBool,
    /// Items cancelled because the region was poisoned.
    cancelled: AtomicU64,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl RegionHeader {
    fn notify_done(&self) {
        let _g = self.done.lock().unwrap();
        self.done_cv.notify_all();
    }
}

/// Type-erased state of one region (items + static ranges + the user
/// closure).
struct RegionCtx<I, F> {
    items: *mut I,
    /// One contiguous range per worker ([`partition_ranges`]).
    ranges: Vec<Range<usize>>,
    /// Index of the next unclaimed range.
    next: AtomicUsize,
    f: *const F,
    header: *const RegionHeader,
}

impl<I: Send, F: Fn(I) + Sync> RegionCtx<I, F> {
    /// Run one claimed range front to back.
    ///
    /// # Safety
    /// The range must have been claimed by this caller alone, and the
    /// items/closure/header must outlive the call (guaranteed by the
    /// region publication protocol).
    unsafe fn run_range(&self, range: Range<usize>) {
        let header = &*self.header;
        let f = &*self.f;
        for idx in range {
            // Claim the item by value; a panicking closure drops it during
            // unwinding, so nothing leaks and the region still completes.
            let item = std::ptr::read(self.items.add(idx));
            if header.poisoned.load(Ordering::Acquire) {
                // A sibling item already panicked: drop this one unexecuted.
                drop(item);
                header.cancelled.fetch_add(1, Ordering::Relaxed);
            } else if let Err(e) = catch_unwind(AssertUnwindSafe(|| f(item))) {
                header.poisoned.store(true, Ordering::Release);
                let mut first = header.panic.lock().unwrap();
                if first.is_none() {
                    *first = Some(e);
                }
            }
            if header.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                header.notify_done();
            }
        }
    }
}

/// A published region, as seen by the worker loop. The raw pointers are
/// valid while the job is in [`PoolState::jobs`]: workers register in
/// `RegionHeader::active` under the state lock before touching them, and
/// the region's caller unpublishes the job and then waits for
/// `active == 0` before returning.
#[derive(Clone, Copy)]
struct Job {
    run: unsafe fn(*const ()),
    has_work: unsafe fn(*const ()) -> bool,
    ctx: *const (),
    header: *const RegionHeader,
}

// SAFETY: the pointers are only dereferenced under the publication
// protocol above; the pointees are Sync-compatible region state.
unsafe impl Send for Job {}

struct PoolState {
    jobs: Vec<Job>,
    shutdown: bool,
    spawned: bool,
}

struct PoolInner {
    threads: usize,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers_spawned: AtomicU64,
    regions: AtomicU64,
    items: AtomicU64,
    parks: AtomicU64,
    cancelled: AtomicU64,
}

/// True while the region still has an unclaimed range.
///
/// # Safety
/// `ctx` must point at a live `RegionCtx<I, F>`.
unsafe fn region_has_work<I, F>(ctx: *const ()) -> bool {
    let ctx = &*(ctx as *const RegionCtx<I, F>);
    ctx.next.load(Ordering::Acquire) < ctx.ranges.len()
}

/// Work loop of one participant: claim whole ranges, one `fetch_add`
/// each, and run them until none is left.
///
/// # Safety
/// `ctx` must point at a live `RegionCtx<I, F>` whose items/header outlive
/// this call (guaranteed by the region publication protocol).
unsafe fn participate<I: Send, F: Fn(I) + Sync>(ctx: *const ()) {
    let ctx = &*(ctx as *const RegionCtx<I, F>);
    while let Some(range) = ctx.ranges.get(ctx.next.fetch_add(1, Ordering::AcqRel)) {
        ctx.run_range(range.clone());
    }
}

fn worker_loop(pool: Arc<PoolInner>, idx: usize) {
    // Nested parallel calls inside items run inline on this worker.
    CURRENT_THREADS.with(|c| c.set(1));
    WORKER_INDEX.with(|c| c.set(idx));
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                let found = st
                    .jobs
                    .iter()
                    .find(|j| unsafe { (j.has_work)(j.ctx) })
                    .copied();
                if let Some(j) = found {
                    // Register inside the region while the job is still
                    // published — the caller waits for us after unpublishing.
                    unsafe { (*j.header).active.fetch_add(1, Ordering::AcqRel) };
                    break j;
                }
                pool.parks.fetch_add(1, Ordering::Relaxed);
                st = pool.work_cv.wait(st).unwrap();
            }
        };
        unsafe { (job.run)(job.ctx) };
        let header = unsafe { &*job.header };
        // Leave under the `done` lock: the caller reads `active` under it
        // and frees the header (its stack frame) once it sees zero, so the
        // decrement and this thread's last touch of the header must be one
        // critical section. Outside it, this thread could lock a mutex in a
        // dead frame and block there for good, hanging the pool's `join`.
        let _leaving = header.done.lock().unwrap();
        if header.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            header.done_cv.notify_all();
        }
    }
}

impl PoolInner {
    fn new(threads: usize) -> Arc<PoolInner> {
        Arc::new(PoolInner {
            threads,
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                shutdown: false,
                spawned: false,
            }),
            work_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            workers_spawned: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            items: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        })
    }

    /// Spawn the persistent workers on first use (once per pool lifetime).
    fn ensure_workers(self: &Arc<Self>) {
        if self.threads <= 1 {
            return;
        }
        {
            let mut st = self.state.lock().unwrap();
            if st.spawned {
                return;
            }
            st.spawned = true;
        }
        let mut handles = self.handles.lock().unwrap();
        for idx in 1..self.threads {
            let pool = Arc::clone(self);
            handles.push(std::thread::spawn(move || worker_loop(pool, idx)));
        }
        self.workers_spawned
            .fetch_add((self.threads - 1) as u64, Ordering::Relaxed);
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters {
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Execute one parallel region: split `items` into one static range
    /// per worker, let the parked workers join in, participate from the
    /// calling thread, and only return once every item ran and every
    /// helper left the region.
    fn run_region<I: Send, F: Fn(I) + Sync>(self: &Arc<Self>, mut items: Vec<I>, f: &F) {
        let len = items.len();
        let header = RegionHeader {
            remaining: AtomicUsize::new(len),
            active: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            cancelled: AtomicU64::new(0),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        };
        // Range 0 is the caller's before the region is published: the
        // caller goes first, as slot 0.
        let ctx = RegionCtx::<I, F> {
            items: items.as_mut_ptr(),
            ranges: partition_ranges(len, self.threads),
            next: AtomicUsize::new(1),
            f,
            header: &header,
        };
        // Items are claimed by `ptr::read` in `run_range`; the Vec keeps
        // the allocation alive but must not drop the elements again.
        unsafe { items.set_len(0) };

        self.ensure_workers();
        let job = Job {
            run: participate::<I, F>,
            has_work: region_has_work::<I, F>,
            ctx: &ctx as *const RegionCtx<I, F> as *const (),
            header: &header,
        };
        {
            let mut st = self.state.lock().unwrap();
            st.jobs.push(job);
        }
        self.work_cv.notify_all();
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(len as u64, Ordering::Relaxed);

        // The caller participates as slot 0 (persistent workers occupy
        // 1..threads), with nested parallelism pinned inline.
        let prev_threads = CURRENT_THREADS.with(|c| c.replace(1));
        let prev_index = WORKER_INDEX.with(|c| c.replace(0));
        // SAFETY: `ctx` and `header` live on this frame until every helper
        // has left (below), and range 0 was never published as claimable.
        unsafe {
            ctx.run_range(ctx.ranges[0].clone());
            participate::<I, F>(job.ctx);
        }
        CURRENT_THREADS.with(|c| c.set(prev_threads));
        WORKER_INDEX.with(|c| c.set(prev_index));

        // All items executed...
        {
            let mut g = header.done.lock().unwrap();
            while header.remaining.load(Ordering::Acquire) > 0 {
                g = header.done_cv.wait(g).unwrap();
            }
        }
        // ...no new worker can enter...
        {
            let mut st = self.state.lock().unwrap();
            st.jobs.retain(|j| !std::ptr::eq(j.header, job.header));
        }
        // ...and every helper has left (its borrows of ctx/header ended).
        {
            let mut g = header.done.lock().unwrap();
            while header.active.load(Ordering::Acquire) > 0 {
                g = header.done_cv.wait(g).unwrap();
            }
        }
        self.cancelled
            .fetch_add(header.cancelled.load(Ordering::Relaxed), Ordering::Relaxed);
        drop(items);
        let p = header.panic.lock().unwrap().take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    fn shutdown(&self) {
        {
            let mut st = self.state.lock().unwrap();
            st.shutdown = true;
        }
        self.work_cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

fn global_pool() -> &'static Arc<PoolInner> {
    static GLOBAL_POOL: OnceLock<Arc<PoolInner>> = OnceLock::new();
    GLOBAL_POOL.get_or_init(|| PoolInner::new(default_threads()))
}

// ---------------------------------------------------------------------------
// Public pool API
// ---------------------------------------------------------------------------

/// A persistent worker pool. `install` routes every parallel region of the
/// closure through this pool's workers (restored even on panic); the
/// workers are spawned once on first use and parked between regions, and
/// joined when the pool is dropped.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

struct Restore(usize, Option<Arc<PoolInner>>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT_THREADS.with(|c| c.set(self.0));
        let prev = self.1.take();
        CURRENT_POOL.with(|c| *c.borrow_mut() = prev);
    }
}

impl ThreadPool {
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev_threads = CURRENT_THREADS.with(|c| c.replace(self.inner.threads));
        let prev_pool = CURRENT_POOL.with(|c| c.replace(Some(Arc::clone(&self.inner))));
        let _restore = Restore(prev_threads, prev_pool);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.inner.threads
    }

    /// Lifetime counters of this pool.
    pub fn counters(&self) -> PoolCounters {
        self.inner.counters()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown();
    }
}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            Some(0) | None => default_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool {
            inner: PoolInner::new(threads),
        })
    }
}

/// Run `f` over `items` on the installed pool (or the process-wide one).
fn run_parallel<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let nthreads = current_num_threads().max(1);
    if nthreads == 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let pool = CURRENT_POOL.with(|p| p.borrow().clone());
    match pool {
        Some(p) => p.run_region(items, &f),
        None => global_pool().run_region(items, &f),
    }
}

// ---------------------------------------------------------------------------
// Iterator facade
// ---------------------------------------------------------------------------

pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Materialise the item list (refs, chunks, or owned values).
    fn drain(self) -> Vec<Self::Item>;

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_parallel(self.drain(), f);
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate(self)
    }
}

pub struct Enumerate<P>(P);

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn drain(self) -> Vec<Self::Item> {
        self.0.drain().into_iter().enumerate().collect()
    }
}

pub struct IntoParIter<T: Send>(Vec<T>);

impl<T: Send> ParallelIterator for IntoParIter<T> {
    type Item = T;

    fn drain(self) -> Vec<T> {
        self.0
    }
}

pub struct ParSliceIter<'a, T: Sync>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for ParSliceIter<'a, T> {
    type Item = &'a T;

    fn drain(self) -> Vec<&'a T> {
        self.0.iter().collect()
    }
}

pub struct ParChunksMut<'a, T: Send>(&'a mut [T], usize);

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn drain(self) -> Vec<&'a mut [T]> {
        self.0.chunks_mut(self.1).collect()
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        IntoParIter(self)
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = IntoParIter<$t>;
            fn into_par_iter(self) -> Self::Iter {
                IntoParIter(self.collect())
            }
        }
        impl IntoParallelIterator for RangeInclusive<$t> {
            type Item = $t;
            type Iter = IntoParIter<$t>;
            fn into_par_iter(self) -> Self::Iter {
                IntoParIter(self.collect())
            }
        }
    )*};
}

impl_range_par_iter!(usize, u32, u64, i32, i64);

pub trait IntoParallelRefIterator<'data> {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParSliceIter(self)
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParSliceIter(self)
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParChunksMut(self, chunk_size)
    }
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_all_rows() {
        let mut data = vec![0.0f64; 100];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as f64 + 1.0;
            }
        });
        assert!(data.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn range_sum_matches_sequential() {
        let total = AtomicU64::new(0);
        (1..=100usize).into_par_iter().for_each(|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn install_pins_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn partitioning_is_order_preserving_and_balanced() {
        for len in [0usize, 1, 2, 3, 7, 16, 100, 101, 1023] {
            for nblocks in [1usize, 2, 3, 4, 7, 8, 33] {
                let blocks = partition_ranges(len, nblocks);
                assert!(blocks.len() <= nblocks);
                // order-preserving: concatenation is exactly 0..len
                let flat: Vec<usize> = blocks.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(flat, expect, "len={len} nblocks={nblocks}");
                // maximally balanced: sizes differ by at most one
                let sizes: Vec<usize> = blocks.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} nblocks={nblocks}: {sizes:?}");
            }
        }
    }

    #[test]
    fn pool_spawns_workers_once_across_regions() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.counters().workers_spawned, 0, "workers spawn lazily");
        let hits = AtomicU64::new(0);
        for _ in 0..10 {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 640);
        let c = pool.counters();
        assert_eq!(c.workers_spawned, 3, "one persistent worker set");
        assert_eq!(c.regions, 10);
        assert_eq!(c.items, 640);
    }

    #[test]
    fn each_range_runs_on_one_thread_in_ascending_order() {
        let threads = 3usize;
        let len = 100usize;
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for _ in 0..20 {
            // (item, thread) in execution order
            let log = Mutex::new(Vec::with_capacity(len));
            pool.install(|| {
                (0..len).into_par_iter().for_each(|i| {
                    log.lock().unwrap().push((i, std::thread::current().id()));
                });
            });
            let log = log.into_inner().unwrap();
            assert_eq!(log.len(), len);
            for range in partition_ranges(len, threads) {
                let run: Vec<_> = log.iter().filter(|(i, _)| range.contains(i)).collect();
                let order: Vec<usize> = run.iter().map(|(i, _)| *i).collect();
                assert_eq!(
                    order,
                    range.clone().collect::<Vec<_>>(),
                    "{range:?} out of order"
                );
                assert!(
                    run.iter().all(|(_, t)| *t == run[0].1),
                    "{range:?} split across threads"
                );
            }
            // the caller runs range 0
            assert_eq!(
                log.iter().find(|(i, _)| *i == 0).unwrap().1,
                std::thread::current().id()
            );
        }
    }

    #[test]
    fn blocked_range_does_not_stall_the_others() {
        let threads = 3usize;
        let len = 48usize;
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let others = len - partition_ranges(len, threads)[0].len();
        let completed = AtomicUsize::new(0);
        pool.install(|| {
            (0..len).into_par_iter().for_each(|i| {
                if i == 0 {
                    // Block the first item of the caller's range until every
                    // item of the other ranges ran: the workers must take
                    // them while range 0 is stuck.
                    let t0 = std::time::Instant::now();
                    while completed.load(Ordering::Acquire) < others {
                        assert!(
                            t0.elapsed() < std::time::Duration::from_secs(30),
                            "the other ranges never ran"
                        );
                        std::thread::yield_now();
                    }
                }
                completed.fetch_add(1, Ordering::Release);
            });
        });
        assert_eq!(completed.load(Ordering::Relaxed), len);
    }

    #[test]
    fn concurrent_installs_run_every_item_once() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let (callers, regions, len) = (4usize, 25usize, 37usize);
        let runs: Vec<AtomicUsize> = (0..callers * regions * len)
            .map(|_| AtomicUsize::new(0))
            .collect();
        std::thread::scope(|s| {
            for c in 0..callers {
                let (pool, runs) = (&pool, &runs);
                s.spawn(move || {
                    pool.install(|| {
                        for r in 0..regions {
                            (0..len).into_par_iter().for_each(|i| {
                                runs[(c * regions + r) * len + i].fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                });
            }
        });
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        let c = pool.counters();
        assert_eq!(c.regions, (callers * regions) as u64);
        assert_eq!(c.items, (callers * regions * len) as u64);
        assert_eq!(c.workers_spawned, 2);
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let inner_threads = AtomicUsize::new(usize::MAX);
        let total = AtomicU64::new(0);
        pool.install(|| {
            (0..8usize).into_par_iter().for_each(|_| {
                inner_threads.fetch_min(current_num_threads(), Ordering::Relaxed);
                (0..4usize).into_par_iter().for_each(|i| {
                    total.fetch_add(i as u64, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(inner_threads.load(Ordering::Relaxed), 1);
        assert_eq!(total.load(Ordering::Relaxed), 8 * 6);
    }

    #[test]
    fn worker_index_is_dense_and_scoped() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(current_thread_index(), None);
        let seen = Mutex::new(Vec::new());
        pool.install(|| {
            (0..32usize).into_par_iter().for_each(|_| {
                seen.lock().unwrap().push(current_thread_index().unwrap());
            });
        });
        assert_eq!(current_thread_index(), None);
        let seen = seen.lock().unwrap();
        assert!(seen.iter().all(|&i| i < 3), "indices within 0..threads");
        assert!(seen.contains(&0), "the caller participates as slot 0");
    }

    #[test]
    fn poisoned_region_cancels_remaining_items() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let executed = AtomicUsize::new(0);
        let exploding = AtomicBool::new(false);
        let len = 256usize;
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..len).into_par_iter().for_each(|i| {
                    if i == 0 {
                        // first item of the caller's range: poisons the
                        // region before its ~127 siblings run
                        exploding.store(true, Ordering::Release);
                        panic!("first item exploded");
                    }
                    // No sibling finishes before item 0 is on its way out:
                    // a worker that outruns the caller must not run its
                    // whole range before the poison is set.
                    while !exploding.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(500));
                });
            });
        }));
        assert!(r.is_err(), "the first panic must reach the caller");
        assert!(
            executed.load(Ordering::Relaxed) < len - 1,
            "poisoning should cancel at least some queued items"
        );
        assert!(pool.counters().cancelled >= 1, "no cancellation recorded");
        // no worker deadlocked or died: the pool serves the next region
        let total = AtomicU64::new(0);
        pool.install(|| {
            (0..16usize).into_par_iter().for_each(|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..16usize).into_par_iter().for_each(|i| {
                    if i == 7 {
                        panic!("item 7 exploded");
                    }
                });
            });
        }));
        assert!(r.is_err());
        // the pool still works afterwards
        let total = AtomicU64::new(0);
        pool.install(|| {
            (0..16usize).into_par_iter().for_each(|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 120);
    }
}
