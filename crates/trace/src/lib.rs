//! `gmg-trace` — pipeline-wide tracing and metrics for the PolyMG stack.
//!
//! Every layer of the execution path reports into one [`Trace`] handle:
//!
//! * `gmg-runtime::exec` records per-stage / per-tile timing spans through
//!   interned [`StageHandle`]s (lock-free atomic adds on the hot path);
//! * `gmg-runtime::kernel` counts which dispatch class fired for each
//!   kernel case (unit-stride row body at a compile-time arity vs. the
//!   run-time-arity sweep beyond the table vs. strided vs. interpreter vs.
//!   variable-coefficient) via the global [`dispatch`] histogram;
//! * `gmg-runtime::pool` / `arena` feed allocator reuse statistics, and the
//!   engine counts the tile plans and worker scratch it keeps in the global
//!   [`tile_plan`] block;
//! * `gmg-multigrid::solver` emits one [`CycleEvent`] (time + residual)
//!   per multigrid cycle.
//!
//! An enabled handle records into an [`AtomicSink`]: plain relaxed atomics,
//! safe to hammer from every worker thread. A disabled handle (the default)
//! reduces every record call to a `None` check.
//!
//! [`Report::to_json`] renders the collected data as the structured JSON
//! emitted by `reproduce --profile` / `polymg-cli --profile` (schema in
//! DESIGN.md §Observability).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod dispatch;
mod json;
pub mod tile_plan;

// ---------------------------------------------------------------------------
// Snapshot types shared across crates
// ---------------------------------------------------------------------------

/// Allocator counters, either absolute (as kept by `BufferPool`) or as a
/// delta between two observations (as ingested by [`Trace::record_pool`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub allocated_bytes: u64,
    /// Peak concurrently-live bytes; merged with `max`, never summed.
    pub peak_live_bytes: u64,
}

impl PoolSnapshot {
    /// Counter-wise difference `self - earlier` (saturating), keeping the
    /// later peak. Used to ingest monotonic pool counters incrementally.
    pub fn delta_since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            allocated_bytes: self.allocated_bytes.saturating_sub(earlier.allocated_bytes),
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// Worker-pool counters, as a delta between two observations of the
/// pool's monotonic counters (`rayon::PoolCounters`) — except `workers`,
/// which is the pool's total spawned-worker count and is merged with `max`
/// (a persistent pool spawns its workers once; the value staying flat across
/// runs *is* the signal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadsSnapshot {
    /// Worker threads ever spawned by the pool (max-merged).
    pub workers: u64,
    /// Parallel regions executed.
    pub regions: u64,
    /// Work items executed.
    pub items: u64,
    /// Worker park events (idle waits).
    pub parks: u64,
}

/// One multigrid cycle: wall time and the residual norm after the cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleEvent {
    pub index: u64,
    pub ns: u64,
    pub residual: f64,
}

/// Fault-injection counters for one chaos site (`polymg::chaos` sites are
/// identified by their stable label, e.g. `"pool_alloc"`, `"op_untiled"`,
/// so this crate stays free of a `polymg` dependency).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSiteSnapshot {
    /// Stable site label (`FaultSite::label()`).
    pub site: String,
    /// Times the site was consulted.
    pub armed: u64,
    /// Times the site fired a fault.
    pub fired: u64,
    /// Times a fired fault was recovered from.
    pub recovered: u64,
}

/// Delta of chaos counters between two observations, merged per site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    pub sites: Vec<ChaosSiteSnapshot>,
}

impl ChaosSnapshot {
    pub fn total_armed(&self) -> u64 {
        self.sites.iter().map(|s| s.armed).sum()
    }

    pub fn total_fired(&self) -> u64 {
        self.sites.iter().map(|s| s.fired).sum()
    }

    pub fn total_recovered(&self) -> u64 {
        self.sites.iter().map(|s| s.recovered).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.sites
            .iter()
            .all(|s| s.armed == 0 && s.fired == 0 && s.recovered == 0)
    }
}

/// Plan-cache hit/miss/eviction counters (a snapshot of `polymg::cache`
/// state; the trace stores the last published snapshot, it does not
/// accumulate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    /// Plans dropped by the cache's LRU capacity bound.
    pub evictions: u64,
}

/// Solve-service counters (a snapshot of `gmg-server` state: last published
/// values win, mirroring [`PlanCacheSnapshot`] semantics). All-zero until a
/// server publishes, in which case the `server` block is omitted from the
/// JSON report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Solve requests admitted (whether they later succeeded or failed).
    pub requests: u64,
    /// Solve requests answered with a result frame.
    pub ok: u64,
    /// Solve requests answered with a typed execution-error frame.
    pub exec_errors: u64,
    /// Frames rejected at the protocol layer (malformed, oversized, …).
    pub protocol_errors: u64,
    /// Solves rejected because the admission queue was full (the 429 path).
    pub rejected_queue_full: u64,
    /// Solves rejected by the per-tenant in-flight cap.
    pub rejected_tenant: u64,
    /// Solves rejected because the server was draining for shutdown.
    pub rejected_shutdown: u64,
    /// Requests that found a warm session (plan + engine reuse).
    pub session_hits: u64,
    /// Requests that created a new session.
    pub session_misses: u64,
    /// Sessions dropped by the registry's least-recently-acquired bound.
    pub sessions_evicted: u64,
    /// Scenario pipelines built (IR construction): one per cold acquire — a
    /// shape's first touch and each further session it needs. Growing under
    /// warm traffic means the server is recompiling.
    pub pipelines_built: u64,
    /// Engines ever constructed across all sessions.
    pub engines_created: u64,
    /// High-water mark of the admission queue depth.
    pub queue_max_depth: u64,
    /// Sessions whose options were warm-started from a tuned-config store.
    pub tuned_applied: u64,
    /// Engine passes that swept two or more right-hand sides.
    pub batches: u64,
    /// Queued requests merged into another request's engine pass by the
    /// admission coalescing window.
    pub coalesced: u64,
    /// Engine-pass size histogram: RHS count bucketed as
    /// 1 / 2 / 3–4 / 5–8 / 9–16 / 17–32 / 33+.
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Grids solved per scenario, indexed by the scenario wire id
    /// (see [`SCENARIO_LABELS`]).
    pub scenario_solves: [u64; SCENARIO_KINDS],
    /// Grids solved with mixed-precision (f32) smoothing chains.
    pub mixed_solves: u64,
}

/// Number of scenario families the server counts
/// ([`ServerSnapshot::scenario_solves`]).
pub const SCENARIO_KINDS: usize = 5;

/// Stats/JSON labels of [`ServerSnapshot::scenario_solves`], in wire-id
/// order (must match `polymg::scenario::Scenario::wire_id`).
pub const SCENARIO_LABELS: [&str; SCENARIO_KINDS] =
    ["constant", "varcoef", "fmg", "rbgs", "chebyshev"];

/// Per-shard counters from the event-driven server core (one entry per
/// shard, published alongside the aggregate [`ServerSnapshot`]). Snapshot
/// semantics: the last published vector wins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u64,
    /// Connections first registered on this shard by the acceptor.
    pub accepted: u64,
    /// Connections migrated in from another shard once their tenant hash
    /// resolved here.
    pub adopted: u64,
    /// Complete frames decoded by this shard's readiness loop.
    pub frames: u64,
    /// Readiness-loop iterations (epoll wakeups).
    pub wakeups: u64,
    /// Jobs dequeued from the latency-sensitive admission queue.
    pub dequeued_latency: u64,
    /// Jobs dequeued from the batch admission queue.
    pub dequeued_batch: u64,
    /// Warm-session hits on this shard's `SessionManager`.
    pub session_hits: u64,
    /// Session misses (cold compiles) on this shard.
    pub session_misses: u64,
    /// Engines constructed by this shard's sessions.
    pub engines_created: u64,
    /// High-water mark of this shard's combined admission-queue depth.
    pub queue_max_depth: u64,
}

/// Bucket count of [`ServerSnapshot::batch_hist`].
pub const BATCH_HIST_BUCKETS: usize = 7;

/// Histogram bucket index for an engine pass of `rhs` right-hand sides.
pub fn batch_hist_bucket(rhs: usize) -> usize {
    match rhs {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        _ => 6,
    }
}

impl ServerSnapshot {
    pub fn is_empty(&self) -> bool {
        *self == ServerSnapshot::default()
    }

    /// Every scalar counter under its STATS / profile-JSON key, in output
    /// order — the one list both renderings walk. `mixed_solves` is last:
    /// both put their array-valued extras (`batch_hist`, `scenario`) and
    /// STATS its live gauges before it.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("requests", self.requests),
            ("ok", self.ok),
            ("exec_errors", self.exec_errors),
            ("protocol_errors", self.protocol_errors),
            ("rejected_queue_full", self.rejected_queue_full),
            ("rejected_tenant", self.rejected_tenant),
            ("rejected_shutdown", self.rejected_shutdown),
            ("session_hits", self.session_hits),
            ("session_misses", self.session_misses),
            ("sessions_evicted", self.sessions_evicted),
            ("pipelines_built", self.pipelines_built),
            ("engines_created", self.engines_created),
            ("queue_max_depth", self.queue_max_depth),
            ("tuned_applied", self.tuned_applied),
            ("batches", self.batches),
            ("coalesced", self.coalesced),
            ("mixed_solves", self.mixed_solves),
        ]
    }
}

impl ShardSnapshot {
    /// Every counter under its profile-JSON key, in output order.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("shard", self.shard),
            ("accepted", self.accepted),
            ("adopted", self.adopted),
            ("frames", self.frames),
            ("wakeups", self.wakeups),
            ("dequeued_latency", self.dequeued_latency),
            ("dequeued_batch", self.dequeued_batch),
            ("session_hits", self.session_hits),
            ("session_misses", self.session_misses),
            ("engines_created", self.engines_created),
            ("queue_max_depth", self.queue_max_depth),
        ]
    }
}

/// Online-tuner counters from `gmg-server` (snapshot semantics, like
/// [`ServerSnapshot`]). All-zero means no tuner ran and the `tuner` block
/// is omitted from the JSON report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunerSnapshot {
    /// Background trials measured to completion (faulted ones excluded).
    pub trials: u64,
    /// Trials whose engine run faulted (typed error) and whose sample was
    /// discarded from the search.
    pub discarded_faulted: u64,
    /// Times a ready trial was deferred because live work was queued or in
    /// flight (the idle-capacity gate).
    pub deferred_busy: u64,
    /// Winners persisted to the tuned store.
    pub winners: u64,
    /// Distinct pipeline fingerprints the tuner has opened a search for.
    pub fingerprints: u64,
    /// Live per-session solve timings sampled into tuning state.
    pub observed: u64,
    /// Trials that left pool bytes live after release (leak detector; must
    /// stay 0).
    pub leaked_trials: u64,
}

impl TunerSnapshot {
    pub fn is_empty(&self) -> bool {
        *self == TunerSnapshot::default()
    }

    /// Every counter under its profile-JSON key (STATS prefixes `tuner_`),
    /// in output order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("trials", self.trials),
            ("discarded_faulted", self.discarded_faulted),
            ("deferred_busy", self.deferred_busy),
            ("winners", self.winners),
            ("fingerprints", self.fingerprints),
            ("observed", self.observed),
            ("leaked_trials", self.leaked_trials),
        ]
    }
}

/// Per-stage aggregate. Hot-path updates are relaxed atomic adds through
/// [`StageHandle`]; names are interned once per (name, kind) pair.
#[derive(Debug)]
pub struct StageAgg {
    name: String,
    kind: String,
    ns: AtomicU64,
    invocations: AtomicU64,
    tiles: AtomicU64,
    cells: AtomicU64,
}

/// Per-schedule-op aggregate: one row of the op-level timeline the VM
/// executor records (`ExecProgram` op index + mnemonic).
#[derive(Debug)]
pub struct OpAgg {
    index: u64,
    mnemonic: String,
    ns: AtomicU64,
    invocations: AtomicU64,
}

impl OpAgg {
    fn new(index: u64, mnemonic: &str) -> Self {
        OpAgg {
            index,
            mnemonic: mnemonic.to_string(),
            ns: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
        }
    }

    #[inline]
    fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.invocations.fetch_add(1, Ordering::Relaxed);
    }
}

impl StageAgg {
    fn new(name: &str, kind: &str) -> Self {
        StageAgg {
            name: name.to_string(),
            kind: kind.to_string(),
            ns: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            tiles: AtomicU64::new(0),
            cells: AtomicU64::new(0),
        }
    }

    #[inline]
    fn add(&self, ns: u64, tiles: u64, cells: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.tiles.fetch_add(tiles, Ordering::Relaxed);
        self.cells.fetch_add(cells, Ordering::Relaxed);
    }
}

/// The lock-free collector behind an enabled [`Trace`]. Locks are only taken when interning a
/// new stage name or appending a cycle event — never per tile.
#[derive(Debug, Default)]
pub struct AtomicSink {
    stages: Mutex<Vec<Arc<StageAgg>>>,
    ops: Mutex<Vec<Arc<OpAgg>>>,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    /// Last-published solve-service counters (snapshot semantics).
    server: Mutex<ServerSnapshot>,
    /// Last-published per-shard counters (snapshot semantics).
    shards: Mutex<Vec<ShardSnapshot>>,
    /// Last-published online-tuner counters (snapshot semantics).
    tuner: Mutex<TunerSnapshot>,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_allocated: AtomicU64,
    pool_peak: AtomicU64,
    arena_created: AtomicU64,
    arena_recycled: AtomicU64,
    /// Per-worker `(created, recycled)` arena counts, summed elementwise.
    arena_workers: Mutex<Vec<(u64, u64)>>,
    threads_workers: AtomicU64,
    threads_regions: AtomicU64,
    threads_items: AtomicU64,
    threads_parks: AtomicU64,
    cycles: Mutex<Vec<CycleEvent>>,
    chaos: Mutex<Vec<ChaosSiteSnapshot>>,
    meta: Mutex<Vec<(String, String)>>,
}

impl AtomicSink {
    fn intern(&self, name: &str, kind: &str) -> Arc<StageAgg> {
        let mut stages = self.stages.lock().unwrap();
        if let Some(s) = stages.iter().find(|s| s.name == name && s.kind == kind) {
            return Arc::clone(s);
        }
        let agg = Arc::new(StageAgg::new(name, kind));
        stages.push(Arc::clone(&agg));
        agg
    }

    fn intern_op(&self, index: u64, mnemonic: &str) -> Arc<OpAgg> {
        let mut ops = self.ops.lock().unwrap();
        if let Some(o) = ops
            .iter()
            .find(|o| o.index == index && o.mnemonic == mnemonic)
        {
            return Arc::clone(o);
        }
        let agg = Arc::new(OpAgg::new(index, mnemonic));
        ops.push(Arc::clone(&agg));
        agg
    }

    fn record_span(&self, name: &str, kind: &str, ns: u64, tiles: u64, cells: u64) {
        self.intern(name, kind).add(ns, tiles, cells);
    }

    fn record_pool(&self, delta: &PoolSnapshot) {
        self.pool_hits.fetch_add(delta.hits, Ordering::Relaxed);
        self.pool_misses.fetch_add(delta.misses, Ordering::Relaxed);
        self.pool_allocated
            .fetch_add(delta.allocated_bytes, Ordering::Relaxed);
        self.pool_peak
            .fetch_max(delta.peak_live_bytes, Ordering::Relaxed);
    }

    fn record_arena(&self, created: u64, recycled: u64) {
        self.arena_created.fetch_add(created, Ordering::Relaxed);
        self.arena_recycled.fetch_add(recycled, Ordering::Relaxed);
    }

    fn record_arena_workers(&self, per_worker: &[(u64, u64)]) {
        let mut merged = self.arena_workers.lock().unwrap();
        if merged.len() < per_worker.len() {
            merged.resize(per_worker.len(), (0, 0));
        }
        for (m, w) in merged.iter_mut().zip(per_worker) {
            m.0 += w.0;
            m.1 += w.1;
        }
    }

    fn record_threads(&self, delta: &ThreadsSnapshot) {
        self.threads_workers
            .fetch_max(delta.workers, Ordering::Relaxed);
        self.threads_regions
            .fetch_add(delta.regions, Ordering::Relaxed);
        self.threads_items.fetch_add(delta.items, Ordering::Relaxed);
        self.threads_parks.fetch_add(delta.parks, Ordering::Relaxed);
    }

    fn record_cycle(&self, event: CycleEvent) {
        self.cycles.lock().unwrap().push(event);
    }

    fn record_chaos(&self, delta: &ChaosSnapshot) {
        let mut merged = self.chaos.lock().unwrap();
        for d in &delta.sites {
            if let Some(m) = merged.iter_mut().find(|m| m.site == d.site) {
                m.armed += d.armed;
                m.fired += d.fired;
                m.recovered += d.recovered;
            } else {
                merged.push(d.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Trace handle
// ---------------------------------------------------------------------------

/// Cheap-to-clone handle threaded through engine, solver, and harness.
/// A disabled handle (`Trace::disabled()` / `Trace::default()`) reduces
/// every record call to a `None` check.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    sink: Option<Arc<AtomicSink>>,
}

impl Trace {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Trace {
        Trace { sink: None }
    }

    /// A live handle backed by a fresh [`AtomicSink`].
    pub fn enabled() -> Trace {
        Trace {
            sink: Some(Arc::new(AtomicSink::default())),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Intern a stage and return a hot-path handle for it. Call once per
    /// stage at setup time, not per tile.
    pub fn stage(&self, name: &str, kind: &str) -> StageHandle {
        StageHandle {
            agg: self.sink.as_ref().map(|s| s.intern(name, kind)),
        }
    }

    /// Intern a schedule op (by program index + mnemonic) and return a
    /// hot-path handle for its timeline row.
    pub fn op(&self, index: u64, mnemonic: &str) -> OpHandle {
        OpHandle {
            agg: self.sink.as_ref().map(|s| s.intern_op(index, mnemonic)),
        }
    }

    /// Publish the plan-cache hit/miss/eviction counters (a snapshot — the
    /// last published values win; callers pass the global cache's totals).
    pub fn record_plan_cache(&self, hits: u64, misses: u64, evictions: u64) {
        if let Some(s) = &self.sink {
            s.plan_cache_hits.store(hits, Ordering::Relaxed);
            s.plan_cache_misses.store(misses, Ordering::Relaxed);
            s.plan_cache_evictions.store(evictions, Ordering::Relaxed);
        }
    }

    /// Publish solve-service counters (a snapshot — the last published
    /// values win; the server passes its lifetime totals).
    pub fn record_server(&self, snap: &ServerSnapshot) {
        if let Some(s) = &self.sink {
            *s.server.lock().unwrap() = *snap;
        }
    }

    /// Publish per-shard event-core counters (a snapshot — the last
    /// published vector wins; the server passes one entry per shard).
    pub fn record_shards(&self, shards: &[ShardSnapshot]) {
        if let Some(s) = &self.sink {
            *s.shards.lock().unwrap() = shards.to_vec();
        }
    }

    /// Publish online-tuner counters (a snapshot — the last published
    /// values win).
    pub fn record_tuner(&self, snap: &TunerSnapshot) {
        if let Some(s) = &self.sink {
            *s.tuner.lock().unwrap() = *snap;
        }
    }

    /// One-shot span record (setup paths where a handle isn't worth caching).
    pub fn record_span(&self, name: &str, kind: &str, ns: u64, tiles: u64, cells: u64) {
        if let Some(s) = &self.sink {
            s.record_span(name, kind, ns, tiles, cells);
        }
    }

    pub fn record_pool(&self, delta: &PoolSnapshot) {
        if let Some(s) = &self.sink {
            s.record_pool(delta);
        }
    }

    pub fn record_arena(&self, created: u64, recycled: u64) {
        if let Some(s) = &self.sink {
            s.record_arena(created, recycled);
        }
    }

    /// Per-worker `(created, recycled)` arena counts, indexed by worker slot.
    pub fn record_arena_workers(&self, per_worker: &[(u64, u64)]) {
        if let Some(s) = &self.sink {
            s.record_arena_workers(per_worker);
        }
    }

    /// Worker-pool counter deltas (see [`ThreadsSnapshot`]).
    pub fn record_threads(&self, delta: &ThreadsSnapshot) {
        if let Some(s) = &self.sink {
            s.record_threads(delta);
        }
    }

    pub fn record_cycle(&self, index: u64, ns: u64, residual: f64) {
        if let Some(s) = &self.sink {
            s.record_cycle(CycleEvent {
                index,
                ns,
                residual,
            });
        }
    }

    /// Fault-injection counter deltas, merged per site label.
    pub fn record_chaos(&self, delta: &ChaosSnapshot) {
        if let Some(s) = &self.sink {
            s.record_chaos(delta);
        }
    }

    /// Attach a key/value to the report's `meta` section (last write wins).
    pub fn set_meta(&self, key: &str, value: impl Into<String>) {
        if let Some(s) = &self.sink {
            let mut meta = s.meta.lock().unwrap();
            let value = value.into();
            if let Some(kv) = meta.iter_mut().find(|(k, _)| k == key) {
                kv.1 = value;
            } else {
                meta.push((key.to_string(), value));
            }
        }
    }

    /// Snapshot everything collected so far (plus the process-wide kernel
    /// dispatch histogram). `None` for a disabled handle.
    pub fn report(&self) -> Option<Report> {
        let sink = self.sink.as_ref()?;
        let stages = sink
            .stages
            .lock()
            .unwrap()
            .iter()
            .map(|s| StageReport {
                name: s.name.clone(),
                kind: s.kind.clone(),
                ns: s.ns.load(Ordering::Relaxed),
                invocations: s.invocations.load(Ordering::Relaxed),
                tiles: s.tiles.load(Ordering::Relaxed),
                cells: s.cells.load(Ordering::Relaxed),
            })
            .collect();
        let mut ops: Vec<OpReport> = sink
            .ops
            .lock()
            .unwrap()
            .iter()
            .map(|o| OpReport {
                index: o.index,
                mnemonic: o.mnemonic.clone(),
                ns: o.ns.load(Ordering::Relaxed),
                invocations: o.invocations.load(Ordering::Relaxed),
            })
            .collect();
        ops.sort_by_key(|o| o.index);
        Some(Report {
            meta: sink.meta.lock().unwrap().clone(),
            stages,
            ops,
            plan_cache: PlanCacheSnapshot {
                hits: sink.plan_cache_hits.load(Ordering::Relaxed),
                misses: sink.plan_cache_misses.load(Ordering::Relaxed),
                evictions: sink.plan_cache_evictions.load(Ordering::Relaxed),
            },
            server: *sink.server.lock().unwrap(),
            shards: sink.shards.lock().unwrap().clone(),
            tuner: *sink.tuner.lock().unwrap(),
            dispatch: dispatch::snapshot(),
            kernel_impls: dispatch::impl_snapshot(),
            kernel_tiers: dispatch::tier_snapshot(),
            tile_plan: tile_plan::snapshot(),
            threads: ThreadsSnapshot {
                workers: sink.threads_workers.load(Ordering::Relaxed),
                regions: sink.threads_regions.load(Ordering::Relaxed),
                items: sink.threads_items.load(Ordering::Relaxed),
                parks: sink.threads_parks.load(Ordering::Relaxed),
            },
            pool: PoolSnapshot {
                hits: sink.pool_hits.load(Ordering::Relaxed),
                misses: sink.pool_misses.load(Ordering::Relaxed),
                allocated_bytes: sink.pool_allocated.load(Ordering::Relaxed),
                peak_live_bytes: sink.pool_peak.load(Ordering::Relaxed),
            },
            arena_created: sink.arena_created.load(Ordering::Relaxed),
            arena_recycled: sink.arena_recycled.load(Ordering::Relaxed),
            arena_workers: sink.arena_workers.lock().unwrap().clone(),
            chaos: ChaosSnapshot {
                sites: sink.chaos.lock().unwrap().clone(),
            },
            cycles: sink.cycles.lock().unwrap().clone(),
        })
    }
}

/// Hot-path handle for one stage: three relaxed atomic adds per record,
/// or nothing at all when the owning trace is disabled.
#[derive(Clone, Debug)]
pub struct StageHandle {
    agg: Option<Arc<StageAgg>>,
}

impl StageHandle {
    /// A handle that records nothing.
    pub fn disabled() -> StageHandle {
        StageHandle { agg: None }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.agg.is_some()
    }

    #[inline]
    pub fn record(&self, ns: u64, tiles: u64, cells: u64) {
        if let Some(agg) = &self.agg {
            agg.add(ns, tiles, cells);
        }
    }
}

/// Hot-path handle for one schedule op: two relaxed atomic adds per
/// record, or nothing at all when the owning trace is disabled.
#[derive(Clone, Debug)]
pub struct OpHandle {
    agg: Option<Arc<OpAgg>>,
}

impl OpHandle {
    /// A handle that records nothing.
    pub fn disabled() -> OpHandle {
        OpHandle { agg: None }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.agg.is_some()
    }

    #[inline]
    pub fn record(&self, ns: u64) {
        if let Some(agg) = &self.agg {
            agg.add(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct StageReport {
    pub name: String,
    pub kind: String,
    pub ns: u64,
    pub invocations: u64,
    pub tiles: u64,
    pub cells: u64,
}

/// One row of the op-level timeline: a schedule op's program index,
/// mnemonic, and accumulated time over all interpreter passes.
#[derive(Clone, Debug)]
pub struct OpReport {
    pub index: u64,
    pub mnemonic: String,
    pub ns: u64,
    pub invocations: u64,
}

/// A point-in-time snapshot of one [`Trace`], renderable as JSON.
#[derive(Clone, Debug)]
pub struct Report {
    pub meta: Vec<(String, String)>,
    pub stages: Vec<StageReport>,
    pub ops: Vec<OpReport>,
    pub plan_cache: PlanCacheSnapshot,
    /// Solve-service counters; all-zero (and omitted from the JSON) unless
    /// a `gmg-server` instance published into this trace.
    pub server: ServerSnapshot,
    /// Per-shard event-core counters; empty unless the sharded server
    /// published them.
    pub shards: Vec<ShardSnapshot>,
    /// Online-tuner counters; all-zero (and omitted from the JSON) unless
    /// the server ran with `--tune-online`.
    pub tuner: TunerSnapshot,
    pub dispatch: [u64; dispatch::KINDS],
    /// Per-`KernelImpl` case-execution histogram, indexed like
    /// [`dispatch::IMPL_LABELS`].
    pub kernel_impls: [u64; dispatch::IMPLS],
    /// Per-`KernelTier` case-execution histogram (scalar-unrolled vs
    /// lane-safe vs fast-math), indexed like [`dispatch::TIER_LABELS`].
    /// Shares its total with `kernel_impls`.
    pub kernel_tiers: [u64; dispatch::TIERS],
    /// Process-wide totals of tile plans built and worker scratch created
    /// (see [`tile_plan`]).
    pub tile_plan: tile_plan::TilePlanSnapshot,
    /// Worker-pool utilization aggregated over the trace's lifetime.
    pub threads: ThreadsSnapshot,
    pub pool: PoolSnapshot,
    pub arena_created: u64,
    pub arena_recycled: u64,
    /// Per-worker `(created, recycled)` arena counts, indexed by worker slot.
    pub arena_workers: Vec<(u64, u64)>,
    /// Fault-injection counters per chaos site (empty when chaos is off).
    pub chaos: ChaosSnapshot,
    pub cycles: Vec<CycleEvent>,
}

impl Report {
    pub fn to_json(&self) -> String {
        json::report_to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        let h = t.stage("sm", "overlapped");
        h.record(100, 1, 64);
        t.record_cycle(0, 5, 1.0);
        assert!(!t.is_enabled());
        assert!(t.report().is_none());
    }

    #[test]
    fn spans_aggregate_by_name_and_kind() {
        let t = Trace::enabled();
        let h1 = t.stage("sm", "overlapped");
        let h2 = t.stage("sm", "overlapped");
        h1.record(100, 2, 64);
        h2.record(50, 1, 32);
        t.stage("r", "untiled").record(10, 1, 16);
        let r = t.report().unwrap();
        assert_eq!(r.stages.len(), 2);
        let sm = r.stages.iter().find(|s| s.name == "sm").unwrap();
        assert_eq!((sm.ns, sm.invocations, sm.tiles, sm.cells), (150, 2, 3, 96));
    }

    #[test]
    fn pool_deltas_sum_and_peak_maxes() {
        let t = Trace::enabled();
        t.record_pool(&PoolSnapshot {
            hits: 1,
            misses: 2,
            allocated_bytes: 100,
            peak_live_bytes: 80,
        });
        t.record_pool(&PoolSnapshot {
            hits: 3,
            misses: 0,
            allocated_bytes: 0,
            peak_live_bytes: 40,
        });
        let r = t.report().unwrap();
        assert_eq!(r.pool.hits, 4);
        assert_eq!(r.pool.misses, 2);
        assert_eq!(r.pool.allocated_bytes, 100);
        assert_eq!(r.pool.peak_live_bytes, 80);
    }

    #[test]
    fn json_is_structurally_sound() {
        let t = Trace::enabled();
        t.set_meta("source", "unit-test \"quoted\"");
        t.stage("sm", "diamond").record(1_000, 4, 256);
        t.record_cycle(0, 2_000, 0.125);
        let s = t.report().unwrap().to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        for key in [
            "\"meta\"",
            "\"stages\"",
            "\"ops\"",
            "\"plan_cache\"",
            "\"dispatch\"",
            "\"kernel_impls\"",
            "\"kernel_tiers\"",
            "\"threads\"",
            "\"pool\"",
            "\"arena\"",
            "\"workers\"",
            "\"tile_plan\"",
            "\"chaos\"",
            "\"cycles\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.contains("\\\"quoted\\\""));
    }

    #[test]
    fn tile_plan_block_has_its_five_totals() {
        // process-wide statics shared with every other test: compare deltas
        let before = tile_plan::snapshot();
        tile_plan::record_plan(12, 96, 4096);
        tile_plan::record_plan(4, 20, 1024);
        tile_plan::record_scratch(65536);
        let r = Trace::enabled().report().unwrap();
        let (now, then) = (r.tile_plan, before);
        assert_eq!(now.builds - then.builds, 2);
        assert_eq!(now.tiles - then.tiles, 16);
        assert_eq!(now.stage_tiles - then.stage_tiles, 116);
        assert_eq!(now.plan_bytes - then.plan_bytes, 5120);
        assert_eq!(now.scratch_bytes - then.scratch_bytes, 65536);
        let s = r.to_json();
        let block = &s[s.find("\"tile_plan\": {").expect("tile_plan block")..];
        let block = &block[..=block.find('}').unwrap()];
        assert_eq!(
            block,
            format!(
                "\"tile_plan\": {{\"builds\": {}, \"tiles\": {}, \"stage_tiles\": {}, \
                 \"plan_bytes\": {}, \"scratch_bytes\": {}}}",
                now.builds, now.tiles, now.stage_tiles, now.plan_bytes, now.scratch_bytes
            )
        );
    }

    #[test]
    fn op_timeline_sorts_by_index_and_snapshots_plan_cache() {
        let t = Trace::enabled();
        let late = t.op(3, "run_diamond");
        let early = t.op(0, "pool_alloc");
        late.record(300);
        late.record(200);
        early.record(10);
        t.record_plan_cache(5, 2, 0);
        t.record_plan_cache(7, 2, 1); // snapshot semantics: last publish wins
        let r = t.report().unwrap();
        assert_eq!(r.ops.len(), 2);
        assert_eq!(
            (r.ops[0].index, r.ops[0].mnemonic.as_str()),
            (0, "pool_alloc")
        );
        assert_eq!((r.ops[1].ns, r.ops[1].invocations), (500, 2));
        assert_eq!(
            r.plan_cache,
            PlanCacheSnapshot {
                hits: 7,
                misses: 2,
                evictions: 1
            }
        );
    }

    #[test]
    fn server_snapshot_last_publish_wins_and_renders() {
        let t = Trace::enabled();
        assert!(t.report().unwrap().server.is_empty());
        // empty snapshot → no "server" block in the JSON
        assert!(!t.report().unwrap().to_json().contains("\"server\""));

        t.record_server(&ServerSnapshot {
            requests: 5,
            ok: 4,
            ..Default::default()
        });
        t.record_server(&ServerSnapshot {
            requests: 9,
            ok: 7,
            exec_errors: 1,
            rejected_queue_full: 2,
            session_hits: 6,
            session_misses: 3,
            sessions_evicted: 1,
            pipelines_built: 5,
            engines_created: 3,
            queue_max_depth: 4,
            tuned_applied: 1,
            ..Default::default()
        });
        let r = t.report().unwrap();
        assert_eq!(r.server.requests, 9, "snapshot semantics: last wins");
        let s = r.to_json();
        assert!(s.contains("\"server\""));
        assert!(s.contains("\"rejected_queue_full\": 2"));
        assert!(s.contains("\"session_hits\": 6"));
        assert!(s.contains("\"sessions_evicted\": 1, \"pipelines_built\": 5"));
        assert!(s.contains("\"queue_max_depth\": 4"));
        assert!(s.contains("\"evictions\""));
    }

    #[test]
    fn chaos_deltas_merge_per_site() {
        let t = Trace::enabled();
        t.record_chaos(&ChaosSnapshot {
            sites: vec![
                ChaosSiteSnapshot {
                    site: "pool_alloc".into(),
                    armed: 4,
                    fired: 2,
                    recovered: 2,
                },
                ChaosSiteSnapshot {
                    site: "op_untiled".into(),
                    armed: 1,
                    fired: 1,
                    recovered: 1,
                },
            ],
        });
        t.record_chaos(&ChaosSnapshot {
            sites: vec![ChaosSiteSnapshot {
                site: "pool_alloc".into(),
                armed: 2,
                fired: 1,
                recovered: 1,
            }],
        });
        let r = t.report().unwrap();
        assert_eq!(r.chaos.sites.len(), 2);
        let pa = r
            .chaos
            .sites
            .iter()
            .find(|s| s.site == "pool_alloc")
            .unwrap();
        assert_eq!((pa.armed, pa.fired, pa.recovered), (6, 3, 3));
        assert_eq!(r.chaos.total_fired(), 4);
        let s = r.to_json();
        assert!(s.contains("\"chaos\""));
        assert!(s.contains("\"pool_alloc\""));
        assert!(s.contains("\"fired\": 4"), "totals line missing in {s}");
    }

    #[test]
    fn threads_workers_max_merge_and_arena_workers_sum() {
        let t = Trace::enabled();
        t.record_threads(&ThreadsSnapshot {
            workers: 3,
            regions: 2,
            items: 10,
            parks: 4,
        });
        t.record_threads(&ThreadsSnapshot {
            workers: 3,
            regions: 1,
            items: 5,
            parks: 2,
        });
        t.record_arena_workers(&[(2, 0), (1, 3)]);
        t.record_arena_workers(&[(0, 2), (0, 1), (1, 0)]);
        let r = t.report().unwrap();
        // workers is a level (max), the rest accumulate
        assert_eq!(
            r.threads,
            ThreadsSnapshot {
                workers: 3,
                regions: 3,
                items: 15,
                parks: 6
            }
        );
        assert_eq!(r.arena_workers, vec![(2, 2), (1, 4), (1, 0)]);
        let s = r.to_json();
        assert!(s.contains("\"workers\": 3"));
    }
}
