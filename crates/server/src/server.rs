//! The solve service: an event-driven core of shard-per-core readiness
//! loops feeding per-shard QoS admission queues and solve workers.
//!
//! Threading model (all std; the epoll surface comes from the in-tree
//! `shim-epoll` crate):
//!
//! ```text
//!            ┌─ shard 0 event loop ── epoll(listener, waker, conns)
//!            │     │ nonblocking accept → round-robin to a shard
//!            │     │ ring-buffer frame decode → admit → QoS queues
//! N shards ──┤     ▼
//!            │  per-shard {latency, batch} queues (Mutex + Condvar)
//!            │     │ weighted dequeue (latency gets `LATENCY_CREDIT`
//!            │     ▼  pops per batch pop when both classes wait)
//!            └─ shard workers ──▶ shard SessionManager lease → cycles →
//!                                 Complete message → shard waker →
//!                                 event loop flushes in request order
//! ```
//!
//! Every shard owns its listener share, connections, admission queues,
//! tenant budgets, and `SessionManager` outright — there is no cross-shard
//! lock on the steady-state path. Connections land on a shard round-robin
//! at accept (the tenant is unknown until the first solve payload) and
//! migrate once to `shard_for_tenant(tenant)` when the first solve frame
//! names one, so a tenant's warm engines stay shard-local across
//! reconnects.
//!
//! Event loops and workers pin themselves at start: one CPU per worker,
//! the event loop on its first worker's CPU (`affinity` has the why).
//!
//! Rejections are *responses*, not failures: `QueueFull`, `TenantLimit` and
//! `ShuttingDown` error frames leave the connection open (the 429 shape),
//! and `QueueFull` is per-QoS-class — a batch flood fills the batch queue
//! without consuming latency-class admission slots. A typed `ExecError` —
//! including injected chaos faults — becomes an `ExecFailed` error frame;
//! it never kills the connection, the worker, or the server. Only an
//! unreadable *frame* closes a connection.
//!
//! Lifecycle is one admission `Gate`: a count of admitted-but-unanswered
//! jobs plus a CLOSED bit. Admission enters it, every answer (a reply or
//! an admission rejection) leaves it. Shutdown (`OP_SHUTDOWN` or
//! [`ServerHandle::begin_shutdown`]) closes it and wakes every shard
//! through its eventfd waker (no self-connection): new solves are refused
//! `ShuttingDown`, and every job that entered before the close still runs,
//! because workers exit only once the gate is *drained* (closed and
//! empty). The call that drains it — the close itself, or the last leave —
//! wakes every event loop and worker; the event loops then release parked
//! shutdown ACKs, flush, and close every connection. No thread watches the
//! drain. [`ServerHandle::join`] joins the threads and publishes the final
//! global and per-shard counters into the trace sink.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gmg_trace::{
    batch_hist_bucket, ServerSnapshot, ShardSnapshot, Trace, BATCH_HIST_BUCKETS, SCENARIO_KINDS,
    SCENARIO_LABELS,
};
use gmg_multigrid::scenario::ScenarioSpec;
use polymg::{ChaosOptions, KernelTier, TunedStore};
use shim_epoll::{Poller, Waker};

use crate::protocol::{self, BatchSolveResponse, ErrorCode, SolveRequest, SolveResponse};
use crate::session::SessionManager;
use crate::shard::ShardMsg;
use crate::tuner::{Observation, Tuner, TunerConfig};

/// Server construction options.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Event-loop shards. Each shard owns its connections, admission
    /// queues, tenant budgets, session manager, and `workers` solve
    /// threads; connections are pinned to `shard_for_tenant` of their
    /// tenant so warm engines stay shard-local.
    pub shards: usize,
    /// Solve worker threads *per shard*.
    pub workers: usize,
    /// Per-class admission queue capacity (each shard has one latency and
    /// one batch queue); a full class queue rejects with `QueueFull`.
    pub queue_capacity: usize,
    /// Maximum in-flight solves per tenant; beyond it, `TenantLimit`.
    pub tenant_cap: usize,
    /// Engine worker threads per leased runner.
    pub engine_threads: usize,
    /// Deterministic fault injection armed on every engine.
    pub chaos: Option<ChaosOptions>,
    /// Persisted autotuned configurations, applied at session creation.
    pub tuned: Option<TunedStore>,
    /// Online autotuning (`--tune-online`): background search
    /// trials on idle worker capacity, winners recorded into the shared
    /// tuned store (and persisted to its path). `None` disables the tuner.
    pub tuner: Option<TunerConfig>,
    /// Kernel tier of every session (`--no-simd` selects
    /// [`KernelTier::Scalar`], `--fast-math` the reassociating
    /// [`KernelTier::FastMath`], which changes numerics). Part of every
    /// session's plan fingerprint.
    pub tier: KernelTier,
    /// Trace sink for request spans and final counters.
    pub trace: Trace,
    /// Artificial per-solve service delay (tests use it to hold the queue
    /// at a known depth; never set on a production path).
    pub service_delay: Option<Duration>,
    /// Admission coalescing window. `None` (the default) disables
    /// coalescing entirely: every queued request runs as its own engine
    /// pass. `Some(ZERO)` merges only what is already queued when a worker
    /// picks up a request; `Some(d)` additionally lets the worker wait up
    /// to `d` for more same-shape requests to arrive. The window is also
    /// the fairness bound: no request is delayed by coalescing for more
    /// than `d` beyond its natural queue residency. Coalescing never
    /// crosses QoS classes.
    pub coalesce_window: Option<Duration>,
    /// Maximum right-hand sides per coalesced engine pass (a single
    /// `SOLVE_BATCH` frame may still carry up to [`protocol::MAX_BATCH`]).
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            workers: 2,
            queue_capacity: 16,
            tenant_cap: 4,
            engine_threads: 1,
            chaos: None,
            tuned: None,
            tuner: None,
            tier: KernelTier::LaneSafe,
            trace: Trace::disabled(),
            service_delay: None,
            coalesce_window: None,
            max_batch: 16,
        }
    }
}

/// Stable shard assignment for a tenant: a splitmix64 finalizer over the
/// tenant id, so the mapping survives reconnects and server restarts (the
/// point of shard-local warm sessions).
pub fn shard_for_tenant(tenant: u32, nshards: usize) -> usize {
    if nshards <= 1 {
        return 0;
    }
    (polymg::splitmix64(u64::from(tenant)) % nshards as u64) as usize
}

/// Admission QoS class of a job, derived from its opcode (`Job::class`):
/// interactive single solves are latency-sensitive, client batches are
/// throughput work that may wait behind them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QosClass {
    /// Single `OP_SOLVE` / `OP_SOLVE_SCENARIO` requests.
    Latency,
    /// `OP_SOLVE_BATCH` requests.
    Batch,
}

impl QosClass {
    /// Lowercase label used in error messages and stats.
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Latency => "latency",
            QosClass::Batch => "batch",
        }
    }
}

#[derive(Default)]
struct Counters {
    /// Grids admitted (a batch frame of N counts N).
    requests: AtomicU64,
    /// Grids answered inside a result frame.
    ok: AtomicU64,
    /// Typed exec-error frames sent (one per job, whatever its size).
    exec_errors: AtomicU64,
    protocol_errors: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_tenant: AtomicU64,
    rejected_shutdown: AtomicU64,
    queue_max_depth: AtomicU64,
    /// Engine passes that swept ≥ 2 right-hand sides.
    batches: AtomicU64,
    /// Queued jobs merged into another job's engine pass.
    coalesced: AtomicU64,
    /// Engine-pass RHS-count histogram (see [`batch_hist_bucket`]).
    batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    /// Grids solved per scenario (indexed by [`polymg::Scenario::wire_id`]).
    scenario_solves: [AtomicU64; SCENARIO_KINDS],
    /// Grids solved with mixed-precision smoothing chains.
    mixed_solves: AtomicU64,
}

impl Counters {
    fn bump_depth(&self, depth: u64) {
        self.queue_max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one engine pass of `total_rhs` grids merged from `njobs`
    /// queued jobs.
    fn record_pass(&self, total_rhs: usize, njobs: usize) {
        if total_rhs >= 2 {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        if njobs > 1 {
            self.coalesced.fetch_add((njobs - 1) as u64, Ordering::Relaxed);
        }
        self.batch_hist[batch_hist_bucket(total_rhs)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-shard event-core counters (lock-free; snapshotted into
/// [`ShardSnapshot`] at join).
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub accepted: AtomicU64,
    pub adopted: AtomicU64,
    pub frames: AtomicU64,
    pub wakeups: AtomicU64,
    pub dequeued_latency: AtomicU64,
    pub dequeued_batch: AtomicU64,
    pub queue_max_depth: AtomicU64,
}

/// One admitted job travelling from a shard's readiness loop to one of its
/// workers: a single solve (one request) or a client batch
/// (shape-homogeneous by decode). Either way it is answered with exactly
/// one frame, routed back to `(shard, conn, seq)`.
pub(crate) struct Job {
    pub reqs: Vec<SolveRequest>,
    /// The solve opcode the job arrived under: its QoS class and its reply
    /// frame derive from it ([`Job::class`], [`Job::reply`]).
    pub op: u8,
    /// [`coalesce_key`] of the job's requests: the coalescing window's
    /// candidate filter (verified by [`SolveRequest::same_plan_shape`]
    /// before any merge). Nobody reads it with the window off, so it is 0
    /// then — the event loop does not hash grids for nothing.
    pub key: u64,
    /// Shard owning the requesting connection (reply routing).
    pub shard: usize,
    /// Connection token on that shard.
    pub conn: u64,
    /// Per-connection response sequence number (responses are transmitted
    /// strictly in request order even under pipelining).
    pub seq: u64,
    pub enqueued: Instant,
}

impl Job {
    fn rhs(&self) -> usize {
        self.reqs.len()
    }

    fn class(&self) -> QosClass {
        if self.op == protocol::OP_SOLVE_BATCH {
            QosClass::Batch
        } else {
            QosClass::Latency
        }
    }

    /// The reply to this job's solved grids: opcode `request | 0x80`, and a
    /// body framed like the request — a [`BatchSolveResponse`] for a client
    /// batch, a [`SolveResponse`] for a single solve.
    fn reply(&self, elapsed_ns: u64, mut vs: Vec<Vec<f64>>) -> (u8, Vec<u8>) {
        let payload = if self.op == protocol::OP_SOLVE_BATCH {
            BatchSolveResponse { elapsed_ns, vs }.encode()
        } else {
            let v = vs.pop().expect("one grid per single job");
            SolveResponse { elapsed_ns, v }.encode()
        };
        (self.op | 0x80, payload)
    }
}

/// Hash of everything [`SolveRequest::same_plan_shape`] compares (tenant
/// excluded): the request shape, `iters` and the coefficient grid's bits.
fn coalesce_key(req: &SolveRequest) -> u64 {
    let mut h = DefaultHasher::new();
    req.shape().hash(&mut h);
    req.iters.hash(&mut h);
    for c in &req.coeff {
        c.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Weighted round-robin credit of the latency class: while both QoS
/// queues are nonempty, this many latency jobs are dequeued for every
/// batch job (work-conserving — an empty peer class never idles a worker).
const LATENCY_CREDIT: u32 = 4;

/// The two admission queues of one shard, the weighted-round-robin credit
/// that arbitrates between them, and the tenant budgets admission charges:
/// one mutex, so admission takes one lock.
#[derive(Default)]
pub(crate) struct QosQueues {
    latency: VecDeque<Job>,
    batch: VecDeque<Job>,
    /// Latency pops taken since the last batch pop (only consulted when
    /// both queues are nonempty).
    spent: u32,
    /// In-flight jobs per tenant (absent = none).
    tenants: HashMap<u32, usize>,
}

impl QosQueues {
    fn len(&self) -> usize {
        self.latency.len() + self.batch.len()
    }

    fn class_len(&self, class: QosClass) -> usize {
        match class {
            QosClass::Latency => self.latency.len(),
            QosClass::Batch => self.batch.len(),
        }
    }

    pub(crate) fn deque_mut(&mut self, class: QosClass) -> &mut VecDeque<Job> {
        match class {
            QosClass::Latency => &mut self.latency,
            QosClass::Batch => &mut self.batch,
        }
    }

    /// Work-conserving weighted dequeue: with both classes waiting, serve
    /// [`LATENCY_CREDIT`] latency jobs per batch job; with one class
    /// waiting, serve it unconditionally (and refill the credit on a batch
    /// pop so a later contention round starts with a full latency budget).
    fn pop_weighted(&mut self) -> Option<Job> {
        match (self.latency.is_empty(), self.batch.is_empty()) {
            (true, true) => None,
            (false, true) => self.latency.pop_front(),
            (false, false) if self.spent < LATENCY_CREDIT => {
                self.spent += 1;
                self.latency.pop_front()
            }
            _ => {
                self.spent = 0;
                self.batch.pop_front()
            }
        }
    }

    /// Give one unit of `tenant`'s budget back.
    fn release_tenant(&mut self, tenant: u32) {
        if let Some(c) = self.tenants.get_mut(&tenant) {
            *c -= 1;
            if *c == 0 {
                self.tenants.remove(&tenant);
            }
        }
    }
}

/// The admission gate: admitted-but-unanswered jobs in the low bits, and
/// [`Gate::CLOSED`] once shutdown began. A refused entry changes nothing,
/// so once the gate reads drained (closed, nothing in flight) it stays
/// drained; exactly one call — a [`close`](Gate::close) or a
/// [`leave`](Gate::leave) — reports that transition.
#[derive(Default)]
pub(crate) struct Gate(AtomicU64);

impl Gate {
    const CLOSED: u64 = 1 << 63;

    /// Count one job in, unless the gate is closed (`false`: refuse it).
    fn enter(&self) -> bool {
        self.0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |g| {
                (g & Gate::CLOSED == 0).then_some(g + 1)
            })
            .is_ok()
    }

    /// Count one entered job out; `true` when this drained the gate.
    fn leave(&self) -> bool {
        self.0.fetch_sub(1, Ordering::SeqCst) == Gate::CLOSED | 1
    }

    /// Refuse every later entry; `true` when this drained the gate
    /// (nothing was in flight and it was open).
    fn close(&self) -> bool {
        self.0.fetch_or(Gate::CLOSED, Ordering::SeqCst) == 0
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.0.load(Ordering::SeqCst) & Gate::CLOSED != 0
    }

    /// Closed and empty: every admitted job has been answered.
    pub(crate) fn is_drained(&self) -> bool {
        self.0.load(Ordering::SeqCst) == Gate::CLOSED
    }

    /// Admitted jobs not yet answered (queued or executing).
    pub(crate) fn in_flight(&self) -> u64 {
        self.0.load(Ordering::SeqCst) & !Gate::CLOSED
    }
}

/// Everything one shard owns: its readiness loop's poller and waker, the
/// message inbox other threads reach it through, its QoS queues and tenant
/// budgets, and warm sessions.
pub(crate) struct Shard {
    pub poller: Poller,
    pub waker: Waker,
    /// Cross-thread mailbox (connection adoptions, solve completions);
    /// drained by the shard's event loop after each wakeup.
    inbox: Mutex<Vec<ShardMsg>>,
    queues: Mutex<QosQueues>,
    queue_cv: Condvar,
    pub sessions: SessionManager,
    pub counters: ShardCounters,
}

impl Shard {
    /// Post a message to this shard and wake its event loop.
    pub(crate) fn send(&self, msg: ShardMsg) {
        self.inbox.lock().unwrap().push(msg);
        self.waker.wake();
    }

    pub(crate) fn take_inbox(&self) -> Vec<ShardMsg> {
        std::mem::take(&mut *self.inbox.lock().unwrap())
    }
}

/// State every server thread shares: the configuration, the admission
/// [`Gate`] (the whole lifecycle: event loops close out and workers exit
/// once it drains, the tuner stops once it closes and trials only while it
/// is empty), the counters and the shards.
pub(crate) struct Shared {
    pub addr: SocketAddr,
    pub queue_capacity: usize,
    pub tenant_cap: usize,
    pub max_batch: usize,
    pub service_delay: Option<Duration>,
    pub coalesce_window: Option<Duration>,
    pub gate: Gate,
    counters: Counters,
    trace: Trace,
    pub shards: Vec<Shard>,
    /// Online tuner (counters + observation mailbox + winner store);
    /// `None` unless the server runs with `--tune-online`.
    pub(crate) tuner: Option<Arc<Tuner>>,
}

impl Shared {
    pub(crate) fn count_protocol_error(&self) {
        self.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn tuner_handle(&self) -> Option<Arc<Tuner>> {
        self.tuner.clone()
    }

    fn snapshot(&self) -> ServerSnapshot {
        let sum = |f: &dyn Fn(&Shard) -> u64| -> u64 { self.shards.iter().map(f).sum() };
        ServerSnapshot {
            requests: self.counters.requests.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            exec_errors: self.counters.exec_errors.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            rejected_queue_full: self.counters.rejected_queue_full.load(Ordering::Relaxed),
            rejected_tenant: self.counters.rejected_tenant.load(Ordering::Relaxed),
            rejected_shutdown: self.counters.rejected_shutdown.load(Ordering::Relaxed),
            session_hits: sum(&|s| s.sessions.session_hits.load(Ordering::Relaxed)),
            session_misses: sum(&|s| s.sessions.session_misses.load(Ordering::Relaxed)),
            sessions_evicted: sum(&|s| s.sessions.evicted.load(Ordering::Relaxed)),
            pipelines_built: sum(&|s| s.sessions.pipelines_built.load(Ordering::Relaxed)),
            engines_created: sum(&|s| s.sessions.engines_created.load(Ordering::Relaxed)),
            queue_max_depth: self.counters.queue_max_depth.load(Ordering::Relaxed),
            tuned_applied: sum(&|s| s.sessions.tuned_applied.load(Ordering::Relaxed)),
            batches: self.counters.batches.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            batch_hist: std::array::from_fn(|i| {
                self.counters.batch_hist[i].load(Ordering::Relaxed)
            }),
            scenario_solves: std::array::from_fn(|i| {
                self.counters.scenario_solves[i].load(Ordering::Relaxed)
            }),
            mixed_solves: self.counters.mixed_solves.load(Ordering::Relaxed),
        }
    }

    fn shard_snapshot(&self, i: usize) -> ShardSnapshot {
        let sh = &self.shards[i];
        ShardSnapshot {
            shard: i as u64,
            accepted: sh.counters.accepted.load(Ordering::Relaxed),
            adopted: sh.counters.adopted.load(Ordering::Relaxed),
            frames: sh.counters.frames.load(Ordering::Relaxed),
            wakeups: sh.counters.wakeups.load(Ordering::Relaxed),
            dequeued_latency: sh.counters.dequeued_latency.load(Ordering::Relaxed),
            dequeued_batch: sh.counters.dequeued_batch.load(Ordering::Relaxed),
            session_hits: sh.sessions.session_hits.load(Ordering::Relaxed),
            session_misses: sh.sessions.session_misses.load(Ordering::Relaxed),
            engines_created: sh.sessions.engines_created.load(Ordering::Relaxed),
            queue_max_depth: sh.counters.queue_max_depth.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn stats_text(&self) -> String {
        let s = self.snapshot();
        let sessions: u64 = self.shards.iter().map(|sh| sh.sessions.len() as u64).sum();
        let mut t = String::new();
        let fields = s.fields();
        let (mixed, counters) = fields.split_last().expect("server fields");
        let live = [("sessions", sessions), ("shards", self.shards.len() as u64)];
        for (k, v) in counters.iter().chain(&live).chain([mixed]) {
            t.push_str(&format!("{k} {v}\n"));
        }
        for (label, v) in SCENARIO_LABELS.iter().zip(s.scenario_solves) {
            t.push_str(&format!("scenario_{label} {v}\n"));
        }
        if let Some(tuner) = &self.tuner {
            for (k, v) in tuner.snapshot().fields() {
                t.push_str(&format!("tuner_{k} {v}\n"));
            }
            let entries = tuner.store.lock().unwrap().len();
            t.push_str(&format!("tuner_store_entries {entries}\n"));
        }
        t
    }

    /// Close the gate and wake every shard: its event loop drops the
    /// listener (and closes out, if nothing was in flight), a worker in a
    /// coalescing window ends it. No self-connection — the eventfd waker
    /// interrupts a blocked `epoll_wait` directly.
    pub(crate) fn begin_shutdown(&self) {
        self.gate.close();
        self.wake_all();
    }

    /// Answer one entered job at the gate; the leave that drains it wakes
    /// every thread waiting for the drain.
    fn leave(&self) {
        if self.gate.leave() {
            self.wake_all();
        }
    }

    /// Wake each shard's event loop and workers. The condvar is notified
    /// under the queue lock, so a worker between its drained check and
    /// its wait cannot miss the wake-up.
    fn wake_all(&self) {
        for shard in &self.shards {
            let _q = shard.queues.lock().unwrap();
            shard.queue_cv.notify_all();
            shard.waker.wake();
        }
    }

    /// Route a finished response frame back to the connection that asked
    /// for it (crossing from a worker thread into the owning shard's event
    /// loop). If the connection died meanwhile, the frame is dropped there.
    fn complete(&self, shard: usize, conn: u64, seq: u64, opcode: u8, payload: &[u8]) {
        self.shards[shard].send(ShardMsg::Complete {
            conn,
            seq,
            frame: protocol::frame_bytes(opcode, payload),
        });
    }

    /// Worker side: run one engine pass over every grid of `jobs` (all
    /// plan-shape-equal — a single job, or several coalesced by the window)
    /// and answer each job with exactly one frame.
    fn process_batch(&self, shard_id: usize, mut jobs: Vec<Job>) {
        let total_rhs: usize = jobs.iter().map(Job::rhs).sum();
        self.counters.record_pass(total_rhs, jobs.len());
        for job in &jobs {
            let wait_ns = job.enqueued.elapsed().as_nanos() as u64;
            self.trace
                .record_span("admission-queue", "server", wait_ns, 0, 0);
        }
        if let Some(d) = self.service_delay {
            std::thread::sleep(d);
        }
        let t0 = Instant::now();
        // the request span's label; nothing to build when nothing records it
        let tag = self.trace.is_enabled().then(|| {
            let req0 = &jobs[0].reqs[0];
            format!("{}[{}]", req0.config().tag(), req0.variant_enum().label())
        });
        let solved = self.solve_batch(shard_id, &mut jobs);
        // Give each tenant its budget back *before* its reply is posted: a
        // strict request→reply client may send its next request the moment
        // it reads this one's answer, and must not be refused
        // `TenantLimit` by the solve it has already been answered for.
        {
            let mut q = self.shards[shard_id].queues.lock().unwrap();
            for job in &jobs {
                q.release_tenant(job.reqs[0].tenant);
            }
        }
        match solved {
            Ok(mut vs) => {
                let elapsed_ns = t0.elapsed().as_nanos() as u64;
                // Hand grids back in request order, draining front to back.
                for job in &jobs {
                    let rest = vs.split_off(job.rhs());
                    let grids = std::mem::replace(&mut vs, rest);
                    self.counters.ok.fetch_add(job.rhs() as u64, Ordering::Relaxed);
                    let req = &job.reqs[0];
                    self.counters.scenario_solves[req.scenario as usize]
                        .fetch_add(job.rhs() as u64, Ordering::Relaxed);
                    if req.mixed {
                        self.counters
                            .mixed_solves
                            .fetch_add(job.rhs() as u64, Ordering::Relaxed);
                    }
                    let (opcode, payload) = job.reply(elapsed_ns, grids);
                    self.complete(job.shard, job.conn, job.seq, opcode, &payload);
                }
            }
            Err((code, msg)) => {
                // One typed error frame per job: a mid-batch fault fails
                // every grid of the pass, but each job still gets exactly
                // one answer on its own connection.
                for job in &jobs {
                    if code == ErrorCode::ExecFailed {
                        self.counters.exec_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let payload = protocol::encode_error(code, &msg);
                    self.complete(job.shard, job.conn, job.seq, protocol::OP_ERROR, &payload);
                }
            }
        }
        if let Some(tag) = tag {
            let cells: u64 = jobs
                .iter()
                .flat_map(|j| j.reqs.iter())
                .map(|r| r.f.len() as u64 * r.iters as u64)
                .sum();
            self.trace
                .record_span(&tag, "request", t0.elapsed().as_nanos() as u64, 0, cells);
        }
        // Leave the gate strictly after every completion is posted: the
        // event loops close out the instant it drains, and must then find
        // the completions already in their inboxes.
        for _ in &jobs {
            self.leave();
        }
    }

    /// One lease from the executing shard's session manager, one batched
    /// engine pass per cycle, every grid of every job swept together.
    /// Grids come back flattened in job order. The request `v` vectors are
    /// *taken* (not cloned) as the initial guesses — the wire payload was
    /// already the only copy, so the whole path from socket to engine is
    /// one decode copy.
    fn solve_batch(
        &self,
        shard_id: usize,
        jobs: &mut [Job],
    ) -> Result<Vec<Vec<f64>>, (ErrorCode, String)> {
        let req0 = &jobs[0].reqs[0];
        let spec = ScenarioSpec {
            scenario: req0.scenario_enum(),
            mixed: req0.mixed,
        };
        let (cfg, variant, iters) = (req0.config(), req0.variant_enum(), req0.iters);
        let coeff = (!req0.coeff.is_empty()).then_some(req0.coeff.as_slice());
        let sessions = &self.shards[shard_id].sessions;
        let t0 = Instant::now();
        let mut lease = sessions
            .acquire_scenario(&cfg, variant, spec, coeff)
            .map_err(|errs| (ErrorCode::CompileFailed, errs.join("; ")))?;
        let acquire_ns = t0.elapsed().as_nanos() as u64;
        self.trace
            .record_span("session-acquire", "server", acquire_ns, 0, 0);
        let mut vs: Vec<Vec<f64>> = jobs
            .iter_mut()
            .flat_map(|j| j.reqs.iter_mut())
            .map(|r| std::mem::take(&mut r.v))
            .collect();
        let fs: Vec<&[f64]> = jobs
            .iter()
            .flat_map(|j| j.reqs.iter())
            .map(|r| r.f.as_slice())
            .collect();
        for i in 0..iters {
            if let Err(e) = lease.runner.cycle_batch_with_stats(&mut vs, &fs) {
                // Typed errors leave the engine usable; keep the warm state.
                sessions.release(lease);
                return Err((ErrorCode::ExecFailed, format!("cycle {i}: {e}")));
            }
        }
        // Sample the successful solve for the online tuner (cheap push; the
        // tuner thread opens/advances the per-fingerprint search).
        if let Some(tuner) = &self.tuner {
            tuner.observe(Observation {
                pfp: lease.plan_fp,
                cfg: cfg.clone(),
                variant,
                spec,
            });
        }
        sessions.release(lease);
        Ok(vs)
    }

    /// Admission for one decoded job (a single solve or a client batch,
    /// which occupies one queue slot and one unit of tenant budget) into
    /// `shard_id`'s queues. On success the job is queued; the response
    /// will arrive at `(conn, seq)` via a [`ShardMsg::Complete`].
    pub(crate) fn admit(
        &self,
        shard_id: usize,
        conn: u64,
        seq: u64,
        reqs: Vec<SolveRequest>,
        op: u8,
    ) -> Result<(), (ErrorCode, String)> {
        if !self.gate.enter() {
            self.counters
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err((ErrorCode::ShuttingDown, "server is draining".to_string()));
        }
        let shard = &self.shards[shard_id];
        let tenant = reqs[0].tenant;
        let job = Job {
            key: match self.coalesce_window {
                Some(_) => coalesce_key(&reqs[0]),
                None => 0,
            },
            reqs,
            op,
            shard: shard_id,
            conn,
            seq,
            enqueued: Instant::now(),
        };
        let class = job.class();
        let mut q = shard.queues.lock().unwrap();
        let held = q.tenants.get(&tenant).copied().unwrap_or(0);
        let refused = if held >= self.tenant_cap {
            Some((
                &self.counters.rejected_tenant,
                ErrorCode::TenantLimit,
                format!(
                    "tenant {} already has {} solves in flight",
                    tenant, self.tenant_cap
                ),
            ))
        } else if q.class_len(class) >= self.queue_capacity {
            Some((
                &self.counters.rejected_queue_full,
                ErrorCode::QueueFull,
                format!(
                    "{} admission queue at capacity {}",
                    class.label(),
                    self.queue_capacity
                ),
            ))
        } else {
            None
        };
        if let Some((counter, code, msg)) = refused {
            drop(q);
            counter.fetch_add(1, Ordering::Relaxed);
            self.leave();
            return Err((code, msg));
        }
        *q.tenants.entry(tenant).or_insert(0) += 1;
        self.counters
            .requests
            .fetch_add(job.rhs() as u64, Ordering::Relaxed);
        q.deque_mut(class).push_back(job);
        let depth = q.len() as u64;
        self.counters.bump_depth(depth);
        shard.counters.queue_max_depth.fetch_max(depth, Ordering::Relaxed);
        drop(q);
        shard.queue_cv.notify_one();
        Ok(())
    }
}

/// Pull queued jobs whose plan shape equals `jobs[0]`'s into `jobs`, up to
/// `max_batch` total grids. The hash key is a fast filter; the field-level
/// [`SolveRequest::same_plan_shape`] check guards against collisions.
fn drain_same_shape(q: &mut VecDeque<Job>, jobs: &mut Vec<Job>, max_batch: usize) {
    let mut total: usize = jobs.iter().map(Job::rhs).sum();
    let mut i = 0;
    while i < q.len() && total < max_batch {
        let candidate = &q[i];
        if candidate.key == jobs[0].key
            && candidate.reqs[0].same_plan_shape(&jobs[0].reqs[0])
            && total + candidate.rhs() <= max_batch
        {
            let job = q.remove(i).expect("index checked");
            total += job.rhs();
            jobs.push(job);
        } else {
            i += 1;
        }
    }
}

fn worker_loop(sh: Arc<Shared>, shard_id: usize) {
    let shard = &sh.shards[shard_id];
    loop {
        let jobs = {
            let mut q = shard.queues.lock().unwrap();
            let first = loop {
                if let Some(j) = q.pop_weighted() {
                    break j;
                }
                // Exit only once drained: a job admitted before the close
                // may still be on its way into this queue.
                if sh.gate.is_drained() {
                    return;
                }
                q = shard.queue_cv.wait(q).unwrap();
            };
            let class = first.class();
            let mut jobs = vec![first];
            if let Some(window) = sh.coalesce_window {
                // Coalesce same-shape queued jobs of the same QoS class
                // into this pass: merge whatever is already queued, then
                // (window > 0) keep the pass open until the deadline or the
                // batch is full. The deadline bounds the added latency — no
                // request waits more than `window` beyond its natural queue
                // residency.
                let deadline = Instant::now() + window;
                loop {
                    drain_same_shape(q.deque_mut(class), &mut jobs, sh.max_batch);
                    let total: usize = jobs.iter().map(Job::rhs).sum();
                    if total >= sh.max_batch || sh.gate.is_closed() {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) =
                        shard.queue_cv.wait_timeout(q, deadline - now).unwrap();
                    q = guard;
                    if timeout.timed_out() {
                        drain_same_shape(q.deque_mut(class), &mut jobs, sh.max_batch);
                        break;
                    }
                }
            }
            jobs
        };
        let n = jobs.len() as u64;
        match jobs[0].class() {
            QosClass::Latency => shard.counters.dequeued_latency.fetch_add(n, Ordering::Relaxed),
            QosClass::Batch => shard.counters.dequeued_batch.fetch_add(n, Ordering::Relaxed),
        };
        sh.process_batch(shard_id, jobs);
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::begin_shutdown`] (or send an [`protocol::OP_SHUTDOWN`]
/// frame) and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ServerSnapshot {
        self.shared.snapshot()
    }

    /// Current per-shard event-core counters, one entry per shard.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        (0..self.shared.shards.len())
            .map(|i| self.shared.shard_snapshot(i))
            .collect()
    }

    /// Current online-tuner counters (`None` unless `--tune-online`).
    pub fn tuner_snapshot(&self) -> Option<gmg_trace::TunerSnapshot> {
        self.shared.tuner.as_ref().map(|t| t.snapshot())
    }

    /// A copy of the shared tuned store as the tuner has grown it so far
    /// (`None` when the server has no store at all).
    pub fn tuned_store(&self) -> Option<TunedStore> {
        self.shared
            .tuner
            .as_ref()
            .map(|t| t.store.lock().unwrap().clone())
    }

    /// Close the admission gate (the in-process equivalent of an
    /// [`protocol::OP_SHUTDOWN`] frame, or of SIGTERM in a supervisor).
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Join every server thread, publish final counters into the trace,
    /// and return them. The threads exit once the gate drains, so without
    /// a shutdown this blocks until one arrives — the serve-forever mode of
    /// the CLI.
    pub fn join(mut self) -> ServerSnapshot {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let snap = self.shared.snapshot();
        self.shared.trace.record_server(&snap);
        let shards: Vec<ShardSnapshot> = (0..self.shared.shards.len())
            .map(|i| self.shared.shard_snapshot(i))
            .collect();
        self.shared.trace.record_shards(&shards);
        if let Some(tuner) = &self.shared.tuner {
            self.shared.trace.record_tuner(&tuner.snapshot());
        }
        let cache = polymg::PlanCache::global();
        let (hits, misses) = cache.counters();
        self.shared
            .trace
            .record_plan_cache(hits, misses, cache.evictions());
        snap
    }
}

/// Bind and start the service.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let nshards = config.shards.max(1);
    // One tuned store shared by every shard's session manager AND the
    // online tuner, so a winner recorded anywhere applies to the next
    // acquire on any shard. `--tune-online` without a seed store starts
    // from an empty one.
    let tuned_store: Option<Arc<Mutex<TunedStore>>> = match (&config.tuned, &config.tuner) {
        (Some(t), _) => Some(Arc::new(Mutex::new(t.clone()))),
        (None, Some(_)) => Some(Arc::new(Mutex::new(TunedStore::new()))),
        (None, None) => None,
    };
    let tuner = config.tuner.clone().map(|tc| {
        Arc::new(Tuner::new(
            tc,
            Arc::clone(tuned_store.as_ref().expect("store exists when tuning")),
            config.engine_threads,
            config.chaos,
            config.tier == KernelTier::FastMath,
        ))
    });
    let mut shards = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        shards.push(Shard {
            poller: Poller::new()?,
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            queues: Mutex::new(QosQueues::default()),
            queue_cv: Condvar::new(),
            sessions: SessionManager::with_shared_store(
                tuned_store.clone(),
                config.chaos,
                config.engine_threads,
                workers,
                config.tier,
            ),
            counters: ShardCounters::default(),
        });
    }
    let shared = Arc::new(Shared {
        addr,
        queue_capacity: config.queue_capacity.max(1),
        tenant_cap: config.tenant_cap.max(1),
        max_batch: config.max_batch.max(1),
        service_delay: config.service_delay,
        coalesce_window: config.coalesce_window,
        gate: Gate::default(),
        counters: Counters::default(),
        trace: config.trace,
        shards,
        tuner,
    });

    // One CPU per worker, dealt round-robin over the CPUs this process may
    // use; a shard's event loop rides with its first worker (see
    // `affinity`). A worker that fans out to an engine pool is left to the
    // scheduler — the pool's threads would inherit its one-CPU mask.
    let cpus = if config.engine_threads <= 1 {
        crate::affinity::allowed_cpus()
    } else {
        Vec::new()
    };
    let place = move |shard: usize, worker: usize| {
        if let Some(cpu) = crate::affinity::cpu_for(&cpus, shard, workers, worker) {
            crate::affinity::pin_current(cpu);
        }
    };
    let mut threads = Vec::with_capacity(nshards * (workers + 1) + 1);
    let mut listener = Some(listener);
    for id in 0..nshards {
        let sh = Arc::clone(&shared);
        let l = if id == 0 { listener.take() } else { None };
        let pin = place.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("gmg-server-shard-{id}"))
                .spawn(move || {
                    pin(id, 0);
                    crate::shard::event_loop(sh, id, l)
                })
                .expect("spawn shard event loop"),
        );
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            let pin = place.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gmg-server-worker-{id}-{w}"))
                    .spawn(move || {
                        pin(id, w);
                        worker_loop(sh, id)
                    })
                    .expect("spawn worker"),
            );
        }
    }
    if shared.tuner.is_some() {
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("gmg-server-tuner".to_string())
                .spawn(move || crate::tuner::tuner_loop(sh))
                .expect("spawn tuner"),
        );
    }

    Ok(ServerHandle { shared, threads })
}

/// Render a one-line human summary of a snapshot (CLI shutdown banner).
pub fn summarize(s: &ServerSnapshot, out: &mut impl Write) -> std::io::Result<()> {
    writeln!(
        out,
        "gmg-server: {} requests ({} ok, {} exec errors), rejected {} queue-full / {} tenant / {} shutdown, \
         sessions {} hits / {} misses / {} evicted ({} pipelines built, {} engines), \
         peak queue depth {}, tuned applied {}, \
         {} batched passes ({} coalesced)",
        s.requests,
        s.ok,
        s.exec_errors,
        s.rejected_queue_full,
        s.rejected_tenant,
        s.rejected_shutdown,
        s.session_hits,
        s.session_misses,
        s.sessions_evicted,
        s.pipelines_built,
        s.engines_created,
        s.queue_max_depth,
        s.tuned_applied,
        s.batches,
        s.coalesced
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_tenant_is_stable_and_in_range() {
        for nshards in [1usize, 2, 3, 8] {
            for tenant in 0..64u32 {
                let s = shard_for_tenant(tenant, nshards);
                assert!(s < nshards);
                assert_eq!(s, shard_for_tenant(tenant, nshards), "must be deterministic");
            }
        }
        // single shard degenerates to 0 for every tenant
        assert!(
            (0..100u32).all(|t| shard_for_tenant(t, 1) == 0),
            "nshards=1 must pin everything to shard 0"
        );
        // a handful of tenants spread over >1 shard (not all colliding)
        let spread: std::collections::HashSet<usize> =
            (0..32u32).map(|t| shard_for_tenant(t, 4)).collect();
        assert!(spread.len() > 1, "hash must actually distribute tenants");
    }

    #[test]
    fn weighted_dequeue_interleaves_and_stays_work_conserving() {
        fn job(batched: bool, tag: u64) -> Job {
            Job {
                reqs: Vec::new(),
                op: if batched {
                    protocol::OP_SOLVE_BATCH
                } else {
                    protocol::OP_SOLVE
                },
                key: tag,
                shard: 0,
                conn: 0,
                seq: tag,
                enqueued: Instant::now(),
            }
        }
        let mut q = QosQueues::default();
        for i in 0..12 {
            q.deque_mut(QosClass::Latency).push_back(job(false, i));
        }
        for i in 0..6 {
            q.deque_mut(QosClass::Batch).push_back(job(true, 100 + i));
        }
        // contention: LATENCY_CREDIT latency pops, then one batch pop
        let order: Vec<bool> = std::iter::from_fn(|| q.pop_weighted())
            .map(|j| j.class() == QosClass::Batch)
            .collect();
        assert_eq!(order.len(), 18);
        let round = [false, false, false, false, true];
        assert_eq!(&order[..15], round.repeat(3), "4:1 while both classes wait");
        // after latency empties, remaining batch jobs run back to back
        assert!(order[15..].iter().all(|&b| b), "work-conserving tail");

        // batch alone never starves with an empty latency queue
        let mut q = QosQueues::default();
        q.deque_mut(QosClass::Batch).push_back(job(true, 0));
        assert!(q.pop_weighted().is_some());
    }

    #[test]
    fn a_closed_gate_refuses_entry_and_keeps_its_count() {
        let g = Gate::default();
        assert!(g.enter());
        assert!(!g.close(), "one job in flight: not drained");
        assert!(!g.enter(), "closed: refused");
        assert_eq!(g.in_flight(), 1, "a refused entry changes nothing");
        assert!(g.is_closed() && !g.is_drained());
    }

    #[test]
    fn closing_an_empty_gate_drains_it() {
        let g = Gate::default();
        assert!(!g.is_closed() && !g.is_drained());
        assert!(g.close());
        assert!(g.is_drained());
        assert!(!g.close(), "a second close reports nothing");
        assert!(!g.enter());
        assert!(g.is_drained());
    }

    #[test]
    fn the_last_leave_after_close_drains_the_gate() {
        let k = 5;
        let g = Gate::default();
        for _ in 0..k {
            assert!(g.enter());
        }
        assert!(!g.close());
        for left in 1..k {
            assert!(!g.leave(), "leave {left} of {k} must not drain");
            assert!(!g.is_drained());
        }
        assert!(g.leave(), "the k-th leave drains");
        assert!(g.is_drained());
        assert_eq!(g.in_flight(), 0);
    }

    /// Four threads cycle enter/leave while a fifth closes: exactly one
    /// call reports the drained transition, and a reader that once saw the
    /// gate drained never sees it undrained again.
    #[test]
    fn exactly_one_call_reports_the_drain_under_contention() {
        use std::sync::atomic::AtomicBool;
        for _ in 0..50 {
            let g = Gate::default();
            let reports = AtomicU64::new(0);
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        while g.enter() {
                            if g.leave() {
                                reports.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    });
                }
                s.spawn(|| {
                    let mut seen = false;
                    while !stop.load(Ordering::SeqCst) {
                        let drained = g.is_drained();
                        assert!(drained || !seen, "drained turned back to false");
                        seen |= drained;
                    }
                    assert!(g.is_drained());
                });
                std::thread::sleep(Duration::from_micros(200));
                if g.close() {
                    reports.fetch_add(1, Ordering::SeqCst);
                }
                while !g.is_drained() {
                    std::hint::spin_loop();
                }
                stop.store(true, Ordering::SeqCst);
            });
            assert_eq!(reports.load(Ordering::SeqCst), 1);
            assert!(!g.enter() && g.in_flight() == 0);
        }
    }

    #[test]
    fn stats_and_banner_carry_the_session_registry_counters() {
        let handle = start(ServerConfig::default()).expect("start");
        let cfg = gmg_multigrid::config::MgConfig::new(
            2,
            15,
            gmg_multigrid::config::CycleType::V,
            gmg_multigrid::config::SmoothSteps::s444(),
        );
        let sessions = &handle.shared.shards[0].sessions;
        for _ in 0..3 {
            let lease = sessions
                .acquire(&cfg, polymg::Variant::OptPlus)
                .expect("acquire");
            sessions.release(lease);
        }
        let stats = handle.shared.stats_text();
        assert!(
            stats.contains("session_misses 1\nsessions_evicted 0\npipelines_built 1\n"),
            "{stats}"
        );
        handle.begin_shutdown();
        let snap = handle.join();
        assert_eq!((snap.pipelines_built, snap.sessions_evicted), (1, 0));
        let mut banner = Vec::new();
        summarize(&snap, &mut banner).unwrap();
        let banner = String::from_utf8(banner).unwrap();
        assert!(
            banner.contains("2 hits / 1 misses / 0 evicted (1 pipelines built, 1 engines)"),
            "{banner}"
        );
    }

    /// STATS and the profile JSON are two renderings of one list per
    /// snapshot (`fields()`): a counter added to a snapshot shows up in
    /// both or in neither. What only one side carries is named here.
    #[test]
    fn stats_and_profile_json_name_the_same_counters() {
        use polymg::jsonio::{parse, JsonValue};
        use std::collections::BTreeSet;

        let handle = start(ServerConfig {
            tuner: Some(TunerConfig::default()),
            ..ServerConfig::default()
        })
        .expect("start");
        let stats = handle.shared.stats_text();
        handle.begin_shutdown();
        handle.join();
        // live gauges, not part of any snapshot
        let stats_only = ["sessions", "shards", "tuner_store_entries"];
        let stats_keys: BTreeSet<String> = stats
            .lines()
            .map(|l| l.split(' ').next().unwrap().to_string())
            .filter(|k| !stats_only.contains(&k.as_str()))
            .collect();

        // non-default snapshots: empty blocks are left out of the JSON
        let trace = Trace::enabled();
        trace.record_server(&ServerSnapshot {
            requests: 1,
            ..ServerSnapshot::default()
        });
        trace.record_tuner(&gmg_trace::TunerSnapshot {
            trials: 1,
            ..Default::default()
        });
        let report = trace.report().expect("an enabled trace reports");
        let doc = parse(&report.to_json()).expect("profile JSON parses");
        let members = |v: &JsonValue| -> Vec<String> {
            match v {
                JsonValue::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
                other => panic!("expected an object, found {other:?}"),
            }
        };
        let server = doc.get("server").expect("server block");
        let mut json_keys: BTreeSet<String> = members(server)
            .into_iter()
            // array-valued; STATS has no line for the histogram and
            // flattens the scenario object below
            .filter(|k| k != "batch_hist" && k != "scenario")
            .collect();
        json_keys.extend(
            members(server.get("scenario").expect("scenario object"))
                .iter()
                .map(|k| format!("scenario_{k}")),
        );
        json_keys.extend(
            members(doc.get("tuner").expect("tuner block"))
                .iter()
                .map(|k| format!("tuner_{k}")),
        );
        assert_eq!(stats_keys, json_keys);
    }
}
