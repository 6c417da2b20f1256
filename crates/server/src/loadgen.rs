//! Load-generating client with end-to-end bitwise verification.
//!
//! For every item in the request mix the generator first computes the
//! *expected* answer with a direct in-process `DslRunner` — the same
//! compiled-plan path the server uses, no network involved. It then drives
//! N concurrent connections of mixed 2-D/3-D shapes and cycle types against
//! the server and compares every `SOLVE_OK` response against the expected
//! grid with `f64::to_bits` equality. Because the engine is
//! bitwise-deterministic (regardless of thread count, tiling, or pooled
//! storage), *any* discrepancy — one ULP anywhere in the grid — is a
//! serving bug, not noise.
//!
//! With `batch >= 2` the mix also carries `SOLVE_BATCH` frames: each mix
//! item — scenario items included — gets `batch` RHS-perturbed variants,
//! every one independently reference-solved, and the batched response is
//! verified per grid. Batch frames alternate with same-shape singles so a
//! coalescing server sees mergeable traffic. Counters are *grid*-granular
//! (`requests`, `ok`, `verify_failures`, `dropped`, `exec_error_grids` all
//! count grids); `exec_error_frames` and `batch_frames` count protocol
//! frames.
//!
//! Typed error frames are part of the contract, not failures: `QueueFull`
//! and `TenantLimit` are retried with capped exponential backoff
//! ([`retry_backoff_ms`]), `ExecFailed` (chaos faults) is counted and
//! accepted. Anything else unexpected fails the run. Two latency
//! distributions are kept apart: *service* latency spans one
//! request/response exchange on the wire, *end-to-end* latency spans the
//! whole logical request including backpressure retries and backoff sleeps.
//! Conflating them (the old single `latency_ns`) let retry sleeps masquerade
//! as server time and inflated the published p99.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use gmg_multigrid::solver::setup_poisson;
use polymg::{splitmix64, PipelineOptions, Scenario, Variant};

use crate::protocol::{self, BatchSolveRequest, ErrorCode, SolveRequest};

/// Backoff (milliseconds) before retry number `attempt` (0-based) of a
/// backpressured request: exponential from 2 ms doubling to a 64 ms cap,
/// plus seeded jitter of up to half the base so concurrent clients
/// desynchronise instead of thundering back in lockstep.
///
/// The jitter is strictly smaller than the doubling gap, so below the cap
/// the schedule is monotone for any seed: max(attempt) = 1.5·base <
/// 2·base = min(attempt+1). The old schedule `(1 + attempt % 8) * 2`
/// applied `%` before `+` (precedence bug) and cycled 2–16 ms forever —
/// retry 100 slept *less* than retry 7.
pub fn retry_backoff_ms(attempt: usize, seed: u64) -> u64 {
    let base = 2u64 << attempt.min(5) as u64;
    let jitter = splitmix64(seed ^ (attempt as u64).wrapping_mul(0x9e37)) % (base / 2).max(1);
    base + jitter
}

/// One entry of the request mix.
#[derive(Clone)]
pub struct MixItem {
    pub cfg: MgConfig,
    pub variant: Variant,
    /// Multigrid cycles per request.
    pub iters: u16,
    /// Problem scenario (anything but [`Scenario::Constant`] — or a
    /// mixed-precision opt-in — is sent single as `SOLVE_SCENARIO`).
    pub scenario: Scenario,
    /// Request the mixed-precision (f32) smoothing tier.
    pub mixed: bool,
}

impl MixItem {
    /// A constant-coefficient item (sent single as `SOLVE`).
    pub fn new(cfg: MgConfig, variant: Variant, iters: u16) -> MixItem {
        MixItem {
            cfg,
            variant,
            iters,
            scenario: Scenario::Constant,
            mixed: false,
        }
    }

    /// Switch the item to a scenario (`varcoef` items generate and ship the
    /// canonical [`coeff_field`] grid).
    pub fn with_scenario(mut self, scenario: Scenario) -> MixItem {
        self.scenario = scenario;
        self
    }

    /// Opt into mixed-precision smoothing.
    pub fn with_mixed(mut self) -> MixItem {
        self.mixed = true;
        self
    }
}

/// The default mix: small 2-D and 3-D problems, V and W cycles, two
/// variants — enough shape diversity to exercise several sessions while
/// staying fast enough for CI.
pub fn default_mix() -> Vec<MixItem> {
    let mut v3 = MgConfig::new(3, 15, CycleType::V, SmoothSteps::s444());
    v3.levels = 3;
    let mut w3 = MgConfig::new(3, 15, CycleType::W, SmoothSteps::s1000());
    w3.levels = 3;
    vec![
        MixItem::new(
            MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444()),
            Variant::OptPlus,
            2,
        ),
        MixItem::new(
            MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444()),
            Variant::Opt,
            2,
        ),
        MixItem::new(v3, Variant::OptPlus, 2),
        MixItem::new(w3, Variant::OptPlus, 1),
    ]
}

/// One mix item per requested scenario label, all on the same small 2-D
/// shape so scenario runs stay CI-fast. `constant` maps to the plain
/// `SOLVE` item; every other label (and `mixed == true`) is sent single as
/// `SOLVE_SCENARIO`.
pub fn scenario_mix(scenarios: &[Scenario], mixed: bool) -> Vec<MixItem> {
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let mut mix: Vec<MixItem> = scenarios
        .iter()
        .map(|&sc| MixItem::new(cfg.clone(), Variant::OptPlus, 2).with_scenario(sc))
        .collect();
    if mixed {
        mix.push(MixItem::new(cfg, Variant::OptPlus, 2).with_mixed());
    }
    mix
}

/// Loadgen options.
pub struct LoadgenOptions {
    pub addr: String,
    pub connections: usize,
    pub requests_per_conn: usize,
    /// Tenant ids cycle over `0..tenants`.
    pub tenants: u32,
    /// Max retries for `QueueFull`/`TenantLimit` before counting a drop.
    pub retries: usize,
    /// Send a drain-and-stop frame once the load completes.
    pub shutdown: bool,
    /// Grids per `SOLVE_BATCH` frame; `0` or `1` disables batch frames.
    /// When enabled, every other request on a connection is a batch frame,
    /// the rest stay same-shape singles.
    pub batch: usize,
    /// Mostly-idle connections held open for the whole hot phase (`0`
    /// disables). Each is verified live with a `PING` at setup, and a
    /// churn thread keeps closing and reopening them round-robin while the
    /// solve load runs — the readiness-loop stress case: thousands of
    /// registered-but-quiet fds plus continuous accept traffic, none of
    /// which may cost a hot-path thread or widen solve tail latency.
    pub idle: usize,
    /// Seed for backoff jitter (mixed with the connection index).
    pub backoff_seed: u64,
    /// Kernel-tier knobs the *server under test* was started with. The
    /// reference solves mirror them: verification is bitwise, so the
    /// reference must run the exact same tier (`--fast-math` changes
    /// numerics; a default-tier reference would flag every response).
    pub simd: bool,
    pub fast_math: bool,
    pub mix: Vec<MixItem>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: String::new(),
            connections: 4,
            requests_per_conn: 8,
            tenants: 2,
            retries: 200,
            shutdown: false,
            batch: 0,
            idle: 0,
            backoff_seed: 0x676d675f6c67,
            simd: true,
            fast_math: false,
            mix: default_mix(),
        }
    }
}

/// Aggregated outcome of one loadgen run. `requests`, `ok`,
/// `verify_failures`, `dropped` and `exec_error_grids` count *grids* (a
/// batch frame of B grids contributes B); `exec_error_frames` and
/// `batch_frames` count protocol frames. For every run,
/// `ok + verify_failures + exec_error_grids + dropped + unexpected ==
/// requests`.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    pub requests: u64,
    pub ok: u64,
    /// `SOLVE_OK`/`SOLVE_BATCH_OK` grids not bitwise-identical to the
    /// in-process reference. Must be zero for a healthy server.
    pub verify_failures: u64,
    /// Typed `ExecFailed` frames (injected chaos faults surface here).
    pub exec_error_frames: u64,
    /// Grids lost to `ExecFailed` frames (== frames for singles; a failed
    /// batch frame loses all its grids to the one error frame).
    pub exec_error_grids: u64,
    /// `SOLVE_BATCH` frames sent (not counting backpressure resends).
    pub batch_frames: u64,
    /// Grids dropped after exhausting backpressure retries.
    pub dropped: u64,
    /// Total backpressure retries performed.
    pub retries: u64,
    /// Responses that were neither solve-ok nor an accepted typed error.
    pub unexpected: u64,
    pub elapsed: Duration,
    /// Per-exchange service latency (write → response read) of verified
    /// frames, nanoseconds. Excludes retry sleeps by construction.
    pub service_ns: Vec<u64>,
    /// End-to-end latency of verified logical requests, including
    /// backpressure retries and backoff sleeps, nanoseconds.
    pub e2e_ns: Vec<u64>,
    /// Idle connections held open through the hot phase (0 = disabled).
    pub idle_conns: u64,
    /// Churn reconnects performed while the hot phase ran.
    pub idle_reconnects: u64,
    /// Connection-setup throughput of the churn thread (reconnects per
    /// second of churn wall time).
    pub setup_per_sec: f64,
    /// Connection-setup latency samples (TCP connect + PING round trip),
    /// nanoseconds — initial fill and churn reconnects together.
    pub setup_ns: Vec<u64>,
    /// Server counters fetched over `STATS` after the run.
    pub server_stats: Vec<(String, u64)>,
}

fn percentile(xs: &[u64], pct: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut xs = xs.to_vec();
    xs.sort_unstable();
    let rank = ((pct / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn latency_json(xs: &[u64]) -> String {
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        percentile(xs, 50.0),
        percentile(xs, 95.0),
        percentile(xs, 99.0),
        xs.iter().copied().max().unwrap_or(0)
    )
}

impl LoadgenReport {
    /// The run is clean when every response was bitwise-correct or a typed,
    /// accepted error.
    pub fn is_clean(&self) -> bool {
        self.verify_failures == 0 && self.unexpected == 0 && self.ok + self.exec_error_frames > 0
    }

    /// Service-latency percentile (the distribution that reflects the
    /// server, not client-side backoff sleeps).
    pub fn percentile_ns(&self, pct: f64) -> u64 {
        percentile(&self.service_ns, pct)
    }

    /// End-to-end latency percentile, retries and sleeps included.
    pub fn e2e_percentile_ns(&self, pct: f64) -> u64 {
        percentile(&self.e2e_ns, pct)
    }

    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"ok\": {},\n", self.ok));
        s.push_str(&format!(
            "  \"verify_failures\": {},\n",
            self.verify_failures
        ));
        s.push_str(&format!(
            "  \"exec_error_frames\": {},\n",
            self.exec_error_frames
        ));
        s.push_str(&format!(
            "  \"exec_error_grids\": {},\n",
            self.exec_error_grids
        ));
        s.push_str(&format!("  \"batch_frames\": {},\n", self.batch_frames));
        s.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        s.push_str(&format!("  \"retries\": {},\n", self.retries));
        s.push_str(&format!("  \"unexpected\": {},\n", self.unexpected));
        s.push_str(&format!(
            "  \"elapsed_seconds\": {},\n",
            self.elapsed.as_secs_f64()
        ));
        s.push_str(&format!(
            "  \"throughput_rps\": {},\n",
            self.throughput_rps()
        ));
        s.push_str(&format!(
            "  \"service_latency_ns\": {},\n",
            latency_json(&self.service_ns)
        ));
        s.push_str(&format!(
            "  \"e2e_latency_ns\": {},\n",
            latency_json(&self.e2e_ns)
        ));
        if self.idle_conns > 0 {
            s.push_str(&format!(
                "  \"idle\": {{\"connections\": {}, \"reconnects\": {}, \
                 \"setup_per_sec\": {}, \"setup_latency_ns\": {}}},\n",
                self.idle_conns,
                self.idle_reconnects,
                self.setup_per_sec,
                latency_json(&self.setup_ns)
            ));
        }
        s.push_str("  \"server\": {");
        for (i, (k, v)) in self.server_stats.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str("}\n}\n");
        s
    }

    pub fn summary(&self) -> String {
        let mut s = format!(
            "loadgen: {} grids, {} ok ({} verify failures, {} exec-error frames / {} grids, \
             {} dropped, {} unexpected), {} batch frames, {} retries, {:.2} grids/s, \
             service p50 {:.2} ms / p95 {:.2} ms / p99 {:.2} ms, \
             e2e p50 {:.2} ms / p99 {:.2} ms",
            self.requests,
            self.ok,
            self.verify_failures,
            self.exec_error_frames,
            self.exec_error_grids,
            self.dropped,
            self.unexpected,
            self.batch_frames,
            self.retries,
            self.throughput_rps(),
            self.percentile_ns(50.0) as f64 * 1e-6,
            self.percentile_ns(95.0) as f64 * 1e-6,
            self.percentile_ns(99.0) as f64 * 1e-6,
            self.e2e_percentile_ns(50.0) as f64 * 1e-6,
            self.e2e_percentile_ns(99.0) as f64 * 1e-6,
        );
        if self.idle_conns > 0 {
            s.push_str(&format!(
                ", idle {} conns / {} reconnects ({:.1} setups/s, setup p99 {:.2} ms)",
                self.idle_conns,
                self.idle_reconnects,
                self.setup_per_sec,
                percentile(&self.setup_ns, 99.0) as f64 * 1e-6,
            ));
        }
        s
    }
}

/// One RHS-perturbed variant of a mix item, with its own reference answer.
struct BatchGrid {
    v0: Vec<f64>,
    f: Vec<f64>,
    bits: Vec<u64>,
}

/// The precomputed ground truth for one mix item.
struct Expected {
    item: MixItem,
    v0: Vec<f64>,
    f: Vec<f64>,
    bits: Vec<u64>,
    /// Coefficient grid shipped with every request of a `varcoef` item
    /// (empty otherwise).
    coeff: Vec<f64>,
    /// `batch` perturbed variants (empty when batch frames are disabled).
    batch: Vec<BatchGrid>,
}

impl Expected {
    /// The request for one grid of this item: every single and every batch
    /// member is built here, so all carry the item's scenario, precision
    /// tier and coefficient grid.
    fn request(&self, tenant: u32, v0: &[f64], f: &[f64]) -> SolveRequest {
        let item = &self.item;
        let mut req = SolveRequest::from_config(
            &item.cfg,
            item.variant,
            tenant,
            item.iters,
            v0.to_vec(),
            f.to_vec(),
        );
        req.scenario = item.scenario.wire_id();
        req.mixed = item.mixed;
        req.coeff = self.coeff.clone();
        req
    }
}

/// Run each mix item locally (through the same plan cache and engine the
/// server uses) to establish the bitwise-exact expected answer.
fn compute_expected(
    mix: &[MixItem],
    batch: usize,
    simd: bool,
    fast_math: bool,
) -> Result<Vec<Expected>, String> {
    mix.iter()
        .enumerate()
        .map(|(mi, item)| {
            let (v0, f, _) = setup_poisson(&item.cfg);
            let mut opts = PipelineOptions::for_variant(item.variant, item.cfg.ndims);
            opts.simd = simd;
            opts.fast_math = fast_math;
            let coeff = if item.scenario.needs_coeff() {
                coeff_field(&item.cfg)
            } else {
                Vec::new()
            };
            let spec = ScenarioSpec {
                scenario: item.scenario,
                mixed: item.mixed,
            };
            let mut runner = scenario_runner(
                &item.cfg,
                spec,
                opts,
                "loadgen-ref",
                (!coeff.is_empty()).then(|| coeff.clone()),
            )
            .map_err(|e| format!("reference compile failed: {e}"))?;
            let mut solve = |v0: &[f64], f: &[f64]| -> Result<Vec<u64>, String> {
                let mut v = v0.to_vec();
                for _ in 0..item.iters {
                    runner
                        .cycle_with_stats(&mut v, f)
                        .map_err(|e| format!("reference cycle failed: {e}"))?;
                }
                Ok(v.iter().map(|x| x.to_bits()).collect())
            };
            let bits = solve(&v0, &f)?;
            let mut grids = Vec::new();
            if batch >= 2 {
                for b in 0..batch {
                    // distinct RHS per grid; both sides see identical bytes,
                    // so the perturbation itself needs no ghost-ring care
                    let mut fb = f.clone();
                    for (i, x) in fb.iter_mut().enumerate() {
                        let r = splitmix64((mi as u64) << 48 | (b as u64) << 32 | i as u64);
                        *x += (r % 1000) as f64 * 1e-6;
                    }
                    let bits = solve(&v0, &fb)?;
                    grids.push(BatchGrid {
                        v0: v0.clone(),
                        f: fb,
                        bits,
                    });
                }
            }
            Ok(Expected {
                item: item.clone(),
                v0,
                f,
                bits,
                coeff,
                batch: grids,
            })
        })
        .collect()
}

#[derive(Default)]
struct SharedCounts {
    requests: AtomicU64,
    ok: AtomicU64,
    verify_failures: AtomicU64,
    exec_error_frames: AtomicU64,
    exec_error_grids: AtomicU64,
    batch_frames: AtomicU64,
    dropped: AtomicU64,
    retries: AtomicU64,
    unexpected: AtomicU64,
}

/// Per-connection knobs (the subset of [`LoadgenOptions`] a client thread
/// needs).
#[derive(Clone)]
struct ConnOptions {
    addr: String,
    requests_per_conn: usize,
    tenants: u32,
    retries: usize,
    batch: usize,
    backoff_seed: u64,
}

/// Latency samples a connection thread collects.
#[derive(Default)]
struct Lats {
    service_ns: Vec<u64>,
    e2e_ns: Vec<u64>,
}

/// Send one frame (retrying through backpressure) and verify the response
/// against `grids` (one entry per expected grid, `(len, bits)` pairs come
/// from the caller via a closure over the decoded response).
#[allow(clippy::too_many_arguments)]
fn exchange(
    stream: &mut TcpStream,
    opcode: u8,
    payload: &[u8],
    ngrids: u64,
    verify: impl Fn(&protocol::Frame, &SharedCounts),
    o: &ConnOptions,
    seed: u64,
    counts: &SharedCounts,
    lats: &mut Lats,
) -> Result<(), String> {
    let req_t0 = Instant::now();
    let mut attempt = 0usize;
    loop {
        let t0 = Instant::now();
        protocol::write_frame(stream, opcode, payload).map_err(|e| format!("send failed: {e}"))?;
        let frame =
            protocol::read_frame(stream).map_err(|e| format!("response read failed: {e}"))?;
        let service = t0.elapsed().as_nanos() as u64;
        match frame.opcode {
            protocol::OP_SOLVE_OK | protocol::OP_SOLVE_BATCH_OK | protocol::OP_SOLVE_SCENARIO_OK => {
                verify(&frame, counts);
                lats.service_ns.push(service);
                lats.e2e_ns.push(req_t0.elapsed().as_nanos() as u64);
                return Ok(());
            }
            protocol::OP_ERROR => match protocol::decode_error(&frame.payload) {
                Some((ErrorCode::QueueFull, _)) | Some((ErrorCode::TenantLimit, _)) => {
                    if attempt >= o.retries {
                        counts.dropped.fetch_add(ngrids, Ordering::Relaxed);
                        return Ok(());
                    }
                    counts.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(retry_backoff_ms(attempt, seed)));
                    attempt += 1;
                }
                Some((ErrorCode::ExecFailed, _)) => {
                    counts.exec_error_frames.fetch_add(1, Ordering::Relaxed);
                    counts.exec_error_grids.fetch_add(ngrids, Ordering::Relaxed);
                    return Ok(());
                }
                _ => {
                    counts.unexpected.fetch_add(ngrids, Ordering::Relaxed);
                    return Ok(());
                }
            },
            _ => {
                counts.unexpected.fetch_add(ngrids, Ordering::Relaxed);
                return Ok(());
            }
        }
    }
}

fn verify_grid(got: &[f64], want_bits: &[u64]) -> bool {
    got.len() == want_bits.len()
        && got
            .iter()
            .zip(want_bits.iter())
            .all(|(x, &b)| x.to_bits() == b)
}

/// Open one idle connection and verify it live with a `PING` round trip.
/// Returns the stream and the setup latency (connect + ping) in ns.
fn open_idle(addr: &str) -> Result<(TcpStream, u64), String> {
    let t0 = Instant::now();
    let mut s =
        TcpStream::connect(addr).map_err(|e| format!("idle connect {addr} failed: {e}"))?;
    protocol::write_frame(&mut s, protocol::OP_PING, b"idle")
        .map_err(|e| format!("idle ping failed: {e}"))?;
    let f = protocol::read_frame(&mut s).map_err(|e| format!("idle pong read failed: {e}"))?;
    if f.opcode != protocol::OP_PONG {
        return Err(format!("idle ping answered with opcode {:#04x}", f.opcode));
    }
    Ok((s, t0.elapsed().as_nanos() as u64))
}

/// What the churn thread hands back when the hot phase ends.
struct ChurnOutcome {
    setups_ns: Vec<u64>,
    reconnects: u64,
    churn_secs: f64,
}

/// Close and reopen connections of `pool` round-robin until told to stop,
/// paced at roughly one reconnect per millisecond. The pacing keeps churn
/// a background property — setup latency is measured *under* the solve
/// load, not competing with it for the whole host — while still cycling
/// hundreds of connections per second through the readiness loops.
fn churn_idle(
    addr: &str,
    mut pool: Vec<TcpStream>,
    stop: &AtomicBool,
) -> ChurnOutcome {
    let mut setups_ns = Vec::new();
    let mut reconnects = 0u64;
    let t0 = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) && !pool.is_empty() {
        let idx = i % pool.len();
        i += 1;
        match open_idle(addr) {
            Ok((s, ns)) => {
                // the replaced stream drops here: a clean frame-boundary EOF
                pool[idx] = s;
                setups_ns.push(ns);
                reconnects += 1;
            }
            Err(_) => break, // server draining or refusing; end the churn
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ChurnOutcome {
        setups_ns,
        reconnects,
        churn_secs: t0.elapsed().as_secs_f64(),
    }
}

/// One client connection's request loop.
fn drive_connection(
    conn_idx: usize,
    opts: &ConnOptions,
    expected: &[Expected],
    counts: &SharedCounts,
    lats: &mut Lats,
) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("connect {} failed: {e}", opts.addr))?;
    let tenant = conn_idx as u32 % opts.tenants.max(1);
    let seed = opts.backoff_seed ^ splitmix64(conn_idx as u64);
    for r in 0..opts.requests_per_conn {
        let exp = &expected[(conn_idx + r) % expected.len()];
        let batched = opts.batch >= 2 && !exp.batch.is_empty() && r % 2 == 1;
        if batched {
            let reqs: Vec<SolveRequest> = exp
                .batch
                .iter()
                .map(|g| exp.request(tenant, &g.v0, &g.f))
                .collect();
            let ngrids = reqs.len() as u64;
            let payload = BatchSolveRequest { reqs }.encode();
            counts.requests.fetch_add(ngrids, Ordering::Relaxed);
            counts.batch_frames.fetch_add(1, Ordering::Relaxed);
            exchange(
                &mut stream,
                protocol::OP_SOLVE_BATCH,
                &payload,
                ngrids,
                |frame, counts| match protocol::BatchSolveResponse::decode(&frame.payload) {
                    Ok(resp) if resp.vs.len() == exp.batch.len() => {
                        for (got, g) in resp.vs.iter().zip(exp.batch.iter()) {
                            if verify_grid(got, &g.bits) {
                                counts.ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                counts.verify_failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    _ => {
                        counts.unexpected.fetch_add(ngrids, Ordering::Relaxed);
                    }
                },
                opts,
                seed ^ r as u64,
                counts,
                lats,
            )?;
        } else {
            let req = exp.request(tenant, &exp.v0, &exp.f);
            let opcode = if req.needs_scenario_frame() {
                protocol::OP_SOLVE_SCENARIO
            } else {
                protocol::OP_SOLVE
            };
            let payload = req.encode();
            counts.requests.fetch_add(1, Ordering::Relaxed);
            exchange(
                &mut stream,
                opcode,
                &payload,
                1,
                |frame, counts| match protocol::SolveResponse::decode(&frame.payload) {
                    Ok(resp) if verify_grid(&resp.v, &exp.bits) => {
                        counts.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        counts.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                },
                opts,
                seed ^ r as u64,
                counts,
                lats,
            )?;
        }
    }
    Ok(())
}

/// Drive the configured load against `opts.addr` and verify every response.
pub fn run(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let expected = Arc::new(compute_expected(
        &opts.mix,
        opts.batch,
        opts.simd,
        opts.fast_math,
    )?);
    let counts = Arc::new(SharedCounts::default());

    // Idle fleet: fill before the hot phase starts (setup cost must not
    // leak into hot-path throughput), then churn it while the load runs.
    let mut setup_ns = Vec::new();
    let idle_stop = Arc::new(AtomicBool::new(false));
    let mut churn_handle = None;
    if opts.idle > 0 {
        let mut pool = Vec::with_capacity(opts.idle);
        for _ in 0..opts.idle {
            let (s, ns) = open_idle(&opts.addr)?;
            pool.push(s);
            setup_ns.push(ns);
        }
        let addr = opts.addr.clone();
        let stop = Arc::clone(&idle_stop);
        churn_handle = Some(std::thread::spawn(move || churn_idle(&addr, pool, &stop)));
    }

    let t0 = Instant::now();

    let conn_opts = ConnOptions {
        addr: opts.addr.clone(),
        requests_per_conn: opts.requests_per_conn,
        tenants: opts.tenants,
        retries: opts.retries,
        batch: opts.batch,
        backoff_seed: opts.backoff_seed,
    };
    let handles: Vec<_> = (0..opts.connections.max(1))
        .map(|c| {
            let expected = Arc::clone(&expected);
            let counts = Arc::clone(&counts);
            let o = conn_opts.clone();
            std::thread::spawn(move || {
                let mut lats = Lats::default();
                let res = drive_connection(c, &o, &expected, &counts, &mut lats);
                (res, lats)
            })
        })
        .collect();

    let mut all = Lats::default();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok((res, lats)) => {
                all.service_ns.extend(lats.service_ns);
                all.e2e_ns.extend(lats.e2e_ns);
                if let Err(e) = res {
                    first_err.get_or_insert(e);
                }
            }
            Err(_) => {
                first_err.get_or_insert("connection thread panicked".to_string());
            }
        }
    }
    let elapsed = t0.elapsed();

    // Stop the churn and fold its samples in (the idle pool closes with
    // the churn thread, before any shutdown request goes out).
    let mut idle_reconnects = 0u64;
    let mut setup_per_sec = 0.0f64;
    idle_stop.store(true, Ordering::Relaxed);
    if let Some(h) = churn_handle {
        if let Ok(outcome) = h.join() {
            setup_ns.extend(outcome.setups_ns);
            idle_reconnects = outcome.reconnects;
            if outcome.churn_secs > 0.0 {
                setup_per_sec = outcome.reconnects as f64 / outcome.churn_secs;
            }
        } else {
            first_err.get_or_insert("idle churn thread panicked".to_string());
        }
    }

    // Control connection: fetch counters, optionally drain the server.
    let mut server_stats = Vec::new();
    if let Ok(mut ctrl) = TcpStream::connect(&opts.addr) {
        if protocol::write_frame(&mut ctrl, protocol::OP_STATS, b"").is_ok() {
            if let Ok(f) = protocol::read_frame(&mut ctrl) {
                if f.opcode == protocol::OP_STATS_OK {
                    server_stats = protocol::decode_stats(&f.payload);
                }
            }
        }
        if opts.shutdown && protocol::write_frame(&mut ctrl, protocol::OP_SHUTDOWN, b"").is_ok() {
            match protocol::read_frame(&mut ctrl) {
                Ok(f) if f.opcode == protocol::OP_SHUTDOWN_ACK => {}
                other => {
                    first_err
                        .get_or_insert(format!("server did not acknowledge shutdown: {other:?}"));
                }
            }
        }
    } else if opts.shutdown {
        first_err.get_or_insert("control connection failed".to_string());
    }

    if let Some(e) = first_err {
        return Err(e);
    }

    Ok(LoadgenReport {
        requests: counts.requests.load(Ordering::Relaxed),
        ok: counts.ok.load(Ordering::Relaxed),
        verify_failures: counts.verify_failures.load(Ordering::Relaxed),
        exec_error_frames: counts.exec_error_frames.load(Ordering::Relaxed),
        exec_error_grids: counts.exec_error_grids.load(Ordering::Relaxed),
        batch_frames: counts.batch_frames.load(Ordering::Relaxed),
        dropped: counts.dropped.load(Ordering::Relaxed),
        retries: counts.retries.load(Ordering::Relaxed),
        unexpected: counts.unexpected.load(Ordering::Relaxed),
        elapsed,
        service_ns: all.service_ns,
        e2e_ns: all.e2e_ns,
        idle_conns: opts.idle as u64,
        idle_reconnects,
        setup_per_sec,
        setup_ns,
        server_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_up_to_the_cap() {
        // The schedule doubles 2→64 ms; jitter (< base/2) never exceeds the
        // doubling gap, so each retry below the cap waits at least as long
        // as the one before it — for ANY seed. The old `(1 + a % 8) * 2`
        // schedule violated this at attempt 8 (wrapped back to 4 ms).
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x676d675f6c67] {
            let xs: Vec<u64> = (0..16).map(|a| retry_backoff_ms(a, seed)).collect();
            for a in 0..5 {
                assert!(
                    xs[a + 1] >= xs[a],
                    "seed {seed:#x}: backoff({}) = {} < backoff({a}) = {}",
                    a + 1,
                    xs[a + 1],
                    xs[a]
                );
            }
            assert_eq!(xs[0], 2, "first retry is the 2 ms floor (zero jitter)");
            for (a, &x) in xs.iter().enumerate() {
                assert!((2..96).contains(&x), "attempt {a}: {x} ms outside [2, 96)");
            }
            for &x in &xs[5..] {
                assert!(x >= 64, "capped attempts stay at the 64 ms base");
            }
        }
    }

    #[test]
    fn backoff_jitter_varies_with_seed() {
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|s| retry_backoff_ms(8, s)).collect();
        assert!(
            spread.len() > 8,
            "64 seeds produced only {} distinct capped backoffs",
            spread.len()
        );
    }

    #[test]
    fn percentile_ranks_are_stable() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
