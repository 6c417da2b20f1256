//! The two serving workloads: the server started in-process
//! (`shards: 1, workers: 1, engine_threads: 1`, no tuner, no coalescing, no
//! chaos), driven closed-loop by one blocking client thread per connection.

use crate::inputs;
use crate::layers::{
    compile_ns_per_plan, plan_layers, runtime_layers, trace_overhead, CycleSamples, PoolDelta,
    Totals,
};
use crate::plans::{PlanSpec, Session, ENGINE_THREADS};
use crate::result::{put, Layers, RunCtx, WorkloadResult, MIN_SETUPS};
use crate::spans::{merge, reconcile, Recorder};
use crate::speed::Speed;
use crate::stats::{median, Row, Windowed};
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::CycleRunner;
use gmg_server::protocol::{
    self, BatchSolveRequest, BatchSolveResponse, SolveRequest, SolveResponse,
};
use gmg_server::{default_mix, start, MixItem, ServerConfig, ServerHandle, SessionManager};
use gmg_trace::Trace;
use polymg::{PlanCache, Scenario, Variant};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Grids per `SOLVE_BATCH` frame of `serve_batch`.
const BATCH: usize = 8;
/// Distinct batch frames (each with its own eight right-hand sides).
const BATCH_FRAMES: usize = 4;
const MIN_FRAMES: usize = 4000;
/// Warm-up before the timed section, as a share of its length.
const WARMUP_SHARE: f64 = 1.0 / 6.0;

pub struct ServeSpec {
    pub name: &'static str,
    pub items: Vec<MixItem>,
    /// Grids per frame: 1 sends `SOLVE` / `SOLVE_SCENARIO` frames.
    pub batch: usize,
    pub connections: usize,
}

pub fn spec(name: &'static str) -> Option<ServeSpec> {
    let small = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    match name {
        "serve_mixed" => {
            let mut items = default_mix();
            for scenario in [Scenario::VarCoef, Scenario::Rbgs] {
                items
                    .push(MixItem::new(small.clone(), Variant::OptPlus, 2).with_scenario(scenario));
            }
            Some(ServeSpec {
                name: "serve_mixed",
                items,
                batch: 1,
                connections: 2,
            })
        }
        "serve_batch" => Some(ServeSpec {
            name: "serve_batch",
            items: vec![MixItem::new(small, Variant::OptPlus, 1)],
            batch: BATCH,
            connections: 2,
        }),
        _ => None,
    }
}

/// The single-shape, single-connection workload the layer probes run to
/// give `server.*` numbers to workloads that have no server.
pub fn probe_spec() -> ServeSpec {
    ServeSpec {
        name: "serve_probe",
        items: vec![MixItem::new(
            MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444()),
            Variant::OptPlus,
            1,
        )],
        batch: 1,
        connections: 1,
    }
}

fn plan_spec(item: &MixItem) -> PlanSpec {
    let label = format!(
        "{} n={} {}",
        item.cfg.tag(),
        item.cfg.n,
        item.scenario.label()
    );
    PlanSpec::new(&label, item.cfg.clone(), item.scenario, item.variant)
}

/// One request frame, ready to write, with the replies it must produce.
pub struct Frame {
    /// Header + payload, one encoding per connection (connection `c`
    /// sends as tenant `c`).
    pub bytes: Vec<Vec<u8>>,
    pub reqs: Vec<SolveRequest>,
    /// Per grid: the bit pattern of the in-process reference solve.
    pub want: Vec<Vec<u64>>,
    /// Σ over the grids of finest points × cycles.
    pub point_cycles: f64,
    /// Index into `ServeSpec::items`.
    pub item: usize,
}

/// The request of one frame as the public codecs see it.
enum Request<'a> {
    Solve(&'a SolveRequest),
    Scenario(&'a SolveRequest),
    Batch(BatchSolveRequest),
}

impl Request<'_> {
    fn of(reqs: &[SolveRequest]) -> Request<'_> {
        match reqs {
            [one] if one.needs_scenario_frame() => Request::Scenario(one),
            [one] => Request::Solve(one),
            many => Request::Batch(BatchSolveRequest {
                reqs: many.to_vec(),
            }),
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            Request::Solve(_) => protocol::OP_SOLVE,
            Request::Scenario(_) => protocol::OP_SOLVE_SCENARIO,
            Request::Batch(_) => protocol::OP_SOLVE_BATCH,
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Request::Solve(r) => r.encode(),
            Request::Scenario(r) => r.encode_scenario(),
            Request::Batch(b) => b.encode(),
        }
    }

    /// Whether `payload` decodes as a request of this kind.
    fn decodes(&self, payload: &[u8]) -> bool {
        match self {
            Request::Solve(_) => SolveRequest::decode(payload).is_ok(),
            Request::Scenario(_) => SolveRequest::decode_scenario(payload).is_ok(),
            Request::Batch(_) => BatchSolveRequest::decode(payload).is_ok(),
        }
    }
}

/// The reply a frame must produce, as the public codecs see it.
enum Reply {
    Solve(SolveResponse),
    Batch(BatchSolveResponse),
}

impl Reply {
    fn of(frame: &Frame) -> Reply {
        let mut vs: Vec<Vec<f64>> = frame
            .want
            .iter()
            .map(|bits| bits.iter().map(|b| f64::from_bits(*b)).collect())
            .collect();
        if vs.len() > 1 {
            Reply::Batch(BatchSolveResponse { elapsed_ns: 0, vs })
        } else {
            let v = vs.pop().expect("a frame has at least one grid");
            Reply::Solve(SolveResponse { elapsed_ns: 0, v })
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Solve(r) => r.encode(),
            Reply::Batch(b) => b.encode(),
        }
    }

    fn decodes(&self, payload: &[u8]) -> bool {
        match self {
            Reply::Solve(_) => SolveResponse::decode(payload).is_ok(),
            Reply::Batch(_) => BatchSolveResponse::decode(payload).is_ok(),
        }
    }
}

/// Generate the workload's frames from the seed and solve each grid on a
/// warm in-process runner: the reference every reply is compared with. The
/// solves are then repeated and timed into `inproc`: what the requests cost
/// without a server (`solve_s`, `server.inproc_solve_us`, the workload's
/// runtime layers).
pub fn prepare(spec: &ServeSpec, seed: u64, inproc: &mut Inproc) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut speed = Speed::new();
    for (i, item) in spec.items.iter().enumerate() {
        let plan = plan_spec(item);
        let mut session = Session::cold(&plan, &mut Recorder::off(), 0);
        let coeff = plan.coeff().unwrap_or_default();
        let nframes = if spec.batch > 1 { BATCH_FRAMES } else { 1 };
        for k in 0..nframes {
            let mut reqs = Vec::with_capacity(spec.batch);
            for g in 0..spec.batch {
                let stream = inputs::stream(seed, ((i * BATCH_FRAMES + k) * BATCH + g) as u64);
                let mut req = SolveRequest::from_config(
                    &item.cfg,
                    item.variant,
                    0,
                    item.iters,
                    inputs::zero_guess(&item.cfg),
                    inputs::rhs(&item.cfg, stream),
                );
                req.scenario = item.scenario.wire_id();
                req.coeff = coeff.clone();
                reqs.push(req);
            }
            // solve the frame the way the server does: one batched engine
            // pass per cycle
            let mut solve = |session: &mut Session, samples: Option<&mut Inproc>| {
                let mut vs: Vec<Vec<f64>> = reqs.iter().map(|r| r.v.clone()).collect();
                let fs: Vec<&[f64]> = reqs.iter().map(|r| r.f.as_slice()).collect();
                let before = session.runner.engine().pool_stats();
                let t0 = Instant::now();
                let mut cycles = Vec::new();
                for _ in 0..item.iters {
                    let c0 = Instant::now();
                    let stats = session
                        .runner
                        .cycle_batch_with_stats(&mut vs, &fs)
                        .unwrap_or_else(|e| panic!("{}: reference solve failed: {e}", plan.label));
                    cycles.push((c0.elapsed().as_nanos() as u64, stats));
                }
                let ns = t0.elapsed().as_nanos() as f64;
                if let Some(s) = samples {
                    let sigma = speed.factor();
                    s.solve_ns.push(ns / sigma);
                    s.frame_of.push(frames.len());
                    for (wall, stats) in &cycles {
                        let n = reqs.len();
                        s.cycles.push(
                            *wall,
                            stats,
                            sigma,
                            session.traffic_bytes * n,
                            session.domain_cells * n as u64,
                        );
                    }
                    s.pool.add(PoolDelta::between(
                        before,
                        session.runner.engine().pool_stats(),
                    ));
                }
                vs
            };
            // the reference solve doubles as warm-up; the trace is attached
            // after the session's first, so the crates' report covers
            // exactly the timed solves
            let vs = solve(&mut session, None);
            if k == 0 && inproc.trace.is_enabled() {
                session.runner.set_trace(inproc.trace.clone());
            }
            for _ in 0..inproc.reps {
                solve(&mut session, Some(inproc));
            }
            let bytes = (0..spec.connections as u32)
                .map(|tenant| {
                    for r in &mut reqs {
                        r.tenant = tenant;
                    }
                    let request = Request::of(&reqs);
                    protocol::frame_bytes(request.opcode(), &request.encode())
                })
                .collect();
            frames.push(Frame {
                bytes,
                want: vs.iter().map(|v| inputs::bits(v)).collect(),
                point_cycles: reqs.len() as f64 * plan.points() * item.iters as f64,
                reqs,
                item: i,
            });
        }
    }
    frames
}

/// Timed in-process solves of the workload's frames.
pub struct Inproc {
    /// Attached to the runners (enabled in a traced run).
    pub trace: Trace,
    /// Timed solves per frame (the same for every frame, so the pooled
    /// samples weigh the frames as the closed loop does).
    pub reps: usize,
    /// Per timed solve: speed-normalised wall, and the index of its frame.
    pub solve_ns: Vec<f64>,
    pub frame_of: Vec<usize>,
    pub cycles: CycleSamples,
    pub pool: PoolDelta,
}

/// 0.2–2 ms each: about half a second per run.
const INPROC_REPS: usize = 200;

impl Inproc {
    pub fn new(trace: Trace, reps: usize) -> Inproc {
        Inproc {
            trace,
            reps,
            solve_ns: Vec::new(),
            frame_of: Vec::new(),
            cycles: CycleSamples::default(),
            pool: PoolDelta::default(),
        }
    }

    /// Σ over the frames of each frame's median solve time, nanoseconds: one
    /// round of the mix solved in-process. Quartiles and bands are summed
    /// too, as if the frames' noise were fully correlated (conservative).
    fn round_row(&self, nframes: usize) -> Row {
        let mut total = Row::exact(0.0);
        for k in 0..nframes {
            let of_frame: Vec<f64> = self
                .solve_ns
                .iter()
                .zip(&self.frame_of)
                .filter(|(_, f)| **f == k)
                .map(|(ns, _)| *ns)
                .collect();
            let r = Row::of_samples(&of_frame);
            total.value += r.value;
            total.samples += r.samples;
            total.q1 += r.q1;
            total.q3 += r.q3;
            total.lo += r.lo;
            total.hi += r.hi;
        }
        total
    }
}

fn server_config(trace: Trace) -> ServerConfig {
    ServerConfig {
        shards: 1,
        workers: 1,
        engine_threads: ENGINE_THREADS,
        tuner: None,
        coalesce_window: None,
        chaos: None,
        trace,
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("connect to the in-process server");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s
}

fn stop(handle: ServerHandle) -> gmg_trace::ServerSnapshot {
    handle.begin_shutdown();
    handle.join()
}

/// What one client saw of one frame.
struct Exchange {
    latency_ns: u64,
    service_ns: u64,
    ok: u64,
    failed: u64,
    reply_bytes: usize,
}

/// Write one request frame, block for the reply, decode and verify it.
/// Latency runs from the first request byte written to the last reply byte
/// read; decoding and verification are outside it.
fn exchange(
    stream: &mut TcpStream,
    frame: &Frame,
    conn: usize,
    corrupt: bool,
    rec: &mut Recorder,
    id: u64,
) -> Exchange {
    let t0 = Instant::now();
    stream
        .write_all(&frame.bytes[conn])
        .expect("write request frame");
    let reply = protocol::read_frame(stream).expect("read reply frame");
    let t1 = Instant::now();
    let ngrids = frame.want.len() as u64;
    let (grids, service_ns) = match reply.opcode {
        protocol::OP_SOLVE_OK | protocol::OP_SOLVE_SCENARIO_OK => {
            SolveResponse::decode(&reply.payload)
                .map(|r| (vec![r.v], r.elapsed_ns))
                .unwrap_or_default()
        }
        protocol::OP_SOLVE_BATCH_OK => BatchSolveResponse::decode(&reply.payload)
            .map(|r| (r.vs, r.elapsed_ns))
            .unwrap_or_default(),
        // error frames, anything unexpected: every grid of the frame is lost
        _ => Default::default(),
    };
    let t2 = Instant::now();
    let mut ok = 0;
    if grids.len() == frame.want.len() {
        for (g, (got, want)) in grids.iter().zip(&frame.want).enumerate() {
            let mut bad = inputs::mismatches(got, want);
            if corrupt && g == 0 {
                bad += 1;
            }
            ok += (bad == 0) as u64;
        }
    }
    let t3 = Instant::now();
    rec.leaf_with_inner("server.roundtrip", "server.service", id, t0, t1, service_ns);
    rec.leaf("server.decode_response", id, t1, t2);
    rec.leaf("bench.verify", id, t2, t3);
    Exchange {
        latency_ns: (t1 - t0).as_nanos() as u64,
        service_ns,
        ok,
        failed: ngrids - ok,
        reply_bytes: 5 + reply.payload.len(),
    }
}

/// Speed-normalised samples of one timed section, per frame.
#[derive(Default)]
struct Section {
    /// Completion time on the sending thread's normalised clock.
    at: Vec<u64>,
    latency_ns: Vec<f64>,
    service_ns: Vec<f64>,
    grids_ok: Vec<f64>,
    iters: f64,
    ok: u64,
    failed: u64,
    wire_bytes: usize,
    snapshot: gmg_trace::ServerSnapshot,
    report: Option<gmg_trace::Report>,
    ticks: Vec<f64>,
}

/// Start a server, warm it up, then drive the closed loop for `seconds`
/// (and at least `min_frames` frames in total), stop the server.
fn timed_section(
    spec: &ServeSpec,
    frames: &[Frame],
    ctx: &RunCtx,
    seconds: f64,
    min_frames: usize,
    traced: bool,
    epoch: Instant,
) -> (Section, Vec<Recorder>) {
    let trace = if traced {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let handle = start(server_config(trace.clone())).expect("start the in-process server");
    let barrier = Barrier::new(spec.connections);
    let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let per_conn_min = min_frames.div_ceil(spec.connections);
    let results: Vec<(Section, Recorder)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec.connections)
            .map(|c| {
                let (handle, barrier) = (&handle, &barrier);
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, c as u32 + 1);
                    let mut speed = Speed::new();
                    let mut stream = connect(handle);
                    // Round-robin with a seeded shuffle per round and
                    // connection: every frame is sent once per round, but the
                    // connections do not fall into step (two clients walking
                    // one fixed order collide on the same pairs of frames all
                    // run long, and which pairs depends on the seed).
                    let mut rng = inputs::Rng(inputs::stream(ctx.seed, 0x5e7e + c as u64));
                    let mut order: Vec<usize> = (0..frames.len()).collect();
                    let mut next = order.len();
                    let mut pick = || {
                        if next == order.len() {
                            for i in (1..order.len()).rev() {
                                order.swap(i, rng.range(0, i as u64) as usize);
                            }
                            next = 0;
                        }
                        next += 1;
                        &frames[order[next - 1]]
                    };
                    let warm_start = Instant::now();
                    let mut warm = 0;
                    while warm_start.elapsed() < warmup || warm < frames.len() {
                        exchange(&mut stream, pick(), c, false, &mut Recorder::off(), 0);
                        warm += 1;
                    }
                    barrier.wait();
                    let mut s = Section::default();
                    let section = rec.open("timed", c as u64);
                    let start = Instant::now();
                    speed.restart();
                    speed.take_tick_spans();
                    let mut n = 0usize;
                    while start.elapsed().as_secs_f64() < seconds || n < per_conn_min {
                        let frame = pick();
                        let id = (c as u64) << 32 | n as u64;
                        let corrupt = ctx.corrupt && c == 0 && n == 0;
                        let x = exchange(&mut stream, frame, c, corrupt, &mut rec, id);
                        let (sigma, at) = speed.stamp();
                        s.at.push(at);
                        s.latency_ns.push(x.latency_ns as f64 / sigma);
                        s.service_ns.push(x.service_ns as f64 / sigma);
                        s.grids_ok.push(x.ok as f64);
                        s.iters += spec.items[frame.item].iters as f64 * frame.want.len() as f64;
                        s.ok += x.ok;
                        s.failed += x.failed;
                        s.wire_bytes += frame.bytes[c].len() + x.reply_bytes;
                        n += 1;
                    }
                    rec.ticks(speed.take_tick_spans());
                    rec.close(section);
                    s.ticks = speed.ticks;
                    (s, rec)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut all = Section::default();
    let mut recorders = Vec::new();
    for (s, rec) in results {
        all.at.extend(s.at);
        all.ticks.extend(s.ticks);
        all.latency_ns.extend(s.latency_ns);
        all.service_ns.extend(s.service_ns);
        all.grids_ok.extend(s.grids_ok);
        all.iters += s.iters;
        all.ok += s.ok;
        all.failed += s.failed;
        all.wire_bytes += s.wire_bytes;
        recorders.push(rec);
    }
    all.snapshot = stop(handle);
    all.report = trace.report();
    (all, recorders)
}

/// One cold set-up: plan cache cleared, `start` → first `PONG` → first
/// reply to every frame. Returns `(set-up seconds, start-to-PONG ns)`,
/// speed-normalised.
fn setup_once(frames: &[Frame], rec: &mut Recorder, speed: &mut Speed, k: u64) -> (f64, f64) {
    PlanCache::global().clear();
    speed.stamp();
    let id = rec.open("setup", k);
    let t0 = Instant::now();
    let handle = start(server_config(Trace::disabled())).expect("start the in-process server");
    let mut stream = connect(&handle);
    protocol::write_frame(&mut stream, protocol::OP_PING, b"up").expect("write PING");
    let pong = protocol::read_frame(&mut stream).expect("read PONG");
    assert_eq!(
        pong.opcode,
        protocol::OP_PONG,
        "PING answered with {:#04x}",
        pong.opcode
    );
    let t1 = Instant::now();
    rec.leaf("server.start", k, t0, t1);
    for frame in frames {
        exchange(&mut stream, frame, 0, false, rec, k);
    }
    let secs = t0.elapsed().as_secs_f64();
    rec.close(id);
    let sigma = speed.factor();
    drop(stream);
    stop(handle);
    (secs / sigma, (t1 - t0).as_nanos() as f64 / sigma)
}

pub fn run(spec: &ServeSpec, ctx: &RunCtx) -> WorkloadResult {
    let epoch = Instant::now();
    let mut rec = Recorder::new(ctx.traced, epoch, 0);
    let mut speed = Speed::new();
    let plans: Vec<PlanSpec> = spec.items.iter().map(plan_spec).collect();
    let mut inproc = Inproc::new(
        if ctx.traced {
            Trace::enabled()
        } else {
            Trace::disabled()
        },
        ctx.at_least(INPROC_REPS),
    );
    let frames = prepare(spec, ctx.seed, &mut inproc);

    let (mut setups, mut start_ns) = (Vec::new(), Vec::new());
    let since = Instant::now();
    while ctx.wants_setup(setups.len(), since) {
        let (secs, ns) = setup_once(&frames, &mut rec, &mut speed, setups.len() as u64);
        setups.push(secs);
        start_ns.push(ns);
    }

    let min_frames = ctx.at_least(MIN_FRAMES);
    let (secs, min_untraced) = ctx.untraced_section(min_frames);
    let (untraced, _) = timed_section(spec, &frames, ctx, secs, min_untraced, false, epoch);
    let mut res = WorkloadResult {
        name: spec.name.to_string(),
        attempted: untraced.ok + untraced.failed,
        failed: untraced.failed,
        ..Default::default()
    };

    if !ctx.traced {
        let compile_ns = compile_ns_per_plan(&plans, ctx, &mut speed);
        let totals = Totals::of(&plans);
        let w = |values| Windowed {
            at_ns: &untraced.at,
            values,
        };
        // The same requests solved in-process, on this thread: what the
        // solves cost without a server. (The round trip is `latency_p50_ms`;
        // its speed is that of other threads' cores, which the speed factor
        // of this thread follows less closely.)
        let round = inproc.round_row(frames.len());
        let point_cycles: f64 = frames.iter().map(|f| f.point_cycles).sum();
        let latency = w(&untraced.latency_ns);
        let grids = (untraced.ok + untraced.failed) as f64;
        res.set_end_to_end([
            ("setup_s", Row::of_samples(&setups)),
            ("cycle_ns_per_point", round.scaled(1.0 / point_cycles)),
            ("solve_s", round.scaled(1e-9 / frames.len() as f64)),
            ("cycles_to_target", Row::exact(untraced.iters / grids)),
            (
                "storage_bytes_per_point",
                Row::exact(totals.storage_bytes_per_point()),
            ),
            (
                "compile_ms_per_plan",
                Row::of_samples(&compile_ns).scaled(1e-6),
            ),
            ("grids_per_s", w(&untraced.grids_ok).rate_row()),
            ("latency_p50_ms", latency.median_row().scaled(1e-6)),
            ("latency_p95_ms", latency.percentile_row(95.0).scaled(1e-6)),
        ]);
        res.ticks = untraced.ticks;
        return res;
    }

    let (secs, min_traced) = ctx.traced_section(min_frames);
    let (traced, recorders) = timed_section(spec, &frames, ctx, secs, min_traced, true, epoch);
    res.attempted += traced.ok + traced.failed;
    res.failed += traced.failed;

    let layers = &mut res.per_layer;
    plan_layers(&plans, None, &mut speed, layers);
    let report = inproc.trace.report().expect("enabled trace has a report");
    runtime_layers(&inproc.cycles, &report, inproc.pool, layers);
    server_layers(
        spec,
        &frames,
        &traced,
        &inproc.solve_ns,
        &start_ns,
        &mut speed,
        layers,
    );
    trace_overhead(&untraced.latency_ns, &traced.latency_ns, layers);

    let mut all = vec![rec];
    all.extend(recorders);
    res.spans = merge(all);
    res.reconciled = reconcile(&res.spans, "timed");
    res.ticks = traced.ticks;
    res
}

const CODEC_REPS: usize = 50;
const ACQUIRE_REPS: usize = 200;

/// `server.*`: public codecs and the session manager called directly on
/// the workload's frames, plus what the traced section and the server's
/// own counters say.
fn server_layers(
    spec: &ServeSpec,
    frames: &[Frame],
    traced: &Section,
    inproc_ns: &[f64],
    start_ns: &[f64],
    speed: &mut Speed,
    layers: &mut Layers,
) {
    // codecs: one pass over every frame per sample, reported per frame
    let per_frame_us = 1e-3 / frames.len() as f64;
    let mut time = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..CODEC_REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64 / speed.factor()
            })
            .collect();
        Row::of_samples(&samples)
    };
    let requests: Vec<Request<'_>> = frames.iter().map(|f| Request::of(&f.reqs)).collect();
    let replies: Vec<Reply> = frames.iter().map(Reply::of).collect();
    let request_payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let reply_payloads: Vec<Vec<u8>> = replies.iter().map(Reply::encode).collect();
    let row = time(&mut || {
        for r in &requests {
            std::hint::black_box(r.encode());
        }
    });
    put(layers, "server.encode_request_us", row.scaled(per_frame_us));
    let row = time(&mut || {
        for (r, p) in requests.iter().zip(&request_payloads) {
            assert!(
                std::hint::black_box(r.decodes(p)),
                "request does not decode"
            );
        }
    });
    put(layers, "server.decode_request_us", row.scaled(per_frame_us));
    let row = time(&mut || {
        for r in &replies {
            std::hint::black_box(r.encode());
        }
    });
    put(
        layers,
        "server.encode_response_us",
        row.scaled(per_frame_us),
    );
    let row = time(&mut || {
        for (r, p) in replies.iter().zip(&reply_payloads) {
            assert!(std::hint::black_box(r.decodes(p)), "reply does not decode");
        }
    });
    put(
        layers,
        "server.decode_response_us",
        row.scaled(per_frame_us),
    );
    let row = time(&mut || {
        for f in frames {
            std::hint::black_box(
                protocol::frame_boundary(std::hint::black_box(&f.bytes[0])).is_ok(),
            );
        }
    });
    put(
        layers,
        "server.frame_boundary_ns",
        row.scaled(1.0 / frames.len() as f64),
    );

    // session acquire + release: cold creates the session (compiles), warm
    // leases the idle runner back
    let per_item_us = 1e-3 / spec.items.len() as f64;
    let coeffs: Vec<Option<Vec<f64>>> = spec.items.iter().map(|i| plan_spec(i).coeff()).collect();
    let acquire_all = |sessions: &SessionManager| {
        for (item, coeff) in spec.items.iter().zip(&coeffs) {
            let lease = sessions
                .acquire_scenario(
                    &item.cfg,
                    item.variant,
                    gmg_multigrid::ScenarioSpec::new(item.scenario),
                    coeff.as_deref(),
                )
                .unwrap_or_else(|e| panic!("{}: acquire failed: {e:?}", item.cfg.tag()));
            sessions.release(lease);
        }
    };
    let mut cold = Vec::new();
    for _ in 0..MIN_SETUPS {
        PlanCache::global().clear();
        let sessions = SessionManager::new(None, None, ENGINE_THREADS, 1);
        let t0 = Instant::now();
        acquire_all(&sessions);
        cold.push(t0.elapsed().as_nanos() as f64 / speed.factor());
    }
    put(
        layers,
        "server.session_acquire_cold_us",
        Row::of_samples(&cold).scaled(per_item_us),
    );
    let sessions = SessionManager::new(None, None, ENGINE_THREADS, 1);
    acquire_all(&sessions);
    let warm: Vec<f64> = (0..ACQUIRE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            acquire_all(&sessions);
            t0.elapsed().as_nanos() as f64 / speed.factor()
        })
        .collect();
    put(
        layers,
        "server.session_acquire_warm_us",
        Row::of_samples(&warm).scaled(per_item_us),
    );
    put(
        layers,
        "server.start_ms",
        Row::of_samples(start_ns).scaled(1e-6),
    );

    // round trip against the same requests solved in-process
    let latency = Windowed {
        at_ns: &traced.at,
        values: &traced.latency_ns,
    };
    let roundtrip = latency.median_row();
    let inproc = median(inproc_ns);
    put(layers, "server.roundtrip_us", roundtrip.scaled(1e-3));
    put(
        layers,
        "server.inproc_solve_us",
        Row::of_samples(inproc_ns).scaled(1e-3),
    );
    put(
        layers,
        "server.overhead_us",
        Row::derived(
            (roundtrip.value - inproc) * 1e-3,
            roundtrip.samples + inproc_ns.len(),
        ),
    );
    put(
        layers,
        "server.overhead_share",
        Row::derived(
            (roundtrip.value - inproc) / roundtrip.value,
            roundtrip.samples + inproc_ns.len(),
        ),
    );
    put(
        layers,
        "server.latency_p99_ms",
        latency.percentile_row(99.0).scaled(1e-6),
    );
    put(
        layers,
        "server.service_us",
        Row::of_samples(&traced.service_ns).scaled(1e-3),
    );
    if let Some(report) = &traced.report {
        let (ns, n) = report
            .stages
            .iter()
            .filter(|s| s.name == "admission-queue")
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.ns, n + s.invocations));
        put(
            layers,
            "server.queue_wait_us",
            Row::exact(ns as f64 / n.max(1) as f64 * 1e-3),
        );
    }

    let snap = &traced.snapshot;
    let acquires = (snap.session_hits + snap.session_misses).max(1) as f64;
    put(
        layers,
        "server.session_hit_rate",
        Row::exact(snap.session_hits as f64 / acquires),
    );
    put(
        layers,
        "server.queue_max_depth",
        Row::exact(snap.queue_max_depth as f64),
    );
    put(layers, "server.batches", Row::exact(snap.batches as f64));
    put(
        layers,
        "server.rejected",
        Row::exact((snap.rejected_queue_full + snap.rejected_tenant) as f64),
    );
    put(
        layers,
        "server.protocol_errors",
        Row::exact(snap.protocol_errors as f64),
    );
    put(
        layers,
        "server.wire_bytes_per_grid",
        Row::exact(traced.wire_bytes as f64 / (traced.ok + traced.failed).max(1) as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(traced: bool, corrupt: bool) -> RunCtx {
        RunCtx {
            seed: 11,
            seconds: 0.2,
            traced,
            quick: true,
            corrupt,
        }
    }

    fn quiet() -> Inproc {
        Inproc::new(Trace::disabled(), 1)
    }

    #[test]
    fn same_seed_same_frames() {
        let spec = spec("serve_batch").unwrap();
        let a = prepare(&spec, 11, &mut quiet());
        let b = prepare(&spec, 11, &mut quiet());
        let c = prepare(&spec, 12, &mut quiet());
        assert_eq!(a.len(), BATCH_FRAMES);
        assert!(a.iter().all(|f| f.want.len() == BATCH));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.want, y.want);
        }
        assert_ne!(a[0].bytes, c[0].bytes);
        // the eight grids of a frame are eight different problems
        assert_ne!(a[0].want[0], a[0].want[1]);
    }

    #[test]
    fn both_workloads_verify_every_reply() {
        for name in ["serve_mixed", "serve_batch"] {
            let r = run(&spec(name).unwrap(), &ctx(false, false));
            assert!(
                r.correct(),
                "{name}: failed {} of {}",
                r.failed,
                r.attempted
            );
            assert!(r.attempted >= 8);
            for m in &crate::catalog::END_TO_END {
                assert!(r.end_to_end[m.name].value > 0.0, "{name}.{}", m.name);
            }
        }
    }

    #[test]
    fn a_corrupted_reply_is_counted_as_failed() {
        let r = run(&spec("serve_batch").unwrap(), &ctx(false, true));
        assert_eq!(r.failed, 1);
        assert!(r.failed_share() > 0.0 && !r.correct());
    }

    #[test]
    fn traced_run_reconciles_per_connection() {
        let r = run(&spec("serve_mixed").unwrap(), &ctx(true, false));
        assert!(r.correct(), "{:?}", r.reconciled);
        assert_eq!(r.reconciled.len(), 2);
        assert!(r
            .spans
            .iter()
            .any(|s| s.name == "server.service" && s.parent != 0));
        assert!(r.per_layer["server.session_hit_rate"].0.value > 0.5);
        assert!(r.per_layer.contains_key("server.queue_wait_us"));
    }
}
