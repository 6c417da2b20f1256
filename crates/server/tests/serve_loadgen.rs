//! End-to-end serving tests: loadgen's bitwise verification against a live
//! in-process server, warm-session reuse, admission-control rejections, and
//! tuned-config application at session creation.

use std::net::TcpStream;
use std::time::Duration;

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::setup_poisson;
use gmg_server::loadgen::{self, LoadgenOptions, MixItem};
use gmg_server::protocol::{self, ErrorCode};
use gmg_server::{start, ServerConfig, SolveRequest};
use polymg::{KernelTier, Variant};

fn small_mix() -> Vec<MixItem> {
    let mut v3 = MgConfig::new(3, 15, CycleType::V, SmoothSteps::s444());
    v3.levels = 3;
    vec![
        MixItem::new(MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444()), Variant::OptPlus, 2),
        MixItem::new(MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444()), Variant::Opt, 1),
        MixItem::new(v3, Variant::OptPlus, 1),
    ]
}

#[test]
fn loadgen_verifies_bitwise_end_to_end() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start");
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 3,
        requests_per_conn: 4,
        tenants: 2,
        shutdown: true,
        mix: small_mix(),
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(&opts).expect("loadgen run");
    assert!(report.is_clean(), "unclean run: {}", report.summary());
    assert_eq!(report.verify_failures, 0);
    assert_eq!(report.ok, 12, "all 12 requests must verify bitwise");
    assert!(!report.server_stats.is_empty(), "STATS must round-trip");

    let snap = handle.join();
    assert_eq!(snap.ok, 12);
    // 3 distinct shapes, 12 requests: the warm-session path must dominate.
    // Concurrent first-touches of one shape may each count a miss (both
    // observe the empty registry), so the miss count is a small range.
    assert_eq!(snap.session_hits + snap.session_misses, 12);
    assert!(
        (3..=6).contains(&snap.session_misses),
        "expected 3..=6 session misses, got {}",
        snap.session_misses
    );
    // engines are bounded by concurrency, not request count
    assert!(
        snap.engines_created <= 2 * 3,
        "engines_created {} exceeds workers x shapes",
        snap.engines_created
    );
}

#[test]
fn a_fast_math_server_verifies_against_a_fast_math_reference() {
    // The tier reaches the server: a fast-math loadgen verifies every
    // reply bitwise, and a default-tier loadgen against the same server
    // sees the reassociated grids differ from its lane-safe reference.
    let handle = start(ServerConfig {
        workers: 2,
        tier: KernelTier::FastMath,
        ..ServerConfig::default()
    })
    .expect("start");
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 2,
        requests_per_conn: 3,
        tenants: 2,
        mix: small_mix(),
        tier: KernelTier::FastMath,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(&opts).expect("fast-math loadgen run");
    assert!(report.is_clean(), "unclean run: {}", report.summary());
    assert_eq!((report.ok, report.verify_failures), (6, 0), "{}", report.summary());

    let lane_safe = LoadgenOptions {
        tier: KernelTier::LaneSafe,
        shutdown: true,
        ..opts
    };
    let report = loadgen::run(&lane_safe).expect("lane-safe loadgen run");
    assert!(report.verify_failures > 0, "{}", report.summary());
    handle.join();
}

#[test]
fn queue_full_and_tenant_caps_reject_typed() {
    // One slow worker (50 ms service delay), queue of one, tenant cap one:
    // with three simultaneous requests, at least one sees QueueFull or
    // TenantLimit, and a retrying client still finishes clean.
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        tenant_cap: 1,
        service_delay: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v, f, _) = setup_poisson(&cfg);
    let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 7, 1, v, f);
    let payload = req.encode();

    // Prime the session so the held queue slot is not a compile.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &payload).unwrap();
        let fr = protocol::read_frame(&mut s).unwrap();
        assert_eq!(fr.opcode, protocol::OP_SOLVE_OK);
    }

    // Three connections, same tenant, fired together: one executes, the
    // rest hit the tenant cap (in-flight > 1 for tenant 7) — and with the
    // cap lifted to the queue, QueueFull. Either typed rejection is valid;
    // what is *not* valid is a hang, a panic, or an untyped close.
    let mut streams: Vec<TcpStream> = (0..3)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s
        })
        .collect();
    for s in &mut streams {
        protocol::write_frame(s, protocol::OP_SOLVE, &payload).unwrap();
    }
    let mut oks = 0;
    let mut rejects = 0;
    for s in &mut streams {
        let fr = protocol::read_frame(s).expect("typed response, not a hang");
        match fr.opcode {
            protocol::OP_SOLVE_OK => oks += 1,
            protocol::OP_ERROR => {
                let (code, _) = protocol::decode_error(&fr.payload).unwrap();
                assert!(
                    matches!(code, ErrorCode::QueueFull | ErrorCode::TenantLimit),
                    "unexpected rejection {code:?}"
                );
                rejects += 1;
            }
            other => panic!("unexpected opcode {other:#04x}"),
        }
    }
    assert!(oks >= 1, "at least one request must execute");
    assert!(rejects >= 1, "at least one request must be rejected");

    let snap = handle.snapshot();
    assert!(snap.rejected_queue_full + snap.rejected_tenant >= 1);
    assert!(snap.queue_max_depth >= 1);

    // rejected connections remain usable
    for s in &mut streams {
        protocol::write_frame(s, protocol::OP_PING, b"x").unwrap();
        assert_eq!(protocol::read_frame(s).unwrap().opcode, protocol::OP_PONG);
    }

    let mut s = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    assert_eq!(
        protocol::read_frame(&mut s).unwrap().opcode,
        protocol::OP_SHUTDOWN_ACK
    );
    handle.join();
}

#[test]
fn sequential_client_never_trips_its_own_tenant_cap() {
    // A strict request→reply client holds at most one solve at any moment,
    // so with `tenant_cap: 1` none of its requests may be refused — the
    // budget of solve k must be free by the time reply k can be read. Each
    // request opens a fresh connection, so nothing but the reply orders
    // request k+1 after solve k.
    let handle = start(ServerConfig {
        workers: 1,
        tenant_cap: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v, f, _) = setup_poisson(&cfg);
    let payload = SolveRequest::from_config(&cfg, Variant::OptPlus, 7, 1, v, f).encode();
    for k in 0..200 {
        let mut s = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &payload).unwrap();
        let fr = protocol::read_frame(&mut s).unwrap();
        assert_eq!(
            fr.opcode,
            protocol::OP_SOLVE_OK,
            "request {k} refused: {:?}",
            protocol::decode_error(&fr.payload)
        );
    }
    assert_eq!(handle.snapshot().rejected_tenant, 0);

    let mut s = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    assert_eq!(
        protocol::read_frame(&mut s).unwrap().opcode,
        protocol::OP_SHUTDOWN_ACK
    );
    handle.join();
}

#[test]
fn tuned_store_applies_at_session_creation() {
    use gmg_ir::ParamBindings;
    use gmg_multigrid::cycles::build_cycle_pipeline;
    use polymg::{cache, TuneConfig, TunedStore};

    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let pipeline = build_cycle_pipeline(&cfg);
    let pfp = cache::pipeline_fingerprint(&pipeline, &ParamBindings::new());
    let mut store = TunedStore::default();
    store.record(
        pfp,
        2,
        TuneConfig::new(vec![16, 64], 6),
        1.0,
    );

    let handle = start(ServerConfig {
        workers: 1,
        tuned: Some(store),
        ..ServerConfig::default()
    })
    .expect("start");

    let (v, f, _) = setup_poisson(&cfg);
    let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 1, v.clone(), f.clone());
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).unwrap();
    let fr = protocol::read_frame(&mut s).unwrap();
    assert_eq!(fr.opcode, protocol::OP_SOLVE_OK);

    // Tuned tiling must not change the answer (bitwise) — verify against a
    // local run with the *default* options.
    let resp = gmg_server::SolveResponse::decode(&fr.payload).unwrap();
    let mut expect = v;
    let mut runner = gmg_multigrid::solver::DslRunner::new(
        &cfg,
        polymg::PipelineOptions::for_variant(Variant::OptPlus, 2),
        "ref",
    )
    .unwrap();
    runner.cycle_with_stats(&mut expect, &f).unwrap();
    assert_eq!(
        resp.v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "tuned tiling changed the solution bitwise"
    );

    let snap = handle.snapshot();
    assert_eq!(snap.tuned_applied, 1, "tuned config must be applied once");

    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let _ = protocol::read_frame(&mut s);
    handle.join();
}
