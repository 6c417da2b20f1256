//! Event-core behavior: tenant→shard pinning with warm-session reuse
//! across reconnect churn, weighted QoS keeping latency traffic
//! responsive under a batch flood, strict in-order response delivery for
//! pipelined frames, and a shutdown that drains queued work on every
//! shard.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::{setup_poisson, DslRunner};
use gmg_server::protocol::{self, BatchSolveRequest, ErrorCode, SolveRequest, SolveResponse};
use gmg_server::{shard_for_tenant, start, ServerConfig};
use polymg::{PipelineOptions, Variant};

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// Independently solved reference bit pattern for `(cfg, variant, iters)`
/// applied to the canonical Poisson setup.
fn reference_bits(cfg: &MgConfig, variant: Variant, iters: u16) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
    let (v0, f, _) = setup_poisson(cfg);
    let opts = PipelineOptions::for_variant(variant, cfg.ndims);
    let mut runner = DslRunner::new(cfg, opts, "shard-qos-ref").expect("reference compile");
    let mut v = v0.clone();
    for _ in 0..iters {
        runner.cycle_with_stats(&mut v, &f).expect("reference cycle");
    }
    let bits = v.iter().map(|x| x.to_bits()).collect();
    (v0, f, bits)
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut s = connect(addr);
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let f = protocol::read_frame(&mut s).expect("shutdown ack");
    assert_eq!(f.opcode, protocol::OP_SHUTDOWN_ACK);
}

/// Reconnecting clients of one tenant always land on `shard_for_tenant`,
/// and the warm session survives the churn: after the first miss every
/// solve is a session hit, and the other shard sees no session traffic.
#[test]
fn tenant_pinning_and_warm_sessions_survive_reconnect_churn() {
    const TENANT: u32 = 7;
    const ROUNDS: usize = 8;
    let handle = start(ServerConfig {
        shards: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v0, f, want) = reference_bits(&cfg, Variant::OptPlus, 1);
    let req = SolveRequest::from_config(&cfg, Variant::OptPlus, TENANT, 1, v0, f);

    // Sequential reconnects: each connection sends exactly one solve and
    // closes, so nothing but the tenant hash can keep the session warm.
    for round in 0..ROUNDS {
        let mut s = connect(addr);
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).unwrap();
        let frame = protocol::read_frame(&mut s).expect("solve response");
        assert_eq!(
            frame.opcode,
            protocol::OP_SOLVE_OK,
            "round {round}: {:?}",
            protocol::decode_error(&frame.payload)
        );
        let got = SolveResponse::decode(&frame.payload).expect("decode").v;
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, want, "round {round} diverged from reference");
    }

    let snaps = handle.shard_snapshots();
    assert_eq!(snaps.len(), 2);
    let home = shard_for_tenant(TENANT, 2);
    assert_eq!(home, shard_for_tenant(TENANT, 2), "hash must be stable");
    let away = 1 - home;
    assert_eq!(
        snaps[home].session_hits + snaps[home].session_misses,
        ROUNDS as u64,
        "every solve for tenant {TENANT} must run on shard {home}"
    );
    assert_eq!(
        snaps[away].session_hits + snaps[away].session_misses,
        0,
        "shard {away} must see no session traffic for tenant {TENANT}"
    );
    assert!(
        snaps[home].session_hits >= (ROUNDS - 1) as u64,
        "reconnect churn must reuse the warm session (hits {}, misses {})",
        snaps[home].session_hits,
        snaps[home].session_misses
    );
    // Round-robin accept deals roughly half the connections to the wrong
    // shard; their first solve migrates them home.
    assert!(
        snaps[home].adopted >= 1,
        "expected at least one adoption onto the home shard, snaps: {snaps:?}"
    );
    assert!(snaps[home].frames >= 1, "home shard decoded no frames");

    shutdown(addr);
    let snap = handle.join();
    assert_eq!(snap.ok, ROUNDS as u64);
    assert_eq!(snap.session_hits, snaps[home].session_hits);
}

/// A single-worker shard under a pipelined `SOLVE_BATCH` flood keeps
/// latency-class singles responsive: with weight-4 round-robin a probe
/// waits for at most a couple of batch passes, never the whole backlog.
#[test]
fn latency_class_stays_responsive_under_batch_flood() {
    const FLOOD_JOBS: usize = 12;
    const PROBES: usize = 6;
    let delay = Duration::from_millis(25);
    let handle = start(ServerConfig {
        shards: 1,
        workers: 1,
        tenant_cap: 16,
        queue_capacity: 32,
        service_delay: Some(delay),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v0, f, want) = reference_bits(&cfg, Variant::OptPlus, 1);
    let batch_req = BatchSolveRequest {
        reqs: vec![
            SolveRequest::from_config(&cfg, Variant::OptPlus, 1, 1, v0.clone(), f.clone()),
            SolveRequest::from_config(&cfg, Variant::OptPlus, 1, 1, v0.clone(), f.clone()),
        ],
    }
    .encode();
    let probe_req = SolveRequest::from_config(&cfg, Variant::OptPlus, 2, 1, v0, f);

    // Flood: pipeline the whole backlog in one burst, then read replies.
    let flood = std::thread::spawn(move || {
        let mut s = connect(addr);
        let mut burst = Vec::new();
        for _ in 0..FLOOD_JOBS {
            burst.extend_from_slice(&protocol::frame_bytes(
                protocol::OP_SOLVE_BATCH,
                &batch_req,
            ));
        }
        s.write_all(&burst).unwrap();
        let t0 = Instant::now();
        for k in 0..FLOOD_JOBS {
            let frame = protocol::read_frame(&mut s).expect("batch response");
            assert_eq!(
                frame.opcode,
                protocol::OP_SOLVE_BATCH_OK,
                "flood frame {k}: {:?}",
                protocol::decode_error(&frame.payload)
            );
        }
        t0.elapsed()
    });

    // Give the event loop a moment to decode and enqueue the backlog, so
    // the first probe genuinely arrives behind a full batch queue.
    std::thread::sleep(Duration::from_millis(40));
    let mut worst = Duration::ZERO;
    let mut s = connect(addr);
    for k in 0..PROBES {
        let t0 = Instant::now();
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &probe_req.encode()).unwrap();
        let frame = protocol::read_frame(&mut s).expect("probe response");
        let rtt = t0.elapsed();
        assert_eq!(
            frame.opcode,
            protocol::OP_SOLVE_OK,
            "probe {k}: {:?}",
            protocol::decode_error(&frame.payload)
        );
        let got = SolveResponse::decode(&frame.payload).expect("decode").v;
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, want, "probe {k} diverged from reference");
        worst = worst.max(rtt);
    }

    let flood_elapsed = flood.join().expect("flood thread");
    // The lone worker must serialize the flood: 12 passes of >= 25 ms.
    assert!(
        flood_elapsed >= delay * FLOOD_JOBS as u32,
        "flood finished in {flood_elapsed:?}; the probes never contended"
    );
    // FIFO would park the first probe behind the whole 300 ms backlog;
    // weighted dequeue bounds it to a couple of service delays.
    assert!(
        worst < Duration::from_millis(200),
        "latency-class probe starved: worst rtt {worst:?}"
    );

    let snaps = handle.shard_snapshots();
    assert_eq!(snaps[0].dequeued_batch, FLOOD_JOBS as u64);
    assert_eq!(snaps[0].dequeued_latency, PROBES as u64);

    shutdown(addr);
    let snap = handle.join();
    assert_eq!(snap.ok, (2 * FLOOD_JOBS + PROBES) as u64);
    assert_eq!(snap.rejected_queue_full, 0);
    assert_eq!(snap.rejected_tenant, 0);
}

/// Pipelined frames on one connection are answered strictly in request
/// order even when a slow solve sits between instant pings.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let handle = start(ServerConfig {
        shards: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v0, f, want) = reference_bits(&cfg, Variant::OptPlus, 1);
    let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 3, 1, v0, f);

    let mut s = connect(addr);
    let mut burst = Vec::new();
    burst.extend_from_slice(&protocol::frame_bytes(protocol::OP_PING, b"one"));
    burst.extend_from_slice(&protocol::frame_bytes(protocol::OP_PING, b"two"));
    burst.extend_from_slice(&protocol::frame_bytes(protocol::OP_SOLVE, &req.encode()));
    burst.extend_from_slice(&protocol::frame_bytes(protocol::OP_PING, b"three"));
    s.write_all(&burst).unwrap();

    for payload in [b"one".as_slice(), b"two".as_slice()] {
        let frame = protocol::read_frame(&mut s).expect("pong");
        assert_eq!(frame.opcode, protocol::OP_PONG);
        assert_eq!(frame.payload, payload);
    }
    let frame = protocol::read_frame(&mut s).expect("solve response");
    assert_eq!(
        frame.opcode,
        protocol::OP_SOLVE_OK,
        "{:?}",
        protocol::decode_error(&frame.payload)
    );
    let got = SolveResponse::decode(&frame.payload).expect("decode").v;
    let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
    assert_eq!(gb, want, "pipelined solve diverged from reference");
    // The trailing ping was decoded before the solve completed, but its
    // pong must not overtake the solve response.
    let frame = protocol::read_frame(&mut s).expect("pong");
    assert_eq!(frame.opcode, protocol::OP_PONG);
    assert_eq!(frame.payload, b"three");

    shutdown(addr);
    let snap = handle.join();
    assert_eq!(snap.ok, 1);
}

/// Shutdown from the handle while both shards hold queued work: every
/// pipelined frame is answered — solved bitwise, or refused `ShuttingDown`
/// if it was admitted after the close — and `join` returns.
#[test]
fn shutdown_under_load_answers_every_queued_frame_on_both_shards() {
    const FRAMES: usize = 8;
    let handle = start(ServerConfig {
        shards: 2,
        workers: 1,
        tenant_cap: FRAMES,
        queue_capacity: FRAMES,
        service_delay: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v0, f, want) = reference_bits(&cfg, Variant::OptPlus, 1);
    // one connection per shard: tenant `home` lives on shard `home`
    let clients: Vec<_> = (0..2)
        .map(|home| {
            let tenant = (0..).find(|&t| shard_for_tenant(t, 2) == home).unwrap();
            let (v, f) = (v0.clone(), f.clone());
            let req = SolveRequest::from_config(&cfg, Variant::OptPlus, tenant, 1, v, f);
            let frame = protocol::frame_bytes(protocol::OP_SOLVE, &req.encode());
            let mut s = connect(addr);
            s.write_all(&frame.repeat(FRAMES)).unwrap();
            let want = want.clone();
            std::thread::spawn(move || {
                let (mut ok, mut refused) = (0u64, 0u64);
                for k in 0..FRAMES {
                    let frame = protocol::read_frame(&mut s)
                        .unwrap_or_else(|e| panic!("tenant {tenant} frame {k} unanswered: {e:?}"));
                    if frame.opcode == protocol::OP_SOLVE_OK {
                        let got = SolveResponse::decode(&frame.payload).expect("decode").v;
                        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(gb, want, "tenant {tenant} frame {k} diverged");
                        ok += 1;
                    } else {
                        let err = protocol::decode_error(&frame.payload);
                        assert!(
                            matches!(err, Some((ErrorCode::ShuttingDown, _))),
                            "tenant {tenant} frame {k}: opcode {:#04x} {err:?}",
                            frame.opcode
                        );
                        refused += 1;
                    }
                }
                (ok, refused)
            })
        })
        .collect();

    // Close once each shard has a solve running and the rest of its burst
    // behind it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let started =
        |h: &gmg_server::ServerHandle| h.shard_snapshots().iter().all(|s| s.dequeued_latency >= 1);
    while !started(&handle) {
        assert!(Instant::now() < deadline, "both shards never started work");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.begin_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join()).unwrap());
    let snap = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns within 10 s of the shutdown");

    let (ok, refused) = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .fold((0, 0), |(a, b), (ok, refused)| (a + ok, b + refused));
    assert_eq!(ok + refused, 2 * FRAMES as u64);
    assert_eq!((snap.ok, snap.rejected_shutdown), (ok, refused));
    assert_eq!(snap.ok + snap.rejected_shutdown, 2 * FRAMES as u64);
}
