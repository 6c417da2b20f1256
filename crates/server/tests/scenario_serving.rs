//! End-to-end scenario serving (DESIGN.md §18): variable-coefficient,
//! FMG, RB-GS, Chebyshev and mixed-precision requests travel as
//! `SOLVE_SCENARIO` frames through a live in-process server, loadgen
//! verifies every response bitwise against an in-process scenario
//! reference, and the server's per-scenario counters account for the run.

use std::net::TcpStream;

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use gmg_multigrid::solver::setup_poisson;
use gmg_server::loadgen::{self, scenario_mix, LoadgenOptions};
use gmg_server::protocol::{self, ErrorCode};
use gmg_server::{start, ServerConfig, SolveRequest, SolveResponse};
use polymg::{PipelineOptions, Scenario, Variant};

#[test]
fn scenario_loadgen_verifies_bitwise_end_to_end() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start");
    // One item per non-constant scenario plus a mixed-precision constant
    // item: 5 shapes. Two connections x 10 requests cycle the whole mix
    // twice each, so every scenario is also a warm-session *hit* at least
    // once.
    let mix = scenario_mix(
        &[
            Scenario::VarCoef,
            Scenario::Fmg,
            Scenario::Rbgs,
            Scenario::Chebyshev,
        ],
        true,
    );
    assert_eq!(mix.len(), 5);
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 2,
        requests_per_conn: 10,
        tenants: 2,
        shutdown: true,
        mix,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(&opts).expect("loadgen run");
    assert!(report.is_clean(), "unclean run: {}", report.summary());
    assert_eq!(report.verify_failures, 0);
    assert_eq!(report.ok, 20, "all 20 scenario requests must verify bitwise");

    let snap = handle.join();
    assert_eq!(snap.ok, 20);
    // Wire-id order: constant, varcoef, fmg, rbgs, chebyshev.
    assert!(snap.scenario_solves[0] > 0, "mixed rides a constant scenario");
    for (i, label) in ["varcoef", "fmg", "rbgs", "chebyshev"].iter().enumerate() {
        assert!(
            snap.scenario_solves[i + 1] > 0,
            "scenario {label} never served: {:?}",
            snap.scenario_solves
        );
    }
    assert!(snap.mixed_solves > 0, "mixed-precision solves must be counted");
    assert_eq!(snap.session_hits + snap.session_misses, 20);
    assert!(
        snap.session_hits >= 5,
        "second pass over the mix must reuse warm scenario sessions, got {} hits",
        snap.session_hits
    );
}

#[test]
fn varcoef_request_round_trips_the_coefficient_grid() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let (v, f, _) = setup_poisson(&cfg);
    let coeff = coeff_field(&cfg);

    let mut req = SolveRequest::from_config(&cfg, Variant::OptPlus, 3, 2, v.clone(), f.clone());
    req.scenario = Scenario::VarCoef.wire_id();
    req.coeff = coeff.clone();

    let mut s = TcpStream::connect(handle.addr()).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SOLVE_SCENARIO, &req.encode_scenario()).unwrap();
    let fr = protocol::read_frame(&mut s).unwrap();
    assert_eq!(fr.opcode, protocol::OP_SOLVE_SCENARIO_OK, "scenario ok frame");
    let resp = SolveResponse::decode(&fr.payload).unwrap();

    // Bitwise against the in-process variable-coefficient reference.
    let mut runner = scenario_runner(
        &cfg,
        ScenarioSpec::new(Scenario::VarCoef),
        PipelineOptions::for_variant(Variant::OptPlus, cfg.ndims),
        "ref",
        Some(coeff),
    )
    .unwrap();
    let mut expect = v;
    for _ in 0..2 {
        runner.cycle_with_stats(&mut expect, &f).unwrap();
    }
    assert_eq!(
        resp.v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "served varcoef solve differs bitwise from the local reference"
    );

    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let _ = protocol::read_frame(&mut s);
    let snap = handle.join();
    assert_eq!(snap.scenario_solves[Scenario::VarCoef.wire_id() as usize], 1);
}

#[test]
fn invalid_scenario_frames_reject_typed() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (v, f, _) = setup_poisson(&cfg);
    let mut s = TcpStream::connect(handle.addr()).unwrap();

    // varcoef without its coefficient grid: decode-time typed rejection.
    let mut req = SolveRequest::from_config(&cfg, Variant::OptPlus, 3, 1, v.clone(), f.clone());
    req.scenario = Scenario::VarCoef.wire_id();
    protocol::write_frame(&mut s, protocol::OP_SOLVE_SCENARIO, &req.encode_scenario()).unwrap();
    let fr = protocol::read_frame(&mut s).unwrap();
    assert_eq!(fr.opcode, protocol::OP_ERROR);
    let (code, msg) = protocol::decode_error(&fr.payload).unwrap();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(msg.contains("coefficient grid"), "unexpected message: {msg}");

    // mixed precision on a scenario that does not support it.
    let mut req = SolveRequest::from_config(&cfg, Variant::OptPlus, 3, 1, v, f);
    req.scenario = Scenario::Chebyshev.wire_id();
    req.mixed = true;
    protocol::write_frame(&mut s, protocol::OP_SOLVE_SCENARIO, &req.encode_scenario()).unwrap();
    let fr = protocol::read_frame(&mut s).unwrap();
    assert_eq!(fr.opcode, protocol::OP_ERROR);
    let (code, msg) = protocol::decode_error(&fr.payload).unwrap();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(msg.contains("mixed-precision"), "unexpected message: {msg}");

    // the connection stays usable after both rejections
    protocol::write_frame(&mut s, protocol::OP_PING, b"x").unwrap();
    assert_eq!(protocol::read_frame(&mut s).unwrap().opcode, protocol::OP_PONG);

    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let _ = protocol::read_frame(&mut s);
    handle.join();
}
