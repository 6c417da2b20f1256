//! End-to-end batched serving: `SOLVE_BATCH` frames answered grid-for-grid
//! bitwise-correct, server-side coalescing of same-shape singles into one
//! engine pass, and a clean verifying loadgen run with a batch mix.

use std::net::TcpStream;
use std::time::Duration;

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use gmg_multigrid::solver::{setup_poisson, DslRunner};
use gmg_server::loadgen::{self, LoadgenOptions, MixItem};
use gmg_server::protocol::{self, BatchSolveRequest, BatchSolveResponse, SolveRequest};
use gmg_server::{start, ServerConfig};
use polymg::{splitmix64, PipelineOptions, Scenario, Variant};

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// `f` with a small deterministic perturbation of its own for grid `k`.
fn perturbed(f: &[f64], k: usize) -> Vec<f64> {
    let mut fk = f.to_vec();
    for (i, x) in fk.iter_mut().enumerate() {
        let r = splitmix64((k as u64) << 32 | i as u64);
        *x += (r % 1000) as f64 * 1e-6;
    }
    fk
}

/// B perturbed (v0, f) pairs for one shape plus their independently
/// solved single-RHS reference bit patterns.
#[allow(clippy::type_complexity)]
fn perturbed_problems(
    cfg: &MgConfig,
    variant: Variant,
    iters: u16,
    b: usize,
) -> (Vec<(Vec<f64>, Vec<f64>)>, Vec<Vec<u64>>) {
    let (v0, f, _) = setup_poisson(cfg);
    let mut problems = Vec::with_capacity(b);
    let mut refs = Vec::with_capacity(b);
    for k in 0..b {
        let fk = perturbed(&f, k);
        let opts = PipelineOptions::for_variant(variant, cfg.ndims);
        let mut runner = DslRunner::new(cfg, opts, "batch-ref").expect("reference compile");
        let mut v = v0.clone();
        for _ in 0..iters {
            runner.cycle_with_stats(&mut v, &fk).expect("reference cycle");
        }
        refs.push(v.iter().map(|x| x.to_bits()).collect());
        problems.push((v0.clone(), fk));
    }
    (problems, refs)
}

#[test]
fn solve_batch_answers_every_grid_bitwise() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let (problems, refs) = perturbed_problems(&cfg, Variant::OptPlus, 2, 5);
    let reqs: Vec<SolveRequest> = problems
        .iter()
        .map(|(v0, f)| {
            SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 2, v0.clone(), f.clone())
        })
        .collect();

    let mut s = connect(addr);
    protocol::write_frame(
        &mut s,
        protocol::OP_SOLVE_BATCH,
        &BatchSolveRequest { reqs }.encode(),
    )
    .unwrap();
    let frame = protocol::read_frame(&mut s).expect("batch response");
    assert_eq!(
        frame.opcode,
        protocol::OP_SOLVE_BATCH_OK,
        "expected SOLVE_BATCH_OK, payload: {:?}",
        protocol::decode_error(&frame.payload)
    );
    let resp = BatchSolveResponse::decode(&frame.payload).expect("decode");
    assert_eq!(resp.vs.len(), refs.len());
    for (k, (got, want)) in resp.vs.iter().zip(&refs).enumerate() {
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(&gb, want, "batched grid {k} diverged from its reference");
    }

    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let f = protocol::read_frame(&mut s).expect("shutdown ack");
    assert_eq!(f.opcode, protocol::OP_SHUTDOWN_ACK);
    let snap = handle.join();
    assert_eq!(snap.requests, 5, "requests counts admitted grids");
    assert_eq!(snap.ok, 5, "ok counts answered grids");
    assert_eq!(snap.batches, 1, "one multi-RHS pass");
    assert_eq!(snap.coalesced, 0, "a single frame coalesces nothing");
    // 5 RHS lands in the 5–8 histogram bucket
    assert_eq!(snap.batch_hist[gmg_trace::batch_hist_bucket(5)], 1);
}

/// A batch carries any scenario: `varcoef` grids sharing one coefficient
/// field, `rbgs` grids and mixed-precision grids each come back from one
/// `SOLVE_BATCH` frame bitwise equal to single-RHS solves of the same grids.
#[test]
fn scenario_batches_answer_every_grid_like_its_single() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let specs = [
        ScenarioSpec::new(Scenario::VarCoef),
        ScenarioSpec::new(Scenario::Rbgs),
        ScenarioSpec {
            scenario: Scenario::Constant,
            mixed: true,
        },
    ];
    let mut s = connect(handle.addr());
    for spec in specs {
        let coeff = spec.scenario.needs_coeff().then(|| coeff_field(&cfg));
        let opts = PipelineOptions::for_variant(Variant::OptPlus, cfg.ndims);
        let mut single = scenario_runner(&cfg, spec, opts, "single-ref", coeff.clone())
            .expect("reference compile");
        let (v0, f, _) = setup_poisson(&cfg);
        let mut reqs = Vec::new();
        let mut refs = Vec::new();
        for k in 0..3 {
            let fk = perturbed(&f, k);
            let mut v = v0.clone();
            for _ in 0..2 {
                single.cycle_with_stats(&mut v, &fk).expect("reference cycle");
            }
            refs.push(v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
            let mut req = SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 2, v0.clone(), fk);
            req.scenario = spec.scenario.wire_id();
            req.mixed = spec.mixed;
            req.coeff = coeff.clone().unwrap_or_default();
            reqs.push(req);
        }
        protocol::write_frame(
            &mut s,
            protocol::OP_SOLVE_BATCH,
            &BatchSolveRequest { reqs }.encode(),
        )
        .unwrap();
        let frame = protocol::read_frame(&mut s).expect("batch response");
        assert_eq!(
            frame.opcode,
            protocol::OP_SOLVE_BATCH_OK,
            "{}: {:?}",
            spec.label(),
            protocol::decode_error(&frame.payload)
        );
        let resp = BatchSolveResponse::decode(&frame.payload).expect("decode");
        assert_eq!(resp.vs.len(), refs.len());
        for (k, (got, want)) in resp.vs.iter().zip(&refs).enumerate() {
            let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(&gb, want, "{}: batched grid {k} differs from its single", spec.label());
        }
    }
    handle.begin_shutdown();
    let snap = handle.join();
    assert_eq!((snap.ok, snap.batches), (9, 3));
    assert_eq!(snap.scenario_solves[Scenario::VarCoef.wire_id() as usize], 3);
    assert_eq!(snap.scenario_solves[Scenario::Rbgs.wire_id() as usize], 3);
    assert_eq!(snap.mixed_solves, 3);
}

#[test]
fn coalescing_window_merges_same_shape_singles() {
    let handle = start(ServerConfig {
        workers: 1,
        coalesce_window: Some(Duration::from_millis(400)),
        max_batch: 8,
        // the whole burst must be admissible at once for the window to see it
        tenant_cap: 8,
        queue_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let (problems, refs) = perturbed_problems(&cfg, Variant::OptPlus, 1, 6);

    // a burst of same-shape singles from independent connections; the lone
    // worker's coalescing window gathers them into fewer engine passes
    let handles: Vec<_> = problems
        .into_iter()
        .map(|(v0, f)| {
            let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 1, v0, f);
            std::thread::spawn(move || {
                let mut s = connect(addr);
                protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).unwrap();
                let frame = protocol::read_frame(&mut s).expect("solve response");
                assert_eq!(frame.opcode, protocol::OP_SOLVE_OK);
                protocol::SolveResponse::decode(&frame.payload)
                    .expect("decode")
                    .v
            })
        })
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("client thread");
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, refs[k], "coalesced single {k} diverged from reference");
    }

    let mut s = connect(addr);
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    protocol::read_frame(&mut s).expect("shutdown ack");
    let snap = handle.join();
    assert_eq!(snap.ok, 6);
    assert!(
        snap.coalesced >= 1,
        "burst of 6 same-shape singles through 1 worker with a 400 ms window \
         coalesced nothing (batches {}, coalesced {})",
        snap.batches,
        snap.coalesced
    );
    assert!(snap.batches >= 1);
}

#[test]
fn loadgen_batch_mix_is_clean_and_exercises_batches() {
    let handle = start(ServerConfig {
        workers: 2,
        coalesce_window: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    })
    .expect("start");

    let mut w3 = MgConfig::new(3, 15, CycleType::W, SmoothSteps::s1000());
    w3.levels = 3;
    let mix = vec![
        MixItem::new(MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444()), Variant::OptPlus, 2),
        MixItem::new(w3, Variant::OptPlus, 1),
    ];
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 4,
        requests_per_conn: 6,
        tenants: 2,
        shutdown: true,
        batch: 3,
        mix,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(&opts).expect("batched loadgen");
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.verify_failures, 0, "{}", report.summary());
    assert!(report.batch_frames > 0, "{}", report.summary());
    // grid accounting closes exactly
    assert_eq!(
        report.ok + report.exec_error_grids + report.dropped,
        report.requests,
        "{}",
        report.summary()
    );
    // the two latency distributions are populated independently
    assert!(!report.service_ns.is_empty());
    assert_eq!(report.service_ns.len(), report.e2e_ns.len());

    let snap = handle.join();
    assert_eq!(snap.ok, report.ok);
    assert!(snap.batches > 0, "no multi-RHS pass despite batch frames");
    // bucket 0 is single-RHS passes; everything above sums to `batches`
    let multi: u64 = snap.batch_hist[1..].iter().sum();
    assert_eq!(multi, snap.batches, "histogram multi-RHS buckets vs batches");
}
