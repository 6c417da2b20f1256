//! Online tuning end-to-end: with `--tune-online` armed, background search
//! trials run strictly on idle capacity while live traffic stays bitwise-
//! verified, winners land in the shared `TunedStore` (and its file), a
//! restarted server applies them, and chaos-faulted trials are discarded
//! as typed errors without leaks — the search still converges.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gmg_ir::ParamBindings;
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::cycles::build_cycle_pipeline;
use gmg_multigrid::solver::setup_poisson;
use gmg_server::loadgen::{self, LoadgenOptions, MixItem};
use gmg_server::{protocol, start, ServerConfig, SolveRequest, TunerConfig};
use polymg::autotune::TuneSource;
use polymg::{cache, ChaosOptions, TunedStore, Variant};

fn shape() -> MgConfig {
    MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444())
}

fn shape_fingerprint(cfg: &MgConfig) -> u64 {
    cache::pipeline_fingerprint(&build_cycle_pipeline(cfg), &ParamBindings::new())
}

fn one_shape_mix() -> Vec<MixItem> {
    vec![MixItem::new(shape(), Variant::OptPlus, 1)]
}

fn loadgen_wave(addr: &str) -> loadgen::LoadgenReport {
    let opts = LoadgenOptions {
        addr: addr.to_string(),
        connections: 2,
        requests_per_conn: 3,
        tenants: 2,
        shutdown: false,
        mix: one_shape_mix(),
        ..LoadgenOptions::default()
    };
    loadgen::run(&opts).expect("loadgen wave")
}

/// Poll the tuner counters until `pred` holds (the tuner only runs on idle
/// capacity, so progress happens between and after the load waves).
fn wait_for(
    handle: &gmg_server::ServerHandle,
    what: &str,
    pred: impl Fn(&gmg_trace::TunerSnapshot) -> bool,
) -> gmg_trace::TunerSnapshot {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let snap = handle.tuner_snapshot().expect("tuner must be armed");
        if pred(&snap) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(handle: gmg_server::ServerHandle) -> gmg_trace::ServerSnapshot {
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let _ = protocol::read_frame(&mut s);
    handle.join()
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("polymg-tuned-{tag}-{}.json", std::process::id()))
}

#[test]
fn online_tuning_records_winner_and_stays_bitwise_clean() {
    let path = temp_store("clean");
    let _ = std::fs::remove_file(&path);
    let handle = start(ServerConfig {
        workers: 2,
        tuner: Some(TunerConfig {
            budget: 6,
            store_path: Some(path.clone()),
            trial_iters: 1,
        }),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr().to_string();

    // First wave seeds the observation mailbox — every response bitwise.
    let report = loadgen_wave(&addr);
    assert!(report.is_clean(), "unclean first wave: {}", report.summary());
    assert_eq!(report.verify_failures, 0);

    // Trials begin once the server goes idle; live traffic during tuning
    // must stay bitwise-verified.
    wait_for(&handle, "first trial", |s| s.trials > 0);
    let report = loadgen_wave(&addr);
    assert!(
        report.is_clean(),
        "unclean wave during tuning: {}",
        report.summary()
    );

    // The search finishes its budget and records exactly one winner for the
    // single fingerprint this mix exercises.
    let snap = wait_for(&handle, "winner", |s| s.winners > 0);
    assert_eq!(snap.fingerprints, 1);
    assert!(snap.observed >= 6, "workers must sample solves: {snap:?}");
    assert!(snap.trials >= 1);
    assert_eq!(snap.leaked_trials, 0, "trial leaked pool bytes: {snap:?}");

    // The winner is in the shared store with online provenance, within the
    // budget, and visible to new sessions of the live server...
    let pfp = shape_fingerprint(&shape());
    let store = handle.tuned_store().expect("shared store");
    let entry = store.lookup(pfp, 2).expect("winner for the served shape");
    assert_eq!(entry.source, TuneSource::Online);
    assert!(entry.evals >= 1 && entry.evals <= 6, "evals {}", entry.evals);
    assert!(entry.metric > 0.0, "metric must be a measured time");

    // ...and traffic after convergence still verifies bitwise (tile, group,
    // band and the lane-safe/scalar tiers are schedule-only).
    let report = loadgen_wave(&addr);
    assert!(
        report.is_clean(),
        "unclean wave after convergence: {}",
        report.summary()
    );
    shutdown(handle);

    // The winner was persisted; a restarted server loads and applies it —
    // and the tuned schedule still matches a default-options reference
    // bitwise.
    let loaded = TunedStore::load(&path).expect("persisted store");
    assert!(loaded.lookup(pfp, 2).is_some(), "winner missing from file");
    let handle = start(ServerConfig {
        workers: 1,
        tuned: Some(loaded),
        ..ServerConfig::default()
    })
    .expect("restart");
    let cfg = shape();
    let (v, f, _) = setup_poisson(&cfg);
    let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 1, v.clone(), f.clone());
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).unwrap();
    let fr = protocol::read_frame(&mut s).unwrap();
    assert_eq!(fr.opcode, protocol::OP_SOLVE_OK);
    let resp = gmg_server::SolveResponse::decode(&fr.payload).unwrap();
    let mut expect = v;
    let mut reference = gmg_multigrid::solver::DslRunner::new(
        &cfg,
        polymg::PipelineOptions::for_variant(Variant::OptPlus, 2),
        "ref",
    )
    .unwrap();
    reference.cycle_with_stats(&mut expect, &f).unwrap();
    assert_eq!(
        resp.v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "online-tuned schedule changed the solution bitwise"
    );
    let snap = shutdown(handle);
    assert!(
        snap.tuned_applied > 0,
        "restarted server must apply the persisted winner"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_faulted_trials_are_discarded_typed_and_search_still_converges() {
    let path = temp_store("chaos");
    let _ = std::fs::remove_file(&path);
    let handle = start(ServerConfig {
        workers: 2,
        // high enough that several trials fault, low enough that the
        // retry-once-then-discard flow leaves measurable candidates
        chaos: Some(ChaosOptions::new(0x7e57_c4a05, 0.05)),
        tuner: Some(TunerConfig {
            budget: 6,
            store_path: Some(path.clone()),
            trial_iters: 2,
        }),
        ..ServerConfig::default()
    })
    .expect("start");

    // Chaos load: responses may fail typed but never corrupt.
    let report = loadgen_wave(&handle.addr().to_string());
    assert_eq!(report.verify_failures, 0, "{}", report.summary());
    assert_eq!(report.unexpected, 0, "{}", report.summary());

    // The tuner shares the server's chaos engine knobs, so trials fault
    // too; each fault is a typed discard (no panic — the thread would die
    // and the counters freeze), no pool bytes leak, and the search still
    // finishes with a recorded winner.
    let snap = wait_for(&handle, "winner under chaos", |s| s.winners > 0);
    assert!(snap.trials >= 1, "no trial survived chaos: {snap:?}");
    assert!(
        snap.discarded_faulted > 0,
        "chaos at this rate must fault at least one trial: {snap:?}"
    );
    assert_eq!(snap.leaked_trials, 0, "faulted trial leaked: {snap:?}");

    let pfp = shape_fingerprint(&shape());
    let store = handle.tuned_store().expect("shared store");
    let entry = store.lookup(pfp, 2).expect("winner despite chaos");
    assert_eq!(entry.source, TuneSource::Online);

    let final_snap = shutdown(handle);
    assert_eq!(final_snap.ok, report.ok);
    let _ = std::fs::remove_file(&path);
}
