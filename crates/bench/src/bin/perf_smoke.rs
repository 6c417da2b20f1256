//! `perf-smoke` — three recording benchmarks that predate `benchmark/`
//! (the kernel-tier trajectory this binary used to measure by default is
//! now `kernel.<family>.<tier>.ns_per_point` of a traced `gmg-benchmark`
//! run; `benchmark/README.md` maps the old `BENCH_pr8.json` rows).
//!
//! ```text
//! perf-smoke --batch-out OUT.json [--batch-n N]  # sequential-vs-batched serving rows
//! perf-smoke --tune-out OUT.json [--n N] [--n3 N]  # search-vs-sweep + tuned-vs-default rows
//! perf-smoke --scenario-out OUT.json [--n N]     # constant/varcoef/mixed-precision rows
//! ```
//!
//! `--batch-out` is the PR-6 serving benchmark: a
//! one-worker in-process server answers the same 32 same-shape RHS first
//! as 32 single `SOLVE` frames, then as `SOLVE_BATCH` frames of 4 and 8
//! grids, every grid verified bitwise against an independent single-RHS
//! reference. Rows carry grids/s and the batched:sequential ratio.
//!
//! `--scenario-out` is the PR-10 scenario benchmark: on one
//! smoother-dominated shape (heavy 8-8-8 Jacobi smoothing, the paper's
//! star operator), each scenario row — constant-coefficient
//! f64, variable-coefficient, and mixed-precision (f32 smoothing) — is run
//! to the *same* relative residual target, and throughput is reported as
//! cycles/s at that equal target. Convergence is asserted; the
//! mixed:constant throughput ratio is recorded, not asserted (the §18
//! expectation is ≥ 1.15×, but a loaded CI host must not hard-fail the
//! build on a timing).
//!
//! `--tune-out` is the PR-9 autotuning benchmark: (a) for each
//! rank, the full §3.2.4 sweep is timed (memoized, min-of-3 real cycle
//! timings) and the seeded evolutionary search runs against the *same*
//! memoized evaluator under its 25% budget — the row records both optima
//! and the eval counts; (b) an online-tuned server (`--tune-online`
//! in-process) is driven to convergence with every response bitwise-
//! verified, then its post-convergence throughput is compared against an
//! identical untuned server.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::{setup_poisson, time_cycles, DslRunner};
use gmg_server::protocol::{self, BatchSolveRequest, BatchSolveResponse, SolveRequest};
use gmg_server::{start, ServerConfig};
use polymg::{PipelineOptions, Variant};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

struct BatchRow {
    mode: &'static str,
    batch: usize,
    frames: usize,
    grids_per_s: f64,
    ratio_vs_sequential: f64,
    service_p50_ns: u64,
    service_p99_ns: u64,
}

fn pctl(xs: &mut [u64], pct: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((pct / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// One pre-encoded request frame: opcode, payload, grids it carries.
type FrameSpec = (u8, Vec<u8>, usize);

/// Answer all `payloads` back-to-back on one connection, verifying each
/// response's grids bitwise against `refs` (flattened in send order).
/// Returns (elapsed, per-frame service latencies).
fn drive_frames(
    addr: std::net::SocketAddr,
    payloads: &[FrameSpec],
    refs: &[Vec<u64>],
) -> (Duration, Vec<u64>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut service = Vec::with_capacity(payloads.len());
    let mut grid = 0usize;
    let t0 = Instant::now();
    for (opcode, payload, ngrids) in payloads {
        let f0 = Instant::now();
        protocol::write_frame(&mut s, *opcode, payload).expect("send");
        let frame = protocol::read_frame(&mut s).expect("response");
        service.push(f0.elapsed().as_nanos() as u64);
        let vs: Vec<Vec<f64>> = if frame.opcode == protocol::OP_SOLVE_OK {
            vec![protocol::SolveResponse::decode(&frame.payload).expect("decode").v]
        } else if frame.opcode == protocol::OP_SOLVE_BATCH_OK {
            BatchSolveResponse::decode(&frame.payload).expect("decode").vs
        } else {
            panic!(
                "unexpected opcode {:#x}: {:?}",
                frame.opcode,
                protocol::decode_error(&frame.payload)
            );
        };
        assert_eq!(vs.len(), *ngrids);
        for v in vs {
            let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, refs[grid], "grid {grid} diverged from reference");
            grid += 1;
        }
    }
    (t0.elapsed(), service)
}

/// The PR-6 serving benchmark: 32 RHS of one shape, sequential singles vs
/// `SOLVE_BATCH` frames of 4 and 8, best-of-3, every grid bitwise-verified.
fn batch_bench(out_path: &str, n: i64) {
    const RHS: usize = 32;
    const ITERS: u16 = 1;
    let cfg = MgConfig::new(2, n, CycleType::V, SmoothSteps::s444());

    // perturbed problems + independent single-RHS references
    let (v0, f, _) = setup_poisson(&cfg);
    let mut problems = Vec::with_capacity(RHS);
    let mut refs = Vec::with_capacity(RHS);
    let opts = PipelineOptions::for_variant(Variant::OptPlus, cfg.ndims);
    let mut runner = DslRunner::new(&cfg, opts, "batch-ref").expect("reference compile");
    for k in 0..RHS {
        let mut fk = f.clone();
        for (i, x) in fk.iter_mut().enumerate() {
            let r = splitmix64((k as u64) << 32 | i as u64);
            *x += (r % 1000) as f64 * 1e-6;
        }
        let mut v = v0.clone();
        for _ in 0..ITERS {
            runner.cycle_with_stats(&mut v, &fk).expect("reference cycle");
        }
        refs.push(v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
        problems.push((v0.clone(), fk));
    }
    let mk_req = |k: usize| {
        let (v0, fk) = &problems[k];
        SolveRequest::from_config(&cfg, Variant::OptPlus, 0, ITERS, v0.clone(), fk.clone())
    };

    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = handle.addr();

    // frame sets: 32 singles, then 32/B batch frames per batch size
    let mut modes: Vec<(&'static str, usize, Vec<FrameSpec>)> = Vec::new();
    let singles: Vec<FrameSpec> = (0..RHS)
        .map(|k| (protocol::OP_SOLVE, mk_req(k).encode(), 1))
        .collect();
    modes.push(("sequential", 1, singles));
    for b in [4usize, 8] {
        let frames: Vec<FrameSpec> = (0..RHS / b)
            .map(|i| {
                let reqs: Vec<SolveRequest> = (i * b..(i + 1) * b).map(mk_req).collect();
                (protocol::OP_SOLVE_BATCH, BatchSolveRequest { reqs }.encode(), b)
            })
            .collect();
        modes.push(("batched", b, frames));
    }

    // warm the session (compile + engine) off the clock
    drive_frames(addr, &modes[0].2[..1], &refs[..1]);

    let mut rows: Vec<BatchRow> = Vec::new();
    let mut sequential_rps = 0.0f64;
    for (mode, b, payloads) in &modes {
        let mut best: Option<(Duration, Vec<u64>)> = None;
        for _ in 0..3 {
            let (elapsed, service) = drive_frames(addr, payloads, &refs);
            if best.as_ref().is_none_or(|(e, _)| elapsed < *e) {
                best = Some((elapsed, service));
            }
        }
        let (elapsed, mut service) = best.unwrap();
        let rps = RHS as f64 / elapsed.as_secs_f64();
        if *b == 1 {
            sequential_rps = rps;
        }
        let row = BatchRow {
            mode,
            batch: *b,
            frames: payloads.len(),
            grids_per_s: rps,
            ratio_vs_sequential: if sequential_rps > 0.0 {
                rps / sequential_rps
            } else {
                1.0
            },
            service_p50_ns: pctl(&mut service, 50.0),
            service_p99_ns: pctl(&mut service, 99.0),
        };
        eprintln!(
            "{:<10} batch={:<2} {:8.1} grids/s  ratio {:.2}x  frame p50 {:.2} ms",
            row.mode,
            row.batch,
            row.grids_per_s,
            row.ratio_vs_sequential,
            row.service_p50_ns as f64 * 1e-6
        );
        rows.push(row);
    }

    let mut s = TcpStream::connect(addr).expect("connect");
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").expect("drain");
    let _ = protocol::read_frame(&mut s);
    let snap = handle.join();
    assert!(snap.batches > 0, "server recorded no multi-RHS passes");

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"perf-smoke-batch/v2\",\n  \"pr\": 8,\n");
    json.push_str(&format!(
        "  \"n\": {n},\n  \"iters\": {ITERS},\n  \"rhs\": {RHS},\n  \"verified_bitwise\": true,\n"
    ));
    json.push_str(&format!(
        "  \"server\": {{\"batches\": {}, \"coalesced\": {}}},\n  \"rows\": [\n",
        snap.batches, snap.coalesced
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"batch\": {}, \"frames\": {}, \"grids_per_s\": {:.1}, \
             \"ratio_vs_sequential\": {:.3}, \"service_p50_ns\": {}, \"service_p99_ns\": {}}}{}\n",
            r.mode,
            r.batch,
            r.frames,
            r.grids_per_s,
            r.ratio_vs_sequential,
            r.service_p50_ns,
            r.service_p99_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, json).expect("write batch BENCH json");
    eprintln!("wrote {out_path}");
}

/// Real-timing evaluator over tuning configs, memoized so the sweep and
/// the search judge shared configurations by the *same* measurement (the
/// comparison is then about which points each method visits, not about
/// timing noise between visits). Each fresh measurement is the minimum of
/// five single-cycle timings on a throwaway engine.
struct TuneEval {
    cfg: MgConfig,
    v0: Vec<f64>,
    f: Vec<f64>,
    memo: std::collections::BTreeMap<String, f64>,
    evals: usize,
}

impl TuneEval {
    fn new(cfg: MgConfig) -> TuneEval {
        let (v0, f, _) = setup_poisson(&cfg);
        TuneEval {
            cfg,
            v0,
            f,
            memo: std::collections::BTreeMap::new(),
            evals: 0,
        }
    }

    fn measure(&mut self, tc: &polymg::TuneConfig) -> f64 {
        let key = format!("{tc:?}");
        if let Some(&ns) = self.memo.get(&key) {
            return ns;
        }
        self.evals += 1;
        let pipeline = gmg_multigrid::cycles::build_cycle_pipeline(&self.cfg);
        let opts = tc.apply(&PipelineOptions::for_variant(Variant::OptPlus, self.cfg.ndims));
        let plan = polymg::compile(&pipeline, &gmg_ir::ParamBindings::new(), opts)
            .unwrap_or_else(|e| panic!("candidate {tc:?} failed to compile: {e:?}"));
        let mut runner = DslRunner::from_plan(plan, &self.cfg);
        let mut v = self.v0.clone();
        time_cycles(&mut runner, &mut v, &self.f, 1); // warm-up
        let ns = (0..5)
            .map(|_| {
                let mut v = self.v0.clone();
                time_cycles(&mut runner, &mut v, &self.f, 1).as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.memo.insert(key, ns);
        ns
    }
}

/// The PR-9 autotuning benchmark: search-vs-sweep rows on real timings for
/// both ranks, then a tuned-vs-default serving row driven through an
/// online-tuning server with every response bitwise-verified.
fn tune_bench(out_path: &str, n: i64, n3: i64) {
    use polymg::autotune::search::{search, SearchParams};
    use polymg::autotune::search_space;

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"perf-smoke-tune/v1\",\n  \"pr\": 9,\n");
    json.push_str(&format!("  \"n\": {n},\n  \"n3\": {n3},\n"));
    json.push_str("  \"search_vs_sweep\": [\n");

    for (i, (ndims, nn)) in [(2usize, n), (3usize, n3)].into_iter().enumerate() {
        let cfg = MgConfig::new(ndims, nn, CycleType::V, SmoothSteps::s444());
        let mut eval = TuneEval::new(cfg);
        let space = search_space(ndims).expect("supported rank");

        let sweep_best = space
            .iter()
            .map(|tc| eval.measure(tc))
            .fold(f64::INFINITY, f64::min);
        let sweep_evals = eval.evals;

        let params = SearchParams::for_rank(ndims).expect("supported rank");
        let before = eval.evals;
        let out = search(ndims, &params, |tc| eval.measure(tc)).expect("search");
        let fresh = eval.evals - before;
        let ratio = out.best.metric / sweep_best;
        eprintln!(
            "{ndims}-D sweep: {sweep_evals} evals, best {:.2} ms | search: {} evals \
             ({fresh} fresh), best {:.2} ms, ratio {ratio:.3}",
            sweep_best * 1e-6,
            out.evals,
            out.best.metric * 1e-6,
        );
        assert!(
            out.evals * 4 <= sweep_evals,
            "search used more than 25% of the sweep budget"
        );
        json.push_str(&format!(
            "    {{\"ndims\": {ndims}, \"n\": {nn}, \"sweep_evals\": {sweep_evals}, \
             \"sweep_best_ns\": {:.0}, \"search_evals\": {}, \"search_fresh_evals\": {fresh}, \
             \"search_best_ns\": {:.0}, \"search_vs_sweep_ratio\": {ratio:.4}, \
             \"search_best\": \"tiles {:?} group {} band {} tier {:?}\"}}{}\n",
            sweep_best,
            out.evals,
            out.best.metric,
            out.best.config.tile_sizes,
            out.best.config.group_limit,
            out.best.config.smooth_band,
            out.best.config.tier,
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    // tuned-vs-default serving: identical shape and load against (a) an
    // untuned baseline server and (b) a server that converged online
    const REQS: usize = 16;
    let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
    let (v0, f, _) = setup_poisson(&cfg);
    let opts = PipelineOptions::for_variant(Variant::OptPlus, cfg.ndims);
    let mut reference = DslRunner::new(&cfg, opts, "tune-ref").expect("reference compile");
    let mut v = v0.clone();
    reference.cycle_with_stats(&mut v, &f).expect("reference cycle");
    let reference_bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
    let refs: Vec<Vec<u64>> = (0..REQS).map(|_| reference_bits.clone()).collect();
    let frames: Vec<FrameSpec> = (0..REQS)
        .map(|_| {
            let req = SolveRequest::from_config(&cfg, Variant::OptPlus, 0, 1, v0.clone(), f.clone());
            (protocol::OP_SOLVE, req.encode(), 1)
        })
        .collect();
    let throughput = |addr: std::net::SocketAddr| -> f64 {
        drive_frames(addr, &frames[..1], &refs[..1]); // warm off the clock
        (0..3)
            .map(|_| {
                let (elapsed, _) = drive_frames(addr, &frames, &refs);
                REQS as f64 / elapsed.as_secs_f64()
            })
            .fold(0.0f64, f64::max)
    };
    let shutdown = |handle: gmg_server::ServerHandle| {
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").expect("drain");
        let _ = protocol::read_frame(&mut s);
        handle.join()
    };

    let baseline = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start baseline");
    let default_rps = throughput(baseline.addr());
    shutdown(baseline);

    let store_path = std::env::temp_dir().join(format!(
        "polymg-tune-bench-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);
    let tuned = start(ServerConfig {
        workers: 1,
        tuner: Some(gmg_server::TunerConfig {
            budget: 0, // rank default: 25% of the sweep
            seed: 0x9e3c_0901,
            store_path: Some(store_path.clone()),
            trial_iters: 2,
        }),
        ..ServerConfig::default()
    })
    .expect("start tuned");
    // every response during tuning is bitwise-verified by drive_frames
    let during_tuning_rps = throughput(tuned.addr());
    let deadline = Instant::now() + Duration::from_secs(300);
    let snap = loop {
        let snap = tuned.tuner_snapshot().expect("tuner armed");
        if snap.winners > 0 {
            break snap;
        }
        assert!(Instant::now() < deadline, "tuner never converged: {snap:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(snap.trial_queue_peak, 0, "trial overlapped queued work");
    assert_eq!(snap.leaked_trials, 0);
    let tuned_rps = throughput(tuned.addr());
    let store = tuned.tuned_store().expect("shared store");
    let winner = store.entries().first().expect("winner recorded").clone();
    shutdown(tuned);
    let _ = std::fs::remove_file(&store_path);

    let ratio = tuned_rps / default_rps;
    eprintln!(
        "serving: default {default_rps:.1} grids/s | during tuning {during_tuning_rps:.1} | \
         tuned {tuned_rps:.1} ({ratio:.3}x) — winner tiles {:?} group {} band {} ({} trials)",
        winner.config.tile_sizes,
        winner.config.group_limit,
        winner.config.smooth_band,
        snap.trials,
    );
    json.push_str(&format!(
        "  \"serving\": {{\"n\": 63, \"requests_per_wave\": {REQS}, \"waves\": 3, \
         \"verified_bitwise\": true, \"default_grids_per_s\": {default_rps:.1}, \
         \"during_tuning_grids_per_s\": {during_tuning_rps:.1}, \
         \"tuned_grids_per_s\": {tuned_rps:.1}, \"tuned_vs_default_ratio\": {ratio:.4}, \
         \"trials\": {}, \"trial_queue_peak\": {}, \"winner\": \"tiles {:?} group {} band {} \
         tier {:?} evals {}\"}}\n",
        snap.trials,
        snap.trial_queue_peak,
        winner.config.tile_sizes,
        winner.config.group_limit,
        winner.config.smooth_band,
        winner.config.tier,
        winner.evals,
    ));
    json.push_str("}\n");
    std::fs::write(out_path, json).expect("write tune BENCH json");
    eprintln!("wrote {out_path}");
}

/// The PR-10 scenario benchmark (DESIGN.md §18): constant-coefficient f64,
/// variable-coefficient, and mixed-precision rows on one smoother-dominated
/// shape, each run to the same relative residual target.
fn scenario_bench(out_path: &str, n: i64) {
    use gmg_multigrid::scenario::{
        coeff_field, residual_norm_varcoef, scenario_runner, ScenarioSpec,
    };
    use gmg_multigrid::solver::residual_norm;
    use polymg::Scenario;

    // Heavy 8-8-8 smoothing, star operator: the Jacobi chains dominate the
    // cycle (so the f32 smoothing tier moves the end-to-end number instead
    // of drowning in transfer traffic) while the full level hierarchy keeps
    // the cycle an actual solver — all-fine-level smoothing (s1000) is pure
    // Jacobi and never reaches the target.
    let steps = SmoothSteps {
        pre: 8,
        coarse: 8,
        post: 8,
    };
    let cfg = MgConfig::new(2, n, CycleType::V, steps);
    let (v0, f, _) = setup_poisson(&cfg);
    let fine = cfg.levels - 1;
    let (nn, h) = (cfg.n_at(fine), cfg.h_at(fine));
    let coeff = coeff_field(&cfg);
    // The shared target sits above the mixed-precision residual floor:
    // f32 smoothing round-off (~1e-7 relative on the iterate) reaches the
    // residual through the 1/h² operator, flooring it near 1e-4 of the
    // initial norm at n=127 — a tighter target would make the mixed row
    // unreachable by construction rather than by throughput.
    const TARGET_REDUCTION: f64 = 1e-3;
    const MAX_CYCLES: usize = 200;

    struct ScRow {
        label: &'static str,
        precision: &'static str,
        cycles_to_target: usize,
        cycles_per_s: f64,
        rel_residual: f64,
    }

    let rows_spec: [(&'static str, &'static str, ScenarioSpec); 3] = [
        ("constant", "f64", ScenarioSpec::new(Scenario::Constant)),
        ("varcoef", "f64", ScenarioSpec::new(Scenario::VarCoef)),
        (
            "mixed",
            "f32-smooth",
            ScenarioSpec {
                scenario: Scenario::Constant,
                mixed: true,
            },
        ),
    ];

    let mut rows: Vec<ScRow> = Vec::new();
    for (label, precision, spec) in rows_spec {
        let opts = PipelineOptions::for_variant(Variant::OptPlus, cfg.ndims);
        let coeff_arg = spec.scenario.needs_coeff().then(|| coeff.clone());
        let mut runner = scenario_runner(&cfg, spec, opts, "scenario-bench", coeff_arg)
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        let norm = |v: &[f64]| {
            if spec.scenario.needs_coeff() {
                residual_norm_varcoef(cfg.ndims, nn, h, v, &f, &coeff)
            } else {
                residual_norm(cfg.ndims, nn, h, v, &f)
            }
        };
        // count cycles to the shared relative target (also the warm-up)
        let res0 = norm(&v0);
        let target = res0 * TARGET_REDUCTION;
        let mut v = v0.clone();
        let mut cycles = 0usize;
        let rel = loop {
            runner.cycle_with_stats(&mut v, &f).expect("cycle");
            cycles += 1;
            let r = norm(&v);
            if r <= target {
                break r / res0;
            }
            assert!(
                cycles < MAX_CYCLES,
                "{label}: no convergence to {TARGET_REDUCTION:.0e} in {MAX_CYCLES} cycles \
                 (residual {:.3e} of initial)",
                r / res0
            );
        };
        // throughput at that equal target: best-of-3 timed reruns
        let secs = (0..3)
            .map(|_| {
                let mut v = v0.clone();
                time_cycles(&mut runner, &mut v, &f, cycles).as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let row = ScRow {
            label,
            precision,
            cycles_to_target: cycles,
            cycles_per_s: cycles as f64 / secs,
            rel_residual: rel,
        };
        eprintln!(
            "{:<9} ({:<10}) {:3} cycles to {TARGET_REDUCTION:.0e}, {:8.2} cycles/s, \
             final rel residual {:.3e}",
            row.label, row.precision, row.cycles_to_target, row.cycles_per_s, row.rel_residual
        );
        rows.push(row);
    }

    let constant_cps = rows[0].cycles_per_s;
    let ratio = rows[2].cycles_per_s / constant_cps;
    eprintln!(
        "mixed-precision smoothing vs constant-f64: {ratio:.3}x \
         (§18 expectation ≥ 1.15x — recorded, not asserted)"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"perf-smoke-scenario/v1\",\n  \"pr\": 10,\n");
    json.push_str(&format!(
        "  \"n\": {n},\n  \"levels\": {},\n  \"smoothing\": \"8-8-8\",\n  \
         \"operator\": \"star\",\n  \"target_reduction\": {TARGET_REDUCTION:e},\n  \
         \"converged_all\": true,\n",
        cfg.levels
    ));
    json.push_str(&format!(
        "  \"mixed_vs_constant_ratio\": {ratio:.4},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"precision\": \"{}\", \"cycles_to_target\": {}, \
             \"cycles_per_s\": {:.2}, \"final_rel_residual\": {:.3e}}}{}\n",
            r.label,
            r.precision,
            r.cycles_to_target,
            r.cycles_per_s,
            r.rel_residual,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, json).expect("write scenario BENCH json");
    eprintln!("wrote {out_path}");
}

fn main() {
    let usage = "usage: perf-smoke --batch-out OUT.json [--batch-n N] | \
                 --tune-out OUT.json [--n N] [--n3 N] | --scenario-out OUT.json [--n N]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut batch_out: Option<String> = None;
    let mut tune_out: Option<String> = None;
    let mut scenario_out: Option<String> = None;
    let mut n: i64 = 127;
    let mut n3: i64 = 63;
    let mut batch_n: i64 = 31;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--batch-out" => {
                i += 1;
                batch_out = Some(args[i].clone());
            }
            "--tune-out" => {
                i += 1;
                tune_out = Some(args[i].clone());
            }
            "--scenario-out" => {
                i += 1;
                scenario_out = Some(args[i].clone());
            }
            "--batch-n" => {
                i += 1;
                batch_n = args[i].parse().expect("--batch-n");
            }
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n");
            }
            "--n3" => {
                i += 1;
                n3 = args[i].parse().expect("--n3");
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = batch_out {
        batch_bench(&path, batch_n);
    } else if let Some(path) = tune_out {
        tune_bench(&path, n, n3);
    } else if let Some(path) = scenario_out {
        scenario_bench(&path, n);
    } else {
        eprintln!("{usage}");
        std::process::exit(2);
    }
}
