//! Chaos satellite: a worker panic inside the persistent pool must neither
//! deadlock nor strand workers. The panic is contained to the op (region
//! poisoning), surfaces as [`ExecError::WorkerPanicked`] from
//! [`Engine::run`], and the same engine — same worker set, same buffer
//! pool — must produce correct results on the next, fault-free run.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_runtime::{Engine, ExecError};
use polymg::chaos::SITE_PANIC;
use polymg::schedule::{lower, ExecOp, OpInput, StageExec};
use polymg::{compile, ChaosOptions, PipelineOptions, Variant};

fn smoother_pipeline() -> Pipeline {
    let n = 31i64;
    let mut p = Pipeline::new("panic-pool");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let w = vec![
        vec![0.0, 1.0, 0.0],
        vec![1.0, -4.0, 1.0],
        vec![0.0, 1.0, 0.0],
    ];
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(3),
        Some(v),
        Operand::State.at(&[0, 0])
            - 0.2 * (stencil_2d(Operand::State, &w, 1.0) - Operand::Func(f).at(&[0, 0])),
    );
    p.mark_output(sm);
    p
}

fn opts() -> PipelineOptions {
    let mut o = PipelineOptions::for_variant(Variant::Opt, 2);
    o.threads = 3;
    // several tiles per sweep so every run hits a real parallel region
    o.tile_sizes = vec![8, 8];
    o
}

fn run_once(engine: &mut Engine, out_name: &str) -> Result<Vec<f64>, ExecError> {
    let e = 33usize;
    let v = vec![0.5; e * e];
    let f = vec![0.25; e * e];
    let mut out = vec![0.0; e * e];
    engine.run(&[("V", &v), ("F", &f)], vec![(out_name, &mut out)])?;
    Ok(out)
}

#[test]
fn worker_panic_is_contained_and_pool_stays_usable() {
    let plan = compile(&smoother_pipeline(), &ParamBindings::new(), opts()).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();

    // fault-free reference from an independent engine
    let mut ref_engine = Engine::new(plan.clone());
    let reference = run_once(&mut ref_engine, &out_name).unwrap();

    let mut engine = Engine::new(plan);
    let clean = run_once(&mut engine, &out_name).unwrap();
    assert_eq!(clean, reference);
    let workers_before = engine.thread_counters().workers_spawned;
    assert_eq!(
        workers_before, 2,
        "threads=3 should have spawned exactly threads-1 persistent workers"
    );

    // every parallel item panics; the run must return a typed error, not
    // deadlock and not unwind through Engine::run
    engine.set_chaos(Some(ChaosOptions::new(11, 1.0).with_sites(SITE_PANIC)));
    let err = run_once(&mut engine, &out_name)
        .expect_err("an injected worker panic must surface as an error");
    assert!(
        matches!(err, ExecError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got: {err}"
    );
    assert_eq!(
        engine.thread_counters().workers_spawned,
        workers_before,
        "the panic must not kill or respawn pool workers"
    );
    let snap = engine.chaos_stats();
    assert!(snap.total_fired() > 0, "the panic site must have fired");

    // disarmed: the very same engine (workers, pool) computes the correct
    // result again — nothing was deadlocked, stranded, or poisoned for good
    engine.set_chaos(None);
    let regions_before = engine.thread_counters().regions;
    let recovered = run_once(&mut engine, &out_name).expect("engine must stay usable");
    assert_eq!(
        recovered, reference,
        "post-panic run must be bitwise-identical to the fault-free result"
    );
    let counters = engine.thread_counters();
    assert_eq!(
        counters.workers_spawned, workers_before,
        "recovery must reuse the existing worker set"
    );
    assert!(
        counters.regions > regions_before,
        "the recovery run must have executed real parallel regions"
    );
    assert_eq!(engine.pool_stats().live_bytes, 0, "no pool slot leaked");
}

/// The same containment with engine-owned tile scratch: a panic inside an
/// overlapped op must leave the engine's plans and slabs usable — the next
/// run is bitwise the reference and allocates at most one slab per worker.
#[test]
fn worker_panic_leaves_engine_owned_scratch_usable() {
    let mut o = PipelineOptions::for_variant(Variant::OptPlus, 2);
    o.threads = 3;
    o.tile_sizes = vec![8, 8];
    let plan = compile(&smoother_pipeline(), &ParamBindings::new(), o).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();
    let reference = run_once(&mut Engine::new(plan.clone()), &out_name).unwrap();

    let mut engine = Engine::new(plan);
    assert!(
        engine.program().ops.iter().any(|op| matches!(
            op,
            ExecOp::RunOverlappedGroup { tile_plan, scratch_buffers, .. }
                if tile_plan.tiles() >= 4 && scratch_buffers.len() >= 2
        )),
        "test premise: a multi-tile overlapped op with several scratch buffers"
    );
    let trace = gmg_trace::Trace::enabled();
    engine.set_trace(trace.clone());
    let created = || trace.report().unwrap().arena_created;

    for _ in 0..2 {
        assert_eq!(run_once(&mut engine, &out_name).unwrap(), reference);
    }
    assert!(
        created() >= 1 && created() <= 3,
        "one slab per worker that ran a tile"
    );

    engine.set_chaos(Some(ChaosOptions::new(11, 1.0).with_sites(SITE_PANIC)));
    let err = run_once(&mut engine, &out_name).expect_err("injected panic must surface");
    assert!(
        matches!(err, ExecError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got: {err}"
    );

    engine.set_chaos(None);
    let before = created();
    for cycle in 0..3 {
        let got = run_once(&mut engine, &out_name).expect("engine must stay usable");
        assert_eq!(got, reference, "cycle {cycle} after the panic");
    }
    assert!(
        created() - before <= 3,
        "recovery allocated {} slabs for 3 workers",
        created() - before
    );
    assert_eq!(engine.pool_stats().live_bytes, 0, "no pool slot leaked");
}

/// The steps and the output slot of a chain op — `RunDiamondChain` or
/// `RunMixedChain` — or `None` for any other op.
fn chain_parts(op: &mut ExecOp) -> Option<(&mut Vec<StageExec>, usize)> {
    match op {
        ExecOp::RunDiamondChain {
            stages, out_slot, ..
        }
        | ExecOp::RunMixedChain { stages, out_slot } => Some((stages, *out_slot)),
        _ => None,
    }
}

/// A program reaches `Engine::from_program` without passing the compiler,
/// so a chain op checks its invariants itself — origin-0 buffers, and an
/// op-local read only of the previous step (the other parity or ping-pong
/// buffer) — and reports a violation as a typed error before it allocates
/// or starts a parallel region: the pool is left as it was, and the same
/// malformed program fails the same way on a second run, in a violation
/// naming the `chain` op. The unmutated program runs bitwise like the
/// compiled engine.
fn malformed_chain_is_a_plan_violation(o: PipelineOptions, kind: &str, chain: &str) {
    let plan = compile(&smoother_pipeline(), &ParamBindings::new(), o).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();
    let reference = run_once(&mut Engine::new(plan.clone()), &out_name).unwrap();
    let program = lower(&plan);
    let at = program
        .ops
        .iter()
        .position(|op| op.mnemonic() == kind)
        .unwrap_or_else(|| panic!("test premise: a {kind} op"));

    let mut bad_origin = program.clone();
    let (_, out_slot) = chain_parts(&mut bad_origin.ops[at]).unwrap();
    bad_origin.slots[out_slot].origin[0] = 1;

    let mut bad_local = program.clone();
    let (stages, _) = chain_parts(&mut bad_local.ops[at]).unwrap();
    let last = stages.len() - 1;
    let read = stages[last]
        .ins
        .iter_mut()
        .find_map(|i| match i {
            OpInput::Local { stage, .. } => Some(stage),
            _ => None,
        })
        .expect("test premise: the last step reads the step before it");
    *read = last - 2;

    for (what, bad) in [("origin", bad_origin), ("local read", bad_local)] {
        let mut engine = Engine::from_program(bad);
        for attempt in 0..2 {
            let err = run_once(&mut engine, &out_name).expect_err(what);
            assert!(
                matches!(err, ExecError::PlanViolation(m) if m.starts_with(chain)),
                "{kind} {what}, run {attempt}: expected a {chain} PlanViolation, got: {err}"
            );
            assert_eq!(
                engine.pool_stats().live_bytes,
                0,
                "{kind} {what}: pool slot leaked"
            );
        }
    }
    let mut engine = Engine::from_program(program);
    assert_eq!(run_once(&mut engine, &out_name).unwrap(), reference);
    assert_eq!(engine.pool_stats().live_bytes, 0, "no pool slot leaked");
}

#[test]
fn malformed_diamond_chain_is_a_plan_violation() {
    let mut o = PipelineOptions::for_variant(Variant::DtileOptPlus, 2);
    o.threads = 3;
    malformed_chain_is_a_plan_violation(o, "run_diamond", "diamond chain");
}

#[test]
fn malformed_mixed_chain_is_a_plan_violation() {
    let mut o = PipelineOptions::for_variant(Variant::OptPlus, 2);
    o.threads = 3;
    o.mixed_precision = true;
    malformed_chain_is_a_plan_violation(o, "run_mixed_chain", "mixed chain");
}
