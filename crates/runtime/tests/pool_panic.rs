//! Chaos satellite: a worker panic inside the persistent pool must neither
//! deadlock nor strand workers. The panic is contained to the op (region
//! poisoning), surfaces as [`ExecError::WorkerPanicked`] from
//! [`Engine::run`], and the same engine — same worker set, same buffer
//! pool — must produce correct results on the next, fault-free run.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::cycles::build_cycle_pipeline;
use gmg_multigrid::solver::setup_poisson;
use gmg_runtime::{Engine, ExecError};
use polymg::chaos::{SITE_OP, SITE_PANIC};
use polymg::schedule::{lower, ExecOp, OpInput, StageExec};
use polymg::{compile, ChaosOptions, FaultSite, PipelineOptions, Variant};

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

fn opts(variant: Variant) -> PipelineOptions {
    let mut o = PipelineOptions::for_variant(variant, 2);
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

/// The fault site of a sweep op's entry gate, or `None` for any other op.
fn entry_site(op: &ExecOp) -> Option<FaultSite> {
    match op {
        ExecOp::RunUntiledStage { .. } => Some(FaultSite::OpUntiled),
        ExecOp::RunOverlappedGroup { .. } => Some(FaultSite::OpOverlapped),
        ExecOp::RunDiamondChain { .. } => Some(FaultSite::OpDiamond),
        ExecOp::RunMixedChain { .. } => Some(FaultSite::OpMixed),
        _ => None,
    }
}

/// One sweep op kind's containment contract. The program compiled from `o`
/// holds a `kind` op. An op-entry fault surfaces as `FaultInjected` naming
/// the first sweep op's site and mnemonic; a panic in every parallel item
/// surfaces as `WorkerPanicked` naming that op, without killing or
/// respawning pool workers. Either way no pooled byte stays live, and the
/// same engine's next disarmed run is bitwise the reference.
fn op_failure_is_contained(o: PipelineOptions, kind: &str) {
    let plan = compile(&smoother_pipeline(), &ParamBindings::new(), o).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();

    // fault-free reference from an independent engine
    let reference = run_once(&mut Engine::new(plan.clone()), &out_name).unwrap();

    let mut engine = Engine::new(plan);
    let ops = &engine.program().ops;
    assert!(
        ops.iter().any(|op| op.mnemonic() == kind),
        "test premise: a {kind} op"
    );
    let (site, op) = ops
        .iter()
        .find_map(|op| Some((entry_site(op)?.label(), op.mnemonic())))
        .unwrap();
    let clean = run_once(&mut engine, &out_name).unwrap();
    assert_eq!(clean, reference, "{kind}");
    let workers_before = engine.thread_counters().workers_spawned;
    assert_eq!(
        workers_before, 2,
        "{kind}: threads=3 should have spawned exactly threads-1 persistent workers"
    );

    // the first sweep op's gate fires before it checks or allocates anything
    engine.set_chaos(Some(ChaosOptions::new(11, 1.0).with_sites(SITE_OP)));
    let err = run_once(&mut engine, &out_name).expect_err("an op-entry fault must surface");
    assert_eq!(err, ExecError::FaultInjected { site, op }, "{kind}");
    assert_eq!(
        engine.pool_stats().live_bytes,
        0,
        "{kind}: pool slot leaked"
    );
    engine.set_chaos(None);
    assert_eq!(
        run_once(&mut engine, &out_name).unwrap(),
        reference,
        "{kind}"
    );

    // every parallel item panics; the run must return a typed error, not
    // deadlock and not unwind through Engine::run
    engine.set_chaos(Some(ChaosOptions::new(11, 1.0).with_sites(SITE_PANIC)));
    let err = run_once(&mut engine, &out_name)
        .expect_err("an injected worker panic must surface as an error");
    assert!(
        matches!(err, ExecError::WorkerPanicked { op: named, .. } if named == op),
        "{kind}: expected WorkerPanicked in {op}, got: {err}"
    );
    assert_eq!(
        engine.thread_counters().workers_spawned,
        workers_before,
        "{kind}: the panic must not kill or respawn pool workers"
    );
    assert!(
        engine.chaos_stats().total_fired() > 0,
        "{kind}: the panic site must have fired"
    );
    assert_eq!(
        engine.pool_stats().live_bytes,
        0,
        "{kind}: pool slot leaked"
    );

    // disarmed: the very same engine (workers, pool) computes the correct
    // result again — nothing was deadlocked, stranded, or poisoned for good
    engine.set_chaos(None);
    let regions_before = engine.thread_counters().regions;
    let recovered = run_once(&mut engine, &out_name).expect("engine must stay usable");
    assert_eq!(
        recovered, reference,
        "{kind}: post-panic run must be bitwise-identical to the fault-free result"
    );
    let counters = engine.thread_counters();
    assert_eq!(
        counters.workers_spawned, workers_before,
        "{kind}: recovery must reuse the existing worker set"
    );
    assert!(
        counters.regions > regions_before,
        "{kind}: the recovery run must have executed real parallel regions"
    );
    assert_eq!(
        engine.pool_stats().live_bytes,
        0,
        "{kind}: no pool slot leaked"
    );
}

/// The containment contract for each sweep op kind: naive programs sweep
/// untiled, opt+ runs overlapped tiles, dtile-opt+ diamond chains, and
/// mixed precision f32 chains.
#[test]
fn worker_panic_is_contained_and_pool_stays_usable() {
    let kinds = [
        (Variant::Naive, false, "run_untiled"),
        (Variant::OptPlus, false, "run_overlapped"),
        (Variant::DtileOptPlus, false, "run_diamond"),
        (Variant::OptPlus, true, "run_mixed_chain"),
    ];
    for (variant, mixed, kind) in kinds {
        let mut o = opts(variant);
        o.mixed_precision = mixed;
        op_failure_is_contained(o, kind);
    }
}

/// A panic in an op that has taken pooled output slots out of the slot
/// table: the op restores them before the engine's error path sweeps pooled
/// slots back, so none leaks. Each kind runs a V-cycle whose first sweep op
/// writes a pooled slot.
#[test]
fn worker_panic_returns_the_ops_pooled_outputs() {
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let pipeline = build_cycle_pipeline(&cfg);
    let (v, f, _) = setup_poisson(&cfg);
    let run = |engine: &mut Engine| {
        let mut out = vec![0.0; v.len()];
        engine.run(&[("V", &v), ("F", &f)], vec![("out", &mut out)])?;
        Ok::<_, ExecError>(out)
    };
    let kinds = [
        (Variant::Naive, false, "run_untiled"),
        (Variant::OptPlus, false, "run_overlapped"),
        (Variant::DtileOptPlus, false, "run_diamond"),
        (Variant::OptPlus, true, "run_mixed_chain"),
    ];
    for (variant, mixed, kind) in kinds {
        let mut o = opts(variant);
        o.mixed_precision = mixed;
        o.pooled_allocation = true;
        let plan = compile(&pipeline, &ParamBindings::new(), o).unwrap();
        let reference = run(&mut Engine::new(plan.clone())).unwrap();

        let mut engine = Engine::new(plan);
        let ops = &engine.program().ops;
        let first = ops.iter().find(|op| entry_site(op).is_some()).unwrap();
        let pooled = |s: &usize| {
            ops.iter()
                .any(|op| matches!(op, ExecOp::PoolAlloc { slot } if slot == s))
        };
        assert_eq!(first.mnemonic(), kind, "test premise: the first sweep op");
        assert!(
            first.slots_used().iter().any(pooled),
            "test premise: the first {kind} op writes a pooled slot"
        );

        engine.set_chaos(Some(ChaosOptions::new(11, 1.0).with_sites(SITE_PANIC)));
        let err = run(&mut engine).expect_err("an injected worker panic must surface");
        assert!(
            matches!(err, ExecError::WorkerPanicked { op, .. } if op == kind),
            "{kind}: expected WorkerPanicked, got: {err}"
        );
        assert_eq!(
            engine.pool_stats().live_bytes,
            0,
            "{kind}: pool slot leaked"
        );
        engine.set_chaos(None);
        assert_eq!(run(&mut engine).unwrap(), reference, "{kind}");
        assert_eq!(
            engine.pool_stats().live_bytes,
            0,
            "{kind}: pool slot leaked"
        );
    }
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
