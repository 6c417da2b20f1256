//! Chaos satellite: injected pool/arena allocation failure must degrade
//! gracefully — counted fallback mallocs, no leaked pool slots, and a
//! recovered run bitwise-identical to the fault-free one (the engine
//! re-initialises every buffer it reads, so where a buffer came from can
//! never matter).

use gmg_ir::expr::Operand as Op;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_runtime::Engine;
use polymg::chaos::{SITE_ARENA, SITE_POOL};
use polymg::schedule::ExecOp;
use polymg::{compile, ChaosOptions, PipelineOptions, Variant};

fn pipeline(n: i64) -> Pipeline {
    let mut p = Pipeline::new("chaos-pool");
    let five = vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ];
    let vg = p.input("V", 2, n, 1);
    let fg = p.input("F", 2, n, 1);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(4),
        Some(vg),
        Op::State.at(&[0, 0])
            - 0.8 * (stencil_2d(Op::State, &five, 1.0) - Op::Func(fg).at(&[0, 0])),
    );
    let out = p.function("out", 2, n, 1, Op::Func(sm).at(&[0, 0]) + 0.0);
    p.mark_output(out);
    p
}

fn run_once(engine: &mut Engine, n: i64, out_name: &str) -> Vec<f64> {
    let e = (n + 2) as usize;
    let v = vec![0.5; e * e];
    let f = vec![0.25; e * e];
    let mut out = vec![0.0; e * e];
    engine
        .run(&[("V", &v), ("F", &f)], vec![(out_name, &mut out)])
        .expect("run failed");
    out
}

#[test]
fn injected_pool_faults_recover_bitwise_and_leak_nothing() {
    let n = 31i64;
    let mut opts = PipelineOptions::for_variant(Variant::Opt, 2);
    opts.pooled_allocation = true;
    // untiled single-stage groups materialise every stage as a pooled full
    // array, guaranteeing PoolAlloc ops (same trick as pool_recycling.rs)
    opts.group_limit = 1;
    opts.intra_group_reuse = false;
    let plan = compile(&pipeline(n), &ParamBindings::new(), opts).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();
    let mut engine = Engine::new(plan);
    assert!(
        engine
            .program()
            .ops
            .iter()
            .any(|op| matches!(op, ExecOp::PoolAlloc { .. })),
        "test premise: this plan must use the pooled allocator"
    );

    // warm, fault-free reference
    let reference = run_once(&mut engine, n, &out_name);
    let clean = engine.pool_stats();
    assert_eq!(
        clean.live_bytes, 0,
        "fault-free run must return all buffers"
    );
    assert_eq!(clean.fallback_fresh, 0);

    // every pool/arena allocation fails over to the degraded path
    engine.set_chaos(Some(
        ChaosOptions::new(5, 1.0).with_sites(SITE_POOL | SITE_ARENA),
    ));
    let faulted = run_once(&mut engine, n, &out_name);
    assert_eq!(
        faulted, reference,
        "recovered chaos run must be bitwise-identical to the fault-free run"
    );
    let stats = engine.pool_stats();
    assert!(
        stats.fallback_fresh > 0,
        "rate 1.0 must force the fallback path at least once"
    );
    assert_eq!(
        stats.live_bytes, 0,
        "fallback buffers must be returned to the pool like any other (no leaked slots)"
    );
    assert_eq!(stats.hits, clean.hits, "chaos run must not fake pool hits");
    let snap = engine.chaos_stats();
    assert!(snap.total_fired() > 0);
    assert_eq!(
        snap.total_fired(),
        snap.total_recovered(),
        "pool/arena faults all have a recovery policy"
    );

    // disarmed again: identical output, pool warm (fallback buffers are
    // now free-list citizens, so nothing new is allocated)
    engine.set_chaos(None);
    let allocated_before = engine.pool_stats().allocated_bytes;
    let after = run_once(&mut engine, n, &out_name);
    assert_eq!(after, reference);
    let post = engine.pool_stats();
    assert_eq!(post.live_bytes, 0);
    assert_eq!(
        post.allocated_bytes, allocated_before,
        "a warm pool (grown by recovered fallback buffers) must serve the whole run"
    );
}

/// `SITE_ARENA` with engine-owned scratch: every tile of an overlapped op
/// gets a fresh, counted, recovered arena instead of its worker's resident
/// slab, and the output does not move.
#[test]
fn injected_arena_faults_give_every_tile_a_fresh_arena() {
    let n = 31i64;
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.threads = 2;
    opts.tile_sizes = vec![8, 8];
    let plan = compile(&pipeline(n), &ParamBindings::new(), opts).unwrap();
    let out_name = plan
        .graph
        .stages
        .iter()
        .find(|s| s.is_output)
        .unwrap()
        .name
        .clone();
    let mut engine = Engine::new(plan);
    let tiles: u64 = engine
        .program()
        .ops
        .iter()
        .map(|op| match op {
            ExecOp::RunOverlappedGroup { tile_plan, .. } => tile_plan.tiles() as u64,
            _ => 0,
        })
        .sum();
    assert!(tiles >= 4, "test premise: a multi-tile overlapped plan");
    let trace = gmg_trace::Trace::enabled();
    engine.set_trace(trace.clone());
    let arenas = || {
        let r = trace.report().unwrap();
        (r.arena_created, r.arena_recycled)
    };

    let reference = run_once(&mut engine, n, &out_name);
    let (cold, _) = arenas();
    assert!((1..=2).contains(&cold), "one slab per worker, got {cold}");
    assert_eq!(run_once(&mut engine, n, &out_name), reference);
    // Which worker runs which tile is the pool's business: a worker that
    // sat out the first cycle creates its slab in the first one it joins.
    // What a warm cycle never does is create a second slab for a worker.
    let (warm, recycled) = arenas();
    assert!(
        (cold..=2).contains(&warm),
        "a warm cycle creates no slab beyond one per worker: {cold} -> {warm}"
    );
    assert_eq!(warm + recycled, 2 * tiles, "every tile took a slab");

    engine.set_chaos(Some(ChaosOptions::new(5, 1.0).with_sites(SITE_ARENA)));
    assert_eq!(
        run_once(&mut engine, n, &out_name),
        reference,
        "fresh arenas must not change a bit"
    );
    assert_eq!(
        arenas(),
        (warm + tiles, recycled),
        "every tile got a fresh arena"
    );
    let snap = engine.chaos_stats();
    assert_eq!(snap.total_fired(), tiles);
    assert_eq!(snap.total_recovered(), tiles);

    engine.set_chaos(None);
    assert_eq!(run_once(&mut engine, n, &out_name), reference);
    let (after, recycled_after) = arenas();
    assert!(
        after - (warm + tiles) <= 2 - warm,
        "disarmed: back to the resident slabs ({warm} + {tiles} -> {after})"
    );
    assert_eq!(after + recycled_after, 4 * tiles);
}
