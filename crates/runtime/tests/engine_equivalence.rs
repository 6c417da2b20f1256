//! Engine ↔ reference-interpreter equivalence on small pipelines, across
//! every optimizer variant. These are the first end-to-end checks of the
//! whole stack: DSL → compile → plan → parallel execution.

use gmg_ir::expr::Operand as Op;
use gmg_ir::stencil::{
    restrict_full_weighting_2d, restrict_full_weighting_3d, stencil_2d, stencil_3d,
};
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_runtime::interp::run_reference;
use gmg_runtime::Engine;
use polymg::{compile, PipelineOptions, Variant};

fn five() -> Vec<Vec<f64>> {
    vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ]
}

fn seven() -> Vec<Vec<Vec<f64>>> {
    let mut w = vec![vec![vec![0.0; 3]; 3]; 3];
    w[1][1][1] = 6.0;
    for (z, y, x) in [
        (0, 1, 1),
        (2, 1, 1),
        (1, 0, 1),
        (1, 2, 1),
        (1, 1, 0),
        (1, 1, 2),
    ] {
        w[z][y][x] = -1.0;
    }
    w
}

/// Deterministic input fill.
fn fill(buf: &mut [f64], seed: u64) {
    for (i, v) in buf.iter_mut().enumerate() {
        let h = polymg::splitmix64(seed ^ i as u64);
        *v = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

/// Zero the ghost ring of a dense 2-D buffer.
fn zero_ghost_2d(buf: &mut [f64], e: usize) {
    for x in 0..e {
        buf[x] = 0.0;
        buf[(e - 1) * e + x] = 0.0;
        buf[x * e] = 0.0;
        buf[x * e + e - 1] = 0.0;
    }
}

fn zero_ghost_3d(buf: &mut [f64], e: usize) {
    for z in 0..e {
        for y in 0..e {
            for x in 0..e {
                if z == 0 || z == e - 1 || y == 0 || y == e - 1 || x == 0 || x == e - 1 {
                    buf[(z * e + y) * e + x] = 0.0;
                }
            }
        }
    }
}

/// Compare engine output against the interpreter for one pipeline/variant.
fn check_equivalence(
    pipeline: &Pipeline,
    mut opts: PipelineOptions,
    inputs: &[(&str, &[f64])],
    output_name: &str,
    out_len: usize,
) {
    opts.threads = 2; // exercise the parallel paths even on 1 core
    let plan = compile(pipeline, &ParamBindings::new(), opts).unwrap();
    let graph = plan.graph.clone();
    let mut engine = Engine::new(plan);
    let mut got = vec![0.0; out_len];
    engine.run(inputs, vec![(output_name, &mut got)]).unwrap();

    let reference = run_reference(&graph, inputs);
    let want = &reference[output_name];
    let mut max_err: f64 = 0.0;
    for (a, b) in got.iter().zip(want) {
        max_err = max_err.max((a - b).abs());
    }
    assert!(
        max_err < 1e-12,
        "engine deviates from reference by {max_err}"
    );
}

fn check_all_variants(
    pipeline: &Pipeline,
    ndims: usize,
    tiles: Vec<i64>,
    inputs: &[(&str, &[f64])],
    output_name: &str,
    out_len: usize,
) {
    for v in Variant::all() {
        let mut o = PipelineOptions::for_variant(v, ndims);
        o.tile_sizes = tiles.clone();
        check_equivalence(pipeline, o, inputs, output_name, out_len);
    }
}

#[test]
fn smoother_chain_2d() {
    let n = 31i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("sm2d");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(4),
        Some(v),
        Op::State.at(&[0, 0])
            - 0.2 * (stencil_2d(Op::State, &five(), 1.0) - Op::Func(f).at(&[0, 0])),
    );
    p.mark_output(sm);
    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    fill(&mut vin, 1);
    fill(&mut fin, 2);
    zero_ghost_2d(&mut vin, e);
    zero_ghost_2d(&mut fin, e);
    check_all_variants(
        &p,
        2,
        vec![8, 16],
        &[("V", &vin), ("F", &fin)],
        "sm.s3",
        e * e,
    );
}

#[test]
fn two_level_fragment_2d() {
    // pre-smooth → defect → restrict → (zero-state coarse smooth) → interp
    // → correct → post-smooth: exercises scale changes, zero-state folding,
    // parity kernels and live-out/scratch duality.
    let n = 31i64;
    let nc = 15i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("frag2d");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let jac = |state: Op, fop: Op| {
        state.at(&[0, 0]) - 0.2 * (stencil_2d(state, &five(), 1.0) - fop.at(&[0, 0]))
    };
    let pre = p.tstencil(
        "pre",
        2,
        n,
        1,
        StepCount::Fixed(2),
        Some(v),
        jac(Op::State, Op::Func(f)),
    );
    let d = p.function(
        "defect",
        2,
        n,
        1,
        Op::Func(f).at(&[0, 0]) - stencil_2d(Op::Func(pre), &five(), 1.0),
    );
    let r = p.restrict_fn(
        "restrict",
        2,
        nc,
        0,
        restrict_full_weighting_2d(Op::Func(d)),
    );
    let cs = p.tstencil(
        "coarse",
        2,
        nc,
        0,
        StepCount::Fixed(3),
        None,
        jac(Op::State, Op::Func(r)),
    );
    let it = p.interp_fn("interp", 2, n, 1, cs);
    let c = p.function(
        "correct",
        2,
        n,
        1,
        Op::Func(pre).at(&[0, 0]) + Op::Func(it).at(&[0, 0]),
    );
    let post = p.tstencil(
        "post",
        2,
        n,
        1,
        StepCount::Fixed(2),
        Some(c),
        jac(Op::State, Op::Func(f)),
    );
    p.mark_output(post);

    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    fill(&mut vin, 3);
    fill(&mut fin, 4);
    zero_ghost_2d(&mut vin, e);
    zero_ghost_2d(&mut fin, e);
    check_all_variants(
        &p,
        2,
        vec![8, 8],
        &[("V", &vin), ("F", &fin)],
        "post.s1",
        e * e,
    );
}

#[test]
fn smoother_chain_3d() {
    let n = 15i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("sm3d");
    let v = p.input("V", 3, n, 1);
    let f = p.input("F", 3, n, 1);
    let sm = p.tstencil(
        "sm",
        3,
        n,
        1,
        StepCount::Fixed(3),
        Some(v),
        Op::State.at(&[0, 0, 0])
            - 0.15 * (stencil_3d(Op::State, &seven(), 1.0) - Op::Func(f).at(&[0, 0, 0])),
    );
    p.mark_output(sm);
    let mut vin = vec![0.0; e * e * e];
    let mut fin = vec![0.0; e * e * e];
    fill(&mut vin, 5);
    fill(&mut fin, 6);
    zero_ghost_3d(&mut vin, e);
    zero_ghost_3d(&mut fin, e);
    check_all_variants(
        &p,
        3,
        vec![4, 8, 8],
        &[("V", &vin), ("F", &fin)],
        "sm.s2",
        e * e * e,
    );
}

#[test]
fn restrict_interp_3d() {
    let n = 15i64;
    let nc = 7i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("ri3d");
    let v = p.input("V", 3, n, 1);
    let r = p.restrict_fn("r", 3, nc, 0, restrict_full_weighting_3d(Op::Func(v)));
    let it = p.interp_fn("e", 3, n, 1, r);
    p.mark_output(it);
    let mut vin = vec![0.0; e * e * e];
    fill(&mut vin, 7);
    zero_ghost_3d(&mut vin, e);
    check_all_variants(&p, 3, vec![4, 4, 8], &[("V", &vin)], "e", e * e * e);
}

#[test]
fn diamond_matches_reference_many_steps() {
    // a long smoother chain to exercise multiple bands and both phases
    let n = 63i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("dt");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(10),
        Some(v),
        Op::State.at(&[0, 0])
            - 0.2 * (stencil_2d(Op::State, &five(), 1.0) - Op::Func(f).at(&[0, 0])),
    );
    p.mark_output(sm);
    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    fill(&mut vin, 8);
    fill(&mut fin, 9);
    zero_ghost_2d(&mut vin, e);
    zero_ghost_2d(&mut fin, e);
    let mut o = PipelineOptions::for_variant(Variant::DtileOptPlus, 2);
    o.tile_sizes = vec![16, 16];
    o.dtile_band = 3;
    check_equivalence(&p, o, &[("V", &vin), ("F", &fin)], "sm.s9", e * e);
}

#[test]
fn pool_warm_across_cycles() {
    // run the same engine twice: second run must allocate nothing fresh in
    // pooled mode, and results must be identical for identical inputs
    let n = 31i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("pool");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(4),
        Some(v),
        Op::State.at(&[0, 0])
            - 0.2 * (stencil_2d(Op::State, &five(), 1.0) - Op::Func(f).at(&[0, 0])),
    );
    let d = p.function(
        "defect",
        2,
        n,
        1,
        Op::Func(f).at(&[0, 0]) - stencil_2d(Op::Func(sm), &five(), 1.0),
    );
    p.mark_output(d);
    let mut o = PipelineOptions::for_variant(Variant::OptPlus, 2);
    o.tile_sizes = vec![8, 16];
    // force at least two groups so an internal (pooled) array exists
    o.group_limit = 3;
    let plan = compile(&p, &ParamBindings::new(), o).unwrap();
    assert!(
        plan.storage.num_intermediate_arrays() > 0,
        "test premise: needs an internal array"
    );
    let mut engine = Engine::new(plan);

    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    fill(&mut vin, 10);
    fill(&mut fin, 11);
    zero_ghost_2d(&mut vin, e);
    zero_ghost_2d(&mut fin, e);

    let mut out1 = vec![0.0; e * e];
    let s1 = engine
        .run(&[("V", &vin), ("F", &fin)], vec![("defect", &mut out1)])
        .unwrap();
    let mut out2 = vec![0.0; e * e];
    let s2 = engine
        .run(&[("V", &vin), ("F", &fin)], vec![("defect", &mut out2)])
        .unwrap();
    assert_eq!(out1, out2);
    assert_eq!(
        s2.pool.allocated_bytes, s1.pool.allocated_bytes,
        "second cycle must not malloc"
    );
    assert!(s2.pool.hits > 0);
}

#[test]
fn naive_has_no_pool_traffic() {
    let n = 15i64;
    let e = (n + 2) as usize;
    let mut p = Pipeline::new("nv");
    let v = p.input("V", 2, n, 1);
    let a = p.function("a", 2, n, 1, 2.0 * Op::Func(v).at(&[0, 0]));
    p.mark_output(a);
    let plan = compile(
        &p,
        &ParamBindings::new(),
        PipelineOptions::for_variant(Variant::Naive, 2),
    )
    .unwrap();
    let mut engine = Engine::new(plan);
    let vin = vec![1.0; e * e];
    let mut out = vec![0.0; e * e];
    let stats = engine.run(&[("V", &vin)], vec![("a", &mut out)]).unwrap();
    assert_eq!(stats.pool.hits + stats.pool.misses, 0);
    assert_eq!(out[e + 1], 2.0);
}
