//! The pooled allocator's contract (see `pool.rs`): recycled buffers carry
//! whatever the previous computation left in them, and the engine must fully
//! (re)initialize every intermediate before its first read. If any stage
//! relied on a freshly-zeroed buffer, running the same problem *after*
//! poisoning the pool with a different one would change the answer. We
//! demand bit-for-bit agreement.

use gmg_ir::expr::Operand as Op;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_runtime::Engine;
use polymg::{compile, PipelineOptions, Variant};

fn pipeline(n: i64) -> Pipeline {
    let mut p = Pipeline::new("pool-recycle");
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

fn fill(buf: &mut [f64], seed: u64) {
    for (i, v) in buf.iter_mut().enumerate() {
        let h = polymg::splitmix64(seed ^ i as u64);
        *v = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

fn run_once(engine: &mut Engine, n: i64, seed: u64) -> Vec<f64> {
    let e = (n + 2) as usize;
    let len = e * e;
    let mut v = vec![0.0; len];
    let mut f = vec![0.0; len];
    fill(&mut v, seed);
    fill(&mut f, seed ^ 0x9e3779b97f4a7c15);
    let mut out = vec![0.0; len];
    engine
        .run(&[("V", &v), ("F", &f)], vec![("out", &mut out)])
        .unwrap();
    out
}

#[test]
fn recycled_buffers_are_reinitialized_before_first_read() {
    let n = 63i64;
    // (label, variant, force full arrays?, must observe pool recycling?).
    // The untiled single-stage-group config materialises every stage as a
    // pooled full array, so recycling is guaranteed; opt+ may fuse all
    // intermediates into scratchpads and is checked for correctness only.
    let configs = [
        ("untiled+pool", Variant::Opt, true, true),
        ("opt+ (pooled)", Variant::OptPlus, false, false),
    ];
    for (label, variant, force_arrays, require_hits) in configs {
        let mut opts = PipelineOptions::for_variant(variant, 2);
        opts.pooled_allocation = true;
        opts.tile_sizes = vec![16, 32];
        if force_arrays {
            opts.group_limit = 1;
            opts.intra_group_reuse = false;
        }
        let plan = compile(&pipeline(n), &ParamBindings::new(), opts).unwrap();
        let mut engine = Engine::new(plan);

        let first = run_once(&mut engine, n, 1);
        // Poison the pool's free lists with a different problem's data.
        let _ = run_once(&mut engine, n, 2);
        let again = run_once(&mut engine, n, 1);

        let stats = engine.pool_stats();
        if require_hits {
            assert!(
                stats.hits > 0,
                "{label}: pool never recycled a buffer; the contract was not exercised"
            );
        }
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label}: cell {i} differs after pool recycling: {a} vs {b}"
            );
        }
    }
}
