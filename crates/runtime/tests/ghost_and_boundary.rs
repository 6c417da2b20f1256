//! Ghost-ring and boundary-value behaviour of the engine: non-zero
//! Dirichlet data, pooled-buffer recycling hygiene, and scratch halo
//! initialisation.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{BoundaryCond, ParamBindings, Pipeline, StepCount};
use gmg_runtime::fill_ghost;
use gmg_runtime::interp::run_reference;
use gmg_runtime::Engine;
use polymg::{compile, PipelineOptions, Variant};

#[test]
fn fill_ghost_touches_only_the_ring_2d() {
    let mut buf = vec![1.0; 5 * 6];
    fill_ghost(&mut buf, &[5, 6], 7.0);
    for y in 0..5usize {
        for x in 0..6usize {
            let v = buf[y * 6 + x];
            if y == 0 || y == 4 || x == 0 || x == 5 {
                assert_eq!(v, 7.0, "ring at ({y},{x})");
            } else {
                assert_eq!(v, 1.0, "interior at ({y},{x})");
            }
        }
    }
}

#[test]
fn fill_ghost_3d_ring() {
    let mut buf = vec![2.0; 4 * 4 * 4];
    fill_ghost(&mut buf, &[4, 4, 4], -1.0);
    let interior: Vec<usize> = (0..64)
        .filter(|i| {
            let (z, y, x) = (i / 16, (i / 4) % 4, i % 4);
            (1..3).contains(&z) && (1..3).contains(&y) && (1..3).contains(&x)
        })
        .collect();
    assert_eq!(interior.len(), 8);
    for (i, &v) in buf.iter().enumerate() {
        if interior.contains(&i) {
            assert_eq!(v, 2.0);
        } else {
            assert_eq!(v, -1.0);
        }
    }
}

/// A smoother chain with non-zero Dirichlet boundary: the engine's scratch
/// halo fill and ghost initialisation must match the interpreter.
#[test]
fn nonzero_dirichlet_boundary_matches_interpreter() {
    let n = 15i64;
    let e = (n + 2) as usize;
    let five = vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ];
    let bval = 2.5;

    let mut p = Pipeline::new("dirichlet");
    let v = p.input("V", 2, n, 0);
    let f = p.input("F", 2, n, 0);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        0,
        StepCount::Fixed(3),
        Some(v),
        Operand::State.at(&[0, 0])
            - 0.1 * (stencil_2d(Operand::State, &five, 1.0) - Operand::Func(f).at(&[0, 0])),
    );
    // every iterate keeps the same boundary value
    p.set_boundary(v, BoundaryCond::Dirichlet(bval));
    p.set_boundary(sm, BoundaryCond::Dirichlet(bval));
    p.mark_output(sm);

    // inputs with the boundary value on the ghost ring
    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    for y in 0..e {
        for x in 0..e {
            if y == 0 || y == e - 1 || x == 0 || x == e - 1 {
                vin[y * e + x] = bval;
            } else {
                vin[y * e + x] = ((y * 7 + x) % 5) as f64;
                fin[y * e + x] = ((y + x * 3) % 4) as f64;
            }
        }
    }

    for variant in [Variant::Naive, Variant::OptPlus] {
        let mut opts = PipelineOptions::for_variant(variant, 2);
        opts.tile_sizes = vec![4, 8];
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let graph = plan.graph.clone();
        let mut engine = Engine::new(plan);
        // output ghost rings are the caller's responsibility (the solver
        // drivers maintain them); pre-fill with the boundary value
        let mut got = vec![0.0; e * e];
        for y in 0..e {
            for x in 0..e {
                if y == 0 || y == e - 1 || x == 0 || x == e - 1 {
                    got[y * e + x] = bval;
                }
            }
        }
        engine
            .run(&[("V", &vin), ("F", &fin)], vec![("sm.s2", &mut got)])
            .unwrap();
        let reference = run_reference(&graph, &[("V", &vin), ("F", &fin)]);
        let want = &reference["sm.s2"];
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "{}: idx {i}: {a} vs {b}",
                variant.label()
            );
        }
        // the ghost ring is untouched by the engine
        assert_eq!(got[0], bval);
        assert_eq!(got[e * e - 1], bval);
    }
}

/// Pool recycling must not leak one cycle's data into the next: two
/// engines' results for different inputs must match fresh runs exactly.
#[test]
fn pool_recycling_is_hygienic() {
    let n = 31i64;
    let e = (n + 2) as usize;
    let five = vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ];
    let mut p = Pipeline::new("hyg");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let sm = p.tstencil(
        "sm",
        2,
        n,
        1,
        StepCount::Fixed(4),
        Some(v),
        Operand::State.at(&[0, 0])
            - 0.1 * (stencil_2d(Operand::State, &five, 1.0) - Operand::Func(f).at(&[0, 0])),
    );
    let d = p.function(
        "d",
        2,
        n,
        1,
        Operand::Func(f).at(&[0, 0]) - stencil_2d(Operand::Func(sm), &five, 1.0),
    );
    p.mark_output(d);
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.tile_sizes = vec![8, 16];
    opts.group_limit = 3; // force internal pooled arrays
    let plan = compile(&p, &ParamBindings::new(), opts).unwrap();

    let mk_input = |seed: u64| -> Vec<f64> {
        let mut b = vec![0.0; e * e];
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                let h = polymg::splitmix64(seed ^ ((y as u64) << 20) ^ x as u64);
                b[y * e + x] = (h >> 11) as f64 / (1u64 << 53) as f64;
            }
        }
        b
    };

    // warm engine: run with input A, then input B
    let mut warm = Engine::new(plan.clone());
    let (va, fa) = (mk_input(1), mk_input(2));
    let (vb, fb) = (mk_input(3), mk_input(4));
    let mut o1 = vec![0.0; e * e];
    warm.run(&[("V", &va), ("F", &fa)], vec![("d", &mut o1)])
        .unwrap();
    let mut warm_b = vec![0.0; e * e];
    warm.run(&[("V", &vb), ("F", &fb)], vec![("d", &mut warm_b)])
        .unwrap();

    // fresh engine: run input B only
    let mut fresh = Engine::new(plan);
    let mut fresh_b = vec![0.0; e * e];
    fresh
        .run(&[("V", &vb), ("F", &fb)], vec![("d", &mut fresh_b)])
        .unwrap();

    assert_eq!(warm_b, fresh_b, "recycled buffers leaked state");
}
