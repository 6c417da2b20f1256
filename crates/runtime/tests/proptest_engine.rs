//! Engine fuzzing: randomised pipelines (random stencil weights, step
//! counts, tile sizes, group limits, variants) executed by the engine must
//! match the reference interpreter bit-for-bit up to fp round-off.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d};
use gmg_ir::{FuncId, ParamBindings, Pipeline, StepCount};
use gmg_runtime::interp::run_reference;
use gmg_runtime::Engine;
use polymg::{compile, PipelineOptions, Variant};
use proptest::prelude::*;

fn build(weights: &[Vec<f64>], steps: usize, with_restrict: bool, with_interp: bool) -> Pipeline {
    let n = 15i64;
    let nc = 7i64;
    let mut p = Pipeline::new("fuzz");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let mut last: FuncId = if steps > 0 {
        p.tstencil(
            "sm",
            2,
            n,
            1,
            StepCount::Fixed(steps),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.1 * (stencil_2d(Operand::State, weights, 1.0) - Operand::Func(f).at(&[0, 0])),
        )
    } else {
        p.function(
            "pw",
            2,
            n,
            1,
            2.0 * Operand::Func(v).at(&[0, 0]) - Operand::Func(f).at(&[0, 0]),
        )
    };
    if with_restrict {
        let r = p.restrict_fn(
            "r",
            2,
            nc,
            0,
            restrict_full_weighting_2d(Operand::Func(last)),
        );
        last = if with_interp {
            let e = p.interp_fn("e", 2, n, 1, r);
            p.function(
                "c",
                2,
                n,
                1,
                Operand::Func(e).at(&[0, 0]) + 0.5 * Operand::Func(f).at(&[0, 0]),
            )
        } else {
            r
        };
    }
    p.mark_output(last);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_matches_interpreter(
        w in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 3), 3),
        steps in 0usize..4,
        with_restrict in proptest::bool::ANY,
        with_interp in proptest::bool::ANY,
        ty in 0usize..3,
        tx in 0usize..3,
        gl in 1usize..8,
        variant in 0usize..4,
        seed in 0u64..1000,
    ) {
        let variant = Variant::all()[variant];
        let p = build(&w, steps, with_restrict, with_interp);
        let mut opts = PipelineOptions::for_variant(variant, 2);
        opts.tile_sizes = vec![4 << ty, 4 << tx];
        opts.group_limit = gl;
        opts.threads = 2;
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let graph = plan.graph.clone();
        let out_name = graph
            .stages
            .iter()
            .find(|s| s.is_output)
            .unwrap()
            .name
            .clone();

        let e = 17usize;
        let mut vin = vec![0.0; e * e];
        let mut fin = vec![0.0; e * e];
        for y in 1..16 {
            for x in 1..16 {
                let h1 = polymg::splitmix64(seed ^ ((y as u64) << 32) ^ x as u64);
                let h2 = polymg::splitmix64(!seed ^ ((x as u64) << 32) ^ y as u64);
                vin[y * e + x] = (h1 >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                fin[y * e + x] = (h2 >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            }
        }

        let mut engine = Engine::new(plan);
        let out_len = if with_restrict && !with_interp {
            9 * 9
        } else {
            e * e
        };
        let mut got = vec![0.0; out_len];
        engine
            .run(&[("V", &vin), ("F", &fin)], vec![(&out_name, &mut got)])
            .unwrap();

        let reference = run_reference(&graph, &[("V", &vin), ("F", &fin)]);
        let want = &reference[&out_name];
        let mut max = 0.0f64;
        for (a, b) in got.iter().zip(want) {
            max = max.max((a - b).abs());
        }
        prop_assert!(max < 1e-12, "deviation {} for {:?}", max, variant);
    }
}
