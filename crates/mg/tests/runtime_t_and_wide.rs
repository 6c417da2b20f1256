//! Integration tests for the mg crate that exercise less-travelled paths:
//! runtime-bound `TStencil` step counts, very deep level hierarchies, and
//! smoothing-configuration asymmetries across implementations.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::stencil_2d;
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::handopt::HandOpt;
use gmg_multigrid::solver::{max_abs_diff, run_cycles, setup_poisson, DslRunner};
use gmg_runtime::Engine;
use polymg::{compile, PipelineOptions, Variant};

/// The paper's point about `TStencil`: the step count can be a runtime
/// parameter. Bind the same pipeline at several counts and check each
/// matches a fixed-count compile.
#[test]
fn runtime_step_count_matches_fixed() {
    let n = 31i64;
    let e = (n + 2) as usize;
    let five = vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ];
    let build = |steps: StepCount| -> Pipeline {
        let mut p = Pipeline::new("rt");
        let t_ = p.parameter("T"); // declared in both so ids align
        let v = p.input("V", 2, n, 0);
        let f = p.input("F", 2, n, 0);
        let steps = match steps {
            StepCount::Param(_) => StepCount::Param(t_),
            fixed => fixed,
        };
        let sm = p.tstencil(
            "sm",
            2,
            n,
            0,
            steps,
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.15 * (stencil_2d(Operand::State, &five, 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        p.mark_output(sm);
        p
    };

    let mut vin = vec![0.0; e * e];
    let mut fin = vec![0.0; e * e];
    for y in 1..=n as usize {
        for x in 1..=n as usize {
            vin[y * e + x] = ((y * 3 + x) % 7) as f64;
            fin[y * e + x] = ((y + x * 5) % 3) as f64;
        }
    }

    for t in [1usize, 3, 6] {
        let p_rt = build(StepCount::Param(gmg_ir::ParamId(0)));
        let mut bindings = ParamBindings::new();
        bindings.bind(gmg_ir::ParamId(0), t as i64);
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.tile_sizes = vec![8, 16];
        let plan_rt = compile(&p_rt, &bindings, opts.clone()).unwrap();

        let p_fx = build(StepCount::Fixed(t));
        let plan_fx = compile(&p_fx, &ParamBindings::new(), opts).unwrap();

        let out_name = format!("sm.s{}", t - 1);
        let run = |plan: polymg::CompiledPipeline| -> Vec<f64> {
            let mut engine = Engine::new(plan);
            let mut out = vec![0.0; e * e];
            engine
                .run(&[("V", &vin), ("F", &fin)], vec![(&out_name, &mut out)])
                .unwrap();
            out
        };
        assert_eq!(run(plan_rt), run(plan_fx), "T = {t}");
    }
}

/// Deep hierarchies: 8 levels down to a 3² coarsest grid.
#[test]
fn eight_level_hierarchy() {
    let mut cfg = MgConfig::new(
        2,
        1023,
        CycleType::V,
        SmoothSteps {
            pre: 2,
            coarse: 30,
            post: 2,
        },
    );
    cfg.levels = 9; // coarsest interior: (1024 >> 8) - 1 = 3
    assert_eq!(cfg.n_at(0), 3);
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.tile_sizes = vec![32, 128];
    let mut dsl = DslRunner::new(&cfg, opts, "opt+").unwrap();
    let (mut v, f, _) = setup_poisson(&cfg);
    let r = run_cycles(&mut dsl, &cfg, &mut v, &f, 3);
    assert!(
        r.conv_factor() < 0.12,
        "deep hierarchy should converge fast: {}",
        r.conv_factor()
    );
}

/// Asymmetric configurations run identically in DSL and handopt.
#[test]
fn asymmetric_configs_agree() {
    for (pre, coarse, post) in [(0, 5, 3), (7, 1, 0), (1, 0, 1)] {
        let cfg = MgConfig::new(2, 63, CycleType::W, SmoothSteps { pre, coarse, post });
        let mut hand = HandOpt::new(cfg.clone(), 0);
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.tile_sizes = vec![16, 32];
        let mut dsl = DslRunner::new(&cfg, opts, "opt+").unwrap();
        let (v0, f, _) = setup_poisson(&cfg);
        let mut vh = v0.clone();
        let mut vd = v0;
        use gmg_multigrid::solver::CycleRunner;
        hand.cycle(&mut vh, &f);
        dsl.cycle(&mut vd, &f);
        let dev = max_abs_diff(&vh, &vd);
        assert!(dev < 1e-11, "{pre}-{coarse}-{post}: dev {dev}");
    }
}
