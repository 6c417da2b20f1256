//! Whole-stack equivalence: every evaluated implementation (six of them)
//! must produce the same grids as the reference interpreter, for every
//! cycle shape, rank and smoothing configuration.

use polymg_repro::compiler::{PipelineOptions, Variant};
use polymg_repro::ir::ParamBindings;
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::cycles::build_cycle_pipeline;
use polymg_repro::mg::handopt::HandOpt;
use polymg_repro::mg::pluto::handopt_pluto;
use polymg_repro::mg::solver::{max_abs_diff, setup_poisson, CycleRunner, DslRunner};
use polymg_repro::runtime::interp::run_reference;

/// Run a config through every implementation and the interpreter; assert
/// agreement after `iters` cycles.
fn check(cfg: MgConfig, iters: usize) {
    let (v0, f, _) = setup_poisson(&cfg);

    // interpreter result: iterate the stage graph manually
    let pipeline = build_cycle_pipeline(&cfg);
    let graph = polymg_repro::ir::StageGraph::build(&pipeline, &ParamBindings::new());
    let mut v_ref = v0.clone();
    for _ in 0..iters {
        let values = run_reference(&graph, &[("V", &v_ref), ("F", &f)]);
        v_ref = values["out"].clone();
    }

    // all six implementations
    let mut runners: Vec<(String, Box<dyn CycleRunner>)> = vec![
        ("handopt".into(), Box::new(HandOpt::new(cfg.clone(), 0))),
        (
            "handopt+pluto".into(),
            Box::new(handopt_pluto(cfg.clone(), 24, 3, 0)),
        ),
    ];
    for variant in Variant::all() {
        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
        opts.tile_sizes = if cfg.ndims == 2 {
            vec![16, 32]
        } else {
            vec![8, 8, 16]
        };
        opts.threads = 2;
        runners.push((
            variant.label().into(),
            Box::new(DslRunner::new(&cfg, opts, variant.label()).unwrap()),
        ));
    }

    for (label, mut runner) in runners {
        let mut v = v0.clone();
        for _ in 0..iters {
            runner.cycle(&mut v, &f);
        }
        let dev = max_abs_diff(&v, &v_ref);
        assert!(
            dev < 1e-11,
            "{} deviates from the interpreter by {dev} on {}",
            label,
            cfg.tag()
        );
    }
}

#[test]
fn v_2d_444() {
    check(MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444()), 2);
}

#[test]
fn v_2d_1000() {
    check(MgConfig::new(2, 63, CycleType::V, SmoothSteps::s1000()), 2);
}

#[test]
fn w_2d_444() {
    check(MgConfig::new(2, 63, CycleType::W, SmoothSteps::s444()), 2);
}

#[test]
fn w_2d_1000() {
    check(MgConfig::new(2, 63, CycleType::W, SmoothSteps::s1000()), 2);
}

#[test]
fn f_2d_444() {
    check(MgConfig::new(2, 63, CycleType::F, SmoothSteps::s444()), 2);
}

#[test]
fn v_3d_444() {
    check(MgConfig::new(3, 31, CycleType::V, SmoothSteps::s444()), 2);
}

#[test]
fn v_3d_1000() {
    check(MgConfig::new(3, 31, CycleType::V, SmoothSteps::s1000()), 2);
}

#[test]
fn w_3d_444() {
    check(MgConfig::new(3, 31, CycleType::W, SmoothSteps::s444()), 1);
}

#[test]
fn w_3d_1000() {
    check(MgConfig::new(3, 31, CycleType::W, SmoothSteps::s1000()), 1);
}

#[test]
fn f_3d_1000() {
    check(MgConfig::new(3, 31, CycleType::F, SmoothSteps::s1000()), 1);
}

#[test]
fn asymmetric_smoothing_2_0_5() {
    check(
        MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 2,
                coarse: 0,
                post: 5,
            },
        ),
        2,
    );
}

#[test]
fn zero_pre_smoothing_like_nas() {
    check(
        MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 0,
                coarse: 3,
                post: 1,
            },
        ),
        2,
    );
}

#[test]
fn two_level_minimum() {
    let mut cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
    cfg.levels = 2;
    check(cfg, 2);
}

#[test]
fn six_levels_deep() {
    let mut cfg = MgConfig::new(2, 127, CycleType::V, SmoothSteps::s444());
    cfg.levels = 6;
    check(cfg, 1);
}
