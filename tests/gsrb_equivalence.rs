//! GSRB extension end-to-end: the DSL's parity-`Case` red-black smoother
//! must match the hand-written in-place half-sweeps across optimizer
//! variants, and must smooth better than Jacobi.

use polymg_repro::compiler::{PipelineOptions, Variant};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::handopt::HandOpt;
use polymg_repro::mg::solver::{max_abs_diff, run_cycles, setup_poisson, CycleRunner, DslRunner};

fn gsrb_cfg(ndims: usize, n: i64) -> MgConfig {
    MgConfig::new(
        ndims,
        n,
        CycleType::V,
        SmoothSteps {
            pre: 2,
            coarse: 2,
            post: 2,
        },
    )
    .with_gsrb()
}

#[test]
fn dsl_gsrb_matches_handopt_2d() {
    let cfg = gsrb_cfg(2, 63);
    let (v0, f, _) = setup_poisson(&cfg);
    let mut hand = HandOpt::new(cfg.clone(), 0);
    let mut vh = v0.clone();
    hand.cycle(&mut vh, &f);
    hand.cycle(&mut vh, &f);

    for variant in [Variant::Naive, Variant::Opt, Variant::OptPlus] {
        let mut opts = PipelineOptions::for_variant(variant, 2);
        opts.tile_sizes = vec![16, 32];
        let mut dsl = DslRunner::new(&cfg, opts, variant.label()).unwrap();
        let mut vd = v0.clone();
        dsl.cycle(&mut vd, &f);
        dsl.cycle(&mut vd, &f);
        let dev = max_abs_diff(&vd, &vh);
        assert!(dev < 1e-11, "{}: deviation {dev}", variant.label());
    }
}

#[test]
fn dsl_gsrb_matches_handopt_3d() {
    let cfg = gsrb_cfg(3, 31);
    let (v0, f, _) = setup_poisson(&cfg);
    let mut hand = HandOpt::new(cfg.clone(), 0);
    let mut vh = v0.clone();
    hand.cycle(&mut vh, &f);

    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 3);
    opts.tile_sizes = vec![8, 8, 16];
    let mut dsl = DslRunner::new(&cfg, opts, "polymg-opt+").unwrap();
    let mut vd = v0;
    dsl.cycle(&mut vd, &f);
    let dev = max_abs_diff(&vd, &vh);
    assert!(dev < 1e-11, "deviation {dev}");
}

#[test]
fn gsrb_cycle_converges_strongly() {
    let mut cfg = gsrb_cfg(2, 63);
    cfg.steps.coarse = 40;
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.tile_sizes = vec![16, 32];
    let mut dsl = DslRunner::new(&cfg, opts, "polymg-opt+").unwrap();
    let (mut v, f, _) = setup_poisson(&cfg);
    let r = run_cycles(&mut dsl, &cfg, &mut v, &f, 5);
    assert!(
        r.conv_factor() < 0.15,
        "GSRB V(2,2) should converge fast, got {}",
        r.conv_factor()
    );
}
