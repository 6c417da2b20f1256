//! Numerical-behaviour tests: multigrid must not just run, it must act
//! like multigrid.

use polymg_repro::compiler::{PipelineOptions, Variant};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::handopt::HandOpt;
use polymg_repro::mg::solver::{max_or_nan, run_cycles, setup_poisson, DslRunner};

fn strong_coarse() -> SmoothSteps {
    SmoothSteps {
        pre: 3,
        coarse: 60,
        post: 3,
    }
}

fn factor(cfg: &MgConfig, iters: usize) -> f64 {
    let mut r = HandOpt::new(cfg.clone(), 0);
    let (mut v, f, _) = setup_poisson(cfg);
    run_cycles(&mut r, cfg, &mut v, &f, iters).conv_factor()
}

/// The defining property of multigrid: the convergence factor is (nearly)
/// independent of the problem size.
#[test]
fn h_independent_convergence_2d() {
    let mut factors = Vec::new();
    for (n, levels) in [(31i64, 3u32), (63, 4), (127, 5), (255, 6)] {
        let mut cfg = MgConfig::new(2, n, CycleType::V, strong_coarse());
        cfg.levels = levels;
        factors.push(factor(&cfg, 4));
    }
    let max = max_or_nan(factors.iter().copied());
    let min = factors.iter().cloned().fold(1.0f64, f64::min);
    assert!(max < 0.2, "V-cycle factor degraded with size: {factors:?}");
    assert!(
        max / min.max(1e-9) < 4.0,
        "convergence not h-independent: {factors:?}"
    );
}

#[test]
fn h_independent_convergence_3d() {
    let mut factors = Vec::new();
    for (n, levels) in [(15i64, 3u32), (31, 4), (63, 5)] {
        let mut cfg = MgConfig::new(3, n, CycleType::V, strong_coarse());
        cfg.levels = levels;
        factors.push(factor(&cfg, 3));
    }
    assert!(
        factors.iter().all(|&f| f < 0.25),
        "3-D V-cycle factors: {factors:?}"
    );
}

/// W- and F-cycles converge at least as fast per cycle as V-cycles.
#[test]
fn cycle_shape_ordering() {
    let mk = |cy| {
        let mut c = MgConfig::new(2, 127, cy, strong_coarse());
        c.levels = 5;
        c
    };
    let v = factor(&mk(CycleType::V), 4);
    let w = factor(&mk(CycleType::W), 4);
    let f = factor(&mk(CycleType::F), 4);
    assert!(w <= v * 1.1, "W ({w}) worse than V ({v})");
    assert!(f <= v * 1.1, "F ({f}) worse than V ({v})");
}

/// More smoothing steps improve the per-cycle factor (until saturation) —
/// the trade-off Ghysels & Vanroose study and the reason 10-0-0 exists.
#[test]
fn smoothing_steps_help() {
    let mk = |pre, post| {
        let mut c = MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre,
                coarse: 60,
                post,
            },
        );
        c.levels = 4;
        c
    };
    let f1 = factor(&mk(1, 1), 4);
    let f4 = factor(&mk(4, 4), 4);
    assert!(f4 < f1, "V(4,4) ({f4}) should beat V(1,1) ({f1})");
}

/// The optimized variants must not change numerics: convergence history is
/// identical between naive and opt+ (not merely similar).
#[test]
fn optimization_does_not_change_convergence_history() {
    let cfg = MgConfig::new(2, 63, CycleType::V, strong_coarse());
    let histories: Vec<Vec<f64>> = [Variant::Naive, Variant::OptPlus]
        .iter()
        .map(|&v| {
            let mut opts = PipelineOptions::for_variant(v, 2);
            opts.tile_sizes = vec![16, 32];
            let mut runner = DslRunner::new(&cfg, opts, v.label()).unwrap();
            let (mut vv, f, _) = setup_poisson(&cfg);
            run_cycles(&mut runner, &cfg, &mut vv, &f, 4).norms
        })
        .collect();
    for (a, b) in histories[0].iter().zip(&histories[1]) {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(1.0),
            "histories diverge: {a} vs {b}"
        );
    }
}

/// 10-0-0 (no coarse work at all) still reduces the residual — the cycle
/// degenerates to hierarchical smoothing of the error equation, which the
/// paper uses purely as a performance benchmark.
#[test]
fn ten_zero_zero_still_reduces_residual() {
    let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s1000());
    let mut r = HandOpt::new(cfg.clone(), 0);
    let (mut v, f, _) = setup_poisson(&cfg);
    let res = run_cycles(&mut r, &cfg, &mut v, &f, 5);
    assert!(res.res_final() < res.res0 * 0.5, "{:?}", res.norms);
}
