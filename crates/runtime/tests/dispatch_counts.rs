//! The kernel-dispatch histograms are part of the profile a run reports
//! (`kernel_tiers` in the `--profile` JSON is the CI witness that the lane
//! tiers actually ran), so where and how often the kernel layer counts must
//! not drift when the counting itself moves. This suite pins
//! `gmg_trace::dispatch::{snapshot, impl_snapshot, tier_snapshot}` after
//! fixed runs of the six `serve_mixed` plans and of the V-3D n = 15 cycle
//! under fast-math, each on a one-worker engine so that the row pieces of
//! an untiled sweep do not depend on the host's core count.
//!
//! One `#[test]` only: the histograms are process-global, and a second test
//! in this binary would run concurrently and add to them.

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use gmg_trace::dispatch;
use polymg::scenario::Scenario;
use polymg::{KernelTier, PipelineOptions, Variant};

type Histograms = (
    [u64; dispatch::KINDS],
    [u64; dispatch::IMPLS],
    [u64; dispatch::TIERS],
);

/// `cycles` cycles of `cfg` under `variant` and `scenario` on a fresh
/// one-worker runner, from a zero guess against a constant right-hand side.
fn run(cfg: MgConfig, variant: Variant, scenario: Scenario, tier: KernelTier, cycles: usize) {
    let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
    opts.threads = 1;
    opts.tier = tier;
    let coeff = scenario.needs_coeff().then(|| coeff_field(&cfg));
    let label = format!("{} n={} {}", cfg.tag(), cfg.n, scenario.label());
    let mut runner = scenario_runner(&cfg, ScenarioSpec::new(scenario), opts, &label, coeff)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let len = cfg.alloc_len(cfg.levels - 1);
    let (mut v, f) = (vec![0.0; len], vec![1.0; len]);
    for _ in 0..cycles {
        runner
            .cycle_with_stats(&mut v, &f)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

fn histograms() -> Histograms {
    (
        dispatch::snapshot(),
        dispatch::impl_snapshot(),
        dispatch::tier_snapshot(),
    )
}

#[test]
fn dispatch_histograms_are_the_ones_recorded() {
    // the six `serve_mixed` plans (`loadgen::default_mix` plus the varcoef
    // and red-black scenarios at V-2D n = 31), at their request's cycles
    let small = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let mut v3 = MgConfig::new(3, 15, CycleType::V, SmoothSteps::s444());
    v3.levels = 3;
    let mut w3 = MgConfig::new(3, 15, CycleType::W, SmoothSteps::s1000());
    w3.levels = 3;
    let mix = [
        (
            MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444()),
            Variant::OptPlus,
            Scenario::Constant,
            2,
        ),
        (
            MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444()),
            Variant::Opt,
            Scenario::Constant,
            2,
        ),
        (v3, Variant::OptPlus, Scenario::Constant, 2),
        (w3, Variant::OptPlus, Scenario::Constant, 1),
        (small.clone(), Variant::OptPlus, Scenario::VarCoef, 2),
        (small, Variant::OptPlus, Scenario::Rbgs, 2),
    ];
    dispatch::reset();
    for (cfg, variant, scenario, cycles) in mix {
        run(cfg, variant, scenario, KernelTier::LaneSafe, cycles);
    }
    let serve_mixed = histograms();

    dispatch::reset();
    let v3d = MgConfig::new(3, 15, CycleType::V, SmoothSteps::s444());
    run(
        v3d,
        Variant::OptPlus,
        Scenario::Constant,
        KernelTier::FastMath,
        2,
    );
    let fast_math = histograms();

    // recorded before the counting moved off the per-case path
    let want_serve_mixed = (
        [455, 0, 663, 0, 34],
        [34, 820, 0, 83, 0, 39, 176],
        [0, 1152, 0],
    );
    let want_fast_math = ([70, 0, 54, 0, 0], [0, 0, 0, 70, 0, 6, 48], [0, 0, 124]);
    assert_eq!(serve_mixed, want_serve_mixed, "serve_mixed plans");
    assert_eq!(fast_math, want_fast_math, "V-3D n = 15 under fast-math");
}
