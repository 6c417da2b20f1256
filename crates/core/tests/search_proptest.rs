//! Property tests over the coordinate-scan autotuning search (§3.2.4 online
//! variant): determinism of the candidate trajectory, validity of every
//! emitted configuration against the extended parameter bounds, coordinate-
//! wise optimality at the stop rule, and convergence — the search must match
//! or beat the full-sweep optimum on a deterministic synthetic cost surface
//! while spending at most 25% of the sweep's evaluations.

use gmg_ir::expr::Operand;
use gmg_ir::stencil::{interp_bilinear_cases, restrict_full_weighting_2d, stencil_2d};
use gmg_ir::{FuncId, ParamBindings, Pipeline, StepCount};
use polymg::autotune::search::{search, SearchParams, SMOOTH_BANDS};
use polymg::autotune::{search_space, TuneSource, GROUP_LIMITS};
use polymg::{KernelTier, PipelineOptions, TuneConfig, TunedStore, Variant};
use proptest::prelude::*;

/// Deterministic synthetic cost: a separable convex bowl over the lattice.
/// It depends only on the axes the §3.2.4 sweep also explores (tiles and
/// grouping limit), so the sweep optimum is a lower bound the search must
/// reach; the extra online axes (band, tier) are cost-neutral at their
/// respective optima and penalised elsewhere, so the surface is still
/// strictly separable in every axis.
fn bowl(cfg: &TuneConfig) -> f64 {
    let nd = cfg.tile_sizes.len();
    let mut m = 0.0;
    // inner tile axes want 16, the unit-stride axis wants 256
    for &t in &cfg.tile_sizes[..nd - 1] {
        m += ((t as f64).log2() - 4.0).abs();
    }
    m += ((cfg.tile_sizes[nd - 1] as f64).log2() - 8.0).abs();
    m += (cfg.group_limit as f64 - 8.0).abs() / 2.0;
    m += ((cfg.smooth_band as f64).log2() - 1.0).abs() / 4.0;
    m += match cfg.tier {
        KernelTier::LaneSafe => 0.0,
        _ => 0.125,
    };
    m
}

fn in_bounds(cfg: &TuneConfig, ndims: usize, allow_fast_math: bool) {
    let tile_axes: Vec<Vec<i64>> = match ndims {
        2 => vec![vec![8, 16, 32, 64], vec![64, 128, 256, 512]],
        _ => vec![vec![8, 16, 32], vec![8, 16, 32], vec![64, 128, 256]],
    };
    assert_eq!(cfg.tile_sizes.len(), ndims, "tile rank mismatch: {cfg:?}");
    for (axis, &t) in tile_axes.iter().zip(&cfg.tile_sizes) {
        assert!(axis.contains(&t), "tile {t} outside §3.2.4 axis {axis:?}");
    }
    assert!(
        GROUP_LIMITS.contains(&cfg.group_limit),
        "group limit {} outside bounds",
        cfg.group_limit
    );
    assert!(
        SMOOTH_BANDS.contains(&cfg.smooth_band),
        "smoother band {} outside bounds",
        cfg.smooth_band
    );
    if !allow_fast_math {
        assert_ne!(
            cfg.tier,
            KernelTier::FastMath,
            "fast-math tier emitted without opt-in"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same metric stream ⇒ bit-identical candidate trajectory. The
    /// proposals are a pure function of the reported metrics; nothing in
    /// the search consults a clock or an RNG. `scale` varies the stream
    /// between cases (it rescales one axis' penalty, which reorders the
    /// points of the surface).
    #[test]
    fn same_metrics_same_trajectory(
        scale in 0u32..64,
        ndims in 2usize..4,
        fast_math in proptest::bool::ANY,
    ) {
        let params = SearchParams::for_rank(ndims)
            .unwrap()
            .with_fast_math(fast_math);
        let metric = |c: &TuneConfig| bowl(c) + f64::from(scale) / 16.0 * c.group_limit as f64;
        let a = search(ndims, &params, metric).unwrap();
        let b = search(ndims, &params, metric).unwrap();
        prop_assert_eq!(a.evals, b.evals);
        prop_assert_eq!(a.trajectory.len(), b.trajectory.len());
        for (x, y) in a.trajectory.iter().zip(&b.trajectory) {
            prop_assert_eq!(&x.config, &y.config, "trajectories diverged");
            prop_assert_eq!(x.metric.to_bits(), y.metric.to_bits());
        }
        prop_assert_eq!(a.best.config, b.best.config);
    }

    /// Every emitted candidate stays inside the extended §3.2.4 bounds,
    /// never duplicates, and never exceeds the evaluation budget.
    #[test]
    fn emitted_candidates_stay_in_bounds(
        ndims in 2usize..4,
        fast_math in proptest::bool::ANY,
    ) {
        let params = SearchParams::for_rank(ndims)
            .unwrap()
            .with_fast_math(fast_math);
        let out = search(ndims, &params, bowl).unwrap();
        prop_assert!(out.evals <= params.max_evals);
        let mut seen = std::collections::BTreeSet::new();
        for s in &out.trajectory {
            in_bounds(&s.config, ndims, fast_math);
            prop_assert!(
                seen.insert(format!("{:?}", s.config)),
                "duplicate candidate {:?}",
                s.config
            );
        }
    }
}

/// A small but structurally complete 2-level V-cycle pipeline (same shape
/// as `proptest_compile.rs` uses) for compiling emitted candidates.
fn vcycle_pipeline() -> Pipeline {
    let five = vec![
        vec![0.0, -1.0, 0.0],
        vec![-1.0, 4.0, -1.0],
        vec![0.0, -1.0, 0.0],
    ];
    let n = 31i64;
    let nc = 15i64;
    let mut p = Pipeline::new("search_prop");
    let v = p.input("V", 2, n, 1);
    let f = p.input("F", 2, n, 1);
    let jac = |st: Operand, fo: FuncId| {
        st.at(&[0, 0]) - 0.2 * (stencil_2d(st, &five, 1.0) - Operand::Func(fo).at(&[0, 0]))
    };
    let pre = p.tstencil(
        "pre",
        2,
        n,
        1,
        StepCount::Fixed(2),
        Some(v),
        jac(Operand::State, f),
    );
    let d = p.function(
        "defect",
        2,
        n,
        1,
        Operand::Func(f).at(&[0, 0]) - stencil_2d(Operand::Func(pre), &five, 1.0),
    );
    let r = p.restrict_fn(
        "restrict",
        2,
        nc,
        0,
        restrict_full_weighting_2d(Operand::Func(d)),
    );
    let coarse = p.tstencil(
        "coarse",
        2,
        nc,
        0,
        StepCount::Fixed(2),
        None,
        jac(Operand::State, r),
    );
    let e = p.interp_fn_cases("interp", 2, n, 1, interp_bilinear_cases(Operand::Func(coarse)));
    let c = p.function(
        "correct",
        2,
        n,
        1,
        Operand::Func(pre).at(&[0, 0]) + Operand::Func(e).at(&[0, 0]),
    );
    let post = p.tstencil(
        "post",
        2,
        n,
        1,
        StepCount::Fixed(2),
        Some(c),
        jac(Operand::State, f),
    );
    p.mark_output(post);
    p
}

/// Every configuration one search run emits round-trips through
/// [`TuneConfig::apply`] into a `PipelineOptions` the compiler accepts —
/// the knobs are real, not merely well-typed.
#[test]
fn emitted_candidates_apply_into_compilable_options() {
    let pipeline = vcycle_pipeline();
    let params = SearchParams::for_rank(2).unwrap();
    let out = search(2, &params, bowl).unwrap();
    assert!(out.evals > 0);
    for s in &out.trajectory {
        let opts = s.config.apply(&PipelineOptions::for_variant(Variant::OptPlus, 2));
        assert_eq!(opts.tile_sizes, s.config.tile_sizes);
        assert_eq!(opts.group_limit, s.config.group_limit);
        assert_eq!(opts.dtile_band, s.config.smooth_band);
        let plan = polymg::compile(&pipeline, &ParamBindings::new(), opts)
            .unwrap_or_else(|e| panic!("candidate {:?} failed to compile: {e:?}", s.config));
        assert!(!plan.groups.is_empty());
    }
}

/// On the deterministic bowl the search must find a configuration at least
/// as good as the best of the *full* §3.2.4 sweep, while evaluating at most
/// 25% as many candidates — the headline claim of the online tuner.
#[test]
fn search_matches_sweep_optimum_with_quarter_budget() {
    for ndims in [2usize, 3] {
        let space = search_space(ndims).expect("sweep space");
        let sweep_best = space
            .iter()
            .map(bowl)
            .min_by(f64::total_cmp)
            .unwrap();
        let sweep_evals = space.len();

        let params = SearchParams::for_rank(ndims).unwrap();
        assert!(
            params.max_evals * 4 <= sweep_evals,
            "{ndims}-D default budget {} exceeds 25% of the {sweep_evals}-point sweep",
            params.max_evals
        );
        let out = search(ndims, &params, bowl).unwrap();
        assert!(
            out.best.metric <= sweep_best,
            "{ndims}-D search best {} worse than sweep best {sweep_best} \
             after {} evals",
            out.best.metric,
            out.evals
        );
        assert!(out.evals <= params.max_evals);
    }
}

/// With a budget that is not the stop reason, the scan stops only where no
/// single-axis move helps. The surface is the bowl plus a cross-term between
/// the two tile axes — a diagonal valley, so it is *not* separable: the
/// first cycle over the axes ends off the optimum, the second one, drawn
/// through the first one's best point, improves on it. At the stop every
/// lattice point that differs from the returned best on one axis —
/// evaluated or not — costs at least as much.
#[test]
fn stop_rule_leaves_a_coordinate_wise_optimum() {
    let cross = |c: &TuneConfig| {
        let (u, v) = (
            (c.tile_sizes[0] as f64).log2() - 4.0,
            (c.tile_sizes[1] as f64).log2() - 8.0,
        );
        bowl(c) + 1.5 * (u + 2.0 * v).abs()
    };
    let params = SearchParams::for_rank(2).unwrap().with_budget(640);
    let out = search(2, &params, cross).unwrap();
    assert!(out.evals < params.max_evals, "budget was the stop reason");
    let first_cycle = out.trajectory[..15]
        .iter()
        .map(|s| s.metric)
        .min_by(f64::total_cmp)
        .unwrap();
    assert!(
        out.best.metric < first_cycle,
        "the surface was meant to need a second cycle"
    );
    let best = &out.best.config;
    let axes: [&[i64]; 2] = [&[8, 16, 32, 64], &[64, 128, 256, 512]];
    let mut moves = Vec::new();
    for (axis, values) in axes.iter().enumerate() {
        for &t in *values {
            let mut c = best.clone();
            c.tile_sizes[axis] = t;
            moves.push(c);
        }
    }
    for &g in &GROUP_LIMITS {
        moves.push(TuneConfig { group_limit: g, ..best.clone() });
    }
    for &b in &SMOOTH_BANDS {
        moves.push(TuneConfig { smooth_band: b, ..best.clone() });
    }
    for tier in [KernelTier::Scalar, KernelTier::LaneSafe] {
        moves.push(TuneConfig { tier, ..best.clone() });
    }
    for m in &moves {
        assert!(
            cross(m) >= out.best.metric,
            "single-axis move {m:?} ({}) beats the returned best {best:?} ({})",
            cross(m),
            out.best.metric
        );
    }
}

/// A store file written by the release before the scan (its entries carry
/// the evolutionary search's `"seed"`) still loads, entry for entry, and
/// what it is saved back as loads to the same store.
#[test]
fn store_written_with_seeds_still_loads() {
    let parent = r#"{
  "tuned": [
    {"fingerprint": "9c3f51d20e7a44b1", "ndims": 2, "tile_sizes": [64, 256], "group_limit": 4, "smooth_band": 8, "tier": "lane_safe", "metric": 0.000264977, "fast_math": false, "source": "online", "evals": 20, "seed": "5eed0901deadbeef"},
    {"fingerprint": "000000000000002a", "ndims": 3, "tile_sizes": [16, 32, 64], "group_limit": 2, "smooth_band": 4, "tier": "lane_safe", "metric": 0.003844404, "fast_math": false, "source": "sweep", "evals": 0, "seed": "0000000000000000"}
  ]
}
"#;
    let store = TunedStore::from_json(parent).expect("parent store loads");
    assert_eq!(store.len(), 2);
    let online = store.lookup(0x9c3f_51d2_0e7a_44b1, 2).unwrap();
    assert_eq!(online.config.tile_sizes, vec![64, 256]);
    assert_eq!(
        (online.config.group_limit, online.config.smooth_band),
        (4, 8)
    );
    assert_eq!((online.source, online.evals), (TuneSource::Online, 20));
    assert_eq!(online.metric, 0.000264977);
    assert_eq!(store.lookup(0x2a, 3).unwrap().source, TuneSource::Sweep);
    let saved = store.to_json();
    assert!(!saved.contains("seed"));
    assert_eq!(TunedStore::from_json(&saved).unwrap(), store);
}
