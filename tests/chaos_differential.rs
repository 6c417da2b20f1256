//! Chaos differential suite (DESIGN.md §12): random multigrid pipelines ×
//! random fault plans. The invariant is three-sided:
//!
//! * a run whose injected faults were all *recovered* (pool/arena
//!   exhaustion) is bitwise-identical to the fault-free run;
//! * an *unrecoverable* fault (op fault, worker panic) surfaces as a typed
//!   [`ExecError`] — never a panic, never a deadlock — and the same engine
//!   keeps working for subsequent cycles;
//! * chaos never changes what is compiled: the fault-free and chaos
//!   runners share one cached plan (chaos is excluded from the plan
//!   fingerprint), so any divergence is an execution bug, not a plan diff.
//!
//! Scenarios that support it also run with mixed-precision smoothing, so
//! the f32 chain op's fault site and the worker panics inside its sweeps
//! are on the same contract.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use polymg_repro::compiler::chaos::{SITE_ALL, SITE_OP, SITE_PANIC};
use polymg_repro::compiler::{
    ChaosOptions, ChaosStats, FaultSite, PipelineOptions, Scenario, Variant,
};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::scenario::{coeff_field, scenario_runner, ScenarioSpec};
use polymg_repro::mg::solver::{setup_poisson, DslRunner};

const CYCLES: usize = 2;

fn config(ndims: usize, cycle: CycleType) -> MgConfig {
    let n = if ndims == 2 { 31 } else { 15 };
    let steps = SmoothSteps {
        pre: 2,
        coarse: 2,
        post: 2,
    };
    let mut cfg = MgConfig::new(ndims, n, cycle, steps);
    cfg.levels = 3;
    cfg
}

fn options(variant: Variant, ndims: usize, specialize: bool) -> PipelineOptions {
    let mut opts = PipelineOptions::for_variant(variant, ndims);
    opts.tile_sizes = if ndims == 2 {
        vec![8, 16]
    } else {
        vec![4, 4, 8]
    };
    opts.threads = 2;
    opts.specialize = specialize;
    opts
}

/// Build the runner for a scenario pipeline (DESIGN.md §18): the constant
/// cycle, the variable-coefficient operator (with the canonical smooth
/// field bound), or the RB-GS/Chebyshev smoother substitutions, each with
/// f32 smoothing where `spec.mixed` — chaos must hold the same
/// recovered-means-bitwise contract on all of them.
fn scenario_dsl_runner(
    cfg: &MgConfig,
    opts: PipelineOptions,
    spec: ScenarioSpec,
    label: &str,
) -> DslRunner {
    let coeff = spec.scenario.needs_coeff().then(|| coeff_field(cfg));
    scenario_runner(cfg, spec, opts, label, coeff)
        .unwrap_or_else(|e| panic!("{label} compile failed: {e}"))
}

/// Fault-free reference trajectory.
fn reference(cfg: &MgConfig, opts: PipelineOptions, spec: ScenarioSpec) -> Vec<f64> {
    let (mut v, f, _) = setup_poisson(cfg);
    let mut runner = scenario_dsl_runner(cfg, opts, spec, "ref");
    for _ in 0..CYCLES {
        runner
            .cycle_with_stats(&mut v, &f)
            .expect("fault-free cycle");
    }
    v
}

/// Drive `CYCLES` cycles under an armed fault plan. Typed errors are
/// tolerated (and the engine is re-driven afterwards — it must stay
/// usable); a panic escaping `Engine::run` fails the property.
/// Returns `(final_v, every_cycle_ok, chaos counters)` or the panic payload.
fn chaos_run(
    cfg: &MgConfig,
    opts: PipelineOptions,
    spec: ScenarioSpec,
) -> Result<(Vec<f64>, bool, ChaosStats), String> {
    let (mut v, f, _) = setup_poisson(cfg);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut runner = scenario_dsl_runner(cfg, opts, spec, "chaos");
        let mut all_ok = true;
        for _ in 0..CYCLES {
            if runner.cycle_with_stats(&mut v, &f).is_err() {
                all_ok = false;
            }
        }
        (all_ok, runner.engine().chaos_stats())
    }));
    match outcome {
        Ok((all_ok, stats)) => Ok((v, all_ok, stats)),
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())),
    }
}

/// One chaos case against its fault-free reference; returns the chaos
/// counters of the armed run.
#[allow(clippy::too_many_arguments)]
fn check_case(
    ndims: usize,
    cycle: CycleType,
    variant: Variant,
    specialize: bool,
    spec: ScenarioSpec,
    seed: u64,
    rate: f64,
    sites: u8,
) -> Result<ChaosStats, String> {
    let cfg = config(ndims, cycle);
    let clean = reference(&cfg, options(variant, ndims, specialize), spec);

    let mut opts = options(variant, ndims, specialize);
    opts.chaos = Some(ChaosOptions::new(seed, rate).with_sites(sites & SITE_ALL));
    let (v, all_ok, stats) = chaos_run(&cfg, opts, spec)
        .map_err(|p| format!("panic escaped Engine::run under chaos: {p}"))?;
    if all_ok && v != clean {
        return Err(format!(
            "every fault was recovered (all cycles Ok) but the result diverged \
             from the fault-free run ({} {:?} {:?} {:?} mixed={} seed={seed} \
             rate={rate} sites={sites:#07b})",
            cfg.tag(),
            variant,
            specialize,
            spec.scenario,
            spec.mixed,
        ));
    }
    Ok(stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random pipeline × random scenario × random fault plan: bitwise
    /// after recovery, or a typed error — never a panic.
    #[test]
    fn chaos_is_bitwise_recoverable_or_typed(
        ndims_sel in 0u8..2,
        cycle_sel in 0u8..2,
        variant_sel in 0u8..2,
        spec_sel in 0u8..2,
        scenario_sel in 0u8..4,
        mixed_sel in 0u8..2,
        seed in 0u64..1_000_000_000,
        rate in 0.0f64..0.5,
        sites in 1u8..=SITE_ALL,
    ) {
        let ndims = if ndims_sel == 0 { 2 } else { 3 };
        let cycle = if cycle_sel == 0 { CycleType::V } else { CycleType::W };
        let variant = if variant_sel == 0 { Variant::OptPlus } else { Variant::DtileOptPlus };
        let specialize = spec_sel == 1;
        // Fmg shares the constant per-cycle pipeline, so the interesting
        // chaos surfaces are the other scenario operators/smoothers.
        let scenario = [Scenario::Constant, Scenario::VarCoef, Scenario::Rbgs, Scenario::Chebyshev]
            [scenario_sel as usize];
        let spec = ScenarioSpec {
            scenario,
            mixed: mixed_sel == 1 && scenario.supports_mixed_precision(),
        };
        if let Err(msg) = check_case(ndims, cycle, variant, specialize, spec, seed, rate, sites) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Deterministic CI gate (`ci.sh` runs this suite): three fixed seeds over
/// a fixed config with every site armed at a fault-heavy rate.
#[test]
fn fixed_seeds_gate() {
    for seed in [1u64, 2, 3] {
        for &(ndims, variant, scenario) in &[
            (2, Variant::OptPlus, Scenario::Constant),
            (3, Variant::DtileOptPlus, Scenario::Constant),
            (2, Variant::OptPlus, Scenario::VarCoef),
            (2, Variant::OptPlus, Scenario::Rbgs),
        ] {
            let spec = ScenarioSpec::new(scenario);
            check_case(
                ndims,
                CycleType::V,
                variant,
                true,
                spec,
                seed,
                0.2,
                SITE_ALL,
            )
            .unwrap_or_else(|msg| panic!("seed {seed}: {msg}"));
        }
    }
}

/// Fixed-seed gate for the f32 chain: mixed-precision cycles with the op
/// and worker-panic sites armed. The chain op's own fault must fire (the
/// premise), and every fault must surface as a typed error.
#[test]
fn fixed_seed_mixed_chain_gate() {
    let spec = ScenarioSpec {
        scenario: Scenario::Constant,
        mixed: true,
    };
    let stats = check_case(
        2,
        CycleType::V,
        Variant::OptPlus,
        true,
        spec,
        2,
        0.3,
        SITE_OP | SITE_PANIC,
    )
    .unwrap_or_else(|msg| panic!("{msg}"));
    let mixed = FaultSite::OpMixed.index();
    assert!(
        stats.fired[mixed] > 0,
        "test premise: op_mixed fired ({} consults)",
        stats.armed[mixed]
    );
}
