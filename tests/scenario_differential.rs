//! Scenario differential suite (DESIGN.md §18). Four pins:
//!
//! * **varcoef-with-ones ≡ constant twin, bitwise.** The
//!   variable-coefficient pipeline scales its finest-level operator taps by
//!   the external grid `A`; with `a ≡ 1` every scale (and the Jacobi
//!   update's division by `a`) is an IEEE identity, so the result must
//!   match the structural twin — the same split-operator stage layout
//!   *without* the coefficient input, which lowers to the constant
//!   specialized/SIMD kernels — bit for bit, across variants and kernel
//!   tiers. Any drift means the coefficient path computes a different
//!   operator, not a rounding difference.
//! * **a real coefficient field is tier-invariant, bitwise.** With a
//!   field of distinct values, the lane tiers (which run coefficient rows
//!   on the packed lane, under the exact rule even with `--fast-math`)
//!   must equal the scalar rows of `--no-simd` and `specialize = false`
//!   bit for bit — a lane that reads the wrong coefficient row or offset
//!   shows here, where `a ≡ 1` hides it. The constant, red-black and FMG
//!   scenarios are held to the same pin: their restriction, interpolation
//!   and red-black rows run the packed lane's strided loads and stores.
//! * **mixed-precision converges.** The f32 smoothing tier is an opt-in
//!   speed/accuracy trade: it must still drive the f64 residual down at a
//!   multigrid-like rate on the paper's Poisson problem (the floor it
//!   eventually hits sits far below the asserted reduction).
//! * **the f32 chain's bits.** Two mixed-precision cycles hash to recorded
//!   values, at one worker and at three.

use proptest::prelude::*;

use polymg_repro::compiler::{PipelineOptions, Scenario, Variant};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::cycles::build_varcoef_cycle_pipeline;
use polymg_repro::mg::scenario::{coeff_field, ones_field, scenario_runner, ScenarioSpec};
use polymg_repro::mg::solver::{residual_norm, setup_poisson, DslRunner};

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

fn options(variant: Variant, ndims: usize, specialize: bool, simd: bool) -> PipelineOptions {
    let mut opts = PipelineOptions::for_variant(variant, ndims);
    opts.threads = 2;
    opts.specialize = specialize;
    opts.simd = simd;
    opts
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `CYCLES` varcoef cycles with `a ≡ 1` vs the constant structural twin.
fn check_ones_twin(
    ndims: usize,
    cycle: CycleType,
    variant: Variant,
    specialize: bool,
    simd: bool,
) -> Result<(), String> {
    let cfg = config(ndims, cycle);
    let (v0, f, _) = setup_poisson(&cfg);

    let mut var = scenario_runner(
        &cfg,
        ScenarioSpec::new(Scenario::VarCoef),
        options(variant, ndims, specialize, simd),
        "ones",
        Some(ones_field(&cfg)),
    )
    .map_err(|e| format!("varcoef compile failed: {e}"))?;
    let twin_pipeline = build_varcoef_cycle_pipeline(&cfg, false);
    let mut twin = DslRunner::from_pipeline(
        &twin_pipeline,
        &cfg,
        options(variant, ndims, specialize, simd),
        "twin",
    )
    .map_err(|e| format!("twin compile failed: {e:?}"))?;

    let (mut vv, mut vt) = (v0.clone(), v0);
    for c in 0..CYCLES {
        var.cycle_with_stats(&mut vv, &f)
            .map_err(|e| format!("varcoef cycle {c}: {e:?}"))?;
        twin.cycle_with_stats(&mut vt, &f)
            .map_err(|e| format!("twin cycle {c}: {e:?}"))?;
    }
    if bits(&vv) != bits(&vt) {
        return Err(format!(
            "varcoef with a=1 diverged bitwise from the constant twin \
             ({} {cycle:?} {variant:?} specialize={specialize} simd={simd})",
            cfg.tag(),
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random rank × cycle shape × variant × kernel tier: the coefficient
    /// path with `a ≡ 1` is bitwise the constant twin.
    #[test]
    fn varcoef_ones_matches_constant_twin_bitwise(
        ndims_sel in 0u8..2,
        cycle_sel in 0u8..2,
        variant_sel in 0u8..2,
        spec_sel in 0u8..2,
        simd_sel in 0u8..2,
    ) {
        let ndims = if ndims_sel == 0 { 2 } else { 3 };
        let cycle = if cycle_sel == 0 { CycleType::V } else { CycleType::W };
        let variant = if variant_sel == 0 { Variant::OptPlus } else { Variant::Opt };
        if let Err(msg) = check_ones_twin(ndims, cycle, variant, spec_sel == 1, simd_sel == 1) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Deterministic tier sweep of the same pin (CI-friendly fixed cases).
#[test]
fn varcoef_ones_twin_fixed_tiers() {
    for &(specialize, simd) in &[(false, false), (true, false), (true, true)] {
        for ndims in [2usize, 3] {
            check_ones_twin(ndims, CycleType::V, Variant::OptPlus, specialize, simd)
                .unwrap_or_else(|msg| panic!("{msg}"));
        }
    }
}

/// A genuinely variable coefficient must *change* the answer — guards
/// against the coefficient grid being silently ignored (in which case the
/// ones-differential above would pass vacuously).
#[test]
fn varcoef_field_changes_the_answer() {
    let cfg = config(2, CycleType::V);
    let (v0, f, _) = setup_poisson(&cfg);
    let run = |coeff: Vec<f64>| {
        let mut r = scenario_runner(
            &cfg,
            ScenarioSpec::new(Scenario::VarCoef),
            options(Variant::OptPlus, 2, false, true),
            "field",
            Some(coeff),
        )
        .expect("compile");
        let mut v = v0.clone();
        for _ in 0..CYCLES {
            r.cycle_with_stats(&mut v, &f).expect("cycle");
        }
        v
    };
    let ones = run(ones_field(&cfg));
    let field = run(coeff_field(&cfg));
    assert_ne!(
        bits(&ones),
        bits(&field),
        "a non-trivial coefficient field left the solve unchanged"
    );
}

/// Every stage the program runs untiled or in an overlapped group.
fn program_stages(r: &DslRunner) -> Vec<&polymg_repro::compiler::schedule::StageExec> {
    use polymg_repro::compiler::schedule::ExecOp;
    let ops = &r.engine().program().ops;
    ops.iter()
        .flat_map(|op| match op {
            ExecOp::RunUntiledStage { stage } => std::slice::from_ref(stage),
            ExecOp::RunOverlappedGroup { stages, .. } => stages,
            _ => &[],
        })
        .collect()
}

/// `CYCLES` cycles on a real coefficient field give one grid, bit for bit,
/// at default options, under `--no-simd` and with `specialize = false`,
/// per rank × variant × worker count, and under `--fast-math` too on a
/// one-level cycle. (The three-level cycle's coarse levels run the
/// constant operator, which `--fast-math` reassociates; every operator
/// stage of the one-level cycle carries coefficient taps.)
#[test]
fn varcoef_field_is_tier_invariant() {
    use polymg_repro::compiler::{KernelImpl, KernelTier};
    type Knob = fn(&mut PipelineOptions);
    let knobs: [(&str, Knob); 4] = [
        ("default", |_| {}),
        ("no-simd", |o| o.simd = false),
        ("no-specialize", |o| o.specialize = false),
        ("fast-math", |o| o.fast_math = true),
    ];
    let mut failures = Vec::new();
    for (ndims, levels) in [(2, 3), (2, 1), (3, 3), (3, 1)] {
        let mut cfg = config(ndims, CycleType::V);
        cfg.levels = levels;
        let knobs = if levels == 1 { &knobs[..] } else { &knobs[..3] };
        let (v0, f, _) = setup_poisson(&cfg);
        for variant in [Variant::Naive, Variant::Opt, Variant::OptPlus] {
            for threads in [1, 2] {
                let grids: Vec<Vec<u64>> = knobs
                    .iter()
                    .map(|(name, knob)| {
                        let mut opts = PipelineOptions::for_variant(variant, ndims);
                        opts.threads = threads;
                        knob(&mut opts);
                        let spec = ScenarioSpec::new(Scenario::VarCoef);
                        let mut r =
                            scenario_runner(&cfg, spec, opts, name, Some(coeff_field(&cfg)))
                                .expect("compile");
                        if *name == "default" {
                            let lane_generic = program_stages(&r).iter().any(|s| {
                                s.impl_tag == KernelImpl::Generic && s.tier == KernelTier::LaneSafe
                            });
                            assert!(
                                lane_generic,
                                "test premise: {} {variant:?} runs coefficient stages lane-safe",
                                cfg.tag()
                            );
                        }
                        let mut v = v0.clone();
                        for _ in 0..CYCLES {
                            r.cycle_with_stats(&mut v, &f).expect("cycle");
                        }
                        bits(&v)
                    })
                    .collect();
                for ((name, _), grid) in knobs.iter().zip(&grids).skip(1) {
                    if *grid != grids[0] {
                        failures.push(format!(
                            "{} levels={levels} {variant:?} threads={threads}: {name} differs \
                             from default",
                            cfg.tag()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "tier-variant grids:\n{}",
        failures.join("\n")
    );
}

/// `CYCLES` cycles of the constant, red-black and FMG scenarios give one
/// grid, bit for bit, at default options, under `--no-simd` and with
/// `specialize = false`, per rank × variant × worker count. The default
/// program runs its restriction and interpolation stages lane-safe, so
/// this pins the packed lane's strided rows (and, for red-black, whose
/// smoother stages run lane-safe too, its parity-strided rows) against
/// the scalar lane and against the run-time loop end to end.
#[test]
fn strided_rows_are_tier_invariant() {
    use polymg_repro::compiler::{KernelImpl, KernelTier};
    type Knob = fn(&mut PipelineOptions);
    let knobs: [(&str, Knob); 3] = [
        ("default", |_| {}),
        ("no-simd", |o| o.simd = false),
        ("no-specialize", |o| o.specialize = false),
    ];
    let mut failures = Vec::new();
    for scenario in [Scenario::Constant, Scenario::Rbgs, Scenario::Fmg] {
        for ndims in [2, 3] {
            let cfg = config(ndims, CycleType::V);
            let (v0, f, _) = setup_poisson(&cfg);
            for variant in [Variant::Naive, Variant::Opt, Variant::OptPlus] {
                for threads in [1, 2] {
                    let grids: Vec<Vec<u64>> = knobs
                        .iter()
                        .map(|(name, knob)| {
                            let mut opts = PipelineOptions::for_variant(variant, ndims);
                            opts.threads = threads;
                            knob(&mut opts);
                            let spec = ScenarioSpec::new(scenario);
                            let mut r =
                                scenario_runner(&cfg, spec, opts, name, None).expect("compile");
                            if *name == "default" {
                                for family in [KernelImpl::Restrict, KernelImpl::Interp] {
                                    let lane = program_stages(&r).iter().any(|s| {
                                        s.impl_tag == family && s.tier == KernelTier::LaneSafe
                                    });
                                    assert!(
                                        lane,
                                        "test premise: {} {scenario:?} {variant:?} runs \
                                         {family:?} stages lane-safe",
                                        cfg.tag()
                                    );
                                }
                                let gsrb = program_stages(&r).iter().any(|s| {
                                    s.name.starts_with("gsrb") && s.tier == KernelTier::LaneSafe
                                });
                                assert!(
                                    gsrb == (scenario == Scenario::Rbgs),
                                    "test premise: {} {scenario:?} {variant:?} runs red-black \
                                     stages lane-safe iff it smooths red-black",
                                    cfg.tag()
                                );
                            }
                            let mut v = v0.clone();
                            for _ in 0..CYCLES {
                                r.cycle_with_stats(&mut v, &f).expect("cycle");
                            }
                            bits(&v)
                        })
                        .collect();
                    for ((name, _), grid) in knobs.iter().zip(&grids).skip(1) {
                        if *grid != grids[0] {
                            failures.push(format!(
                                "{} {scenario:?} {variant:?} threads={threads}: {name} differs \
                                 from default",
                                cfg.tag()
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "tier-variant grids:\n{}",
        failures.join("\n")
    );
}

/// FNV-1a over the `to_bits` of every value: a pin that any changed bit of
/// any cell moves.
fn bits_hash(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The f32 smoother chain's values, pinned: `CYCLES` mixed-precision cycles
/// per rank × variant hash to the recorded value, at one worker and at
/// three. Both variants lower the smoother chains to the same f32 chain op
/// and the rest of the cycle to bitwise-equal f64 stages, so they share a
/// pin. The f64 stages are pinned by the suites above; this is the only pin
/// on what the chain itself computes.
#[test]
fn mixed_precision_chain_bits_are_pinned() {
    use polymg_repro::compiler::schedule::ExecOp;
    let pins = [
        (2, Variant::OptPlus, 0x5a60_c5c0_fc78_b2beu64),
        (2, Variant::DtileOptPlus, 0x5a60_c5c0_fc78_b2be),
        (3, Variant::OptPlus, 0x114a_369d_c035_bcbd),
        (3, Variant::DtileOptPlus, 0x114a_369d_c035_bcbd),
    ];
    let mut failures = Vec::new();
    for (ndims, variant, want) in pins {
        let cfg = config(ndims, CycleType::V);
        for threads in [1, 3] {
            let mut opts = PipelineOptions::for_variant(variant, ndims);
            opts.threads = threads;
            let spec = ScenarioSpec {
                scenario: Scenario::Constant,
                mixed: true,
            };
            let mut runner = scenario_runner(&cfg, spec, opts, "pin", None).expect("compile");
            assert!(
                runner
                    .engine()
                    .program()
                    .ops
                    .iter()
                    .any(|op| matches!(op, ExecOp::RunMixedChain { .. })),
                "test premise: {} {variant:?} runs an f32 chain",
                cfg.tag()
            );
            let (mut v, f, _) = setup_poisson(&cfg);
            for _ in 0..CYCLES {
                runner.cycle_with_stats(&mut v, &f).expect("cycle");
            }
            let got = bits_hash(&v);
            if got != want {
                failures.push(format!(
                    "{} {variant:?} threads={threads}: {got:#018x}",
                    cfg.tag()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "moved pins:\n{}", failures.join("\n"));
}

/// Mixed-precision (f32 smoothing) still converges on the paper's Poisson
/// problem: the residual target sits well above the f32 round-off floor.
#[test]
fn mixed_precision_smoothing_converges() {
    // coarse=50 solves the coarsest level essentially exactly, so the
    // cycle converges at the true multigrid rate — with s444's token
    // coarse sweeps even the f64 path needs ~30 cycles for 1e-3 and the
    // assertion would measure the coarse solve, not the f32 smoothing.
    let steps = SmoothSteps {
        pre: 4,
        coarse: 50,
        post: 4,
    };
    let cfg = MgConfig::new(2, 63, CycleType::V, steps);
    let mut runner = scenario_runner(
        &cfg,
        ScenarioSpec {
            scenario: Scenario::Constant,
            mixed: true,
        },
        PipelineOptions::for_variant(Variant::OptPlus, 2),
        "mixed",
        None,
    )
    .expect("compile");
    let (mut v, f, _) = setup_poisson(&cfg);
    let fine = cfg.levels - 1;
    let (n, h) = (cfg.n_at(fine), cfg.h_at(fine));
    let r0 = residual_norm(2, n, h, &v, &f);
    for _ in 0..10 {
        runner.cycle_with_stats(&mut v, &f).expect("cycle");
    }
    let r = residual_norm(2, n, h, &v, &f);
    assert!(
        r < r0 * 1e-3,
        "mixed-precision cycles stalled: {r0:.3e} -> {r:.3e}"
    );
    // ...and it is a genuine precision trade: the f64 path from the same
    // options differs bitwise (if not, the f32 chain never engaged).
    let mut f64_runner = scenario_runner(
        &cfg,
        ScenarioSpec::new(Scenario::Constant),
        PipelineOptions::for_variant(Variant::OptPlus, 2),
        "f64",
        None,
    )
    .expect("compile");
    let (mut v64, f, _) = setup_poisson(&cfg);
    for _ in 0..10 {
        f64_runner.cycle_with_stats(&mut v64, &f).expect("cycle");
    }
    assert_ne!(
        bits(&v),
        bits(&v64),
        "mixed-precision result is bitwise the f64 result — the f32 smoother chain never ran"
    );
}
