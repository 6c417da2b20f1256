//! Scenario builders: translate a [`polymg::scenario::Scenario`] descriptor
//! into a concrete DSL pipeline / runner.
//!
//! The compiler-side descriptor (`polymg::scenario`) only *names* the
//! problem families; this module owns the mapping onto `MgConfig` and the
//! pipeline builders:
//!
//! * `constant` — the paper's constant-coefficient Poisson cycle;
//! * `varcoef` — `a(x)·(−∇²u) = f` with the coefficient grid as a third
//!   external input `A` ([`build_varcoef_cycle_pipeline`]);
//! * `rbgs` / `chebyshev` — the same cycle with the smoother sequence
//!   swapped through [`crate::config::SmootherKind`];
//! * `fmg` — constant-coefficient cycles driven by the full-multigrid
//!   ladder, with the level-to-level prolongation itself a DSL pipeline
//!   ([`DslProlong`]).

use crate::config::MgConfig;
use crate::cycles::{build_cycle_pipeline, build_varcoef_cycle_pipeline};
use crate::solver::DslRunner;
use gmg_ir::{ParamBindings, Pipeline};
use gmg_runtime::{Engine, ExecError};
use polymg::scenario::{Scenario, ScenarioError};
use polymg::PipelineOptions;

/// A fully-specified scenario request: the problem family plus the
/// mixed-precision smoothing opt-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    pub scenario: Scenario,
    /// Run the smoother chains on the f32 tier (only meaningful where
    /// [`Scenario::supports_mixed_precision`] holds).
    pub mixed: bool,
}

impl ScenarioSpec {
    pub fn new(scenario: Scenario) -> ScenarioSpec {
        ScenarioSpec {
            scenario,
            mixed: false,
        }
    }

    /// Display label (`varcoef`, `constant+mp`, …).
    pub fn label(&self) -> String {
        if self.mixed {
            format!("{}+mp", self.scenario.label())
        } else {
            self.scenario.label().to_string()
        }
    }
}

/// `cfg` adjusted for a scenario (smoother kind swapped where the scenario
/// demands one).
pub fn scenario_config(cfg: &MgConfig, scenario: Scenario) -> MgConfig {
    match scenario {
        Scenario::Constant | Scenario::VarCoef | Scenario::Fmg => cfg.clone(),
        Scenario::Rbgs => cfg.clone().with_gsrb(),
        Scenario::Chebyshev => cfg.clone().with_chebyshev(),
    }
}

/// Build the per-cycle pipeline for a scenario. `Fmg` emits the constant
/// cycle — the coarse-to-fine ladder is a *driver* concern
/// ([`crate::fmg::fmg_solve`]), each rung of which runs this pipeline.
pub fn build_scenario_pipeline(cfg: &MgConfig, scenario: Scenario) -> Pipeline {
    let cfg = scenario_config(cfg, scenario);
    match scenario {
        Scenario::VarCoef => build_varcoef_cycle_pipeline(&cfg, true),
        _ => build_cycle_pipeline(&cfg),
    }
}

/// Construct a [`DslRunner`] for a scenario: validates the spec against
/// the supplied coefficient grid, applies the mixed-precision opt-in to
/// the options, compiles the scenario pipeline (plan-cached) and binds the
/// coefficient grid as the `A` external.
pub fn scenario_runner(
    cfg: &MgConfig,
    spec: ScenarioSpec,
    mut opts: PipelineOptions,
    label: &str,
    coeff: Option<Vec<f64>>,
) -> Result<DslRunner, ScenarioRunnerError> {
    spec.scenario
        .validate(spec.mixed, coeff.is_some())
        .map_err(ScenarioRunnerError::Scenario)?;
    if let Some(a) = &coeff {
        if a.len() != cfg.alloc_len(cfg.levels - 1) {
            return Err(ScenarioRunnerError::CoeffSize {
                got: a.len(),
                want: cfg.alloc_len(cfg.levels - 1),
            });
        }
    }
    opts.mixed_precision = spec.mixed;
    let cfg2 = scenario_config(cfg, spec.scenario);
    let pipeline = build_scenario_pipeline(cfg, spec.scenario);
    let mut runner = DslRunner::from_pipeline(&pipeline, &cfg2, opts, label)
        .map_err(ScenarioRunnerError::Compile)?;
    if let Some(a) = coeff {
        bind_coeff(&mut runner, a);
    }
    Ok(runner)
}

/// Bind a `varcoef` coefficient grid to a runner: `a` as the `A` external
/// and its [`reciprocal_field`] as `Ainv`. Rebinding replaces both, so a
/// warm runner carries no previous request's grid.
pub fn bind_coeff(runner: &mut DslRunner, a: Vec<f64>) {
    runner.bind_extra("Ainv", reciprocal_field(&a));
    runner.bind_extra("A", a);
}

/// Elementwise reciprocal of a coefficient grid — the `Ainv` external the
/// variable-coefficient Jacobi update multiplies by (see
/// `cycles::Builder::split_smoother`). Derived deterministically from the
/// same grid everywhere (runner, warm server sessions, references), so
/// server and client references stay bitwise-comparable. `a ≡ 1` gives
/// `a⁻¹ ≡ 1` exactly.
pub fn reciprocal_field(a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| 1.0 / x).collect()
}

/// Why a scenario runner could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioRunnerError {
    /// The spec itself is invalid (mixed on an unsupported scenario, a
    /// missing/unexpected coefficient grid).
    Scenario(ScenarioError),
    /// The coefficient grid does not match the finest level's dense
    /// allocation length.
    CoeffSize { got: usize, want: usize },
    /// Pipeline compilation failed (validation errors).
    Compile(Vec<String>),
}

impl std::fmt::Display for ScenarioRunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioRunnerError::Scenario(e) => write!(f, "{e}"),
            ScenarioRunnerError::CoeffSize { got, want } => {
                write!(f, "coefficient grid has {got} values, expected {want}")
            }
            ScenarioRunnerError::Compile(errs) => write!(f, "compile failed: {errs:?}"),
        }
    }
}

/// The canonical smooth positive coefficient field used by benchmarks and
/// the load generator: `a(x) = 1 + 0.3·Π sin(2π x_d)` over the unit
/// domain, filled on the full dense buffer (ghost included — the operator
/// only reads the interior, but engines bind whole grids).
pub fn coeff_field(cfg: &MgConfig) -> Vec<f64> {
    let level = cfg.levels - 1;
    let n = cfg.n_at(level);
    let h = cfg.h_at(level);
    let e = (n + 2) as usize;
    let mut a = vec![1.0; cfg.alloc_len(level)];
    let s = |i: usize| (2.0 * std::f64::consts::PI * i as f64 * h).sin();
    match cfg.ndims {
        2 => {
            for y in 0..e {
                for x in 0..e {
                    a[y * e + x] = 1.0 + 0.3 * s(y) * s(x);
                }
            }
        }
        3 => {
            for z in 0..e {
                for y in 0..e {
                    for x in 0..e {
                        a[(z * e + y) * e + x] = 1.0 + 0.3 * s(z) * s(y) * s(x);
                    }
                }
            }
        }
        _ => panic!("unsupported rank"),
    }
    a
}

/// A coefficient grid of exact ones — scales every tap by `1.0`, which is
/// a bitwise no-op, so a varcoef solve with this grid must match the
/// constant-coefficient structural twin bit for bit.
pub fn ones_field(cfg: &MgConfig) -> Vec<f64> {
    vec![1.0; cfg.alloc_len(cfg.levels - 1)]
}

/// Discrete L2 norm of `f − a·(A v)` over the interior (the
/// variable-coefficient analogue of [`crate::solver::residual_norm`]).
pub fn residual_norm_varcoef(
    ndims: usize,
    n: i64,
    h: f64,
    v: &[f64],
    f: &[f64],
    a: &[f64],
) -> f64 {
    let e = (n + 2) as usize;
    let inv_h2 = 1.0 / (h * h);
    let mut sum = 0.0;
    match ndims {
        2 => {
            for y in 1..=n as usize {
                let s = y * e;
                for x in 1..=n as usize {
                    let av = (4.0 * v[s + x]
                        - v[s + x - 1]
                        - v[s + x + 1]
                        - v[s - e + x]
                        - v[s + e + x])
                        * inv_h2;
                    let r = f[s + x] - a[s + x] * av;
                    sum += r * r;
                }
            }
            (sum / (n as f64 * n as f64)).sqrt()
        }
        3 => {
            let pb = e * e;
            for z in 1..=n as usize {
                for y in 1..=n as usize {
                    let s = z * pb + y * e;
                    for x in 1..=n as usize {
                        let av = (6.0 * v[s + x]
                            - v[s + x - 1]
                            - v[s + x + 1]
                            - v[s - e + x]
                            - v[s + e + x]
                            - v[s - pb + x]
                            - v[s + pb + x])
                            * inv_h2;
                        let r = f[s + x] - a[s + x] * av;
                        sum += r * r;
                    }
                }
            }
            (sum / (n as f64).powi(3)).sqrt()
        }
        _ => panic!("unsupported rank"),
    }
}

/// DSL-native FMG prolongation: one compiled `Interp` pipeline per coarse
/// size, interpolating a full solution grid from interior size `nc` to
/// `2·nc + 1`. Replaces the hand-written scalar interpolation the FMG
/// driver used to carry — the same bilinear/trilinear parity cases now
/// flow through the compiler and the instrumented runtime like every
/// other stage.
pub struct DslProlong {
    engine: Engine,
    nc: i64,
    ndims: usize,
}

impl DslProlong {
    /// Build (or fetch from the plan cache) the prolongation pipeline for
    /// interior size `nc` at rank `ndims`.
    pub fn new(ndims: usize, nc: i64) -> Result<DslProlong, Vec<String>> {
        let nf = 2 * nc + 1;
        let mut p = Pipeline::new(&format!("fmg-prolong-{ndims}d"));
        let coarse = p.input("C", ndims, nc, 0);
        let fine = p.interp_fn("out", ndims, nf, 1, coarse);
        p.mark_output(fine);
        let opts = PipelineOptions::for_variant(polymg::Variant::OptPlus, ndims);
        let plan = polymg::compile_cached(&p, &ParamBindings::new(), opts)?;
        Ok(DslProlong {
            engine: Engine::new(plan),
            nc,
            ndims,
        })
    }

    /// Interior size of the fine output grid.
    pub fn fine_n(&self) -> i64 {
        2 * self.nc + 1
    }

    /// `fine ← P(coarse)`. Buffers are dense with ghost rings
    /// (`(nc+2)^d` / `(2nc+3)^d`).
    pub fn run(&mut self, coarse: &[f64], fine: &mut [f64]) -> Result<(), ExecError> {
        let ef = (self.fine_n() + 2) as usize;
        assert_eq!(fine.len(), ef.pow(self.ndims as u32));
        self.engine.run(&[("C", coarse)], vec![("out", fine)])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CycleType, SmoothSteps};
    use crate::solver::{run_cycles, setup_poisson, CycleRunner};
    use polymg::Variant;

    fn cfg2(n: i64) -> MgConfig {
        MgConfig::new(
            2,
            n,
            CycleType::V,
            SmoothSteps {
                pre: 4,
                coarse: 50,
                post: 4,
            },
        )
    }

    #[test]
    fn prolong_reproduces_bilinear_fields() {
        // interpolation is exact on (bi)linear fields — the invariant the
        // old scalar prolongation was pinned to
        let nc = 7i64;
        let ec = (nc + 2) as usize;
        let mut coarse = vec![0.0; ec * ec];
        for y in 0..ec {
            for x in 0..ec {
                coarse[y * ec + x] = 3.0 * y as f64 + x as f64;
            }
        }
        let nf = 15i64;
        let ef = (nf + 2) as usize;
        let mut fine = vec![0.0; ef * ef];
        let mut pro = DslProlong::new(2, nc).unwrap();
        pro.run(&coarse, &mut fine).unwrap();
        for y in 1..=nf as usize {
            for x in 1..=nf as usize {
                let want = 1.5 * y as f64 + 0.5 * x as f64;
                assert!(
                    (fine[y * ef + x] - want).abs() < 1e-12,
                    "({y},{x}): {} vs {want}",
                    fine[y * ef + x]
                );
            }
        }
    }

    #[test]
    fn prolong_3d_is_exact_on_trilinear_fields() {
        let nc = 7i64;
        let ec = (nc + 2) as usize;
        let mut coarse = vec![0.0; ec * ec * ec];
        for z in 0..ec {
            for y in 0..ec {
                for x in 0..ec {
                    coarse[(z * ec + y) * ec + x] =
                        2.0 * z as f64 + 3.0 * y as f64 + x as f64 + 1.0;
                }
            }
        }
        let nf = 15i64;
        let ef = (nf + 2) as usize;
        let mut fine = vec![0.0; ef * ef * ef];
        let mut pro = DslProlong::new(3, nc).unwrap();
        pro.run(&coarse, &mut fine).unwrap();
        for z in 1..=nf as usize {
            for y in 1..=nf as usize {
                for x in 1..=nf as usize {
                    let want = z as f64 + 1.5 * y as f64 + 0.5 * x as f64 + 1.0;
                    let got = fine[(z * ef + y) * ef + x];
                    assert!((got - want).abs() < 1e-12, "({z},{y},{x}): {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn varcoef_solve_converges() {
        let cfg = cfg2(63);
        let a = coeff_field(&cfg);
        let mut runner = scenario_runner(
            &cfg,
            ScenarioSpec::new(Scenario::VarCoef),
            PipelineOptions::for_variant(Variant::OptPlus, 2),
            "varcoef",
            Some(a.clone()),
        )
        .unwrap();
        let (mut v, f, _) = setup_poisson(&cfg);
        let n = cfg.n_at(cfg.levels - 1);
        let h = cfg.h_at(cfg.levels - 1);
        let r0 = residual_norm_varcoef(2, n, h, &v, &f, &a);
        for _ in 0..8 {
            runner.cycle(&mut v, &f);
        }
        let r = residual_norm_varcoef(2, n, h, &v, &f, &a);
        assert!(
            r < r0 * 1e-3,
            "variable-coefficient cycles stalled: {r0:.3e} -> {r:.3e}"
        );
    }

    #[test]
    fn scenario_runner_validates_specs() {
        let cfg = cfg2(31);
        let opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        // varcoef without a grid
        let e = scenario_runner(
            &cfg,
            ScenarioSpec::new(Scenario::VarCoef),
            opts.clone(),
            "x",
            None,
        )
        .err()
        .expect("spec should be rejected");
        assert!(matches!(e, ScenarioRunnerError::Scenario(_)));
        // mis-sized grid
        let e = scenario_runner(
            &cfg,
            ScenarioSpec::new(Scenario::VarCoef),
            opts.clone(),
            "x",
            Some(vec![1.0; 7]),
        )
        .err()
        .expect("spec should be rejected");
        assert!(matches!(e, ScenarioRunnerError::CoeffSize { got: 7, .. }));
        // mixed on a multi-case smoother
        let e = scenario_runner(
            &cfg,
            ScenarioSpec {
                scenario: Scenario::Rbgs,
                mixed: true,
            },
            opts,
            "x",
            None,
        )
        .err()
        .expect("spec should be rejected");
        assert!(e.to_string().contains("mixed-precision"));
    }

    #[test]
    fn rbgs_and_chebyshev_scenarios_converge() {
        for sc in [Scenario::Rbgs, Scenario::Chebyshev] {
            let cfg = cfg2(63);
            let mut runner = scenario_runner(
                &cfg,
                ScenarioSpec::new(sc),
                PipelineOptions::for_variant(Variant::OptPlus, 2),
                sc.label(),
                None,
            )
            .unwrap();
            let (mut v, f, _) = setup_poisson(&cfg);
            let r = run_cycles(&mut runner, &cfg, &mut v, &f, 6);
            assert!(
                r.res_final() < r.res0 * 1e-3,
                "{}: residual {:.3e} -> {:.3e}",
                sc.label(),
                r.res0,
                r.res_final()
            );
        }
    }

    #[test]
    fn spec_labels() {
        assert_eq!(ScenarioSpec::new(Scenario::VarCoef).label(), "varcoef");
        assert_eq!(
            ScenarioSpec {
                scenario: Scenario::Constant,
                mixed: true
            }
            .label(),
            "constant+mp"
        );
    }
}
