//! Full Multigrid (FMG / nested iteration) — the HPGMG-style driver the
//! paper names as a future integration target ("we also plan to integrate
//! our approach into open community-driven efforts such as HPGMG").
//!
//! FMG solves the problem once, to discretisation accuracy, in O(N) work:
//! start on the coarsest grid, solve there, interpolate the solution up one
//! level, run a few V-cycles, and repeat to the finest level. Each level's
//! cycles run through any [`CycleRunner`] — so the FMG driver composes with
//! every implementation in this repo (DSL variants, handopt, GSRB, …) —
//! and the level-to-level prolongation is itself a compiled DSL `Interp`
//! pipeline ([`crate::scenario::DslProlong`]), not a hand-written scalar
//! loop.

use crate::config::MgConfig;
use crate::scenario::DslProlong;
use crate::solver::{max_abs_diff, residual_norm, setup_poisson, CycleRunner};

/// The result of an FMG solve.
#[derive(Clone, Debug)]
pub struct FmgResult {
    /// Residual norm on the finest grid after the final level's cycles.
    pub final_residual: f64,
    /// Residual norm of the zero guess on the finest grid (for reduction
    /// reporting).
    pub initial_residual: f64,
    /// Max-norm error against the manufactured solution.
    pub max_error: f64,
}

/// Run FMG for the manufactured Poisson problem described by `finest_cfg`:
/// at every grid size from the coarsest FMG level up to `finest_cfg.n`, a
/// solver is built via `make_runner(cfg_for_that_size)` and `cycles_per_level`
/// cycles are run, with the previous level's solution prolonged as the
/// initial guess.
///
/// `coarsest_n` is the interior size FMG starts from (e.g. 7).
pub fn fmg_solve(
    finest_cfg: &MgConfig,
    coarsest_n: i64,
    cycles_per_level: usize,
    mut make_runner: impl FnMut(&MgConfig) -> Box<dyn CycleRunner>,
) -> FmgResult {
    assert!(((coarsest_n + 1) as u64).is_power_of_two());
    assert!(coarsest_n <= finest_cfg.n);

    // list of FMG grid sizes, coarse → fine
    let mut sizes = vec![coarsest_n];
    while *sizes.last().unwrap() < finest_cfg.n {
        let next = (sizes.last().unwrap() + 1) * 2 - 1;
        sizes.push(next);
    }
    assert_eq!(*sizes.last().unwrap(), finest_cfg.n, "size ladder mismatch");

    let mut solution: Vec<f64> = Vec::new();
    for (li, &nl) in sizes.iter().enumerate() {
        // per-level configuration: same cycle shape, levels shrunk so the
        // coarsest internal level stays solvable
        let mut cfg = finest_cfg.clone();
        cfg.n = nl;
        let max_levels = ((nl + 1) as u64).trailing_zeros().saturating_sub(1).max(1);
        cfg.levels = finest_cfg.levels.min(max_levels);

        let (v0, f, _) = setup_poisson(&cfg);
        let mut v = if li == 0 {
            v0
        } else {
            // DSL prolongation of the previous level's solution (plan-cached
            // per coarse size, so repeated FMG solves compile once)
            let mut fine = vec![0.0; cfg.alloc_len(cfg.levels - 1)];
            let mut pro = DslProlong::new(cfg.ndims, sizes[li - 1])
                .expect("prolongation pipeline failed to compile");
            pro.run(&solution, &mut fine)
                .expect("prolongation execution failed");
            fine
        };
        let mut runner = make_runner(&cfg);
        for _ in 0..cycles_per_level {
            runner.cycle(&mut v, &f);
        }
        solution = v;
    }

    // final metrics on the finest level
    let cfg = finest_cfg;
    let (_, f, exact) = setup_poisson(cfg);
    let n = cfg.n_at(cfg.levels - 1);
    let h = cfg.h_at(cfg.levels - 1);
    let zero = vec![0.0; cfg.alloc_len(cfg.levels - 1)];
    FmgResult {
        final_residual: residual_norm(cfg.ndims, n, h, &solution, &f),
        initial_residual: residual_norm(cfg.ndims, n, h, &zero, &f),
        max_error: max_abs_diff(&solution, &exact),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CycleType, SmoothSteps};
    use crate::handopt::HandOpt;
    use polymg::{PipelineOptions, Variant};

    fn cfg(n: i64) -> MgConfig {
        let mut c = MgConfig::new(
            2,
            n,
            CycleType::V,
            SmoothSteps {
                pre: 3,
                coarse: 60,
                post: 3,
            },
        );
        c.levels = 6;
        c
    }

    /// A runner whose every cycle poisons the grid with NaN.
    struct Poison;

    impl CycleRunner for Poison {
        fn cycle(&mut self, v: &mut [f64], _f: &[f64]) {
            v.fill(f64::NAN);
        }

        fn label(&self) -> String {
            "poison".to_string()
        }
    }

    #[test]
    fn nan_poisoned_solution_reports_nan_error() {
        let r = fmg_solve(&cfg(31), 7, 1, |_| Box::new(Poison));
        assert!(r.max_error.is_nan(), "max_error {}", r.max_error);
    }

    #[test]
    fn fmg_reaches_discretisation_accuracy_with_one_cycle_per_level() {
        let finest = cfg(127);
        let r = fmg_solve(&finest, 7, 1, |c| Box::new(HandOpt::new(c.clone(), 0)));
        // FMG with a single V-cycle per level lands near discretisation
        // error: O(h²) with h = 1/128 → ~6e-5·C
        assert!(r.max_error < 5e-4, "FMG error too large: {}", r.max_error);
        assert!(r.final_residual < r.initial_residual * 1e-2);
    }

    #[test]
    fn fmg_beats_same_budget_of_plain_cycles() {
        // One V-cycle per level of FMG vs one V-cycle from a zero guess on
        // the finest level only: FMG must end with a (much) smaller error.
        let finest = cfg(127);
        let fmg = fmg_solve(&finest, 7, 1, |c| Box::new(HandOpt::new(c.clone(), 0)));

        let (mut v, f, exact) = setup_poisson(&finest);
        let mut plain = HandOpt::new(finest.clone(), 0);
        plain.cycle(&mut v, &f);
        let plain_err = max_abs_diff(&v, &exact);
        assert!(
            fmg.max_error < plain_err * 0.5,
            "FMG {} vs plain {}",
            fmg.max_error,
            plain_err
        );
    }

    #[test]
    fn fmg_works_with_dsl_runners() {
        let finest = cfg(63);
        let r = fmg_solve(&finest, 7, 2, |c| {
            let opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
            Box::new(crate::solver::DslRunner::new(c, opts, "polymg-opt+").expect("compile failed"))
        });
        assert!(r.max_error < 5e-3, "{}", r.max_error);
    }

    #[test]
    fn fmg_3d() {
        let mut finest = MgConfig::new(
            3,
            31,
            CycleType::V,
            SmoothSteps {
                pre: 3,
                coarse: 60,
                post: 3,
            },
        );
        finest.levels = 4;
        let r = fmg_solve(&finest, 7, 1, |c| Box::new(HandOpt::new(c.clone(), 0)));
        assert!(r.max_error < 6e-3, "{}", r.max_error);
    }
}
