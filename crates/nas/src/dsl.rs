//! The PolyMG program for one NAS MG iteration (`resid` + `mg3P`), built
//! with the DSL constructs and compiled/executed through the optimizing
//! stack — the `polymg-*` side of Figure 10e.

use crate::{class_weights, A_COEFF, C_COEFF, R_COEFF};
use gmg_ir::expr::{Access, AxisAccess, Expr, Operand};
use gmg_ir::stencil::stencil_3d;
use gmg_ir::{FuncId, ParamBindings, Pipeline};
use gmg_multigrid::solver::CycleRunner;
use gmg_runtime::Engine;
use polymg::PipelineOptions;

/// `A u` as a 27-point class stencil expression.
fn apply_a(u: Operand) -> Expr {
    stencil_3d(u, &class_weights(&A_COEFF), 1.0)
}

/// `C r` (the psinv smoother stencil).
fn apply_c(r: Operand) -> Expr {
    stencil_3d(r, &class_weights(&C_COEFF), 1.0)
}

/// The NPB `rprj3` as a `Restrict` expression: 27 downsampled reads with
/// class coefficients.
fn rprj3_expr(fine: Operand) -> Expr {
    let mut acc: Option<Expr> = None;
    for dz in -1i64..=1 {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let cls = (dz != 0) as usize + (dy != 0) as usize + (dx != 0) as usize;
                let read = fine.read(Access(vec![
                    AxisAccess::down(dz),
                    AxisAccess::down(dy),
                    AxisAccess::down(dx),
                ]));
                let term = if R_COEFF[cls] == 1.0 {
                    read
                } else {
                    R_COEFF[cls] * read
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => a + term,
                });
            }
        }
    }
    acc.unwrap()
}

/// Build the pipeline for one NAS MG iteration on a finest interior size
/// `n = 2^k − 1` with `nlevels` levels. Inputs: `U` (approximation), `V`
/// (RHS). Output: `u_out`.
pub fn build_nas_pipeline(n: i64, nlevels: u32) -> Pipeline {
    assert!(((n + 1) as u64).is_power_of_two());
    let n_at = |l: u32| ((n + 1) >> (nlevels - 1 - l)) - 1;
    let mut p = Pipeline::new("NAS-MG");
    let fin = nlevels - 1;
    let u = p.input("U", 3, n, fin);
    let v = p.input("V", 3, n, fin);
    let z3 = vec![0i64; 3];

    // r = v − A u at the finest level
    let mut r: Vec<Option<FuncId>> = vec![None; nlevels as usize];
    let rf = p.function(
        "resid_fine",
        3,
        n,
        fin,
        Operand::Func(v).at(&z3) - apply_a(Operand::Func(u)),
    );
    r[fin as usize] = Some(rf);

    // down: restrict residuals
    for k in (0..fin).rev() {
        let fine_r = r[(k + 1) as usize].unwrap();
        let rk = p.restrict_fn(
            &format!("rprj3_L{k}"),
            3,
            n_at(k),
            k,
            rprj3_expr(Operand::Func(fine_r)),
        );
        r[k as usize] = Some(rk);
    }

    // coarsest: z = C r (zero initial guess)
    let mut z = p.function(
        "psinv_L0",
        3,
        n_at(0),
        0,
        apply_c(Operand::Func(r[0].unwrap())),
    );

    // up
    for k in 1..=fin {
        let nk = n_at(k);
        let zi = p.interp_fn(&format!("interp_L{k}"), 3, nk, k, z);
        if k < fin {
            // r' = r_k − A z_i ; z_k = z_i + C r'
            let rp = p.function(
                &format!("resid_L{k}"),
                3,
                nk,
                k,
                Operand::Func(r[k as usize].unwrap()).at(&z3) - apply_a(Operand::Func(zi)),
            );
            z = p.function(
                &format!("psinv_L{k}"),
                3,
                nk,
                k,
                Operand::Func(zi).at(&z3) + apply_c(Operand::Func(rp)),
            );
        } else {
            // finest: u' = u + Q z ; r' = v − A u' ; u'' = u' + C r'
            let u1 = p.function(
                "correct_fine",
                3,
                nk,
                k,
                Operand::Func(u).at(&z3) + Operand::Func(zi).at(&z3),
            );
            let rp = p.function(
                "resid_fine2",
                3,
                nk,
                k,
                Operand::Func(v).at(&z3) - apply_a(Operand::Func(u1)),
            );
            z = p.function(
                "u_out",
                3,
                nk,
                k,
                Operand::Func(u1).at(&z3) + apply_c(Operand::Func(rp)),
            );
        }
    }
    p.mark_output(z);
    p
}

/// DSL-compiled NAS runner implementing [`CycleRunner`] (one "cycle" = one
/// NAS iteration).
pub struct NasDsl {
    engine: Engine,
    out: Vec<f64>,
    label: String,
}

impl NasDsl {
    /// Compile for finest size `n`, `nlevels` levels, under `opts`.
    pub fn new(
        n: i64,
        nlevels: u32,
        opts: PipelineOptions,
        label: &str,
    ) -> Result<Self, Vec<String>> {
        let p = build_nas_pipeline(n, nlevels);
        let plan = polymg::compile_cached(&p, &ParamBindings::new(), opts)?;
        let len = ((n + 2) as usize).pow(3);
        Ok(NasDsl {
            engine: Engine::new(plan),
            out: vec![0.0; len],
            label: label.to_string(),
        })
    }

    /// Plan access (stage counts for Table 3).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl CycleRunner for NasDsl {
    fn cycle(&mut self, u: &mut [f64], v: &[f64]) {
        self.engine
            .run(&[("U", u), ("V", v)], vec![("u_out", &mut self.out)])
            .expect("NAS cycle execution failed");
        u.copy_from_slice(&self.out);
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init_charges;
    use crate::reference::NasReference;
    use gmg_ir::StageGraph;
    use polymg::Variant;

    #[test]
    fn pipeline_builds_and_validates() {
        let p = build_nas_pipeline(31, 4);
        let g = StageGraph::build(&p, &ParamBindings::new());
        let errs = gmg_ir::validate::validate(&p, &g);
        assert!(errs.is_empty(), "{errs:?}");
        // resid_fine + 3 rprj3 + psinv_L0 + 2×(interp,resid,psinv) +
        // (interp, correct, resid, u_out) = 15
        assert_eq!(g.num_compute_stages(), 15);
    }

    #[test]
    fn dsl_matches_reference() {
        let n = 15i64;
        let e = (n + 2) as usize;
        let mut v = vec![0.0; e * e * e];
        init_charges(&mut v, n, 8, 11);

        let mut nref = NasReference::new(n, 3, 0);
        nref.set_v(&v);

        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 3);
        opts.tile_sizes = vec![4, 4, 8];
        let mut dsl = NasDsl::new(n, 3, opts, "polymg-opt+").unwrap();
        let mut u = vec![0.0; e * e * e];

        for it in 0..3 {
            nref.iteration();
            dsl.cycle(&mut u, &v);
            let mut max = 0.0f64;
            for (a, b) in u.iter().zip(nref.u()) {
                max = max.max((a - b).abs());
            }
            assert!(max < 1e-11, "iter {it}: deviation {max}");
        }
    }

    #[test]
    fn dsl_converges_across_variants() {
        let n = 15i64;
        let e = (n + 2) as usize;
        let mut v = vec![0.0; e * e * e];
        init_charges(&mut v, n, 8, 13);
        for variant in [Variant::Naive, Variant::Opt, Variant::OptPlus] {
            let mut opts = PipelineOptions::for_variant(variant, 3);
            opts.tile_sizes = vec![4, 4, 8];
            let mut dsl = NasDsl::new(n, 3, opts, variant.label()).unwrap();
            let mut u = vec![0.0; e * e * e];
            for _ in 0..4 {
                dsl.cycle(&mut u, &v);
            }
            // residual via the reference operator
            let mut nref = NasReference::new(n, 3, 0);
            nref.set_v(&v);
            nref.set_u(&u);
            let r = nref.rnm2();
            // initial residual = |v| on 2·8 unit charges
            let r0 = (16.0 / (n as f64).powi(3)).sqrt();
            assert!(r < r0 * 0.05, "{}: {r} vs {r0}", variant.label());
        }
    }
}
