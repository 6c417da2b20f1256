//! Kernel lowering: stage definitions → executable kernel descriptions.
//!
//! Each parity case of a stage is linearised (see [`gmg_ir::linear`]) into a
//! flat tap list. Taps reading [`gmg_ir::StageInput::Zero`] slots are folded
//! away here (their value is identically the zero boundary), which is what
//! lets the recursive error cycles start from an implicit zero guess with no
//! storage and no wasted arithmetic. Cases that do not linearise are kept as
//! expressions for the runtime's reference interpreter.

use crate::plan::{KernelBody, KernelCase, StageKernel};
use gmg_ir::{linearize_with_coeffs, Stage, StageGraph, StageInput, StageKind};

/// Lower every compute stage of the graph. Entry `i` is `None` for inputs.
///
/// Linear taps are sorted by coefficient. Every row kernel sums a point's
/// taps in that order, so the sort fixes the accumulation order, and with
/// it the rounding, that every variant and tier reproduces bitwise.
pub fn lower_all(graph: &StageGraph) -> Vec<Option<StageKernel>> {
    graph
        .stages
        .iter()
        .map(|s| match s.kind {
            StageKind::Input => None,
            StageKind::Compute => Some(lower_stage(s)),
        })
        .collect()
}

/// Lower one stage.
pub fn lower_stage(stage: &Stage) -> StageKernel {
    let cases = stage
        .cases
        .iter()
        .map(|(pat, expr)| {
            let body = match linearize_with_coeffs(expr, &stage.coeff_slots) {
                Some(mut form) => {
                    // fold away taps whose slot is the implicit zero grid;
                    // a zero coefficient factor likewise zeroes the tap
                    form.taps.retain(|t| {
                        matches!(stage.inputs[t.slot], StageInput::Stage(_))
                            && t.cfactor.as_ref().is_none_or(|c| {
                                matches!(stage.inputs[c.slot], StageInput::Stage(_))
                            })
                    });
                    // the fixed accumulation order; the stable sort keeps
                    // same-coefficient taps in deterministic (access) order
                    form.taps.sort_by(|a, b| a.coeff.total_cmp(&b.coeff));
                    KernelBody::Linear(form)
                }
                None => KernelBody::Interpreted(expr.clone()),
            };
            KernelCase {
                pattern: pat.clone(),
                body,
            }
        })
        .collect();
    StageKernel { cases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelBody;
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::stencil_2d;
    use gmg_ir::{ParamBindings, Pipeline, StepCount};

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    #[test]
    fn jacobi_lowers_to_linear() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 15, 1);
        let f = p.input("F", 2, 15, 1);
        let sm = p.tstencil(
            "sm",
            2,
            15,
            1,
            StepCount::Fixed(1),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        p.mark_output(sm);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let kernels = lower_all(&g);
        assert!(kernels[0].is_none() && kernels[1].is_none());
        let k = kernels[2].as_ref().unwrap();
        assert_eq!(k.cases.len(), 1);
        match &k.cases[0].body {
            KernelBody::Linear(form) => {
                assert_eq!(form.taps.len(), 6); // 5-pt + f
                assert_eq!(form.bias, 0.0);
            }
            _ => panic!("expected linear kernel"),
        }
    }

    #[test]
    fn zero_state_taps_folded() {
        let mut p = Pipeline::new("t");
        let f = p.input("F", 2, 15, 1);
        // step 0 of a zero-state smoother: state taps vanish, only the f tap
        // remains.
        let sm = p.tstencil(
            "sm",
            2,
            15,
            1,
            StepCount::Fixed(1),
            None,
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        p.mark_output(sm);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let kernels = lower_all(&g);
        let k = kernels[1].as_ref().unwrap();
        match &k.cases[0].body {
            KernelBody::Linear(form) => {
                assert_eq!(form.taps.len(), 1, "only the f tap should survive");
                assert!((form.taps[0].coeff - 0.8).abs() < 1e-12);
            }
            _ => panic!("expected linear kernel"),
        }
    }

    #[test]
    fn nonlinear_falls_back_to_interpreter() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 7, 0);
        let sq = p.function(
            "sq",
            2,
            7,
            0,
            Operand::Func(v).at(&[0, 0]) * Operand::Func(v).at(&[0, 0]),
        );
        p.mark_output(sq);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let kernels = lower_all(&g);
        let k = kernels[1].as_ref().unwrap();
        assert!(matches!(k.cases[0].body, KernelBody::Interpreted(_)));
    }

    #[test]
    fn interp_lowers_per_case() {
        let mut p = Pipeline::new("t");
        let c = p.input("C", 2, 7, 0);
        let e = p.interp_fn("e", 2, 15, 1, c);
        p.mark_output(e);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let kernels = lower_all(&g);
        let k = kernels[1].as_ref().unwrap();
        assert_eq!(k.cases.len(), 4);
        for case in &k.cases {
            match &case.body {
                KernelBody::Linear(form) => {
                    assert!((form.coeff_sum() - 1.0).abs() < 1e-12);
                }
                _ => panic!("interp cases must be linear"),
            }
        }
    }
}
