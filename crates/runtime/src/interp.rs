//! Reference interpreter — the correctness oracle.
//!
//! Executes an unrolled stage graph with the most naive strategy possible:
//! one dense full array per stage, stages in topological order, every point
//! evaluated by walking the expression tree. No tiling, no reuse, no
//! parallelism. Every optimizer variant must reproduce these values to
//! floating-point round-off (verified in the integration suite).

use gmg_ir::{Operand, StageGraph, StageInput, StageKind};
use gmg_poly::BoxDomain;
use std::collections::HashMap;

/// All stage values after a reference run, keyed by stage name. Buffers are
/// dense `(n+2)^d` with the ghost ring holding the boundary value.
pub type ReferenceValues = HashMap<String, Vec<f64>>;

/// Run the graph. `inputs` binds input-stage names to caller buffers (dense,
/// ghost included, sized `(n+2)^d`).
///
/// # Panics
/// Panics on missing/mis-sized inputs or unresolved operands.
pub fn run_reference(graph: &StageGraph, inputs: &[(&str, &[f64])]) -> ReferenceValues {
    let mut values: Vec<Vec<f64>> = Vec::with_capacity(graph.stages.len());

    for stage in &graph.stages {
        let extents: Vec<i64> = stage.domain.extents().map(|e| e + 2).collect();
        let total: i64 = extents.iter().product();
        let buf = match stage.kind {
            StageKind::Input => {
                let (_, data) = inputs
                    .iter()
                    .find(|(n, _)| *n == stage.name)
                    .unwrap_or_else(|| panic!("missing input '{}'", stage.name));
                assert_eq!(
                    data.len(),
                    total as usize,
                    "input '{}' has wrong size",
                    stage.name
                );
                data.to_vec()
            }
            StageKind::Compute => {
                let mut out = vec![stage.boundary.value(); total as usize];
                compute_stage(graph, stage, &values, &extents, &mut out);
                out
            }
        };
        values.push(buf);
    }

    graph
        .stages
        .iter()
        .zip(values)
        .map(|(s, v)| (s.name.clone(), v))
        .collect()
}

fn compute_stage(
    graph: &StageGraph,
    stage: &gmg_ir::Stage,
    values: &[Vec<f64>],
    extents: &[i64],
    out: &mut [f64],
) {
    let nd = stage.domain.ndims();
    let read = |slot: usize, idx: &[i64]| -> f64 {
        match stage.inputs[slot] {
            StageInput::Zero => 0.0,
            StageInput::Stage(p) => {
                let prod = graph.stage(p);
                let pext: Vec<i64> = prod.domain.extents().map(|e| e + 2).collect();
                // ghost ring is index 0 and n+1; anything outside is a
                // validation failure upstream
                let mut flat = 0i64;
                for (d, &x) in idx.iter().enumerate() {
                    assert!(
                        x >= 0 && x < pext[d],
                        "read of '{}' out of bounds at {idx:?}",
                        prod.name
                    );
                    flat = flat * pext[d] + x;
                }
                values[p.0][flat as usize]
            }
        }
    };

    let mut point = vec![0i64; nd];
    iterate(&stage.domain, nd, &mut point, 0, &mut |p| {
        let (_, expr) = stage
            .cases
            .iter()
            .find(|(pat, _)| pat.matches(p))
            .unwrap_or_else(|| panic!("no case covers {p:?} in '{}'", stage.name));
        let v = expr.eval_at(p, &mut |op, idx| {
            let Operand::Slot(k) = op else {
                panic!("unresolved operand in '{}'", stage.name)
            };
            read(*k, idx)
        });
        let mut flat = 0i64;
        for (d, &x) in p.iter().enumerate() {
            flat = flat * extents[d] + x;
        }
        out[flat as usize] = v;
    });
}

fn iterate(
    domain: &BoxDomain,
    nd: usize,
    point: &mut Vec<i64>,
    d: usize,
    f: &mut impl FnMut(&[i64]),
) {
    if d == nd {
        f(point);
        return;
    }
    for v in domain.0[d].lo..=domain.0[d].hi {
        point[d] = v;
        iterate(domain, nd, point, d + 1, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_ir::expr::Operand as Op;
    use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d};
    use gmg_ir::{ParamBindings, Pipeline, StepCount};

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    #[test]
    fn jacobi_step_matches_manual() {
        let n = 7i64;
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, n, 0);
        let f = p.input("F", 2, n, 0);
        let w = 0.8 / 4.0;
        let sm = p.tstencil(
            "sm",
            2,
            n,
            0,
            StepCount::Fixed(1),
            Some(v),
            Op::State.at(&[0, 0])
                - w * (stencil_2d(Op::State, &five(), 1.0) - Op::Func(f).at(&[0, 0])),
        );
        p.mark_output(sm);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let e = (n + 2) as usize;
        let mut vin = vec![0.0; e * e];
        let mut fin = vec![0.0; e * e];
        for (i, x) in vin.iter_mut().enumerate() {
            *x = ((i * 13) % 7) as f64;
        }
        for (i, x) in fin.iter_mut().enumerate() {
            *x = ((i * 5) % 3) as f64;
        }
        let vals = run_reference(&g, &[("V", &vin), ("F", &fin)]);
        let out = &vals["sm.s0"];
        // check an interior point by hand
        let at = |b: &[f64], y: usize, x: usize| b[y * e + x];
        let (y, x) = (3usize, 4usize);
        let lap = 4.0 * at(&vin, y, x)
            - at(&vin, y, x + 1)
            - at(&vin, y, x - 1)
            - at(&vin, y + 1, x)
            - at(&vin, y - 1, x);
        let want = at(&vin, y, x) - w * (lap - at(&fin, y, x));
        assert!((at(out, y, x) - want).abs() < 1e-13);
        // ghost of output holds the boundary value
        assert_eq!(at(out, 0, 0), 0.0);
    }

    #[test]
    fn restrict_interp_roundtrip_on_smooth_field() {
        // restricting then interpolating a bilinear field reproduces it
        let nf = 15i64;
        let nc = 7i64;
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, nf, 1);
        let r = p.restrict_fn("r", 2, nc, 0, restrict_full_weighting_2d(Op::Func(v)));
        let e = p.interp_fn("e", 2, nf, 1, r);
        p.mark_output(e);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let ef = (nf + 2) as usize;
        let mut vin = vec![0.0; ef * ef];
        // f(y,x) = y + 2x vanishing on the boundary? It doesn't, but full
        // weighting of a *linear* field is exact away from the boundary.
        for y in 0..ef {
            for x in 0..ef {
                vin[y * ef + x] = y as f64 + 2.0 * x as f64;
            }
        }
        let vals = run_reference(&g, &[("V", &vin)]);
        let out = &vals["e"];
        // interior away from boundary: value reproduced
        for y in 3..=(nf - 3) as usize {
            for x in 3..=(nf - 3) as usize {
                let got = out[y * ef + x];
                let want = y as f64 + 2.0 * x as f64;
                assert!((got - want).abs() < 1e-12, "({y},{x}): {got} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn missing_input_panics() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 7, 0);
        let a = p.function("a", 2, 7, 0, Op::Func(v).at(&[0, 0]));
        p.mark_output(a);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let _ = run_reference(&g, &[]);
    }

    #[test]
    fn zero_state_reads_zero() {
        let mut p = Pipeline::new("t");
        let f = p.input("F", 2, 7, 0);
        let sm = p.tstencil(
            "sm",
            2,
            7,
            0,
            StepCount::Fixed(1),
            None,
            Op::State.at(&[0, 0]) + Op::Func(f).at(&[0, 0]),
        );
        p.mark_output(sm);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let e = 9usize;
        let fin = vec![2.0; e * e];
        let vals = run_reference(&g, &[("F", &fin)]);
        assert_eq!(vals["sm.s0"][4 * e + 4], 2.0);
    }
}
