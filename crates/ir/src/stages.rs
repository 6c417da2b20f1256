//! The unrolled stage graph — the compiler-facing view of a pipeline.
//!
//! `TStencil` functions are expanded into one stage per smoothing step (this
//! is what lets the optimizer tile *across* smoothing iterations, §3.1);
//! every read is resolved to a stage-local input slot, and per-slot
//! dependence footprints are extracted for the polyhedral machinery.
//! Stages are emitted in topological order by construction.

use crate::expr::{Expr, Operand};
use crate::func::{BoundaryCond, FuncId, FuncKind, ParamId, ParityPattern, StepCount};
use crate::pipeline::{ParamBindings, Pipeline};
use gmg_poly::{Axes, AxisFootprint, BoxDomain, Footprint};
use std::collections::HashMap;

/// Identifier of a stage within a [`StageGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub usize);

/// Whether a stage is an external input or computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    Input,
    Compute,
}

/// What an input slot of a stage is wired to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageInput {
    /// Another stage's output.
    Stage(StageId),
    /// An implicit all-zero grid (zero-state `TStencil`s with no initial
    /// guess). Reads resolve to 0.0 without any storage.
    Zero,
}

/// One node of the unrolled DAG.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Display name, `<func>.s<step>` for unrolled `TStencil` steps.
    pub name: String,
    /// Originating pipeline function.
    pub func: FuncId,
    /// Step index within the originating `TStencil` (0 otherwise).
    pub step: usize,
    pub kind: StageKind,
    /// Interior iteration domain.
    pub domain: BoxDomain,
    /// Multigrid level tag (0 = coarsest).
    pub level: u32,
    /// Size parameter identity for storage classification.
    pub size_param: Option<ParamId>,
    /// Ghost-ring boundary condition.
    pub boundary: BoundaryCond,
    /// Input slots, in first-read order.
    pub inputs: Vec<StageInput>,
    /// Merged dependence footprint per slot (pointwise for `Zero` slots).
    pub footprints: Vec<Footprint>,
    /// Piecewise definition with reads rewritten to [`Operand::Slot`].
    /// Empty for inputs.
    pub cases: Vec<(ParityPattern, Expr)>,
    /// Parallel to `inputs`: true when the slot is wired to a coefficient
    /// input grid (`FuncData::coeff`) — those reads may appear as tap
    /// `cfactor`s after linearisation.
    pub coeff_slots: Vec<bool>,
    /// True when this stage's value is a pipeline output.
    pub is_output: bool,
}

impl Stage {
    /// Stencil radius hull across all slots with unit scaling (used by
    /// diamond-tiling eligibility checks).
    pub fn max_unit_radius(&self) -> i64 {
        self.footprints
            .iter()
            .flat_map(|fp| fp.0.iter())
            .filter(|a| a.num == 1 && a.den == 1)
            .map(|a| a.off_min.abs().max(a.off_max.abs()))
            .max()
            .unwrap_or(0)
    }
}

/// The unrolled, slot-resolved DAG of a pipeline.
#[derive(Clone, Debug)]
pub struct StageGraph {
    pub pipeline_name: String,
    pub stages: Vec<Stage>,
}

impl StageGraph {
    /// Unroll `pipeline` with the given parameter bindings.
    ///
    /// # Panics
    /// Panics when a `TStencil` step-count parameter is unbound or negative.
    pub fn build(pipeline: &Pipeline, bindings: &ParamBindings) -> StageGraph {
        let mut stages: Vec<Stage> = Vec::new();
        // final stage of each function; None = the function's value is the
        // implicit zero grid (a zero-step TStencil with no state)
        let mut final_stage: HashMap<FuncId, Option<StageId>> = HashMap::new();

        for (fid, data) in pipeline.iter_funcs() {
            match data.kind {
                FuncKind::Input => {
                    let sid = StageId(stages.len());
                    stages.push(Stage {
                        name: data.name.clone(),
                        func: fid,
                        step: 0,
                        kind: StageKind::Input,
                        domain: data.domain,
                        level: data.level,
                        size_param: data.size_param,
                        boundary: data.boundary,
                        inputs: Vec::new(),
                        footprints: Vec::new(),
                        cases: Vec::new(),
                        coeff_slots: Vec::new(),
                        is_output: false,
                    });
                    final_stage.insert(fid, Some(sid));
                }
                FuncKind::TStencil => {
                    let steps = match data.steps.expect("TStencil without step count") {
                        StepCount::Fixed(k) => k,
                        StepCount::Param(p) => {
                            let v = bindings.get(p).unwrap_or_else(|| {
                                panic!(
                                    "step-count parameter '{}' unbound for '{}'",
                                    pipeline.param_name(p),
                                    data.name
                                )
                            });
                            assert!(v >= 0, "negative step count for '{}'", data.name);
                            v as usize
                        }
                    };
                    let state0: Option<StageId> = match data.state {
                        Some(s) => *final_stage
                            .get(&s)
                            .expect("state function must precede TStencil"),
                        None => None,
                    };
                    let mut prev = state0;
                    for step in 0..steps {
                        let sid = StageId(stages.len());
                        let stage = resolve_stage(
                            pipeline,
                            fid,
                            data,
                            step,
                            format!("{}.s{}", data.name, step),
                            prev,
                            &final_stage,
                        );
                        stages.push(stage);
                        prev = Some(sid);
                    }
                    // zero steps: the TStencil's value is its state (or zero)
                    final_stage.insert(fid, prev);
                }
                FuncKind::Function | FuncKind::Restrict | FuncKind::Interp => {
                    let sid = StageId(stages.len());
                    let stage = resolve_stage(
                        pipeline,
                        fid,
                        data,
                        0,
                        data.name.clone(),
                        None,
                        &final_stage,
                    );
                    stages.push(stage);
                    final_stage.insert(fid, Some(sid));
                }
            }
        }

        // mark outputs
        for out in pipeline.outputs() {
            match final_stage.get(out) {
                Some(Some(sid)) => stages[sid.0].is_output = true,
                _ => panic!("pipeline output resolves to the zero grid"),
            }
        }

        StageGraph {
            pipeline_name: pipeline.name().to_string(),
            stages,
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when there are no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of compute stages — the paper's "Stages (# DAG nodes)"
    /// metric of Table 3.
    pub fn num_compute_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.kind == StageKind::Compute)
            .count()
    }

    /// Stage by id.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0]
    }

    /// Producer→consumer edges as stage pairs, one per input slot that
    /// reads a stage, in consumer then slot order. An edge's footprint is
    /// the consumer's `footprints[slot]`.
    pub fn edge_ends(&self) -> impl Iterator<Item = (StageId, StageId)> + '_ {
        self.stages.iter().enumerate().flat_map(|(ci, s)| {
            s.inputs.iter().filter_map(move |inp| match inp {
                StageInput::Stage(p) => Some((*p, StageId(ci))),
                _ => None,
            })
        })
    }

    /// Consumer stage ids of each stage (indexed by producer), one entry
    /// per edge in [`Self::edge_ends`] order.
    pub fn consumers(&self) -> Vec<Vec<StageId>> {
        let mut out = vec![Vec::new(); self.stages.len()];
        for (p, c) in self.edge_ends() {
            out[p.0].push(c);
        }
        out
    }

    /// Ids of stages with no consumers that are not outputs — dead stages
    /// (useful as a sanity diagnostic on hand-built pipelines).
    pub fn dead_stages(&self) -> Vec<StageId> {
        let cons = self.consumers();
        self.stages
            .iter()
            .enumerate()
            .filter(|(i, s)| s.kind == StageKind::Compute && !s.is_output && cons[*i].is_empty())
            .map(|(i, _)| StageId(i))
            .collect()
    }
}

/// Resolve one function (or one `TStencil` step) into a stage: rewrite reads
/// to slots and extract merged footprints.
fn resolve_stage(
    pipeline: &Pipeline,
    fid: FuncId,
    data: &crate::func::FuncData,
    step: usize,
    name: String,
    state_stage: Option<StageId>,
    final_stage: &HashMap<FuncId, Option<StageId>>,
) -> Stage {
    let ndims = data.domain.ndims();
    let mut inputs: Vec<StageInput> = Vec::new();
    let mut footprints: Vec<Option<Footprint>> = Vec::new();
    let mut coeff_slots: Vec<bool> = Vec::new();
    let mut slot_of: HashMap<StageInput, usize> = HashMap::new();

    let is_coeff_op = |op: &Operand| -> bool {
        match op {
            Operand::Func(f) => {
                let d = pipeline.func(*f);
                d.kind == FuncKind::Input && d.coeff
            }
            _ => false,
        }
    };

    let resolve_op = |op: &Operand| -> StageInput {
        match op {
            Operand::Func(f) => match final_stage
                .get(f)
                .unwrap_or_else(|| panic!("read of undeclared function in '{name}'"))
            {
                Some(sid) => StageInput::Stage(*sid),
                None => StageInput::Zero,
            },
            Operand::State => match state_stage {
                Some(sid) => StageInput::Stage(sid),
                None => StageInput::Zero,
            },
            Operand::Slot(_) => panic!("Slot operand in user expression"),
        }
    };

    let mut cases = Vec::with_capacity(data.cases.len());
    for (pat, expr) in &data.cases {
        // first pass: assign slots and accumulate footprints
        expr.visit_reads(&mut |op, access| {
            let inp = resolve_op(op);
            let slot = *slot_of.entry(inp).or_insert_with(|| {
                inputs.push(inp);
                footprints.push(None);
                coeff_slots.push(is_coeff_op(op));
                inputs.len() - 1
            });
            let fp = Footprint(Axes::from_fn(access.0.len(), |d| {
                let a = &access.0[d];
                AxisFootprint::new(a.num, a.den, a.off, a.off)
            }));
            footprints[slot] = Some(match footprints[slot].take() {
                None => fp,
                Some(old) => old.merge(&fp),
            });
        });
        // second pass: rewrite operands to slots
        let rewritten = expr.map_operands(&mut |op| {
            let inp = resolve_op(op);
            Operand::Slot(slot_of[&inp])
        });
        cases.push((pat.clone(), rewritten));
    }

    let footprints = footprints
        .into_iter()
        .map(|fp| fp.unwrap_or_else(|| Footprint::uniform(ndims, AxisFootprint::pointwise())))
        .collect();

    Stage {
        name,
        func: fid,
        step,
        kind: StageKind::Compute,
        domain: data.domain,
        level: data.level,
        size_param: data.size_param,
        boundary: data.boundary,
        inputs,
        footprints,
        cases,
        coeff_slots,
        is_output: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Operand;
    use crate::stencil::{restrict_full_weighting_2d, stencil_2d};

    fn five_point() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    fn jacobi_defn(f: FuncId) -> Expr {
        Operand::State.at(&[0, 0])
            - 0.8 * (stencil_2d(Operand::State, &five_point(), 1.0) - Operand::Func(f).at(&[0, 0]))
    }

    #[test]
    fn tstencil_unrolls_into_chain() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 15, 1);
        let f = p.input("F", 2, 15, 1);
        let sm = p.tstencil("sm", 2, 15, 1, StepCount::Fixed(3), Some(v), jacobi_defn(f));
        p.mark_output(sm);
        let g = StageGraph::build(&p, &ParamBindings::new());
        // 2 inputs + 3 steps
        assert_eq!(g.len(), 5);
        assert_eq!(g.num_compute_stages(), 3);
        // step 0 reads V; steps 1,2 read previous step
        let s0 = &g.stages[2];
        assert_eq!(s0.name, "sm.s0");
        assert!(s0.inputs.contains(&StageInput::Stage(StageId(0))));
        let s1 = &g.stages[3];
        assert!(s1.inputs.contains(&StageInput::Stage(StageId(2))));
        let s2 = &g.stages[4];
        assert!(s2.inputs.contains(&StageInput::Stage(StageId(3))));
        assert!(s2.is_output);
        assert!(!s1.is_output);
        // footprint of the state slot is the radius-1 stencil hull
        let state_slot = s1
            .inputs
            .iter()
            .position(|i| *i == StageInput::Stage(StageId(2)))
            .unwrap();
        let fp = &s1.footprints[state_slot];
        assert_eq!(fp.0[0].off_min, -1);
        assert_eq!(fp.0[0].off_max, 1);
        assert_eq!(s1.max_unit_radius(), 1);
    }

    #[test]
    fn runtime_step_count() {
        let mut p = Pipeline::new("t");
        let t = p.parameter("T");
        let v = p.input("V", 2, 15, 1);
        let f = p.input("F", 2, 15, 1);
        let sm = p_tstencil(&mut p, t, v, f);
        p.mark_output(sm);
        let mut b = ParamBindings::new();
        b.bind(t, 5);
        let g = StageGraph::build(&p, &b);
        assert_eq!(g.num_compute_stages(), 5);
    }

    fn p_tstencil(p: &mut Pipeline, t: crate::func::ParamId, v: FuncId, f: FuncId) -> FuncId {
        p.tstencil("sm", 2, 15, 1, StepCount::Param(t), Some(v), jacobi_defn(f))
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn unbound_step_param_panics() {
        let mut p = Pipeline::new("t");
        let t = p.parameter("T");
        let v = p.input("V", 2, 15, 1);
        let f = p.input("F", 2, 15, 1);
        p_tstencil(&mut p, t, v, f);
        let _ = StageGraph::build(&p, &ParamBindings::new());
    }

    #[test]
    fn zero_state_tstencil_reads_zero() {
        let mut p = Pipeline::new("t");
        let f = p.input("F", 2, 7, 0);
        let sm = p.tstencil("sm", 2, 7, 0, StepCount::Fixed(2), None, jacobi_defn(f));
        p.mark_output(sm);
        let g = StageGraph::build(&p, &ParamBindings::new());
        let s0 = &g.stages[1];
        assert!(s0.inputs.contains(&StageInput::Zero));
        // step 1 reads step 0, not zero
        let s1 = &g.stages[2];
        assert!(s1.inputs.contains(&StageInput::Stage(StageId(1))));
        assert!(!s1.inputs.contains(&StageInput::Zero));
    }

    #[test]
    fn zero_step_tstencil_forwards_state() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 7, 0);
        let f = p.input("F", 2, 7, 0);
        let sm = p.tstencil("sm", 2, 7, 0, StepCount::Fixed(0), Some(v), jacobi_defn(f));
        // a consumer of sm reads V directly
        let c = p.function("c", 2, 7, 0, Operand::Func(sm).at(&[0, 0]) * 2.0);
        p.mark_output(c);
        let g = StageGraph::build(&p, &ParamBindings::new());
        assert_eq!(g.num_compute_stages(), 1);
        let cs = g.stages.last().unwrap();
        assert!(cs.inputs.contains(&StageInput::Stage(StageId(0))));
    }

    #[test]
    fn restrict_interp_footprints_and_edges() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 15, 1);
        let r = p.restrict_fn("r", 2, 7, 0, restrict_full_weighting_2d(Operand::Func(v)));
        let e = p.interp_fn("e", 2, 15, 1, r);
        p.mark_output(e);
        let g = StageGraph::build(&p, &ParamBindings::new());
        let rs = &g.stages[1];
        assert_eq!(rs.footprints[0].0[0].num, 2);
        assert_eq!(rs.footprints[0].0[0].den, 1);
        let es = &g.stages[2];
        assert_eq!(es.footprints[0].0[0].num, 1);
        assert_eq!(es.footprints[0].0[0].den, 2);
        // interp merges offsets across its parity cases into [-1, 1]
        assert_eq!(es.footprints[0].0[0].off_min, -1);
        assert_eq!(es.footprints[0].0[0].off_max, 1);
        let edges: Vec<_> = g.edge_ends().collect();
        assert_eq!(
            edges,
            vec![(StageId(0), StageId(1)), (StageId(1), StageId(2))]
        );
        assert_eq!(g.consumers()[1], vec![StageId(2)]);
        assert!(g.dead_stages().is_empty());
    }

    #[test]
    fn dead_stage_detection() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 7, 0);
        let a = p.function("a", 2, 7, 0, Operand::Func(v).at(&[0, 0]) + 1.0);
        let _unused = p.function("unused", 2, 7, 0, Operand::Func(v).at(&[0, 0]) * 3.0);
        p.mark_output(a);
        let g = StageGraph::build(&p, &ParamBindings::new());
        assert_eq!(g.dead_stages().len(), 1);
    }

    #[test]
    fn slots_deduplicate_same_producer() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 7, 0);
        // reads v twice with different offsets → one slot, merged footprint
        let a = p.function(
            "a",
            2,
            7,
            0,
            Operand::Func(v).at(&[0, -1]) + Operand::Func(v).at(&[2, 0]),
        );
        p.mark_output(a);
        let g = StageGraph::build(&p, &ParamBindings::new());
        let s = &g.stages[1];
        assert_eq!(s.inputs.len(), 1);
        assert_eq!(s.footprints[0].0[0].off_min, 0);
        assert_eq!(s.footprints[0].0[0].off_max, 2);
        assert_eq!(s.footprints[0].0[1].off_min, -1);
        assert_eq!(s.footprints[0].0[1].off_max, 0);
    }
}
