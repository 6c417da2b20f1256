//! The compilation driver: DSL pipeline → [`CompiledPipeline`].
//!
//! Phases (paper Figure 4): unroll → validate → lower kernels → auto-group →
//! per-group tiling decision + scratchpad planning (with intra-group reuse)
//! → full-array planning (with inter-group reuse) → pooled alloc/free
//! schedule.

use crate::grouping::{auto_group, group_geometry, live_stages, Grouping};
use crate::lowering::lower_all;
use crate::options::PipelineOptions;
use crate::plan::{
    ArraySpec, CompiledPipeline, GroupPlan, GroupTiling, ScratchBufferSpec, StoragePlan, TilePlan,
};
use crate::storage::{bucket_extents, remap_storage, RemapItem, StorageClass};
use gmg_ir::{FuncKind, ParamBindings, Pipeline, StageGraph, StageId, StageKind};
use gmg_poly::tiling::tile_walk;
use std::sync::Arc;

/// Scratchpad size-class quantum: per-stage extents are bucketed up to
/// multiples of it before storage classes form (the paper's "±constant
/// threshold", §3.2.1). An ablation over 1, 8 and 32 moved a smoke-size
/// 2-D cycle by no more than run-to-run noise (EXPERIMENTS.md "Ablations").
const SCRATCH_QUANTUM: i64 = 8;

/// Compile a pipeline. Returns validation diagnostics on error.
pub fn compile(
    pipeline: &Pipeline,
    bindings: &ParamBindings,
    options: PipelineOptions,
) -> Result<CompiledPipeline, Vec<String>> {
    let graph = StageGraph::build(pipeline, bindings);
    let errs = gmg_ir::validate::validate(pipeline, &graph);
    if !errs.is_empty() {
        return Err(errs);
    }
    let kernels = lower_all(&graph);
    let grouping = auto_group(pipeline, &graph, &options);
    let consumers = graph.consumers();
    let groups = plan_groups(pipeline, &graph, &consumers, &grouping, &options);
    let storage = plan_full_arrays(&graph, &consumers, &groups, &options);
    // chaos is a runtime property; never bake it into a (cacheable) plan
    let options = PipelineOptions {
        chaos: None,
        ..options
    };
    Ok(CompiledPipeline {
        graph,
        kernels,
        groups,
        storage,
        options,
    })
}

/// Decide tiling and scratchpad layout for every group.
fn plan_groups(
    pipeline: &Pipeline,
    graph: &StageGraph,
    consumers: &[Vec<StageId>],
    grouping: &Grouping,
    options: &PipelineOptions,
) -> Vec<GroupPlan> {
    let live = live_stages(graph);
    let mut plans = Vec::with_capacity(grouping.groups.len());

    for members in &grouping.groups {
        let (gstages, edges, ref_local, scales, live_out) =
            group_geometry(graph, members, consumers, &live);
        let in_group = |sid: StageId| members.contains(&sid);
        // a stage needs a scratchpad iff some consumer reads it inside the
        // group (then tiles read the overlap region, which only the
        // scratchpad holds)
        let needs_scratch: Vec<bool> = members
            .iter()
            .map(|sid| consumers[sid.0].iter().any(|c| in_group(*c)))
            .collect();

        let ndims = graph.stage(members[0]).domain.ndims();
        let is_smoother_chain = members.len() >= 2
            && members.iter().all(|s| {
                pipeline.func(graph.stage(*s).func).kind == FuncKind::TStencil
                    && graph.stage(*s).func == graph.stage(members[0]).func
            });

        // mixed precision moves eligible smoother chains onto f32 buffers:
        // every step must be a single-case, offset-access linear kernel
        // without coefficient factors (the f32 chain executor evaluates a
        // flat tap list; anything else keeps the f64 path).
        let mixed_chain_ok = options.mixed_precision
            && is_smoother_chain
            && members.iter().all(|s| {
                let st = graph.stage(*s);
                st.cases.len() == 1
                    && gmg_ir::linearize_with_coeffs(&st.cases[0].1, &st.coeff_slots)
                        .is_some_and(|f| {
                            f.taps.iter().all(|t| {
                                t.cfactor.is_none()
                                    && t.access.0.iter().all(|a| a.num == 1 && a.den == 1)
                            })
                        })
            });

        let tiling = if members.len() == 1 {
            // single-stage groups need no tiling for temporal reuse (§4.2:
            // "exception was the single defect node")
            GroupTiling::Untiled
        } else if mixed_chain_ok {
            GroupTiling::MixedChain
        } else if options.dtile_smoother && is_smoother_chain {
            let radius = graph.stage(members[1]).max_unit_radius().max(1);
            let tile_w = options.tiles_for_rank(ndims)[0]
                .max(2 * radius * (options.dtile_band as i64 - 1) + 1);
            GroupTiling::Diamond {
                tile_w,
                band_h: options.dtile_band,
                radius,
            }
        } else {
            let tile_sizes = options.tiles_for_rank(ndims);
            let walk = tile_walk(&gstages, &edges, ref_local, &scales, &live_out, &tile_sizes);
            let tile_plan = Arc::new(TilePlan::new(ndims, members.len(), walk));
            GroupTiling::Overlapped {
                ref_stage_local: ref_local,
                tile_sizes,
                scales,
                tile_plan,
            }
        };

        // scratchpad planning (overlapped groups only; diamond groups use
        // modulo full buffers managed by the runtime, untiled groups are all
        // live-out)
        let (scratch_slot, scratch_buffers) = match &tiling {
            GroupTiling::Overlapped { tile_plan, .. } => {
                plan_scratchpads(consumers, members, tile_plan, &needs_scratch, options)
            }
            _ => (vec![None; members.len()], Vec::new()),
        };

        plans.push(GroupPlan {
            stages: members.clone(),
            live_out,
            scratch_slot,
            scratch_buffers,
            tiling,
        });
    }
    plans
}

/// Take per-stage maximal scratch extents over all tiles from the group's
/// tile plan, form storage classes, and run the intra-group remapping
/// (Algorithms 2–3).
fn plan_scratchpads(
    consumers: &[Vec<StageId>],
    members: &[StageId],
    tile_plan: &TilePlan,
    needs_scratch: &[bool],
    options: &PipelineOptions,
) -> (Vec<Option<usize>>, Vec<ScratchBufferSpec>) {
    let ndims = tile_plan.ndims();

    // remap items: only stages that need scratch. Timestamps are schedule
    // positions; last use is the position of the last in-group consumer.
    let pos_of = |sid: StageId| members.iter().position(|m| *m == sid).unwrap();
    let mut item_stage = Vec::new();
    let mut items = Vec::new();
    for (i, sid) in members.iter().enumerate() {
        if !needs_scratch[i] {
            continue;
        }
        let last = consumers[sid.0]
            .iter()
            .filter(|c| members.contains(c))
            .map(|c| pos_of(*c) as i64)
            .max()
            .unwrap_or(i as i64);
        let key = bucket_extents(&tile_plan.max_extents(i), SCRATCH_QUANTUM);
        items.push(RemapItem {
            time: i as i64,
            last_use: last,
            class: StorageClass {
                ndims,
                size_key: key,
                param_tag: None,
            },
        });
        item_stage.push(i);
    }
    let result = remap_storage(&items, options.intra_group_reuse);

    let mut scratch_slot = vec![None; members.len()];
    for (it, &stage_local) in item_stage.iter().enumerate() {
        scratch_slot[stage_local] = Some(result.buffer_of[it]);
    }
    // buffer specs: the class size key is the (bucketed) max extents
    let scratch_buffers = result
        .buffer_class
        .iter()
        .map(|c| ScratchBufferSpec {
            extents: c.size_key.clone(),
            capacity: c.size_key.iter().product::<i64>() as usize,
        })
        .collect();
    (scratch_slot, scratch_buffers)
}

/// Plan full arrays: inputs, live-outs, inter-group reuse and the pooled
/// alloc/free schedule.
fn plan_full_arrays(
    graph: &StageGraph,
    consumers: &[Vec<StageId>],
    groups: &[GroupPlan],
    options: &PipelineOptions,
) -> StoragePlan {
    let nstages = graph.stages.len();
    // group index of each stage (inputs: none)
    let mut group_of = vec![None; nstages];
    for (gi, g) in groups.iter().enumerate() {
        for s in &g.stages {
            group_of[s.0] = Some(gi);
        }
    }

    // collect array-needing stages: inputs + live-outs
    struct Want {
        stage: usize,
        time: i64,
        last_use: i64,
        external: bool,
    }
    let mut wants: Vec<Want> = Vec::new();
    for (si, st) in graph.stages.iter().enumerate() {
        let is_input = st.kind == StageKind::Input;
        let live_out = group_of[si]
            .map(|gi| {
                let g = &groups[gi];
                let local = g.stages.iter().position(|s| s.0 == si).unwrap();
                g.live_out[local]
            })
            .unwrap_or(false);
        if !is_input && !live_out {
            continue;
        }
        let time = group_of[si].map(|g| g as i64).unwrap_or(-1);
        let last_read = consumers[si]
            .iter()
            .filter_map(|c| group_of[c.0])
            .map(|g| g as i64)
            .max();
        let last_use = if st.is_output || is_input {
            i64::MAX // never recycled
        } else {
            last_read.unwrap_or(time)
        };
        wants.push(Want {
            stage: si,
            time,
            last_use,
            external: is_input || st.is_output,
        });
    }

    // remap the internal (reusable) live-outs; externals get dedicated arrays
    let mut items = Vec::new();
    let mut item_stage = Vec::new();
    for w in wants.iter().filter(|w| !w.external) {
        let st = &graph.stages[w.stage];
        let extents: Vec<i64> = st.domain.extents().map(|e| e + 2).collect();
        items.push(RemapItem {
            time: w.time,
            last_use: w.last_use,
            class: StorageClass {
                ndims: st.domain.ndims(),
                size_key: extents,
                param_tag: st.size_param.map(|p| p.0),
            },
        });
        item_stage.push(w.stage);
    }
    let remap = remap_storage(&items, options.inter_group_reuse);

    let mut array_of_stage = vec![None; nstages];
    let mut arrays: Vec<ArraySpec> = Vec::new();
    // externals first
    for w in wants.iter().filter(|w| w.external) {
        let st = &graph.stages[w.stage];
        array_of_stage[w.stage] = Some(arrays.len());
        arrays.push(ArraySpec {
            extents: st.domain.extents().map(|e| e + 2).collect(),
            boundary: st.boundary.value(),
            external: true,
            tag: st.name.clone(),
        });
    }
    // internal buffers from the remap
    let base = arrays.len();
    for (b, class) in remap.buffer_class.iter().enumerate() {
        // tag with the first stage mapped to it
        let first = item_stage
            .iter()
            .zip(&remap.buffer_of)
            .find(|(_, bb)| **bb == b)
            .map(|(s, _)| graph.stages[*s].name.clone())
            .unwrap_or_default();
        arrays.push(ArraySpec {
            extents: class.size_key.clone(),
            boundary: item_stage
                .iter()
                .zip(&remap.buffer_of)
                .find(|(_, bb)| **bb == b)
                .map(|(s, _)| graph.stages[*s].boundary.value())
                .unwrap_or(0.0),
            external: false,
            tag: first,
        });
    }
    for (k, &si) in item_stage.iter().enumerate() {
        array_of_stage[si] = Some(base + remap.buffer_of[k]);
    }

    // pooled alloc/free schedule over groups
    let ngroups = groups.len();
    let mut first_write = vec![i64::MAX; arrays.len()];
    let mut last_read = vec![-1i64; arrays.len()];
    for w in &wants {
        let Some(a) = array_of_stage[w.stage] else {
            continue;
        };
        if arrays[a].external {
            continue;
        }
        first_write[a] = first_write[a].min(w.time);
        last_read[a] = last_read[a].max(if w.last_use == i64::MAX {
            ngroups as i64
        } else {
            w.last_use.max(w.time)
        });
    }
    let mut alloc_before_group = vec![Vec::new(); ngroups];
    let mut free_after_group = vec![Vec::new(); ngroups];
    for (a, spec) in arrays.iter().enumerate() {
        if spec.external || first_write[a] == i64::MAX {
            continue;
        }
        alloc_before_group[first_write[a] as usize].push(a);
        let fr = last_read[a];
        if fr >= 0 && (fr as usize) < ngroups {
            free_after_group[fr as usize].push(a);
        }
    }

    StoragePlan {
        array_of_stage,
        arrays,
        alloc_before_group,
        free_after_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Variant;
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d};
    use gmg_ir::StepCount;

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    /// Two-level fragment: pre-smooth → defect → restrict; interp → correct
    /// → post-smooth.
    fn two_level_pipeline(n: i64) -> Pipeline {
        let mut p = Pipeline::new("frag");
        let v = p.input("V", 2, n, 1);
        let f = p.input("F", 2, n, 1);
        let pre = p.tstencil(
            "pre",
            2,
            n,
            1,
            StepCount::Fixed(4),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        let d = p.function(
            "defect",
            2,
            n,
            1,
            Operand::Func(f).at(&[0, 0]) - stencil_2d(Operand::Func(pre), &five(), 1.0),
        );
        let nc = (n + 1) / 2 - 1;
        let r = p.restrict_fn(
            "restrict",
            2,
            nc,
            0,
            restrict_full_weighting_2d(Operand::Func(d)),
        );
        let e = p.interp_fn("interp", 2, n, 1, r);
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
            StepCount::Fixed(4),
            Some(c),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        p.mark_output(post);
        p
    }

    #[test]
    fn compile_naive() {
        let p = two_level_pipeline(255);
        let plan = compile(
            &p,
            &ParamBindings::new(),
            PipelineOptions::for_variant(Variant::Naive, 2),
        )
        .unwrap();
        // every compute stage its own untiled group, all live-out
        assert_eq!(plan.groups.len(), plan.graph.num_compute_stages());
        for g in &plan.groups {
            assert!(matches!(g.tiling, GroupTiling::Untiled));
            assert!(g.live_out.iter().all(|&l| l));
            assert!(g.scratch_buffers.is_empty());
        }
        // 1:1 arrays: every compute stage has one
        let n_arrays = plan.storage.arrays.len();
        assert_eq!(
            n_arrays,
            plan.graph.num_compute_stages() + 2 // + V, F inputs
        );
    }

    #[test]
    fn compile_opt_plus_reuses_arrays() {
        let p = two_level_pipeline(255);
        let mut onaive = PipelineOptions::for_variant(Variant::Opt, 2);
        onaive.tile_sizes = vec![32, 64];
        let plan_opt = compile(&p, &ParamBindings::new(), onaive).unwrap();
        let mut oplus = PipelineOptions::for_variant(Variant::OptPlus, 2);
        oplus.tile_sizes = vec![32, 64];
        let plan_plus = compile(&p, &ParamBindings::new(), oplus).unwrap();

        assert!(
            plan_plus.storage.num_intermediate_arrays()
                <= plan_opt.storage.num_intermediate_arrays()
        );
        assert!(plan_plus.storage.intermediate_bytes() <= plan_opt.storage.intermediate_bytes());
        // grouping reduced the number of groups below the stage count
        assert!(plan_plus.groups.len() < plan_plus.graph.num_compute_stages());
        // intra reuse reduced scratch buffer count
        assert!(plan_plus.total_scratch_buffers() <= plan_opt.total_scratch_buffers());
    }

    #[test]
    fn scratch_only_for_in_group_consumed_stages() {
        let p = two_level_pipeline(255);
        let mut o = PipelineOptions::for_variant(Variant::OptPlus, 2);
        o.tile_sizes = vec![32, 64];
        let plan = compile(&p, &ParamBindings::new(), o).unwrap();
        for g in &plan.groups {
            if let GroupTiling::Overlapped { .. } = &g.tiling {
                for (i, slot) in g.scratch_slot.iter().enumerate() {
                    let sid = g.stages[i];
                    let consumed_inside = plan.graph.consumers()[sid.0]
                        .iter()
                        .any(|c| g.stages.contains(c));
                    assert_eq!(slot.is_some(), consumed_inside);
                    if slot.is_none() {
                        assert!(g.live_out[i], "stage neither scratch nor live-out");
                    }
                }
            }
        }
    }

    #[test]
    fn alloc_free_schedule_is_consistent() {
        let p = two_level_pipeline(255);
        let mut o = PipelineOptions::for_variant(Variant::OptPlus, 2);
        o.tile_sizes = vec![32, 64];
        let plan = compile(&p, &ParamBindings::new(), o).unwrap();
        let st = &plan.storage;
        // every non-external array allocated exactly once, freed at most once
        let mut allocs = vec![0; st.arrays.len()];
        let mut frees = vec![0; st.arrays.len()];
        for g in &st.alloc_before_group {
            for &a in g {
                allocs[a] += 1;
            }
        }
        for g in &st.free_after_group {
            for &a in g {
                frees[a] += 1;
            }
        }
        for (a, spec) in st.arrays.iter().enumerate() {
            if spec.external {
                assert_eq!(allocs[a], 0);
                assert_eq!(frees[a], 0);
            } else {
                assert_eq!(allocs[a], 1, "array {a} ({}) allocs", spec.tag);
                assert!(frees[a] <= 1);
            }
        }
        // alloc group ≤ free group
        for (gi, g) in st.free_after_group.iter().enumerate() {
            for &a in g {
                let ag = st
                    .alloc_before_group
                    .iter()
                    .position(|v| v.contains(&a))
                    .unwrap();
                assert!(ag <= gi);
            }
        }
    }

    #[test]
    fn dtile_marks_smoother_groups_diamond() {
        let p = two_level_pipeline(255);
        let mut o = PipelineOptions::for_variant(Variant::DtileOptPlus, 2);
        o.tile_sizes = vec![32, 64];
        let plan = compile(&p, &ParamBindings::new(), o).unwrap();
        let n_diamond = plan
            .groups
            .iter()
            .filter(|g| matches!(g.tiling, GroupTiling::Diamond { .. }))
            .count();
        assert_eq!(n_diamond, 2, "pre and post smoother chains");
        for g in &plan.groups {
            if let GroupTiling::Diamond {
                tile_w,
                band_h,
                radius,
            } = g.tiling
            {
                assert!(tile_w > 2 * radius * (band_h as i64 - 1));
            }
        }
    }

    #[test]
    fn validation_errors_propagate() {
        let mut p = Pipeline::new("bad");
        let v = p.input("V", 2, 8, 0);
        let a = p.function("a", 2, 8, 0, Operand::Func(v).at(&[0, 5]));
        p.mark_output(a);
        let r = compile(
            &p,
            &ParamBindings::new(),
            PipelineOptions::for_variant(Variant::Naive, 2),
        );
        assert!(r.is_err());
    }
}
