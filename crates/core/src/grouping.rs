//! PolyMage's greedy auto-grouping (§3.1), reused unchanged for multigrid —
//! "no changes were needed to the fusion and tiling transformations already
//! employed in PolyMage".
//!
//! Starting from singleton groups, producer groups are repeatedly merged
//! into consumer groups when (a) the merged size stays within the grouping
//! limit, (b) the merge is *convex* (no dependence path leaves and re-enters
//! the merged set — merging would otherwise create a cyclic group schedule),
//! and (c) the redundant-computation ratio of overlap-tiling the merged
//! group at the configured tile sizes stays within `OVERLAP_THRESHOLD`.
//!
//! When diamond tiling of smoothers is requested (`polymg-dtile-opt+`),
//! `TStencil` step chains are kept as their own groups: steps of one
//! smoother may merge with each other but not with neighbouring operators,
//! so the chain can be time-tiled by the split/diamond executor.
//!
//! Cost: the consumer lists and the live set are computed once per compile
//! (`compile` hands the grouping the ones its group planning reads) and
//! shared by every candidate. The convexity search only visits stages whose
//! ids lie between the two groups (stage ids are topological). The overlap
//! check, `gmg_poly::tiling::evaluate_tiling`, propagates each tile index
//! along each axis once, restricted to that axis, and multiplies the
//! per-axis point counts; it walks the merged group tile by tile only when a
//! stage's emptiness couples the axes, which no overlapped group of the
//! benchmark's or the serving mixes' plans does (`tests/plan_identity.rs`
//! pins that).

use crate::options::PipelineOptions;
use gmg_ir::{FuncKind, Pipeline, StageGraph, StageId, StageInput, StageKind};
use gmg_poly::region::{GroupEdge, GroupStage};
use gmg_poly::tiling::evaluate_tiling;
use gmg_poly::{BoxDomain, Ratio};

/// Largest redundant-work ratio (tiled points / base points at the
/// configured tile sizes) a merged group may reach. The paper auto-tunes
/// tile sizes and the grouping limit and keeps PolyMage's tolerance fixed;
/// an ablation over 1.05–4.0 moved a smoke-size 2-D cycle by no more than
/// run-to-run noise (EXPERIMENTS.md "Ablations").
const OVERLAP_THRESHOLD: f64 = 2.0;

/// A partition of the compute stages into fused groups, in a valid
/// (topological) execution order.
#[derive(Clone, Debug)]
pub struct Grouping {
    /// Groups in execution order; stages within a group in schedule order.
    pub groups: Vec<Vec<StageId>>,
}

impl Grouping {
    /// Group index of each stage (`None` for inputs).
    pub fn group_of(&self, num_stages: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; num_stages];
        for (gi, g) in self.groups.iter().enumerate() {
            for s in g {
                out[s.0] = Some(gi);
            }
        }
        out
    }

    /// Size of the largest group.
    pub fn max_group_size(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Per-dimension scale of `stage` relative to `reference`, derived from the
/// vertex-centred interior sizes (`(n_s + 1) / (n_ref + 1)` reduces to the
/// exact power-of-two level ratio).
pub fn stage_scales(stage_dom: &BoxDomain, ref_dom: &BoxDomain) -> Vec<Ratio> {
    stage_dom
        .0
        .iter()
        .zip(&ref_dom.0)
        .map(|(s, r)| Ratio::new(s.len() + 1, r.len() + 1))
        .collect()
}

/// Result of [`group_geometry`]: (stages, edges, reference stage's local
/// index, per-stage domain scales, per-stage live-out flags).
pub type GroupGeometry = (
    Vec<GroupStage>,
    Vec<GroupEdge>,
    usize,
    Vec<Vec<Ratio>>,
    Vec<bool>,
);

/// Build the group-local region-propagation inputs for a set of stages.
/// `consumers` is [`StageGraph::consumers`] and `live` is [`live_stages`]
/// of `graph`; callers compute both once per graph.
pub fn group_geometry(
    graph: &StageGraph,
    members: &[StageId],
    consumers: &[Vec<StageId>],
    live: &[bool],
) -> GroupGeometry {
    let local_of = |sid: StageId| members.iter().position(|m| *m == sid);
    // reference = stage with the largest domain
    let ref_local = members
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| graph.stage(**s).domain.len())
        .map(|(i, _)| i)
        .expect("empty group");
    let ref_dom = &graph.stage(members[ref_local]).domain;

    let mut gstages = Vec::with_capacity(members.len());
    let mut scales = Vec::with_capacity(members.len());
    let mut live_out = Vec::with_capacity(members.len());
    for sid in members {
        let st = graph.stage(*sid);
        gstages.push(GroupStage {
            domain: st.domain,
            owned: BoxDomain::empty(st.domain.ndims()),
        });
        scales.push(stage_scales(&st.domain, ref_dom));
        let escapes = st.is_output
            || consumers[sid.0]
                .iter()
                .any(|c| live[c.0] && local_of(*c).is_none());
        live_out.push(escapes);
    }

    let mut edges = Vec::new();
    for (ci, sid) in members.iter().enumerate() {
        let st = graph.stage(*sid);
        for (slot, inp) in st.inputs.iter().enumerate() {
            if let StageInput::Stage(p) = inp {
                if let Some(pi) = local_of(*p) {
                    edges.push(GroupEdge {
                        producer: pi,
                        consumer: ci,
                        footprint: st.footprints[slot],
                    });
                }
            }
        }
    }
    (gstages, edges, ref_local, scales, live_out)
}

/// Stages reachable (backwards) from a pipeline output — dead stages (e.g.
/// the level-1 defect/restrict of a 10-0-0 cycle, whose coarse solve
/// provably contributes nothing) are pruned from execution, one of the
/// whole-program optimizations the DSL enables.
pub fn live_stages(graph: &StageGraph) -> Vec<bool> {
    let n = graph.stages.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = graph
        .stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_output)
        .map(|(i, _)| i)
        .collect();
    for &s in &stack {
        live[s] = true;
    }
    while let Some(s) = stack.pop() {
        for inp in &graph.stages[s].inputs {
            let StageInput::Stage(p) = inp else { continue };
            if !live[p.0] {
                live[p.0] = true;
                stack.push(p.0);
            }
        }
    }
    live
}

/// Run the greedy auto-grouping (over live compute stages only).
pub fn auto_group(pipeline: &Pipeline, graph: &StageGraph, opts: &PipelineOptions) -> Grouping {
    let (consumers, live) = (graph.consumers(), live_stages(graph));
    auto_group_over(pipeline, graph, opts, &consumers, &live)
}

/// [`auto_group`] over `graph`'s [`StageGraph::consumers`] and
/// [`live_stages`], which the caller computed once and reads again.
pub(crate) fn auto_group_over(
    pipeline: &Pipeline,
    graph: &StageGraph,
    opts: &PipelineOptions,
    consumers: &[Vec<StageId>],
    live: &[bool],
) -> Grouping {
    group_within(pipeline, graph, opts, OVERLAP_THRESHOLD, consumers, live)
}

/// [`auto_group_over`] with the redundant-work tolerance as a parameter.
fn group_within(
    pipeline: &Pipeline,
    graph: &StageGraph,
    opts: &PipelineOptions,
    overlap_threshold: f64,
    consumers: &[Vec<StageId>],
    live: &[bool],
) -> Grouping {
    let (group_of, members) =
        greedy_merge(pipeline, graph, opts, overlap_threshold, consumers, live);
    order_groups(graph, &members, &group_of)
}

/// Start from singleton groups over the live compute stages and merge
/// producer groups into consumer groups while a merge passes every check.
/// Returns each stage's group and each group's members (some emptied).
fn greedy_merge(
    pipeline: &Pipeline,
    graph: &StageGraph,
    opts: &PipelineOptions,
    overlap_threshold: f64,
    consumers: &[Vec<StageId>],
    live: &[bool],
) -> (Vec<Option<usize>>, Vec<Vec<StageId>>) {
    let mut group_of: Vec<Option<usize>> = vec![None; graph.stages.len()];
    let mut members: Vec<Vec<StageId>> = Vec::new();
    for (i, s) in graph.stages.iter().enumerate() {
        if s.kind == StageKind::Compute && live[i] {
            group_of[i] = Some(members.len());
            members.push(vec![StageId(i)]);
        }
    }
    if opts.group_limit <= 1 {
        return (group_of, members);
    }
    let tstencil_only =
        |sid: StageId| pipeline.func(graph.stage(sid).func).kind == FuncKind::TStencil;

    loop {
        let mut merged_any = false;
        // candidate edges between distinct groups
        'outer: for p in 0..graph.stages.len() {
            let Some(gp) = group_of[p] else { continue };
            for c in &consumers[p] {
                let Some(gc) = group_of[c.0] else { continue };
                if gp == gc {
                    continue;
                }
                // size limit
                if members[gp].len() + members[gc].len() > opts.group_limit {
                    continue;
                }
                // dtile / mixed precision: a TStencil chain may not merge
                // with other functions (the chain executors need the whole
                // group to be steps of one smoother)
                if opts.dtile_smoother || opts.mixed_precision {
                    let fp = graph.stage(StageId(p)).func;
                    let fc = graph.stage(*c).func;
                    if (tstencil_only(StageId(p)) || tstencil_only(*c)) && fp != fc {
                        continue;
                    }
                }
                // convexity: every group reachable from gp that reaches gc
                // must be inside {gp, gc}
                if !is_convex_merge(graph, consumers, &members, &group_of, gp, gc) {
                    continue;
                }
                // overlap threshold on the merged group
                let mut merged: Vec<StageId> = members[gp]
                    .iter()
                    .chain(members[gc].iter())
                    .copied()
                    .collect();
                merged.sort();
                if !overlap_ok(graph, opts, overlap_threshold, &merged, consumers, live) {
                    continue;
                }
                // commit the merge into gc
                let moving = std::mem::take(&mut members[gp]);
                for s in &moving {
                    group_of[s.0] = Some(gc);
                }
                members[gc].extend(moving);
                members[gc].sort();
                merged_any = true;
                break 'outer;
            }
        }
        if !merged_any {
            return (group_of, members);
        }
    }
}

/// Would merging groups `ga` and `gb` stay convex? True iff no dependence
/// path from `ga` to `gb` passes through a third group.
fn is_convex_merge(
    graph: &StageGraph,
    consumers: &[Vec<StageId>],
    members: &[Vec<StageId>],
    group_of: &[Option<usize>],
    ga: usize,
    gb: usize,
) -> bool {
    // find stages reachable from ga-stages that can reach gb-stages while
    // outside both groups. Stage ids are topological, so such a stage lies
    // strictly between ga's first stage and gb's last: both searches stop
    // at that window.
    let n = graph.stages.len();
    let lo = members[ga].iter().map(|s| s.0).min().unwrap_or(n);
    let hi = members[gb].iter().map(|s| s.0).max().unwrap_or(0);
    // forward reachability from ga (through any stage)
    let mut from_a = vec![false; n];
    let mut stack: Vec<usize> = members[ga].iter().map(|s| s.0).collect();
    while let Some(s) = stack.pop() {
        for c in &consumers[s] {
            if c.0 < hi && !from_a[c.0] {
                from_a[c.0] = true;
                stack.push(c.0);
            }
        }
    }
    // backward reachability from gb
    let mut to_b = vec![false; n];
    let mut stack: Vec<usize> = members[gb].iter().map(|s| s.0).collect();
    while let Some(s) = stack.pop() {
        for inp in &graph.stages[s].inputs {
            let StageInput::Stage(st) = inp else { continue };
            if st.0 > lo && !to_b[st.0] {
                to_b[st.0] = true;
                stack.push(st.0);
            }
        }
    }
    // any stage on a path strictly between, belonging to a third group?
    (lo.saturating_add(1)..hi).all(|s| {
        !(from_a[s] && to_b[s])
            || group_of[s].is_none()
            || group_of[s] == Some(ga)
            || group_of[s] == Some(gb)
    })
}

/// Does overlap-tiling the merged member set keep the redundant-work ratio
/// within `threshold`?
fn overlap_ok(
    graph: &StageGraph,
    opts: &PipelineOptions,
    threshold: f64,
    merged: &[StageId],
    consumers: &[Vec<StageId>],
    live: &[bool],
) -> bool {
    let ndims = graph.stage(merged[0]).domain.ndims();
    // ranks must agree within a group
    if merged
        .iter()
        .any(|s| graph.stage(*s).domain.ndims() != ndims)
    {
        return false;
    }
    let (gstages, edges, ref_local, scales, live_out) =
        group_geometry(graph, merged, consumers, live);
    let stats = evaluate_tiling(
        &gstages,
        &edges,
        ref_local,
        &scales,
        &live_out,
        &opts.tiles_for_rank(ndims),
    );
    stats.work_ratio() <= threshold
}

/// Order groups topologically (Kahn over the group DAG); stages within each
/// group are already id-sorted, which is a valid intra-group schedule.
fn order_groups(
    graph: &StageGraph,
    members: &[Vec<StageId>],
    group_of: &[Option<usize>],
) -> Grouping {
    let live: Vec<usize> = (0..members.len())
        .filter(|g| !members[*g].is_empty())
        .collect();
    let mut indeg = vec![0usize; members.len()];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    for (p, c) in graph.edge_ends() {
        let (Some(gp), Some(gc)) = (group_of[p.0], group_of[c.0]) else {
            continue;
        };
        if gp != gc {
            succ[gp].push(gc);
        }
    }
    for s in succ.iter_mut() {
        s.sort();
        s.dedup();
    }
    for g in &live {
        for c in &succ[*g] {
            indeg[*c] += 1;
        }
    }
    // Kahn, preferring lower min-stage-id for a deterministic, source-like order
    let mut ready: Vec<usize> = live.iter().copied().filter(|g| indeg[*g] == 0).collect();
    let mut out = Vec::with_capacity(live.len());
    while !ready.is_empty() {
        ready.sort_by_key(|g| members[*g].first().map(|s| s.0).unwrap_or(usize::MAX));
        let g = ready.remove(0);
        out.push(members[g].clone());
        for c in &succ[g] {
            indeg[*c] -= 1;
            if indeg[*c] == 0 {
                ready.push(*c);
            }
        }
    }
    assert_eq!(out.len(), live.len(), "group DAG has a cycle");
    Grouping { groups: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{PipelineOptions, Variant};
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d};
    use gmg_ir::{ParamBindings, Pipeline, StepCount};

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    fn smoother_pipeline(steps: usize) -> (Pipeline, gmg_ir::StageGraph) {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 255, 1);
        let f = p.input("F", 2, 255, 1);
        let sm = p.tstencil(
            "sm",
            2,
            255,
            1,
            StepCount::Fixed(steps),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        p.mark_output(sm);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        (p, g)
    }

    #[test]
    fn naive_keeps_singletons() {
        let (p, g) = smoother_pipeline(4);
        let opts = PipelineOptions::for_variant(Variant::Naive, 2);
        let grouping = auto_group(&p, &g, &opts);
        assert_eq!(grouping.groups.len(), 4);
        assert_eq!(grouping.max_group_size(), 1);
    }

    #[test]
    fn smoother_chain_fuses() {
        let (p, g) = smoother_pipeline(4);
        let mut opts = PipelineOptions::for_variant(Variant::Opt, 2);
        opts.tile_sizes = vec![32, 64];
        let grouping = auto_group(&p, &g, &opts);
        assert_eq!(grouping.groups.len(), 1, "4 steps fit the limit of 6");
        assert_eq!(grouping.groups[0].len(), 4);
        // schedule order within group
        let ids: Vec<usize> = grouping.groups[0].iter().map(|s| s.0).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn group_limit_respected() {
        let (p, g) = smoother_pipeline(10);
        let mut opts = PipelineOptions::for_variant(Variant::Opt, 2);
        opts.group_limit = 4;
        opts.tile_sizes = vec![32, 64];
        let grouping = auto_group(&p, &g, &opts);
        assert!(grouping.max_group_size() <= 4);
        assert!(grouping.groups.len() >= 3);
        // union of groups covers all 10 steps exactly once
        let total: usize = grouping.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn overlap_threshold_blocks_merges() {
        let (p, g) = smoother_pipeline(6);
        let mut opts = PipelineOptions::for_variant(Variant::Opt, 2);
        // tiny tiles → huge redundancy → merging blocked
        opts.tile_sizes = vec![4, 4];
        let grouping = group_within(&p, &g, &opts, 1.1, &g.consumers(), &live_stages(&g));
        assert_eq!(grouping.max_group_size(), 1);
    }

    #[test]
    fn restrict_fuses_across_levels() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 255, 1);
        let d = p.function(
            "defect",
            2,
            255,
            1,
            stencil_2d(Operand::Func(v), &five(), 1.0),
        );
        let r = p.restrict_fn("r", 2, 127, 0, restrict_full_weighting_2d(Operand::Func(d)));
        p.mark_output(r);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let mut opts = PipelineOptions::for_variant(Variant::Opt, 2);
        opts.tile_sizes = vec![32, 64];
        let grouping = auto_group(&p, &g, &opts);
        assert_eq!(
            grouping.groups.len(),
            1,
            "defect+restrict should fuse (residual-restriction fusion)"
        );
    }

    #[test]
    fn dtile_keeps_smoother_separate() {
        let mut p = Pipeline::new("t");
        let v = p.input("V", 2, 255, 1);
        let f = p.input("F", 2, 255, 1);
        let sm = p.tstencil(
            "sm",
            2,
            255,
            1,
            StepCount::Fixed(4),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five(), 1.0) - Operand::Func(f).at(&[0, 0])),
        );
        let d = p.function(
            "defect",
            2,
            255,
            1,
            stencil_2d(Operand::Func(sm), &five(), 1.0) - Operand::Func(f).at(&[0, 0]),
        );
        p.mark_output(d);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        let mut opts = PipelineOptions::for_variant(Variant::DtileOptPlus, 2);
        opts.tile_sizes = vec![32, 64];
        let grouping = auto_group(&p, &g, &opts);
        // smoother chain together, defect separate
        assert_eq!(grouping.groups.len(), 2);
        assert_eq!(grouping.groups[0].len(), 4);
        assert_eq!(grouping.groups[1].len(), 1);
    }

    #[test]
    fn scales_derive_from_sizes() {
        let fine = BoxDomain::interior(2, 255);
        let coarse = BoxDomain::interior(2, 127);
        let s = stage_scales(&coarse, &fine);
        assert_eq!(s[0], Ratio::new(1, 2));
        let same = stage_scales(&fine, &fine);
        assert!(same[0].is_one());
    }
}
