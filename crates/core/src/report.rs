//! Human-readable compilation reports: the grouping/storage dump that
//! corresponds to the paper's Figures 6 (grouping + storage mapping) and 7
//! (scratchpad colouring), plus summary statistics used by the benchmark
//! harness tables.

use crate::plan::{CompiledPipeline, GroupTiling};

/// Summary statistics of a compiled pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanStats {
    pub num_stages: usize,
    pub num_groups: usize,
    pub max_group_size: usize,
    pub num_overlapped_groups: usize,
    pub num_diamond_groups: usize,
    pub num_untiled_groups: usize,
    pub num_full_arrays: usize,
    pub intermediate_bytes: usize,
    pub total_scratch_buffers: usize,
    pub peak_scratch_bytes: usize,
}

/// Collect [`PlanStats`] from a plan.
pub fn stats(plan: &CompiledPipeline) -> PlanStats {
    let mut overlapped = 0;
    let mut diamond = 0;
    let mut untiled = 0;
    for g in &plan.groups {
        match g.tiling {
            GroupTiling::Overlapped { .. } => overlapped += 1,
            GroupTiling::MixedChain | GroupTiling::Diamond { .. } => diamond += 1,
            GroupTiling::Untiled => untiled += 1,
        }
    }
    PlanStats {
        num_stages: plan.graph.num_compute_stages(),
        num_groups: plan.groups.len(),
        max_group_size: plan
            .groups
            .iter()
            .map(|g| g.stages.len())
            .max()
            .unwrap_or(0),
        num_overlapped_groups: overlapped,
        num_diamond_groups: diamond,
        num_untiled_groups: untiled,
        num_full_arrays: plan.storage.num_intermediate_arrays(),
        intermediate_bytes: plan.storage.intermediate_bytes(),
        total_scratch_buffers: plan.total_scratch_buffers(),
        peak_scratch_bytes: plan.peak_scratch_bytes(),
    }
}

/// Memory behaviour of one run, pairing the *predicted* numbers from the
/// compiled plan with the *observed* counters the runtime incremented while
/// executing it (via `gmg-trace`). `reproduce memory` and the Fig-11b table
/// both derive their byte columns from this, so a mismatch between what the
/// planner promised and what the pool actually served is visible directly.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedMemory {
    /// Plan-predicted bytes of full intermediate arrays.
    pub plan_intermediate_bytes: usize,
    /// Plan-predicted peak scratchpad bytes per thread.
    pub plan_peak_scratch_bytes: usize,
    /// Pool counters observed while running (hits/misses/alloc/peak).
    pub pool: gmg_trace::PoolSnapshot,
    /// Scratchpad arenas created vs recycled across tiles.
    pub arena_created: u64,
    pub arena_recycled: u64,
}

impl ObservedMemory {
    /// Fraction of buffer requests served from the pool's free lists.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool.hits + self.pool.misses;
        if total == 0 {
            return 0.0;
        }
        self.pool.hits as f64 / total as f64
    }
}

/// Combine a compiled plan's static storage prediction with the runtime
/// counters captured in a [`gmg_trace::Report`].
pub fn observed_memory(plan: &CompiledPipeline, report: &gmg_trace::Report) -> ObservedMemory {
    ObservedMemory {
        plan_intermediate_bytes: plan.storage.intermediate_bytes(),
        plan_peak_scratch_bytes: plan.peak_scratch_bytes(),
        pool: report.pool,
        arena_created: report.arena_created,
        arena_recycled: report.arena_recycled,
    }
}

/// Render a [`gmg_trace::Report`] alongside the plan's predictions as a
/// human-readable observability section: per-stage times, the kernel
/// dispatch histogram, and pooled-allocation behaviour.
pub fn observability_dump(plan: &CompiledPipeline, report: &gmg_trace::Report) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "observed execution of '{}':", plan.graph.pipeline_name);
    let total_ns: u64 = report.stages.iter().map(|s| s.ns).sum();
    for s in &report.stages {
        let pct = if total_ns == 0 {
            0.0
        } else {
            100.0 * s.ns as f64 / total_ns as f64
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>10.3} ms {:>5.1}%  {:>8} tiles  {:>12} cells  [{}]",
            s.name,
            s.ns as f64 / 1e6,
            pct,
            s.tiles,
            s.cells,
            s.kind
        );
    }
    if !report.ops.is_empty() {
        let op_total: u64 = report.ops.iter().map(|o| o.ns).sum();
        let _ = writeln!(out, "  schedule timeline ({} ops):", report.ops.len());
        for o in &report.ops {
            let pct = if op_total == 0 {
                0.0
            } else {
                100.0 * o.ns as f64 / op_total as f64
            };
            let _ = writeln!(
                out,
                "    op {:>3} {:<14} {:>10.3} ms {:>5.1}%  ×{}",
                o.index,
                o.mnemonic,
                o.ns as f64 / 1e6,
                pct,
                o.invocations
            );
        }
    }
    if report.plan_cache.hits + report.plan_cache.misses > 0 {
        let _ = writeln!(
            out,
            "  plan cache: {} hits / {} misses",
            report.plan_cache.hits, report.plan_cache.misses
        );
    }
    let _ = write!(out, "  dispatch:");
    for (label, count) in gmg_trace::dispatch::LABELS.iter().zip(report.dispatch) {
        if count > 0 {
            let _ = write!(out, " {label}={count}");
        }
    }
    let _ = writeln!(out);
    if report.kernel_impls.iter().any(|&c| c > 0) {
        let _ = write!(out, "  kernel impls:");
        for (label, count) in gmg_trace::dispatch::IMPL_LABELS
            .iter()
            .zip(report.kernel_impls)
        {
            if count > 0 {
                let _ = write!(out, " {label}={count}");
            }
        }
        let _ = writeln!(out);
    }
    if report.kernel_tiers.iter().any(|&c| c > 0) {
        let _ = write!(out, "  kernel tiers:");
        for (label, count) in gmg_trace::dispatch::TIER_LABELS
            .iter()
            .zip(report.kernel_tiers)
        {
            if count > 0 {
                let _ = write!(out, " {label}={count}");
            }
        }
        let _ = writeln!(out);
    }
    if report.threads.regions > 0 {
        let _ = writeln!(
            out,
            "  threads: {} workers, {} regions / {} items, {} parks",
            report.threads.workers,
            report.threads.regions,
            report.threads.items,
            report.threads.parks,
        );
    }
    let mem = observed_memory(plan, report);
    let _ = writeln!(
        out,
        "  pool: {} hits / {} misses ({:.1}% hit), {} KiB allocated, {} KiB peak live",
        mem.pool.hits,
        mem.pool.misses,
        100.0 * mem.pool_hit_rate(),
        mem.pool.allocated_bytes / 1024,
        mem.pool.peak_live_bytes / 1024,
    );
    let _ = writeln!(
        out,
        "  plan predicted: {} KiB intermediates, {} KiB peak scratch",
        mem.plan_intermediate_bytes / 1024,
        mem.plan_peak_scratch_bytes / 1024,
    );
    let _ = writeln!(
        out,
        "  arenas: {} created, {} recycled",
        mem.arena_created, mem.arena_recycled
    );
    let tp = &report.tile_plan;
    let _ = writeln!(
        out,
        "  tile plans: {} built ({} tiles, {} stage-tiles, {} KiB), {} KiB worker scratch",
        tp.builds,
        tp.tiles,
        tp.stage_tiles,
        tp.plan_bytes / 1024,
        tp.scratch_bytes / 1024
    );
    out
}

/// Render the Figure-6/7 style dump: one block per group listing its stages,
/// their storage kind (scratchpad colour or full-array id) and the tiling.
pub fn grouping_dump(plan: &CompiledPipeline) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline '{}': {} stages, {} groups",
        plan.graph.pipeline_name,
        plan.graph.num_compute_stages(),
        plan.groups.len()
    );
    for (gi, g) in plan.groups.iter().enumerate() {
        let tiling = match &g.tiling {
            GroupTiling::Untiled => "untiled".to_string(),
            GroupTiling::MixedChain => "mixed-chain f32".to_string(),
            GroupTiling::Overlapped { tile_sizes, .. } => {
                format!("overlapped tiles {tile_sizes:?}")
            }
            GroupTiling::Diamond {
                tile_w,
                band_h,
                radius,
            } => format!("diamond w={tile_w} h={band_h} r={radius}"),
        };
        let _ = writeln!(out, "group {gi} [{tiling}]");
        for (i, sid) in g.stages.iter().enumerate() {
            let st = plan.graph.stage(*sid);
            let mut storage = Vec::new();
            if let Some(b) = g.scratch_slot[i] {
                storage.push(format!("scratch#{b}"));
            }
            if g.live_out[i] {
                let arr = plan.storage.array_of_stage[sid.0]
                    .map(|a| {
                        let spec = &plan.storage.arrays[a];
                        if spec.external {
                            format!("array#{a} (external)")
                        } else {
                            format!("array#{a}")
                        }
                    })
                    .unwrap_or_else(|| "?".to_string());
                storage.push(format!("live-out → {arr}"));
            }
            let _ = writeln!(out, "  {:<24} {}", st.name, storage.join(", "));
        }
        if !g.scratch_buffers.is_empty() {
            let bufs: Vec<String> = g
                .scratch_buffers
                .iter()
                .map(|b| format!("{:?}={}el", b.extents, b.capacity))
                .collect();
            let _ = writeln!(out, "  scratchpads: {}", bufs.join(" "));
        }
    }
    let _ = writeln!(
        out,
        "full arrays: {} intermediate ({} KiB) + {} external",
        plan.storage.num_intermediate_arrays(),
        plan.storage.intermediate_bytes() / 1024,
        plan.storage.arrays.iter().filter(|a| a.external).count()
    );
    out
}

/// Render the stage DAG with its grouping as Graphviz DOT — the machine-
/// readable form of the paper's Figures 2 and 6. Groups become clusters;
/// node fill encodes storage (scratchpad colour index or full array id),
/// dashed nodes are pipeline inputs, double-peripheried nodes are outputs.
pub fn dot_dump(plan: &CompiledPipeline) -> String {
    use std::fmt::Write;
    let palette = [
        "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
    ];
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", plan.graph.pipeline_name);
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, style=filled];");

    // inputs
    for (i, st) in plan.graph.stages.iter().enumerate() {
        if st.kind == gmg_ir::StageKind::Input {
            let _ = writeln!(
                out,
                "  s{i} [label=\"{}\", style=\"dashed\", fillcolor=white];",
                st.name
            );
        }
    }
    // groups as clusters
    for (gi, g) in plan.groups.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{gi} {{");
        let tiling = match &g.tiling {
            GroupTiling::Untiled => "untiled".to_string(),
            GroupTiling::MixedChain => "mixed f32".to_string(),
            GroupTiling::Overlapped { tile_sizes, .. } => format!("overlapped {tile_sizes:?}"),
            GroupTiling::Diamond { band_h, .. } => format!("diamond h={band_h}"),
        };
        let _ = writeln!(out, "    label=\"group {gi} ({tiling})\";");
        for (i, sid) in g.stages.iter().enumerate() {
            let st = plan.graph.stage(*sid);
            let colour = match g.scratch_slot[i] {
                Some(b) => palette[b % palette.len()],
                None => "#e8e8e8",
            };
            let peri = if st.is_output { 2 } else { 1 };
            let storage = match (g.scratch_slot[i], g.live_out[i]) {
                (Some(b), true) => format!("scratch {b} → arr"),
                (Some(b), false) => format!("scratch {b}"),
                (None, _) => plan.storage.array_of_stage[sid.0]
                    .map(|a| format!("arr {a}"))
                    .unwrap_or_default(),
            };
            let _ = writeln!(
                out,
                "    s{} [label=\"{}\\n{}\", fillcolor=\"{}\", peripheries={}];",
                sid.0, st.name, storage, colour, peri
            );
        }
        let _ = writeln!(out, "  }}");
    }
    // edges
    for (p, c) in plan.graph.edge_ends() {
        let _ = writeln!(out, "  s{} -> s{};", p.0, c.0);
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::{PipelineOptions, Variant};
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::stencil_2d;
    use gmg_ir::{ParamBindings, Pipeline, StepCount};

    fn plan(v: Variant) -> CompiledPipeline {
        let mut p = Pipeline::new("rep");
        let five = vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ];
        let vg = p.input("V", 2, 127, 1);
        let fg = p.input("F", 2, 127, 1);
        let sm = p.tstencil(
            "sm",
            2,
            127,
            1,
            StepCount::Fixed(4),
            Some(vg),
            Operand::State.at(&[0, 0])
                - 0.8 * (stencil_2d(Operand::State, &five, 1.0) - Operand::Func(fg).at(&[0, 0])),
        );
        p.mark_output(sm);
        let mut o = PipelineOptions::for_variant(v, 2);
        o.tile_sizes = vec![16, 32];
        compile(&p, &ParamBindings::new(), o).unwrap()
    }

    #[test]
    fn stats_sum_to_group_count() {
        let pl = plan(Variant::OptPlus);
        let s = stats(&pl);
        assert_eq!(
            s.num_overlapped_groups + s.num_diamond_groups + s.num_untiled_groups,
            s.num_groups
        );
        assert_eq!(s.num_stages, 4);
        assert!(s.peak_scratch_bytes > 0);
    }

    #[test]
    fn dump_mentions_every_stage() {
        let pl = plan(Variant::OptPlus);
        let d = grouping_dump(&pl);
        for st in &pl.graph.stages {
            if st.kind == gmg_ir::StageKind::Compute {
                assert!(d.contains(&st.name), "dump missing {}", st.name);
            }
        }
        assert!(d.contains("scratch#"));
        assert!(d.contains("live-out"));
    }

    #[test]
    fn naive_dump_has_no_scratch() {
        let pl = plan(Variant::Naive);
        let d = grouping_dump(&pl);
        assert!(!d.contains("scratch#"));
        assert!(d.contains("untiled"));
    }

    #[test]
    fn observability_dump_reflects_counters() {
        let pl = plan(Variant::OptPlus);
        let report = gmg_trace::Report {
            meta: vec![],
            stages: vec![gmg_trace::StageReport {
                name: "sm_step0".to_string(),
                kind: "overlapped".to_string(),
                ns: 2_000_000,
                invocations: 1,
                tiles: 16,
                cells: 127 * 127,
            }],
            ops: vec![gmg_trace::OpReport {
                index: 2,
                mnemonic: "run_overlapped".to_string(),
                ns: 2_000_000,
                invocations: 1,
            }],
            plan_cache: gmg_trace::PlanCacheSnapshot {
                hits: 4,
                misses: 1,
                evictions: 0,
            },
            dispatch: {
                let mut d = [0u64; gmg_trace::dispatch::KINDS];
                d[gmg_trace::dispatch::Kind::UnitUnrolled as usize] = 16;
                d
            },
            pool: gmg_trace::PoolSnapshot {
                hits: 3,
                misses: 1,
                allocated_bytes: 4096,
                peak_live_bytes: 4096,
            },
            kernel_impls: {
                let mut k = [0u64; gmg_trace::dispatch::IMPLS];
                k[crate::KernelImpl::Stencil2D5.index()] = 16;
                k
            },
            kernel_tiers: {
                let mut k = [0u64; gmg_trace::dispatch::TIERS];
                k[crate::KernelTier::LaneSafe.index()] = 16;
                k
            },
            threads: gmg_trace::ThreadsSnapshot {
                workers: 3,
                regions: 8,
                items: 128,
                parks: 8,
            },
            tile_plan: Default::default(),
            arena_created: 2,
            arena_recycled: 14,
            arena_workers: vec![(1, 7), (1, 7)],
            chaos: Default::default(),
            server: Default::default(),
            shards: vec![],
            tuner: Default::default(),
            cycles: vec![],
        };
        let mem = observed_memory(&pl, &report);
        assert_eq!(mem.pool.hits, 3);
        assert_eq!(mem.plan_intermediate_bytes, pl.storage.intermediate_bytes());
        assert!((mem.pool_hit_rate() - 0.75).abs() < 1e-12);
        let d = observability_dump(&pl, &report);
        assert!(d.contains("sm_step0"));
        assert!(d.contains("run_overlapped"));
        assert!(d.contains("plan cache: 4 hits / 1 misses"));
        assert!(d.contains("unit_unrolled=16"));
        assert!(d.contains("stencil2d5=16"));
        assert!(d.contains("lane_safe=16"));
        assert!(d.contains("3 workers, 8 regions / 128 items, 8 parks"));
        assert!(d.contains("3 hits / 1 misses"));
        assert!(d.contains("14 recycled"));
    }

    #[test]
    fn dot_dump_is_well_formed() {
        let pl = plan(Variant::OptPlus);
        let d = dot_dump(&pl);
        assert!(d.starts_with("digraph"));
        assert!(d.trim_end().ends_with('}'));
        // one node per stage, one edge per graph edge
        for st in &pl.graph.stages {
            assert!(d.contains(&format!("\"{}", st.name)) || d.contains(&st.name));
        }
        assert_eq!(
            d.matches(" -> ").count(),
            pl.graph.edge_ends().count(),
            "edge count mismatch"
        );
        // clusters per group
        assert_eq!(d.matches("subgraph cluster_").count(), pl.groups.len());
        // inputs dashed, output double-peripheried
        assert!(d.contains("style=\"dashed\""));
        assert!(d.contains("peripheries=2"));
    }
}
