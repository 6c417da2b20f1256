//! Plan-level invariants of the storage optimizer, checked over the full
//! benchmark matrix (every cycle shape × smoothing config × rank × variant).

use polymg_repro::compiler::{compile, CompiledPipeline, GroupTiling, PipelineOptions, Variant};
use polymg_repro::ir::{ParamBindings, StageInput, StageKind};
use polymg_repro::mg::config::{CycleType, MgConfig, SmoothSteps};
use polymg_repro::mg::cycles::build_cycle_pipeline;

fn all_plans() -> Vec<(String, CompiledPipeline)> {
    let mut out = Vec::new();
    for ndims in [2usize, 3] {
        let n = if ndims == 2 { 63 } else { 31 };
        for cycle in [CycleType::V, CycleType::W, CycleType::F] {
            for steps in [SmoothSteps::s444(), SmoothSteps::s1000()] {
                let cfg = MgConfig::new(ndims, n, cycle, steps);
                let pipeline = build_cycle_pipeline(&cfg);
                for variant in Variant::all() {
                    let mut opts = PipelineOptions::for_variant(variant, ndims);
                    opts.tile_sizes = if ndims == 2 {
                        vec![16, 32]
                    } else {
                        vec![8, 8, 16]
                    };
                    let plan = compile(&pipeline, &ParamBindings::new(), opts)
                        .unwrap_or_else(|e| panic!("{}: {e:?}", cfg.tag()));
                    out.push((format!("{}/{}", cfg.tag(), variant.label()), plan));
                }
            }
        }
    }
    out
}

/// Every live compute stage appears in exactly one group; inputs in none.
#[test]
fn groups_partition_live_stages() {
    for (tag, plan) in all_plans() {
        let mut seen = vec![0usize; plan.graph.stages.len()];
        for g in &plan.groups {
            for s in &g.stages {
                seen[s.0] += 1;
                assert_eq!(
                    plan.graph.stage(*s).kind,
                    StageKind::Compute,
                    "{tag}: input stage in a group"
                );
            }
        }
        let live = polymg::grouping::live_stages(&plan.graph);
        for (i, st) in plan.graph.stages.iter().enumerate() {
            let expected = usize::from(st.kind == StageKind::Compute && live[i]);
            assert_eq!(
                seen[i], expected,
                "{tag}: stage {} seen {}x",
                st.name, seen[i]
            );
        }
    }
}

/// Every stage is storable: live-outs have arrays, group-internal stages
/// have scratch slots (or both), and the output stage's array is external.
#[test]
fn every_group_stage_has_storage() {
    for (tag, plan) in all_plans() {
        for g in &plan.groups {
            for (i, s) in g.stages.iter().enumerate() {
                let has_array = plan.storage.array_of_stage[s.0].is_some();
                let has_scratch = g.scratch_slot[i].is_some();
                if g.live_out[i] {
                    assert!(has_array, "{tag}: live-out {} lacks an array", s.0);
                }
                match g.tiling {
                    GroupTiling::Untiled => {
                        assert!(g.live_out[i], "{tag}: untiled non-live-out stage")
                    }
                    GroupTiling::Overlapped { .. } => assert!(
                        has_array || has_scratch,
                        "{tag}: stage {} has no storage",
                        s.0
                    ),
                    GroupTiling::Diamond { .. } | GroupTiling::MixedChain => {
                        // only the last step is live-out; intermediates use
                        // the modulo (resp. f32 ping-pong) buffers
                        if i + 1 == g.stages.len() {
                            assert!(g.live_out[i], "{tag}: chain tail not live-out");
                        }
                    }
                }
            }
        }
        // outputs external
        for (i, st) in plan.graph.stages.iter().enumerate() {
            if st.is_output {
                let a = plan.storage.array_of_stage[i].expect("output without array");
                assert!(
                    plan.storage.arrays[a].external,
                    "{tag}: output not external"
                );
            }
        }
    }
}

/// No array serves two stages whose live ranges overlap, and no group reads
/// an array that one of its live-outs writes (the §3.2.2 constraint).
#[test]
fn no_group_reads_an_array_it_writes() {
    for (tag, plan) in all_plans() {
        for g in &plan.groups {
            let written: Vec<usize> = g
                .stages
                .iter()
                .zip(&g.live_out)
                .filter(|(_, lo)| **lo)
                .filter_map(|(s, _)| plan.storage.array_of_stage[s.0])
                .collect();
            for s in &g.stages {
                for inp in &plan.graph.stage(*s).inputs {
                    let StageInput::Stage(p) = inp else { continue };
                    // reads from outside the group resolve to p's array
                    if g.stages.contains(p) {
                        continue;
                    }
                    if let Some(pa) = plan.storage.array_of_stage[p.0] {
                        assert!(
                            !written.contains(&pa),
                            "{tag}: group writes array {pa} while reading it (stage {})",
                            plan.graph.stage(*p).name
                        );
                    }
                }
            }
        }
    }
}

/// The pooled alloc/free schedule is well-formed: allocation strictly
/// before every use, free after the last reading group, nothing double
/// freed or used-after-free.
#[test]
fn pool_schedule_respects_uses() {
    for (tag, plan) in all_plans() {
        let n_arrays = plan.storage.arrays.len();
        let mut alloc_at = vec![None; n_arrays];
        let mut free_at = vec![None; n_arrays];
        for (gi, arrs) in plan.storage.alloc_before_group.iter().enumerate() {
            for &a in arrs {
                assert!(alloc_at[a].is_none(), "{tag}: array {a} allocated twice");
                alloc_at[a] = Some(gi);
            }
        }
        for (gi, arrs) in plan.storage.free_after_group.iter().enumerate() {
            for &a in arrs {
                assert!(free_at[a].is_none(), "{tag}: array {a} freed twice");
                free_at[a] = Some(gi);
            }
        }
        // every group access within [alloc, free]
        for (gi, g) in plan.groups.iter().enumerate() {
            let mut touched: Vec<usize> = Vec::new();
            for (i, s) in g.stages.iter().enumerate() {
                if g.live_out[i] {
                    touched.extend(plan.storage.array_of_stage[s.0]);
                }
                for inp in &plan.graph.stage(*s).inputs {
                    if let StageInput::Stage(p) = inp {
                        if !g.stages.contains(p) {
                            touched.extend(plan.storage.array_of_stage[p.0]);
                        }
                    }
                }
            }
            for a in touched {
                if plan.storage.arrays[a].external {
                    continue;
                }
                if let Some(al) = alloc_at[a] {
                    assert!(
                        al <= gi,
                        "{tag}: array {a} used in group {gi} before alloc {al}"
                    );
                }
                if let Some(fr) = free_at[a] {
                    assert!(
                        fr >= gi,
                        "{tag}: array {a} used in group {gi} after free {fr}"
                    );
                }
            }
        }
    }
}

/// opt+ never uses more storage than opt; both never more than naive.
#[test]
fn storage_monotone_across_variants() {
    for ndims in [2usize, 3] {
        let n = if ndims == 2 { 63 } else { 31 };
        let cfg = MgConfig::new(ndims, n, CycleType::W, SmoothSteps::s444());
        let pipeline = build_cycle_pipeline(&cfg);
        let bytes = |v: Variant| {
            let mut opts = PipelineOptions::for_variant(v, ndims);
            opts.tile_sizes = if ndims == 2 {
                vec![16, 32]
            } else {
                vec![8, 8, 16]
            };
            compile(&pipeline, &ParamBindings::new(), opts)
                .unwrap()
                .storage
                .intermediate_bytes()
        };
        let naive = bytes(Variant::Naive);
        let opt = bytes(Variant::Opt);
        let optp = bytes(Variant::OptPlus);
        assert!(optp <= opt, "{ndims}D: opt+ {optp} > opt {opt}");
        assert!(opt <= naive, "{ndims}D: opt {opt} > naive {naive}");
        assert!(
            optp * 3 < naive,
            "{ndims}D: expected a large storage reduction ({optp} vs {naive})"
        );
    }
}

/// Dead-code elimination: a 10-0-0 cycle's level-1 defect and restrict
/// feed a coarse solve with no smoothing steps, so no output reads them and
/// they never execute; a 4-4-4 cycle has no dead stage. Pinned per cycle
/// shape as (executed, compute stages); every variant agrees.
#[test]
fn dead_code_elimination_prunes_only_10_0_0_cycles() {
    let expected = [
        ("V", "4-4-4", (41, 41)),
        ("V", "10-0-0", (39, 41)),
        ("W", "4-4-4", (117, 117)),
        ("W", "10-0-0", (83, 91)),
        ("F", "4-4-4", (89, 89)),
        ("F", "10-0-0", (73, 79)),
    ];
    let mut checked = 0;
    for (tag, plan) in all_plans() {
        let executed: usize = plan.groups.iter().map(|g| g.stages.len()).sum();
        let counts = (executed, plan.graph.num_compute_stages());
        let (_, _, want) = expected
            .iter()
            .find(|(cycle, steps, _)| {
                tag.starts_with(cycle) && tag.contains(&format!("D-{steps}/"))
            })
            .unwrap_or_else(|| panic!("{tag}: no pinned count"));
        assert_eq!(counts, *want, "{tag}: (executed, compute stages)");
        checked += 1;
    }
    assert_eq!(checked, 2 * expected.len() * Variant::all().len());
}
