//! The schedule IR: a [`CompiledPipeline`] lowered to a flat, explicit op
//! stream — the Rust analogue of the paper's generated C (Figure 8), where
//! one cycle is literally a sequence of `pool_allocate` / ghost-fill /
//! tiled-sweep / `pool_deallocate` statements.
//!
//! [`lower`] performs the lowering once; the resulting [`ExecProgram`] is
//! position-independent data (the compiled plan's per-tile regions, shared
//! rather than copied, scratch slab layouts and time-band schedules — no
//! closures) that `gmg-runtime`'s VM interprets op by op. Making the
//! schedule first-class buys two things:
//!
//! * it is *inspectable* (`polymg-cli --dump-schedule`, [`ExecProgram::dump`]);
//! * it is *instrumentable* — the VM records one trace span per op, giving
//!   `--profile` an op-level timeline.

use crate::plan::{CompiledPipeline, GroupTiling, ScratchBufferSpec, StageKernel, TilePlan};
use crate::specialize::{classify, has_coeff_taps, unit_block, KernelImpl, KernelSel, KernelTier};
use gmg_ir::{StageId, StageInput};
use gmg_poly::diamond::{split_time_tiling, TimeBand};
use gmg_poly::BoxDomain;
use std::sync::Arc;

/// One storage slot of a program: a dense array (ghost ring included) the
/// VM binds externally or allocates itself.
#[derive(Clone, Debug)]
pub struct SlotSpec {
    /// Binding tag (external slots) / report name.
    pub name: String,
    /// Global coordinate of element 0, outermost first (all-zero for
    /// lowered programs; a hand-built program may bind a sub-grid that
    /// starts elsewhere).
    pub origin: Vec<i64>,
    /// Allocation extents including the ghost ring, outermost first.
    pub extents: Vec<i64>,
    /// Ghost-ring fill value.
    pub boundary: f64,
    /// True when the VM must bind this slot from caller-provided arrays.
    pub external: bool,
}

impl SlotSpec {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.extents.iter().product::<i64>() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One kernel input of a scheduled stage.
#[derive(Clone, Debug)]
pub enum OpInput {
    /// Identically-zero input.
    Zero,
    /// Full-array read from a program slot.
    Slot { slot: usize, boundary: f64 },
    /// Read from an earlier stage of the *same* op (scratchpad view in
    /// overlapped groups, previous parity buffer in diamond chains).
    Local { stage: usize, boundary: f64 },
}

/// A stage as scheduled inside an op: kernel + geometry, fully resolved.
#[derive(Clone, Debug)]
pub struct StageExec {
    /// Display name (trace spans, dumps).
    pub name: String,
    /// Index into [`ExecProgram::kernels`].
    pub kernel: usize,
    /// Interior iteration domain.
    pub domain: BoxDomain,
    /// Ghost/boundary value of this stage's own result.
    pub boundary: f64,
    /// Kernel inputs in slot order.
    pub ins: Vec<OpInput>,
    /// Full-array slot holding the result (`None` for scratch-resident
    /// stages of overlapped groups).
    pub slot: Option<usize>,
    /// Specialized kernel family selected at lowering time
    /// ([`KernelImpl::Generic`] = generic tap loop / interpreter).
    pub impl_tag: KernelImpl,
    /// Implementation tier of the specialized kernel (scalar unrolled vs
    /// the explicit-lane tiers), also selected at lowering time.
    pub tier: KernelTier,
    /// Unit-stride cache-block length for the lane tiers, derived from the
    /// pipeline's innermost tile extent at lowering.
    pub xblock: usize,
}

impl StageExec {
    /// The runtime kernel selection this stage was lowered to.
    pub fn sel(&self) -> KernelSel {
        KernelSel {
            impl_tag: self.impl_tag,
            tier: self.tier,
            xblock: self.xblock,
        }
    }
}

/// Where an overlapped op's scratch buffers sit in a worker's slab and
/// where each stage input comes from — everything a tile needs besides its
/// [`TilePlan`] entries, fixed at lowering.
#[derive(Clone, Debug)]
pub struct SlabLayout {
    /// Per scratch buffer: `(offset, capacity)` of its slice of the slab.
    pub buffers: Vec<(usize, usize)>,
    /// Boundary value of every stage input, stage after stage.
    pub boundaries: Vec<f64>,
    /// Parallel to `boundaries`: for an op-local input, the producer stage
    /// and the slab offset of the buffer holding its result.
    pub locals: Vec<Option<(usize, usize)>>,
    /// Per stage: where its inputs start in `boundaries` (one extra entry
    /// closes the last stage).
    pub inputs_at: Vec<usize>,
}

impl SlabLayout {
    fn new(
        stages: &[StageExec],
        scratch_slot: &[Option<usize>],
        scratch_buffers: &[ScratchBufferSpec],
    ) -> SlabLayout {
        let mut offset = 0;
        let buffers: Vec<(usize, usize)> = scratch_buffers
            .iter()
            .map(|b| {
                offset += b.capacity;
                (offset - b.capacity, b.capacity)
            })
            .collect();
        let (mut boundaries, mut locals, mut inputs_at) = (Vec::new(), Vec::new(), vec![0]);
        for st in stages {
            for inp in &st.ins {
                let (boundary, local) = match inp {
                    OpInput::Zero => (0.0, None),
                    OpInput::Slot { boundary, .. } => (*boundary, None),
                    OpInput::Local { stage, boundary } => {
                        let b = scratch_slot[*stage].expect("op-local producer without scratch");
                        (*boundary, Some((*stage, buffers[b].0)))
                    }
                };
                boundaries.push(boundary);
                locals.push(local);
            }
            inputs_at.push(boundaries.len());
        }
        SlabLayout {
            buffers,
            boundaries,
            locals,
            inputs_at,
        }
    }

    /// Elements of a worker's slab the op uses.
    pub fn scratch_len(&self) -> usize {
        self.buffers.last().map_or(0, |&(off, cap)| off + cap)
    }
}

/// One step of the schedule.
#[derive(Clone, Debug)]
pub enum ExecOp {
    /// Per-cycle `malloc` of a non-pooled intermediate (zero-initialised).
    MallocFresh { slot: usize },
    /// `pool_allocate` at the §3.2.3 alloc point.
    PoolAlloc { slot: usize },
    /// Fill the slot's ghost ring with its boundary value.
    FillGhost { slot: usize },
    /// Full-domain sweep of a single stage, parallel over outer rows.
    RunUntiledStage { stage: StageExec },
    /// Overlapped-tile sweep of a fused group with scratchpads.
    RunOverlappedGroup {
        stages: Vec<StageExec>,
        live_out: Vec<bool>,
        scratch_slot: Vec<Option<usize>>,
        scratch_buffers: Vec<ScratchBufferSpec>,
        /// The group's per-tile regions, shared with the compiled plan.
        tile_plan: Arc<TilePlan>,
        slab: SlabLayout,
    },
    /// Single-precision smoother chain: state converts f64→f32 once, the
    /// sweeps run on f32 ping-pong buffers, the final step converts back
    /// into `out_slot`.
    RunMixedChain {
        /// One `StageExec` per time step.
        stages: Vec<StageExec>,
        /// Slot receiving the final step's value.
        out_slot: usize,
    },
    /// Diamond/split time-tiled smoother chain with two modulo buffers.
    RunDiamondChain {
        /// One `StageExec` per time step.
        stages: Vec<StageExec>,
        /// Precomputed split-tiling bands.
        schedule: Vec<TimeBand>,
        radius: i64,
        /// Slot receiving the final step's value.
        out_slot: usize,
    },
    /// Copy `region` of `src` into `dst` (same global coordinates).
    CopyLiveOut {
        src: usize,
        dst: usize,
        region: BoxDomain,
    },
    /// `pool_deallocate` at the §3.2.3 free point.
    PoolFree { slot: usize },
}

impl ExecOp {
    /// Short lowercase op name (trace timeline rows, dumps).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ExecOp::MallocFresh { .. } => "malloc_fresh",
            ExecOp::PoolAlloc { .. } => "pool_alloc",
            ExecOp::FillGhost { .. } => "fill_ghost",
            ExecOp::RunUntiledStage { .. } => "run_untiled",
            ExecOp::RunOverlappedGroup { .. } => "run_overlapped",
            ExecOp::RunMixedChain { .. } => "run_mixed_chain",
            ExecOp::RunDiamondChain { .. } => "run_diamond",
            ExecOp::CopyLiveOut { .. } => "copy_live_out",
            ExecOp::PoolFree { .. } => "pool_free",
        }
    }

    /// Every program slot this op touches (reads or writes), unordered.
    /// Ghost fills count as uses: a pooled buffer must already be allocated
    /// when its ring is filled.
    pub fn slots_used(&self) -> Vec<usize> {
        fn ins_slots(acc: &mut Vec<usize>, stage: &StageExec) {
            if let Some(s) = stage.slot {
                acc.push(s);
            }
            for i in &stage.ins {
                if let OpInput::Slot { slot, .. } = i {
                    acc.push(*slot);
                }
            }
        }
        let mut acc = Vec::new();
        match self {
            ExecOp::MallocFresh { slot }
            | ExecOp::PoolAlloc { slot }
            | ExecOp::FillGhost { slot }
            | ExecOp::PoolFree { slot } => acc.push(*slot),
            ExecOp::RunUntiledStage { stage } => ins_slots(&mut acc, stage),
            ExecOp::RunOverlappedGroup { stages, .. } => {
                for s in stages {
                    ins_slots(&mut acc, s);
                }
            }
            ExecOp::RunMixedChain { stages, out_slot }
            | ExecOp::RunDiamondChain {
                stages, out_slot, ..
            } => {
                acc.push(*out_slot);
                for s in stages {
                    ins_slots(&mut acc, s);
                }
            }
            ExecOp::CopyLiveOut { src, dst, .. } => {
                acc.push(*src);
                acc.push(*dst);
            }
        }
        acc.sort_unstable();
        acc.dedup();
        acc
    }
}

/// A complete lowered schedule: slots + kernels + the flat op stream. The
/// VM in `gmg-runtime` interprets this directly; nothing in it refers back
/// to the producing [`CompiledPipeline`].
#[derive(Clone, Debug)]
pub struct ExecProgram {
    /// Pipeline (or synthetic program) name, for reports.
    pub name: String,
    pub slots: Vec<SlotSpec>,
    /// Kernel table; [`StageExec::kernel`] indexes into this.
    pub kernels: Vec<StageKernel>,
    pub ops: Vec<ExecOp>,
    /// Whether intermediates are pool-managed (controls run statistics).
    pub pooled: bool,
    /// Worker threads of the engine's own pool (0 = the host's parallelism).
    pub threads: usize,
}

/// Lower a compiled plan into its explicit schedule.
pub fn lower(plan: &CompiledPipeline) -> ExecProgram {
    let graph = &plan.graph;
    let pooled = plan.options.pooled_allocation;

    // Kernel table: compact the per-stage Option<StageKernel> vector.
    let mut kernel_of: Vec<Option<usize>> = vec![None; plan.kernels.len()];
    let mut kernels = Vec::new();
    for (i, k) in plan.kernels.iter().enumerate() {
        if let Some(k) = k {
            kernel_of[i] = Some(kernels.len());
            kernels.push(k.clone());
        }
    }

    let slots: Vec<SlotSpec> = plan
        .storage
        .arrays
        .iter()
        .map(|a| SlotSpec {
            name: a.tag.clone(),
            origin: vec![0; a.extents.len()],
            extents: a.extents.clone(),
            boundary: a.boundary,
            external: a.external,
        })
        .collect();

    // Resolve one stage's kernel inputs. `local_of(p)` gives the producer's
    // in-op stage index when it should be read from op-local storage.
    let stage_exec = |sid: StageId, local_of: &dyn Fn(StageId) -> Option<usize>| -> StageExec {
        let stage = graph.stage(sid);
        let ins = stage
            .inputs
            .iter()
            .map(|inp| match inp {
                StageInput::Zero => OpInput::Zero,
                StageInput::Stage(p) => {
                    let boundary = graph.stage(*p).boundary.value();
                    match local_of(*p) {
                        Some(pi) => OpInput::Local {
                            stage: pi,
                            boundary,
                        },
                        None => OpInput::Slot {
                            slot: plan.storage.array_of_stage[p.0].expect("producer without array"),
                            boundary,
                        },
                    }
                }
            })
            .collect();
        let kernel = kernel_of[sid.0].expect("input stage scheduled for execution");
        let ndims = stage.domain.ndims();
        let (impl_tag, coeff_taps) = if plan.options.specialize {
            (
                classify(&kernels[kernel], ndims),
                has_coeff_taps(&kernels[kernel]),
            )
        } else {
            (KernelImpl::Generic, false)
        };
        let tier = KernelTier::select(
            impl_tag,
            coeff_taps,
            plan.options.simd,
            plan.options.fast_math,
        );
        // Unit-stride cache block from the innermost tile extent the planner
        // already chose (scalar stages ignore it).
        let xblock = unit_block(*plan.options.tiles_for_rank(ndims).last().expect("rank >= 1"));
        StageExec {
            name: stage.name.clone(),
            kernel,
            domain: stage.domain,
            boundary: stage.boundary.value(),
            ins,
            slot: plan.storage.array_of_stage[sid.0],
            impl_tag,
            tier,
            xblock,
        }
    };

    let mut ops = Vec::new();

    // Per-cycle fresh allocations of every non-pooled intermediate, in slot
    // order, before the group loop (the VM zero-initialises on malloc, so a
    // ghost fill is only needed for non-zero boundaries).
    if !pooled {
        for (ai, spec) in slots.iter().enumerate() {
            if spec.external {
                continue;
            }
            ops.push(ExecOp::MallocFresh { slot: ai });
            if spec.boundary != 0.0 {
                ops.push(ExecOp::FillGhost { slot: ai });
            }
        }
    }

    for (gi, group) in plan.groups.iter().enumerate() {
        if pooled {
            // §3.2.3 alloc points. Pooled buffers may hold stale data from
            // an earlier tenant, so the ghost ring is always refilled.
            for &a in &plan.storage.alloc_before_group[gi] {
                ops.push(ExecOp::PoolAlloc { slot: a });
                ops.push(ExecOp::FillGhost { slot: a });
            }
        }

        match &group.tiling {
            GroupTiling::Untiled => {
                assert_eq!(group.stages.len(), 1, "untiled groups are single-stage");
                ops.push(ExecOp::RunUntiledStage {
                    stage: stage_exec(group.stages[0], &|_| None),
                });
            }
            GroupTiling::Overlapped { tile_plan, .. } => {
                // In-group producers with a scratchpad are read from it;
                // everything else comes from full arrays.
                let members = &group.stages;
                let scratch = &group.scratch_slot;
                let local_of = |p: StageId| -> Option<usize> {
                    members
                        .iter()
                        .position(|s| *s == p)
                        .filter(|pi| scratch[*pi].is_some())
                };
                let stages: Vec<StageExec> =
                    members.iter().map(|s| stage_exec(*s, &local_of)).collect();
                let slab = SlabLayout::new(&stages, scratch, &group.scratch_buffers);
                ops.push(ExecOp::RunOverlappedGroup {
                    stages,
                    live_out: group.live_out.clone(),
                    scratch_slot: group.scratch_slot.clone(),
                    scratch_buffers: group.scratch_buffers.clone(),
                    tile_plan: Arc::clone(tile_plan),
                    slab,
                });
            }
            GroupTiling::MixedChain => {
                let steps = group.stages.len();
                assert!(steps >= 1);
                assert!(
                    group.live_out.iter().take(steps - 1).all(|l| !l),
                    "mixed chain with interior live-out"
                );
                let members = &group.stages;
                let local_of =
                    |p: StageId| -> Option<usize> { members.iter().position(|s| *s == p) };
                ops.push(ExecOp::RunMixedChain {
                    stages: members.iter().map(|s| stage_exec(*s, &local_of)).collect(),
                    out_slot: plan.storage.array_of_stage[members[steps - 1].0]
                        .expect("mixed chain live-out without array"),
                });
            }
            GroupTiling::Diamond {
                tile_w,
                band_h,
                radius,
            } => {
                let steps = group.stages.len();
                assert!(steps >= 1);
                assert!(
                    group.live_out.iter().take(steps - 1).all(|l| !l),
                    "diamond chain with interior live-out"
                );
                let members = &group.stages;
                let local_of =
                    |p: StageId| -> Option<usize> { members.iter().position(|s| *s == p) };
                let n_outer = graph.stage(members[0]).domain.0[0].len();
                ops.push(ExecOp::RunDiamondChain {
                    stages: members.iter().map(|s| stage_exec(*s, &local_of)).collect(),
                    schedule: split_time_tiling(n_outer, steps, *tile_w, *band_h, *radius),
                    radius: *radius,
                    out_slot: plan.storage.array_of_stage[members[steps - 1].0]
                        .expect("diamond live-out without array"),
                });
            }
        }

        if pooled {
            for &a in &plan.storage.free_after_group[gi] {
                ops.push(ExecOp::PoolFree { slot: a });
            }
        }
    }

    ExecProgram {
        name: graph.pipeline_name.clone(),
        slots,
        kernels,
        ops,
        pooled,
        threads: plan.options.threads,
    }
}

impl ExecProgram {
    /// Human-readable schedule listing with geometry summaries (the
    /// `polymg-cli --dump-schedule` output).
    pub fn dump(&self) -> String {
        fn dims(v: &[i64]) -> String {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("x")
        }
        fn dom(d: &BoxDomain) -> String {
            d.0.iter()
                .map(|iv| format!("[{},{}]", iv.lo, iv.hi))
                .collect::<Vec<_>>()
                .join("x")
        }
        let mut s = format!(
            "program '{}': {} slots, {} kernels, {} ops ({}, threads={})\n",
            self.name,
            self.slots.len(),
            self.kernels.len(),
            self.ops.len(),
            if self.pooled { "pooled" } else { "fresh-alloc" },
            self.threads,
        );
        s.push_str("slots:\n");
        for (i, sl) in self.slots.iter().enumerate() {
            s.push_str(&format!(
                "  %{i:<3} {:<22} ext {:<12} boundary {}{}\n",
                sl.name,
                dims(&sl.extents),
                sl.boundary,
                if sl.external { "  external" } else { "" },
            ));
        }
        s.push_str("ops:\n");
        for (i, op) in self.ops.iter().enumerate() {
            let detail = match op {
                ExecOp::MallocFresh { slot }
                | ExecOp::PoolAlloc { slot }
                | ExecOp::FillGhost { slot }
                | ExecOp::PoolFree { slot } => format!("%{slot} ({})", self.slots[*slot].name),
                ExecOp::RunUntiledStage { stage } => {
                    format!(
                        "{} over {} -> %{} [{}/{}]",
                        stage.name,
                        dom(&stage.domain),
                        stage.slot.expect("untiled stage without slot"),
                        stage.impl_tag.label(),
                        stage.tier.label(),
                    )
                }
                ExecOp::RunOverlappedGroup {
                    stages,
                    live_out,
                    scratch_buffers,
                    tile_plan,
                    ..
                } => {
                    let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
                    let scratch: Vec<String> =
                        scratch_buffers.iter().map(|b| dims(&b.extents)).collect();
                    format!(
                        "[{}] tiles={} scratch=[{}] live_out={}/{}",
                        names.join(" "),
                        tile_plan.tiles(),
                        scratch.join(", "),
                        live_out.iter().filter(|l| **l).count(),
                        stages.len(),
                    )
                }
                ExecOp::RunMixedChain { stages, out_slot } => format!(
                    "{} steps={} f32 -> %{}",
                    stages.first().map(|s| s.name.as_str()).unwrap_or("<empty>"),
                    stages.len(),
                    out_slot,
                ),
                ExecOp::RunDiamondChain {
                    stages,
                    schedule,
                    radius,
                    out_slot,
                } => format!(
                    "{} steps={} bands={} radius={} -> %{}",
                    stages.first().map(|s| s.name.as_str()).unwrap_or("<empty>"),
                    stages.len(),
                    schedule.len(),
                    radius,
                    out_slot,
                ),
                ExecOp::CopyLiveOut { src, dst, region } => {
                    format!("%{src} -> %{dst} region {}", dom(region))
                }
            };
            s.push_str(&format!("  {i:>3}  {:<14} {detail}\n", op.mnemonic()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::{PipelineOptions, Variant};
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::{restrict_full_weighting_2d, stencil_2d, stencil_3d};
    use gmg_ir::{ParamBindings, Pipeline, StepCount};

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

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

    /// The two-level fragment's fine level under a variable coefficient:
    /// the smoother and the defect scale their operator taps by the
    /// coefficient grid `A`, and the squared defect (non-linear, so
    /// interpreted) is a plain `Generic` stage.
    fn varcoef_pipeline(n: i64) -> Pipeline {
        let mut p = Pipeline::new("varcoef");
        let v = p.input("V", 2, n, 1);
        let f = p.input("F", 2, n, 1);
        let a = p.coeff_input("A", 2, n, 1);
        let scaled = |u: Operand| Operand::Func(a).at(&[0, 0]) * stencil_2d(u, &five(), 1.0);
        let pre = p.tstencil(
            "pre",
            2,
            n,
            1,
            StepCount::Fixed(2),
            Some(v),
            Operand::State.at(&[0, 0])
                - 0.8 * (scaled(Operand::State) - Operand::Func(f).at(&[0, 0])),
        );
        let d = p.function(
            "defect",
            2,
            n,
            1,
            Operand::Func(f).at(&[0, 0]) - scaled(Operand::Func(pre)),
        );
        let sq = p.function(
            "square",
            2,
            n,
            1,
            Operand::Func(d).at(&[0, 0]) * Operand::Func(d).at(&[0, 0]),
        );
        p.mark_output(sq);
        p
    }

    fn seven() -> Vec<Vec<Vec<f64>>> {
        let mut w = vec![vec![vec![0.0; 3]; 3]; 3];
        w[1][1][1] = 6.0;
        w[0][1][1] = -1.0;
        w[2][1][1] = -1.0;
        w[1][0][1] = -1.0;
        w[1][2][1] = -1.0;
        w[1][1][0] = -1.0;
        w[1][1][2] = -1.0;
        w
    }

    fn smoother_3d(n: i64) -> Pipeline {
        let mut p = Pipeline::new("sm3");
        let v = p.input("V", 3, n, 1);
        let f = p.input("F", 3, n, 1);
        let pre = p.tstencil(
            "pre",
            3,
            n,
            1,
            StepCount::Fixed(3),
            Some(v),
            Operand::State.at(&[0, 0, 0])
                - 0.8
                    * (stencil_3d(Operand::State, &seven(), 1.0) - Operand::Func(f).at(&[0, 0, 0])),
        );
        let d = p.function(
            "defect",
            3,
            n,
            1,
            Operand::Func(f).at(&[0, 0, 0]) - stencil_3d(Operand::Func(pre), &seven(), 1.0),
        );
        p.mark_output(d);
        p
    }

    fn lower_variant(p: &Pipeline, v: Variant, ndims: usize) -> ExecProgram {
        let plan = compile(
            p,
            &ParamBindings::new(),
            PipelineOptions::for_variant(v, ndims),
        )
        .unwrap();
        lower(&plan)
    }

    /// §3.2.3 invariant, restated on the schedule: every pooled slot gets
    /// exactly one `PoolAlloc` before its first use and exactly one
    /// `PoolFree` after its last use.
    fn assert_pool_invariants(prog: &ExecProgram) {
        assert!(prog.pooled);
        for (si, spec) in prog.slots.iter().enumerate() {
            if spec.external {
                // externals are caller-bound, never pooled
                for op in &prog.ops {
                    assert!(
                        !matches!(op,
                            ExecOp::PoolAlloc { slot } | ExecOp::PoolFree { slot }
                            | ExecOp::MallocFresh { slot } if *slot == si),
                        "external slot %{si} managed by the schedule"
                    );
                }
                continue;
            }
            let allocs: Vec<usize> = prog
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, ExecOp::PoolAlloc { slot } if *slot == si))
                .map(|(i, _)| i)
                .collect();
            let frees: Vec<usize> = prog
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, ExecOp::PoolFree { slot } if *slot == si))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                allocs.len(),
                1,
                "slot %{si} must have exactly one PoolAlloc"
            );
            assert_eq!(frees.len(), 1, "slot %{si} must have exactly one PoolFree");
            let (alloc, free) = (allocs[0], frees[0]);
            assert!(alloc < free, "slot %{si} freed before allocated");
            for (i, op) in prog.ops.iter().enumerate() {
                if i == alloc || i == free {
                    continue;
                }
                if op.slots_used().contains(&si) {
                    assert!(
                        i > alloc && i < free,
                        "slot %{si} used at op {i} outside its [{alloc},{free}] lifetime"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_slots_alloc_once_before_first_use_free_once_after_last_2d() {
        let p = two_level_pipeline(255);
        assert_pool_invariants(&lower_variant(&p, Variant::OptPlus, 2));
        assert_pool_invariants(&lower_variant(&p, Variant::DtileOptPlus, 2));
    }

    #[test]
    fn pooled_slots_alloc_once_before_first_use_free_once_after_last_3d() {
        let p = smoother_3d(63);
        assert_pool_invariants(&lower_variant(&p, Variant::OptPlus, 3));
        assert_pool_invariants(&lower_variant(&p, Variant::DtileOptPlus, 3));
    }

    #[test]
    fn naive_lowering_is_fresh_mallocs_plus_untiled_sweeps() {
        let p = two_level_pipeline(255);
        let prog = lower_variant(&p, Variant::Naive, 2);
        assert!(!prog.pooled);
        let n_stages = prog
            .ops
            .iter()
            .filter(|op| matches!(op, ExecOp::RunUntiledStage { .. }))
            .count();
        let n_malloc = prog
            .ops
            .iter()
            .filter(|op| matches!(op, ExecOp::MallocFresh { .. }))
            .count();
        let n_intermediate = prog.slots.iter().filter(|s| !s.external).count();
        assert_eq!(n_malloc, n_intermediate);
        assert!(n_stages > 0);
        assert!(prog
            .ops
            .iter()
            .all(|op| !matches!(op, ExecOp::PoolAlloc { .. } | ExecOp::PoolFree { .. })));
        // mallocs all precede the first sweep
        let first_run = prog
            .ops
            .iter()
            .position(|op| matches!(op, ExecOp::RunUntiledStage { .. }))
            .unwrap();
        for (i, op) in prog.ops.iter().enumerate() {
            if matches!(op, ExecOp::MallocFresh { .. }) {
                assert!(i < first_run);
            }
        }
    }

    #[test]
    fn overlapped_ops_carry_tiles_and_dtile_carries_bands() {
        let p = two_level_pipeline(255);
        let prog = lower_variant(&p, Variant::OptPlus, 2);
        let has_overlapped = prog.ops.iter().any(
            |op| matches!(op, ExecOp::RunOverlappedGroup { tile_plan, .. } if tile_plan.tiles() > 0),
        );
        assert!(has_overlapped, "opt+ schedule must contain tiled groups");

        let prog = lower_variant(&p, Variant::DtileOptPlus, 2);
        let diamond = prog.ops.iter().find_map(|op| match op {
            ExecOp::RunDiamondChain {
                stages, schedule, ..
            } => Some((stages, schedule)),
            _ => None,
        });
        let (stages, schedule) = diamond.expect("dtile schedule must contain a diamond chain");
        assert_eq!(stages.len(), 4, "4 smoother steps");
        assert!(!schedule.is_empty());
        // consecutive steps read the previous step locally
        for (t, st) in stages.iter().enumerate().skip(1) {
            assert!(st
                .ins
                .iter()
                .any(|i| matches!(i, OpInput::Local { stage, .. } if *stage == t - 1)));
        }
    }

    #[test]
    fn lowering_tags_stencil_restrict_and_interp_kernels() {
        use crate::specialize::KernelImpl;
        fn stages_of(prog: &ExecProgram) -> Vec<&StageExec> {
            let mut out = Vec::new();
            for op in &prog.ops {
                match op {
                    ExecOp::RunUntiledStage { stage } => out.push(stage),
                    ExecOp::RunOverlappedGroup { stages, .. }
                    | ExecOp::RunDiamondChain { stages, .. } => out.extend(stages.iter()),
                    _ => {}
                }
            }
            out
        }

        let p = two_level_pipeline(255);
        let prog = lower_variant(&p, Variant::OptPlus, 2);
        let tags: Vec<KernelImpl> = stages_of(&prog).iter().map(|s| s.impl_tag).collect();
        // the V-cycle fragment exercises every 2-D family
        assert!(tags.contains(&KernelImpl::Stencil2D5), "{tags:?}");
        assert!(tags.contains(&KernelImpl::Restrict), "{tags:?}");
        assert!(tags.contains(&KernelImpl::Interp), "{tags:?}");

        let p3 = smoother_3d(63);
        let prog3 = lower_variant(&p3, Variant::Naive, 3);
        let tags3: Vec<KernelImpl> = stages_of(&prog3).iter().map(|s| s.impl_tag).collect();
        assert!(tags3.contains(&KernelImpl::Stencil3D7), "{tags3:?}");

        // the knob turns every tag off
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.specialize = false;
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let off = lower(&plan);
        assert!(stages_of(&off)
            .iter()
            .all(|s| s.impl_tag == KernelImpl::Generic));
    }

    #[test]
    fn lowering_selects_tiers_and_blocks_from_the_knobs() {
        use crate::specialize::{KernelImpl, KernelTier};
        fn stages_of(prog: &ExecProgram) -> Vec<&StageExec> {
            let mut out = Vec::new();
            for op in &prog.ops {
                match op {
                    ExecOp::RunUntiledStage { stage } => out.push(stage),
                    ExecOp::RunOverlappedGroup { stages, .. }
                    | ExecOp::RunDiamondChain { stages, .. } => out.extend(stages.iter()),
                    _ => {}
                }
            }
            out
        }

        let p = two_level_pipeline(255);

        // default: every specialized stage is lane-safe, generic stays scalar
        let prog = lower_variant(&p, Variant::OptPlus, 2);
        for st in stages_of(&prog) {
            if st.impl_tag == KernelImpl::Generic {
                assert_eq!(st.tier, KernelTier::Scalar, "{}", st.name);
            } else {
                assert_eq!(st.tier, KernelTier::LaneSafe, "{}", st.name);
            }
            // 2-D default tiles are 32x512 -> innermost 512, clamped up to
            // the minimum useful block
            assert_eq!(st.xblock, 1024, "{}", st.name);
        }
        assert!(stages_of(&prog)
            .iter()
            .any(|s| s.tier == KernelTier::LaneSafe));

        // --no-simd: everything scalar, tags untouched
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.simd = false;
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let off = lower(&plan);
        assert!(stages_of(&off).iter().all(|s| s.tier == KernelTier::Scalar));
        assert!(stages_of(&off)
            .iter()
            .any(|s| s.impl_tag != KernelImpl::Generic));

        // --fast-math: specialized stages move to the reassociating tier
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.fast_math = true;
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let fm = lower(&plan);
        for st in stages_of(&fm) {
            if st.impl_tag == KernelImpl::Generic {
                assert_eq!(st.tier, KernelTier::Scalar, "{}", st.name);
            } else {
                assert_eq!(st.tier, KernelTier::FastMath, "{}", st.name);
            }
        }

        // a variable-coefficient plan: the stages with coefficient taps keep
        // the tag `Generic` and get the tier a specialized stage gets, but
        // only while `specialize` is on; plain `Generic` stages stay scalar
        let vc = varcoef_pipeline(63);
        type Knob = fn(&mut PipelineOptions);
        let knobs: [(Knob, KernelTier); 4] = [
            (|_| {}, KernelTier::LaneSafe),
            (|o| o.fast_math = true, KernelTier::FastMath),
            (|o| o.simd = false, KernelTier::Scalar),
            (|o| o.specialize = false, KernelTier::Scalar),
        ];
        for (knob, coeff_tier) in knobs {
            let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
            knob(&mut opts);
            let prog = lower(&compile(&vc, &ParamBindings::new(), opts).unwrap());
            let (mut coeff, mut plain_generic) = (0, 0);
            for st in stages_of(&prog) {
                if has_coeff_taps(&prog.kernels[st.kernel]) {
                    coeff += 1;
                    assert_eq!(st.impl_tag, KernelImpl::Generic, "{}", st.name);
                    assert_eq!(st.tier, coeff_tier, "{}", st.name);
                } else if st.impl_tag == KernelImpl::Generic {
                    plain_generic += 1;
                    assert_eq!(st.tier, KernelTier::Scalar, "{}", st.name);
                }
            }
            assert!(coeff >= 3, "smoother steps and defect: {coeff}");
            assert!(plain_generic >= 1, "the squared defect");
        }

        // tiny innermost tiles clamp up to the minimum block
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.tile_sizes = vec![8, 16];
        let plan = compile(&p, &ParamBindings::new(), opts).unwrap();
        let small = lower(&plan);
        assert!(stages_of(&small)
            .iter()
            .all(|s| s.xblock == crate::specialize::UNIT_BLOCK_MIN));
    }

    #[test]
    fn dump_lists_every_op_and_slot() {
        let p = two_level_pipeline(63);
        let prog = lower_variant(&p, Variant::DtileOptPlus, 2);
        let d = prog.dump();
        for (i, op) in prog.ops.iter().enumerate() {
            assert!(d.contains(op.mnemonic()), "dump missing op {i}");
        }
        for sl in &prog.slots {
            assert!(d.contains(&sl.name), "dump missing slot {}", sl.name);
        }
        assert!(d.contains("tiles=") || d.contains("bands="));
    }
}
