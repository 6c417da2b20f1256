//! The compiled execution plan — everything `gmg-runtime` needs to run a
//! pipeline, and the Rust analogue of the paper's generated C (Figure 8):
//! group loop structure, tile shapes, scratchpad declarations with reuse,
//! full-array allocations and the pooled alloc/free points.

use crate::options::PipelineOptions;
use gmg_ir::{Expr, LinearForm, ParityPattern, StageGraph, StageId};
use gmg_poly::tiling::TileRegion;
use gmg_poly::{Axes, BoxDomain, Interval, Ratio};
use std::sync::Arc;

/// Executable form of one parity case.
#[derive(Clone, Debug)]
pub enum KernelBody {
    /// Flat tap list — executed by the specialised stencil loops.
    Linear(LinearForm),
    /// Fallback: evaluated by the reference interpreter.
    Interpreted(Expr),
}

/// One parity case of a stage kernel.
#[derive(Clone, Debug)]
pub struct KernelCase {
    pub pattern: ParityPattern,
    pub body: KernelBody,
}

/// A lowered stage definition.
#[derive(Clone, Debug)]
pub struct StageKernel {
    pub cases: Vec<KernelCase>,
}

impl StageKernel {
    /// True when every case is linear (specialised execution possible).
    pub fn fully_linear(&self) -> bool {
        self.cases
            .iter()
            .all(|c| matches!(c.body, KernelBody::Linear(_)))
    }
}

/// Execution strategy of one group.
#[derive(Clone, Debug)]
pub enum GroupTiling {
    /// Full-domain sweeps, stage after stage (parallel over rows).
    Untiled,
    /// Overlapped tiling over the reference stage's domain.
    Overlapped {
        /// Index (into `GroupPlan::stages`) of the reference (finest) stage.
        ref_stage_local: usize,
        /// Tile sizes in the reference space, outermost first.
        tile_sizes: Vec<i64>,
        /// Per group-stage, per dimension: stage-space / reference-space
        /// scale.
        scales: Vec<Vec<Ratio>>,
        /// Every tile's per-stage regions, shared with every program
        /// lowered from this plan.
        tile_plan: Arc<TilePlan>,
    },
    /// Single-precision execution of a pure smoother chain: the chain's
    /// state converts f64→f32 once, sweeps run on f32 ping-pong buffers,
    /// and the final step converts back into its full array. Carved when
    /// `PipelineOptions::mixed_precision` is set and every step is a
    /// single-case, offset-access linear kernel without coefficient
    /// factors.
    MixedChain,
    /// Diamond/split time tiling of a pure smoother chain (every stage is
    /// one step of the same `TStencil`).
    Diamond {
        /// Outer-dimension base tile width.
        tile_w: i64,
        /// Time-band height.
        band_h: usize,
        /// Stencil radius of one step.
        radius: i64,
    },
}

/// What one tile does for one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTile {
    /// Points the tile evaluates; empty when the tile needs none.
    pub compute: BoxDomain,
    /// The part of `compute` written back to the stage's full array (empty
    /// for stages that are not live-out).
    pub owned: BoxDomain,
    /// Corner and extents of the scratchpad box (`compute` plus the ghost
    /// positions consumers read), right-aligned like the boxes' slots
    /// (an unused leading axis has corner 0 and extent 1); the rank's
    /// axes are [`TilePlan::scratch`].
    pub origin: [i64; 3],
    pub extents: [i64; 3],
}

/// The per-tile regions of one overlapped group: for every tile × stage
/// what [`gmg_poly::tiling::tile_walk`] derived, as the tile executor reads
/// it. Built once per compile, alongside the scratchpad bounds it also
/// yields (a compile-time constant for a fixed tile size, as in the paper),
/// and read-only afterwards.
#[derive(Debug)]
pub struct TilePlan {
    ndims: usize,
    nstages: usize,
    /// Tile-major: entry `tile · nstages + stage`.
    entries: Vec<StageTile>,
}

impl TilePlan {
    /// Collect a group's tile walk (`nstages` regions per tile, tile-major,
    /// rank `ndims` ≤ 3).
    pub(crate) fn new(
        ndims: usize,
        nstages: usize,
        walk: impl ExactSizeIterator<Item = TileRegion>,
    ) -> TilePlan {
        let entries: Vec<StageTile> = walk
            .map(|r| StageTile {
                compute: r.compute,
                owned: r.owned,
                origin: r.alloc.0.slots().map(|iv| iv.lo),
                extents: r.alloc.0.slots().map(|iv| iv.len()),
            })
            .collect();
        let plan = TilePlan {
            ndims,
            nstages,
            entries,
        };
        gmg_trace::tile_plan::record_plan(
            plan.tiles() as u64,
            plan.entries.len() as u64,
            plan.bytes() as u64,
        );
        plan
    }

    /// Rank of the group's stages.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.ndims
    }

    /// Number of tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.entries.len() / self.nstages.max(1)
    }

    /// Number of stages per tile.
    pub fn stages(&self) -> usize {
        self.nstages
    }

    /// Heap bytes the plan occupies.
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<StageTile>()
    }

    /// What `tile` does for `stage`.
    #[inline]
    pub fn entry(&self, tile: usize, stage: usize) -> &StageTile {
        &self.entries[tile * self.nstages + stage]
    }

    /// The scratchpad view of `stage` in `tile`: its corner and extents,
    /// outermost first, one per axis of the group's rank.
    #[inline]
    pub fn scratch(&self, tile: usize, stage: usize) -> (&[i64], &[i64]) {
        let e = self.entry(tile, stage);
        (&e.origin[3 - self.ndims..], &e.extents[3 - self.ndims..])
    }

    /// Per-dimension maximum of `stage`'s scratchpad extents over all tiles.
    pub(crate) fn max_extents(&self, stage: usize) -> Vec<i64> {
        let mut ext = vec![0; self.ndims];
        for t in 0..self.tiles() {
            for (m, e) in ext.iter_mut().zip(self.scratch(t, stage).1) {
                *m = (*m).max(*e);
            }
        }
        ext
    }

    /// The points `tile` evaluates for `stage`.
    pub fn compute(&self, tile: usize, stage: usize) -> BoxDomain {
        self.entry(tile, stage).compute
    }

    /// The points of `stage` that `tile` writes to the stage's full array.
    pub fn owned(&self, tile: usize, stage: usize) -> BoxDomain {
        self.entry(tile, stage).owned
    }

    /// The scratchpad box of `stage` in `tile`.
    pub fn alloc(&self, tile: usize, stage: usize) -> BoxDomain {
        let (origin, extents) = self.scratch(tile, stage);
        BoxDomain(Axes::from_fn(self.ndims, |d| {
            Interval::new(origin[d], origin[d] + extents[d] - 1)
        }))
    }
}

/// Scratchpad buffer bound for one group: the per-dimension maximum extents
/// over all tiles of the stages mapped to this buffer (compile-time constant
/// for a fixed tile size, exactly as in the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScratchBufferSpec {
    /// Max extents outermost-first.
    pub extents: Vec<i64>,
    /// Total capacity in elements (product of extents).
    pub capacity: usize,
}

/// One fused group of the plan.
#[derive(Clone, Debug)]
pub struct GroupPlan {
    /// Stages in schedule order (topological within the group).
    pub stages: Vec<StageId>,
    /// Parallel to `stages`: does the stage's value escape the group? A
    /// live-out writes the owned sub-region of its full array.
    pub live_out: Vec<bool>,
    /// Parallel to `stages`: scratchpad buffer index for stages consumed
    /// *inside* the group (their tile-overlap region is computed into the
    /// scratchpad; a stage can be both live-out and scratch-resident, in
    /// which case its owned region is copied from scratch to the array).
    pub scratch_slot: Vec<Option<usize>>,
    /// Scratchpad buffers of this group (per worker thread at runtime).
    pub scratch_buffers: Vec<ScratchBufferSpec>,
    pub tiling: GroupTiling,
}

/// A full-array allocation.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Allocation extents *including* the ghost ring, outermost first.
    pub extents: Vec<i64>,
    /// Ghost-ring fill value.
    pub boundary: f64,
    /// True for pipeline inputs/outputs — user-provided, never pooled or
    /// reused (§3.2.2: "program input and output arrays are not considered
    /// to be available to serve as reuse buffers").
    pub external: bool,
    /// Human-readable tag for reports (first stage mapped here).
    pub tag: String,
}

/// Full-array storage assignment and pooled alloc/free schedule.
#[derive(Clone, Debug)]
pub struct StoragePlan {
    /// Per stage: the full array holding its value (`Some` for inputs and
    /// live-outs, `None` for scratchpad-resident stages).
    pub array_of_stage: Vec<Option<usize>>,
    /// Array table.
    pub arrays: Vec<ArraySpec>,
    /// Arrays to (pool-)allocate immediately before executing group `i`.
    pub alloc_before_group: Vec<Vec<usize>>,
    /// Arrays to release immediately after executing group `i` (their last
    /// reader has finished) — the generated `pool_deallocate` calls.
    pub free_after_group: Vec<Vec<usize>>,
}

impl StoragePlan {
    /// Total bytes of non-external full arrays (the intermediate-storage
    /// footprint the paper's inter-group reuse minimises).
    pub fn intermediate_bytes(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| !a.external)
            .map(|a| a.extents.iter().product::<i64>() as usize * std::mem::size_of::<f64>())
            .sum()
    }

    /// Number of distinct non-external arrays.
    pub fn num_intermediate_arrays(&self) -> usize {
        self.arrays.iter().filter(|a| !a.external).count()
    }
}

/// The complete compiled pipeline.
#[derive(Clone, Debug)]
pub struct CompiledPipeline {
    pub graph: StageGraph,
    /// Per stage (None for inputs).
    pub kernels: Vec<Option<StageKernel>>,
    /// Groups in execution (topological) order.
    pub groups: Vec<GroupPlan>,
    pub storage: StoragePlan,
    pub options: PipelineOptions,
}

impl CompiledPipeline {
    /// Peak per-thread scratchpad bytes across groups.
    pub fn peak_scratch_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.scratch_buffers
                    .iter()
                    .map(|b| b.capacity * std::mem::size_of::<f64>())
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Count of scratch buffers summed over groups (Figure 7's coloring
    /// quality metric: lower = more reuse).
    pub fn total_scratch_buffers(&self) -> usize {
        self.groups.iter().map(|g| g.scratch_buffers.len()).sum()
    }
}
