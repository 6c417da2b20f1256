//! The compiled tile plans and engine-owned scratch of overlapped ops:
//!
//! * every overlapped op carries its plan before the first run, shared with
//!   the compiled plan, and every tile × stage entry equals backward region
//!   propagation recomputed here from the compiled groups;
//! * scratch is never read before it is written (poisoning all of it
//!   between cycles changes no output bit);
//! * a warm cycle's heap allocations do not depend on the number of tiles.

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::{setup_poisson, DslRunner};
use gmg_poly::region::{propagate_regions, GroupStage};
use gmg_poly::tiling::{owned_region, tile_partition};
use gmg_poly::BoxDomain;
use gmg_runtime::BatchRhs;
use polymg::grouping::{group_geometry, live_stages};
use polymg::schedule::ExecOp;
use polymg::{GroupTiling, PipelineOptions, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's heap allocations (every engine here runs on
/// one thread, and tests of this binary run side by side).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System`; the counter is a const-initialised
// thread-local without a destructor, so touching it cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A `V-*-4-4-4` `OptPlus` runner on one thread with small tiles, so every
/// level above the coarsest has several tiles.
fn runner(ndims: usize, n: i64) -> (MgConfig, DslRunner) {
    let cfg = MgConfig::new(ndims, n, CycleType::V, SmoothSteps::s444());
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, ndims);
    opts.threads = 1;
    opts.tile_sizes = if ndims == 2 {
        vec![16, 32]
    } else {
        vec![8, 8, 16]
    };
    let r = DslRunner::new(&cfg, opts, "tile-plan").expect("compile");
    (cfg, r)
}

fn overlapped_ops(r: &DslRunner) -> Vec<usize> {
    let ops = &r.engine().program().ops;
    (0..ops.len())
        .filter(|&i| matches!(ops[i], ExecOp::RunOverlappedGroup { .. }))
        .collect()
}

fn cycle(r: &mut DslRunner, v: &[f64], f: &[f64]) -> Vec<u64> {
    let mut out = vec![0.0; v.len()];
    r.engine_mut()
        .run(&[("V", v), ("F", f)], vec![("out", &mut out)])
        .expect("cycle");
    out.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn plan_equals_region_propagation() {
    for (ndims, n) in [(2, 63), (2, 255), (3, 31)] {
        let (_, r) = runner(ndims, n);
        let engine = r.engine();
        let ops = overlapped_ops(&r);
        for &op in &ops {
            assert!(
                engine.tile_plan(op).is_some(),
                "op {op} not planned before it ran"
            );
        }

        // the oracle's inputs, rebuilt from the compiled plan: overlapped
        // groups lower to overlapped ops in order
        let compiled = engine.plan();
        let consumers = compiled.graph.consumers();
        let live = live_stages(&compiled.graph);
        let groups: Vec<_> = compiled
            .groups
            .iter()
            .filter(|g| matches!(g.tiling, GroupTiling::Overlapped { .. }))
            .collect();
        assert_eq!(groups.len(), ops.len(), "one op per overlapped group");
        let (mut multi_tile, mut entries) = (0, 0);
        for (&i, group) in ops.iter().zip(groups) {
            let GroupTiling::Overlapped {
                ref_stage_local,
                tile_sizes,
                scales,
                tile_plan,
            } = &group.tiling
            else {
                unreachable!()
            };
            let plan = engine.tile_plan(i).expect("an overlapped op is planned");
            assert!(
                std::ptr::eq(plan, &**tile_plan),
                "op {i} copies the compiled plan's table instead of sharing it"
            );
            let (gstages, edges, ..) =
                group_geometry(&compiled.graph, &group.stages, &consumers, &live);
            let tiles = tile_partition(&gstages[*ref_stage_local].domain, tile_sizes);
            assert_eq!(plan.tiles(), tiles.len());
            assert_eq!(plan.stages(), group.stages.len());
            multi_tile += (plan.tiles() > 1) as usize;
            for (t, tile) in tiles.iter().enumerate() {
                let owned = |s: usize| {
                    if group.live_out[s] {
                        owned_region(tile, &scales[s], &gstages[s].domain)
                    } else {
                        BoxDomain::empty(ndims)
                    }
                };
                let tile_stages: Vec<GroupStage> = (0..group.stages.len())
                    .map(|s| GroupStage {
                        domain: gstages[s].domain,
                        owned: owned(s),
                    })
                    .collect();
                let want = propagate_regions(&tile_stages, &edges);
                for (s, w) in want.iter().enumerate() {
                    let at = format!("{ndims}-D n {n} op {i} tile {t} stage {s}");
                    assert_eq!(plan.compute(t, s), w.compute, "compute, {at}");
                    assert_eq!(plan.owned(t, s), owned(s), "owned, {at}");
                    if !w.compute.is_empty() {
                        assert_eq!(plan.alloc(t, s), w.alloc, "alloc, {at}");
                    }
                    entries += 1;
                }
            }
        }
        assert!(
            multi_tile >= 2,
            "{ndims}-D n {n}: premise, several tiled ops"
        );
        assert!(entries > 100, "{ndims}-D n {n}: premise, {entries} entries");
    }
}

#[test]
fn poisoned_scratch_changes_no_bit() {
    for (ndims, n) in [(2, 63), (3, 31)] {
        let (cfg, mut r) = runner(ndims, n);
        let (v, f, _) = setup_poisson(&cfg);
        let first = cycle(&mut r, &v, &f);
        assert_eq!(cycle(&mut r, &v, &f), first, "warm cycle");
        // any stage reading a cell it neither filled nor computed in the
        // same tile now reads a NaN
        r.engine_mut()
            .fill_scratch(f64::from_bits(0x7ff8_dead_beef_0001));
        assert_eq!(cycle(&mut r, &v, &f), first, "{ndims}-D: after poisoning");
    }
}

#[test]
fn warm_cycle_allocations_do_not_depend_on_tile_count() {
    const RHS: usize = 8;
    // allocations of the 4th single cycle, and of a batched pass of 8
    // right-hand sides after that, with the counts of overlapped ops and
    // of tiles
    let measure = |n: i64| {
        let (cfg, mut r) = runner(2, n);
        let (v, f, _) = setup_poisson(&cfg);
        for _ in 0..3 {
            cycle(&mut r, &v, &f);
        }
        let mut out = vec![0.0; v.len()];
        let before = allocations();
        r.engine_mut()
            .run(&[("V", &v), ("F", &f)], vec![("out", &mut out)])
            .expect("cycle");
        let single = allocations() - before;

        let mut outs = vec![vec![0.0; v.len()]; RHS];
        let mut batch = |outs: &mut [Vec<f64>]| {
            let rhs: Vec<BatchRhs<'_>> = outs
                .iter_mut()
                .map(|out| BatchRhs {
                    inputs: vec![("V", v.as_slice()), ("F", f.as_slice())],
                    outputs: vec![("out", out.as_mut_slice())],
                })
                .collect();
            let before = allocations();
            r.engine_mut().run_batch(rhs).expect("batch");
            allocations() - before
        };
        batch(&mut outs);
        let batched = batch(&mut outs);

        let ops = overlapped_ops(&r);
        let tiles: usize = ops
            .iter()
            .map(|&i| r.engine().tile_plan(i).expect("planned").tiles())
            .sum();
        (single, batched, ops.len() as u64, tiles)
    };
    let (small, small_batch, ops, small_tiles) = measure(63);
    let (large, large_batch, large_ops, large_tiles) = measure(255);
    assert_eq!(ops, large_ops, "premise: same schedule shape");
    assert!(
        large_tiles >= 8 * small_tiles,
        "premise: {large_tiles} vs {small_tiles} tiles"
    );
    assert_eq!(small, large, "single cycle: allocations grow with tiles");
    assert_eq!(
        small_batch, large_batch,
        "batched pass: allocations grow with tiles"
    );
    assert!(
        small <= 40 * ops,
        "{small} allocations over {ops} overlapped ops"
    );
    assert!(
        small_batch <= 40 * ops * RHS as u64,
        "{small_batch} allocations over {ops} overlapped ops × {RHS} right-hand sides"
    );
}
