//! Tile partitions, owned-region scaling across levels, the tile walk that
//! derives every tile's per-stage regions, and the redundant-computation
//! statistics the grouping heuristic reads from it.
//!
//! A fused group is tiled over the *reference space* — the index space of its
//! finest stage. The reference domain is partitioned into rectangular tiles;
//! each live-out stage of the group receives an *owned* sub-box per tile,
//! obtained by mapping the tile's half-open boundaries through the stage's
//! scale ratio with ceiling rounding. Because the boundary map is monotone
//! and hits both domain ends, owned boxes partition every live-out's domain:
//! each output point is written by exactly one tile (no write races, a
//! property the integration tests assert).
//!
//! [`tile_walk`] is the one walk: it enumerates the tiles of
//! [`tile_partition`]'s order arithmetically and runs the region-propagation
//! core ([`crate::region`]) on each, reusing its buffers from tile to tile.
//! Every box it yields is a `Copy` [`BoxDomain`]; the compiler's tile plans
//! collect the walk and [`evaluate_tiling`] folds it, so neither allocates
//! per tile.

use crate::domain::BoxDomain;
use crate::interval::Interval;
use crate::ratio::Ratio;
use crate::region::{GroupEdge, GroupStage, Propagator};

/// The tile grid of `domain` cut into `tile_sizes` tiles (outermost first):
/// tile sizes and tiles per axis (0 on an empty axis), right-aligned in
/// three slots like the box's, 1 in the unused ones.
///
/// # Panics
/// Panics on a rank mismatch and on a tile size below 1.
fn tile_grid(domain: &BoxDomain, tile_sizes: &[i64]) -> ([i64; 3], [i64; 3]) {
    assert_eq!(domain.ndims(), tile_sizes.len(), "rank mismatch");
    assert!(
        tile_sizes.iter().all(|&t| t > 0),
        "tile sizes must be positive"
    );
    let (mut sizes, mut counts) = ([1; 3], [1; 3]);
    let lead = 3 - tile_sizes.len();
    for (d, (len, &t)) in domain.extents().zip(tile_sizes).enumerate() {
        (sizes[lead + d], counts[lead + d]) = (t, (len + t - 1) / t);
    }
    (sizes, counts)
}

/// Tile `k` of `domain` on the grid `(sizes, counts)` of [`tile_grid`], in
/// [`tile_partition`] order (the innermost axis fastest); trailing tiles are
/// clipped to the domain. An unused slot (size and count 1) keeps `[0, 0]`.
#[inline]
fn nth_tile(domain: &BoxDomain, (sizes, counts): ([i64; 3], [i64; 3]), k: i64) -> BoxDomain {
    let mut rest = k;
    let mut tile = *domain;
    for (d, iv) in tile.0.slots_mut().iter_mut().enumerate().rev() {
        let lo = iv.lo + rest % counts[d] * sizes[d];
        rest /= counts[d];
        *iv = Interval::new(lo, (lo + sizes[d] - 1).min(iv.hi));
    }
    tile
}

/// Partition `domain` into tiles of size `tile_sizes` (outermost first).
/// Trailing tiles are clipped to the domain.
pub fn tile_partition(domain: &BoxDomain, tile_sizes: &[i64]) -> Vec<BoxDomain> {
    let grid = tile_grid(domain, tile_sizes);
    (0..grid.1.iter().product())
        .map(|k| nth_tile(domain, grid, k))
        .collect()
}

/// Map one boundary point of a half-open tile interval from reference space
/// into a stage's space with scale `s` (stage index ≈ ref index · s).
///
/// Interiors are 1-based, so the half-open boundary set in reference space is
/// `{1, 1+T, 1+2T, …, N+1}`; the mapped boundary is `ceil((p-1)·s) + 1`,
/// which keeps `1 ↦ 1` and `N+1 ↦ N·s + 1`.
fn scale_boundary(p: i64, s: &Ratio) -> i64 {
    s.apply_ceil(p - 1) + 1
}

/// The owned sub-box of `stage_domain` for a reference-space `tile`, where
/// `scales` gives the per-dimension stage/reference scale ratio.
///
/// The result is clamped to `stage_domain` (for non-power-of-two stragglers).
#[inline]
pub fn owned_region(tile: &BoxDomain, scales: &[Ratio], stage_domain: &BoxDomain) -> BoxDomain {
    assert!(tile.ndims() == scales.len(), "rank mismatch");
    let mut raw = *tile;
    for (iv, s) in raw.0.iter_mut().zip(scales) {
        if !iv.is_empty() {
            *iv = Interval::new(scale_boundary(iv.lo, s), scale_boundary(iv.hi + 1, s) - 1);
        }
    }
    raw.intersect(stage_domain)
}

/// What one tile does for one stage of a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRegion {
    /// Points the tile evaluates (within the stage domain).
    pub compute: BoxDomain,
    /// The part of the stage's domain the tile writes to its full array
    /// (empty for stages that are not live-out).
    pub owned: BoxDomain,
    /// Scratchpad box: `compute` plus the ghost positions consumers read.
    pub alloc: BoxDomain,
}

/// The walk's state: the propagation core, the tile grid, and the tile and
/// stage the next item belongs to.
struct TileWalk<'a> {
    core: Propagator,
    scales: &'a [Vec<Ratio>],
    live_out: &'a [bool],
    ref_domain: BoxDomain,
    grid: ([i64; 3], [i64; 3]),
    tiles: usize,
    tile: usize,
    stage: usize,
    owned: Vec<BoxDomain>,
}

impl TileWalk<'_> {
    /// Derive tile `self.tile`'s owned boxes and propagate them.
    fn start_tile(&mut self) {
        let tile = nth_tile(&self.ref_domain, self.grid, self.tile as i64);
        for (i, owned) in self.owned.iter_mut().enumerate() {
            if self.live_out[i] {
                *owned = owned_region(&tile, &self.scales[i], &self.core.domains[i]);
            }
        }
        self.core.run(&self.owned);
    }
}

impl Iterator for TileWalk<'_> {
    type Item = TileRegion;

    fn next(&mut self) -> Option<TileRegion> {
        if self.tile == self.tiles {
            return None;
        }
        if self.stage == 0 {
            self.start_tile();
        }
        let s = self.stage;
        let region = TileRegion {
            compute: self.core.compute[s],
            owned: self.owned[s],
            alloc: self.core.alloc[s],
        };
        self.stage += 1;
        if self.stage == self.owned.len() {
            self.stage = 0;
            self.tile += 1;
        }
        Some(region)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.tiles - self.tile) * self.owned.len() - self.stage;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TileWalk<'_> {}

/// The tile walk of an overlapped group: partition the reference domain
/// (stage `ref_stage`'s domain) with `tile_sizes` and, tile by tile in
/// [`tile_partition`] order, derive the owned regions of live-outs via
/// `scales` (per stage, per dim, stage/reference) and propagate them
/// backward. Yields every stage's [`TileRegion`], tile-major: stage `s` of
/// tile `t` is item `t · stages.len() + s`.
///
/// `live_out[s]` marks stages whose full domain must be produced. The
/// stages' `owned` boxes are ignored.
///
/// # Panics
/// Panics when a stage's rank differs from the reference stage's, and on
/// the malformed edges [`crate::region::propagate_regions`] rejects.
pub fn tile_walk<'a>(
    stages: &[GroupStage],
    edges: &[GroupEdge],
    ref_stage: usize,
    scales: &'a [Vec<Ratio>],
    live_out: &'a [bool],
    tile_sizes: &[i64],
) -> impl ExactSizeIterator<Item = TileRegion> + 'a {
    let ref_domain = stages[ref_stage].domain;
    let grid = tile_grid(&ref_domain, tile_sizes);
    for (s, st) in stages.iter().enumerate() {
        assert_eq!(st.domain.ndims(), ref_domain.ndims(), "rank mismatch");
        if live_out[s] {
            assert_eq!(scales[s].len(), ref_domain.ndims(), "rank mismatch");
        }
    }
    TileWalk {
        core: Propagator::new(stages, edges),
        scales,
        live_out,
        ref_domain,
        tiles: grid.1.iter().product::<i64>() as usize,
        grid,
        tile: 0,
        stage: 0,
        owned: stages
            .iter()
            .map(|s| BoxDomain::empty(s.domain.ndims()))
            .collect(),
    }
}

/// Redundant-computation statistics for one candidate grouping + tile size.
///
/// `work_ratio` is total points computed across all tiles divided by the
/// points a fusion-free execution would compute (the sum of stage domain
/// sizes for stages that are actually needed). 1.0 means no redundancy;
/// PolyMage's auto-grouping heuristic rejects groupings whose ratio exceeds
/// its overlap threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TilingStats {
    /// Points computed summed over every tile and stage.
    pub tiled_points: i64,
    /// Points a non-overlapped execution computes (sum of stage domains).
    pub base_points: i64,
    /// Number of tiles in the partition.
    pub num_tiles: usize,
    /// Maximum scratchpad points needed by any single tile (sum over stages
    /// of the per-stage alloc box, for non-live-out stages).
    pub max_tile_alloc: i64,
}

impl TilingStats {
    /// Redundant-work ratio (≥ 1 when every stage is live or consumed).
    pub fn work_ratio(&self) -> f64 {
        if self.base_points == 0 {
            1.0
        } else {
            self.tiled_points as f64 / self.base_points as f64
        }
    }
}

/// Evaluate overlapped tiling of a group: accumulate statistics over its
/// [`tile_walk`] (same arguments).
pub fn evaluate_tiling(
    stages: &[GroupStage],
    edges: &[GroupEdge],
    ref_stage: usize,
    scales: &[Vec<Ratio>],
    live_out: &[bool],
    tile_sizes: &[i64],
) -> TilingStats {
    let walk = tile_walk(stages, edges, ref_stage, scales, live_out, tile_sizes);
    let num_tiles = walk.len() / stages.len();
    let base_points: i64 = stages.iter().map(|s| s.domain.len()).sum();
    let mut tiled_points = 0i64;
    let mut max_tile_alloc = 0i64;
    let mut alloc = 0i64;
    for (i, r) in walk.enumerate() {
        let s = i % stages.len();
        tiled_points += r.compute.len();
        if !live_out[s] {
            alloc += r.alloc.len();
        }
        if s + 1 == stages.len() {
            max_tile_alloc = max_tile_alloc.max(alloc);
            alloc = 0;
        }
    }
    TilingStats {
        tiled_points,
        base_points,
        num_tiles,
        max_tile_alloc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AxisFootprint, Footprint};

    #[test]
    fn partition_covers_exactly() {
        let dom = BoxDomain::interior(2, 10);
        let tiles = tile_partition(&dom, &[4, 3]);
        assert_eq!(tiles.len(), 3 * 4);
        // exact cover: every point in exactly one tile
        for y in 1..=10 {
            for x in 1..=10 {
                let n = tiles.iter().filter(|t| t.contains_point(&[y, x])).count();
                assert_eq!(n, 1, "point ({y},{x}) covered {n} times");
            }
        }
        let total: i64 = tiles.iter().map(BoxDomain::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn partition_of_empty_domain() {
        assert!(tile_partition(&BoxDomain::empty(2), &[4, 4]).is_empty());
    }

    #[test]
    fn owned_regions_partition_coarse_domain() {
        // ref = fine interior [1,16]; stage = coarse [1,8] at scale 1/2.
        let fine = BoxDomain::interior(1, 16);
        let coarse = BoxDomain::interior(1, 8);
        let half = vec![Ratio::new(1, 2)];
        let tiles = tile_partition(&fine, &[4]);
        let owned: Vec<BoxDomain> = tiles
            .iter()
            .map(|t| owned_region(t, &half, &coarse))
            .collect();
        // each coarse point owned exactly once
        for p in 1..=8i64 {
            let n = owned.iter().filter(|o| o.contains_point(&[p])).count();
            assert_eq!(n, 1, "coarse point {p} owned {n} times");
        }
        // boundaries: tile [1,4] owns coarse [1,2], [5,8] owns [3,4] ...
        assert_eq!(owned[0].0[0], Interval::new(1, 2));
        assert_eq!(owned[1].0[0], Interval::new(3, 4));
    }

    #[test]
    fn owned_regions_partition_with_odd_tiles() {
        // Non-divisible tile size: partition property must still hold.
        let fine = BoxDomain::interior(1, 16);
        let coarse = BoxDomain::interior(1, 8);
        let half = vec![Ratio::new(1, 2)];
        let tiles = tile_partition(&fine, &[5]);
        let owned: Vec<BoxDomain> = tiles
            .iter()
            .map(|t| owned_region(t, &half, &coarse))
            .collect();
        for p in 1..=8i64 {
            let n = owned.iter().filter(|o| o.contains_point(&[p])).count();
            assert_eq!(n, 1, "coarse point {p} owned {n} times");
        }
    }

    #[test]
    fn identity_scale_owned_is_tile() {
        let dom = BoxDomain::interior(2, 8);
        let tiles = tile_partition(&dom, &[4, 4]);
        let one = vec![Ratio::one(), Ratio::one()];
        for t in &tiles {
            assert_eq!(&owned_region(t, &one, &dom), t);
        }
    }

    #[test]
    fn stats_single_stage_no_redundancy() {
        let dom = BoxDomain::interior(2, 16);
        let stages = vec![GroupStage {
            domain: dom,
            owned: BoxDomain::empty(2),
        }];
        let stats = evaluate_tiling(&stages, &[], 0, &[vec![Ratio::one(); 2]], &[true], &[8, 8]);
        assert_eq!(stats.tiled_points, 256);
        assert_eq!(stats.base_points, 256);
        assert_eq!(stats.num_tiles, 4);
        assert!((stats.work_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(stats.max_tile_alloc, 0);
    }

    #[test]
    fn stats_two_stage_overlap() {
        // Two chained radius-1 stages, 16x16, 8x8 tiles: first stage computes
        // up to 10x10 per tile (clamped at domain edges).
        let dom = BoxDomain::interior(2, 16);
        let mk = || GroupStage {
            domain: dom,
            owned: BoxDomain::empty(2),
        };
        let stages = vec![mk(), mk()];
        let edges = vec![GroupEdge {
            producer: 0,
            consumer: 1,
            footprint: Footprint::uniform(2, AxisFootprint::stencil(1)),
        }];
        let stats = evaluate_tiling(
            &stages,
            &edges,
            1,
            &[vec![Ratio::one(); 2], vec![Ratio::one(); 2]],
            &[false, true],
            &[8, 8],
        );
        // stage 1: 256 points; stage 0: 4 tiles × 9×9 = 324 (one side clamped)
        assert_eq!(stats.tiled_points, 256 + 4 * 81);
        assert_eq!(stats.base_points, 512);
        assert!(stats.work_ratio() > 1.0);
        // scratchpad: stage 0 alloc is 10x10 per tile
        assert_eq!(stats.max_tile_alloc, 100);
    }
}
