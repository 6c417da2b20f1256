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
//! core ([`crate::region`]) on each, in fixed-rank [`Box3`] form, reusing
//! its buffers from tile to tile. The compiler's tile plans collect it and
//! [`evaluate_tiling`] folds it, so neither allocates per tile.

use crate::domain::{box3_len, Box3, BoxDomain};
use crate::interval::Interval;
use crate::ratio::Ratio;
use crate::region::{GroupEdge, GroupStage, Propagator};

/// Partition `domain` into tiles of size `tile_sizes` (outermost first).
/// Trailing tiles are clipped to the domain.
pub fn tile_partition(domain: &BoxDomain, tile_sizes: &[i64]) -> Vec<BoxDomain> {
    assert_eq!(domain.ndims(), tile_sizes.len(), "rank mismatch");
    assert!(
        tile_sizes.iter().all(|&t| t > 0),
        "tile sizes must be positive"
    );
    if domain.is_empty() {
        return vec![];
    }
    // per-dimension lists of intervals
    let per_dim: Vec<Vec<Interval>> = domain
        .0
        .iter()
        .zip(tile_sizes)
        .map(|(iv, &t)| {
            let mut v = Vec::new();
            let mut lo = iv.lo;
            while lo <= iv.hi {
                let hi = (lo + t - 1).min(iv.hi);
                v.push(Interval::new(lo, hi));
                lo = hi + 1;
            }
            v
        })
        .collect();
    // cartesian product
    let mut tiles = vec![BoxDomain(Vec::with_capacity(domain.ndims()))];
    for dim in &per_dim {
        let mut next = Vec::with_capacity(tiles.len() * dim.len());
        for prefix in &tiles {
            for iv in dim {
                let mut b = prefix.clone();
                b.0.push(*iv);
                next.push(b);
            }
        }
        tiles = next;
    }
    tiles
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

/// The owned interval of a stage with scale `s` for one (non-empty) tile
/// interval of the reference space, before clamping to the stage domain.
fn owned_interval(tile: &Interval, s: &Ratio) -> Interval {
    Interval::new(
        scale_boundary(tile.lo, s),
        scale_boundary(tile.hi + 1, s) - 1,
    )
}

/// The owned sub-box of `stage_domain` for a reference-space `tile`, where
/// `scales` gives the per-dimension stage/reference scale ratio.
///
/// The result is clamped to `stage_domain` (for non-power-of-two stragglers).
pub fn owned_region(tile: &BoxDomain, scales: &[Ratio], stage_domain: &BoxDomain) -> BoxDomain {
    assert_eq!(tile.ndims(), scales.len(), "rank mismatch");
    let raw = BoxDomain::new(
        tile.0
            .iter()
            .zip(scales)
            .map(|(iv, s)| {
                if iv.is_empty() {
                    Interval::empty()
                } else {
                    owned_interval(iv, s)
                }
            })
            .collect(),
    );
    raw.intersect(stage_domain)
}

/// What one tile does for one stage of a group, as right-aligned [`Box3`]s
/// (see [`BoxDomain::from_box3`] for the rank-generic form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRegion {
    /// Points the tile evaluates (within the stage domain).
    pub compute: Box3,
    /// The part of the stage's domain the tile writes to its full array
    /// (empty for stages that are not live-out).
    pub owned: Box3,
    /// Scratchpad box: `compute` plus the ghost positions consumers read.
    pub alloc: Box3,
}

/// The walk's state: the propagation core, the tile grid, and the tile and
/// stage the next item belongs to.
struct TileWalk<'a> {
    core: Propagator,
    scales: &'a [Vec<Ratio>],
    live_out: &'a [bool],
    /// First axis of the `Box3`s that the group's rank uses.
    lead: usize,
    ref_domain: Box3,
    sizes: [i64; 3],
    /// Tiles per axis (1 on unused axes).
    counts: [i64; 3],
    tiles: usize,
    tile: usize,
    stage: usize,
    owned: Vec<Box3>,
}

impl TileWalk<'_> {
    /// Derive tile `self.tile`'s owned boxes and propagate them.
    fn start_tile(&mut self) {
        let mut rest = self.tile as i64;
        let mut tile = self.ref_domain;
        for d in (self.lead..3).rev() {
            let k = rest % self.counts[d];
            rest /= self.counts[d];
            let lo = self.ref_domain[d].lo + k * self.sizes[d];
            tile[d] = Interval::new(lo, (lo + self.sizes[d] - 1).min(self.ref_domain[d].hi));
        }
        for (i, owned) in self.owned.iter_mut().enumerate() {
            if !self.live_out[i] {
                continue;
            }
            let domain = &self.core.domains[i];
            for d in self.lead..3 {
                owned[d] =
                    owned_interval(&tile[d], &self.scales[i][d - self.lead]).intersect(&domain[d]);
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
/// Panics when a stage's rank differs from the reference stage's or
/// exceeds 3, and on the malformed edges [`crate::region::propagate_regions`]
/// rejects.
pub fn tile_walk<'a>(
    stages: &[GroupStage],
    edges: &[GroupEdge],
    ref_stage: usize,
    scales: &'a [Vec<Ratio>],
    live_out: &'a [bool],
    tile_sizes: &[i64],
) -> impl ExactSizeIterator<Item = TileRegion> + 'a {
    let ref_domain = &stages[ref_stage].domain;
    let ndims = ref_domain.ndims();
    assert_eq!(ndims, tile_sizes.len(), "rank mismatch");
    assert!(
        tile_sizes.iter().all(|&t| t > 0),
        "tile sizes must be positive"
    );
    for (s, st) in stages.iter().enumerate() {
        assert_eq!(st.domain.ndims(), ndims, "rank mismatch");
        if live_out[s] {
            assert_eq!(scales[s].len(), ndims, "rank mismatch");
        }
    }
    let core = Propagator::new(stages, edges);
    let lead = 3 - ndims;
    let mut sizes = [1; 3];
    sizes[lead..].copy_from_slice(tile_sizes);
    let ref_domain = ref_domain.to_box3();
    let counts: [i64; 3] = std::array::from_fn(|d| {
        let len = ref_domain[d].len();
        (len + sizes[d] - 1) / sizes[d]
    });
    let owned = core.empty.clone();
    TileWalk {
        core,
        scales,
        live_out,
        lead,
        ref_domain,
        sizes,
        counts,
        tiles: counts.iter().product::<i64>() as usize,
        tile: 0,
        stage: 0,
        owned,
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
        tiled_points += box3_len(&r.compute);
        if !live_out[s] {
            alloc += box3_len(&r.alloc);
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
            domain: dom.clone(),
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
