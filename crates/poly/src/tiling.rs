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
//! collect it without allocating per tile.
//!
//! [`evaluate_tiling`], the grouping heuristic's redundant-work test, needs
//! only sums and a maximum over that walk. An overlapped tile is a
//! hyper-trapezoid: each of its boxes is the product of one interval per
//! axis, and the interval along an axis depends only on the tile's index
//! along that axis. So it propagates each tile index of each axis once,
//! restricted to that axis, into a table of `[compute, owned, alloc]`
//! intervals per stage; the points computed then factor into
//! `Σ_stages Π_axes Σ_index |compute|`, and the largest tile scratchpad is
//! one multiply per stage and distinct tile, with no propagation. A box
//! that is empty along one axis is empty along all, so the tables are exact
//! only while every input of a stage's hull — its owned box, what each
//! consumer needs — is present in all the tiles where the stage allocates
//! anything, or in none. Where one is not (a coarse live-out that owns
//! nothing in a narrow straggler tile yet computes there for a fine
//! consumer), [`evaluate_tiling`] folds the box walk instead.
//! [`factors_per_axis`] tells which path a group takes.

use crate::domain::{Axes, BoxDomain};
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

/// [`owned_region`] along one axis: the owned part of a stage's domain
/// interval `domain` for a reference-space tile interval `tile` at scale
/// `s`.
#[inline]
fn owned_interval(tile: Interval, s: &Ratio, domain: Interval) -> Interval {
    let raw = if tile.is_empty() {
        tile
    } else {
        Interval::new(
            scale_boundary(tile.lo, s),
            scale_boundary(tile.hi + 1, s) - 1,
        )
    };
    raw.intersect(&domain)
}

/// The owned sub-box of `stage_domain` for a reference-space `tile`, where
/// `scales` gives the per-dimension stage/reference scale ratio.
///
/// The result is clamped to `stage_domain` (for non-power-of-two stragglers).
#[inline]
pub fn owned_region(tile: &BoxDomain, scales: &[Ratio], stage_domain: &BoxDomain) -> BoxDomain {
    assert!(tile.ndims() == scales.len(), "rank mismatch");
    assert!(tile.ndims() == stage_domain.ndims(), "rank mismatch");
    BoxDomain(Axes::from_fn(tile.ndims(), |d| {
        owned_interval(tile.0[d], &scales[d], stage_domain.0[d])
    }))
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

/// A group's per-axis tables: for each axis of the rank (outermost first),
/// entry `i · stages + s` holds stage `s`'s `[compute, owned, alloc]`
/// intervals along that axis in the tiles of index `i` along it.
type AxisTables = Vec<Vec<[Interval; 3]>>;

impl<'a> TileWalk<'a> {
    /// The walk of [`tile_walk`] (same arguments), positioned at its first
    /// tile.
    fn new(
        stages: &[GroupStage],
        edges: &[GroupEdge],
        ref_stage: usize,
        scales: &'a [Vec<Ratio>],
        live_out: &'a [bool],
        tile_sizes: &[i64],
    ) -> TileWalk<'a> {
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

    /// Propagate every tile index along every axis once, restricted to that
    /// axis. `None` when the tables are not exact.
    ///
    /// A stage's alloc box is the hull of its inputs: its owned box when
    /// live-out, and what each in-group consumer that computes needs. A box
    /// input is empty when it is empty along any one axis, and the box hull
    /// then drops it along every axis, where the per-axis hull keeps it along
    /// the others. So the tables are exact when each input is either never
    /// present or present in exactly the rows where its stage allocates
    /// anything; a tile then holds a stage's whole input set or none of it.
    fn axis_tables(&mut self) -> Option<AxisTables> {
        let n = self.owned.len();
        let (sizes, counts) = self.grid;
        let lead = 3 - self.ref_domain.ndims();
        let mut owned = vec![Interval::empty(); n];
        // per input (edges, then each stage's owned interval): [present in
        // some row, absent from a row where its stage allocates]
        let edges = self.core.edge_ends().count();
        let mut seen = vec![[false; 2]; edges + n];
        let mut note = |k: usize, here: bool, alloc: &Interval| {
            seen[k][0] |= here;
            seen[k][1] |= !here && !alloc.is_empty();
        };
        let mut tables = Vec::with_capacity(3 - lead);
        for d in lead..3 {
            let axis = self.ref_domain.0.slots()[d];
            let mut table = vec![[Interval::empty(); 3]; counts[d] as usize * n];
            for (i, row) in table.chunks_mut(n).enumerate() {
                let lo = axis.lo + i as i64 * sizes[d];
                let tile = Interval::new(lo, (lo + sizes[d] - 1).min(axis.hi));
                for (s, o) in owned.iter_mut().enumerate() {
                    if self.live_out[s] {
                        let domain = self.core.domains[s].0.slots()[d];
                        *o = owned_interval(tile, &self.scales[s][d - lead], domain);
                    }
                }
                self.core.run_slot(d, &owned, row);
                for (k, (p, c)) in self.core.edge_ends().enumerate() {
                    note(k, !row[c][0].is_empty(), &row[p][2]);
                }
                for (s, [_, owned, alloc]) in row.iter().enumerate() {
                    note(edges + s, !owned.is_empty(), alloc);
                }
            }
            tables.push(table);
        }
        let exact = seen.iter().all(|&[present, missing]| !(present && missing));
        exact.then_some(tables)
    }

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
    TileWalk::new(stages, edges, ref_stage, scales, live_out, tile_sizes)
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

/// `(tiled_points, max_tile_alloc)` of a group from its exact per-axis
/// tables.
fn table_stats(tables: &AxisTables, live_out: &[bool]) -> (i64, i64) {
    let n = live_out.len();
    let tiled_points = (0..n)
        .map(|s| {
            let per_axis = tables
                .iter()
                .map(|t| t.chunks(n).map(|row| row[s][0].len()));
            per_axis.map(Iterator::sum::<i64>).product::<i64>()
        })
        .sum();
    // per axis, tile index along it and stage that is not live-out, the
    // length of its alloc interval; a tile's scratchpad multiplies them.
    // Interior tiles repeat their neighbour's lengths, and the largest
    // scratchpad only needs each distinct row once.
    let inner: Vec<usize> = (0..n).filter(|&s| !live_out[s]).collect();
    let m = inner.len();
    let lens: Vec<Vec<i64>> = tables
        .iter()
        .map(|t| {
            let mut rows: Vec<i64> = Vec::new();
            for row in t.chunks(n) {
                let start = rows.len();
                rows.extend(inner.iter().map(|&s| row[s][2].len()));
                if start >= m && rows[start - m..start] == rows[start..] {
                    rows.truncate(start);
                }
            }
            rows
        })
        .collect();
    let tiles = if m == 0 {
        0
    } else {
        lens.iter().map(|l| l.len() / m).product()
    };
    let mut alloc = vec![0i64; m];
    let mut max_tile_alloc = 0i64;
    for k in 0..tiles {
        alloc.fill(1);
        let mut rest = k;
        for l in lens.iter().rev() {
            let count = l.len() / m;
            let i = rest % count;
            rest /= count;
            alloc
                .iter_mut()
                .zip(&l[i * m..][..m])
                .for_each(|(a, len)| *a *= len);
        }
        max_tile_alloc = max_tile_alloc.max(alloc.iter().sum());
    }
    (tiled_points, max_tile_alloc)
}

/// Evaluate overlapped tiling of a group: the statistics of its
/// [`tile_walk`] (same arguments), from the per-axis tables when they are
/// exact ([`factors_per_axis`]) and by folding the walk otherwise.
pub fn evaluate_tiling(
    stages: &[GroupStage],
    edges: &[GroupEdge],
    ref_stage: usize,
    scales: &[Vec<Ratio>],
    live_out: &[bool],
    tile_sizes: &[i64],
) -> TilingStats {
    let mut walk = TileWalk::new(stages, edges, ref_stage, scales, live_out, tile_sizes);
    let num_tiles = walk.tiles;
    let base_points: i64 = stages.iter().map(|s| s.domain.len()).sum();
    if let Some(tables) = walk.axis_tables() {
        let (tiled_points, max_tile_alloc) = table_stats(&tables, live_out);
        return TilingStats {
            tiled_points,
            base_points,
            num_tiles,
            max_tile_alloc,
        };
    }
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

/// True when [`evaluate_tiling`] (same arguments) computes its statistics
/// from per-axis tables: every input of every stage's hull is present in
/// all the tiles where that stage allocates anything, or in none.
pub fn factors_per_axis(
    stages: &[GroupStage],
    edges: &[GroupEdge],
    ref_stage: usize,
    scales: &[Vec<Ratio>],
    live_out: &[bool],
    tile_sizes: &[i64],
) -> bool {
    TileWalk::new(stages, edges, ref_stage, scales, live_out, tile_sizes)
        .axis_tables()
        .is_some()
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

    /// The statistics folded over the box walk, tile by tile.
    fn walk_stats(
        stages: &[GroupStage],
        edges: &[GroupEdge],
        ref_stage: usize,
        scales: &[Vec<Ratio>],
        live_out: &[bool],
        tile_sizes: &[i64],
    ) -> TilingStats {
        let n = stages.len();
        let regions: Vec<TileRegion> =
            tile_walk(stages, edges, ref_stage, scales, live_out, tile_sizes).collect();
        let tile_alloc = |tile: &[TileRegion]| -> i64 {
            let inner = tile.iter().zip(live_out).filter(|(_, live)| !**live);
            inner.map(|(r, _)| r.alloc.len()).sum()
        };
        TilingStats {
            tiled_points: regions.iter().map(|r| r.compute.len()).sum(),
            base_points: stages.iter().map(|s| s.domain.len()).sum(),
            num_tiles: regions.len() / n,
            max_tile_alloc: regions.chunks(n).map(tile_alloc).max().unwrap_or(0),
        }
    }

    /// Stages on a fine level of interior `nf` and the level below, all 2-D:
    /// `coarse[s]` puts stage `s` on the coarse one. Edges down a level are
    /// full-weighting restricts, edges up one linear interpolations, and
    /// edges within a level radius-1 stencils.
    fn two_level_group(
        nf: i64,
        coarse: &[bool],
        links: &[(usize, usize)],
    ) -> (Vec<GroupStage>, Vec<GroupEdge>, Vec<Vec<Ratio>>) {
        let n_at = |c: bool| if c { (nf + 1) / 2 - 1 } else { nf };
        let stages = coarse
            .iter()
            .map(|&c| GroupStage {
                domain: BoxDomain::interior(2, n_at(c)),
                owned: BoxDomain::empty(2),
            })
            .collect();
        let edges = links
            .iter()
            .map(|&(p, c)| GroupEdge {
                producer: p,
                consumer: c,
                footprint: Footprint::uniform(
                    2,
                    match (coarse[p], coarse[c]) {
                        (false, true) => AxisFootprint::new(2, 1, -1, 1),
                        (true, false) => AxisFootprint::new(1, 2, 0, 1),
                        _ => AxisFootprint::stencil(1),
                    },
                ),
            })
            .collect();
        let scales = coarse
            .iter()
            .map(|&c| vec![Ratio::new(n_at(c) + 1, nf + 1); 2])
            .collect();
        (stages, edges, scales)
    }

    #[test]
    fn smoother_chain_and_restrict_take_the_per_axis_path() {
        // three fine smoothing steps, then the restrict that leaves the group
        let coarse = [false, false, false, true];
        let (stages, edges, scales) = two_level_group(63, &coarse, &[(0, 1), (1, 2), (2, 3)]);
        let live_out = [false, false, false, true];
        for tiles in [[8, 16], [7, 13], [64, 64]] {
            let args = (
                &stages[..],
                &edges[..],
                0,
                &scales[..],
                &live_out[..],
                &tiles[..],
            );
            assert!(factors_per_axis(
                args.0, args.1, args.2, args.3, args.4, args.5
            ));
            let got = evaluate_tiling(args.0, args.1, args.2, args.3, args.4, args.5);
            assert_eq!(
                got,
                walk_stats(args.0, args.1, args.2, args.3, args.4, args.5)
            );
            assert!(got.work_ratio() > 1.0 || tiles[0] == 64);
        }
    }

    #[test]
    fn coarse_live_out_under_narrow_tiles_falls_back() {
        // a fine stage restricted to a coarse live-out that a fine live-out
        // interpolates: under 1-wide tiles the coarse stage owns nothing in
        // every other tile row, yet computes there for its consumer. The
        // interpolation reads left of its point, so the coarse box a tile
        // owns is not inside what the consumer needs: the per-axis hull of
        // the two would overstate the rows where the owned box is empty.
        let coarse = [false, true, false];
        let (stages, mut edges, scales) = two_level_group(15, &coarse, &[(0, 1), (1, 2)]);
        edges[1].footprint = Footprint::uniform(2, AxisFootprint::new(1, 2, -2, -1));
        let live_out = [false, true, true];
        let tiles = [1, 4];
        let args = (
            &stages[..],
            &edges[..],
            0,
            &scales[..],
            &live_out[..],
            &tiles[..],
        );
        let walk = tile_walk(args.0, args.1, args.2, args.3, args.4, args.5);
        assert!(walk
            .skip(1)
            .step_by(3)
            .any(|r| r.owned.is_empty() && !r.compute.is_empty()));
        assert!(!factors_per_axis(
            args.0, args.1, args.2, args.3, args.4, args.5
        ));
        assert_eq!(
            evaluate_tiling(args.0, args.1, args.2, args.3, args.4, args.5),
            walk_stats(args.0, args.1, args.2, args.3, args.4, args.5)
        );
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
