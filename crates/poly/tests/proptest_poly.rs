//! Property tests for the polyhedral-lite engine, and the reference model
//! the fixed-rank tile walk is checked against.

use gmg_poly::diamond::split_time_tiling;
use gmg_poly::region::{propagate_regions, GroupEdge, GroupStage};
use gmg_poly::tiling::{evaluate_tiling, tile_partition, tile_walk};
use gmg_poly::{div_ceil, div_floor, AxisFootprint, BoxDomain, Footprint, Interval, Ratio};
use proptest::prelude::*;

/// The allocating [`BoxDomain`] region propagation and tile walk the
/// library's fixed-rank core replaced, kept as the oracle it must match.
mod reference {
    use gmg_poly::region::{GroupEdge, GroupStage, StageRegion};
    use gmg_poly::tiling::{owned_region, tile_partition, TilingStats};
    use gmg_poly::{BoxDomain, Interval, Ratio};

    /// Propagate regions backward through the group.
    pub fn propagate_regions(stages: &[GroupStage], edges: &[GroupEdge]) -> Vec<StageRegion> {
        let n = stages.len();
        for e in edges {
            assert!(
                e.producer < e.consumer && e.consumer < n,
                "edge {} -> {} is not topological (n = {n})",
                e.producer,
                e.consumer
            );
            assert_eq!(
                e.footprint.ndims(),
                stages[e.consumer].domain.ndims(),
                "footprint rank must match consumer rank"
            );
            assert_eq!(
                e.footprint.ndims(),
                stages[e.producer].domain.ndims(),
                "footprint rank must match producer rank"
            );
        }

        // raw need accumulated from consumers, not yet clamped to the domain
        let mut raw_need: Vec<BoxDomain> = stages
            .iter()
            .map(|s| BoxDomain::empty(s.domain.ndims()))
            .collect();
        let mut out: Vec<Option<StageRegion>> = vec![None; n];

        for c in (0..n).rev() {
            let alloc = stages[c].owned.hull(&raw_need[c]);
            let compute = alloc.intersect(&stages[c].domain);
            // propagate this stage's computed region to its producers
            for e in edges.iter().filter(|e| e.consumer == c) {
                if compute.is_empty() {
                    continue;
                }
                let needed = BoxDomain::new(
                    compute
                        .0
                        .iter()
                        .zip(&e.footprint.0)
                        .map(|(iv, fp): (&Interval, _)| fp.input_needed(iv))
                        .collect(),
                );
                raw_need[e.producer] = raw_need[e.producer].hull(&needed);
            }
            out[c] = Some(StageRegion { compute, alloc });
        }

        out.into_iter().map(Option::unwrap).collect()
    }

    /// What one tile does for one stage of a group.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TileRegion {
        pub compute: BoxDomain,
        pub owned: BoxDomain,
        pub alloc: BoxDomain,
    }

    /// The tile walk of an overlapped group.
    pub fn tile_walk<'a>(
        stages: &'a [GroupStage],
        edges: &'a [GroupEdge],
        ref_stage: usize,
        scales: &'a [Vec<Ratio>],
        live_out: &'a [bool],
        tile_sizes: &[i64],
    ) -> impl ExactSizeIterator<Item = Vec<TileRegion>> + 'a {
        let tiles = tile_partition(&stages[ref_stage].domain, tile_sizes);
        tiles.into_iter().map(move |tile| {
            let tile_stages: Vec<GroupStage> = stages
                .iter()
                .enumerate()
                .map(|(i, s)| GroupStage {
                    domain: s.domain,
                    owned: if live_out[i] {
                        owned_region(&tile, &scales[i], &s.domain)
                    } else {
                        BoxDomain::empty(s.domain.ndims())
                    },
                })
                .collect();
            let regions = propagate_regions(&tile_stages, edges);
            tile_stages
                .into_iter()
                .zip(regions)
                .map(|(s, r)| TileRegion {
                    compute: r.compute,
                    owned: s.owned,
                    alloc: r.alloc,
                })
                .collect()
        })
    }

    /// Evaluate overlapped tiling of a group over its [`tile_walk`].
    pub fn evaluate_tiling(
        stages: &[GroupStage],
        edges: &[GroupEdge],
        ref_stage: usize,
        scales: &[Vec<Ratio>],
        live_out: &[bool],
        tile_sizes: &[i64],
    ) -> TilingStats {
        let walk = tile_walk(stages, edges, ref_stage, scales, live_out, tile_sizes);
        let num_tiles = walk.len();
        let base_points: i64 = stages.iter().map(|s| s.domain.len()).sum();
        let mut tiled_points = 0i64;
        let mut max_tile_alloc = 0i64;
        for regions in walk {
            let mut alloc = 0i64;
            for (r, live) in regions.iter().zip(live_out) {
                tiled_points += r.compute.len();
                if !live {
                    alloc += r.alloc.len();
                }
            }
            max_tile_alloc = max_tile_alloc.max(alloc);
        }
        TilingStats {
            tiled_points,
            base_points,
            num_tiles,
            max_tile_alloc,
        }
    }
}

/// A random overlapped group: stages on up to three levels of a multigrid
/// hierarchy, joined by stencil, ×½ (restrict) and ×2 (interp) edges.
struct RandomGroup {
    stages: Vec<GroupStage>,
    edges: Vec<GroupEdge>,
    ref_stage: usize,
    scales: Vec<Vec<Ratio>>,
    live_out: Vec<bool>,
    tile_sizes: Vec<i64>,
}

/// splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_group(ndims: usize, seed: u64) -> RandomGroup {
    let mut st = seed;
    let mut pick = |k: u64| (mix(&mut st) % k) as i64;
    // finest interior 2^k - 1; level l has 2^(k-l) - 1 points per axis
    let k = if ndims == 2 { 4 + pick(2) } else { 3 + pick(2) };
    let n_at = |l: i64| (1i64 << (k - l)) - 1;
    let nstages = 2 + pick(5) as usize;
    let mut level = vec![pick(3)];
    let mut edges: Vec<GroupEdge> = Vec::new();
    // footprint of an edge from a producer on level `lp` into a consumer on
    // level `lc` (|lp - lc| <= 1)
    let footprint = |lp: i64, lc: i64, a: i64, b: i64| {
        let axis = match lc - lp {
            0 => AxisFootprint::new(1, 1, -a, b),
            1 => AxisFootprint::new(2, 1, -1 - a.min(1), 1 + b.min(1)),
            _ => AxisFootprint::new(1, 2, -a.min(1), 1),
        };
        Footprint::uniform(ndims, axis)
    };
    for c in 1..nstages {
        let p = pick(c as u64) as usize;
        // 0: stencil, 1: restrict (×½), 2: interp (×2)
        let lc = match pick(3) {
            1 if level[p] < 2 => level[p] + 1,
            2 if level[p] > 0 => level[p] - 1,
            _ => level[p],
        };
        level.push(lc);
        let (a, b) = (pick(3), pick(3));
        edges.push(GroupEdge {
            producer: p,
            consumer: c,
            footprint: footprint(level[p], lc, a, b),
        });
        // an extra in-edge from another earlier stage one level away at most
        let q = pick(c as u64) as usize;
        if q != p && (level[q] - lc).abs() <= 1 && pick(2) == 0 {
            let (a, b) = (pick(3), pick(3));
            edges.push(GroupEdge {
                producer: q,
                consumer: c,
                footprint: footprint(level[q], lc, a, b),
            });
        }
    }
    let stages: Vec<GroupStage> = level
        .iter()
        .map(|&l| GroupStage {
            domain: BoxDomain::interior(ndims, n_at(l)),
            owned: BoxDomain::empty(ndims),
        })
        .collect();
    let ref_stage = (0..nstages).min_by_key(|&i| level[i]).unwrap();
    let ref_n = n_at(level[ref_stage]);
    let scales = level
        .iter()
        .map(|&l| vec![Ratio::new(n_at(l) + 1, ref_n + 1); ndims])
        .collect();
    // the last stage always escapes; coarse live-outs under small tiles
    // own nothing in some tiles
    let live_out = (0..nstages)
        .map(|i| i + 1 == nstages || pick(3) == 0)
        .collect();
    let max_tile = if ndims == 2 { 9 } else { 6 };
    let min_tile = if ndims == 2 { 1 } else { 2 };
    let tile_sizes = (0..ndims)
        .map(|_| min_tile + pick((max_tile - min_tile + 1) as u64))
        .collect();
    RandomGroup {
        stages,
        edges,
        ref_stage,
        scales,
        live_out,
        tile_sizes,
    }
}

/// Premise of `tile_walk_matches_reference`: the random groups reach the
/// walk's empty paths, in both ranks — a live-out that owns nothing in a
/// tile (its alloc is the hull of two empty boxes), and a stage that
/// computes nothing in a tile (its in-edges are skipped).
#[test]
fn random_groups_reach_the_empty_paths() {
    for ndims in [2, 3] {
        let (mut owns_nothing, mut computes_nothing) = (0, 0);
        for seed in 0..64u64 {
            let g = random_group(ndims, seed);
            let walk = reference::tile_walk(
                &g.stages,
                &g.edges,
                g.ref_stage,
                &g.scales,
                &g.live_out,
                &g.tile_sizes,
            );
            for (i, r) in walk.flatten().enumerate() {
                owns_nothing += (g.live_out[i % g.stages.len()] && r.owned.is_empty()) as usize;
                computes_nothing += r.compute.is_empty() as usize;
            }
        }
        assert!(
            owns_nothing > 0,
            "{ndims}-D: no live-out owns an empty tile"
        );
        assert!(computes_nothing > 0, "{ndims}-D: no stage computes nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Floor/ceil division agree with the mathematical definition.
    #[test]
    fn floor_ceil_consistent(a in -1000i64..1000, b in 1i64..50) {
        let f = div_floor(a, b);
        let c = div_ceil(a, b);
        prop_assert!(f * b <= a && a < (f + 1) * b);
        prop_assert!((c - 1) * b < a && a <= c * b);
        prop_assert!(c - f <= 1);
        prop_assert_eq!(c == f, a % b == 0);
    }

    /// `input_needed` and `consumers_of` are adjoint for arbitrary
    /// footprints of the shapes multigrid uses.
    #[test]
    fn footprint_adjoint(
        scale in 0usize..3,
        off_min in -3i64..1,
        extra in 0i64..4,
        x in -30i64..30,
        p in -60i64..60,
    ) {
        let (num, den) = [(1, 1), (2, 1), (1, 2)][scale];
        let fp = AxisFootprint::new(num, den, off_min, off_min + extra);
        let forward = fp.input_needed(&Interval::new(x, x)).contains(p);
        let backward = fp.consumers_of(p).contains(x);
        prop_assert_eq!(forward, backward);
    }

    /// Ratios form a commutative group under multiplication (away from 0).
    #[test]
    fn ratio_group_laws(
        a in 1i64..40, b in 1i64..40,
        c in 1i64..40, d in 1i64..40,
    ) {
        let r1 = Ratio::new(a, b);
        let r2 = Ratio::new(c, d);
        prop_assert_eq!(r1.mul(&r2), r2.mul(&r1));
        prop_assert!(r1.mul(&r1.inv()).is_one());
        // floor/ceil bracket the rational value
        for x in [-7i64, 0, 13] {
            let fl = r1.apply_floor(x);
            let ce = r1.apply_ceil(x);
            prop_assert!(fl as f64 <= x as f64 * a as f64 / b as f64 + 1e-9);
            prop_assert!(ce as f64 >= x as f64 * a as f64 / b as f64 - 1e-9);
        }
    }

    /// Box-domain intersection/hull are consistent with membership.
    #[test]
    fn box_ops_membership(
        alo in 0i64..10, alen in 0i64..10,
        blo in 0i64..10, blen in 0i64..10,
        px in -2i64..14, py in -2i64..14,
    ) {
        let a = BoxDomain::new(vec![
            Interval::new(alo, alo + alen),
            Interval::new(alo, alo + alen),
        ]);
        let b = BoxDomain::new(vec![
            Interval::new(blo, blo + blen),
            Interval::new(blo, blo + blen),
        ]);
        let p = [py, px];
        let in_i = a.intersect(&b).contains_point(&p);
        prop_assert_eq!(in_i, a.contains_point(&p) && b.contains_point(&p));
        if a.contains_point(&p) || b.contains_point(&p) {
            prop_assert!(a.hull(&b).contains_point(&p));
        }
    }

    /// The fixed-rank tile walk and its statistics equal the reference
    /// model's on random 2-D and 3-D groups: every tile × stage `compute`,
    /// `owned` and `alloc` box, and the whole [`TilingStats`]. One tile's
    /// [`propagate_regions`] equals the reference's too.
    #[test]
    fn tile_walk_matches_reference(ndims in 2usize..4, seed in 0u64..u64::MAX) {
        let g = random_group(ndims, seed);
        let args = (&g.stages[..], &g.edges[..], g.ref_stage, &g.scales[..], &g.live_out[..]);
        let want: Vec<reference::TileRegion> =
            reference::tile_walk(args.0, args.1, args.2, args.3, args.4, &g.tile_sizes)
                .flatten()
                .collect();
        let got = tile_walk(args.0, args.1, args.2, args.3, args.4, &g.tile_sizes);
        prop_assert_eq!(got.len(), want.len());
        for (i, (r, w)) in got.zip(&want).enumerate() {
            let at = format!("seed {seed:#x} entry {i}");
            prop_assert!(r.compute == w.compute, "compute, {}", at);
            prop_assert!(r.owned == w.owned, "owned, {}", at);
            prop_assert!(r.alloc == w.alloc, "alloc, {}", at);
        }
        prop_assert_eq!(
            evaluate_tiling(args.0, args.1, args.2, args.3, args.4, &g.tile_sizes),
            reference::evaluate_tiling(args.0, args.1, args.2, args.3, args.4, &g.tile_sizes)
        );
        // one tile through the BoxDomain-facing entry point
        let n = g.stages.len();
        let tile = &want[(seed as usize % (want.len() / n)) * n..][..n];
        let stages: Vec<GroupStage> = g
            .stages
            .iter()
            .zip(tile)
            .map(|(s, r)| GroupStage { domain: s.domain, owned: r.owned })
            .collect();
        prop_assert_eq!(
            propagate_regions(&stages, &g.edges),
            reference::propagate_regions(&stages, &g.edges)
        );
    }

    /// Tiled redundant work never drops below the untiled baseline, and a
    /// single full-domain tile has zero redundancy.
    #[test]
    fn tiling_stats_bounds(n in 8i64..40, t in 2i64..16, radius in 0i64..3) {
        let dom = BoxDomain::interior(2, n);
        let stages = vec![
            GroupStage { domain: dom, owned: BoxDomain::empty(2) },
            GroupStage { domain: dom, owned: BoxDomain::empty(2) },
        ];
        let edges = vec![GroupEdge {
            producer: 0,
            consumer: 1,
            footprint: Footprint::uniform(2, AxisFootprint::stencil(radius)),
        }];
        let scales = vec![vec![Ratio::one(); 2], vec![Ratio::one(); 2]];
        let live = [false, true];
        let tiled = evaluate_tiling(&stages, &edges, 1, &scales, &live, &[t, t]);
        prop_assert!(tiled.work_ratio() >= 1.0 - 1e-12);
        let whole = evaluate_tiling(&stages, &edges, 1, &scales, &live, &[n, n]);
        prop_assert!((whole.work_ratio() - 1.0).abs() < 1e-12);
        // smaller tiles ⇒ at least as much redundant work
        if radius > 0 && t < n {
            prop_assert!(tiled.tiled_points >= whole.tiled_points);
        }
    }

    /// Split tiling is an exact space-time cover for radius 2 as well.
    #[test]
    fn split_tiling_cover_radius2(
        n in 4i64..30,
        steps in 1usize..8,
        w in 3i64..16,
        h in 1usize..5,
    ) {
        let bands = split_time_tiling(n, steps, w, h, 2);
        let dom = Interval::new(1, n);
        let mut count = vec![0u32; steps * n as usize];
        for band in &bands {
            for phase in [&band.phase1, &band.phase2] {
                for trap in phase {
                    for s in 0..band.steps {
                        let rows = trap.rows_at(s as i64, dom);
                        if rows.is_empty() { continue; }
                        for i in rows.lo..=rows.hi {
                            count[(band.t0 + s) * n as usize + (i - 1) as usize] += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
    }

    /// Tile partitions are disjoint and total for 3-D too.
    #[test]
    fn tile_partition_3d(n in 1i64..12, t1 in 1i64..6, t2 in 1i64..6, t3 in 1i64..6) {
        let dom = BoxDomain::interior(3, n);
        let tiles = tile_partition(&dom, &[t1, t2, t3]);
        let total: i64 = tiles.iter().map(BoxDomain::len).sum();
        prop_assert_eq!(total, n * n * n);
        for a in 0..tiles.len() {
            for b in a + 1..tiles.len() {
                prop_assert!(!tiles[a].overlaps(&tiles[b]));
            }
        }
    }
}
