//! Backward region propagation through a fused group.
//!
//! Given one tile's *owned* output region for each live-out stage, this pass
//! computes, for every stage in the group, the region the tile must compute
//! (and allocate scratchpad space for) so that all reads resolve. Walking
//! consumers-to-producers and dilating by each edge's footprint produces
//! exactly the symmetric hyper-trapezoidal overlapped tiles of Section 3.1
//! of the paper: each earlier stage grows by its dependence radius, and the
//! growth is scaled across `Restrict`/`Interp` edges.
//!
//! Two boxes are reported per stage:
//!
//! * `compute` — the points the tile evaluates (clamped to the stage domain);
//! * `alloc` — the scratchpad box, which additionally covers ghost/boundary
//!   positions consumers read. Points in `alloc \ compute` hold the boundary
//!   value (zero for the homogeneous Dirichlet problems evaluated); the
//!   runtime zeroes that halo before use.
//!
//! There is one implementation, the crate-private `Propagator`: it takes a
//! group's domains and edges once, with each consumer's in-edges in one
//! bucket, and then propagates tile after tile into buffers it reuses. Boxes
//! and footprints are fixed-rank and `Copy`, so nothing is allocated per
//! tile. The tile walk ([`crate::tiling::tile_walk`]), the grouping
//! heuristic's statistics ([`crate::tiling::evaluate_tiling`]) and
//! [`propagate_regions`] all run it.

use crate::access::Footprint;
use crate::domain::BoxDomain;

/// A stage of a fused group, as seen by region propagation.
#[derive(Clone, Debug)]
pub struct GroupStage {
    /// Full iteration domain of the stage (its grid interior).
    pub domain: BoxDomain,
    /// The sub-box of `domain` this tile is responsible for writing to the
    /// stage's full array. Empty for stages that are not live-out.
    pub owned: BoxDomain,
}

/// A producer→consumer dependence edge inside a group.
///
/// Stage indices are positions in the group's topologically-ordered stage
/// list, so `producer < consumer` always holds.
#[derive(Clone, Debug)]
pub struct GroupEdge {
    pub producer: usize,
    pub consumer: usize,
    pub footprint: Footprint,
}

/// The per-stage result of region propagation for one tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRegion {
    /// Points the tile computes (within the stage domain).
    pub compute: BoxDomain,
    /// Scratchpad box covering `compute` plus ghost positions read by
    /// consumers.
    pub alloc: BoxDomain,
}

/// The region-propagation core of one group: its stage domains and
/// consumer-bucketed edges, plus the per-tile buffers [`Propagator::run`]
/// overwrites.
pub(crate) struct Propagator {
    pub(crate) domains: Vec<BoxDomain>,
    /// Consumer `c`'s in-edges are `in_edges[first[c]..first[c + 1]]`, as
    /// (producer, footprint), in edge order.
    first: Vec<usize>,
    in_edges: Vec<(usize, Footprint)>,
    /// Per stage, the empty box of its rank (the initial need).
    empty: Vec<BoxDomain>,
    /// Need accumulated from consumers, not yet clamped to the domain.
    need: Vec<BoxDomain>,
    /// Results of the last [`Propagator::run`], per stage.
    pub(crate) compute: Vec<BoxDomain>,
    pub(crate) alloc: Vec<BoxDomain>,
}

impl Propagator {
    /// Take a group's stage domains (the `owned` boxes are ignored) and
    /// edges. `stages` must be in topological order; every edge must satisfy
    /// `producer < consumer`.
    ///
    /// # Panics
    /// Panics on malformed edges (non-topological, out of range, or rank
    /// mismatches between a footprint and the stages it connects).
    pub(crate) fn new(stages: &[GroupStage], edges: &[GroupEdge]) -> Propagator {
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
        // a stable sort keeps each consumer's in-edges in edge order
        let mut by_consumer: Vec<&GroupEdge> = edges.iter().collect();
        by_consumer.sort_by_key(|e| e.consumer);
        let first = (0..=n)
            .map(|c| by_consumer.partition_point(|e| e.consumer < c))
            .collect();
        let empty: Vec<BoxDomain> = stages
            .iter()
            .map(|s| BoxDomain::empty(s.domain.ndims()))
            .collect();
        Propagator {
            domains: stages.iter().map(|s| s.domain).collect(),
            first,
            in_edges: by_consumer
                .into_iter()
                .map(|e| (e.producer, e.footprint))
                .collect(),
            need: empty.clone(),
            compute: empty.clone(),
            alloc: empty.clone(),
            empty,
        }
    }

    /// Propagate one tile's `owned` boxes (one per stage, empty for stages
    /// that are not live-out) backward, filling `compute` and `alloc`.
    ///
    /// # Panics
    /// Panics on an owned box whose rank differs from its domain's.
    pub(crate) fn run(&mut self, owned: &[BoxDomain]) {
        self.need.copy_from_slice(&self.empty);
        for c in (0..self.domains.len()).rev() {
            let alloc = owned[c].hull(&self.need[c]);
            let compute = alloc.intersect(&self.domains[c]);
            // propagate this stage's computed region to its producers
            if !compute.is_empty() {
                for (p, fp) in &self.in_edges[self.first[c]..self.first[c + 1]] {
                    self.need[*p] = self.need[*p].hull(&fp.input_needed(&compute));
                }
            }
            self.compute[c] = compute;
            self.alloc[c] = alloc;
        }
    }
}

/// Propagate regions backward through the group: the one propagation
/// core, run for one tile.
///
/// `stages` must be in topological order; every edge must satisfy
/// `producer < consumer`.
///
/// # Panics
/// Panics on malformed edges (non-topological, out of range, or rank
/// mismatches between a footprint and the stages it connects), and on an
/// owned box whose rank differs from its domain's.
pub fn propagate_regions(stages: &[GroupStage], edges: &[GroupEdge]) -> Vec<StageRegion> {
    let mut core = Propagator::new(stages, edges);
    let owned: Vec<BoxDomain> = stages.iter().map(|s| s.owned).collect();
    core.run(&owned);
    core.compute
        .into_iter()
        .zip(core.alloc)
        .map(|(compute, alloc)| StageRegion { compute, alloc })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AxisFootprint;
    use crate::interval::Interval;

    fn stencil_edge(p: usize, c: usize, r: i64, ndims: usize) -> GroupEdge {
        GroupEdge {
            producer: p,
            consumer: c,
            footprint: Footprint::uniform(ndims, AxisFootprint::stencil(r)),
        }
    }

    #[test]
    fn smoother_chain_grows_trapezoidally() {
        // Three chained radius-1 smoothing steps on a 2-D interior [1,64]^2.
        // Tile owns [17,32]^2 of the last stage; earlier stages grow by 1
        // per step — the symmetric trapezoid of Figure 5.
        let dom = BoxDomain::interior(2, 64);
        let owned_last = BoxDomain::new(vec![Interval::new(17, 32); 2]);
        let stages = vec![
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: owned_last,
            },
        ];
        let edges = vec![stencil_edge(0, 1, 1, 2), stencil_edge(1, 2, 1, 2)];
        let r = propagate_regions(&stages, &edges);
        assert_eq!(r[2].compute, owned_last);
        assert_eq!(r[1].compute.0[0], Interval::new(16, 33));
        assert_eq!(r[0].compute.0[0], Interval::new(15, 34));
        // alloc equals compute here (no clamping happened away from edges)
        assert_eq!(r[0].alloc, r[0].compute);
    }

    #[test]
    fn clamping_at_domain_boundary() {
        // Tile at the domain corner: compute clamps to the domain, alloc
        // still covers the ghost reads.
        let dom = BoxDomain::interior(2, 64);
        let owned_last = BoxDomain::new(vec![Interval::new(1, 16); 2]);
        let stages = vec![
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: owned_last,
            },
        ];
        let edges = vec![stencil_edge(0, 1, 1, 2)];
        let r = propagate_regions(&stages, &edges);
        assert_eq!(r[0].alloc.0[0], Interval::new(0, 17));
        assert_eq!(r[0].compute.0[0], Interval::new(1, 17));
    }

    #[test]
    fn restrict_scales_need_up() {
        // defect (fine, [1,64]) -> restrict (coarse, [1,32]).
        // Tile owns restrict rows [9,16]; defect must compute 2y±1 → [17,33].
        let fine = BoxDomain::interior(2, 64);
        let coarse = BoxDomain::interior(2, 32);
        let owned = BoxDomain::new(vec![Interval::new(9, 16); 2]);
        let stages = vec![
            GroupStage {
                domain: fine,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: coarse,
                owned,
            },
        ];
        let edges = vec![GroupEdge {
            producer: 0,
            consumer: 1,
            footprint: Footprint::uniform(2, AxisFootprint::new(2, 1, -1, 1)),
        }];
        let r = propagate_regions(&stages, &edges);
        assert_eq!(r[0].compute.0[0], Interval::new(17, 33));
    }

    #[test]
    fn interp_scales_need_down() {
        // error (coarse, [1,32]) -> interp (fine, [1,64]) with taps (x+{0,1})/2.
        // Tile owns interp rows [17,32]; coarse need = [floor(17/2), floor(33/2)] = [8,16].
        let coarse = BoxDomain::interior(2, 32);
        let fine = BoxDomain::interior(2, 64);
        let owned = BoxDomain::new(vec![Interval::new(17, 32); 2]);
        let stages = vec![
            GroupStage {
                domain: coarse,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: fine,
                owned,
            },
        ];
        let edges = vec![GroupEdge {
            producer: 0,
            consumer: 1,
            footprint: Footprint::uniform(2, AxisFootprint::new(1, 2, 0, 1)),
        }];
        let r = propagate_regions(&stages, &edges);
        assert_eq!(r[0].compute.0[0], Interval::new(8, 16));
    }

    #[test]
    fn diamond_dag_unions_needs() {
        // 0 -> 1, 0 -> 2, {1,2} -> 3: stage 0's need is the union from both
        // intermediate consumers.
        let dom = BoxDomain::interior(2, 64);
        let owned = BoxDomain::new(vec![Interval::new(30, 40); 2]);
        let mk = |o: BoxDomain| GroupStage {
            domain: dom,
            owned: o,
        };
        let stages = vec![
            mk(BoxDomain::empty(2)),
            mk(BoxDomain::empty(2)),
            mk(BoxDomain::empty(2)),
            mk(owned),
        ];
        let edges = vec![
            stencil_edge(0, 1, 2, 2), // wide radius through stage 1
            stencil_edge(0, 2, 0, 2),
            stencil_edge(1, 3, 0, 2),
            stencil_edge(2, 3, 1, 2),
        ];
        let r = propagate_regions(&stages, &edges);
        // via 1: need [30,40] dilated by 2 → [28,42]; via 2: [29,41] dilated 0 → [29,41]
        assert_eq!(r[0].compute.0[0], Interval::new(28, 42));
        assert_eq!(r[1].compute.0[0], Interval::new(30, 40));
        assert_eq!(r[2].compute.0[0], Interval::new(29, 41));
    }

    #[test]
    fn non_liveout_unused_stage_is_empty() {
        // A stage with no consumers and no owned region computes nothing.
        let dom = BoxDomain::interior(2, 16);
        let stages = vec![
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: BoxDomain::new(vec![Interval::new(1, 8); 2]),
            },
        ];
        let r = propagate_regions(&stages, &[]);
        assert!(r[0].compute.is_empty());
        assert!(!r[1].compute.is_empty());
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn rejects_backward_edge() {
        let dom = BoxDomain::interior(2, 8);
        let stages = vec![
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
        ];
        let _ = propagate_regions(&stages, &[stencil_edge(1, 0, 1, 2)]);
    }
}
