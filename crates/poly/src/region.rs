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
//! group's domains and edges once, as right-aligned fixed-rank [`Box3`]s
//! with each consumer's in-edges in one bucket, and then propagates tile
//! after tile into buffers it reuses, allocating nothing per tile. The tile walk
//! ([`crate::tiling::tile_walk`]), the grouping heuristic's statistics
//! ([`crate::tiling::evaluate_tiling`]) and the [`BoxDomain`]-facing
//! [`propagate_regions`] all run it.

use crate::access::{AxisFootprint, Footprint};
use crate::domain::{box3_hull, box3_intersect, box3_is_empty, Box3, BoxDomain};

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
/// consumer-bucketed edges in fixed-rank form, plus the per-tile buffers
/// [`Propagator::run`] overwrites.
pub(crate) struct Propagator {
    pub(crate) domains: Vec<Box3>,
    /// Per stage, the empty box of its rank (the initial need).
    pub(crate) empty: Vec<Box3>,
    /// Consumer `c`'s in-edges are `in_edges[first[c]..first[c + 1]]`, as
    /// (producer, footprint padded with pointwise axes), in edge order.
    first: Vec<usize>,
    in_edges: Vec<(usize, [AxisFootprint; 3])>,
    /// Need accumulated from consumers, not yet clamped to the domain.
    need: Vec<Box3>,
    /// Results of the last [`Propagator::run`], per stage.
    pub(crate) compute: Vec<Box3>,
    pub(crate) alloc: Vec<Box3>,
}

impl Propagator {
    /// Take a group's stage domains (the `owned` boxes are ignored) and
    /// edges. `stages` must be in topological order; every edge must satisfy
    /// `producer < consumer`.
    ///
    /// # Panics
    /// Panics on malformed edges (non-topological, out of range, or rank
    /// mismatches between a footprint and the stages it connects), and on
    /// ranks above 3.
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
        let mut first = vec![0; n + 1];
        for e in edges {
            first[e.consumer + 1] += 1;
        }
        for c in 0..n {
            first[c + 1] += first[c];
        }
        let mut in_edges = vec![(0, [AxisFootprint::pointwise(); 3]); edges.len()];
        let mut next = first.clone();
        for e in edges {
            let mut fp = [AxisFootprint::pointwise(); 3];
            fp[3 - e.footprint.ndims()..].copy_from_slice(&e.footprint.0);
            in_edges[next[e.consumer]] = (e.producer, fp);
            next[e.consumer] += 1;
        }
        let empty: Vec<Box3> = stages
            .iter()
            .map(|s| BoxDomain::empty(s.domain.ndims()).to_box3())
            .collect();
        Propagator {
            domains: stages.iter().map(|s| s.domain.to_box3()).collect(),
            need: empty.clone(),
            compute: empty.clone(),
            alloc: empty.clone(),
            empty,
            first,
            in_edges,
        }
    }

    /// Propagate one tile's `owned` boxes (one per stage, empty for stages
    /// that are not live-out) backward, filling `compute` and `alloc`.
    pub(crate) fn run(&mut self, owned: &[Box3]) {
        self.need.copy_from_slice(&self.empty);
        for c in (0..self.domains.len()).rev() {
            let alloc = box3_hull(&owned[c], &self.need[c]);
            let compute = box3_intersect(&alloc, &self.domains[c]);
            // propagate this stage's computed region to its producers
            if !box3_is_empty(&compute) {
                for (p, fp) in &self.in_edges[self.first[c]..self.first[c + 1]] {
                    let needed: Box3 = std::array::from_fn(|d| fp[d].input_needed(&compute[d]));
                    self.need[*p] = box3_hull(&self.need[*p], &needed);
                }
            }
            self.compute[c] = compute;
            self.alloc[c] = alloc;
        }
    }
}

/// Propagate regions backward through the group: the one propagation
/// core, run for one tile, in [`BoxDomain`] form.
///
/// `stages` must be in topological order; every edge must satisfy
/// `producer < consumer`.
///
/// # Panics
/// Panics on malformed edges (non-topological, out of range, or rank
/// mismatches between a footprint and the stages it connects), on an
/// owned box whose rank differs from its domain's, and on ranks above 3.
pub fn propagate_regions(stages: &[GroupStage], edges: &[GroupEdge]) -> Vec<StageRegion> {
    let mut core = Propagator::new(stages, edges);
    let owned: Vec<Box3> = stages
        .iter()
        .map(|s| {
            assert_eq!(s.owned.ndims(), s.domain.ndims(), "rank mismatch");
            s.owned.to_box3()
        })
        .collect();
    core.run(&owned);
    stages
        .iter()
        .zip(core.compute.iter().zip(&core.alloc))
        .map(|(s, (compute, alloc))| StageRegion {
            compute: BoxDomain::from_box3(compute, s.domain.ndims()),
            alloc: BoxDomain::from_box3(alloc, s.domain.ndims()),
        })
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
                domain: dom.clone(),
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom.clone(),
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom.clone(),
                owned: owned_last.clone(),
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
                domain: dom.clone(),
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
            domain: dom.clone(),
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
                domain: dom.clone(),
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
                domain: dom.clone(),
                owned: BoxDomain::empty(2),
            },
            GroupStage {
                domain: dom,
                owned: BoxDomain::empty(2),
            },
        ];
        let _ = propagate_regions(&stages, &[stencil_edge(1, 0, 1, 2).clone()]);
    }
}
