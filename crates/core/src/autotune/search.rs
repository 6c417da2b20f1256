//! Coordinate scan over the extended tuning space.
//!
//! The §3.2.4 sweep evaluates every tile/group combination — 80 points in
//! 2-D, 135 in 3-D — and each evaluation is a real multigrid solve, so the
//! sweep is exactly what a serving fleet cannot afford. The space is a
//! lattice of *ordered* axes, so the search walks it one axis at a time:
//! measure the deployed default, then scan a full line along one axis
//! through the best point measured so far, move to the next axis, and
//! re-read the best point between lines. It stops when a whole cycle over
//! the axes finds no line with an unproposed point on it — the best point
//! is then no worse than anything one axis move away — or when the
//! evaluation budget (25% of the corresponding sweep by default) is spent.
//! On a separable metric surface the first cycle reaches the lattice
//! optimum in 1 + Σ(axis length − 1) = 15 evaluations, in 2-D and in 3-D.
//!
//! Nothing here is random: the candidate trajectory is a pure function of
//! the reported metric stream, which is what makes the server's online
//! tuner and this crate's proptests reproducible.
//!
//! The lattice covers the paper's two axes plus two more: `smooth_band`
//! (the diamond-tile time-band height — schedule-only, like tiles and
//! grouping) and the kernel tier. The fast-math tier reassociates and
//! therefore changes results bitwise, so it only enters the space when the
//! caller sets [`SearchParams::allow_fast_math`] — the server does that
//! only for sessions that already opted in.

use std::collections::{BTreeSet, VecDeque};

use super::{search_space, TuneConfig, TuneError, TuneSample, GROUP_LIMITS};
use crate::options::{PipelineOptions, Variant};
use crate::specialize::KernelTier;

/// Smoother time-band heights explored by the search (the "smoother steps"
/// scheduling axis; maps onto `PipelineOptions::dtile_band`).
pub const SMOOTH_BANDS: [usize; 4] = [1, 2, 4, 8];

/// A lattice point: one index per axis, tile axes first, then grouping
/// limit, band and tier.
type Point = Vec<usize>;

/// The ordered axes of one rank's search lattice.
#[derive(Clone, Debug)]
struct Lattice {
    tiles: Vec<&'static [i64]>,
    tiers: &'static [KernelTier],
    /// Length of every axis, in [`Point`] order.
    lens: Vec<usize>,
}

impl Lattice {
    fn for_rank(ndims: usize, allow_fast_math: bool) -> Result<Lattice, TuneError> {
        let tiles: Vec<&'static [i64]> = match ndims {
            2 => vec![&[8, 16, 32, 64], &[64, 128, 256, 512]],
            3 => vec![&[8, 16, 32], &[8, 16, 32], &[64, 128, 256]],
            other => return Err(TuneError::UnsupportedRank(other)),
        };
        let tiers = if allow_fast_math {
            &KernelTier::ALL[..]
        } else {
            &KernelTier::ALL[..2] // scalar and lane-safe: the bitwise tiers
        };
        let mut lens: Vec<usize> = tiles.iter().map(|t| t.len()).collect();
        lens.extend([GROUP_LIMITS.len(), SMOOTH_BANDS.len(), tiers.len()]);
        Ok(Lattice { tiles, tiers, lens })
    }

    fn decode(&self, p: &[usize]) -> TuneConfig {
        let nd = self.tiles.len();
        TuneConfig {
            tile_sizes: self.tiles.iter().zip(p).map(|(t, &i)| t[i]).collect(),
            group_limit: GROUP_LIMITS[p[nd]],
            smooth_band: SMOOTH_BANDS[p[nd + 1]],
            tier: self.tiers[p[nd + 2]],
        }
    }

    /// Inverse of [`decode`](Lattice::decode). Panics if the config is not
    /// on the lattice — callers must only hand back configs this search
    /// emitted.
    fn encode(&self, cfg: &TuneConfig) -> Point {
        fn index<T: PartialEq>(axis: &[T], value: &T, what: &str) -> usize {
            axis.iter()
                .position(|x| x == value)
                .unwrap_or_else(|| panic!("{what} off the search lattice"))
        }
        let mut p: Point = self
            .tiles
            .iter()
            .zip(&cfg.tile_sizes)
            .map(|(t, size)| index(t, size, "tile size"))
            .collect();
        p.push(index(&GROUP_LIMITS, &cfg.group_limit, "group limit"));
        p.push(index(&SMOOTH_BANDS, &cfg.smooth_band, "smooth band"));
        p.push(index(self.tiers, &cfg.tier, "kernel tier"));
        p
    }
}

/// What a search may spend and where it may go.
/// [`SearchParams::for_rank`] gives the defaults used everywhere in-tree.
#[derive(Clone, Debug)]
pub struct SearchParams {
    /// Hard evaluation budget; [`CoordinateScan::next_candidate`] returns
    /// `None` once it is spent.
    pub max_evals: usize,
    /// Whether the fast-math kernel tier is part of the space. Keep this
    /// off unless the consumer already opted into fast-math numerics.
    pub allow_fast_math: bool,
}

impl SearchParams {
    /// Defaults for a rank: budget = 25% of the corresponding sweep
    /// (80 → 20 evaluations in 2-D, 135 → 33 in 3-D).
    pub fn for_rank(ndims: usize) -> Result<SearchParams, TuneError> {
        Ok(SearchParams {
            max_evals: search_space(ndims)?.len() / 4,
            allow_fast_math: false,
        })
    }

    pub fn with_budget(mut self, max_evals: usize) -> SearchParams {
        self.max_evals = max_evals;
        self
    }

    pub fn with_fast_math(mut self, allow: bool) -> SearchParams {
        self.allow_fast_math = allow;
        self
    }
}

/// Result of a completed [`search`] run.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best configuration found and its metric.
    pub best: TuneSample,
    /// Configurations actually evaluated.
    pub evals: usize,
    /// Every evaluation in order (the "candidate trajectory" the
    /// determinism proptests compare).
    pub trajectory: Vec<TuneSample>,
}

/// Stepwise ask/tell coordinate scan. The server's online tuner drives
/// this one trial at a time between requests; [`search`] wraps it into a
/// synchronous loop for offline use.
#[derive(Clone, Debug)]
pub struct CoordinateScan {
    max_evals: usize,
    lattice: Lattice,
    /// The deployed default: the first proposal, and the point lines are
    /// drawn through until something has been reported.
    start: Point,
    /// Candidates proposed but not yet reported/discarded.
    pending: VecDeque<Point>,
    /// Every point ever proposed (discarded points stay here so a faulted
    /// configuration is not proposed twice).
    seen: BTreeSet<Point>,
    /// Reported `(point, metric)` pairs, in report order.
    evaluated: Vec<(Point, f64)>,
    /// Axis the next line runs along.
    next_axis: usize,
}

impl CoordinateScan {
    pub fn new(ndims: usize, params: SearchParams) -> Result<CoordinateScan, TuneError> {
        let lattice = Lattice::for_rank(ndims, params.allow_fast_math)?;
        // Measuring the deployed default first means the search's baseline
        // is always in the trajectory: the winner is never slower than what
        // already runs, under the trial metric.
        let deployed = PipelineOptions::for_variant(Variant::OptPlus, ndims);
        let start = lattice.encode(&TuneConfig::new(deployed.tile_sizes, deployed.group_limit));
        let mut s = CoordinateScan {
            max_evals: params.max_evals,
            lattice,
            start: start.clone(),
            pending: VecDeque::new(),
            seen: BTreeSet::new(),
            evaluated: Vec::new(),
            next_axis: 0,
        };
        s.propose(start);
        Ok(s)
    }

    fn propose(&mut self, p: Point) -> bool {
        let fresh = self.seen.insert(p.clone());
        if fresh {
            self.pending.push_back(p);
        }
        fresh
    }

    /// The best reported point (the earliest on ties).
    fn incumbent(&self) -> Option<&(Point, f64)> {
        self.evaluated.iter().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Queue the next line: every unproposed point that differs from the
    /// incumbent on one axis only. Axes whose line is already proposed are
    /// skipped; a full cycle of them leaves the queue empty, which ends the
    /// search.
    fn scan_next_line(&mut self) {
        let through = self.incumbent().map_or(&self.start, |(p, _)| p).clone();
        let axes = self.lattice.lens.len();
        for _ in 0..axes {
            let axis = self.next_axis;
            self.next_axis = (axis + 1) % axes;
            let mut any = false;
            for idx in 0..self.lattice.lens[axis] {
                let mut p = through.clone();
                p[axis] = idx;
                any |= self.propose(p);
            }
            if any {
                return;
            }
        }
    }

    /// Next configuration to measure, or `None` when the evaluation budget
    /// is spent or no line through the best point has an unproposed point.
    pub fn next_candidate(&mut self) -> Option<TuneConfig> {
        if self.finished() {
            return None;
        }
        let p = self.pending.pop_front()?;
        Some(self.lattice.decode(&p))
    }

    /// Report the measured metric for a candidate from
    /// [`next_candidate`](CoordinateScan::next_candidate) (lower is better).
    pub fn report(&mut self, cfg: &TuneConfig, metric: f64) {
        self.evaluated.push((self.lattice.encode(cfg), metric));
    }

    /// Drop a candidate without a metric (e.g. its trial faulted). Nothing
    /// to undo: the point left `pending` when it was handed out and stays
    /// in `seen`, so it is not proposed again. The method exists to make
    /// call sites explicit.
    pub fn discard(&mut self, _cfg: &TuneConfig) {}

    /// Put a candidate back at the front of the queue (e.g. to retry a
    /// trial that failed for reasons unrelated to the configuration).
    pub fn requeue(&mut self, cfg: &TuneConfig) {
        self.pending.push_front(self.lattice.encode(cfg));
    }

    /// Number of metrics reported so far.
    pub fn evals(&self) -> usize {
        self.evaluated.len()
    }

    /// Whether the search will emit no further candidates.
    pub fn finished(&mut self) -> bool {
        if self.evaluated.len() >= self.max_evals {
            return true;
        }
        if self.pending.is_empty() {
            self.scan_next_line();
        }
        self.pending.is_empty()
    }

    /// Best evaluated configuration so far.
    pub fn best(&self) -> Option<TuneSample> {
        self.incumbent().map(|(p, m)| TuneSample {
            config: self.lattice.decode(p),
            metric: *m,
        })
    }
}

/// Run the search to completion against a synchronous evaluator.
pub fn search(
    ndims: usize,
    params: &SearchParams,
    mut eval: impl FnMut(&TuneConfig) -> f64,
) -> Result<SearchOutcome, TuneError> {
    let mut s = CoordinateScan::new(ndims, params.clone())?;
    let mut trajectory = Vec::new();
    while let Some(cfg) = s.next_candidate() {
        let metric = eval(&cfg);
        s.report(&cfg, metric);
        trajectory.push(TuneSample {
            config: cfg,
            metric,
        });
    }
    let best = s.best().ok_or(TuneError::EmptySpace)?;
    Ok(SearchOutcome {
        best,
        evals: trajectory.len(),
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface(cfg: &TuneConfig) -> f64 {
        // separable convex bowl centered off the default configuration
        let mut m = 0.0;
        m += ((cfg.tile_sizes[0] - 16).abs() as f64) / 8.0;
        m += ((cfg.tile_sizes[cfg.tile_sizes.len() - 1] - 128).abs() as f64) / 64.0;
        m += (cfg.group_limit as f64 - 8.0).abs();
        m += (cfg.smooth_band as f64 - 2.0).abs();
        m += match cfg.tier {
            KernelTier::LaneSafe => 0.0,
            _ => 1.0,
        };
        m
    }

    #[test]
    fn rejects_unsupported_rank() {
        let p = SearchParams::for_rank(2).unwrap();
        assert!(matches!(
            CoordinateScan::new(5, p),
            Err(TuneError::UnsupportedRank(5))
        ));
        assert!(matches!(
            SearchParams::for_rank(1),
            Err(TuneError::UnsupportedRank(1))
        ));
    }

    #[test]
    fn budget_is_respected_and_best_is_min_of_trajectory() {
        for ndims in [2usize, 3] {
            let params = SearchParams::for_rank(ndims).unwrap();
            let out = search(ndims, &params, surface).unwrap();
            assert!(out.evals <= params.max_evals);
            assert_eq!(out.evals, out.trajectory.len());
            let min = out
                .trajectory
                .iter()
                .map(|s| s.metric)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(out.best.metric, min);
        }
    }

    #[test]
    fn first_candidate_is_the_deployed_default() {
        let mut s = CoordinateScan::new(2, SearchParams::for_rank(2).unwrap()).unwrap();
        let first = s.next_candidate().unwrap();
        assert_eq!(first, TuneConfig::new(vec![32, 512], 6));
        let mut s3 = CoordinateScan::new(3, SearchParams::for_rank(3).unwrap()).unwrap();
        assert_eq!(
            s3.next_candidate().unwrap(),
            TuneConfig::new(vec![16, 16, 128], 6)
        );
    }

    #[test]
    fn fast_math_only_explored_when_allowed() {
        let params = SearchParams::for_rank(2).unwrap().with_budget(80);
        let out = search(2, &params, surface).unwrap();
        assert!(out
            .trajectory
            .iter()
            .all(|s| s.config.tier != KernelTier::FastMath));

        let fm = params.clone().with_fast_math(true);
        let out = search(2, &fm, |c| surface(c) * 0.5).unwrap();
        // with the tier axis open and a generous budget the tier must
        // actually be explored
        assert!(out
            .trajectory
            .iter()
            .any(|s| s.config.tier == KernelTier::FastMath));
    }

    #[test]
    fn stops_after_a_cycle_with_nothing_left_to_propose() {
        // Separable surface, budget far above the need: the first cycle
        // (default + 14 line points) reaches the optimum; the second scans
        // what is one move away from it and not yet proposed — 10 points,
        // the band and tier lines of the first cycle already ran through
        // the optimum — and improves nothing; the third finds every line
        // proposed. The stop rule, not the budget or the 640-point lattice,
        // ends the search.
        let params = SearchParams::for_rank(2).unwrap().with_budget(1000);
        let out = search(2, &params, surface).unwrap();
        assert_eq!(out.evals, 1 + 14 + 10);
        assert_eq!(out.best.metric, 0.0);
        assert!(
            out.trajectory[..15].iter().any(|s| s.metric == 0.0),
            "optimum reached within the first cycle"
        );
        let mut seen = std::collections::BTreeSet::new();
        for s in &out.trajectory {
            assert!(seen.insert(format!("{:?}", s.config)), "duplicate candidate");
        }
    }

    #[test]
    fn requeue_and_discard_drive_retry_flow() {
        let mut s = CoordinateScan::new(2, SearchParams::for_rank(2).unwrap()).unwrap();
        let c1 = s.next_candidate().unwrap();
        s.requeue(&c1);
        let again = s.next_candidate().unwrap();
        assert_eq!(c1, again, "requeued candidate comes back first");
        s.discard(&again);
        // nothing reported yet: the scan still runs, through the default
        let c2 = s.next_candidate().unwrap();
        assert_ne!(c1, c2, "discarded candidate is not re-proposed");
        assert_eq!(s.evals(), 0, "neither discard nor requeue counts as an eval");
    }
}
