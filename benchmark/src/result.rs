//! What a run is told and what it hands back.

use crate::spans::{Reconciled, Span};
use crate::stats::Row;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, then more until `SETUP_SHARE` of
/// `seconds` is spent or `MAX_SETUPS` are done; `setup_s` is their median.
/// (A set-up allocates and first-touches fresh memory: single set-ups of one
/// run scatter by ±25 %, so nine of them leave the median ±6 %.)
pub const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 40;
const SETUP_SHARE: f64 = 1.0 / 12.0;
/// A traced run spends this share of `seconds` on an untraced section and
/// twice as much on the traced one; the rest of a traced run is the layer
/// probes. End-to-end metrics never come from a traced run.
const TRACED_UNTRACED_SHARE: f64 = 1.0 / 6.0;
/// The spans below a timed section must account for its wall within this.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    pub seed: u64,
    /// Length of the timed section of an untraced run.
    pub seconds: f64,
    pub traced: bool,
    /// A tenth of the samples, minimum sample counts dropped. Results are
    /// stamped and can never back a claim.
    pub quick: bool,
    /// Self-test: flip one bit of the first verified output, so the run
    /// must report a failure and exit non-zero.
    pub corrupt: bool,
}

impl RunCtx {
    /// `(seconds, minimum units)` of the untraced timed section, given the
    /// workload's minimum for a full run.
    pub fn untraced_section(&self, min_units: usize) -> (f64, usize) {
        if self.traced {
            (self.seconds * TRACED_UNTRACED_SHARE, min_units.div_ceil(3))
        } else {
            (self.seconds, min_units)
        }
    }

    /// The same for the traced section of a traced run.
    pub fn traced_section(&self, min_units: usize) -> (f64, usize) {
        (
            self.seconds * 2.0 * TRACED_UNTRACED_SHARE,
            min_units.div_ceil(3),
        )
    }

    /// Whether another set-up is due after `done` of them since `since`.
    pub fn wants_setup(&self, done: usize, since: Instant) -> bool {
        done < MIN_SETUPS
            || (done < MAX_SETUPS && since.elapsed().as_secs_f64() < self.seconds * SETUP_SHARE)
    }

    /// Minimum sample count `n`, unless this is a quick run.
    pub fn at_least(&self, n: usize) -> usize {
        if self.quick {
            1
        } else {
            n
        }
    }
}

/// Where a per-layer value was measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Origin {
    /// On the workload's own plans, frames and timed section.
    Workload,
    /// On the fixed reference shape of the layer probes, because the
    /// workload does not exercise that layer.
    Probe,
}

impl Origin {
    pub fn label(self) -> &'static str {
        match self {
            Origin::Workload => "workload",
            Origin::Probe => "probe",
        }
    }
}

pub type Layers = BTreeMap<String, (Row, Origin)>;

pub fn put(layers: &mut Layers, name: &str, row: Row) {
    layers.insert(name.to_string(), (row, Origin::Workload));
}

#[derive(Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Outputs checked (bitwise comparisons, solves, plans, grids).
    pub attempted: u64,
    pub failed: u64,
    /// Empty in a traced run.
    pub end_to_end: BTreeMap<String, Row>,
    /// Empty in an untraced run.
    pub per_layer: Layers,
    pub spans: Vec<Span>,
    pub reconciled: Vec<Reconciled>,
    /// Every speed tick taken while the workload ran, nanoseconds.
    pub ticks: Vec<f64>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn reconciles(&self) -> bool {
        self.reconciled
            .iter()
            .all(|r| r.gap_share() <= RECONCILE_TOLERANCE)
    }

    /// Store the nine measured end-to-end rows and derive `verified_share`
    /// (the never-zero twin of `failed_share`) from the checks so far.
    pub fn set_end_to_end(&mut self, rows: [(&str, Row); 9]) {
        for (name, row) in rows {
            self.end_to_end.insert(name.to_string(), row);
        }
        let verified = Row::exact(1.0 - self.failed_share());
        self.end_to_end
            .insert("verified_share".to_string(), verified);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.reconciles()
    }
}
