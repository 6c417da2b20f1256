//! Process-wide kernel-dispatch histogram.
//!
//! `gmg-runtime::kernel` classifies every kernel-case execution into one of
//! five dispatch classes, one kernel family and one tier. It notes each in
//! a plain [`Tally`] of the work item it runs in (a tile, a row piece, a
//! trapezoid); an op gathers its items' tallies and adds them here once,
//! so engine threads share these cache lines once per op, not per case.
//! Global statics (rather than per-`Trace` state) keep the histograms
//! independent of any trace handle; `reset()` lets harness sections scope
//! the counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which code path executed a kernel case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// Unit-stride plain row on the row body with a compile-time arity
    /// (0..=28, the sweep table). The label `unit_unrolled` predates the
    /// one row body and is kept: it is a profile JSON key.
    UnitUnrolled = 0,
    /// Unit-stride plain row of an arity beyond the sweep table, on the
    /// run-time-arity sweep `dyn_sweep` (label `unit_fallback`).
    UnitFallback = 1,
    /// Strided row kernel (restriction / interpolation accesses).
    Strided = 2,
    /// Expression-tree interpreter (no linearized form).
    Interpreter = 3,
    /// Variable-coefficient row (taps carry coefficient-grid factors), at
    /// the scalar or a lane tier.
    VarCoef = 4,
}

pub const KINDS: usize = 5;

pub const LABELS: [&str; KINDS] = [
    "unit_unrolled",
    "unit_fallback",
    "strided",
    "interpreter",
    "varcoef",
];

static COUNTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];

/// Current histogram, indexed like [`LABELS`].
pub fn snapshot() -> [u64; KINDS] {
    load(&COUNTS)
}

/// Number of `KernelImpl` families (mirrors `polymg::specialize::KernelImpl`;
/// index 0 is the generic path).
pub const IMPLS: usize = 7;

/// Labels indexed by `KernelImpl::index()`.
pub const IMPL_LABELS: [&str; IMPLS] = [
    "generic",
    "stencil2d5",
    "stencil2d9",
    "stencil3d7",
    "stencil3d27",
    "restrict",
    "interp",
];

static IMPL_COUNTS: [AtomicU64; IMPLS] = [const { AtomicU64::new(0) }; IMPLS];

/// Current per-kernel-impl histogram, indexed like [`IMPL_LABELS`].
pub fn impl_snapshot() -> [u64; IMPLS] {
    load(&IMPL_COUNTS)
}

/// Number of implementation tiers (mirrors `polymg::specialize::KernelTier`;
/// index 0 is the scalar tier).
pub const TIERS: usize = 3;

/// Labels indexed by `KernelTier::index()`.
pub const TIER_LABELS: [&str; TIERS] = ["scalar", "lane_safe", "fast_math"];

static TIER_COUNTS: [AtomicU64; TIERS] = [const { AtomicU64::new(0) }; TIERS];

/// Case executions counted locally, to be added to the histograms in one
/// go. Every execution is noted in all three, so they share a total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    kinds: [u64; KINDS],
    impls: [u64; IMPLS],
    tiers: [u64; TIERS],
}

impl Tally {
    /// One execution of dispatch class `kind`, kernel-impl family
    /// `impl_index` (`KernelImpl::index()`) and tier `tier_index`
    /// (`KernelTier::index()`).
    #[inline]
    pub fn note(&mut self, kind: Kind, impl_index: usize, tier_index: usize) {
        self.kinds[kind as usize] += 1;
        self.impls[impl_index] += 1;
        self.tiers[tier_index] += 1;
    }

    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: &Tally) {
        for (a, b) in self.counts_mut().zip(other.counts()) {
            *a += b;
        }
    }

    /// Add the counts to the process-wide histograms: one relaxed atomic
    /// per non-zero bucket.
    pub fn publish(&self) {
        let statics = COUNTS.iter().chain(&IMPL_COUNTS).chain(&TIER_COUNTS);
        for (c, n) in statics.zip(self.counts()).filter(|(_, n)| *n > 0) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.kinds
            .iter()
            .chain(&self.impls)
            .chain(&self.tiers)
            .copied()
    }

    fn counts_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        let Tally {
            kinds,
            impls,
            tiers,
        } = self;
        kinds.iter_mut().chain(impls).chain(tiers)
    }
}

/// Current per-tier histogram, indexed like [`TIER_LABELS`].
pub fn tier_snapshot() -> [u64; TIERS] {
    load(&TIER_COUNTS)
}

/// Zero all histograms (harness sections call this between experiments).
pub fn reset() {
    for c in COUNTS.iter().chain(&IMPL_COUNTS).chain(&TIER_COUNTS) {
        c.store(0, Ordering::Relaxed);
    }
}

fn load<const N: usize>(counts: &[AtomicU64; N]) -> [u64; N] {
    counts.each_ref().map(|c| c.load(Ordering::Relaxed))
}
