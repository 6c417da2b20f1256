//! Process-wide kernel-dispatch histogram.
//!
//! `gmg-runtime::kernel` classifies every kernel-case execution into one of
//! five dispatch classes and bumps one relaxed atomic here — once per case
//! execution (i.e. per stage per tile), not per row, so the cost is noise.
//! Global statics (rather than per-`Trace` state) keep the hot path free of
//! any handle indirection; `reset()` lets harness sections scope the counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which code path executed a kernel case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// Unit-stride row kernel with the tap count fully unrolled.
    UnitUnrolled = 0,
    /// Unit-stride generic per-tap loop (arities beyond the unrolled table).
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

/// Count `n` executions of dispatch class `kind`.
#[inline]
pub fn record(kind: Kind, n: u64) {
    COUNTS[kind as usize].fetch_add(n, Ordering::Relaxed);
}

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

/// Count `n` case executions dispatched to kernel-impl family
/// `impl_index` (`KernelImpl::index()`).
#[inline]
pub fn record_impl(impl_index: usize, n: u64) {
    IMPL_COUNTS[impl_index].fetch_add(n, Ordering::Relaxed);
}

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

/// Count `n` case executions run at implementation tier `tier_index`
/// (`KernelTier::index()`). Recorded alongside [`record_impl`], so the two
/// histograms share a total.
#[inline]
pub fn record_tier(tier_index: usize, n: u64) {
    TIER_COUNTS[tier_index].fetch_add(n, Ordering::Relaxed);
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
