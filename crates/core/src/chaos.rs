//! Deterministic fault injection (`FaultPlan`) for chaos testing.
//!
//! A `FaultPlan` arms injection points threaded through the execution
//! stack: pool/arena allocation failure, worker panics inside the
//! worker pool, and per-op error injection in the VM. Decisions are a
//! pure function of `(seed, site, per-site sequence number)` via
//! splitmix64, so a given seed replays the same fault schedule on every
//! run — the differential oracle ("recovered run is bitwise-identical to
//! the fault-free run, or a typed error, never a wrong grid") depends on
//! this determinism.
//!
//! Faults are a *runtime* property, not a plan property: `ChaosOptions`
//! rides on [`crate::PipelineOptions`] for convenience but is excluded
//! from the plan-cache fingerprint and normalized away from compiled
//! plans.

use std::sync::atomic::{AtomicU64, Ordering};

/// Site bitmask: pool allocation faults.
pub const SITE_POOL: u8 = 1;
/// Site bitmask: arena allocation faults.
pub const SITE_ARENA: u8 = 2;
/// Site bitmask: worker panics inside parallel regions.
pub const SITE_PANIC: u8 = 4;
/// Site bitmask: per-op error injection at op entry.
pub const SITE_OP: u8 = 8;
/// Site bitmask: all sites.
pub const SITE_ALL: u8 = SITE_POOL | SITE_ARENA | SITE_PANIC | SITE_OP;

/// User-facing chaos configuration (`--chaos-seed N --chaos-rate R`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability in `[0, 1]` that an armed site fires.
    pub rate: f64,
    /// Bitmask of [`SITE_POOL`]-style flags selecting which sites arm.
    pub sites: u8,
}

impl ChaosOptions {
    /// All sites armed at the given seed and rate.
    pub fn new(seed: u64, rate: f64) -> Self {
        ChaosOptions {
            seed,
            rate,
            sites: SITE_ALL,
        }
    }

    /// Restrict to a site mask.
    pub fn with_sites(mut self, sites: u8) -> Self {
        self.sites = sites;
        self
    }
}

/// An individual injection point in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `BufferPool::allocate` fails; recovery: fresh malloc, counted.
    PoolAlloc,
    /// `ArenaPool::get` fails; recovery: fresh arena, counted.
    ArenaAlloc,
    /// A worker panics mid-item; recovery: region poisoned, surfaced as
    /// `ExecError::WorkerPanicked`, pool stays reusable.
    WorkerPanic,
    /// Error injected at untiled-op entry (no recovery: typed error).
    OpUntiled,
    /// Error injected at overlapped-op entry (no recovery: typed error).
    OpOverlapped,
    /// Error injected at diamond-op entry (no recovery: typed error).
    OpDiamond,
    /// Error injected at mixed-precision-chain-op entry (no recovery:
    /// typed error).
    OpMixed,
}

impl FaultSite {
    /// Number of distinct sites (array sizing).
    pub const COUNT: usize = 7;

    /// Every site, in counter order.
    pub fn all() -> [FaultSite; Self::COUNT] {
        [
            FaultSite::PoolAlloc,
            FaultSite::ArenaAlloc,
            FaultSite::WorkerPanic,
            FaultSite::OpUntiled,
            FaultSite::OpOverlapped,
            FaultSite::OpDiamond,
            FaultSite::OpMixed,
        ]
    }

    /// Dense index into the per-site counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSite::PoolAlloc => 0,
            FaultSite::ArenaAlloc => 1,
            FaultSite::WorkerPanic => 2,
            FaultSite::OpUntiled => 3,
            FaultSite::OpOverlapped => 4,
            FaultSite::OpDiamond => 5,
            FaultSite::OpMixed => 6,
        }
    }

    /// Stable label used in trace events and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::PoolAlloc => "pool_alloc",
            FaultSite::ArenaAlloc => "arena_alloc",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::OpUntiled => "op_untiled",
            FaultSite::OpOverlapped => "op_overlapped",
            FaultSite::OpDiamond => "op_diamond",
            FaultSite::OpMixed => "op_mixed",
        }
    }

    /// Which [`ChaosOptions::sites`] bit gates this site.
    pub fn mask(self) -> u8 {
        match self {
            FaultSite::PoolAlloc => SITE_POOL,
            FaultSite::ArenaAlloc => SITE_ARENA,
            FaultSite::WorkerPanic => SITE_PANIC,
            FaultSite::OpUntiled
            | FaultSite::OpOverlapped
            | FaultSite::OpDiamond
            | FaultSite::OpMixed => SITE_OP,
        }
    }

    /// Per-site salt so sites draw independent splitmix64 streams.
    fn salt(self) -> u64 {
        // arbitrary odd constants; only distinctness matters
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.index() as u64 + 1) | 1
    }
}

/// splitmix64: tiny, statistically solid, and dependency-free. The one copy
/// every crate hashes with: fault schedules, loadgen jitter, tenant shards,
/// NAS and test inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counter snapshot of a [`FaultPlan`], indexed by [`FaultSite::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Times each site was consulted.
    pub armed: [u64; FaultSite::COUNT],
    /// Times each site fired a fault.
    pub fired: [u64; FaultSite::COUNT],
    /// Times a fired fault was recovered from (fresh malloc, retry, …).
    pub recovered: [u64; FaultSite::COUNT],
}

impl ChaosStats {
    /// Total consults across all sites.
    pub fn total_armed(&self) -> u64 {
        self.armed.iter().sum()
    }

    /// Total fired faults across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// Total recovered faults across all sites.
    pub fn total_recovered(&self) -> u64 {
        self.recovered.iter().sum()
    }

    /// Element-wise `self - earlier` (for delta ingestion into a trace).
    pub fn delta_since(&self, earlier: &ChaosStats) -> ChaosStats {
        let mut d = ChaosStats::default();
        for i in 0..FaultSite::COUNT {
            d.armed[i] = self.armed[i] - earlier.armed[i];
            d.fired[i] = self.fired[i] - earlier.fired[i];
            d.recovered[i] = self.recovered[i] - earlier.recovered[i];
        }
        d
    }
}

/// A seeded, deterministic fault schedule shared by every layer of the
/// stack (engine, pool, arena, workers).
///
/// Thread-safe: `should_fire` may be called concurrently from worker
/// threads. The decision for the k-th consult of a site is a pure
/// function of `(seed, site, k)`; concurrency can permute which *caller*
/// observes which k, but the multiset of decisions per site is fixed,
/// and on the serial sites (op entry, pool ops) the mapping is
/// exactly reproducible.
#[derive(Debug, Default)]
pub struct FaultPlan {
    enabled: bool,
    opts: ChaosOptions,
    seq: [AtomicU64; FaultSite::COUNT],
    armed: [AtomicU64; FaultSite::COUNT],
    fired: [AtomicU64; FaultSite::COUNT],
    recovered: [AtomicU64; FaultSite::COUNT],
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0,
            rate: 0.0,
            sites: 0,
        }
    }
}

impl FaultPlan {
    /// A plan that never fires; `should_fire` short-circuits without
    /// touching any counter.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// Arm a plan from user options.
    pub fn new(opts: ChaosOptions) -> Self {
        FaultPlan {
            enabled: opts.rate > 0.0 && opts.sites != 0,
            opts,
            ..FaultPlan::default()
        }
    }

    /// Whether any site can fire at all (fast path guard).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The options this plan was armed with.
    pub fn options(&self) -> ChaosOptions {
        self.opts
    }

    /// Consult the schedule: should the next event at `site` fault?
    ///
    /// Counts an armed consult, draws the site's next deterministic
    /// uniform in `[0, 1)`, and fires iff it falls below the configured
    /// rate.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        if !self.enabled || self.opts.sites & site.mask() == 0 {
            return false;
        }
        let i = site.index();
        self.armed[i].fetch_add(1, Ordering::Relaxed);
        let k = self.seq[i].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(splitmix64(self.opts.seed ^ site.salt()).wrapping_add(k));
        // 53 high bits → uniform double in [0, 1)
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fire = u < self.opts.rate;
        if fire {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Record that a fired fault at `site` was recovered from.
    pub fn record_recovered(&self, site: FaultSite) {
        self.recovered[site.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> ChaosStats {
        let mut s = ChaosStats::default();
        for i in 0..FaultSite::COUNT {
            s.armed[i] = self.armed[i].load(Ordering::Relaxed);
            s.fired[i] = self.fired[i].load(Ordering::Relaxed);
            s.recovered[i] = self.recovered[i].load(Ordering::Relaxed);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires_or_counts() {
        let p = FaultPlan::disabled();
        for site in FaultSite::all() {
            assert!(!p.should_fire(site));
        }
        assert_eq!(p.snapshot(), ChaosStats::default());
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let hot = FaultPlan::new(ChaosOptions::new(42, 1.0));
        let cold = FaultPlan::new(ChaosOptions::new(42, 0.0));
        for site in FaultSite::all() {
            for _ in 0..10 {
                assert!(hot.should_fire(site));
                assert!(!cold.should_fire(site));
            }
        }
        let s = hot.snapshot();
        let expect = 10 * FaultSite::COUNT as u64;
        assert_eq!(s.total_armed(), expect);
        assert_eq!(s.total_fired(), expect);
        // rate-0 plans are disabled entirely: nothing armed
        assert_eq!(cold.snapshot().total_armed(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::new(ChaosOptions::new(seed, 0.5));
            (0..64)
                .map(|_| p.should_fire(FaultSite::PoolAlloc))
                .collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds should differ");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let p = FaultPlan::new(ChaosOptions::new(11, 0.5));
        let a: Vec<bool> = (0..64)
            .map(|_| p.should_fire(FaultSite::PoolAlloc))
            .collect();
        let b: Vec<bool> = (0..64).map(|_| p.should_fire(FaultSite::OpMixed)).collect();
        assert_ne!(a, b, "sites must not share one stream");
    }

    /// Each site's first 64 decisions at seed 2026, rate 0.5, bit k = the
    /// k-th consult. A site's stream is salted by its index, so renumbering
    /// or re-salting any site moves its mask.
    #[test]
    fn fault_schedules_are_pinned() {
        const PINNED: [(FaultSite, u64); FaultSite::COUNT] = [
            (FaultSite::PoolAlloc, 0xea79_16d6_75b9_4ea7),
            (FaultSite::ArenaAlloc, 0x5dff_ef0b_2d49_0fc0),
            (FaultSite::WorkerPanic, 0x0ff9_c293_d62c_4166),
            (FaultSite::OpUntiled, 0x1ace_b820_f117_fbd7),
            (FaultSite::OpOverlapped, 0xca83_e2c5_f88b_e73f),
            (FaultSite::OpDiamond, 0x55b0_d55a_770a_326d),
            (FaultSite::OpMixed, 0xc1ae_f2e5_63d1_30db),
        ];
        let p = FaultPlan::new(ChaosOptions::new(2026, 0.5));
        for (site, want) in PINNED {
            let got = (0..64).fold(0u64, |m, k| m | (u64::from(p.should_fire(site)) << k));
            assert_eq!(got, want, "{} schedule moved: {got:#018x}", site.label());
        }
    }

    #[test]
    fn site_mask_gates_without_counting() {
        let p = FaultPlan::new(ChaosOptions::new(3, 1.0).with_sites(SITE_POOL));
        assert!(p.should_fire(FaultSite::PoolAlloc));
        assert!(!p.should_fire(FaultSite::WorkerPanic));
        assert!(!p.should_fire(FaultSite::OpMixed));
        let s = p.snapshot();
        assert_eq!(s.total_armed(), 1, "masked sites must not count as armed");
        assert_eq!(s.fired[FaultSite::PoolAlloc.index()], 1);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let p = FaultPlan::new(ChaosOptions::new(1234, 0.25));
        let fired = (0..4000)
            .filter(|_| p.should_fire(FaultSite::OpUntiled))
            .count();
        assert!(
            (800..1200).contains(&fired),
            "expected ~1000 of 4000 at rate 0.25, got {fired}"
        );
    }

    #[test]
    fn recovered_counter_and_delta() {
        let p = FaultPlan::new(ChaosOptions::new(5, 1.0));
        let before = p.snapshot();
        assert!(p.should_fire(FaultSite::ArenaAlloc));
        p.record_recovered(FaultSite::ArenaAlloc);
        let d = p.snapshot().delta_since(&before);
        assert_eq!(d.fired[FaultSite::ArenaAlloc.index()], 1);
        assert_eq!(d.recovered[FaultSite::ArenaAlloc.index()], 1);
        assert_eq!(d.total_armed(), 1);
    }
}
