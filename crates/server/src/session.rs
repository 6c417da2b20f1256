//! Warm solve sessions keyed on the plan-cache fingerprint.
//!
//! A *session* is everything reusable about one compilation request: the
//! shared [`CompiledPipeline`] (an `Arc` out of the global plan cache) plus
//! a pool of idle [`DslRunner`]s — each holding an `Engine` whose persistent
//! worker pool and `BufferPool` stay warm between requests. Repeat requests
//! for the same shape therefore skip compilation, allocation *and* every
//! step that leads up to them: the first request pays the full cost, the
//! steady state is a map lookup, forty hashed bytes and pure execution.
//!
//! The session key is [`polymg::cache::fingerprint`] over (pipeline,
//! bindings, options) — exactly the plan cache's notion of identity — so two
//! requests share a session iff they would share a compiled plan. A warm
//! acquire reaches that key without a pipeline:
//!
//! ```text
//! (scenario-adjusted MgConfig, Scenario)      everything the IR builder reads
//!      │ memo                                 miss: build + fingerprint, once
//!      ▼
//!   plan_fp = cache::pipeline_fingerprint     also the tuned store's key
//!      │ resolve_options                      on EVERY acquire
//!      ▼
//!   key = cache::fingerprint_with(plan_fp, &opts)
//!      │ sessions                             miss: build, compile_cached
//!      ▼
//!   Lease
//! ```
//!
//! The memo maps a request shape to the *structural* fingerprint only. It
//! never stores options, the variant, the precision tier or a session key:
//! those depend on the tuned store, which the online tuner writes while the
//! server runs, so they are resolved afresh each time — a winner recorded a
//! microsecond ago routes the very next acquire to a fresh session compiled
//! with the tuned schedule, and a tuned and an untuned request for the same
//! shape are correctly distinct sessions.
//!
//! Sessions and memo are bounded at [`DEFAULT_PLAN_CAPACITY`] entries each,
//! the plan cache's own bound: past it the least recently acquired entry is
//! dropped (a session with its idle runners, engines and pools). A lease
//! whose session was evicted meanwhile is dropped on release; the shape's
//! next acquire is an ordinary miss.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gmg_ir::{ParamBindings, Pipeline};
use gmg_multigrid::config::{CycleType, MgConfig, OperatorKind, SmoothSteps, SmootherKind};
use gmg_multigrid::scenario::{bind_coeff, build_scenario_pipeline, scenario_config, ScenarioSpec};
use gmg_multigrid::solver::DslRunner;
use polymg::cache::{self, DEFAULT_PLAN_CAPACITY};
use polymg::{
    ChaosOptions, CompiledPipeline, KernelTier, PipelineOptions, Scenario, TunedStore, Variant,
};

struct Session {
    plan: Arc<CompiledPipeline>,
    /// Warm runners not currently leased. Bounded by `max_idle`; a release
    /// beyond the bound drops the runner (its pools with it).
    idle: Vec<DslRunner>,
}

/// The memo key: the whole input of [`build_scenario_pipeline`] — every
/// field of the scenario-adjusted [`MgConfig`] (`omega` by its bits) and the
/// scenario. Two values are equal iff the builder is handed the same thing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PlanShape {
    ndims: usize,
    n: i64,
    levels: u32,
    steps: SmoothSteps,
    cycle: CycleType,
    omega_bits: u64,
    smoother: SmootherKind,
    operator: OperatorKind,
    scenario: Scenario,
}

impl PlanShape {
    fn of(cfg: &MgConfig, scenario: Scenario) -> PlanShape {
        // Destructured without `..` on purpose: a field added to `MgConfig`
        // must fail to compile here rather than alias two pipelines.
        let MgConfig {
            ndims,
            n,
            levels,
            steps,
            cycle,
            omega,
            smoother,
            operator,
        } = *cfg;
        PlanShape {
            ndims,
            n,
            levels,
            steps,
            cycle,
            omega_bits: omega.to_bits(),
            smoother,
            operator,
            scenario,
        }
    }
}

/// A map bounded at [`DEFAULT_PLAN_CAPACITY`] entries that forgets the
/// least recently touched one first.
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    /// Monotonic access clock for the recency stamps.
    tick: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new() -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
        }
    }

    /// Look `k` up and mark it most recently used.
    fn touch(&mut self, k: &K) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|(v, used)| {
            *used = tick;
            v
        })
    }

    /// The entry under `k` — `make()` if there is none yet — marked most
    /// recently used, and how many older entries the bound pushed out.
    fn touch_or_insert(&mut self, k: K, make: impl FnOnce() -> V) -> (&mut V, u64) {
        self.tick += 1;
        let tick = self.tick;
        let mut evicted = 0;
        if !self.map.contains_key(&k) {
            while self.map.len() >= DEFAULT_PLAN_CAPACITY {
                let oldest = self.map.iter().min_by_key(|(_, (_, used))| *used);
                let oldest = *oldest.expect("a full map has an oldest entry").0;
                self.map.remove(&oldest);
                evicted += 1;
            }
        }
        let entry = self.map.entry(k).or_insert_with(|| (make(), tick));
        entry.1 = tick;
        (&mut entry.0, evicted)
    }
}

/// Shared session registry. All methods are `&self`; internal locking keeps
/// the registry consistent under concurrent workers.
pub struct SessionManager {
    sessions: Mutex<Lru<u64, Session>>,
    /// Request shape → structural plan fingerprint (see the module doc for
    /// what is deliberately not in it).
    memo: Mutex<Lru<PlanShape, u64>>,
    /// Tuned-config store, shared across shards (and with the online tuner,
    /// which inserts winners at runtime — a lookup sees them immediately,
    /// and because options feed the session key, a winner simply routes the
    /// next acquire to a fresh session compiled with the tuned schedule).
    tuned: Option<Arc<Mutex<TunedStore>>>,
    chaos: Option<ChaosOptions>,
    /// Worker threads per engine (the runtime's own parallelism, distinct
    /// from the server's solve workers).
    engine_threads: usize,
    /// Idle runners retained per session.
    max_idle: usize,
    /// Kernel tier applied to every session's options (`--no-simd` /
    /// `--fast-math`). Part of the session key via the plan fingerprint.
    tier: KernelTier,
    pub session_hits: AtomicU64,
    pub session_misses: AtomicU64,
    /// Sessions dropped by the registry's bound.
    pub evicted: AtomicU64,
    pub engines_created: AtomicU64,
    pub tuned_applied: AtomicU64,
    /// Scenario pipelines built (IR construction): one per cold acquire — a
    /// shape's first touch and each further session it needs — never one
    /// for warm traffic.
    pub pipelines_built: AtomicU64,
}

/// A leased runner. Return it with [`SessionManager::release`] so the next
/// request for the same shape reuses its warm pools.
pub struct Lease {
    pub key: u64,
    pub runner: DslRunner,
    /// True when this acquire created the session (compile path).
    pub created_session: bool,
    /// Structural pipeline fingerprint (pre-options) — the tuned store's
    /// key; the online tuner buckets live observations by it.
    pub plan_fp: u64,
}

impl SessionManager {
    /// A manager over a private copy of `tuned`, at the default kernel
    /// tier ([`KernelTier::LaneSafe`]).
    pub fn new(
        tuned: Option<TunedStore>,
        chaos: Option<ChaosOptions>,
        engine_threads: usize,
        max_idle: usize,
    ) -> SessionManager {
        SessionManager::with_shared_store(
            tuned.map(|t| Arc::new(Mutex::new(t))),
            chaos,
            engine_threads,
            max_idle,
            KernelTier::LaneSafe,
        )
    }

    /// Full constructor over a *shared* tuned store: every shard (and the
    /// online tuner) holds the same `Arc`, so a winner recorded anywhere is
    /// visible to every subsequent [`acquire`](SessionManager::acquire).
    pub fn with_shared_store(
        tuned: Option<Arc<Mutex<TunedStore>>>,
        chaos: Option<ChaosOptions>,
        engine_threads: usize,
        max_idle: usize,
        tier: KernelTier,
    ) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(Lru::new()),
            memo: Mutex::new(Lru::new()),
            tuned,
            chaos,
            engine_threads: engine_threads.max(1),
            max_idle: max_idle.max(1),
            tier,
            session_hits: AtomicU64::new(0),
            session_misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            engines_created: AtomicU64::new(0),
            tuned_applied: AtomicU64::new(0),
            pipelines_built: AtomicU64::new(0),
        }
    }

    /// The pipeline options a request resolves to: the variant preset, the
    /// server's engine thread count and kernel tier, and — when a tuned
    /// entry matches the pipeline fingerprint — the persisted tile/group
    /// configuration and its tier. Fast-math is the one tier an entry
    /// cannot impose: its results are not bitwise, so only a session that
    /// opted in runs it (an entry tuned there runs lane-safe elsewhere),
    /// and such a session never downgrades either — its clients verify
    /// against a fast-math reference.
    fn resolve_options(&self, cfg: &MgConfig, variant: Variant, pfp: u64) -> (PipelineOptions, bool) {
        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
        opts.threads = self.engine_threads;
        opts.tier = self.tier;
        let Some(store) = &self.tuned else {
            return (opts, false);
        };
        let Some(entry) = store.lock().unwrap().lookup(pfp, cfg.ndims).cloned() else {
            return (opts, false);
        };
        opts = entry.config.apply(&opts);
        if self.tier == KernelTier::FastMath {
            opts.tier = KernelTier::FastMath;
        } else if opts.tier == KernelTier::FastMath {
            opts.tier = KernelTier::LaneSafe;
        }
        (opts, true)
    }

    /// The only place a request turns into IR. `cfg` is scenario-adjusted.
    fn build_pipeline(&self, cfg: &MgConfig, scenario: Scenario) -> Pipeline {
        self.pipelines_built.fetch_add(1, Ordering::Relaxed);
        build_scenario_pipeline(cfg, scenario)
    }

    /// Lease a warm runner for the constant-coefficient default scenario.
    pub fn acquire(&self, cfg: &MgConfig, variant: Variant) -> Result<Lease, Vec<String>> {
        self.acquire_scenario(cfg, variant, ScenarioSpec::new(Scenario::Constant), None)
    }

    /// Lease a warm runner for a scenario, creating the session (compiling
    /// through the global plan cache) on first sight. The session key is
    /// the plan fingerprint of the *scenario* pipeline with the
    /// mixed-precision opt-in folded into the options, so distinct
    /// scenarios and precision tiers never share engines. The coefficient
    /// grid is (re)bound on every acquire — warm runners carry no stale
    /// `A` from a previous request.
    pub fn acquire_scenario(
        &self,
        cfg: &MgConfig,
        variant: Variant,
        spec: ScenarioSpec,
        coeff: Option<&[f64]>,
    ) -> Result<Lease, Vec<String>> {
        // The protocol layer already validated decoded requests; in-process
        // callers go through the same gate so an invalid spec surfaces as a
        // compile-style error, never a panic.
        if let Err(e) = spec.scenario.validate(spec.mixed, coeff.is_some()) {
            return Err(vec![e.to_string()]);
        }
        let cfg = scenario_config(cfg, spec.scenario);
        let shape = PlanShape::of(&cfg, spec.scenario);
        let bindings = ParamBindings::new();
        // Built at most once per acquire, and only where something needs
        // it: the memo-miss branch here, the session-miss branch below.
        let mut pipeline = None;
        let remembered = self.memo.lock().unwrap().touch(&shape).copied();
        let plan_fp = match remembered {
            Some(fp) => fp,
            None => {
                // Built outside the lock: threads racing a shape's first
                // touch each build once and record the same fingerprint.
                let p = self.build_pipeline(&cfg, spec.scenario);
                let fp = cache::pipeline_fingerprint(&p, &bindings);
                pipeline = Some(p);
                self.memo.lock().unwrap().touch_or_insert(shape, || fp);
                fp
            }
        };
        let (mut opts, tuned) = self.resolve_options(&cfg, variant, plan_fp);
        opts.mixed_precision = spec.mixed;
        let key = cache::fingerprint_with(plan_fp, &opts);

        // Decide hit/miss, count it, and pop an idle runner under ONE lock
        // hold. Splitting these (check, count, pop as separate acquisitions)
        // is a TOCTOU: a hit could be counted for a session that no longer
        // exists, and two threads racing the same first-touch could each see
        // "exists" after only one counted the miss — breaking the
        // `hits + misses == acquires` accounting the trace publishes.
        let found = {
            let mut sessions = self.sessions.lock().unwrap();
            match sessions.touch(&key) {
                Some(s) => {
                    self.session_hits.fetch_add(1, Ordering::Relaxed);
                    Some((Arc::clone(&s.plan), s.idle.pop()))
                }
                None => {
                    self.session_misses.fetch_add(1, Ordering::Relaxed);
                    if tuned {
                        self.tuned_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    None
                }
            }
        };

        let created = found.is_none();
        let (plan, runner) = match found {
            Some((plan, runner)) => (plan, runner),
            None => {
                // Compile outside the sessions lock; the plan cache's
                // single-flight slot already serialises concurrent misses
                // on the same key without serialising different keys.
                let pipeline = pipeline.unwrap_or_else(|| self.build_pipeline(&cfg, spec.scenario));
                let plan = polymg::compile_cached(&pipeline, &bindings, opts)?;
                let mut sessions = self.sessions.lock().unwrap();
                let (session, evicted) = sessions.touch_or_insert(key, || Session {
                    plan: Arc::clone(&plan),
                    idle: Vec::new(),
                });
                self.evicted.fetch_add(evicted, Ordering::Relaxed);
                // Two concurrent first-touches both count a miss (each saw
                // the empty registry under the lock); the loser adopts the
                // winner's session here.
                (Arc::clone(&session.plan), session.idle.pop())
            }
        };

        let mut runner = match runner {
            Some(r) => r,
            None => {
                self.engines_created.fetch_add(1, Ordering::Relaxed);
                let mut r = DslRunner::from_plan(Arc::clone(&plan), &cfg);
                r.engine_mut().set_chaos(self.chaos);
                r
            }
        };
        if let Some(a) = coeff {
            // rebind on every acquire (a warm runner may hold a previous
            // request's grid); Ainv is derived from the same wire grid so
            // client-side references recompute it bitwise-identically
            bind_coeff(&mut runner, a.to_vec());
        }
        Ok(Lease {
            key,
            runner,
            created_session: created,
            plan_fp,
        })
    }

    /// Return a leased runner to its session's idle pool. Runners surviving
    /// a typed `ExecError` stay usable (the engine recovers its pools), so
    /// errors do not forfeit the warm state. A lease whose session was
    /// evicted while it was out is dropped.
    pub fn release(&self, lease: Lease) {
        let mut sessions = self.sessions.lock().unwrap();
        // not a `touch`: recency is when a shape was last *acquired*
        if let Some((s, _)) = sessions.map.get_mut(&lease.key) {
            if s.idle.len() < self.max_idle {
                s.idle.push(lease.runner);
            }
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, SmoothSteps};
    use gmg_multigrid::solver::setup_poisson;

    fn cfg2d() -> MgConfig {
        MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444())
    }

    #[test]
    fn acquire_release_reuses_warm_runner() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        assert!(lease.created_session);
        mgr.release(lease);
        let lease2 = mgr.acquire(&cfg, Variant::OptPlus).expect("hit");
        assert!(!lease2.created_session);
        assert_eq!(mgr.engines_created.load(Ordering::Relaxed), 1);
        assert_eq!(mgr.session_hits.load(Ordering::Relaxed), 1);
        assert_eq!(mgr.session_misses.load(Ordering::Relaxed), 1);
        mgr.release(lease2);
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn distinct_variants_get_distinct_sessions() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let a = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let b = mgr.acquire(&cfg, Variant::Naive).expect("compile");
        assert_ne!(a.key, b.key);
        mgr.release(a);
        mgr.release(b);
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn concurrent_acquires_count_exactly() {
        // hits + misses must equal acquires EXACTLY, even when many threads
        // race first-touch and warm paths across several shapes — the
        // single-lock decide-and-count in `acquire` is what guarantees it.
        let mgr = Arc::new(SessionManager::new(None, None, 1, 4));
        let shapes = [
            (cfg2d(), Variant::OptPlus),
            (cfg2d(), Variant::Opt),
            (
                MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444()),
                Variant::OptPlus,
            ),
        ];
        let threads = 8;
        let per_thread = 12;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mgr = Arc::clone(&mgr);
                let shapes = shapes.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let (cfg, variant) = &shapes[(t + i) % shapes.len()];
                        let lease = mgr.acquire(cfg, *variant).expect("acquire");
                        if i % 2 == 0 {
                            mgr.release(lease);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let hits = mgr.session_hits.load(Ordering::Relaxed);
        let misses = mgr.session_misses.load(Ordering::Relaxed);
        assert_eq!(
            hits + misses,
            (threads * per_thread) as u64,
            "hits ({hits}) + misses ({misses}) must equal acquires exactly"
        );
        assert!(misses >= shapes.len() as u64, "each shape misses at least once");
        assert_eq!(mgr.len(), shapes.len());
    }

    #[test]
    fn kernel_tier_knobs_split_sessions() {
        // the tier participates in the plan fingerprint, so servers at
        // different tiers must not share sessions; the default is lane-safe
        let cfg = cfg2d();
        let keys: Vec<u64> = KernelTier::ALL
            .iter()
            .map(|&tier| {
                let mgr = SessionManager::with_shared_store(None, None, 1, 4, tier);
                let lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
                assert_eq!(lease.runner.engine().plan().options.tier, tier);
                lease.key
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        let default_mgr = SessionManager::new(None, None, 1, 4);
        let default = default_mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        assert_eq!(default.key, keys[KernelTier::LaneSafe.index()]);
    }

    #[test]
    fn a_fast_math_entry_runs_only_in_a_fast_math_session() {
        // A store grown by a fast-math server holds fast-math winners. A
        // server at a bitwise tier that loads it keeps the tuned schedule
        // but runs it lane-safe; a fast-math server runs it as recorded.
        let cfg = cfg2d();
        let pipeline = build_scenario_pipeline(&cfg, Scenario::Constant);
        let plan_fp = cache::pipeline_fingerprint(&pipeline, &ParamBindings::new());
        let mut store = TunedStore::new();
        let config = polymg::TuneConfig {
            tier: KernelTier::FastMath,
            ..polymg::TuneConfig::new(vec![16, 64], 4)
        };
        store.record(plan_fp, cfg.ndims, config, 1.0);
        let store = Arc::new(Mutex::new(store));
        for (tier, want) in [
            (KernelTier::Scalar, KernelTier::LaneSafe),
            (KernelTier::LaneSafe, KernelTier::LaneSafe),
            (KernelTier::FastMath, KernelTier::FastMath),
        ] {
            let mgr = SessionManager::with_shared_store(Some(store.clone()), None, 1, 4, tier);
            let lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
            let options = &lease.runner.engine().plan().options;
            assert_eq!(lease.plan_fp, plan_fp);
            assert_eq!(mgr.tuned_applied.load(Ordering::Relaxed), 1, "{tier:?}");
            assert_eq!(options.tile_sizes, vec![16, 64], "{tier:?}");
            assert_eq!(options.tier, want, "a {tier:?} session");
        }
    }

    #[test]
    fn scenario_specs_split_sessions() {
        use polymg::Scenario;
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let constant = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let mixed = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec {
                    scenario: Scenario::Constant,
                    mixed: true,
                },
                None,
            )
            .expect("compile");
        let a = gmg_multigrid::scenario::coeff_field(&cfg);
        let varcoef = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                Some(&a),
            )
            .expect("compile");
        let rbgs = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::Rbgs),
                None,
            )
            .expect("compile");
        let keys = [constant.key, mixed.key, varcoef.key, rbgs.key];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "sessions {i} and {j} must not share a key");
            }
        }
        for l in [constant, mixed, varcoef, rbgs] {
            mgr.release(l);
        }
        assert_eq!(mgr.len(), 4);
        // repeat scenario acquire is a warm hit on its own session
        let again = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                Some(&a),
            )
            .expect("hit");
        assert!(!again.created_session);
        mgr.release(again);
    }

    #[test]
    fn scenario_acquire_rejects_invalid_specs() {
        use polymg::Scenario;
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        // varcoef without a grid never reaches the compiler
        let errs = mgr
            .acquire_scenario(
                &cfg,
                Variant::OptPlus,
                ScenarioSpec::new(Scenario::VarCoef),
                None,
            )
            .err()
            .expect("must reject");
        assert!(errs[0].contains("coefficient grid"));
        assert_eq!(mgr.len(), 0);
    }

    #[test]
    fn leased_runner_actually_solves() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let cfg = cfg2d();
        let mut lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        let (mut v, f, _) = setup_poisson(&cfg);
        lease.runner.cycle_with_stats(&mut v, &f).expect("cycle");
        assert!(v.iter().all(|x| x.is_finite()));
        mgr.release(lease);
    }

    // ----- the memo against its definition --------------------------------

    /// `serve_mixed`'s six request shapes: the default mix plus a varcoef
    /// and an rbgs item on the small 2-D grid.
    fn serve_mixed_shapes() -> Vec<(MgConfig, Scenario)> {
        let mut shapes: Vec<(MgConfig, Scenario)> = crate::loadgen::default_mix()
            .into_iter()
            .map(|item| (item.cfg, Scenario::Constant))
            .collect();
        shapes.push((cfg2d(), Scenario::VarCoef));
        shapes.push((cfg2d(), Scenario::Rbgs));
        assert_eq!(shapes.len(), 6);
        shapes
    }

    fn coeff_for(cfg: &MgConfig, scenario: Scenario) -> Option<Vec<f64>> {
        scenario
            .needs_coeff()
            .then(|| gmg_multigrid::scenario::coeff_field(cfg))
    }

    fn acquire_shape(mgr: &SessionManager, cfg: &MgConfig, scenario: Scenario) -> Lease {
        let coeff = coeff_for(cfg, scenario);
        mgr.acquire_scenario(
            cfg,
            Variant::OptPlus,
            ScenarioSpec::new(scenario),
            coeff.as_deref(),
        )
        .expect("acquire")
    }

    fn built(mgr: &SessionManager) -> u64 {
        mgr.pipelines_built.load(Ordering::Relaxed)
    }

    #[test]
    fn lease_keys_are_the_fingerprints_of_the_pipeline() {
        // The memo is a shortcut to `cache::fingerprint`, never a new key:
        // plan-cache keys, persisted tuned stores and the tuner's buckets
        // all depend on these two numbers staying what they were.
        let mgr = SessionManager::new(None, None, 1, 4);
        let bindings = ParamBindings::new();
        let mut checked = 0;
        for (cfg, scenario) in serve_mixed_shapes() {
            let coeff = coeff_for(&cfg, scenario);
            for variant in [Variant::Opt, Variant::OptPlus] {
                for mixed in [false, true] {
                    if mixed && !scenario.supports_mixed_precision() {
                        continue;
                    }
                    // twice: the second acquire takes the memo path
                    for _ in 0..2 {
                        let lease = mgr
                            .acquire_scenario(
                                &cfg,
                                variant,
                                ScenarioSpec { scenario, mixed },
                                coeff.as_deref(),
                            )
                            .expect("acquire");
                        let pipeline = build_scenario_pipeline(&cfg, scenario);
                        let mut opts = PipelineOptions::for_variant(variant, cfg.ndims);
                        opts.threads = 1;
                        opts.mixed_precision = mixed;
                        assert_eq!(
                            lease.plan_fp,
                            cache::pipeline_fingerprint(&pipeline, &bindings)
                        );
                        assert_eq!(lease.key, cache::fingerprint(&pipeline, &bindings, &opts));
                        mgr.release(lease);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 2 * 6 * 2, "only {checked} combinations checked");
    }

    #[test]
    fn fingerprints_are_the_ones_recorded_before_the_memo() {
        // `(key, plan_fp)` printed by `acquire` at commit 4ba40b0, where
        // both were hashed from the pipeline's Debug rendering per request.
        // The `key` halves were re-pinned when the option fingerprint lost
        // its tiling-mode tag (the mode was `group_limit > 1` restated), and
        // again when it lost the overlap-threshold, scratch-quantum and
        // coefficient-factoring tags (those became compiler constants);
        // `plan_fp`, the tuned-store key, hashes no option and is unchanged.
        let mgr = SessionManager::new(None, None, 1, 4);
        let n63 = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
        let a = mgr.acquire(&n63, Variant::OptPlus).expect("compile");
        assert_eq!((a.key, a.plan_fp), (0x527a6ce1c4a5ff3a, 0x0f124bc1485f4795));
        let b = acquire_shape(&mgr, &cfg2d(), Scenario::VarCoef);
        assert_eq!((b.key, b.plan_fp), (0xdfc34e34ada6b861, 0x2627250d7b6ed7a6));
        let mut w3 = MgConfig::new(3, 15, CycleType::W, SmoothSteps::s1000());
        w3.levels = 3;
        let c = mgr.acquire(&w3, Variant::Opt).expect("compile");
        assert_eq!((c.key, c.plan_fp), (0xa11119a3f894c12f, 0x613651dbe322249c));
        let mixed = ScenarioSpec {
            scenario: Scenario::Constant,
            mixed: true,
        };
        let d = mgr
            .acquire_scenario(&cfg2d(), Variant::OptPlus, mixed, None)
            .expect("compile");
        assert_eq!((d.key, d.plan_fp), (0xefd8d82e0d85e36e, 0x4baee4e7c333d866));
    }

    #[test]
    fn warm_acquires_build_no_pipeline() {
        let mgr = SessionManager::new(None, None, 1, 4);
        let shapes = serve_mixed_shapes();
        for round in 0..2 {
            for i in 0..1000 {
                let (cfg, scenario) = &shapes[i % shapes.len()];
                let lease = acquire_shape(&mgr, cfg, *scenario);
                mgr.release(lease);
            }
            assert_eq!(
                built(&mgr),
                shapes.len() as u64,
                "round {round}: one pipeline per distinct (cfg, scenario), ever"
            );
        }
        assert_eq!(mgr.session_misses.load(Ordering::Relaxed), 6);
        assert_eq!(mgr.session_hits.load(Ordering::Relaxed), 1994);
    }

    #[test]
    fn every_config_field_reaches_the_plan_fingerprint() {
        // Configurations that differ in one field the pipeline builder
        // reads must not share a memo entry (drop a field from `PlanShape`
        // and two of these alias).
        let mgr = SessionManager::new(None, None, 1, 4);
        let base = cfg2d();
        let mut omega = base.clone();
        omega.omega = 0.75;
        let operator = base.clone().with_dense_operator();
        let smoother = base.clone().with_chebyshev();
        let mut levels = base.clone();
        levels.levels = 3;
        let mut seen = std::collections::HashMap::new();
        for (what, cfg) in [
            ("base", base),
            ("omega", omega),
            ("operator", operator),
            ("smoother", smoother),
            ("levels", levels),
        ] {
            let lease = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
            let pipeline = build_scenario_pipeline(&cfg, Scenario::Constant);
            assert_eq!(
                lease.plan_fp,
                cache::pipeline_fingerprint(&pipeline, &ParamBindings::new()),
                "{what}"
            );
            if let Some(other) = seen.insert(lease.plan_fp, what) {
                panic!("`{what}` and `{other}` share a plan fingerprint");
            }
            mgr.release(lease);
        }
        assert_eq!(mgr.len(), 5);
    }

    #[test]
    fn a_tuned_winner_reroutes_the_next_acquire() {
        // Options are resolved on every acquire, never remembered: a winner
        // recorded between two acquires of a warm shape must move the
        // second one to a new session.
        let store = Arc::new(Mutex::new(TunedStore::new()));
        let mgr =
            SessionManager::with_shared_store(Some(store.clone()), None, 1, 4, KernelTier::LaneSafe);
        let cfg = cfg2d();
        let first = mgr.acquire(&cfg, Variant::OptPlus).expect("compile");
        assert!(first.created_session);
        let (key, plan_fp) = (first.key, first.plan_fp);
        mgr.release(first);
        let warm = mgr.acquire(&cfg, Variant::OptPlus).expect("hit");
        assert!(!warm.created_session);
        assert_eq!(warm.key, key);
        mgr.release(warm);
        assert_eq!(mgr.tuned_applied.load(Ordering::Relaxed), 0);

        store.lock().unwrap().record(
            plan_fp,
            cfg.ndims,
            polymg::TuneConfig::new(vec![16, 64], 6),
            1.0,
        );
        let tuned = mgr.acquire(&cfg, Variant::OptPlus).expect("compile tuned");
        assert_ne!(tuned.key, key, "the winner must feed the session key");
        assert_eq!(tuned.plan_fp, plan_fp);
        assert!(tuned.created_session);
        assert_eq!(mgr.tuned_applied.load(Ordering::Relaxed), 1);
        mgr.release(tuned);
        assert_eq!(mgr.len(), 2);
        assert_eq!(built(&mgr), 2, "the first touch and the tuned compile");
    }

    #[test]
    fn racing_first_touches_build_once_each_and_never_again() {
        let mgr = SessionManager::new(None, None, 1, 8);
        let shapes = [
            cfg2d(),
            MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444()),
            MgConfig::new(2, 15, CycleType::W, SmoothSteps::s1000()),
        ];
        let threads = 8;
        let per_thread = 500;
        // Round 0 is every thread's first acquire, all released onto one
        // barrier: whatever the interleaving, a thread builds at most one
        // pipeline in it, and every shape has a session when it ends.
        let first_round = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (mgr, shapes, first_round) = (&mgr, &shapes, &first_round);
                s.spawn(move || {
                    for i in 0..per_thread {
                        if i <= 1 {
                            first_round.wait();
                        }
                        let lease = mgr
                            .acquire(&shapes[(t + i) % shapes.len()], Variant::OptPlus)
                            .expect("acquire");
                        mgr.release(lease);
                    }
                });
            }
        });
        let hits = mgr.session_hits.load(Ordering::Relaxed);
        let misses = mgr.session_misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, (threads * per_thread) as u64);
        assert!((3..=threads as u64).contains(&misses), "misses {misses}");
        let first_touches = built(&mgr);
        assert!(
            (3..=threads as u64).contains(&first_touches),
            "{first_touches} pipelines for 3 shapes first touched by {threads} threads"
        );
        assert_eq!(mgr.len(), shapes.len());
    }

    #[test]
    fn the_registry_is_bounded_and_an_evicted_shape_comes_back_the_same() {
        // 300 distinct (n, levels, steps) shapes through a registry bounded
        // at DEFAULT_PLAN_CAPACITY = 256
        let mut shapes = Vec::new();
        for (n, max_levels) in [(7, 3), (15, 3)] {
            for levels in 1..=max_levels {
                for pre in 1..=5 {
                    for coarse in 0..5 {
                        for post in 0..2 {
                            let steps = SmoothSteps { pre, coarse, post };
                            let mut cfg = MgConfig::new(2, n, CycleType::V, steps);
                            cfg.levels = levels;
                            shapes.push(cfg);
                        }
                    }
                }
            }
        }
        assert_eq!(shapes.len(), 300);
        let solve = |lease: &mut Lease, cfg: &MgConfig| {
            let (mut v, f, _) = setup_poisson(cfg);
            lease.runner.cycle_with_stats(&mut v, &f).expect("cycle");
            v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        };

        let mgr = SessionManager::new(None, None, 1, 1);
        let mut first = mgr.acquire(&shapes[0], Variant::OptPlus).expect("compile");
        let solved_before = solve(&mut first, &shapes[0]);
        mgr.release(first);
        for cfg in &shapes[1..] {
            let lease = mgr.acquire(cfg, Variant::OptPlus).expect("compile");
            assert!(lease.created_session);
            mgr.release(lease);
            assert!(mgr.len() <= DEFAULT_PLAN_CAPACITY);
        }
        assert_eq!(mgr.len(), DEFAULT_PLAN_CAPACITY);
        assert_eq!(mgr.evicted.load(Ordering::Relaxed), 300 - 256);
        assert_eq!(mgr.memo.lock().unwrap().map.len(), DEFAULT_PLAN_CAPACITY);

        // the most recently acquired shapes are still warm ...
        let (hits, misses) = (
            mgr.session_hits.load(Ordering::Relaxed),
            mgr.session_misses.load(Ordering::Relaxed),
        );
        assert_eq!((hits, misses), (0, 300));
        for cfg in &shapes[300 - 16..] {
            let lease = mgr.acquire(cfg, Variant::OptPlus).expect("hit");
            assert!(!lease.created_session);
            mgr.release(lease);
        }
        assert_eq!(mgr.session_hits.load(Ordering::Relaxed), 16);
        assert_eq!(mgr.engines_created.load(Ordering::Relaxed), 300);

        // ... the oldest is gone, comes back as a counted miss, and solves
        // bitwise what it solved before
        let mut again = mgr
            .acquire(&shapes[0], Variant::OptPlus)
            .expect("recompile");
        assert!(again.created_session);
        assert_eq!(mgr.session_misses.load(Ordering::Relaxed), 301);
        assert_eq!(solve(&mut again, &shapes[0]), solved_before);
        mgr.release(again);
        assert_eq!(mgr.len(), DEFAULT_PLAN_CAPACITY);

        // a lease that outlives its session is dropped on release: hold the
        // newest shape, touch every other resident one, admit a new one
        let stale = mgr.acquire(&shapes[299], Variant::OptPlus).expect("hit");
        for cfg in shapes[45..299].iter().chain([&shapes[0]]) {
            let lease = mgr.acquire(cfg, Variant::OptPlus).expect("hit");
            assert!(!lease.created_session);
            mgr.release(lease);
        }
        let evictions = mgr.evicted.load(Ordering::Relaxed);
        let newcomer = mgr.acquire(&shapes[1], Variant::OptPlus).expect("compile");
        assert!(newcomer.created_session);
        mgr.release(newcomer);
        assert_eq!(mgr.evicted.load(Ordering::Relaxed), evictions + 1);
        let stale_key = stale.key;
        mgr.release(stale);
        assert_eq!(mgr.len(), DEFAULT_PLAN_CAPACITY);
        assert!(!mgr.sessions.lock().unwrap().map.contains_key(&stale_key));
    }
}
