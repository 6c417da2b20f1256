//! The plan cache: compiled pipelines keyed by a structural fingerprint of
//! `(Pipeline, ParamBindings, PipelineOptions)`.
//!
//! Compiling a pipeline (lowering + grouping + tiling + storage planning)
//! is pure: the same inputs always produce the same plan. Serving many
//! solves therefore must not recompile per solver construction — the
//! `DslRunner`, the NAS runner, autotuning sweeps and the bench harnesses
//! all funnel through [`compile_cached`], which returns a shared
//! [`Arc<CompiledPipeline>`] from the process-wide [`PlanCache`]. Hit/miss
//! counters are published into trace reports (`plan_cache` section).

use crate::compile::compile;
use crate::options::PipelineOptions;
use crate::plan::CompiledPipeline;
use gmg_ir::{ParamBindings, Pipeline};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// 64-bit FNV-1a, fed field by field with type tags so adjacent fields
/// cannot alias (e.g. `group_limit=12, band=4` vs `group_limit=1, band=24`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[v as u8]);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Structural fingerprint of one compilation request. Every
/// [`PipelineOptions`] field participates; parameter bindings are hashed in
/// sorted order (the map's iteration order is not deterministic).
///
/// By construction this is [`pipeline_fingerprint`] continued over the
/// option fields — see [`fingerprint_with`].
pub fn fingerprint(
    pipeline: &Pipeline,
    bindings: &ParamBindings,
    options: &PipelineOptions,
) -> u64 {
    fingerprint_with(pipeline_fingerprint(pipeline, bindings), options)
}

/// Structural fingerprint of the pipeline and bindings alone — no options.
/// This is the key for *tuned-configuration* persistence
/// ([`crate::autotune::TunedStore`]): tile sizes and grouping limits are
/// what the tuner varies, so they must not participate in the key that
/// looks the tuned values up.
pub fn pipeline_fingerprint(pipeline: &Pipeline, bindings: &ParamBindings) -> u64 {
    let mut h = Fnv::new();

    // The pipeline is pure tree data (Vecs only), so its Debug rendering is
    // a stable structural encoding.
    h.tag(0x01);
    h.str(&format!("{pipeline:?}"));

    h.tag(0x02);
    let mut pairs: Vec<(usize, i64)> = bindings.0.iter().map(|(p, v)| (p.0, *v)).collect();
    pairs.sort_unstable();
    h.u64(pairs.len() as u64);
    for (p, v) in pairs {
        h.u64(p as u64);
        h.i64(v);
    }
    h.0
}

/// [`fingerprint`] from an already-computed [`pipeline_fingerprint`]: the
/// option fields hashed on top of `plan_fp`. The whole state of FNV-1a is
/// its running `u64`, so the fingerprint of a prefix *is* the state to
/// continue from (the prefix property):
/// `fingerprint(p, b, o) == fingerprint_with(pipeline_fingerprint(p, b), o)`
/// for every input. A caller that remembers `plan_fp` for a pipeline it has
/// built before (the server's session registry) gets the plan-cache key
/// without building or rendering the pipeline again.
pub fn fingerprint_with(plan_fp: u64, options: &PipelineOptions) -> u64 {
    let mut h = Fnv(plan_fp);
    h.tag(0x04);
    h.u64(options.group_limit as u64);
    h.tag(0x05);
    h.f64(options.overlap_threshold);
    h.tag(0x06);
    h.u64(options.tile_sizes.len() as u64);
    for &t in &options.tile_sizes {
        h.i64(t);
    }
    h.tag(0x07);
    h.bool(options.intra_group_reuse);
    h.tag(0x08);
    h.bool(options.inter_group_reuse);
    h.tag(0x09);
    h.bool(options.pooled_allocation);
    h.tag(0x0a);
    h.bool(options.dtile_smoother);
    h.tag(0x0b);
    h.u64(options.dtile_band as u64);
    h.tag(0x0c);
    h.i64(options.scratch_quantum);
    h.tag(0x0d);
    h.bool(options.coeff_factoring);
    h.tag(0x0e);
    h.u64(options.threads as u64);
    h.tag(0x0f);
    h.bool(options.specialize);
    h.tag(0x10);
    h.bool(options.simd);
    // `fast_math` changes the numerical results a plan produces (the
    // reassociating tier), so unlike `chaos` it MUST split the cache: a
    // fast-math run and its bitwise twin are different plans.
    h.tag(0x11);
    h.bool(options.fast_math);
    // `mixed_precision` swaps smoother chains onto f32 buffers — results
    // differ, so it splits the cache like `fast_math` does.
    h.tag(0x12);
    h.bool(options.mixed_precision);
    // `options.chaos` is deliberately NOT hashed: faults are a runtime
    // property, and a chaos run must share the cached plan of its
    // fault-free twin (the differential oracle compares the two).
    h.0
}

/// Default resident-plan bound of [`PlanCache::new`] and the global cache:
/// large enough that a full §3.2.4 autotuning sweep (80/135 configurations)
/// plus the benchmark matrix stays warm, small enough that a long-lived
/// server compiling arbitrary shapes cannot grow without bound.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// A plan being compiled by one thread while others wait for it (the
/// single-flight slot that prevents cache stampedes).
struct InFlight {
    done: Mutex<Option<Result<Arc<CompiledPipeline>, Vec<String>>>>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<CompiledPipeline>, Vec<String>>) {
        *self.done.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CompiledPipeline>, Vec<String>> {
        let mut g = self.done.lock().unwrap();
        loop {
            if let Some(r) = g.as_ref() {
                return r.clone();
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

enum Entry {
    /// Resident compiled plan with its LRU stamp.
    Ready {
        plan: Arc<CompiledPipeline>,
        last_used: u64,
    },
    /// Compilation in progress on another thread; join it instead of
    /// compiling the same plan twice.
    InFlight(Arc<InFlight>),
}

struct State {
    map: HashMap<u64, Entry>,
    /// Monotonic access clock for LRU stamps.
    tick: u64,
    capacity: usize,
}

impl State {
    /// Resident (`Ready`) plans only — in-flight slots hold no plan yet.
    fn resident(&self) -> usize {
        self.map
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
    }
}

/// Fingerprint-keyed store of compiled plans with hit/miss/eviction
/// counters. Counters are monotonic for the cache's lifetime — observers
/// (tests, trace publishing) should work with deltas.
///
/// The cache is **bounded**: at most `capacity` plans stay resident, with
/// least-recently-used eviction (a long-lived solve server churning through
/// distinct shapes must not leak plans forever). While a plan is resident,
/// every `get_or_compile` returns the same `Arc`. Concurrent misses on one
/// key are **single-flight**: the first thread compiles, the rest wait and
/// share the result (counted as hits).
pub struct PlanCache {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY)
    }

    /// A cache bounded to `capacity` resident plans (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache shared by every runner/harness.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// The resident-plan bound.
    pub fn capacity(&self) -> usize {
        self.state.lock().unwrap().capacity
    }

    /// Change the resident-plan bound (min 1), evicting LRU plans
    /// immediately if the cache is over the new bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut st = self.state.lock().unwrap();
        st.capacity = capacity.max(1);
        self.evict_over_capacity(&mut st);
    }

    /// Evict least-recently-used `Ready` entries until within capacity.
    fn evict_over_capacity(&self, st: &mut State) {
        while st.resident() > st.capacity {
            let victim = st
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight(_) => None,
                })
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    st.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Look up (or compile and insert) the plan for this request.
    /// Compilation errors are returned directly and never cached.
    pub fn get_or_compile(
        &self,
        pipeline: &Pipeline,
        bindings: &ParamBindings,
        options: PipelineOptions,
    ) -> Result<Arc<CompiledPipeline>, Vec<String>> {
        let key = fingerprint(pipeline, bindings, &options);
        let flight = {
            let mut st = self.state.lock().unwrap();
            st.tick += 1;
            let tick = st.tick;
            match st.map.get_mut(&key) {
                Some(Entry::Ready { plan, last_used }) => {
                    *last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(plan));
                }
                Some(Entry::InFlight(fl)) => Some(Arc::clone(fl)),
                None => {
                    // We own the compile for this key: park a single-flight
                    // slot so concurrent requests join instead of racing.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let fl = Arc::new(InFlight::new());
                    st.map.insert(key, Entry::InFlight(Arc::clone(&fl)));
                    drop(st);
                    // Compile outside the lock: a miss may take milliseconds
                    // and other configurations should not serialise behind it.
                    let result = compile(pipeline, bindings, options).map(Arc::new);
                    let mut st = self.state.lock().unwrap();
                    // Our slot may have been dropped by a concurrent clear();
                    // only replace it if it is still ours.
                    let still_ours = matches!(
                        st.map.get(&key),
                        Some(Entry::InFlight(cur)) if Arc::ptr_eq(cur, &fl)
                    );
                    if still_ours {
                        st.map.remove(&key);
                    }
                    if let Ok(plan) = &result {
                        st.tick += 1;
                        let last_used = st.tick;
                        st.map.insert(
                            key,
                            Entry::Ready {
                                plan: Arc::clone(plan),
                                last_used,
                            },
                        );
                        self.evict_over_capacity(&mut st);
                    }
                    drop(st);
                    fl.publish(result.clone());
                    return result;
                }
            }
        };
        // Another thread is compiling this exact plan: wait for it and share
        // the result — a hit from this thread's perspective (no compile).
        let flight = flight.expect("in-flight slot");
        let result = flight.wait();
        if result.is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Plans evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of resident plans (in-flight compilations excluded).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().resident()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters keep running). In-flight
    /// compilations are detached: their waiters still receive the result,
    /// it is just not retained here.
    pub fn clear(&self) {
        self.state.lock().unwrap().map.clear();
    }
}

/// Compile through the process-wide [`PlanCache`].
pub fn compile_cached(
    pipeline: &Pipeline,
    bindings: &ParamBindings,
    options: PipelineOptions,
) -> Result<Arc<CompiledPipeline>, Vec<String>> {
    PlanCache::global().get_or_compile(pipeline, bindings, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Variant;
    use gmg_ir::expr::Operand;
    use gmg_ir::stencil::stencil_2d;
    use proptest::prelude::*;

    fn five() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, -1.0, 0.0],
            vec![-1.0, 4.0, -1.0],
            vec![0.0, -1.0, 0.0],
        ]
    }

    fn tiny_pipeline(name: &str, n: i64) -> Pipeline {
        let mut p = Pipeline::new(name);
        let f = p.input("F", 2, n, 0);
        let d = p.function(
            "defect",
            2,
            n,
            0,
            stencil_2d(Operand::Func(f), &five(), 1.0),
        );
        p.mark_output(d);
        p
    }

    fn base_opts() -> PipelineOptions {
        PipelineOptions::for_variant(Variant::OptPlus, 2)
    }

    #[test]
    fn every_options_field_changes_the_fingerprint() {
        let p = tiny_pipeline("fp", 63);
        let b = ParamBindings::new();
        let base = fingerprint(&p, &b, &base_opts());
        type Mutation = Box<dyn Fn(&mut PipelineOptions)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("group_limit", Box::new(|o| o.group_limit += 1)),
            (
                "overlap_threshold",
                Box::new(|o| o.overlap_threshold += 0.5),
            ),
            ("tile_sizes", Box::new(|o| o.tile_sizes[0] += 8)),
            (
                "intra_group_reuse",
                Box::new(|o| o.intra_group_reuse = !o.intra_group_reuse),
            ),
            (
                "inter_group_reuse",
                Box::new(|o| o.inter_group_reuse = !o.inter_group_reuse),
            ),
            (
                "pooled_allocation",
                Box::new(|o| o.pooled_allocation = !o.pooled_allocation),
            ),
            (
                "dtile_smoother",
                Box::new(|o| o.dtile_smoother = !o.dtile_smoother),
            ),
            ("dtile_band", Box::new(|o| o.dtile_band += 1)),
            ("scratch_quantum", Box::new(|o| o.scratch_quantum += 1)),
            (
                "coeff_factoring",
                Box::new(|o| o.coeff_factoring = !o.coeff_factoring),
            ),
            ("threads", Box::new(|o| o.threads += 1)),
            ("specialize", Box::new(|o| o.specialize = !o.specialize)),
            ("simd", Box::new(|o| o.simd = !o.simd)),
            ("fast_math", Box::new(|o| o.fast_math = !o.fast_math)),
            (
                "mixed_precision",
                Box::new(|o| o.mixed_precision = !o.mixed_precision),
            ),
        ];
        for (field, m) in mutations {
            let mut o = base_opts();
            m(&mut o);
            assert_ne!(
                fingerprint(&p, &b, &o),
                base,
                "mutating `{field}` must change the fingerprint"
            );
        }
    }

    #[test]
    fn chaos_options_do_not_change_the_fingerprint() {
        let p = tiny_pipeline("chaos-fp", 63);
        let b = ParamBindings::new();
        let base = fingerprint(&p, &b, &base_opts());
        let mut o = base_opts();
        o.chaos = Some(crate::chaos::ChaosOptions::new(42, 0.5));
        assert_eq!(
            fingerprint(&p, &b, &o),
            base,
            "chaos is a runtime property and must not split the plan cache"
        );
    }

    #[test]
    fn pipeline_and_bindings_change_the_fingerprint() {
        let b = ParamBindings::new();
        let fp1 = fingerprint(&tiny_pipeline("a", 63), &b, &base_opts());
        let fp2 = fingerprint(&tiny_pipeline("b", 63), &b, &base_opts());
        let fp3 = fingerprint(&tiny_pipeline("a", 127), &b, &base_opts());
        assert_ne!(fp1, fp2);
        assert_ne!(fp1, fp3);

        let mut bound = ParamBindings::new();
        bound.0.insert(gmg_ir::ParamId(0), 7);
        let fp4 = fingerprint(&tiny_pipeline("a", 63), &bound, &base_opts());
        assert_ne!(fp1, fp4);
    }

    #[test]
    fn hits_and_misses_count() {
        let cache = PlanCache::new();
        let p = tiny_pipeline("counted", 63);
        let b = ParamBindings::new();
        let plan1 = cache.get_or_compile(&p, &b, base_opts()).unwrap();
        assert_eq!(cache.counters(), (0, 1));
        let plan2 = cache.get_or_compile(&p, &b, base_opts()).unwrap();
        assert_eq!(cache.counters(), (1, 1));
        assert!(
            Arc::ptr_eq(&plan1, &plan2),
            "a hit shares the compiled plan"
        );

        let mut other = base_opts();
        other.tile_sizes = vec![16, 256];
        let plan3 = cache.get_or_compile(&p, &b, other).unwrap();
        assert_eq!(cache.counters(), (1, 2));
        assert!(!Arc::ptr_eq(&plan1, &plan3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_misses_compile_once() {
        // The cache-stampede property: N threads racing on one uncached
        // pipeline must produce exactly one compile (miss count 1) and all
        // receive pointer-equal Arcs of the same plan.
        let cache = Arc::new(PlanCache::new());
        let p = Arc::new(tiny_pipeline("stampede", 127));
        let n_threads = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n_threads));
        let plans: Vec<Arc<CompiledPipeline>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let p = Arc::clone(&p);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        cache
                            .get_or_compile(&p, &ParamBindings::new(), base_opts())
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 1, "stampede must compile exactly once");
        assert_eq!(hits, n_threads as u64 - 1, "waiters/hits share the plan");
        for plan in &plans[1..] {
            assert!(
                Arc::ptr_eq(&plans[0], plan),
                "all racers must share one allocation"
            );
        }
    }

    #[test]
    fn lru_eviction_bounds_residency() {
        let cache = PlanCache::with_capacity(2);
        let b = ParamBindings::new();
        let p1 = tiny_pipeline("lru-1", 63);
        let p2 = tiny_pipeline("lru-2", 63);
        let p3 = tiny_pipeline("lru-3", 63);
        let plan1 = cache.get_or_compile(&p1, &b, base_opts()).unwrap();
        let _plan2 = cache.get_or_compile(&p2, &b, base_opts()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);

        // Touch p1 so p2 becomes the LRU victim when p3 arrives.
        let plan1_again = cache.get_or_compile(&p1, &b, base_opts()).unwrap();
        assert!(Arc::ptr_eq(&plan1, &plan1_again));
        let _plan3 = cache.get_or_compile(&p3, &b, base_opts()).unwrap();
        assert_eq!(cache.len(), 2, "capacity must bound residency");
        assert_eq!(cache.evictions(), 1);

        // p1 survived (recently used): same Arc, a hit.
        let (hits0, _) = cache.counters();
        let plan1_resident = cache.get_or_compile(&p1, &b, base_opts()).unwrap();
        assert!(Arc::ptr_eq(&plan1, &plan1_resident));
        assert_eq!(cache.counters().0, hits0 + 1);

        // p2 was evicted: recompiles (a miss), residency still bounded.
        let (_, misses0) = cache.counters();
        let _ = cache.get_or_compile(&p2, &b, base_opts()).unwrap();
        assert_eq!(cache.counters().1, misses0 + 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn shape_churn_never_exceeds_capacity() {
        let cache = PlanCache::with_capacity(3);
        let b = ParamBindings::new();
        for round in 0..4 {
            for i in 0..6 {
                let p = tiny_pipeline(&format!("churn-{i}"), 63);
                let _ = cache.get_or_compile(&p, &b, base_opts()).unwrap();
                assert!(
                    cache.len() <= 3,
                    "round {round}: resident {} > capacity 3",
                    cache.len()
                );
            }
        }
        assert!(cache.evictions() > 0, "churn past capacity must evict");
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = PlanCache::with_capacity(4);
        let b = ParamBindings::new();
        for i in 0..4 {
            let p = tiny_pipeline(&format!("shrink-{i}"), 63);
            let _ = cache.get_or_compile(&p, &b, base_opts()).unwrap();
        }
        assert_eq!(cache.len(), 4);
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new();
        // radius-2 read with ghost depth 1 -> validation error
        let mut p = Pipeline::new("bad");
        let f = p.input("F", 2, 63, 0);
        let s = p.function("oob", 2, 63, 0, Operand::Func(f).at(&[0, 2]));
        p.mark_output(s);
        let b = ParamBindings::new();
        assert!(cache.get_or_compile(&p, &b, base_opts()).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.counters().0, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random single-field perturbations never collide with the base
        /// fingerprint, and equal option sets always agree.
        #[test]
        fn perturbed_options_never_alias(
            field in 1usize..16,
            delta in 1u32..9,
        ) {
            let p = tiny_pipeline("prop", 63);
            let b = ParamBindings::new();
            let base = base_opts();
            let mut o = base_opts();
            let d = delta as usize;
            match field {
                1 => o.group_limit += d,
                2 => o.overlap_threshold += delta as f64 * 0.25,
                3 => o.tile_sizes[0] += delta as i64,
                4 => o.intra_group_reuse = !o.intra_group_reuse,
                5 => o.inter_group_reuse = !o.inter_group_reuse,
                6 => o.pooled_allocation = !o.pooled_allocation,
                7 => o.dtile_smoother = !o.dtile_smoother,
                8 => o.dtile_band += d,
                9 => o.scratch_quantum += delta as i64,
                10 => o.coeff_factoring = !o.coeff_factoring,
                11 => o.specialize = !o.specialize,
                12 => o.simd = !o.simd,
                13 => o.fast_math = !o.fast_math,
                14 => o.mixed_precision = !o.mixed_precision,
                _ => o.threads += d,
            }
            prop_assert_ne!(fingerprint(&p, &b, &o), fingerprint(&p, &b, &base));
            prop_assert_eq!(fingerprint(&p, &b, &base), fingerprint(&p, &b, &base_opts()));
        }
    }
}
