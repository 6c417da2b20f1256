//! Online autotuning on idle worker capacity.
//!
//! A dedicated `gmg-server-tuner` thread closes the §3.2.4 loop in
//! production: workers sample every successful solve into a per-pipeline-
//! fingerprint mailbox, the tuner opens a [`CoordinateScan`] per
//! fingerprint, and measures candidate schedules on its own throwaway
//! engines — *never* on a live session, and only when the server is
//! completely idle (no queued and no in-flight solves). Winners are
//! inserted into the shared [`TunedStore`]: because tuned options feed the
//! session key, the very next acquire of that shape compiles a fresh
//! session with the winning schedule, and `--tuned FILE` persists it for
//! the next process.
//!
//! Safety properties (asserted by `tests/online_tuning.rs` and the ci.sh
//! gate):
//!
//! - **Idle-capacity only.** A trial starts only when every shard's QoS
//!   queues are empty and `inflight == 0`; otherwise the tuner backs off
//!   (`deferred_busy`). `trial_queue_peak` records the queue depth observed
//!   at each trial start and must stay 0. Trials never touch tenant
//!   budgets or admission queues.
//! - **Bitwise-unchanged for clients.** Candidates vary tile sizes,
//!   grouping limit and the smoother time band — schedule-only knobs — and
//!   the scalar/lane-safe kernel tiers, which are bitwise-identical. The
//!   reassociating fast-math tier enters the space only when the server
//!   itself runs `--fast-math` (its clients already verify against a
//!   fast-math reference).
//! - **Fault isolation.** A trial that hits a typed `ExecError` (chaos
//!   faults included) is retried once, then discarded from the search
//!   (`discarded_faulted`); it never panics, and a post-trial pool check
//!   (`live_bytes == 0`) counts leaks into `leaked_trials`.
//! - **Determinism.** The scan makes no random decision: which candidate
//!   comes next depends only on the metrics measured so far.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gmg_ir::Pipeline;
use gmg_multigrid::config::MgConfig;
use gmg_multigrid::scenario::{
    bind_coeff, build_scenario_pipeline, coeff_field, scenario_config, ScenarioSpec,
};
use gmg_multigrid::solver::{setup_poisson, DslRunner};
use gmg_trace::{Trace, TunerSnapshot};
use polymg::autotune::search::{CoordinateScan, SearchParams};
use polymg::autotune::{TuneConfig, TuneSource, TunedEntry, TunedStore};
use polymg::{ChaosOptions, PipelineOptions, Variant};

use crate::server::Shared;

/// Online-tuner construction options (`--tune-online` and friends).
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Trial budget per pipeline fingerprint. 0 means the rank default:
    /// 25% of the §3.2.4 sweep (20 trials in 2-D, 33 in 3-D).
    pub budget: usize,
    /// Where to persist winners (usually the `--tuned` path). `None` keeps
    /// the store in memory only.
    pub store_path: Option<PathBuf>,
    /// Cycles per trial measurement.
    pub trial_iters: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            budget: 0,
            store_path: None,
            trial_iters: 2,
        }
    }
}

/// One live solve sampled by a worker: enough to rebuild the pipeline and
/// judge candidate schedules against the deployed default.
pub(crate) struct Observation {
    /// Fingerprint of the scenario pipeline the solve ran; the winner is
    /// recorded under it.
    pub pfp: u64,
    pub cfg: MgConfig,
    pub variant: Variant,
    pub spec: ScenarioSpec,
}

/// Shared tuner state: the observation mailbox workers post into, the
/// winner store, and the witness counters the trace publishes.
pub struct Tuner {
    pub(crate) config: TunerConfig,
    pub(crate) store: Arc<Mutex<TunedStore>>,
    /// Engine knobs trials inherit from the server.
    engine_threads: usize,
    chaos: Option<ChaosOptions>,
    allow_fast_math: bool,
    inbox: Mutex<Vec<Observation>>,
    trials: AtomicU64,
    discarded_faulted: AtomicU64,
    pub(crate) deferred_busy: AtomicU64,
    winners: AtomicU64,
    fingerprints: AtomicU64,
    observed: AtomicU64,
    trial_queue_peak: AtomicU64,
    leaked_trials: AtomicU64,
}

impl Tuner {
    pub(crate) fn new(
        config: TunerConfig,
        store: Arc<Mutex<TunedStore>>,
        engine_threads: usize,
        chaos: Option<ChaosOptions>,
        allow_fast_math: bool,
    ) -> Tuner {
        Tuner {
            config,
            store,
            engine_threads: engine_threads.max(1),
            chaos,
            allow_fast_math,
            inbox: Mutex::new(Vec::new()),
            trials: AtomicU64::new(0),
            discarded_faulted: AtomicU64::new(0),
            deferred_busy: AtomicU64::new(0),
            winners: AtomicU64::new(0),
            fingerprints: AtomicU64::new(0),
            observed: AtomicU64::new(0),
            trial_queue_peak: AtomicU64::new(0),
            leaked_trials: AtomicU64::new(0),
        }
    }

    /// Worker side: sample one successful solve (cheap — a push under a
    /// short lock; the tuner thread does everything else).
    pub(crate) fn observe(&self, obs: Observation) {
        self.observed.fetch_add(1, Ordering::Relaxed);
        self.inbox.lock().unwrap().push(obs);
    }

    fn take_inbox(&self) -> Vec<Observation> {
        std::mem::take(&mut *self.inbox.lock().unwrap())
    }

    pub fn snapshot(&self) -> TunerSnapshot {
        TunerSnapshot {
            trials: self.trials.load(Ordering::Relaxed),
            discarded_faulted: self.discarded_faulted.load(Ordering::Relaxed),
            deferred_busy: self.deferred_busy.load(Ordering::Relaxed),
            winners: self.winners.load(Ordering::Relaxed),
            fingerprints: self.fingerprints.load(Ordering::Relaxed),
            observed: self.observed.load(Ordering::Relaxed),
            trial_queue_peak: self.trial_queue_peak.load(Ordering::Relaxed),
            leaked_trials: self.leaked_trials.load(Ordering::Relaxed),
        }
    }

    fn persist(&self) {
        if let Some(path) = &self.config.store_path {
            let _ = self.store.lock().unwrap().save(path);
        }
    }
}

/// Per-fingerprint search state.
struct TuningState {
    cfg: MgConfig,
    variant: Variant,
    spec: ScenarioSpec,
    search: CoordinateScan,
    /// Candidates already retried once after a fault (second fault ⇒
    /// permanent discard).
    retried: BTreeSet<String>,
    done: bool,
}

/// All shards idle: nothing queued, nothing executing. The gate a trial
/// must pass to start.
fn server_idle(sh: &Shared) -> bool {
    sh.inflight_now() == 0 && sh.shards.iter().all(|s| s.queues.lock().unwrap().len() == 0)
}

fn total_queued(sh: &Shared) -> u64 {
    sh.shards
        .iter()
        .map(|s| s.queues.lock().unwrap().len() as u64)
        .sum()
}

/// What a trial compiles: the observed request's scenario pipeline, over
/// its scenario-adjusted configuration — the same pipeline (and so the same
/// fingerprint) the session registry serves the request from.
fn trial_pipeline(cfg: &MgConfig, spec: ScenarioSpec) -> (MgConfig, Pipeline) {
    let cfg = scenario_config(cfg, spec.scenario);
    let pipeline = build_scenario_pipeline(&cfg, spec.scenario);
    (cfg, pipeline)
}

/// One measured trial on a throwaway engine: compile the candidate
/// schedule (uncached — trial plans must not churn the global LRU plan
/// cache), run `iters` cycles on a synthetic Poisson problem (with the
/// canonical coefficient field for `varcoef`), and return the per-cycle
/// metric in nanoseconds, preferring the engine's per-op spans over wall
/// time. `Err` carries the typed failure text.
fn run_trial(
    cfg: &MgConfig,
    variant: Variant,
    spec: ScenarioSpec,
    cand: &TuneConfig,
    threads: usize,
    chaos: Option<ChaosOptions>,
    iters: usize,
) -> Result<(f64, u64), String> {
    let (cfg, pipeline) = trial_pipeline(cfg, spec);
    let mut opts = cand.apply(&PipelineOptions::for_variant(variant, cfg.ndims));
    opts.threads = threads;
    opts.chaos = chaos;
    opts.mixed_precision = spec.mixed;
    let plan = polymg::compile(&pipeline, &gmg_ir::ParamBindings::new(), opts)
        .map_err(|errs| format!("compile: {}", errs.join("; ")))?;
    let mut runner = DslRunner::from_plan(plan, &cfg);
    runner.engine_mut().set_chaos(chaos);
    if spec.scenario.needs_coeff() {
        bind_coeff(&mut runner, coeff_field(&cfg));
    }
    let trace = Trace::enabled();
    runner.engine_mut().set_trace(trace.clone());
    let (mut v, f, _) = setup_poisson(&cfg);
    let iters = iters.max(1);
    let t0 = Instant::now();
    for i in 0..iters {
        if let Err(e) = runner.cycle_with_stats(&mut v, &f) {
            let live = runner.engine_mut().pool_stats().live_bytes as u64;
            return Err(format!("cycle {i}: {e} (live_bytes {live})"));
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    // Per-op spans (the engine attributes time to each schedule op) are the
    // preferred metric: immune to setup noise around the cycle loop. Fall
    // back to wall time if no op recorded a span.
    let ops = trace.report().expect("an enabled trace reports").ops;
    let metric = if ops.is_empty() {
        wall_ns
    } else {
        ops.iter().map(|o| o.ns as f64).sum::<f64>()
    } / iters as f64;
    let live = runner.engine_mut().pool_stats().live_bytes as u64;
    Ok((metric, live))
}

/// The tuner thread body. Exits (persisting the store) as soon as the
/// server begins shutting down.
pub(crate) fn tuner_loop(sh: Arc<Shared>) {
    let Some(tuner) = sh.tuner_handle() else {
        return;
    };
    let mut states: BTreeMap<u64, TuningState> = BTreeMap::new();
    while !sh.is_shutting_down() {
        for obs in tuner.take_inbox() {
            if states.contains_key(&obs.pfp) {
                continue;
            }
            let Ok(mut params) = SearchParams::for_rank(obs.cfg.ndims) else {
                continue;
            };
            params = params.with_fast_math(tuner.allow_fast_math);
            if tuner.config.budget > 0 {
                params = params.with_budget(tuner.config.budget);
            }
            let Ok(search) = CoordinateScan::new(obs.cfg.ndims, params) else {
                continue;
            };
            states.insert(
                obs.pfp,
                TuningState {
                    cfg: obs.cfg,
                    variant: obs.variant,
                    spec: obs.spec,
                    search,
                    retried: BTreeSet::new(),
                    done: false,
                },
            );
            tuner.fingerprints.fetch_add(1, Ordering::Relaxed);
        }

        let Some((&pfp, st)) = states.iter_mut().find(|(_, s)| !s.done) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };

        // Idle-capacity gate: no trial while anything is queued or in
        // flight. Back off briefly and re-check (shutdown included).
        if !server_idle(&sh) {
            tuner.deferred_busy.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        let Some(cand) = st.search.next_candidate() else {
            finish(&tuner, pfp, st);
            continue;
        };
        tuner
            .trial_queue_peak
            .fetch_max(total_queued(&sh), Ordering::Relaxed);
        match run_trial(
            &st.cfg,
            st.variant,
            st.spec,
            &cand,
            tuner.engine_threads,
            tuner.chaos,
            tuner.config.trial_iters,
        ) {
            Ok((metric_ns, live_bytes)) => {
                if live_bytes != 0 {
                    tuner.leaked_trials.fetch_add(1, Ordering::Relaxed);
                }
                tuner.trials.fetch_add(1, Ordering::Relaxed);
                st.search.report(&cand, metric_ns);
            }
            Err(_e) => {
                // Typed failure (chaos fault, compile rejection): the
                // sample is discarded — one retry in case the fault was
                // transient, then the configuration is dropped for good.
                tuner.discarded_faulted.fetch_add(1, Ordering::Relaxed);
                if st.retried.insert(format!("{cand:?}")) {
                    st.search.requeue(&cand);
                } else {
                    st.search.discard(&cand);
                }
            }
        }
        if st.search.finished() {
            finish(&tuner, pfp, st);
        }
    }
    tuner.persist();
}

/// Close out one fingerprint's search: record its winner (the trajectory
/// minimum — the scan measures the deployed default first, so the winner is
/// never slower than default under the trial metric) and persist.
fn finish(tuner: &Tuner, pfp: u64, st: &mut TuningState) {
    st.done = true;
    let Some(best) = st.search.best() else {
        return; // every trial faulted — nothing trustworthy to record
    };
    tuner.store.lock().unwrap().record_entry(TunedEntry {
        fingerprint: pfp,
        ndims: st.cfg.ndims,
        config: best.config,
        metric: best.metric * 1e-9,
        source: TuneSource::Online,
        evals: st.search.evals() as u64,
    });
    tuner.winners.fetch_add(1, Ordering::Relaxed);
    tuner.persist();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionManager;
    use gmg_multigrid::config::{CycleType, SmoothSteps};
    use polymg::{cache, Scenario};

    /// A trial compiles the pipeline the request was served from: for every
    /// scenario (and the mixed-precision tier) the trial pipeline's
    /// fingerprint is the `plan_fp` the session registry leased the request
    /// under — the key the winner is recorded at — and the trial runs.
    #[test]
    fn trials_tune_the_pipeline_the_winner_is_recorded_under() {
        let mgr = SessionManager::new(None, None, 1, 1);
        let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
        let mut specs: Vec<ScenarioSpec> =
            Scenario::ALL.into_iter().map(ScenarioSpec::new).collect();
        specs.push(ScenarioSpec {
            scenario: Scenario::Constant,
            mixed: true,
        });
        for spec in specs {
            let coeff = spec.scenario.needs_coeff().then(|| coeff_field(&cfg));
            let lease = mgr
                .acquire_scenario(&cfg, Variant::OptPlus, spec, coeff.as_deref())
                .expect("acquire");
            let (_, pipeline) = trial_pipeline(&cfg, spec);
            let trial_fp = cache::pipeline_fingerprint(&pipeline, &gmg_ir::ParamBindings::new());
            assert_eq!(trial_fp, lease.plan_fp, "{}", spec.label());
            let cand = TuneConfig::new(vec![8, 16], 4);
            let (metric, live) =
                run_trial(&cfg, Variant::OptPlus, spec, &cand, 1, None, 1).expect("trial");
            assert!(metric > 0.0, "{}: metric {metric}", spec.label());
            assert_eq!(live, 0, "{}", spec.label());
            mgr.release(lease);
        }
    }
}
