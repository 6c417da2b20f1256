//! Cycle drivers, residual norms and problem setup.
//!
//! The iteration over whole multigrid cycles is *external* to the DSL
//! pipeline (§2) — this module owns that loop: `v ← cycle(v, f)` until the
//! iteration budget is spent (the paper's Table 2 iteration counts) or a
//! residual tolerance is reached.

use crate::config::MgConfig;
use crate::cycles::build_cycle_pipeline;
use crate::handopt::HandOpt;
use gmg_ir::ParamBindings;
use gmg_runtime::{BatchRhs, Engine, ExecError, RunStats};
use gmg_trace::Trace;
use polymg::{CompiledPipeline, PipelineOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Anything that can run one multigrid cycle in place.
pub trait CycleRunner {
    /// `v ← cycle(v, f)`. Buffers are dense `(n+2)^d`, ghost rings hold
    /// boundary values.
    fn cycle(&mut self, v: &mut [f64], f: &[f64]);

    /// Display label of the variant.
    fn label(&self) -> String;

    /// Install a trace for per-stage instrumentation. Runners without an
    /// instrumented execution path (the hand-optimized baselines) ignore it;
    /// per-cycle events are still recorded by [`run_cycles_traced`].
    fn set_trace(&mut self, _trace: Trace) {}
}

/// DSL-compiled runner (any PolyMG variant).
pub struct DslRunner {
    engine: Engine,
    out: Vec<f64>,
    /// Per-RHS live-out staging for batched cycles (lazily sized).
    outs: Vec<Vec<f64>>,
    /// Extra read-only external inputs bound on every run (the
    /// variable-coefficient scenario's `A` grid).
    extras: Vec<(String, Vec<f64>)>,
    label: String,
}

impl DslRunner {
    /// Compile `cfg` under `opts` (via the global plan cache — repeated
    /// construction with identical structure reuses the compiled plan) and
    /// wrap the engine.
    pub fn new(cfg: &MgConfig, opts: PipelineOptions, label: &str) -> Result<Self, Vec<String>> {
        DslRunner::from_pipeline(&build_cycle_pipeline(cfg), cfg, opts, label)
    }

    /// Like [`DslRunner::new`] but for a caller-built pipeline (the
    /// scenario builders emit variable-coefficient / smoother-sequence
    /// structures that `build_cycle_pipeline` does not).
    pub fn from_pipeline(
        pipeline: &gmg_ir::Pipeline,
        cfg: &MgConfig,
        opts: PipelineOptions,
        label: &str,
    ) -> Result<Self, Vec<String>> {
        // chaos is a runtime property: it is stripped from the (cacheable)
        // plan by compile, so arm the engine with it directly
        let chaos = opts.chaos;
        let plan = polymg::compile_cached(pipeline, &ParamBindings::new(), opts)?;
        let out_len = cfg.alloc_len(cfg.levels - 1);
        let mut engine = Engine::new(plan);
        engine.set_chaos(chaos);
        Ok(DslRunner {
            engine,
            out: vec![0.0; out_len],
            outs: Vec::new(),
            extras: Vec::new(),
            label: label.to_string(),
        })
    }

    /// Bind an extra read-only external grid (e.g. `("A", coeff)`) on
    /// every subsequent run. Re-binding a name replaces it.
    pub fn bind_extra(&mut self, name: &str, data: Vec<f64>) {
        if let Some(e) = self.extras.iter_mut().find(|(n, _)| n == name) {
            e.1 = data;
        } else {
            self.extras.push((name.to_string(), data));
        }
    }

    /// Wrap an already-compiled plan (used by the harness for custom option
    /// combinations, e.g. the Figure 11b ablation).
    pub fn from_plan(plan: impl Into<Arc<CompiledPipeline>>, cfg: &MgConfig) -> Self {
        let plan = plan.into();
        let label = format!(
            "custom({}, {})",
            plan.graph.pipeline_name,
            plan.options.summary()
        );
        DslRunner {
            engine: Engine::new(plan),
            out: vec![0.0; cfg.alloc_len(cfg.levels - 1)],
            outs: Vec::new(),
            extras: Vec::new(),
            label,
        }
    }

    /// The underlying engine (for plan inspection / pool stats).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (pool stat resets, trace installation).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Run one cycle and also report engine stats. Binding failures (a
    /// missing or mis-sized external array) surface as a typed
    /// [`ExecError`] instead of a panic.
    pub fn cycle_with_stats(&mut self, v: &mut [f64], f: &[f64]) -> Result<RunStats, ExecError> {
        let mut inputs: Vec<(&str, &[f64])> = vec![("V", v), ("F", f)];
        for (name, data) in &self.extras {
            inputs.push((name, data));
        }
        let stats = self.engine.run(&inputs, vec![("out", &mut self.out)])?;
        v.copy_from_slice(&self.out);
        Ok(stats)
    }

    /// Run one cycle over a batch of right-hand sides in a single engine
    /// pass: `vs[k] ← cycle(vs[k], fs[k])` for every k, bitwise-identical
    /// to calling [`DslRunner::cycle_with_stats`] per RHS but with one
    /// allocation/ghost-fill setup amortised across the sweep.
    pub fn cycle_batch_with_stats(
        &mut self,
        vs: &mut [Vec<f64>],
        fs: &[&[f64]],
    ) -> Result<RunStats, ExecError> {
        if vs.is_empty() || vs.len() != fs.len() {
            return Err(ExecError::PlanViolation(
                "batch needs equal, nonzero v and f counts",
            ));
        }
        let out_len = self.out.len();
        self.outs.resize_with(vs.len(), || vec![0.0; out_len]);
        let batch = vs
            .iter()
            .zip(fs)
            .zip(self.outs.iter_mut())
            .map(|((v, f), out)| {
                let mut inputs: Vec<(&str, &[f64])> = vec![("V", v.as_slice()), ("F", *f)];
                for (name, data) in &self.extras {
                    inputs.push((name, data));
                }
                BatchRhs {
                    inputs,
                    outputs: vec![("out", out.as_mut_slice())],
                }
            })
            .collect();
        let stats = self.engine.run_batch(batch)?;
        for (v, out) in vs.iter_mut().zip(&self.outs) {
            v.copy_from_slice(out);
        }
        Ok(stats)
    }
}

impl CycleRunner for DslRunner {
    fn cycle(&mut self, v: &mut [f64], f: &[f64]) {
        self.cycle_with_stats(v, f).expect("cycle execution failed");
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn set_trace(&mut self, trace: Trace) {
        self.engine.set_trace(trace);
    }
}

impl CycleRunner for HandOpt {
    fn cycle(&mut self, v: &mut [f64], f: &[f64]) {
        HandOpt::cycle(self, v, f);
    }

    fn label(&self) -> String {
        HandOpt::label(self).to_string()
    }
}

/// The largest of `values` (0 for none), or NaN when any value is NaN.
/// `fold(0.0, f64::max)` would return the other argument and so report a
/// NaN grid as agreeing perfectly.
pub fn max_or_nan(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |m, x| {
        if m.is_nan() || x.is_nan() {
            f64::NAN
        } else {
            m.max(x)
        }
    })
}

/// The largest pointwise `|a − b|` ([`max_or_nan`]: NaN when any
/// difference is).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    max_or_nan(a.iter().zip(b).map(|(x, y)| (x - y).abs()))
}

/// Discrete L2 norm of `f − A v` over the interior, `A = −∇²` with the
/// 5-/7-point stencil.
pub fn residual_norm(ndims: usize, n: i64, h: f64, v: &[f64], f: &[f64]) -> f64 {
    let e = (n + 2) as usize;
    let inv_h2 = 1.0 / (h * h);
    let mut sum = 0.0;
    match ndims {
        2 => {
            for y in 1..=n as usize {
                let s = y * e;
                for x in 1..=n as usize {
                    let a = (4.0 * v[s + x]
                        - v[s + x - 1]
                        - v[s + x + 1]
                        - v[s - e + x]
                        - v[s + e + x])
                        * inv_h2;
                    let r = f[s + x] - a;
                    sum += r * r;
                }
            }
            (sum / (n as f64 * n as f64)).sqrt()
        }
        3 => {
            let pb = e * e;
            for z in 1..=n as usize {
                for y in 1..=n as usize {
                    let s = z * pb + y * e;
                    for x in 1..=n as usize {
                        let a = (6.0 * v[s + x]
                            - v[s + x - 1]
                            - v[s + x + 1]
                            - v[s - e + x]
                            - v[s + e + x]
                            - v[s - pb + x]
                            - v[s + pb + x])
                            * inv_h2;
                        let r = f[s + x] - a;
                        sum += r * r;
                    }
                }
            }
            (sum / (n as f64).powi(3)).sqrt()
        }
        _ => panic!("unsupported rank"),
    }
}

/// Manufactured Poisson problem for `−∇²u = f`: returns `(v0, f, u_exact)`
/// with zero initial guess.
pub fn setup_poisson(cfg: &MgConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = cfg.n_at(cfg.levels - 1);
    let e = (n + 2) as usize;
    let len = cfg.alloc_len(cfg.levels - 1);
    let v0 = vec![0.0; len];
    let mut f = vec![0.0; len];
    let mut u = vec![0.0; len];
    let extents = vec![e; cfg.ndims];
    gmg_grid::poisson_rhs(&mut f, &extents);
    // grid helper targets ∇²u = f; we solve −∇²u = f ⇒ negate
    for x in f.iter_mut() {
        *x = -*x;
    }
    gmg_grid::poisson_exact(&mut u, &extents);
    (v0, f, u)
}

/// Result of a fixed-iteration solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Residual norm before the first cycle.
    pub res0: f64,
    /// Residual norm after every cycle.
    pub norms: Vec<f64>,
    /// Wall-clock time of the cycle iterations (norm evaluation excluded).
    pub elapsed: Duration,
}

impl SolveResult {
    /// Final residual norm.
    pub fn res_final(&self) -> f64 {
        *self.norms.last().unwrap_or(&self.res0)
    }

    /// Geometric-mean convergence factor per cycle.
    pub fn conv_factor(&self) -> f64 {
        if self.norms.is_empty() || self.res0 == 0.0 {
            return 1.0;
        }
        (self.res_final() / self.res0).powf(1.0 / self.norms.len() as f64)
    }
}

/// Run `iters` cycles, recording residual norms.
pub fn run_cycles(
    runner: &mut dyn CycleRunner,
    cfg: &MgConfig,
    v: &mut [f64],
    f: &[f64],
    iters: usize,
) -> SolveResult {
    run_cycles_traced(runner, cfg, v, f, iters, &Trace::disabled())
}

/// Like [`run_cycles`], additionally emitting one trace event per cycle
/// (wall time of the cycle + residual norm after it) so a profile shows
/// where convergence stalls or a variant diverges.
pub fn run_cycles_traced(
    runner: &mut dyn CycleRunner,
    cfg: &MgConfig,
    v: &mut [f64],
    f: &[f64],
    iters: usize,
    trace: &Trace,
) -> SolveResult {
    let n = cfg.n_at(cfg.levels - 1);
    let h = cfg.h_at(cfg.levels - 1);
    let res0 = residual_norm(cfg.ndims, n, h, v, f);
    let mut norms = Vec::with_capacity(iters);
    let mut elapsed = Duration::ZERO;
    for i in 0..iters {
        let t0 = Instant::now();
        runner.cycle(v, f);
        let dt = t0.elapsed();
        elapsed += dt;
        let norm = residual_norm(cfg.ndims, n, h, v, f);
        norms.push(norm);
        trace.record_cycle(i as u64, dt.as_nanos() as u64, norm);
    }
    SolveResult {
        res0,
        norms,
        elapsed,
    }
}

/// Timing-only driver (no norm evaluation between cycles) — what the
/// benchmark harness uses.
pub fn time_cycles(
    runner: &mut dyn CycleRunner,
    v: &mut [f64],
    f: &[f64],
    iters: usize,
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        runner.cycle(v, f);
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CycleType, SmoothSteps};
    use polymg::Variant;

    #[test]
    fn deviation_propagates_nan() {
        let zero = [0.0; 4];
        assert_eq!(max_abs_diff(&[0.5, -2.0, 0.0, 1.0], &zero), 2.0);
        assert_eq!(max_or_nan([]), 0.0);
        // NaN anywhere, first or last, poisons the maximum
        assert!(max_abs_diff(&[f64::NAN, 1.0, 0.0, 0.0], &zero).is_nan());
        assert!(max_abs_diff(&[1.0, 0.0, 0.0, f64::NAN], &zero).is_nan());
        assert!(max_abs_diff(&[f64::NAN; 4], &zero).is_nan());
        assert!(max_or_nan([0.1, f64::NAN, 0.3]).is_nan());
    }

    #[test]
    fn residual_norm_zero_for_exact_discrete_solution() {
        // build f = A u for a random u: residual must vanish
        let n = 7i64;
        let e = (n + 2) as usize;
        let h = 1.0 / (n + 1) as f64;
        let mut u = vec![0.0; e * e];
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                u[y * e + x] = ((y * 7 + x * 3) % 5) as f64;
            }
        }
        let inv_h2 = 1.0 / (h * h);
        let mut f = vec![0.0; e * e];
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                let s = y * e + x;
                f[s] = (4.0 * u[s] - u[s - 1] - u[s + 1] - u[s - e] - u[s + e]) * inv_h2;
            }
        }
        assert!(residual_norm(2, n, h, &u, &f) < 1e-10);
    }

    #[test]
    fn dsl_vcycle_converges_2d() {
        // convergence check wants an adequate coarsest-level solve; the
        // paper's 4-4-4 deliberately under-solves the coarsest level (it is
        // a performance benchmark), so use 4-50-4 here
        let cfg = MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 4,
                coarse: 50,
                post: 4,
            },
        );
        let mut runner = DslRunner::new(
            &cfg,
            PipelineOptions::for_variant(Variant::OptPlus, 2),
            "polymg-opt+",
        )
        .unwrap();
        let (mut v, f, _) = setup_poisson(&cfg);
        let r = run_cycles(&mut runner, &cfg, &mut v, &f, 6);
        assert!(
            r.conv_factor() < 0.22,
            "V-cycle convergence factor too weak: {}",
            r.conv_factor()
        );
        assert!(r.res_final() < r.res0 * 1e-3);
    }

    #[test]
    fn handopt_vcycle_converges_3d() {
        let cfg = MgConfig::new(
            3,
            31,
            CycleType::V,
            SmoothSteps {
                pre: 4,
                coarse: 50,
                post: 4,
            },
        );
        let mut runner = HandOpt::new(cfg.clone(), 0);
        let (mut v, f, _) = setup_poisson(&cfg);
        let r = run_cycles(&mut runner, &cfg, &mut v, &f, 6);
        assert!(
            r.conv_factor() < 0.25,
            "convergence factor too weak: {}",
            r.conv_factor()
        );
    }

    #[test]
    fn dsl_matches_handopt_exactly() {
        // Same math, same operator order ⇒ results agree to round-off.
        let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
        let mut dsl = DslRunner::new(
            &cfg,
            PipelineOptions::for_variant(Variant::Naive, 2),
            "polymg-naive",
        )
        .unwrap();
        let mut hand = HandOpt::new(cfg.clone(), 0);
        let (v0, f, _) = setup_poisson(&cfg);
        let mut v1 = v0.clone();
        let mut v2 = v0;
        for _ in 0..2 {
            dsl.cycle(&mut v1, &f);
            hand.cycle(&mut v2, &f);
        }
        let mut max = 0.0f64;
        for (a, b) in v1.iter().zip(&v2) {
            max = max.max((a - b).abs());
        }
        assert!(max < 1e-11, "DSL vs handopt deviation {max}");
    }

    #[test]
    fn wcycle_converges_faster_per_cycle_than_vcycle() {
        let mk = |cy| MgConfig::new(2, 63, cy, SmoothSteps::s444());
        let run = |cfg: &MgConfig| {
            let mut r = HandOpt::new(cfg.clone(), 0);
            let (mut v, f, _) = setup_poisson(cfg);
            run_cycles(&mut r, cfg, &mut v, &f, 4).conv_factor()
        };
        let v = run(&mk(CycleType::V));
        let w = run(&mk(CycleType::W));
        assert!(w <= v * 1.05, "W-cycle ({w}) should beat V-cycle ({v})");
    }

    #[test]
    fn solution_error_shrinks_toward_discretisation() {
        let cfg = MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 4,
                coarse: 50,
                post: 4,
            },
        );
        let mut runner = HandOpt::new(cfg.clone(), 0);
        let (mut v, f, u_exact) = setup_poisson(&cfg);
        run_cycles(&mut runner, &cfg, &mut v, &f, 10);
        let mut max_err = 0.0f64;
        for (a, b) in v.iter().zip(&u_exact) {
            max_err = max_err.max((a - b).abs());
        }
        // O(h²) discretisation error, h = 1/64 ⇒ ~2.4e-4 × constant
        assert!(max_err < 2e-3, "solution error {max_err}");
        assert!(max_err > 0.0);
    }

    /// `setup_poisson`'s grids, pinned bit for bit: an FNV-1a hash of the
    /// `to_bits()` of every value of `f`, then of `u`.
    #[test]
    fn setup_poisson_is_pinned() {
        let fnv = |grids: [&[f64]; 2]| {
            let bits = grids.into_iter().flatten().map(|x| x.to_bits());
            bits.flat_map(u64::to_le_bytes)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        for (ndims, n, want) in [
            (2, 31, 0xabd6_67bc_dd8a_1734),
            (3, 15, 0xa009_10fa_3fa4_98d5),
        ] {
            let cfg = MgConfig::new(ndims, n, CycleType::V, SmoothSteps::s444());
            let (v0, f, u) = setup_poisson(&cfg);
            assert!(v0.iter().all(|&x| x == 0.0));
            let got = fnv([&f, &u]);
            assert_eq!(got, want, "{ndims}-D n={n}: {got:#018x}");
        }
    }
}
