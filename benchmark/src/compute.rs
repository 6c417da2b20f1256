//! The four compute workloads: one plan each, cycles driven in-process
//! through `DslRunner::cycle_with_stats`.

use crate::inputs;
use crate::layers::{
    compile_ns_per_plan, plan_layers, runtime_layers, trace_overhead, CycleSamples, PoolDelta,
    Totals,
};
use crate::plans::{PlanSpec, Session};
use crate::result::{put, RunCtx, WorkloadResult};
use crate::spans::{reconcile, Recorder};
use crate::speed::Speed;
use crate::stats::{Row, Windowed};
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::scenario::residual_norm_varcoef;
use gmg_multigrid::solver::CycleRunner;
use gmg_trace::Trace;
use polymg::{PlanCache, Scenario, Variant};
use std::time::Instant;

/// Cycles of one "solve" on the fixed-cycle workloads: the paper's class
/// B/C cycle budget (Table 2).
pub const CYCLE_BUDGET: usize = 10;
/// Relative residual a `varcoef2d_solve` solve must reach …
pub const TARGET_REDUCTION: f64 = 1e-3;
/// … within this many cycles, or it counts as failed.
pub const MAX_CYCLES: usize = 60;
const MIN_SOLVES: usize = 20;
const MIN_BLOCKS: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Blocks of `CYCLE_BUDGET` cycles from the initial guess.
    FixedCycles,
    /// Solves from the initial guess to `TARGET_REDUCTION`.
    SolveToTarget,
}

pub struct ComputeSpec {
    pub name: &'static str,
    pub plan: PlanSpec,
    pub mode: Mode,
}

pub fn spec(name: &'static str) -> Option<ComputeSpec> {
    let (plan, mode) = match name {
        "vcycle2d" => {
            let cfg = MgConfig::new(2, 1023, CycleType::V, SmoothSteps::s444());
            let mut p = PlanSpec::new(
                "V-2D-4-4-4 n=1023",
                cfg,
                Scenario::Constant,
                Variant::OptPlus,
            );
            p.opts.tile_sizes = vec![32, 256];
            (p, Mode::FixedCycles)
        }
        "vcycle3d" => {
            let cfg = MgConfig::new(3, 127, CycleType::V, SmoothSteps::s444());
            let mut p = PlanSpec::new(
                "V-3D-4-4-4 n=127",
                cfg,
                Scenario::Constant,
                Variant::OptPlus,
            );
            p.opts.tile_sizes = vec![16, 32, 128];
            (p, Mode::FixedCycles)
        }
        "smoother2d_dense" => {
            let mut cfg =
                MgConfig::new(2, 1023, CycleType::V, SmoothSteps::s1000()).with_dense_operator();
            cfg.levels = 2;
            let mut p = PlanSpec::new(
                "V-2D-10-0-0 dense n=1023",
                cfg,
                Scenario::Constant,
                Variant::Naive,
            );
            // untiled sweeps over pooled, reused buffers: without these every
            // sweep writes a fresh multi-MB allocation and page faults swamp
            // the kernels
            p.opts.pooled_allocation = true;
            p.opts.inter_group_reuse = true;
            (p, Mode::FixedCycles)
        }
        "varcoef2d_solve" => {
            let steps = SmoothSteps {
                pre: 8,
                coarse: 8,
                post: 8,
            };
            let mut cfg = MgConfig::new(2, 255, CycleType::V, steps);
            cfg.levels = 5;
            let p = PlanSpec::new(
                "varcoef V-2D-8-8-8 n=255",
                cfg,
                Scenario::VarCoef,
                Variant::OptPlus,
            );
            (p, Mode::SolveToTarget)
        }
        _ => return None,
    };
    Some(ComputeSpec { name, plan, mode })
}

/// Samples of one timed section.
#[derive(Default)]
pub struct Section {
    /// Per cycle: completion time on the normalised clock, and the samples.
    pub cycle_at: Vec<u64>,
    pub cycles: CycleSamples,
    /// Per block / solve: end time, wall (cycles, plus residual norms for
    /// solves), cycles taken.
    pub solve_at: Vec<u64>,
    pub solve_ns: Vec<f64>,
    pub solve_cycles: Vec<usize>,
    pub norm_ns: Vec<f64>,
    /// Blocks / solves whose result differed from the first one's, or that
    /// missed the residual target.
    pub failed: u64,
    pub pool: PoolDelta,
}

/// XOR-fold of the bit patterns: equal grids have equal folds.
fn fold(v: &[f64]) -> u64 {
    v.iter()
        .fold(0u64, |acc, x| acc.rotate_left(1) ^ x.to_bits())
}

pub struct Problem {
    pub v0: Vec<f64>,
    pub f: Vec<f64>,
    /// Coefficient grid (`varcoef` only), for the residual norm.
    pub coeff: Option<Vec<f64>>,
}

impl Problem {
    pub fn generate(plan: &PlanSpec, seed: u64) -> Problem {
        Problem {
            v0: inputs::zero_guess(&plan.cfg),
            f: inputs::rhs(&plan.cfg, inputs::stream(seed, 0)),
            coeff: plan.coeff(),
        }
    }
}

/// Drive blocks (or solves) for at least `seconds` and at least
/// `min_units` of them. Every block restarts from the same initial guess,
/// so every block must end on the same grid, bit for bit.
pub fn timed_section(
    spec: &ComputeSpec,
    session: &mut Session,
    problem: &Problem,
    seconds: f64,
    min_units: usize,
    rec: &mut Recorder,
    speed: &mut Speed,
) -> Section {
    let cfg = &spec.plan.cfg;
    let (n, h) = (cfg.n, cfg.h_at(cfg.levels - 1));
    let mut s = Section::default();
    let mut v = problem.v0.clone();
    let mut first: Option<(u64, usize)> = None;
    let pool_before = session.runner.engine().pool_stats();
    let section = rec.open("timed", 0);
    let start = Instant::now();
    speed.restart();
    speed.take_tick_spans();
    let mut unit = 0u64;
    while start.elapsed().as_secs_f64() < seconds || (unit as usize) < min_units {
        let t0 = Instant::now();
        v.copy_from_slice(&problem.v0);
        rec.leaf("bench.reset", unit, t0, Instant::now());

        let mut solve_ns = 0.0;
        let mut solve_end = 0u64;
        let mut cycles = 0usize;
        let mut converged = true;
        match spec.mode {
            Mode::FixedCycles => {
                for _ in 0..CYCLE_BUDGET {
                    let (ns, stats) = session.cycle(&mut v, &problem.f, rec, unit);
                    let (sigma, at) = speed.stamp();
                    s.cycles.push(
                        ns,
                        &stats,
                        sigma,
                        session.traffic_bytes,
                        session.domain_cells,
                    );
                    s.cycle_at.push(at);
                    solve_ns += ns as f64 / sigma;
                    solve_end = at;
                    cycles += 1;
                }
            }
            Mode::SolveToTarget => {
                let a = problem
                    .coeff
                    .as_deref()
                    .expect("varcoef problem has a coefficient grid");
                let norm = |v: &[f64], s: &mut Section, rec: &mut Recorder, speed: &mut Speed| {
                    let t0 = Instant::now();
                    let r = residual_norm_varcoef(cfg.ndims, n, h, v, &problem.f, a);
                    let t1 = Instant::now();
                    rec.leaf("mg.residual_norm", unit, t0, t1);
                    let (sigma, at) = speed.stamp();
                    let ns = (t1 - t0).as_nanos() as f64 / sigma;
                    s.norm_ns.push(ns);
                    (r, ns, at)
                };
                let (res0, ns, _) = norm(&v, &mut s, rec, speed);
                solve_ns += ns;
                loop {
                    let (ns, stats) = session.cycle(&mut v, &problem.f, rec, unit);
                    let (sigma, at) = speed.stamp();
                    s.cycles.push(
                        ns,
                        &stats,
                        sigma,
                        session.traffic_bytes,
                        session.domain_cells,
                    );
                    s.cycle_at.push(at);
                    cycles += 1;
                    let (r, norm_ns, at) = norm(&v, &mut s, rec, speed);
                    solve_ns += ns as f64 / sigma + norm_ns;
                    solve_end = at;
                    if r <= res0 * TARGET_REDUCTION {
                        break;
                    }
                    if cycles >= MAX_CYCLES {
                        converged = false;
                        break;
                    }
                }
            }
        }
        s.solve_at.push(solve_end);
        s.solve_ns.push(solve_ns);
        s.solve_cycles.push(cycles);

        let t0 = Instant::now();
        let this = (fold(&v), cycles);
        let same = *first.get_or_insert(this) == this;
        if !(same && converged) {
            s.failed += 1;
        }
        rec.leaf("bench.verify", unit, t0, Instant::now());
        unit += 1;
    }
    rec.ticks(speed.take_tick_spans());
    rec.close(section);
    s.pool = PoolDelta::between(pool_before, session.runner.engine().pool_stats());
    s
}

/// One cold set-up: plan cache cleared, IR → compile → runner → first
/// cycle. Returns the warm session and the speed-normalised set-up time in
/// seconds.
fn setup_once(
    spec: &ComputeSpec,
    problem: &Problem,
    rec: &mut Recorder,
    speed: &mut Speed,
    k: u64,
) -> (Session, f64) {
    PlanCache::global().clear();
    speed.stamp();
    let id = rec.open("setup", k);
    let t0 = Instant::now();
    let mut session = Session::cold(&spec.plan, rec, k);
    let mut v = problem.v0.clone();
    let t1 = Instant::now();
    session
        .runner
        .cycle_with_stats(&mut v, &problem.f)
        .unwrap_or_else(|e| panic!("{}: first cycle failed: {e}", spec.name));
    let t2 = Instant::now();
    rec.leaf("mg.first_cycle", k, t1, t2);
    rec.close(id);
    let secs = (t2 - t0).as_secs_f64() / speed.factor();
    (session, secs)
}

pub fn run(spec: &ComputeSpec, ctx: &RunCtx) -> WorkloadResult {
    let epoch = Instant::now();
    let mut rec = Recorder::new(ctx.traced, epoch, 0);
    let mut speed = Speed::new();
    let plan = &spec.plan;
    let problem = Problem::generate(plan, ctx.seed);
    let points = plan.points();

    // bitwise reference for the first two cycles, before anything is timed
    let mut reference = plan.reference_runner();
    let mut vref = problem.v0.clone();
    for _ in 0..2 {
        reference.cycle(&mut vref, &problem.f);
    }
    let mut want = inputs::bits(&vref);
    drop(reference);
    if ctx.corrupt {
        let mid = want.len() / 2;
        want[mid] ^= 1;
    }

    let mut setups = Vec::new();
    let mut session = None;
    let since = Instant::now();
    while ctx.wants_setup(setups.len(), since) {
        let k = setups.len() as u64;
        let (s, secs) = setup_once(spec, &problem, &mut rec, &mut speed, k);
        setups.push(secs);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    // the first two cycles of the timed runner against the naive reference;
    // they double as warm-up
    let mut v = problem.v0.clone();
    for _ in 0..2 {
        session.cycle(&mut v, &problem.f, &mut Recorder::off(), 0);
    }
    let mut res = WorkloadResult {
        name: spec.name.to_string(),
        attempted: 1,
        failed: (inputs::mismatches(&v, &want) > 0) as u64,
        ..Default::default()
    };

    let min_units = ctx.at_least(match spec.mode {
        Mode::FixedCycles => MIN_BLOCKS,
        Mode::SolveToTarget => MIN_SOLVES,
    });
    let (untraced_secs, min_untraced) = ctx.untraced_section(min_units);
    let untraced = timed_section(
        spec,
        &mut session,
        &problem,
        untraced_secs,
        min_untraced,
        &mut Recorder::off(),
        &mut speed,
    );
    res.attempted += untraced.solve_ns.len() as u64;
    res.failed += untraced.failed;

    if !ctx.traced {
        let totals = Totals::of(std::slice::from_ref(plan));
        let compile_ns = compile_ns_per_plan(std::slice::from_ref(plan), ctx, &mut speed);
        let u = &untraced;
        let window = |at_ns, values| Windowed { at_ns, values };
        let cycles = window(&u.cycle_at, &u.cycles.wall_ns);
        let solves = window(&u.solve_at, &u.solve_ns);
        // the operation a caller waits for, each yielding one verified grid
        let ops = match spec.mode {
            Mode::FixedCycles => cycles,
            Mode::SolveToTarget => solves,
        };
        let ones = vec![1.0; ops.values.len()];
        let counts: Vec<f64> = u.solve_cycles.iter().map(|c| *c as f64).collect();
        res.set_end_to_end([
            ("setup_s", Row::of_samples(&setups)),
            (
                "cycle_ns_per_point",
                cycles.median_row().scaled(1.0 / points),
            ),
            ("solve_s", solves.median_row().scaled(1e-9)),
            ("cycles_to_target", Row::of_samples(&counts)),
            (
                "storage_bytes_per_point",
                Row::exact(totals.storage_bytes_per_point()),
            ),
            (
                "compile_ms_per_plan",
                Row::of_samples(&compile_ns).scaled(1e-6),
            ),
            ("grids_per_s", window(ops.at_ns, &ones).rate_row()),
            ("latency_p50_ms", ops.median_row().scaled(1e-6)),
            ("latency_p95_ms", ops.percentile_row(95.0).scaled(1e-6)),
        ]);
        res.ticks = speed.ticks;
        return res;
    }

    // traced section: the benchmark's spans plus the crates' own sink
    let trace = Trace::enabled();
    session.runner.set_trace(trace.clone());
    let (traced_secs, min_traced) = ctx.traced_section(min_units);
    let traced = timed_section(
        spec,
        &mut session,
        &problem,
        traced_secs,
        min_traced,
        &mut rec,
        &mut speed,
    );
    res.attempted += traced.solve_ns.len() as u64;
    res.failed += traced.failed;
    let report = trace.report().expect("enabled trace has a report");

    let layers = &mut res.per_layer;
    plan_layers(std::slice::from_ref(plan), None, &mut speed, layers);
    runtime_layers(&traced.cycles, &report, traced.pool, layers);
    trace_overhead(&untraced.cycles.wall_ns, &traced.cycles.wall_ns, layers);
    if spec.mode == Mode::SolveToTarget {
        put(
            layers,
            "mg.residual_norm_us",
            Row::of_samples(&traced.norm_ns).scaled(1e-3),
        );
    }
    res.reconciled = reconcile(&rec.spans, "timed");
    res.spans = rec.spans;
    res.ticks = speed.ticks;
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two workload shapes at n = 63.
    fn small(mode: Mode) -> ComputeSpec {
        let (mut cfg, scenario) = match mode {
            Mode::FixedCycles => (
                MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444()),
                Scenario::Constant,
            ),
            Mode::SolveToTarget => (
                MgConfig::new(
                    2,
                    63,
                    CycleType::V,
                    SmoothSteps {
                        pre: 8,
                        coarse: 8,
                        post: 8,
                    },
                ),
                Scenario::VarCoef,
            ),
        };
        cfg.levels = 3;
        ComputeSpec {
            name: "vcycle2d",
            plan: PlanSpec::new("small", cfg, scenario, Variant::OptPlus),
            mode,
        }
    }

    fn ctx(traced: bool, corrupt: bool) -> RunCtx {
        RunCtx {
            seed: 11,
            seconds: 0.05,
            traced,
            quick: true,
            corrupt,
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric_and_verifies() {
        for mode in [Mode::FixedCycles, Mode::SolveToTarget] {
            let r = run(&small(mode), &ctx(false, false));
            assert!(r.correct(), "failed {} of {}", r.failed, r.attempted);
            for m in &crate::catalog::END_TO_END {
                let row = r
                    .end_to_end
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert!(
                    row.value.is_finite() && row.value > 0.0,
                    "{} = {}",
                    m.name,
                    row.value
                );
            }
            if mode == Mode::SolveToTarget {
                let c = r.end_to_end["cycles_to_target"].value;
                assert!(c > 1.0 && c < MAX_CYCLES as f64, "{c} cycles");
            }
        }
    }

    #[test]
    fn traced_run_reconciles_and_counts_repeat_exactly() {
        let a = run(&small(Mode::FixedCycles), &ctx(true, false));
        let b = run(&small(Mode::FixedCycles), &ctx(true, false));
        assert!(a.correct() && a.end_to_end.is_empty());
        assert!(
            !a.reconciled.is_empty() && a.reconciles(),
            "{:?}",
            a.reconciled
        );
        assert!(a.spans.iter().any(|s| s.name == "runtime.run"));
        for name in [
            "ir.stages",
            "core.groups",
            "core.ops",
            "core.intermediate_bytes",
            "runtime.redundant_cell_ratio",
        ] {
            assert_eq!(
                a.per_layer[name].0.value, b.per_layer[name].0.value,
                "{name}"
            );
        }
        assert!(a.per_layer["runtime.redundant_cell_ratio"].0.value >= 1.0);
        assert!(a.per_layer["runtime.op.overlapped_share"].0.value > 0.3);
    }

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let r = run(&small(Mode::FixedCycles), &ctx(false, true));
        assert!(r.failed >= 1 && !r.correct());
        assert!(r.end_to_end["verified_share"].value < 1.0);
    }
}
