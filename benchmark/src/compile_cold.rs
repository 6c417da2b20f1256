//! `compile_cold`: sixteen fixed plans built from the IR up with no plan
//! cache. The compiler does all the work, the runtime none.

use crate::inputs;
use crate::layers::{
    cold_pass, plan_layers, runtime_layers, trace_overhead, CycleSamples, PassSamples, PoolDelta,
    Totals,
};
use crate::plans::{build_cold, PlanSpec, Session};
use crate::result::{RunCtx, WorkloadResult};
use crate::spans::{reconcile, Recorder};
use crate::speed::Speed;
use crate::stats::{Row, Windowed};
use gmg_ir::ParamBindings;
use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::CycleRunner;
use gmg_trace::Trace;
use polymg::{PlanCache, Scenario, Variant};
use std::time::Instant;

const MIN_PASSES: usize = 60;

/// {2-D n 1023, 3-D n 127} × {V, W} × {opt, opt+, dtile-opt+}, then the four
/// non-constant scenarios at 2-D n 255.
pub fn plans() -> Vec<PlanSpec> {
    let mut specs = Vec::with_capacity(16);
    for (ndims, n) in [(2usize, 1023i64), (3, 127)] {
        for cycle in [CycleType::V, CycleType::W] {
            for variant in [Variant::Opt, Variant::OptPlus, Variant::DtileOptPlus] {
                let cfg = MgConfig::new(ndims, n, cycle, SmoothSteps::s444());
                let label = format!("{} n={n} {}", cfg.tag(), variant.label());
                specs.push(PlanSpec::new(&label, cfg, Scenario::Constant, variant));
            }
        }
    }
    for scenario in [
        Scenario::VarCoef,
        Scenario::Fmg,
        Scenario::Rbgs,
        Scenario::Chebyshev,
    ] {
        let cfg = MgConfig::new(2, 255, CycleType::V, SmoothSteps::s444());
        let label = format!("{} n=255", scenario.label());
        specs.push(PlanSpec::new(&label, cfg, scenario, Variant::OptPlus));
    }
    specs
}

/// Normalised samples of one timed section.
#[derive(Default)]
struct Section {
    pass_at: Vec<u64>,
    pass_ns: Vec<f64>,
    plan_at: Vec<u64>,
    plan_ns: Vec<f64>,
    layers: PassSamples,
}

fn timed_section(
    specs: &[PlanSpec],
    seconds: f64,
    min_passes: usize,
    rec: &mut Recorder,
    speed: &mut Speed,
) -> Section {
    let mut s = Section::default();
    let section = rec.open("timed", 0);
    let start = Instant::now();
    speed.restart();
    speed.take_tick_spans();
    let mut pass = 0u64;
    while start.elapsed().as_secs_f64() < seconds || (pass as usize) < min_passes {
        let (builds, per_plan) = cold_pass(specs, rec, speed, pass, &mut s.layers);
        s.pass_at
            .push(per_plan.last().expect("a pass builds plans").1);
        s.pass_ns.push(per_plan.iter().map(|p| p.0).sum());
        for (ns, at) in per_plan {
            s.plan_at.push(at);
            s.plan_ns.push(ns);
        }
        // dropping sixteen engines is part of what a cold session pays, but
        // not of building them
        let t0 = Instant::now();
        drop(builds);
        rec.leaf("bench.drop", pass, t0, Instant::now());
        pass += 1;
    }
    rec.ticks(speed.take_tick_spans());
    rec.close(section);
    s
}

/// Plans whose two cold compiles differ in cache fingerprint or in the
/// lowered program's dump.
fn nondeterministic(specs: &[PlanSpec], corrupt: bool) -> u64 {
    let bindings = ParamBindings::new();
    let mut bad = 0;
    for (i, spec) in specs.iter().enumerate() {
        let compile = || {
            let b = build_cold(spec, &mut Recorder::off(), 0);
            let fp = polymg::cache::fingerprint(&spec.pipeline(), &bindings, &b.plan.options);
            (fp, b.engine.program().dump())
        };
        let (a, mut b) = (compile(), compile());
        if corrupt && i == 0 {
            b.0 ^= 1;
        }
        if a != b {
            bad += 1;
        }
    }
    bad
}

pub fn run(ctx: &RunCtx) -> WorkloadResult {
    let epoch = Instant::now();
    let mut rec = Recorder::new(ctx.traced, epoch, 0);
    let mut speed = Speed::new();
    let specs = plans();
    let mut res = WorkloadResult {
        name: "compile_cold".to_string(),
        attempted: specs.len() as u64,
        failed: nondeterministic(&specs, ctx.corrupt),
        ..Default::default()
    };

    // set-up of this workload is one cold pass (no first cycle: nothing runs)
    let mut setups = Vec::new();
    let since = Instant::now();
    while ctx.wants_setup(setups.len(), since) {
        let k = setups.len() as u64;
        PlanCache::global().clear();
        let id = rec.open("setup", k);
        speed.stamp();
        let t0 = Instant::now();
        cold_pass(&specs, &mut rec, &mut speed, k, &mut PassSamples::default());
        let secs = t0.elapsed().as_secs_f64();
        rec.close(id);
        setups.push(secs / speed.factor());
    }

    let min_passes = ctx.at_least(MIN_PASSES);
    let (secs, min_untraced) = ctx.untraced_section(min_passes);
    let untraced = timed_section(&specs, secs, min_untraced, &mut Recorder::off(), &mut speed);

    if !ctx.traced {
        let totals = Totals::of(&specs);
        let nplans = specs.len() as f64;
        let passes = Windowed {
            at_ns: &untraced.pass_at,
            values: &untraced.pass_ns,
        };
        let per_plan = Windowed {
            at_ns: &untraced.plan_at,
            values: &untraced.plan_ns,
        };
        let ones = vec![1.0; untraced.plan_ns.len()];
        let pass_row = passes.median_row();
        // one pass is this workload's "solve": sixteen plans ready to run
        res.set_end_to_end([
            ("setup_s", Row::of_samples(&setups)),
            ("cycle_ns_per_point", pass_row.scaled(1.0 / totals.points)),
            ("solve_s", pass_row.scaled(1e-9)),
            ("cycles_to_target", Row::exact(nplans)),
            (
                "storage_bytes_per_point",
                Row::exact(totals.storage_bytes_per_point()),
            ),
            ("compile_ms_per_plan", pass_row.scaled(1e-6 / nplans)),
            (
                "grids_per_s",
                Windowed {
                    at_ns: &untraced.plan_at,
                    values: &ones,
                }
                .rate_row(),
            ),
            ("latency_p50_ms", per_plan.median_row().scaled(1e-6)),
            ("latency_p95_ms", per_plan.percentile_row(95.0).scaled(1e-6)),
        ]);
        res.ticks = speed.ticks;
        return res;
    }

    let (secs, min_traced) = ctx.traced_section(min_passes);
    let traced = timed_section(&specs, secs, min_traced, &mut rec, &mut speed);

    // The runtime layers of this workload: what the sixteen plans do when
    // they run. Two cycles each (the second is warm), outside the timed
    // section, the crates' own sink attached.
    let trace = Trace::enabled();
    let mut cycles = CycleSamples::default();
    let mut pool = PoolDelta::default();
    let id = rec.open("bench.run_plans", 0);
    for (i, spec) in specs.iter().enumerate() {
        let mut session = Session::cold(spec, &mut Recorder::off(), 0);
        session.runner.set_trace(trace.clone());
        let f = inputs::rhs(&spec.cfg, inputs::stream(ctx.seed, i as u64));
        let mut v = inputs::zero_guess(&spec.cfg);
        let before = session.runner.engine().pool_stats();
        for _ in 0..2 {
            let (ns, stats) = session.cycle(&mut v, &f, &mut rec, i as u64);
            let sigma = speed.factor();
            cycles.push(
                ns,
                &stats,
                sigma,
                session.traffic_bytes,
                session.domain_cells,
            );
        }
        pool.add(PoolDelta::between(
            before,
            session.runner.engine().pool_stats(),
        ));
        res.attempted += 1;
        if !v.iter().all(|x| x.is_finite()) {
            res.failed += 1;
        }
    }
    rec.close(id);
    let report = trace.report().expect("enabled trace has a report");

    let layers = &mut res.per_layer;
    plan_layers(&specs, Some(&traced.layers), &mut speed, layers);
    runtime_layers(&cycles, &report, pool, layers);
    trace_overhead(&untraced.pass_ns, &traced.pass_ns, layers);
    res.reconciled = reconcile(&rec.spans, "timed");
    res.spans = rec.spans;
    res.ticks = speed.ticks;
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_distinct_plans() {
        let specs = plans();
        assert_eq!(specs.len(), 16);
        let bindings = ParamBindings::new();
        let mut fps: Vec<u64> = specs
            .iter()
            .map(|s| polymg::cache::fingerprint(&s.pipeline(), &bindings, &s.opts))
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 16);
    }

    #[test]
    fn compiles_are_deterministic_and_a_corrupted_one_is_caught() {
        let specs = plans();
        assert_eq!(nondeterministic(&specs, false), 0);
        assert_eq!(nondeterministic(&specs, true), 1);
    }

    #[test]
    fn counts_repeat_exactly_across_runs() {
        let ctx = RunCtx {
            seed: 11,
            seconds: 0.05,
            traced: false,
            quick: true,
            corrupt: false,
        };
        let (a, b) = (run(&ctx), run(&ctx));
        assert!(a.correct() && b.correct());
        for name in [
            "cycles_to_target",
            "storage_bytes_per_point",
            "verified_share",
        ] {
            assert_eq!(a.end_to_end[name], b.end_to_end[name], "{name}");
        }
        for m in &crate::catalog::END_TO_END {
            assert!(a.end_to_end[m.name].value > 0.0, "{}", m.name);
        }
    }
}
