//! Per-layer numbers every workload derives the same way from its own plans
//! and runners: compiler spans and counts (`gmg-ir`, `polymg`) and VM /
//! driver numbers (`gmg-runtime`, `gmg-multigrid`).

use crate::plans::{build_cold, Built, PlanCounts, PlanSpec};
use crate::result::{put, Layers, RunCtx};
use crate::spans::Recorder;
use crate::speed::Speed;
use crate::stats::{median, Row};
use gmg_ir::ParamBindings;
use gmg_runtime::{PoolStats, RunStats};
use polymg::PlanCache;
use std::time::Instant;

/// Per pass over a workload's plans: Σ over the plans of each layer's
/// (speed-normalised) wall time, nanoseconds.
#[derive(Default)]
pub struct PassSamples {
    pub ir: Vec<f64>,
    pub compile: Vec<f64>,
    pub lower: Vec<f64>,
    pub engine_new: Vec<f64>,
}

impl PassSamples {
    pub fn len(&self) -> usize {
        self.ir.len()
    }
}

/// One cold pass: build every plan of `specs`, spans recorded under one
/// `bench.plan` span per plan. Returns the builds and, per plan, its
/// normalised build time and completion time on `speed`'s clock.
pub fn cold_pass(
    specs: &[PlanSpec],
    rec: &mut Recorder,
    speed: &mut Speed,
    pass: u64,
    samples: &mut PassSamples,
) -> (Vec<Built>, Vec<(f64, u64)>) {
    let mut builds = Vec::with_capacity(specs.len());
    let mut per_plan = Vec::with_capacity(specs.len());
    let (mut ir, mut compile, mut lower, mut engine) = (0.0, 0.0, 0.0, 0.0);
    for (i, spec) in specs.iter().enumerate() {
        let request_id = pass * specs.len() as u64 + i as u64;
        let id = rec.open("bench.plan", request_id);
        let b = build_cold(spec, rec, request_id);
        rec.close(id);
        let (sigma, at) = speed.stamp();
        per_plan.push((b.ns.total() as f64 / sigma, at));
        ir += b.ns.ir as f64 / sigma;
        compile += b.ns.compile as f64 / sigma;
        lower += b.ns.lower as f64 / sigma;
        engine += b.ns.engine_new as f64 / sigma;
        builds.push(b);
    }
    samples.ir.push(ir);
    samples.compile.push(compile);
    samples.lower.push(lower);
    samples.engine_new.push(engine);
    (builds, per_plan)
}

const MIN_COMPILE_PASSES: usize = 40;
/// Share of `seconds` spent sampling cold builds (0.4 s of a 12 s run): a
/// 60 µs build sampled for 6 ms reads 25 % apart from run to run.
const COMPILE_SHARE: f64 = 1.0 / 30.0;

/// `compile_ms_per_plan` of the workloads that do not time compiles
/// themselves: cold passes over their plans (the four calls `compile_cold`
/// times), one sample per pass, normalised nanoseconds per plan.
pub fn compile_ns_per_plan(specs: &[PlanSpec], ctx: &RunCtx, speed: &mut Speed) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < ctx.at_least(MIN_COMPILE_PASSES)
        || start.elapsed().as_secs_f64() < ctx.seconds * COMPILE_SHARE
    {
        let pass: u64 = specs
            .iter()
            .map(|p| build_cold(p, &mut Recorder::off(), 0).ns.total())
            .sum();
        samples.push(pass as f64 / specs.len() as f64 / speed.factor());
    }
    samples
}

const PLAN_PROBE_PASSES: usize = 10;
const CACHE_PROBE_REPS: usize = 200;

/// `ir.*` and `core.*`: spans per plan (pass sums ÷ plans), counts summed
/// over the workload's plans. When the workload did not time passes itself,
/// ten cold passes are made here.
pub fn plan_layers(
    specs: &[PlanSpec],
    passes: Option<&PassSamples>,
    speed: &mut Speed,
    layers: &mut Layers,
) {
    let mut own = PassSamples::default();
    let passes = match passes {
        Some(p) if p.len() > 0 => p,
        _ => {
            for pass in 0..PLAN_PROBE_PASSES {
                cold_pass(specs, &mut Recorder::off(), speed, pass as u64, &mut own);
            }
            &own
        }
    };
    let per_plan_us = 1e-3 / specs.len() as f64;
    put(
        layers,
        "ir.build_us",
        Row::of_samples(&passes.ir).scaled(per_plan_us),
    );
    put(
        layers,
        "core.compile_us",
        Row::of_samples(&passes.compile).scaled(per_plan_us),
    );
    put(
        layers,
        "core.lower_us",
        Row::of_samples(&passes.lower).scaled(per_plan_us),
    );
    put(
        layers,
        "runtime.engine_new_us",
        Row::of_samples(&passes.engine_new).scaled(per_plan_us),
    );

    // fingerprint and warm plan-cache lookup, on a private cache
    let cache = PlanCache::new();
    let bindings = ParamBindings::new();
    let pipelines: Vec<_> = specs.iter().map(PlanSpec::pipeline).collect();
    for (spec, p) in specs.iter().zip(&pipelines) {
        cache
            .get_or_compile(p, &bindings, spec.opts.clone())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e:?}", spec.label));
    }
    let (mut fp, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..CACHE_PROBE_REPS {
        let t0 = Instant::now();
        for (spec, p) in specs.iter().zip(&pipelines) {
            std::hint::black_box(polymg::cache::fingerprint(p, &bindings, &spec.opts));
        }
        fp.push(t0.elapsed().as_nanos() as f64 / speed.factor());
        let t0 = Instant::now();
        for (spec, p) in specs.iter().zip(&pipelines) {
            std::hint::black_box(
                cache
                    .get_or_compile(p, &bindings, spec.opts.clone())
                    .is_ok(),
            );
        }
        hit.push(t0.elapsed().as_nanos() as f64 / speed.factor());
    }
    put(
        layers,
        "core.fingerprint_us",
        Row::of_samples(&fp).scaled(per_plan_us),
    );
    put(
        layers,
        "core.cache_hit_us",
        Row::of_samples(&hit).scaled(per_plan_us),
    );

    let totals = Totals::of(specs);
    let counts = &totals.counts;
    for (name, v) in [
        ("ir.stages", counts.stages),
        ("core.groups", counts.groups),
        ("core.overlapped_groups", counts.overlapped_groups),
        ("core.diamond_groups", counts.diamond_groups),
        ("core.ops", counts.ops),
        ("core.full_arrays", counts.full_arrays),
        ("core.intermediate_bytes", counts.intermediate_bytes),
        ("core.peak_scratch_bytes", counts.peak_scratch_bytes),
    ] {
        put(layers, name, Row::exact(v as f64));
    }
    put(
        layers,
        "core.traffic_bytes_per_point_computed",
        Row::exact(counts.traffic_bytes as f64 / totals.points),
    );
}

/// Counts of a workload's plans, summed (peak scratch: the maximum).
pub struct Totals {
    pub counts: PlanCounts,
    /// Σ per plan of the bytes it keeps resident.
    pub storage_bytes: usize,
    /// Σ finest interior points.
    pub points: f64,
}

impl Totals {
    pub fn of(specs: &[PlanSpec]) -> Totals {
        let mut t = Totals {
            counts: PlanCounts::default(),
            storage_bytes: 0,
            points: 0.0,
        };
        for spec in specs {
            let b = build_cold(spec, &mut Recorder::off(), 0);
            let c = PlanCounts::of(&b.plan, b.engine.program());
            t.storage_bytes += c.storage_bytes();
            t.points += spec.points();
            let total = &mut t.counts;
            total.stages += c.stages;
            total.groups += c.groups;
            total.overlapped_groups += c.overlapped_groups;
            total.diamond_groups += c.diamond_groups;
            total.ops += c.ops;
            total.full_arrays += c.full_arrays;
            total.intermediate_bytes += c.intermediate_bytes;
            total.peak_scratch_bytes = total.peak_scratch_bytes.max(c.peak_scratch_bytes);
            total.external_bytes += c.external_bytes;
            total.traffic_bytes += c.traffic_bytes;
        }
        t
    }

    /// The paper's Fig. 11b quantity over the workload's plans.
    pub fn storage_bytes_per_point(&self) -> f64 {
        self.storage_bytes as f64 / self.points
    }
}

/// What the benchmark saw of a sequence of `DslRunner::cycle_with_stats`
/// calls: its own timer around each call and the `RunStats` each returned,
/// both divided by the speed factor of the moment.
#[derive(Default)]
pub struct CycleSamples {
    pub wall_ns: Vec<f64>,
    pub run_ns: Vec<f64>,
    pub fresh_bytes: Vec<f64>,
    /// Σ over the cycles of the plan's computed traffic and domain cells.
    pub traffic_bytes: f64,
    pub domain_cells: f64,
}

impl CycleSamples {
    pub fn push(
        &mut self,
        wall_ns: u64,
        stats: &RunStats,
        sigma: f64,
        traffic_bytes: usize,
        cells: u64,
    ) {
        self.wall_ns.push(wall_ns as f64 / sigma);
        self.run_ns.push(stats.elapsed.as_nanos() as f64 / sigma);
        self.fresh_bytes.push(stats.fresh_bytes as f64);
        self.traffic_bytes += traffic_bytes as f64;
        self.domain_cells += cells as f64;
    }
}

/// `runtime.*` and `mg.*` from traced cycles: `report` is the program's own
/// `gmg_trace::Report` of exactly the cycles in `cycles`; `pool` the pool
/// counters accumulated over them.
pub fn runtime_layers(
    cycles: &CycleSamples,
    report: &gmg_trace::Report,
    pool: PoolDelta,
    layers: &mut Layers,
) {
    let wall = Row::of_samples(&cycles.wall_ns);
    let run = Row::of_samples(&cycles.run_ns);
    put(layers, "mg.cycle_us", wall.scaled(1e-3));
    put(layers, "runtime.run_us", run.scaled(1e-3));
    let overhead: Vec<f64> = cycles
        .wall_ns
        .iter()
        .zip(&cycles.run_ns)
        .map(|(w, r)| (w - r) / w)
        .collect();
    put(
        layers,
        "mg.driver_overhead_share",
        Row::of_samples(&overhead),
    );

    let total_op_ns: u64 = report.ops.iter().map(|o| o.ns).sum();
    let class_ns = |names: &[&str]| -> u64 {
        report
            .ops
            .iter()
            .filter(|o| names.contains(&o.mnemonic.as_str()))
            .map(|o| o.ns)
            .sum()
    };
    for (metric, names) in [
        ("runtime.op.overlapped_share", &["run_overlapped"][..]),
        ("runtime.op.untiled_share", &["run_untiled"]),
        (
            "runtime.op.diamond_share",
            &["run_diamond", "run_mixed_chain"],
        ),
        ("runtime.op.fill_ghost_share", &["fill_ghost"]),
        ("runtime.op.copy_live_out_share", &["copy_live_out"]),
        (
            "runtime.op.pool_share",
            &["pool_alloc", "pool_free", "malloc_fresh"],
        ),
    ] {
        let share = class_ns(names) as f64 / total_op_ns.max(1) as f64;
        put(layers, metric, Row::exact(share));
    }
    let computed_cells: u64 = report.stages.iter().map(|s| s.cells).sum();
    put(
        layers,
        "runtime.redundant_cell_ratio",
        Row::exact(computed_cells as f64 / cycles.domain_cells.max(1.0)),
    );
    let requests = (pool.hits + pool.misses).max(1) as f64;
    put(
        layers,
        "runtime.pool_hit_rate",
        Row::exact(pool.hits as f64 / requests),
    );
    put(
        layers,
        "runtime.pool_peak_live_bytes",
        Row::exact(pool.peak_live_bytes as f64),
    );
    put(
        layers,
        "runtime.fresh_bytes_per_cycle",
        Row::exact(cycles.fresh_bytes.iter().sum::<f64>() / cycles.fresh_bytes.len() as f64),
    );
    let secs: f64 = cycles.wall_ns.iter().sum::<f64>() * 1e-9;
    put(
        layers,
        "runtime.achieved_gbps_computed",
        Row::exact(cycles.traffic_bytes / secs / 1e9),
    );
}

/// Pool requests served over a span of cycles.
#[derive(Clone, Copy, Default)]
pub struct PoolDelta {
    pub hits: usize,
    pub misses: usize,
    pub peak_live_bytes: usize,
}

impl PoolDelta {
    pub fn between(before: PoolStats, after: PoolStats) -> PoolDelta {
        PoolDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            peak_live_bytes: after.peak_live_bytes,
        }
    }

    pub fn add(&mut self, other: PoolDelta) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.peak_live_bytes += other.peak_live_bytes;
    }
}

/// `(traced − untraced) ÷ untraced` of the workload's primary operation
/// time.
pub fn trace_overhead(untraced_ns: &[f64], traced_ns: &[f64], layers: &mut Layers) {
    let base = median(untraced_ns);
    put(
        layers,
        "trace.overhead_share",
        Row::derived(
            (median(traced_ns) - base) / base,
            untraced_ns.len() + traced_ns.len(),
        ),
    );
}
