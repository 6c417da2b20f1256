//! One function per table/figure of Section 4.
//!
//! Every function prints a paper-style block and returns it as a `String`
//! (the `reproduce` binary also tees these into `EXPERIMENTS.md`-ready
//! form). Shapes to compare against the paper are noted inline.

use crate::runners::{harness_tiles, make_runner, ImplKind};
use crate::timing::{fmt_row, min_time};
use gmg_ir::expr::Operand as Op;
use gmg_ir::stencil::{stencil_2d, stencil_3d};
use gmg_ir::{ParamBindings, Pipeline, StepCount};
use gmg_multigrid::config::{CycleType, MgConfig, SizeClass, SmoothSteps};
use gmg_multigrid::cycles::build_cycle_pipeline;
use gmg_multigrid::solver::CycleRunner as _;
use gmg_nas::dsl::NasDsl;
use gmg_nas::reference::NasReference;
use gmg_runtime::Engine;
use gmg_trace::Trace;
use polymg::{PipelineOptions, Variant};
use std::fmt::Write as _;
use std::time::Instant;

/// Harness-wide options.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    pub class: SizeClass,
    /// Override the per-class cycle iteration counts (quick mode).
    pub iters_override: Option<usize>,
    /// Timing repeats (paper: 5, minimum taken).
    pub repeats: usize,
    /// Thread counts for scaling rows.
    pub threads: Vec<usize>,
    /// Shared trace handle; disabled unless `--profile` asked for one.
    /// Cloned into every engine the experiments construct, so one profile
    /// file aggregates the whole run.
    pub trace: Trace,
}

impl ExpOptions {
    /// Quick defaults for a small container.
    pub fn quick() -> Self {
        ExpOptions {
            class: SizeClass::Smoke,
            iters_override: Some(2),
            repeats: 1,
            threads: vec![1],
            trace: Trace::disabled(),
        }
    }

    /// Scaled-class defaults (the EXPERIMENTS.md runs).
    pub fn scaled(class: SizeClass) -> Self {
        ExpOptions {
            class,
            iters_override: None,
            repeats: 2,
            threads: vec![1],
            trace: Trace::disabled(),
        }
    }

    fn iters(&self, ndims: usize) -> usize {
        self.iters_override
            .unwrap_or_else(|| self.class.cycle_iters(ndims))
    }
}

/// The four Poisson benchmarks of §4.1.
pub fn benchmarks(ndims: usize, class: SizeClass) -> Vec<MgConfig> {
    let n = class.n(ndims);
    let mut v = Vec::new();
    for cycle in [CycleType::V, CycleType::W] {
        for steps in [SmoothSteps::s444(), SmoothSteps::s1000()] {
            v.push(MgConfig::new(ndims, n, cycle, steps));
        }
    }
    v
}

/// Table 2: problem-size configurations.
pub fn table2(class: SizeClass) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: problem sizes (class {}) ==", class.tag());
    let _ = writeln!(
        out,
        "  2D      grid {n2}^2 (interior), {i2} cycle iters",
        n2 = class.n(2),
        i2 = class.cycle_iters(2)
    );
    let _ = writeln!(
        out,
        "  3D      grid {n3}^3 (interior), {i3} cycle iters",
        n3 = class.n(3),
        i3 = class.cycle_iters(3)
    );
    let _ = writeln!(
        out,
        "  NAS-MG  grid {n3}^3 (interior), 20 cycle iters",
        n3 = class.n(3)
    );
    out
}

/// Table 3: benchmark characteristics — DAG stage counts, compiled-plan
/// sizes (our analogue of generated LoC) and polymg-naive execution times.
pub fn table3(o: &ExpOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 3: benchmark characteristics (class {}) ==",
        o.class.tag()
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>8} {:>8} {:>12}",
        "benchmark", "stages", "groups+", "arrays+", "naive-time(s)"
    );
    for ndims in [2usize, 3] {
        for cfg in benchmarks(ndims, o.class) {
            let pipeline = build_cycle_pipeline(&cfg);
            let graph = gmg_ir::StageGraph::build(&pipeline, &ParamBindings::new());
            let mut opts = PipelineOptions::for_variant(Variant::OptPlus, ndims);
            opts.tile_sizes = harness_tiles(ndims);
            let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
            let stats = polymg::report::stats(&plan);
            let mut naive = make_runner(&cfg, ImplKind::PolymgNaive, 1);
            let t = min_time(&mut *naive, &cfg, o.iters(ndims), o.repeats);
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>8} {:>8} {:>12.3}",
                cfg.tag(),
                graph.num_compute_stages(),
                stats.num_groups,
                stats.num_full_arrays,
                t.seconds()
            );
        }
    }
    // NAS
    let n = o.class.n(3);
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 3);
    opts.tile_sizes = harness_tiles(3);
    let nas = NasDsl::new(n, 4, opts, "polymg-opt+").unwrap();
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>8} {:>8} {:>12}",
        "NAS-MG",
        nas.engine().plan().graph.num_compute_stages(),
        nas.engine().plan().groups.len(),
        nas.engine().plan().storage.num_intermediate_arrays(),
        "-"
    );
    out
}

/// Figures 9/10 core: speedups of all six implementations over
/// polymg-naive, for the four benchmarks at one rank.
pub fn fig_speedups(ndims: usize, o: &ExpOptions) -> String {
    let fig = if ndims == 2 { "Figure 9" } else { "Figure 10" };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {fig}: {ndims}D speedups over polymg-naive (class {}) ==",
        o.class.tag()
    );
    for cfg in benchmarks(ndims, o.class) {
        let iters = o.iters(ndims);
        let _ = writeln!(
            out,
            "{} class {} ({} iters):",
            cfg.tag(),
            o.class.tag(),
            iters
        );
        let mut rows = Vec::new();
        for kind in ImplKind::all() {
            let mut r = make_runner(&cfg, kind, o.threads[0]);
            r.set_trace(o.trace.clone());
            let t = min_time(&mut *r, &cfg, iters, o.repeats);
            rows.push((kind, t.seconds()));
        }
        let base = rows
            .iter()
            .find(|(k, _)| *k == ImplKind::PolymgNaive)
            .map(|(_, s)| *s)
            .unwrap();
        for (kind, secs) in rows {
            let _ = writeln!(out, "{}", fmt_row(kind.label(), secs, base));
        }
    }
    out
}

/// Figure 10e: NAS MG — reference vs PolyMG variants.
pub fn fig10_nas(o: &ExpOptions) -> String {
    let n = o.class.n(3);
    let iters = o.iters_override.unwrap_or(20);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 10e: NAS-MG class {} ({iters} iters, {n}^3) ==",
        o.class.tag()
    );
    let e = (n + 2) as usize;
    let mut v = vec![0.0; e * e * e];
    gmg_nas::init_charges(&mut v, n, 10, 314159);

    // reference port
    let mut best_ref = f64::MAX;
    for _ in 0..o.repeats {
        let mut nref = NasReference::new(n, 4, o.threads[0]);
        nref.set_v(&v);
        let t0 = Instant::now();
        for _ in 0..iters {
            nref.iteration();
        }
        best_ref = best_ref.min(t0.elapsed().as_secs_f64());
    }
    let mut base_naive = None;
    let mut rows = vec![format!("  {:<20} {:>9.3}s", "NAS reference", best_ref)];
    for kind in ImplKind::polymg() {
        if kind == ImplKind::PolymgDtileOptPlus {
            continue; // NAS has no TStencil chains; identical to opt+
        }
        let mut opts = PipelineOptions::for_variant(kind.variant().unwrap(), 3);
        opts.tile_sizes = harness_tiles(3);
        opts.threads = o.threads[0];
        let mut best = f64::MAX;
        for _ in 0..o.repeats {
            let mut dsl = NasDsl::new(n, 4, opts.clone(), kind.label()).unwrap();
            let mut u = vec![0.0; e * e * e];
            let t0 = Instant::now();
            for _ in 0..iters {
                gmg_multigrid::solver::CycleRunner::cycle(&mut dsl, &mut u, &v);
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        if kind == ImplKind::PolymgNaive {
            base_naive = Some(best);
        }
        rows.push(fmt_row(kind.label(), best, base_naive.unwrap_or(best)));
    }
    let _ = writeln!(
        out,
        "{}\n  (paper shape: polymg-opt+ beats the reference by ~1.3x on class C)",
        rows.join("\n")
    );
    out
}

/// A pure Jacobi smoother pipeline (for Figure 11a).
pub fn smoother_pipeline(ndims: usize, n: i64, steps: usize, omega: f64) -> Pipeline {
    let mut p = Pipeline::new(&format!("smoother-{ndims}d-{steps}"));
    let v = p.input("V", ndims, n, 0);
    let f = p.input("F", ndims, n, 0);
    let h = 1.0 / (n + 1) as f64;
    let w = omega * h * h / (2.0 * ndims as f64);
    let zero = vec![0i64; ndims];
    let lap = match ndims {
        2 => stencil_2d(
            Op::State,
            &[
                vec![0.0, -1.0, 0.0],
                vec![-1.0, 4.0, -1.0],
                vec![0.0, -1.0, 0.0],
            ],
            1.0 / (h * h),
        ),
        3 => {
            let mut wts = vec![vec![vec![0.0; 3]; 3]; 3];
            wts[1][1][1] = 6.0;
            for (z, y, x) in [
                (0, 1, 1),
                (2, 1, 1),
                (1, 0, 1),
                (1, 2, 1),
                (1, 1, 0),
                (1, 1, 2),
            ] {
                wts[z][y][x] = -1.0;
            }
            stencil_3d(Op::State, &wts, 1.0 / (h * h))
        }
        _ => panic!("unsupported rank"),
    };
    let defn = Op::State.at(&zero) - w * (lap - Op::Func(f).at(&zero));
    let sm = p.tstencil("sm", ndims, n, 0, StepCount::Fixed(steps), Some(v), defn);
    let out = p.function("out", ndims, n, 0, Op::Func(sm).at(&zero) + 0.0);
    p.mark_output(out);
    p
}

/// Figure 11a: smoother-only comparison — overlapped tiling (opt+) vs
/// diamond/split (dtile) vs untiled sweeps, for 4 and 10 Jacobi steps in
/// 3-D.
pub fn fig11a(o: &ExpOptions) -> String {
    let n = o.class.n(3);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 11a: 3D smoother-only, {n}^3, overlapped vs diamond =="
    );
    for steps in [4usize, 10] {
        let _ = writeln!(out, " {steps} Jacobi steps:");
        let p = smoother_pipeline(3, n, steps, 6.0 / 7.0);
        let mut base = None;
        for (label, variant) in [
            ("untiled (naive)", Variant::Naive),
            ("overlapped (opt+)", Variant::OptPlus),
            ("diamond (dtile)", Variant::DtileOptPlus),
        ] {
            let mut opts = PipelineOptions::for_variant(variant, 3);
            opts.tile_sizes = harness_tiles(3);
            opts.threads = o.threads[0];
            opts.dtile_band = 4;
            let plan = polymg::compile_cached(&p, &ParamBindings::new(), opts).unwrap();
            let mut engine = Engine::new(plan);
            engine.set_trace(o.trace.clone());
            let e = (n + 2) as usize;
            let len = e * e * e;
            let vin = vec![0.0; len];
            let mut fin = vec![0.0; len];
            for (i, x) in fin.iter_mut().enumerate() {
                *x = ((i % 17) as f64 - 8.0) * 0.1;
            }
            let mut buf = vec![0.0; len];
            let reps = o.repeats.max(1) * 2;
            let t0 = Instant::now();
            for _ in 0..reps {
                engine
                    .run(&[("V", &vin), ("F", &fin)], vec![("out", &mut buf)])
                    .unwrap();
            }
            let secs = t0.elapsed().as_secs_f64() / reps as f64;
            if base.is_none() {
                base = Some(secs);
            }
            let _ = writeln!(out, "{}", fmt_row(label, secs, base.unwrap()));
        }
    }
    let _ = writeln!(
        out,
        "  (paper shape: overlapped slightly ahead at 4 steps; diamond wins at 10)"
    );
    out
}

/// Figure 11b: storage-optimization breakdown for V-10-0-0, 2-D and 3-D:
/// naive → +intra-group reuse → +pooled allocation → +inter-group reuse.
pub fn fig11b(o: &ExpOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 11b: storage-optimization breakdown, V-10-0-0 (class {}) ==",
        o.class.tag()
    );
    for ndims in [2usize, 3] {
        let cfg = MgConfig::new(ndims, o.class.n(ndims), CycleType::V, SmoothSteps::s1000());
        let iters = o.iters(ndims);
        let _ = writeln!(out, " {}D ({} iters):", ndims, iters);
        let mut base = None;
        type OptTweak = Box<dyn Fn(&mut PipelineOptions)>;
        let steps: [(&str, OptTweak); 4] = [
            (
                "naive",
                Box::new(|o: &mut PipelineOptions| o.group_limit = 1),
            ),
            (
                "+intra-group reuse",
                Box::new(|o: &mut PipelineOptions| {
                    o.intra_group_reuse = true;
                }),
            ),
            (
                "+pooled allocation",
                Box::new(|o: &mut PipelineOptions| {
                    o.intra_group_reuse = true;
                    o.pooled_allocation = true;
                }),
            ),
            (
                "+inter-group reuse",
                Box::new(|o: &mut PipelineOptions| {
                    o.intra_group_reuse = true;
                    o.pooled_allocation = true;
                    o.inter_group_reuse = true;
                }),
            ),
        ];
        for (label, tweak) in steps.iter() {
            let mut opts = PipelineOptions::for_variant(Variant::Opt, ndims);
            opts.tile_sizes = harness_tiles(ndims);
            opts.threads = o.threads[0];
            tweak(&mut opts);
            let pipeline = build_cycle_pipeline(&cfg);
            let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
            let bytes = plan.storage.intermediate_bytes();
            let mut runner = gmg_multigrid::solver::DslRunner::from_plan(plan, &cfg);
            runner.set_trace(o.trace.clone());
            // One cold cycle fills the pool with fresh allocations; reset the
            // counters afterwards so the reported row describes steady-state
            // recycling rather than the first-touch misses.
            min_time(&mut runner, &cfg, 1, 1);
            runner.engine_mut().reset_pool_stats();
            let t = min_time(&mut runner, &cfg, iters, o.repeats);
            let pool = runner.engine_mut().pool_stats();
            if base.is_none() {
                base = Some(t.seconds());
            }
            let total = pool.hits + pool.misses;
            let _ = writeln!(
                out,
                "{}   intermediates: {:>8} KiB planned, {:>8} KiB pool peak, {}/{} pooled reuses",
                fmt_row(label, t.seconds(), base.unwrap()),
                bytes / 1024,
                pool.peak_live_bytes / 1024,
                pool.hits,
                total,
            );
        }
    }
    out
}

/// Figure 12: auto-tuning sweep over tile sizes × group limits for
/// 2D-V-10-0-0, comparing opt and opt+ per configuration. The sweep is
/// [`polymg::autotune::tune`] over every `stride`-th configuration, with
/// the opt+ time as its metric; a stride of 0 is its error.
pub fn fig12(o: &ExpOptions, stride: usize) -> Result<String, polymg::TuneError> {
    let cfg = MgConfig::new(2, o.class.n(2), CycleType::V, SmoothSteps::s1000());
    let iters = o.iters(2).min(3);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 12: autotuning sweep, 2D-V-10-0-0 class {} (stride {stride}) ==",
        o.class.tag()
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>12}",
        "config (tiles,limit)", "opt (s)", "opt+ (s)"
    );
    let pipeline = build_cycle_pipeline(&cfg);
    let label = |tc: &polymg::TuneConfig| format!("{:?} gl={}", tc.tile_sizes, tc.group_limit);
    let (samples, best) = polymg::autotune::tune(2, stride, |tc| {
        let mut row = format!("  {:<22}", label(tc));
        let mut optplus_secs = f64::MAX;
        for variant in [Variant::Opt, Variant::OptPlus] {
            let mut opts = PipelineOptions::for_variant(variant, 2);
            opts = tc.apply(&opts);
            opts.threads = o.threads[0];
            let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
            let mut runner = gmg_multigrid::solver::DslRunner::from_plan(plan, &cfg);
            let t = min_time(&mut runner, &cfg, iters, 1);
            let _ = write!(row, " {:>11.3}s", t.seconds());
            if variant == Variant::OptPlus {
                optplus_secs = t.seconds();
            }
        }
        let _ = writeln!(out, "{row}");
        optplus_secs
    })?;
    let best = &samples[best];
    let _ = writeln!(
        out,
        "  best opt+ config: {} ({:.3}s)",
        label(&best.config),
        best.metric
    );
    Ok(out)
}

/// Figure 6/7: the grouping and storage-mapping dump for 2D V-4-4-4.
pub fn grouping_report(class: SizeClass) -> String {
    let cfg = MgConfig::new(2, class.n(2), CycleType::V, SmoothSteps::s444());
    let pipeline = build_cycle_pipeline(&cfg);
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.tile_sizes = harness_tiles(2);
    let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
    format!(
        "== Figures 6/7: grouping & storage mapping (2D V-4-4-4) ==\n{}",
        polymg::report::grouping_dump(&plan)
    )
}

/// Figure 2/6 as Graphviz: the grouped stage DAG of the 2-D V- and W-cycles.
pub fn dot_report(class: SizeClass) -> String {
    let mut out = String::new();
    for cycle in [CycleType::V, CycleType::W] {
        let cfg = MgConfig::new(2, class.n(2), cycle, SmoothSteps::s444());
        let pipeline = build_cycle_pipeline(&cfg);
        let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
        opts.tile_sizes = harness_tiles(2);
        let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
        std::fs::create_dir_all("reports").ok();
        let path = format!("reports/dag_{}.dot", cfg.tag());
        std::fs::write(&path, polymg::report::dot_dump(&plan)).expect("write dot");
        let _ = writeln!(
            out,
            "wrote {path} ({} stages, {} groups) — render with `dot -Tsvg {path}`",
            plan.graph.num_compute_stages(),
            plan.groups.len()
        );
    }
    out
}

/// Thread-scaling rows (the paper's scaling analysis; on a 1-core host the
/// extra rows measure oversubscription, and the table mainly documents that
/// threading is a runtime parameter).
pub fn scaling(o: &ExpOptions, threads: &[usize]) -> String {
    let cfg = MgConfig::new(2, o.class.n(2), CycleType::W, SmoothSteps::s1000());
    let iters = o.iters(2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Scaling: {} class {} across thread counts ==",
        cfg.tag(),
        o.class.tag()
    );
    for &t in threads {
        let mut naive = make_runner(&cfg, ImplKind::PolymgNaive, t);
        let tn = min_time(&mut *naive, &cfg, iters, o.repeats);
        let mut plus = make_runner(&cfg, ImplKind::PolymgOptPlus, t);
        let tp = min_time(&mut *plus, &cfg, iters, o.repeats);
        let _ = writeln!(
            out,
            "  threads={t:<3} naive {:>8.3}s   opt+ {:>8.3}s   (opt+ speedup {:.2}x)",
            tn.seconds(),
            tp.seconds(),
            tn.seconds() / tp.seconds()
        );
    }
    out
}

/// §4.2 memory claims: intermediate-storage footprint and pool behaviour
/// per variant. Each row pairs the planner's prediction with counters
/// observed by actually running a cycle under a per-row trace — the same
/// `gmg-trace` counters the runtime increments during any profiled run
/// (see `polymg::report::observed_memory`).
pub fn memory_report(o: &ExpOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Memory: intermediate full-array footprint per variant (class {}) ==",
        o.class.tag()
    );
    for ndims in [2usize, 3] {
        let cfg = MgConfig::new(ndims, o.class.n(ndims), CycleType::W, SmoothSteps::s444());
        let pipeline = build_cycle_pipeline(&cfg);
        let iters = o.iters(ndims).clamp(1, 2);
        let _ = writeln!(out, " {} :", cfg.tag());
        for kind in ImplKind::polymg() {
            let mut opts = PipelineOptions::for_variant(kind.variant().unwrap(), ndims);
            opts.tile_sizes = harness_tiles(ndims);
            opts.threads = o.threads[0];
            let plan = polymg::compile_cached(&pipeline, &ParamBindings::new(), opts).unwrap();
            let static_cols = format!(
                "{:>4} arrays, {:>9} KiB intermediates, {:>7} KiB scratch/worker",
                plan.storage.num_intermediate_arrays(),
                plan.storage.intermediate_bytes() / 1024,
                plan.peak_scratch_bytes() / 1024,
            );
            // Observe the pool with a row-local trace so the numbers are
            // per-variant, not cumulative over the table.
            let row_trace = Trace::enabled();
            let mut runner = gmg_multigrid::solver::DslRunner::from_plan(plan, &cfg);
            runner.set_trace(row_trace.clone());
            let (mut v, f, _) = gmg_multigrid::solver::setup_poisson(&cfg);
            gmg_multigrid::solver::run_cycles_traced(
                &mut runner,
                &cfg,
                &mut v,
                &f,
                iters,
                &row_trace,
            );
            let rep = row_trace.report().expect("an enabled trace reports");
            let m = polymg::report::observed_memory(runner.engine_mut().plan(), &rep);
            let _ = writeln!(
                out,
                "  {:<20} {static_cols} | observed: {:>7} KiB pool peak, {:.0}% pool hits",
                kind.label(),
                m.pool.peak_live_bytes / 1024,
                100.0 * m.pool_hit_rate(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> ExpOptions {
        ExpOptions::quick()
    }

    #[test]
    fn table2_mentions_classes() {
        let s = table2(SizeClass::B);
        assert!(s.contains("1023"));
        assert!(s.contains("63"));
    }

    #[test]
    fn benchmarks_enumerate_four() {
        let b = benchmarks(2, SizeClass::Smoke);
        assert_eq!(b.len(), 4);
        assert!(b.iter().any(|c| c.tag() == "W-2D-10-0-0"));
    }

    #[test]
    fn smoother_pipeline_builds() {
        let p = smoother_pipeline(3, 15, 4, 6.0 / 7.0);
        let g = gmg_ir::StageGraph::build(&p, &ParamBindings::new());
        assert_eq!(g.num_compute_stages(), 5);
        assert!(gmg_ir::validate::validate(&p, &g).is_empty());
    }

    #[test]
    fn grouping_report_runs() {
        let s = grouping_report(SizeClass::Smoke);
        assert!(s.contains("group 0"));
        assert!(s.contains("scratch#"));
    }

    #[test]
    fn memory_report_shows_reuse_gain() {
        let s = memory_report(&q());
        assert!(s.contains("polymg-opt+"));
        // observed columns come from the runtime counters
        assert!(s.contains("pool peak"));
        assert!(s.contains("% pool hits"));
    }

    #[test]
    fn fig11b_reports_live_pool_counters() {
        let mut o = q();
        o.trace = Trace::enabled();
        let s = fig11b(&o);
        assert!(s.contains("+pooled allocation"));
        assert!(s.contains("KiB pool peak"));
        assert!(s.contains("pooled reuses"));
        let rep = o.trace.report().expect("an enabled trace reports");
        assert!(!rep.stages.is_empty(), "stage spans should be recorded");
        let json = rep.to_json();
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"dispatch\""));
    }

    #[test]
    fn fig11a_runs_quickly() {
        let s = fig11a(&q());
        assert!(s.contains("overlapped"));
        assert!(s.contains("diamond"));
    }
}
