//! `polymg-cli` — compile a multigrid benchmark and inspect or export the
//! result, without writing any Rust:
//!
//! ```text
//! polymg-cli serve   [--port N] [--workers N] [...]    # solve service
//! polymg-cli loadgen [--port N] [--connections N] [...] # verifying client
//! polymg-cli stats   [--addr A | --port-file F] [--shutdown] # query a server
//! polymg-cli <benchmark> [--variant naive|opt|opt+|dtile-opt+]
//!            [--n N] [--levels L] [--tiles A,B[,C]] [--gsrb]
//!            [--threads N] [--fast-math | --no-simd]
//!            [--emit dump|dot|c|stats] [--dump-schedule] [-o FILE]
//!            [--profile OUT.json [--iters N]]
//!            [--chaos-seed N] [--chaos-rate R]
//!
//! <benchmark> ∈ {V-2D, W-2D, F-2D, V-3D, W-3D, F-3D} with an optional
//! smoothing suffix, e.g. V-2D-4-4-4 or W-3D-10-0-0 (default 4-4-4).
//! ```
//!
//! `--emit c` writes the Figure-8 C translation unit; `--emit dot` the
//! Graphviz DAG; `--emit dump` the Figures-6/7 grouping report (default);
//! `--emit stats` a one-line plan summary. `--dump-schedule` prints the
//! lowered schedule IR instead — the flat op stream the VM interprets, with
//! slot table and per-op geometry summaries.
//!
//! `--profile OUT.json` additionally *executes* the compiled plan (`--iters`
//! multigrid cycles on the manufactured Poisson problem, default 2) under a
//! `gmg-trace` handle and writes the captured profile — per-stage and
//! per-op times, kernel-dispatch histogram, pool/arena and plan-cache
//! counters, per-cycle residuals — as JSON. It also prints the
//! human-readable observability dump to stderr.
//!
//! `--chaos-seed N` arms deterministic fault injection (`polymg::chaos`)
//! for the profiled run: pool/arena exhaustion, worker panics, per-op
//! faults. `--chaos-rate R` sets the per-site firing probability (default
//! 0.01). Recovered faults leave results bitwise-identical; unrecoverable
//! ones surface as typed errors per cycle (the run continues) and every
//! armed/fired/recovered counter lands in the profile JSON under `chaos`.
//!
//! `--no-simd` / `--fast-math` pick the kernel tier (scalar or
//! reassociating; the default is lane-safe, see `DESIGN.md` §16).
//!
//! A missing or unparsable flag value, a configuration `MgConfig::validate`
//! rejects, or both tier flags at once prints the flag and the reason and
//! exits 2.

use gmg_multigrid::config::{ConfigError, CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::cycles::build_cycle_pipeline;
use gmg_server::cli::tier_flag;
use polymg::{codegen, report, KernelTier, PipelineOptions, Variant};

fn usage() -> ! {
    eprintln!(
        "usage: polymg-cli <V-2D[-a-b-c]|W-3D[-a-b-c]|…> [--variant naive|opt|opt+|dtile-opt+]\n\
         \x20      [--n N] [--levels L] [--tiles A,B[,C]] [--gsrb] [--threads N]\n\
         \x20      [--fast-math | --no-simd]\n\
         \x20      [--emit dump|dot|c|stats] [--dump-schedule] [-o FILE]\n\
         \x20      [--profile OUT.json [--iters N]] [--chaos-seed N] [--chaos-rate R]"
    );
    std::process::exit(2);
}

/// Bad input is the user's, not a bug: say which flag and why, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("polymg-cli: {msg}");
    std::process::exit(2);
}

/// The parsed value after `flag`, or [`fail`].
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    gmg_server::cli::flag_value(args, i, flag).unwrap_or_else(|e| fail(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    // serving subcommands (see gmg-server and DESIGN.md §13)
    match args[0].as_str() {
        "serve" => std::process::exit(gmg_server::cli::serve_main(&args[1..])),
        "loadgen" => std::process::exit(gmg_server::cli::loadgen_main(&args[1..])),
        "stats" => std::process::exit(gmg_server::cli::stats_main(&args[1..])),
        _ => {}
    }

    // benchmark spec: CYCLE-RANK[-pre-coarse-post]
    let parts: Vec<&str> = args[0].split('-').collect();
    if parts.len() < 2 {
        usage();
    }
    let cycle = match parts[0] {
        "V" | "v" => CycleType::V,
        "W" | "w" => CycleType::W,
        "F" | "f" => CycleType::F,
        _ => usage(),
    };
    let ndims = match parts[1] {
        "2D" | "2d" => 2usize,
        "3D" | "3d" => 3usize,
        _ => usage(),
    };
    let steps = if parts.len() >= 5 {
        SmoothSteps {
            pre: parts[2].parse().unwrap_or_else(|_| usage()),
            coarse: parts[3].parse().unwrap_or_else(|_| usage()),
            post: parts[4].parse().unwrap_or_else(|_| usage()),
        }
    } else {
        SmoothSteps::s444()
    };

    let mut variant = Variant::OptPlus;
    let mut n: i64 = if ndims == 2 { 255 } else { 31 };
    let mut levels: Option<u32> = None;
    let mut tiles: Option<Vec<i64>> = None;
    let mut emit = "dump".to_string();
    let mut out_file: Option<String> = None;
    let mut gsrb = false;
    let mut profile: Option<String> = None;
    let mut profile_iters = 2usize;
    let mut dump_schedule = false;
    let mut threads: Option<usize> = None;
    let mut tier = KernelTier::LaneSafe;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_rate = 0.01f64;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--variant" => {
                let v: String = value(&args, &mut i, "--variant");
                variant = match v.as_str() {
                    "naive" => Variant::Naive,
                    "opt" => Variant::Opt,
                    "opt+" => Variant::OptPlus,
                    "dtile-opt+" => Variant::DtileOptPlus,
                    _ => fail(&format!("--variant: unknown variant {v:?}")),
                };
            }
            "--n" => n = value(&args, &mut i, "--n"),
            "--levels" => levels = Some(value(&args, &mut i, "--levels")),
            "--tiles" => {
                let t: String = value(&args, &mut i, "--tiles");
                let sizes: Option<Vec<i64>> = t
                    .split(',')
                    .map(|x| x.parse().ok().filter(|&x| x > 0))
                    .collect();
                match sizes {
                    Some(sizes) if sizes.len() >= ndims => tiles = Some(sizes),
                    _ => fail(&format!("--tiles: need {ndims} positive sizes, got {t:?}")),
                }
            }
            "--emit" => emit = value(&args, &mut i, "--emit"),
            "--threads" => threads = Some(value(&args, &mut i, "--threads")),
            "--no-simd" => tier_flag(&mut tier, KernelTier::Scalar).unwrap_or_else(|e| fail(&e)),
            "--fast-math" => {
                tier_flag(&mut tier, KernelTier::FastMath).unwrap_or_else(|e| fail(&e))
            }
            "--gsrb" => gsrb = true,
            "--dump-schedule" => dump_schedule = true,
            "-o" => out_file = Some(value(&args, &mut i, "-o")),
            "--profile" => profile = Some(value(&args, &mut i, "--profile")),
            "--iters" => profile_iters = value(&args, &mut i, "--iters"),
            "--chaos-seed" => chaos_seed = Some(value(&args, &mut i, "--chaos-seed")),
            "--chaos-rate" => chaos_rate = value(&args, &mut i, "--chaos-rate"),
            _ => usage(),
        }
        i += 1;
    }

    let mut cfg =
        MgConfig::checked(ndims, n, levels.unwrap_or(4), cycle, steps).unwrap_or_else(|e| {
            let flag = match e {
                ConfigError::Size(_) => "--n",
                ConfigError::Levels { .. } => "--levels",
                ConfigError::Rank(_) | ConfigError::NoSmoothing => args[0].as_str(),
            };
            fail(&format!("{flag}: {e}"))
        });
    if gsrb {
        cfg = cfg.with_gsrb();
    }

    let pipeline = build_cycle_pipeline(&cfg);
    let mut opts = PipelineOptions::for_variant(variant, ndims);
    if let Some(t) = tiles {
        opts.tile_sizes = t;
    }
    if let Some(t) = threads {
        opts.threads = t;
    }
    opts.tier = tier;
    let chaos = chaos_seed.map(|s| polymg::ChaosOptions::new(s, chaos_rate));
    opts.chaos = chaos; // stripped by compile — a runtime property only
    let plan = match polymg::compile_cached(&pipeline, &gmg_ir::ParamBindings::new(), opts) {
        Ok(p) => p,
        Err(errs) => {
            eprintln!("compilation failed:");
            for e in errs {
                eprintln!("  {e}");
            }
            std::process::exit(1);
        }
    };

    let output = if dump_schedule {
        polymg::schedule::lower(&plan).dump()
    } else {
        match emit.as_str() {
            "dump" => report::grouping_dump(&plan),
            "dot" => report::dot_dump(&plan),
            "c" => codegen::emit_c(&plan),
            "stats" => {
                let s = report::stats(&plan);
                format!(
                    "{} [{}]: {} stages → {} groups ({} overlapped, {} diamond, {} untiled), \
                     {} full arrays / {} KiB intermediates, {} scratch buffers / {} KiB peak per worker\n",
                    cfg.tag(),
                    variant.label(),
                    s.num_stages,
                    s.num_groups,
                    s.num_overlapped_groups,
                    s.num_diamond_groups,
                    s.num_untiled_groups,
                    s.num_full_arrays,
                    s.intermediate_bytes / 1024,
                    s.total_scratch_buffers,
                    s.peak_scratch_bytes / 1024,
                )
            }
            _ => usage(),
        }
    };

    match out_file {
        Some(f) => {
            gmg_bench::write_or_exit(&f, &output);
            eprintln!("wrote {f}");
        }
        None => print!("{output}"),
    }

    if let Some(path) = profile {
        use gmg_multigrid::solver::{
            residual_norm, run_cycles_traced, setup_poisson, CycleRunner as _,
        };
        let trace = gmg_trace::Trace::enabled();
        trace.set_meta("tool", "polymg-cli");
        trace.set_meta("benchmark", cfg.tag());
        trace.set_meta("variant", variant.label());
        let mut runner = gmg_multigrid::solver::DslRunner::from_plan(plan, &cfg);
        runner.set_trace(trace.clone());
        runner.engine_mut().set_chaos(chaos);
        let (mut v, f, _) = setup_poisson(&cfg);
        let nf = cfg.n_at(cfg.levels - 1);
        let hf = cfg.h_at(cfg.levels - 1);
        let final_res = if chaos.is_some() {
            // chaos-tolerant drive: an unrecoverable injected fault ends a
            // cycle with a typed error, the run keeps going, and the
            // profile (with its fault counters) is still written
            let mut faulted = 0usize;
            let mut last = residual_norm(cfg.ndims, nf, hf, &v, &f);
            for i in 0..profile_iters {
                let t0 = std::time::Instant::now();
                if let Err(e) = runner.cycle_with_stats(&mut v, &f) {
                    faulted += 1;
                    eprintln!("cycle {i}: {e}");
                }
                let dt = t0.elapsed();
                last = residual_norm(cfg.ndims, nf, hf, &v, &f);
                trace.record_cycle(i as u64, dt.as_nanos() as u64, last);
            }
            eprintln!("chaos: {faulted}/{profile_iters} cycles surfaced a typed fault");
            last
        } else {
            let res = run_cycles_traced(&mut runner, &cfg, &mut v, &f, profile_iters, &trace);
            res.norms.last().copied().unwrap_or(res.res0)
        };
        let (hits, misses) = polymg::PlanCache::global().counters();
        trace.record_plan_cache(hits, misses, polymg::PlanCache::global().evictions());
        let rep = trace.report().expect("an enabled trace reports");
        eprint!(
            "{}",
            report::observability_dump(runner.engine_mut().plan(), &rep)
        );
        gmg_bench::write_or_exit(&path, &rep.to_json());
        eprintln!("wrote profile {path} ({profile_iters} cycles, final residual {final_res:.3e})");
    }
}
