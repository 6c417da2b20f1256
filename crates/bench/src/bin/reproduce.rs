//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! reproduce [EXPERIMENT] [--class smoke|B|C|paperB|paperC] [--iters N]
//!           [--repeats N] [--stride N] [--threads N] [--profile OUT.json]
//!
//! EXPERIMENT ∈ {table2, table3, fig9, fig10, fig11a, fig11b, fig12,
//!               grouping, dot, scaling, memory, all}   (default: all;
//!               `all` skips `scaling`)
//! ```
//!
//! An unknown experiment or flag, or a missing or unparsable flag value,
//! prints what was wrong and exits 2.
//!
//! `--profile OUT.json` attaches a `gmg-trace` handle to every engine the
//! experiments build and writes the aggregated profile (per-stage times,
//! tile/cell counts, kernel-dispatch histogram, pool/arena/comm counters,
//! per-cycle residuals) as structured JSON when the run finishes. See
//! DESIGN.md §Observability for the schema.
//!
//! Scaled classes are the default (see DESIGN.md). `--class C --repeats 2`
//! reproduces the EXPERIMENTS.md numbers.

use gmg_bench::experiments::{
    dot_report, fig10_nas, fig11a, fig11b, fig12, fig_speedups, grouping_report, memory_report,
    scaling, table2, table3, ExpOptions,
};
use gmg_multigrid::config::SizeClass;

/// Every experiment name; `all` runs each of them but `scaling`.
const EXPERIMENTS: [&str; 11] = [
    "table2", "table3", "fig9", "fig10", "fig11a", "fig11b", "fig12", "grouping", "dot", "scaling",
    "memory",
];

/// Bad input is the user's, not a bug: say which argument and why, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}

/// The parsed value after `flag`, or [`fail`].
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    gmg_server::cli::flag_value(args, i, flag).unwrap_or_else(|e| fail(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_string();
    let mut class = SizeClass::B;
    let mut iters: Option<usize> = None;
    let mut repeats = 2usize;
    let mut stride = 8usize;
    let mut threads = 1usize;
    let mut profile: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--class" => class = value(&args, &mut i, "--class"),
            "--iters" => iters = Some(value(&args, &mut i, "--iters")),
            "--repeats" => repeats = value(&args, &mut i, "--repeats"),
            "--stride" => stride = value(&args, &mut i, "--stride"),
            "--threads" => threads = value(&args, &mut i, "--threads"),
            "--profile" => profile = Some(value(&args, &mut i, "--profile")),
            name if name == "all" || EXPERIMENTS.contains(&name) => exp = name.to_string(),
            name if !name.starts_with('-') => fail(&format!(
                "unknown experiment {name:?}; expected all, {}",
                EXPERIMENTS.join(", ")
            )),
            other => fail(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let trace = if profile.is_some() {
        let t = gmg_trace::Trace::enabled();
        t.set_meta("tool", "reproduce");
        t.set_meta("experiment", &exp);
        t.set_meta("class", class.tag());
        t
    } else {
        gmg_trace::Trace::disabled()
    };

    let o = ExpOptions {
        class,
        iters_override: iters,
        repeats,
        threads: vec![threads],
        trace: trace.clone(),
    };

    let run = |name: &str| exp == "all" || exp == name;

    if run("table2") {
        print!("{}", table2(o.class));
        println!();
    }
    if run("table3") {
        print!("{}", table3(&o));
        println!();
    }
    if run("fig9") {
        print!("{}", fig_speedups(2, &o));
        println!();
    }
    if run("fig10") {
        print!("{}", fig_speedups(3, &o));
        print!("{}", fig10_nas(&o));
        println!();
    }
    if run("fig11a") {
        print!("{}", fig11a(&o));
        println!();
    }
    if run("fig11b") {
        print!("{}", fig11b(&o));
        println!();
    }
    if run("fig12") {
        print!("{}", fig12(&o, stride));
        println!();
    }
    if run("grouping") {
        print!("{}", grouping_report(o.class));
        println!();
    }
    if run("dot") {
        print!("{}", dot_report(o.class));
        println!();
    }
    if exp == "scaling" {
        print!("{}", scaling(&o, &[1, 2, 4]));
        println!();
    }
    if run("memory") {
        print!("{}", memory_report(&o));
        println!();
    }

    if let Some(path) = profile {
        let (hits, misses) = polymg::PlanCache::global().counters();
        trace.record_plan_cache(hits, misses, polymg::PlanCache::global().evictions());
        let rep = trace.report().expect("--profile enables the trace");
        gmg_bench::write_or_exit(&path, &rep.to_json());
        eprintln!(
            "wrote profile {path} ({} stages, {} cycles recorded)",
            rep.stages.len(),
            rep.cycles.len()
        );
    }
}
