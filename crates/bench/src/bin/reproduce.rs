//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! reproduce [EXPERIMENT] [--class smoke|B|C|paperB|paperC] [--iters N]
//!           [--repeats N] [--stride N] [--threads N] [--profile OUT.json]
//!
//! EXPERIMENT ∈ {table2, table3, fig9, fig10, fig11a, fig11b, fig12,
//!               grouping, memory, all}   (default: all)
//! ```
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
            "--class" => {
                i += 1;
                class = match args[i].as_str() {
                    "smoke" => SizeClass::Smoke,
                    "B" => SizeClass::B,
                    "C" => SizeClass::C,
                    "paperB" => SizeClass::PaperB,
                    "paperC" => SizeClass::PaperC,
                    other => panic!("unknown class '{other}'"),
                };
            }
            "--iters" => {
                i += 1;
                iters = Some(args[i].parse().expect("--iters N"));
            }
            "--repeats" => {
                i += 1;
                repeats = args[i].parse().expect("--repeats N");
            }
            "--stride" => {
                i += 1;
                stride = args[i].parse().expect("--stride N");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads N");
            }
            "--profile" => {
                i += 1;
                profile = Some(args[i].clone());
            }
            name if !name.starts_with("--") => exp = name.to_string(),
            other => panic!("unknown flag '{other}'"),
        }
        i += 1;
    }

    let trace = if profile.is_some() {
        let t = gmg_trace::Trace::enabled();
        if !t.is_enabled() {
            eprintln!(
                "warning: --profile requested but gmg-trace was built without \
                 the `capture` feature; the profile will be empty"
            );
        }
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
        match trace.report() {
            Some(rep) => {
                gmg_bench::write_or_exit(&path, &rep.to_json());
                eprintln!(
                    "wrote profile {path} ({} stages, {} cycles recorded)",
                    rep.stages.len(),
                    rep.cycles.len()
                );
            }
            None => eprintln!("no profile data captured; {path} not written"),
        }
    }
}
