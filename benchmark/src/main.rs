//! `gmg-benchmark` — one benchmark for the whole solve path.
//!
//! ```text
//! gmg-benchmark run [--workload NAME|all] [--seed S] [--seconds T]
//!                   [--trace 0|1 | --traced] [--quick] [--out FILE]
//! gmg-benchmark check A.json B.json [--force]
//! gmg-benchmark list [--json]
//! gmg-benchmark calibrate
//! ```
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions; the only in-program data used are counters and sums
//! the crates already publish. See README.md.

mod catalog;
mod check;
mod compile_cold;
mod compute;
mod host;
mod inputs;
mod layers;
mod output;
mod plans;
mod probes;
mod result;
mod serve;
mod spans;
mod speed;
mod stats;

use result::{Origin, RunCtx, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// `benchmark/out/`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(name: &'static str, ctx: &RunCtx) -> Result<WorkloadResult, String> {
    if let Some(spec) = compute::spec(name) {
        Ok(compute::run(&spec, ctx))
    } else if let Some(spec) = serve::spec(name) {
        Ok(serve::run(&spec, ctx))
    } else if name == "compile_cold" {
        Ok(compile_cold::run(ctx))
    } else {
        Err(format!(
            "unknown workload {name:?} (see `gmg-benchmark list`)"
        ))
    }
}

struct RunArgs {
    workloads: Vec<&'static str>,
    ctx: RunCtx,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = "all".to_string();
    let mut seconds: Option<f64> = None;
    let mut ctx = RunCtx {
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        traced: false,
        quick: false,
        corrupt: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                ctx.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => ctx.traced = true,
            "--quick" => ctx.quick = true,
            "--corrupt" => ctx.corrupt = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(s) = seconds {
        if !(s > 0.0 && s <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {s}"));
        }
        ctx.seconds = s;
    }
    if ctx.quick {
        ctx.seconds /= 10.0;
    }
    let workloads = if workload == "all" {
        catalog::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        let w = catalog::WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .ok_or(format!(
                "unknown workload {workload:?} (see `gmg-benchmark list`)"
            ))?;
        vec![w.name]
    };
    Ok(RunArgs {
        workloads,
        ctx,
        out,
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        workloads,
        ctx,
        out,
    } = parse_run(args)?;
    let fp = host::fingerprint();
    eprintln!(
        "host: {} cores, {}, L2 {} B, LLC {} B, RAM {} B, rev {}, {}",
        fp.cores, fp.isa, fp.l2_bytes, fp.llc_bytes, fp.ram_bytes, fp.git_rev, fp.rustc
    );
    let write_out = |workloads: &[String]| -> Result<(), String> {
        if let Some(path) = &out {
            std::fs::write(path, output::result_file(&ctx, &fp, workloads))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    };
    let [name] = workloads.as_slice() else {
        let (parts, summary, all_correct) = run_each_in_its_own_process(args, &workloads)?;
        write_out(&parts)?;
        println!("{summary}");
        return Ok(all_correct);
    };

    let mut r = run_workload(name, &ctx)?;
    if ctx.traced {
        if let Some((best_us, sigma)) = speed::summary(&r.ticks) {
            result::put(
                &mut r.per_layer,
                "host.tick_best_us",
                stats::Row::exact(best_us),
            );
            result::put(
                &mut r.per_layer,
                "host.speed_factor_p50",
                stats::Row::exact(sigma),
            );
        }
        // the layers this workload does not exercise, at fixed shapes
        let probes = probes::run(&ctx, &fp, serve::spec(name).is_none());
        for (k, (row, _)) in probes {
            r.per_layer.entry(k).or_insert((row, Origin::Probe));
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::write(&path, spans::chrome_trace(&r.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} ({} spans)", path.display(), r.spans.len());
    }
    print!("{}", output::table(&r));
    if !r.reconciles() {
        eprintln!("{name}: spans do not account for the timed section within 5 %");
    }
    write_out(&[output::workload_json(&r)])?;
    // the benchmark contract's result line, last on standard output
    println!("{}", output::contract_line(&r, ctx.traced)?);
    Ok(r.correct())
}

/// `--workload all`: one child process of this program per workload, so
/// that no workload runs on the heap another one left behind (buffer
/// placement alone moves `varcoef2d_solve` by 20 %) and every number is the
/// one a single-workload run gives. Returns the workload objects of the
/// children's result files, the summary line and whether all were correct.
fn run_each_in_its_own_process(
    args: &[String],
    workloads: &[&'static str],
) -> Result<(Vec<String>, String, bool), String> {
    // the caller's arguments, minus the two this function sets itself
    let mut passed = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" || a == "--out" {
            it.next();
        } else {
            passed.push(a.clone());
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut parts, mut attempted, mut failed, mut all_correct) = (Vec::new(), 0, 0, true);
    for name in workloads {
        let part = dir.join(format!("part_{name}.json"));
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(&passed)
            .args(["--workload", name, "--out"])
            .arg(&part)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        std::fs::remove_file(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let file = output::parse_result_file(&text).map_err(|e| format!("{name}: {e}"))?;
        attempted += file.attempted;
        failed += file.failed.iter().map(|f| f.1).sum::<u64>();
        parts.push(
            output::workloads_text(&text)
                .ok_or(format!("{name}: malformed result file"))?
                .to_string(),
        );
    }
    let summary = format!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {}}}",
        parts.len()
    );
    Ok((parts, summary, all_correct))
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let force = args.iter().any(|a| a == "--force");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: gmg-benchmark check A.json B.json [--force]".to_string());
    };
    let load = |p: &str| -> Result<output::ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        output::parse_result_file(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(why) = check::refusal(&a, &b) {
        if !force {
            return Err(format!(
                "refusing to compare ({why}); pass --force to compare anyway"
            ));
        }
        eprintln!("warning: {why}");
    }
    if a.quick || b.quick {
        eprintln!("warning: a quick run can never back a claim");
    }
    let lines = check::compare(&a, &b);
    print!("{}", check::render(&lines));
    let count = |v| lines.iter().filter(|l| l.verdict == v).count();
    let (worse, unresolved) = (
        count(check::Verdict::Worse),
        count(check::Verdict::Unresolved),
    );
    println!(
        "{} pairs: {} same, {} better, {} worse, {} unresolved",
        lines.len(),
        count(check::Verdict::Same),
        count(check::Verdict::Better),
        worse,
        unresolved
    );
    let failed: u64 = a.failed.iter().chain(&b.failed).map(|f| f.1).sum();
    if failed > 0 {
        println!("{failed} outputs failed verification across the two files");
    }
    Ok(worse == 0 && unresolved == 0 && failed == 0)
}

fn cmd_list(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--json") {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    println!("workloads:");
    for w in &catalog::WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload reports every one):");
    for m in &catalog::END_TO_END {
        println!(
            "  {:<26} {:<6} better: {:<6} bound {:>5.1} %",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for m in catalog::per_layer() {
        println!(
            "  {:<44} {:<6} {:<20} src: {}",
            m.name,
            m.unit,
            m.layer,
            m.src.label()
        );
    }
    Ok(true)
}

/// Tick for 20 s and print the fastest mode: the value `REFERENCE_TICK_NS`
/// should have on this host with this toolchain.
fn cmd_calibrate() -> Result<bool, String> {
    let mut speed = speed::Speed::new();
    let start = std::time::Instant::now();
    while start.elapsed().as_secs_f64() < 20.0 {
        speed.factor();
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    let (best_us, sigma) = speed::summary(&speed.ticks).ok_or("no ticks")?;
    println!(
        "{} ticks: fastest mode {best_us:.2} us (REFERENCE_TICK_NS = {}), median speed factor {sigma:.3}",
        speed.ticks.len(),
        speed::REFERENCE_TICK_NS
    );
    Ok(true)
}

/// The command line, as a function so tests can call it.
fn cli(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("calibrate") => cmd_calibrate(),
        _ => Err("usage: gmg-benchmark run|check|list … (see benchmark/README.md)".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gmg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_run(&args("--workload vcycle3d --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workloads, ["vcycle3d"]);
        assert_eq!((a.ctx.seed, a.ctx.seconds, a.ctx.traced), (7, 12.0, true));
        let all = parse_run(&args("--quick")).unwrap();
        assert_eq!(all.workloads.len(), 7);
        assert_eq!(all.ctx.seconds, catalog::RUN_SECONDS as f64 / 10.0);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
    }

    #[test]
    fn a_corrupted_reply_makes_the_exit_code_non_zero() {
        let ok = cli(&args("run --workload serve_batch --quick --seconds 2"));
        assert_eq!(ok, ExitCode::SUCCESS);
        let bad = cli(&args(
            "run --workload serve_batch --quick --seconds 2 --corrupt",
        ));
        assert_eq!(bad, ExitCode::from(1));
    }
}
