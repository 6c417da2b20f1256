//! `polymg-cli serve` / `polymg-cli loadgen` entry points.
//!
//! ```text
//! polymg-cli serve   [--addr H:P | --port N] [--port-file PATH]
//!                    [--shards N] [--workers N]
//!                    [--queue-cap N] [--tenant-cap N]
//!                    [--engine-threads N] [--tuned FILE]
//!                    [--tune-online] [--tune-budget N]
//!                    [--coalesce-window-ms N] [--max-batch N]
//!                    [--fast-math] [--no-simd]
//!                    [--chaos-seed N] [--chaos-rate R] [--profile OUT.json]
//!
//! polymg-cli loadgen [--addr H:P | --port N | --port-file PATH]
//!                    [--connections N] [--requests N] [--tenants N]
//!                    [--retries N] [--batch N] [--idle N]
//!                    [--scenario NAME[,NAME…]] [--mixed-precision]
//!                    [--fast-math] [--no-simd]
//!                    [--no-shutdown] [-o OUT.json]
//!
//! polymg-cli stats   [--addr H:P | --port N | --port-file PATH]
//!                    [--shutdown]
//! ```
//!
//! `--tune-online` starts the background tuner (DESIGN.md
//! §17): trials run only on idle capacity, winners land in the `--tuned`
//! FILE (which then need not exist yet — it is created on the first
//! winner). `--tune-budget` caps trials per pipeline fingerprint (0 = the
//! rank default, 25% of the §3.2.4 sweep). `stats` prints the live
//! `key value` counter text (one OP_STATS round-trip; `--shutdown` drains
//! the server afterwards) — the ci gate polls it to wait for tuner trials
//! without killing the server.
//!
//! `--fast-math` / `--no-simd` select the server's kernel tier (see
//! `DESIGN.md` §16). Loadgen takes the same flags because its verification
//! is bitwise: pass to loadgen exactly what the server was started with so
//! the in-process reference solves run the same tier.
//!
//! `--scenario NAME` (repeatable, or comma-separated: `varcoef`, `fmg`,
//! `rbgs`, `chebyshev`, `constant`) appends scenario requests to the load
//! mix — these ride the extended `SOLVE_SCENARIO` frame, carrying the
//! coefficient grid over the wire for `varcoef`. `--mixed-precision` adds
//! a constant-coefficient item that opts into the f32 smoothing tier (see
//! DESIGN.md §18). Both are verified bitwise like every other response.
//!
//! `serve` blocks until a client sends the drain-and-stop frame (which
//! `loadgen` does by default when the run ends), then writes the profile
//! JSON — request spans, queue-wait spans, server counters, plan-cache
//! counters — if `--profile` was given. `loadgen` exits non-zero unless the
//! run was clean: every response bitwise-verified or a typed error frame.

use std::path::Path;

use gmg_trace::Trace;
use polymg::{ChaosOptions, Scenario, TunedStore};

use crate::loadgen::{self, LoadgenOptions};
use crate::server::{self, summarize, ServerConfig};
use crate::tuner::TunerConfig;

/// The value after `flag` (at `args[*i]`, which advances past it),
/// parsed: a missing or unparsable value is an error naming the flag. The
/// one flag reader of `serve`, `loadgen`, `stats` and `polymg-cli`.
pub fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    *i += 1;
    let raw = args
        .get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value {raw:?}"))
}

/// Resolve `--addr`/`--port`/`--port-file` style arguments to `host:port`.
fn resolve_addr(
    addr: Option<String>,
    port: Option<u16>,
    port_file: Option<&str>,
) -> Result<String, String> {
    if let Some(a) = addr {
        return Ok(a);
    }
    if let Some(p) = port {
        return Ok(format!("127.0.0.1:{p}"));
    }
    if let Some(pf) = port_file {
        let text = std::fs::read_to_string(pf)
            .map_err(|e| format!("reading port file {pf} failed: {e}"))?;
        let port: u16 = text
            .trim()
            .parse()
            .map_err(|_| format!("port file {pf} does not contain a port"))?;
        return Ok(format!("127.0.0.1:{port}"));
    }
    Err("no server address: pass --addr, --port or --port-file".to_string())
}

/// `polymg-cli serve …` — returns the process exit code.
pub fn serve_main(args: &[String]) -> i32 {
    let mut cfg = ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut profile: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_rate = 0.01f64;
    let mut tuned_path: Option<String> = None;
    let mut tune_online = false;
    let mut tuner_cfg = TunerConfig::default();

    let mut i = 0;
    while i < args.len() {
        let r: Result<(), String> = (|| {
            match args[i].as_str() {
                "--addr" => cfg.addr = flag_value(args, &mut i, "--addr")?,
                "--port" => {
                    let p: u16 = flag_value(args, &mut i, "--port")?;
                    cfg.addr = format!("127.0.0.1:{p}");
                }
                "--port-file" => port_file = Some(flag_value(args, &mut i, "--port-file")?),
                "--shards" => cfg.shards = flag_value(args, &mut i, "--shards")?,
                "--workers" => cfg.workers = flag_value(args, &mut i, "--workers")?,
                "--queue-cap" => cfg.queue_capacity = flag_value(args, &mut i, "--queue-cap")?,
                "--tenant-cap" => cfg.tenant_cap = flag_value(args, &mut i, "--tenant-cap")?,
                "--engine-threads" => {
                    cfg.engine_threads = flag_value(args, &mut i, "--engine-threads")?
                }
                "--coalesce-window-ms" => {
                    // 0 is meaningful: opportunistic drain with no waiting.
                    let ms: u64 = flag_value(args, &mut i, "--coalesce-window-ms")?;
                    cfg.coalesce_window = Some(std::time::Duration::from_millis(ms));
                }
                "--max-batch" => cfg.max_batch = flag_value(args, &mut i, "--max-batch")?,
                "--tuned" => {
                    // Loading is deferred past the flag loop: with
                    // --tune-online a missing file is fine (the tuner
                    // creates it), without it is still an error.
                    tuned_path = Some(flag_value(args, &mut i, "--tuned")?);
                }
                "--tune-online" => tune_online = true,
                "--tune-budget" => tuner_cfg.budget = flag_value(args, &mut i, "--tune-budget")?,
                "--fast-math" => cfg.fast_math = true,
                "--no-simd" => cfg.simd = false,
                "--chaos-seed" => chaos_seed = Some(flag_value(args, &mut i, "--chaos-seed")?),
                "--chaos-rate" => chaos_rate = flag_value(args, &mut i, "--chaos-rate")?,
                "--profile" => profile = Some(flag_value(args, &mut i, "--profile")?),
                other => return Err(format!("unknown flag '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("serve: {e}");
            return 2;
        }
        i += 1;
    }
    cfg.chaos = chaos_seed.map(|s| ChaosOptions::new(s, chaos_rate));
    if let Some(path) = &tuned_path {
        if Path::new(path).exists() {
            match TunedStore::load(Path::new(path)) {
                Ok(store) => cfg.tuned = Some(store),
                Err(e) => {
                    eprintln!("serve: loading {path} failed: {e}");
                    return 2;
                }
            }
        } else if !tune_online {
            eprintln!("serve: loading {path} failed: no such file (use --tune-online to grow one)");
            return 2;
        }
    }
    if tune_online {
        tuner_cfg.store_path = tuned_path.as_ref().map(std::path::PathBuf::from);
        cfg.tuner = Some(tuner_cfg);
    }
    if profile.is_some() {
        let t = Trace::enabled();
        t.set_meta("tool", "gmg-server");
        cfg.trace = t;
    }

    let trace = cfg.trace.clone();
    let handle = match server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return 1;
        }
    };
    eprintln!("gmg-server listening on {}", handle.addr());
    if let Some(pf) = port_file {
        // Written after bind so a waiting client never reads a stale port.
        if let Err(e) = std::fs::write(&pf, format!("{}\n", handle.addr().port())) {
            eprintln!("serve: writing port file failed: {e}");
            return 1;
        }
    }

    let snap = handle.join();
    let _ = summarize(&snap, &mut std::io::stderr());
    let tp = gmg_trace::tile_plan::snapshot();
    eprintln!(
        "gmg-server: tile plans {} built ({} tiles, {} stage-tiles, {} bytes), {} bytes of worker scratch",
        tp.builds, tp.tiles, tp.stage_tiles, tp.plan_bytes, tp.scratch_bytes
    );
    if let Some(path) = profile {
        let rep = trace.report().expect("--profile enables the trace");
        if let Err(e) = std::fs::write(&path, rep.to_json()) {
            eprintln!("serve: writing profile failed: {e}");
            return 1;
        }
        eprintln!("wrote profile {path}");
    }
    0
}

/// `polymg-cli loadgen …` — returns the process exit code.
pub fn loadgen_main(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut port: Option<u16> = None;
    let mut port_file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut mixed = false;
    let mut opts = LoadgenOptions {
        // The CLI client drains the server when its run completes; tests
        // driving a shared in-process server opt out instead.
        shutdown: true,
        ..LoadgenOptions::default()
    };

    let mut i = 0;
    while i < args.len() {
        let r: Result<(), String> = (|| {
            match args[i].as_str() {
                "--addr" => addr = Some(flag_value(args, &mut i, "--addr")?),
                "--port" => port = Some(flag_value(args, &mut i, "--port")?),
                "--port-file" => port_file = Some(flag_value(args, &mut i, "--port-file")?),
                "--connections" => opts.connections = flag_value(args, &mut i, "--connections")?,
                "--requests" => opts.requests_per_conn = flag_value(args, &mut i, "--requests")?,
                "--tenants" => opts.tenants = flag_value(args, &mut i, "--tenants")?,
                "--retries" => opts.retries = flag_value(args, &mut i, "--retries")?,
                "--batch" => opts.batch = flag_value(args, &mut i, "--batch")?,
                "--idle" => opts.idle = flag_value(args, &mut i, "--idle")?,
                "--backoff-seed" => opts.backoff_seed = flag_value(args, &mut i, "--backoff-seed")?,
                "--scenario" => {
                    let names: String = flag_value(args, &mut i, "--scenario")?;
                    for name in names.split(',') {
                        scenarios.push(Scenario::parse(name.trim()).map_err(|e| e.to_string())?);
                    }
                }
                "--mixed-precision" => mixed = true,
                "--fast-math" => opts.fast_math = true,
                "--no-simd" => opts.simd = false,
                "--no-shutdown" => opts.shutdown = false,
                "--shutdown" => opts.shutdown = true,
                "-o" => out = Some(flag_value(args, &mut i, "-o")?),
                other => return Err(format!("unknown flag '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("loadgen: {e}");
            return 2;
        }
        i += 1;
    }
    opts.addr = match resolve_addr(addr, port, port_file.as_deref()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return 2;
        }
    };
    if !scenarios.is_empty() || mixed {
        opts.mix.extend(loadgen::scenario_mix(&scenarios, mixed));
    }

    let report = match loadgen::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return 1;
        }
    };
    eprintln!("{}", report.summary());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("loadgen: writing {path} failed: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }
    if report.is_clean() {
        0
    } else {
        eprintln!("loadgen: run was NOT clean");
        1
    }
}

/// `polymg-cli stats …` — one OP_STATS round-trip, printing the server's
/// live `key value` counter text to stdout (scripts grep it; the ci gate
/// polls it to wait for online-tuner trials). `--shutdown` additionally
/// drains and stops the server before returning.
pub fn stats_main(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut port: Option<u16> = None;
    let mut port_file: Option<String> = None;
    let mut shutdown = false;

    let mut i = 0;
    while i < args.len() {
        let r: Result<(), String> = (|| {
            match args[i].as_str() {
                "--addr" => addr = Some(flag_value(args, &mut i, "--addr")?),
                "--port" => port = Some(flag_value(args, &mut i, "--port")?),
                "--port-file" => port_file = Some(flag_value(args, &mut i, "--port-file")?),
                "--shutdown" => shutdown = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("stats: {e}");
            return 2;
        }
        i += 1;
    }
    let addr = match resolve_addr(addr, port, port_file.as_deref()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stats: {e}");
            return 2;
        }
    };
    let run = || -> Result<(), String> {
        let mut s = std::net::TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        crate::protocol::write_frame(&mut s, crate::protocol::OP_STATS, b"")
            .map_err(|e| format!("send: {e}"))?;
        let frame = crate::protocol::read_frame(&mut s).map_err(|e| format!("recv: {e:?}"))?;
        if frame.opcode != crate::protocol::OP_STATS_OK {
            return Err(format!("unexpected response opcode {:#04x}", frame.opcode));
        }
        print!("{}", String::from_utf8_lossy(&frame.payload));
        if shutdown {
            crate::protocol::write_frame(&mut s, crate::protocol::OP_SHUTDOWN, b"")
                .map_err(|e| format!("send shutdown: {e}"))?;
            let _ = crate::protocol::read_frame(&mut s); // ack after drain
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("stats: {e}");
            1
        }
    }
}
