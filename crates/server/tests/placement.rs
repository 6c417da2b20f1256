//! Where the server's threads run: one CPU per worker, the event loop on
//! its first worker's CPU, nothing pinned when a worker owns an engine pool.
//! Read back from `/proc/self/task`, the kernel's own account. One test
//! function: thread names are per process, so the servers run one after
//! the other.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use gmg_server::{start, ServerConfig, ServerHandle};

/// `Cpus_allowed_list` of every live thread of this process whose name
/// starts with `prefix` (the kernel keeps 15 bytes of a thread name).
fn masks_of(prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.unwrap().path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between readdir and open
        };
        if !name.starts_with(prefix) {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        if let Some(line) = status.lines().find(|l| l.starts_with("Cpus_allowed_list:")) {
            out.push(line["Cpus_allowed_list:".len()..].trim().to_string());
        }
    }
    out
}

/// Threads pin themselves first thing, but `start` returns before they
/// have run: wait until every one of the server's `want` loop and worker
/// threads shows the same kind of mask (`pinned` or not), then return the
/// (loop masks, worker masks).
fn settled(want_workers: usize, pinned: bool) -> (Vec<String>, Vec<String>) {
    let single = |m: &String| !m.contains(',') && !m.contains('-');
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (loops, workers) = (masks_of("gmg-server-shar"), masks_of("gmg-server-work"));
        let all = loops.iter().chain(&workers);
        if loops.len() == 1
            && workers.len() == want_workers
            && all.clone().all(|m| single(m) == pinned)
        {
            return (loops, workers);
        }
        assert!(
            Instant::now() < deadline,
            "threads never settled: loops {loops:?}, workers {workers:?}, pinned {pinned}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Shut the server down and check its threads are gone. A joined thread's
/// `/proc/self/task` entry can outlive `JoinHandle::join` by a few hundred
/// microseconds (the kernel wakes the joiner before it unhashes the task),
/// so poll with a deadline; a thread that really leaked still fails.
fn stop(handle: ServerHandle) {
    handle.begin_shutdown();
    handle.join();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !masks_of("gmg-server-").is_empty() {
        assert!(Instant::now() < deadline, "join leaves no server thread");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn workers_own_a_cpu_each_and_the_loop_shares_the_first() {
    let me = masks_of("").into_iter().next().expect("this thread");
    if !me.contains(',') && !me.contains('-') {
        eprintln!("one CPU allowed ({me}): nothing to place, nothing to test");
        return;
    }

    let handle = start(ServerConfig {
        shards: 1,
        workers: 2,
        engine_threads: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let (loops, workers) = settled(2, true);
    let distinct: BTreeSet<&String> = workers.iter().collect();
    assert_eq!(distinct.len(), 2, "two workers, two CPUs: {workers:?}");
    assert!(
        workers.contains(&loops[0]),
        "the event loop ({loops:?}) rides with a worker ({workers:?})"
    );
    // placing the server's threads did not touch the caller's
    assert_eq!(masks_of("").into_iter().next().unwrap(), me);
    stop(handle);

    // a worker that fans out to an engine pool keeps the whole mask, or
    // its pool threads would all inherit one CPU
    let handle = start(ServerConfig {
        shards: 1,
        workers: 1,
        engine_threads: 2,
        ..ServerConfig::default()
    })
    .expect("start");
    let (loops, workers) = settled(1, false);
    assert_eq!(
        (loops[0].as_str(), workers[0].as_str()),
        (me.as_str(), me.as_str())
    );
    stop(handle);
}
