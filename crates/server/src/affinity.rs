//! Thread placement for the server's own threads.
//!
//! A request crosses three threads — client → event loop → worker → event
//! loop → client — and every hop is a wake-up. Left to the scheduler, the
//! wake-ups decide placement: a wakee lands next to its waker unless
//! another CPU looks idle, and on a virtualised host a CPU that has been
//! idle for longer than the hypervisor's halt-poll window does not look
//! idle any more. A shard then has two self-sustaining states — event loop
//! and worker stacked on one CPU, or one CPU each — and which one a
//! process falls into is decided by its first wake-ups and by how busy the
//! host is. On the 2-CPU reference host the same binary, unpinned, served
//! 20 000 `serve_batch` grids/s in twelve runs in a row and 24 000–31 000
//! in the twelve before: steady inside a run, a coin toss between runs.
//!
//! So [`start`](crate::server::start) says where its threads belong
//! instead of leaving it to the coin. Workers are CPU-bound and get **one
//! CPU each**, dealt round-robin over the CPUs the process may run on
//! ([`allowed_cpus`]); a shard's **event loop rides with its first
//! worker** ([`cpu_for`]). The loop is a few percent of a worker's time
//! and mostly runs exactly when that worker waits for it, it hands the
//! worker grids it has just decoded into that CPU's cache, and a CPU of
//! its own would be a CPU no worker gets. Each thread pins itself with
//! [`pin_current`] before it does anything else. Only event loops and
//! workers are placed; clients and the tuner stay with the scheduler, and
//! a process confined to one CPU pins nothing. A supervisor that runs
//! several servers on one machine gives each its own CPU set (`taskset`,
//! a cpuset cgroup) — the mask this module reads.
//!
//! Only the two raw calls are declared; `std` already links libc, so this
//! adds no dependency (same discipline as `shim-epoll`).

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending. Empty when the
/// kernel refuses the query (more CPUs than the mask holds, a sandbox):
/// the caller then pins nothing.
pub(crate) fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The CPU of `worker` (0-based) of `shard` when every shard runs `workers`
/// of them — and, with `worker == 0`, of the shard's event loop. `None`
/// when there is no choice to make.
pub(crate) fn cpu_for(
    cpus: &[usize],
    shard: usize,
    workers: usize,
    worker: usize,
) -> Option<usize> {
    (cpus.len() > 1).then(|| cpus[(shard * workers + worker) % cpus.len()])
}

/// Restrict the calling thread to `cpu`. A refusal (the CPU went offline,
/// the mask shrank since it was read) leaves the thread where it was:
/// placement is a performance matter, never a correctness one.
pub(crate) fn pin_current(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_sees_only_its_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "the test process runs somewhere");
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
        // on its own thread: the test harness's threads keep their mask
        let last = *cpus.last().unwrap();
        let seen = std::thread::spawn(move || {
            assert!(pin_current(last));
            allowed_cpus()
        })
        .join()
        .unwrap();
        assert_eq!(seen, vec![last]);
        assert_eq!(allowed_cpus(), cpus, "pinning is per thread");
    }

    #[test]
    fn workers_get_a_cpu_each_and_the_loop_rides_with_the_first() {
        let cpus = [2, 3, 6, 7];
        // two shards of two workers fill four CPUs, no two workers share
        let placed: Vec<_> = (0..2)
            .flat_map(|s| (0..2).map(move |w| cpu_for(&cpus, s, 2, w).unwrap()))
            .collect();
        assert_eq!(placed, cpus);
        // the event loop of shard 1 is where its worker 0 is
        assert_eq!(cpu_for(&cpus, 1, 2, 0), Some(6));
        // more workers than CPUs wrap around; one CPU (or none read) pins nothing
        assert_eq!(cpu_for(&cpus, 2, 2, 1), Some(3));
        assert_eq!(cpu_for(&[5], 0, 1, 0), None);
        assert_eq!(cpu_for(&[], 0, 1, 0), None);
    }

    #[test]
    fn a_cpu_beyond_the_mask_is_refused_and_changes_nothing() {
        let before = allowed_cpus();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!pin_current(MASK_WORDS * 64));
                assert_eq!(allowed_cpus(), before);
            });
        });
    }
}
