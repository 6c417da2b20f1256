//! Host fingerprint and the single-thread copy-bandwidth probe. Every
//! result file carries the fingerprint; `check` refuses to compare files
//! from different hosts.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub cores: usize,
    pub isa: String,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
    pub ram_bytes: u64,
    pub git_rev: String,
    pub rustc: String,
}

/// `"2048K"` / `"32M"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// `(level, bytes)` of cpu0's data and unified caches, from sysfs.
fn cache_levels() -> Vec<(u32, u64)> {
    let mut levels = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(l), Some(b)) = (level.trim().parse(), parse_size(&size)) {
            levels.push((l, b));
        }
    }
    levels
}

fn isa() -> String {
    let mut s = std::env::consts::ARCH.to_string();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                s.push('+');
                s.push_str(name);
            }
        }
    }
    s
}

/// HEAD of the repository this package sits in, read from `.git` without
/// running git (a source checkout without `.git` reports "unknown").
fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Ok(head) = std::fs::read_to_string(format!("{git}/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!("{git}/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint() -> Fingerprint {
    let caches = cache_levels();
    let level = |l: u32| caches.iter().find(|c| c.0 == l).map_or(0, |c| c.1);
    let ram_bytes = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb << 10);
    // a container may be allowed less than the machine has
    let cgroup_bytes = [
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ]
    .iter()
    .filter_map(|p| std::fs::read_to_string(p).ok()?.trim().parse::<u64>().ok())
    .min()
    .unwrap_or(u64::MAX);
    let ram_bytes = ram_bytes.min(cgroup_bytes);
    Fingerprint {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa: isa(),
        l2_bytes: level(2),
        llc_bytes: caches.iter().max_by_key(|c| c.0).map_or(0, |c| c.1),
        ram_bytes,
        git_rev: git_rev(),
        rustc: rustc_version(),
    }
}

/// Result of the copy probe: both sizes are printed with it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CopyProbe {
    pub array_bytes: u64,
    /// `None` when two arrays of `array_bytes` would exceed a quarter of
    /// RAM: then only computed byte counts are reported, and no ratio to
    /// bandwidth.
    pub gbps: Option<f64>,
}

const COPY_REPS: usize = 3;

/// Single-thread `copy_from_slice` between two arrays of 4 × LLC each
/// (read + write traffic counted, best of three after a first pass that
/// faults the pages in). On the reference host nearly all of the probe's
/// ~8 s is that first touch of 2 GiB of fresh guest memory; asking for huge
/// pages (`MADV_HUGEPAGE`) was tried and did not shorten it.
pub fn copy_probe(fp: &Fingerprint) -> CopyProbe {
    let array_bytes = (4 * fp.llc_bytes).max(64 << 20);
    if fp.ram_bytes == 0 || 2 * array_bytes > fp.ram_bytes / 4 {
        return CopyProbe {
            array_bytes,
            gbps: None,
        };
    }
    let len = (array_bytes / 8) as usize;
    let src = vec![1.5f64; len];
    let mut dst = vec![0.0f64; len];
    dst.copy_from_slice(&src);
    let mut best = f64::INFINITY;
    for _ in 0..COPY_REPS {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    CopyProbe {
        array_bytes,
        gbps: Some(2.0 * array_bytes as f64 / best / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn probe_is_skipped_when_it_would_not_fit() {
        let fp = Fingerprint {
            cores: 1,
            isa: String::new(),
            l2_bytes: 0,
            llc_bytes: 1 << 30,
            ram_bytes: 8 << 30,
            git_rev: String::new(),
            rustc: String::new(),
        };
        let p = copy_probe(&fp);
        assert_eq!(p.array_bytes, 4 << 30);
        assert_eq!(p.gbps, None);
    }
}
