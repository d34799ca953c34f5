//! The environment block printed and stored with every run, and the
//! `/proc` readers behind `peak_rss_mb` and `noise.steal_share`.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Engine parallelism every workload pins (`demon_types::parallel`
/// global and every explicit `Parallelism` argument).
pub const ENGINE_THREADS: usize = 1;

/// The directory the benchmark writes to: `benchmark/out` of the
/// checkout the command runs in. Falls back to the crate's own
/// directory when run from somewhere else.
pub fn out_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for candidate in [cwd.join("benchmark"), cwd.clone()] {
        let manifest = candidate.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|m| m.contains("name = \"demonbench\"")) {
            return candidate.join("out");
        }
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// CPUs online, as `nproc` counts them.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The filesystem type `path` lives on (longest mount-point prefix in
/// `/proc/mounts`) — fsync cost is a property of it.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
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

/// The attribution block: which machine, which settings, which inputs.
pub fn block(seed: u64, client_threads: usize, ops_per_segment: &Value) -> Value {
    json!({
        "nproc": nproc(),
        "available_parallelism": available_parallelism(),
        "engine_threads": ENGINE_THREADS,
        "client_threads": client_threads,
        "out_filesystem": filesystem_of(&out_dir()),
        "rustc": rustc_version(),
        "ops_per_segment": ops_per_segment.clone(),
        "seed": seed,
    })
}

/// The process's high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// The share of CPU time the hypervisor withheld between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}
