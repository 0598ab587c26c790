//! The environment block: what the numbers were measured on.

use crate::json::Json;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, type, size)` of each cache of cpu0, e.g. `(2, "Unified", "4096K")`.
fn caches() -> Vec<(u32, String, String)> {
    (0..8)
        .filter_map(|i| {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            Some((
                read(&format!("{base}/level"))?.parse().ok()?,
                read(&format!("{base}/type"))?,
                read(&format!("{base}/size"))?,
            ))
        })
        .collect()
}

/// Size of cpu0's L2 in MiB (4 when the kernel does not say).
#[must_use]
pub fn l2_mib() -> f64 {
    caches()
        .into_iter()
        .find(|(level, _, _)| *level == 2)
        .and_then(|(_, _, size)| size.strip_suffix('K')?.parse::<f64>().ok())
        .map_or(4.0, |kib| kib / 1024.0)
}

/// First line a command prints, or "unknown". The command has ended, and
/// been waited for, when this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// State-vector bytes of each workload's widest register.
#[must_use]
pub fn state_bytes(workload: &str) -> u64 {
    let qubits = match workload {
        "deep_incache" => 17,
        "wide_stream" => 21,
        "scaleout_fine" | "scaleout_remap" => crate::gen::SCALEOUT_SHAPE.0,
        _ => 17, // serve_mixed: w_state(17) is its widest one-shot
    };
    16u64 << qubits
}

#[must_use]
pub fn block(seed: u64) -> Json {
    let cache_list = caches()
        .into_iter()
        .map(|(level, kind, size)| Json::str(format!("L{level} {kind} {size}")))
        .collect();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("caches", Json::Arr(cache_list)),
        (
            "state_bytes",
            Json::obj(
                crate::spec::WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(state_bytes(w.name) as f64))),
            ),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        (
            "load_avg_1m",
            read("/proc/loadavg")
                .and_then(|l| l.split_whitespace().next()?.parse().ok())
                .map_or(Json::Null, Json::Num),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_names_every_workload_and_field() {
        let b = block(9);
        for key in [
            "nproc",
            "cpu_model",
            "caches",
            "state_bytes",
            "rustc",
            "git_commit",
            "seed",
            "load_avg_1m",
        ] {
            assert!(b.get(key).is_some(), "{key}");
        }
        assert_eq!(b.get("state_bytes").unwrap().as_obj().unwrap().len(), 5);
        assert_eq!(state_bytes("wide_stream"), 32 << 20);
        assert_eq!(state_bytes("deep_incache"), 2 << 20);
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
    }
}
