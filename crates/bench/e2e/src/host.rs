//! Facts about the host and the process, recorded next to every number
//! (ROADMAP: a number names the host that produced it).

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line — the
/// metric is part of the contract, so a host without it cannot run the
/// benchmark.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One `key=value` line of host facts. `rustc` and `commit` come from
/// `run.sh` through the environment (the binary cannot see either).
pub fn facts_line(threads: usize) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "host: nproc={} threads={threads} rustc=\"{}\" commit={}",
        nproc(),
        env("ROTARY_E2E_RUSTC"),
        env("ROTARY_E2E_COMMIT"),
    )
}
