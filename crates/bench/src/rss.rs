//! Resident-set-size probes for the node-scaling benchmarks.
//!
//! Reads `/proc/self/status` (Linux): `VmRSS` is the current resident set,
//! `VmHWM` the high-water mark over the process lifetime.  On platforms
//! without procfs both probes return `None`.

/// Current resident set size in MiB, if the platform exposes it.
pub fn current_rss_mb() -> Option<f64> {
    proc_status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

/// Peak resident set size (high-water mark) in MiB, if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Parse one `key:  <n> kB` line out of `/proc/self/status`.
fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let number = rest.trim().trim_end_matches("kB").trim();
            return number.parse::<f64>().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn probes_report_plausible_sizes_on_linux() {
        let current = current_rss_mb().expect("procfs available on linux");
        let peak = peak_rss_mb().expect("procfs available on linux");
        // A test process occupies at least a few hundred KiB and (far) less
        // than a terabyte; the peak can never undercut the present.
        assert!(current > 0.1, "current rss {current} MiB");
        assert!(peak + 1e-9 >= current, "peak {peak} < current {current}");
        assert!(peak < 1_000_000.0, "peak {peak} MiB implausible");
    }
}
