//! What the run reports about the host and its own process.

/// A field of `/proc/self/status`, if the platform has one.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(key)
            .map(|v| v.trim_start_matches(':').trim().to_string())
    })
}

/// The process's peak resident set (`VmHWM`) in MB; the in-process server
/// is included. 0 where the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (what `nproc` prints), from the
/// affinity list `Cpus_allowed_list` such as `0-1,4`.
pub fn nproc() -> Option<usize> {
    let list = status_field("Cpus_allowed_list")?;
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
