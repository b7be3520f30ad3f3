//! Process CPU time, peak memory and the host fingerprint, read from
//! `/proc` (Linux only; no libc dependency).

use std::fs;

/// Kernel clock ticks per second as exposed in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all
/// threads included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string, or "unknown".
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
