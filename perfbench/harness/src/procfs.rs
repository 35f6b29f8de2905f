//! Process figures from `/proc`, with no dependency beyond `std`.

use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, which
/// Linux fixes at 100 in its user-space ABI).
const USER_HZ: u64 = 100;

/// User plus system CPU time of the whole process, exited threads
/// included (`utime` + `stime` of `/proc/self/stat`).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it do not.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // Fields 14 and 15 of stat(5), counted from `state` (field 3) here.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 1_000 / USER_HZ)
}

/// Time this process's live threads spent runnable but waiting for a CPU
/// (second field of each `/proc/self/task/*/schedstat`).
pub fn runqueue_wait() -> Duration {
    let mut total_ns = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            // A thread may exit between listing and reading: skip it.
            if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
                total_ns += s
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    Duration::from_nanos(total_ns)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
        let _ = runqueue_wait();
    }
}
