//! The benchmark's clock and the process's own CPU and memory readings.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call; one monotonic clock shared by every
/// thread, so a due time stamped by the producer thread can be compared
/// with the consumer thread's "now".
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until the shared clock reads `deadline_ns`.
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// Kernel clock ticks per second in `/proc/self/stat` (USER_HZ, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time of the whole process (all threads, exited
/// ones included) in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("parse /proc/self/stat") * (1_000_000 / TICKS_PER_SEC)
}

/// utime + stime: fields 14 and 15, counted after the parenthesised
/// command name (which may itself hold spaces and parentheses).
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*` line of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set so far.
pub fn vm_hwm_mb() -> f64 {
    status_mb("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 9 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(200));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn own_readings_are_sane() {
        assert!(vm_hwm_mb() > 1.0);
        let t0 = now_ns();
        assert!(now_ns() >= t0);
    }
}
