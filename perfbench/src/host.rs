//! The host record: `/proc` readers for CPU time and steal, the CPU model,
//! and the source revision.

use std::path::Path;

/// Clock ticks per second of `/proc` CPU counters. Linux fixes `USER_HZ`
/// at 100 in its user ABI on every architecture the workspace builds for.
const USER_HZ: f64 = 100.0;

/// Steal ticks summed over all CPUs: the 8th value of the aggregate `cpu`
/// line of `/proc/stat`.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// User + system ticks of a process from its `/proc/<pid>/stat` line
/// (fields 14 and 15). The command name may hold spaces and parentheses,
/// so fields are counted after the last `)`.
pub fn parse_cpu_ticks(pid_stat: &str) -> Option<u64> {
    let rest = &pid_stat[pid_stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// CPU steal seconds of the whole machine since boot (0 if unreadable).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// User + system CPU seconds of this process, all threads (steal is not
/// charged to a process).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the sources came from, when they sit in a git checkout;
/// `"unknown"` otherwise (an exported tree carries no revision).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(String::from)
            }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    rev.unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  87160 0 21507 702580 263 0 3286 18210 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(18210));
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let line = "4242 (my (odd) prog) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    123 45 0 0 20 0 3 0 100 1000 50";
        assert_eq!(parse_cpu_ticks(line), Some(168));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn cpu_model_reads_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Test CPU @ 2.0GHz"));
        assert_eq!(parse_cpu_model(""), None);
    }

    #[test]
    fn live_proc_readers_return_plausible_values() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_s() >= 0.0);
        assert!(steal_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
