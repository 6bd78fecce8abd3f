//! Parsers for the `/proc` files the benchmark reads from outside the
//! cluster: process CPU time, write syscalls, memory and thread counts, and
//! the host's steal time.
//!
//! Each parser takes the file's text so the tests can feed it fixed input;
//! the `read_*` wrappers read the live files.

use std::fs;

/// Clock ticks per second of the CPU times in `/proc/*/stat`. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports to user space.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU ticks of the whole thread group, from the text of
/// `/proc/self/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself hold spaces and parentheses, so the fields are counted from the
/// last `)`: `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Bytes and calls written by the process, from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// `wchar`: bytes passed to `write`-family system calls.
    pub write_bytes: u64,
    /// `syscw`: number of `write`-family system calls.
    pub write_calls: u64,
}

/// Parses the text of `/proc/self/io`.
pub fn parse_io(io: &str) -> Option<IoCounters> {
    Some(IoCounters {
        write_bytes: field_value(io, "wchar")?,
        write_calls: field_value(io, "syscw")?,
    })
}

/// The first number after `key:` in a `key: value [unit]` file such as
/// `/proc/self/status` or `/proc/self/io`.
pub fn field_value(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        (name.trim() == key).then(|| rest.split_whitespace().next()?.parse().ok())?
    })
}

/// Steal and total ticks of all CPUs of the host, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Ticks the hypervisor gave to other guests while this one wanted to run.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal. Guest
    /// time is already counted in user and nice.
    pub total: u64,
}

impl HostCpu {
    /// Share of the host's CPU time stolen between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 8 {
        return None;
    }
    Some(HostCpu {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU seconds used by this process so far (all threads).
pub fn read_cpu_secs() -> f64 {
    let ticks = parse_cpu_ticks(&read("/proc/self/stat")).expect("/proc/self/stat has utime/stime");
    ticks as f64 / TICKS_PER_SEC
}

/// This process's write counters.
pub fn read_io() -> IoCounters {
    parse_io(&read("/proc/self/io")).expect("/proc/self/io has wchar and syscw")
}

/// The host's CPU tick counters.
pub fn read_host_cpu() -> HostCpu {
    parse_host_cpu(&read("/proc/stat")).expect("/proc/stat has a cpu line")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn read_peak_rss_mib() -> f64 {
    let kib = field_value(&read("/proc/self/status"), "VmHWM").expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Number of threads in this process now.
pub fn read_threads() -> u64 {
    field_value(&read("/proc/self/status"), "Threads").expect("Threads in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fields 3..=15 of a real line; utime = 1500, stime = 250.
    const TAIL: &str = "S 1 4242 4242 0 -1 4194560 2021 0 0 0 1500 250 0 0 20 0 9 0";

    #[test]
    fn cpu_ticks_count_fields_from_the_last_parenthesis() {
        assert_eq!(
            parse_cpu_ticks(&format!("4242 (perfbench) {TAIL}")),
            Some(1750)
        );
        assert_eq!(
            parse_cpu_ticks(&format!("4242 (my bench) {TAIL}")),
            Some(1750)
        );
        assert_eq!(
            parse_cpu_ticks(&format!("4242 (a) b (c)) {TAIL}")),
            Some(1750)
        );
        assert_eq!(
            parse_cpu_ticks(&format!("4242 (x 1 2 3) {TAIL}")),
            Some(1750)
        );
    }

    #[test]
    fn cpu_ticks_reject_truncated_lines() {
        assert_eq!(parse_cpu_ticks("4242 (perfbench) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn io_counters_read_wchar_and_syscw() {
        let io = "rchar: 3980\nwchar: 213\nsyscr: 9\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 4096\n";
        assert_eq!(
            parse_io(io),
            Some(IoCounters {
                write_bytes: 213,
                write_calls: 4
            })
        );
        assert_eq!(parse_io("rchar: 1\n"), None);
    }

    #[test]
    fn status_fields_ignore_units_and_similar_names() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nThreads:\t17\n";
        assert_eq!(field_value(status, "VmHWM"), Some(20480));
        assert_eq!(field_value(status, "Threads"), Some(17));
        assert_eq!(field_value(status, "VmRSS"), None);
    }

    #[test]
    fn host_cpu_takes_steal_from_the_aggregate_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        let cpu = parse_host_cpu(stat).unwrap();
        assert_eq!(
            cpu,
            HostCpu {
                steal: 35,
                total: 1000
            }
        );
        let later = HostCpu {
            steal: 45,
            total: 1100,
        };
        assert!((later.steal_share_since(&cpu) - 0.1).abs() < 1e-12);
        assert_eq!(cpu.steal_share_since(&cpu), 0.0);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
    }
}
