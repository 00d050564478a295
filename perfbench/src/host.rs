//! Host facts printed next to every result, so a noisy run can be
//! explained: core count, CPU steal and peak resident memory.

use std::fs;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU jiffies from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Sum of every field of the line.
    pub total: u64,
    /// The `steal` field: time the hypervisor ran someone else.
    pub steal: u64,
}

impl CpuTimes {
    /// Reads the current counters; zeros where `/proc/stat` is unreadable.
    pub fn now() -> Self {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse_cpu_line))
            .unwrap_or_default()
    }

    /// Steal jiffies over total jiffies since `earlier` (0 when no time
    /// passed or the counters are unavailable).
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

fn parse_cpu_line(line: &str) -> CpuTimes {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal, then guest time
    // that `user`/`nice` already include.
    CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_parses_steal() {
        let t = parse_cpu_line("cpu  10 0 5 80 1 0 0 4 0 0");
        assert_eq!(t.total, 100);
        assert_eq!(t.steal, 4);
        let later = CpuTimes {
            total: 200,
            steal: 14,
        };
        assert!((later.steal_frac_since(&t) - 0.1).abs() < 1e-12);
    }
}
