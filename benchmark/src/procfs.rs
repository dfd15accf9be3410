//! Process accounting read from `/proc/<pid>/{stat,status}` — how the
//! benchmark sees, from outside, what a node process cost.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc, which
/// the container does not vendor; Linux has fixed the user-visible value
/// at 100 on every architecture this runs on (README, host assumptions).
pub const CLK_TCK: f64 = 100.0;

/// Cumulative counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User + system CPU time of all threads, living and reaped, in µs.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches, summed over the threads
    /// alive at the sample (a reaped thread takes its count with it).
    pub ctx_switches: u64,
    /// Peak resident set size, KiB.
    pub rss_peak_kib: u64,
}

impl ProcSample {
    /// Reads `pid`; `None` once the process is gone.
    pub fn read(pid: u32) -> Option<ProcSample> {
        let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let (_, rss_peak_kib) = parse_status(&status);
        // `status` counts switches per task, so walk the thread group.
        let ctx_switches = fs::read_dir(format!("/proc/{pid}/task"))
            .ok()?
            .filter_map(|entry| fs::read_to_string(entry.ok()?.path().join("status")).ok())
            .map(|task| parse_status(&task).0)
            .sum();
        Some(ProcSample { cpu_us: parse_stat_cpu_us(&stat)?, ctx_switches, rss_peak_kib })
    }

    pub fn read_self() -> Option<ProcSample> {
        ProcSample::read(std::process::id())
    }

    /// What the process(es) used since `before`: CPU and switches are
    /// differences, the memory peak is the later sample's.
    pub fn since(self, before: ProcSample) -> ProcSample {
        ProcSample {
            cpu_us: self.cpu_us - before.cpu_us,
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
            rss_peak_kib: self.rss_peak_kib,
        }
    }

    /// Sum over several processes (CPU and switches add; RSS peaks add,
    /// as the processes are resident side by side).
    pub fn read_all(pids: &[u32]) -> ProcSample {
        let mut total = ProcSample::default();
        for sample in pids.iter().filter_map(|&pid| ProcSample::read(pid)) {
            total.cpu_us += sample.cpu_us;
            total.ctx_switches += sample.ctx_switches;
            total.rss_peak_kib += sample.rss_peak_kib;
        }
        total
    }
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in µs.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e6 / CLK_TCK)
}

/// `(context switches, VmHWM KiB)` out of a `/proc/<pid>/status` text;
/// missing lines count as zero (kernel threads have no `Vm*` lines).
pub fn parse_status(status: &str) -> (u64, u64) {
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    (field("voluntary_ctxt_switches") + field("nonvoluntary_ctxt_switches"), field("VmHWM"))
}

/// Cumulative `(steal, all)` clock ticks of the machine's CPUs, from the
/// `cpu` line of `/proc/stat`: the share of a run the hypervisor gave this
/// VM's CPUs to somebody else. Not a metric — a remark on stderr that says
/// how far a run's timings are the host's.
pub fn host_ticks() -> Option<(u64, u64)> {
    parse_host_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

/// `user nice system idle iowait irq softirq steal` are the first eight
/// fields of the `cpu` line; the two guest fields after them are already
/// counted in `user` and `nice`.
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let mut fields = stat.lines().next()?.strip_prefix("cpu ")?.split_ascii_whitespace();
    let ticks: Vec<u64> = fields.by_ref().take(8).filter_map(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ticks_are_the_first_eight_fields() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_host_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_ticks("intr 5\n"), None);
        assert!(host_ticks().is_some_and(|(steal, all)| steal <= all));
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 85 0 0 0 37 5 0 0 20 0 3 0 200115 1 1";
        assert_eq!(parse_stat_cpu_us(stat), Some(420_000.0));
        assert_eq!(parse_stat_cpu_us("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_us("garbage"), None);
    }

    #[test]
    fn status_fields_are_summed_and_default_to_zero() {
        let status = "Name:\tnode\nVmHWM:\t    1684 kB\nVmRSS:\t 900 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status(status), (15, 1684));
        assert_eq!(parse_status("Name:\tkthreadd\n"), (0, 0));
    }

    #[test]
    fn own_process_is_readable() {
        let sample = ProcSample::read_self().expect("/proc/self readable");
        assert!(sample.rss_peak_kib > 0);
        assert!(ProcSample::read(u32::MAX).is_none());
    }
}
