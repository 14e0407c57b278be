//! The host's CPU time accounting, for spotting hypervisor steal.
//!
//! On a shared virtual machine the hypervisor can run other guests on this
//! guest's CPUs ("steal"). For the length of such an episode every figure
//! of the benchmark slows, whatever the program does. The kernel counts
//! stolen time in `/proc/stat`; the benchmark reads it with each answer so
//! that it can tell which stretches of a run the host was taken away in.

/// Cumulative CPU time of the whole machine, in clock ticks over all CPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// Ticks of every kind, steal included.
    pub total: u64,
}

impl CpuTicks {
    /// The machine's ticks now; all zero where `/proc/stat` cannot be read.
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat").ok().and_then(|s| Self::parse(&s)).unwrap_or_default()
    }

    /// Parse the aggregate `cpu` line of a `/proc/stat` text: user, nice,
    /// system, idle, iowait, irq, softirq, steal, … (guest time is already
    /// inside user and nice, so it is not added again).
    pub fn parse(stat: &str) -> Option<Self> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let v: Vec<u64> = line.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
        let steal = *v.get(7)?;
        Some(CpuTicks { steal, total: v.iter().take(8).sum() })
    }

    /// The share of the ticks since `earlier` that were stolen; 0 when no
    /// ticks passed.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}
