//! Process counters read from `/proc`: peak resident set and CPU time,
//! for the benchmark process itself or the daemon it spawned.

/// `VmHWM` (peak resident set) of process `pid` in MB (10^6 bytes).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// User plus system CPU seconds consumed so far by process `pid`
/// (all threads), from `/proc/<pid>/stat` in the kernel's fixed
/// 100 Hz `USER_HZ` units.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime and stime fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`:
/// time the hypervisor ran other guests on the host's vCPUs, out of
/// all CPU time. Reported beside the results because stolen time
/// lengthens wall-clock metrics without any change in the program.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_counters_are_readable_and_grow() {
        let rss = peak_rss_mb("self").expect("VmHWM");
        assert!(rss > 0.0);
        let before = cpu_seconds("self").expect("stat");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds("self").expect("stat") > before);
        let (steal, total) = steal_jiffies().expect("/proc/stat");
        assert!(steal <= total && total > 0);
    }
}
