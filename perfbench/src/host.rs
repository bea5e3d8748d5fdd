//! What the benchmark reads about its host: peak RSS from `/proc` and the
//! metadata printed with every result.

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    status_bytes(status, "VmHWM:")
}

/// The value of a `<key> <n> kB` line of a `/proc/<pid>/status` document,
/// in bytes.
fn status_bytes(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?;
        let mut fields = rest.split_whitespace();
        let kb: u64 = fields.next()?.parse().ok()?;
        match fields.next() {
            Some("kB") => Some(kb * 1024),
            _ => None,
        }
    })
}

/// Peak RSS in bytes of process `pid` (`None`: this process).
pub fn vm_hwm(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    parse_vm_hwm(&std::fs::read_to_string(path).ok()?)
}

/// Current RSS in bytes of this process.
pub fn vm_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_bytes(&status, "VmRSS:")
}

/// Resets this process's peak RSS to its current RSS (writing `5` to
/// `/proc/self/clear_refs`). Returns whether the kernel accepted it; when
/// it did not, `VmHWM` keeps the process's earlier peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The CPU model name of the first processor in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kilobytes() {
        let status =
            "Name:\tserve\nVmPeak:\t  120000 kB\nVmHWM:\t   43520 kB\nVmRSS:\t   41000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(43_520 * 1024));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let hwm = vm_hwm(None).expect("/proc/self/status has VmHWM");
        let rss = vm_rss().expect("/proc/self/status has VmRSS");
        assert!(hwm > 0 && rss > 0);
    }

    #[test]
    fn a_reset_peak_forgets_a_freed_allocation() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        if reset_peak_rss() {
            let hwm = vm_hwm(None).expect("/proc/self/status has VmHWM");
            assert!(hwm < 64 << 20, "peak {hwm} still holds the freed 64 MiB");
        }
    }
}
