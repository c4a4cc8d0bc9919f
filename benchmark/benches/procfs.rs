//! Process accounting read from `/proc/self`: CPU time and peak
//! resident set size.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI Rust targets).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds out of the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields
    // 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size in MiB out of the text of
/// `/proc/<pid>/status` (its `VmHWM:` line, in kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed")
}

/// This process's peak resident set size so far, in MiB.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status has a VmHWM line")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_counts_fields_after_the_command_name() {
        let plain = "4242 (upsbench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     1234 56 0 0 20 0 1 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(plain), Some(12.9));
        // A command name with spaces and a closing parenthesis.
        let odd = "7 (a b) c) S 1 7 7 0 -1 0 0 0 0 0 300 25 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_cpu_seconds(odd), Some(3.25));
        assert_eq!(parse_cpu_seconds("7 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb_and_reported_in_mib() {
        let status =
            "Name:\tupsbench\nVmPeak:\t  300000 kB\nVmHWM:\t  168960 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(165.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(vm_hwm_mib() > 0.0);
    }
}
