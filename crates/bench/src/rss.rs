//! Resident-set-size sampling for the benchmark reports.
//!
//! Wall-clock and allocation counts say how hard an experiment worked;
//! they say nothing about whether it *fits*. The megascale sweep exists
//! precisely to show a million-site fleet fitting in memory, so the
//! `repro --timings` report records memory readings alongside each
//! experiment's seconds and allocations.
//!
//! The source is the kernel's own accounting, `VmHWM` ("high water
//! mark", [`peak_rss_kb`]) in `/proc/self/status`, in kB: the peak
//! resident set over the **whole process lifetime**. It is monotone, so
//! an experiment's own footprint shows only when it pushes the mark past
//! everything that ran before it, and reported raw, one experiment's
//! large footprint would be inherited by every row after it. The repro
//! binary therefore attributes memory per experiment as the *delta* of
//! `VmHWM` across it (`rss_delta_kb`: how far this experiment pushed the
//! process peak, 0 if it fit inside an earlier peak).
//!
//! On non-Linux hosts there is no `/proc`, and the helpers return 0 —
//! "unknown", never a guess.

/// The process's peak resident set size in kB, or 0 when the platform
/// does not expose it.
pub fn peak_rss_kb() -> u64 {
    read_vm_field("VmHWM:").unwrap_or(0)
}

#[cfg(target_os = "linux")]
fn read_vm_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_field(&status, field)
}

#[cfg(not(target_os = "linux"))]
fn read_vm_field(_field: &str) -> Option<u64> {
    None
}

/// Parses a `<field>   1234 kB` line out of a `/proc/<pid>/status` body.
/// `field` includes the trailing colon (`"VmHWM:"`).
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\trepro\nVmPeak:\t  200 kB\nVmHWM:\t   86172 kB\nVmRSS:\t   52148 kB\nThreads:\t1\n";

    #[test]
    fn parses_the_kernel_format() {
        assert_eq!(parse_vm_field(STATUS, "VmHWM:"), Some(86172));
        assert_eq!(parse_vm_field(STATUS, "VmRSS:"), Some(52148));
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(
            parse_vm_field("Name:\trepro\nThreads:\t1\n", "VmHWM:"),
            None
        );
        assert_eq!(parse_vm_field(STATUS, "VmSwap:"), None);
    }

    #[test]
    fn sampling_is_monotone_and_positive_on_linux() {
        let before = peak_rss_kb();
        // Touch a few MB so the high-water mark is certainly nonzero.
        let v: Vec<u64> = (0..500_000).collect();
        assert_eq!(v.len(), 500_000);
        let after = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(before > 0, "VmHWM readable");
        }
        assert!(after >= before, "high-water mark never shrinks");
    }
}
