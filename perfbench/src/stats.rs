//! Summary statistics and process accounting read from `/proc`.

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples above it: the value at rank `n - 11` of an ascending slice.
/// Returns `(value, percentile in %, sample count)`. With 10 or fewer
/// samples no percentile qualifies and the maximum is returned, labelled
/// 100 %.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return (sorted[n - 1], 100.0, n);
    }
    let rank = n - 1 - TAIL_BEYOND;
    (sorted[rank], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64, n)
}

/// The median over `windows` (each ascending) of each window's [`tail`]:
/// one stall in one window does not move it. Returns the median and each
/// window's `tail`.
pub fn windowed_tail(windows: &[Vec<f64>]) -> (f64, Vec<(f64, f64, usize)>) {
    let tails: Vec<(f64, f64, usize)> = windows.iter().map(|w| tail(w)).collect();
    (median(&sorted(tails.iter().map(|t| t.0).collect())), tails)
}

/// Geometric mean of positive counts (`0` counts as `1`, so one uncut
/// matrix does not zero the whole mean).
pub fn geomean(values: &[u64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// Fields are counted after the parenthesised command name, which may
/// itself contain spaces or parentheses.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// `AT_CLKTCK` from the raw bytes of `/proc/<pid>/auxv` (pairs of native
/// `u64` words, terminated by `AT_NULL`).
fn parse_auxv_clock_ticks(auxv: &[u8]) -> Option<u64> {
    const AT_NULL: u64 = 0;
    const AT_CLKTCK: u64 = 17;
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        match key {
            AT_NULL => break,
            AT_CLKTCK => return Some(value),
            _ => {}
        }
    }
    None
}

/// User plus system CPU seconds of this whole process so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parsing /proc/self/stat");
    let hz = std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|auxv| parse_auxv_clock_ticks(&auxv))
        .unwrap_or(100);
    ticks as f64 / hz as f64
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parsing VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct, n) = tail(&sample);
        assert_eq!(n, 1000);
        assert_eq!(value, 990.0);
        assert_eq!(sample.iter().filter(|&&v| v > value).count(), 10);
        assert!((pct - 99.0).abs() < 1e-12);

        let small: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&small).0, 1.0);
        let tiny: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&tiny), (10.0, 100.0, 10));
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = calm.clone();
        for v in stalled.iter_mut().rev().take(20) {
            *v += 500.0;
        }
        let (value, per_window) = windowed_tail(&[calm.clone(), stalled, calm]);
        assert_eq!(value, 90.0);
        let percentiles: Vec<_> = per_window.iter().map(|t| (t.1, t.2)).collect();
        assert_eq!(percentiles, vec![(90.0, 100); 3]);
        assert_eq!(per_window[1].0, 590.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&sample), 3.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 1.0), 5.0);
    }

    #[test]
    fn geomean_of_counts() {
        assert!((geomean(&[4, 16]) - 8.0).abs() < 1e-9);
        assert!((geomean(&[0, 9]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn parses_proc_stat_with_awkward_command_names() {
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 56 0 0 20 0 3 0 777 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  395264 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(395_264));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn parses_auxv_clock_ticks() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 250), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clock_ticks(&auxv), Some(250));
        assert_eq!(parse_auxv_clock_ticks(&auxv[..16]), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
