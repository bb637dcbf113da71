//! Measurement helpers: order statistics, thread CPU time, peak RSS and
//! directory sizes.

use std::path::Path;

/// A timing percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_MIN: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank `p`-quantile of an ascending slice, `p` in `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank_index(sorted.len(), p)]
}

fn nearest_rank_index(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of an ascending slice, or `None` when fewer than
/// [`TAIL_MIN`] samples lie beyond it — the highest percentile a sample
/// supports is the one with at least ten observations past it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = nearest_rank_index(sorted.len(), p);
    (sorted.len() - 1 - idx >= TAIL_MIN).then(|| sorted[idx])
}

/// Mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling
/// thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time (user + system) of the calling thread, seconds. Every front
/// the benchmark drives executes on the driver's own thread, so this is
/// the program's CPU time inside the calls it brackets.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly inside `dir` whose names
/// satisfy `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_str().is_some_and(&keep))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Number of regular files directly inside `dir` whose names satisfy
/// `keep`.
pub fn dir_files(dir: &Path, keep: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_str().is_some_and(&keep))
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: the p99 rank is the 990th value, 10 lie beyond.
        assert_eq!(tail_percentile(&sorted, 0.99), Some(989.0));
        assert_eq!(tail_percentile(&sorted[..999], 0.99), None);
        assert_eq!(tail_percentile(&sorted[..100], 0.9), Some(89.0));
        assert_eq!(tail_percentile(&sorted[..99], 0.9), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn thread_cpu_clock_advances() {
        let a = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > a);
    }
}
