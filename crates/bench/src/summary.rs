//! Order statistics shared by the bench series.

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending slice,
/// `0.0` when empty.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Median of `samples` (sorted in place; even counts average the middle
/// pair), `0.0` when empty.
pub(crate) fn median_us(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}
