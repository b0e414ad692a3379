//! Order statistics over raw samples.
//!
//! Every percentile the benchmark prints is read from the sorted raw
//! samples (nearest rank), never from bucketed histogram estimates.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to be trusted.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `[0, 1]`.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a copy of `xs` ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The highest of the standard upper-tail percentiles (0.5, 0.9, 0.99,
/// 0.999) that has at least [`TAIL_MIN`] of `n` samples beyond it.
/// `None` when even the median lacks that support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supported(q, n))
}

/// Whether percentile `q` is supported by `n` samples: at least
/// [`TAIL_MIN`] samples lie beyond it on the tail side (above it for
/// `q ≥ 0.5`, below it for a low tail such as p10).
pub fn supported(q: f64, n: usize) -> bool {
    let beyond = if q >= 0.5 { 1.0 - q } else { q };
    (n as f64 * beyond + 1e-9).floor() as usize >= TAIL_MIN
}

/// A sample set summarized at named percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    xs: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.xs
    }

    /// Percentile `q` of the raw samples (0 when empty, so a printed
    /// metric is always a number; callers check `len` first).
    pub fn pct(&self, q: f64) -> f64 {
        percentile(&sorted(&self.xs), q).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_raw_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Distinct values survive: no bucket rounding.
        let ys = sorted(&[557_056.0, 600_001.0, 622_592.0]);
        assert_eq!(percentile(&ys, 0.5), Some(600_001.0));
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn low_and_high_tails_need_ten_beyond() {
        assert!(!supported(0.1, 99));
        assert!(supported(0.1, 100));
        assert!(!supported(0.9, 99));
        assert!(supported(0.9, 100));
        assert!(!supported(0.99, 999));
        assert!(supported(0.99, 1000));
    }
}
