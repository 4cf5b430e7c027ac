//! Summary statistics: the percentile rule, medians and geometric means.

/// Samples a percentile must leave beyond it before it may be reported:
/// a timing is reported at the highest percentile with at least ten
/// samples beyond it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p` percent of all samples are at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
///
/// # Panics
///
/// Panics when `n` is zero or `p` is outside `(0, 100]`.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
#[must_use]
pub fn tail(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support reporting percentile `p` under the
/// ten-beyond rule.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && tail(n, p) >= MIN_TAIL
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Geometric mean of positive values (1.0 for none).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 11 samples: rank ceil(9.9) = 10.
        let w: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), 10.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(!supports(0, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
