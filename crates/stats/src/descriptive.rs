//! Batch descriptive statistics over slices of `f64` samples.

/// Arithmetic mean of `samples`.
///
/// Returns `0.0` for an empty slice so that callers reporting aggregate rows do not need
/// to special-case missing data.
///
/// ```
/// assert_eq!(dg_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(dg_stats::mean(&[]), 0.0);
/// ```
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of strictly positive `samples`.
///
/// Used when averaging ratios (e.g. speedups over the Oracle across applications).
/// Non-positive samples are skipped.
///
/// ```
/// let gm = dg_stats::geometric_mean(&[1.0, 4.0]);
/// assert!((gm - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(samples: &[f64]) -> f64 {
    let positive: Vec<f64> = samples.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

/// Unbiased sample variance (`n - 1` denominator).
///
/// Returns `0.0` when fewer than two samples are provided.
pub fn sample_variance(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (samples.len() - 1) as f64
}

/// Population variance (`n` denominator).
///
/// Returns `0.0` for an empty slice.
pub fn population_variance(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(samples: &[f64]) -> f64 {
    sample_variance(samples).sqrt()
}

/// Coefficient of variation expressed as a *percentage* (`100 * stddev / mean`).
///
/// This is the headline variability metric of the paper (e.g. "less than 0.5%"
/// performance variation for DarwinGame's chosen configuration). Returns `0.0` when the
/// mean is zero or there are fewer than two samples.
///
/// ```
/// let cov = dg_stats::coefficient_of_variation(&[100.0, 100.0, 100.0]);
/// assert_eq!(cov, 0.0);
/// ```
pub fn coefficient_of_variation(samples: &[f64]) -> f64 {
    let m = mean(samples);
    if m.abs() < f64::EPSILON || samples.len() < 2 {
        return 0.0;
    }
    100.0 * std_dev(samples) / m
}

/// Median (50th percentile) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile in `[0, 100]`.
///
/// # Panics
///
/// Panics if `pct` is outside `[0, 100]` or is not finite.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(
        pct.is_finite() && (0.0..=100.0).contains(&pct),
        "percentile must be within [0, 100], got {pct}"
    );
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    sorted[lower] * (1.0 - weight) + sorted[upper] * weight
}

/// Relative change from `reference` to `value`, expressed as a percentage.
///
/// Positive values mean `value` is larger than `reference`. Used throughout the
/// experiment harnesses to report "X% more execution time than the Oracle".
///
/// ```
/// assert_eq!(dg_stats::percent_change(110.0, 100.0), 10.0);
/// ```
pub fn percent_change(value: f64, reference: f64) -> f64 {
    if reference.abs() < f64::EPSILON {
        return 0.0;
    }
    100.0 * (value - reference) / reference
}

/// A complete five-number-plus summary of a set of samples.
///
/// `Summary` is the value most experiment harnesses attach to each reported row: it packs
/// the mean, spread, and variability of a batch of simulated execution times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    median: f64,
    p5: f64,
    p95: f64,
}

impl Summary {
    /// Builds a summary from a slice of samples.
    ///
    /// An empty slice yields an all-zero summary; this keeps report generation total.
    pub fn from_slice(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p5: 0.0,
                p95: 0.0,
            };
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count: samples.len(),
            mean: mean(samples),
            std_dev: std_dev(samples),
            min,
            max,
            median: median(samples),
            p5: percentile(samples, 5.0),
            p95: percentile(samples, 95.0),
        }
    }

    /// Number of samples summarised.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.median
    }

    /// 5th percentile.
    pub fn p5(&self) -> f64 {
        self.p5
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// Coefficient of variation as a percentage.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }

    /// Half-width of the min–max range, handy for error bars.
    pub fn range_half_width(&self) -> f64 {
        (self.max - self.min) / 2.0
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::from_slice(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[2.0, 4.0, 6.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_skips_non_positive() {
        let gm = geometric_mean(&[-1.0, 0.0, 2.0, 8.0]);
        assert!((gm - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(sample_variance(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(population_variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn sample_variance_known_value() {
        // Var([1, 2, 3, 4]) with n-1 denominator = 5/3.
        let v = sample_variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cov_zero_for_constant_series() {
        assert_eq!(coefficient_of_variation(&[5.0; 10]), 0.0);
    }

    #[test]
    fn cov_percentage_scale() {
        // std of [90, 110] = ~14.14, mean = 100 -> CoV ~14.14%
        let cov = coefficient_of_variation(&[90.0, 110.0]);
        assert!((cov - 14.142135623730951).abs() < 1e-9);
    }

    #[test]
    fn percentile_endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [0.0, 10.0];
        assert!((percentile(&s, 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile must be within")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 120.0);
    }

    #[test]
    fn percent_change_sign() {
        assert!(percent_change(90.0, 100.0) < 0.0);
        assert!(percent_change(110.0, 100.0) > 0.0);
        assert_eq!(percent_change(1.0, 0.0), 0.0);
    }

    #[test]
    fn summary_round_trip() {
        let samples = [230.0, 240.0, 260.0, 300.0, 792.0];
        let s = Summary::from_slice(&samples);
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 230.0);
        assert_eq!(s.max(), 792.0);
        assert_eq!(s.median(), 260.0);
        assert!(s.coefficient_of_variation() > 0.0);
        assert!(s.p95() <= s.max() && s.p5() >= s.min());
    }

    #[test]
    fn summary_empty_is_all_zero() {
        let s = Summary::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn median_even_count() {
        assert!((median(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }
}
