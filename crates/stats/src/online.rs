//! Streaming (single-pass) statistics.

/// Welford's online algorithm for mean and variance.
///
/// Used inside the simulator and tournament driver where samples arrive one at a time
/// (e.g. the running consistency statistics of a player) and storing every observation
/// would be wasteful.
///
/// ```
/// use dg_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    nan_count: u64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nan_count: 0,
        }
    }

    /// Adds one observation.
    ///
    /// NaN samples are rejected rather than accumulated: a single NaN would poison
    /// `mean`/`m2` forever while `f64::min`/`f64::max` silently dropped it, leaving the
    /// accumulator internally inconsistent. Rejected samples are tallied in
    /// [`nan_count`](Self::nan_count) so callers can still see that the stream
    /// misbehaved.
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            self.nan_count += 1;
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        self.nan_count += other.nan_count;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let nan_count = self.nan_count;
            *self = *other;
            self.nan_count = nan_count;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = new_mean;
        self.m2 = new_m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far (NaN rejects excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN samples rejected by [`push`](Self::push) so far.
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// Running mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation as a percentage, or 0 when undefined. The denominator
    /// is `|mean|`, so a negative-mean stream reports the same (non-negative) relative
    /// dispersion as its mirror image.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON || self.count < 2 {
            0.0
        } else {
            100.0 * self.std_dev() / m.abs()
        }
    }

    /// Smallest observation, or +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn matches_batch_statistics() {
        let samples = [3.0, 7.0, 7.0, 19.0, 24.0, 4.5];
        let mut online = OnlineStats::new();
        for s in samples {
            online.push(s);
        }
        assert!((online.mean() - descriptive::mean(&samples)).abs() < 1e-12);
        assert!((online.variance() - descriptive::sample_variance(&samples)).abs() < 1e-9);
        assert_eq!(online.min(), 3.0);
        assert_eq!(online.max(), 24.0);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn merge_equals_sequential_push() {
        let a_samples = [1.0, 2.0, 3.0];
        let b_samples = [10.0, 20.0, 30.0, 40.0];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for s in a_samples {
            a.push(s);
        }
        for s in b_samples {
            b.push(s);
        }
        let mut merged = a;
        merged.merge(&b);

        let mut sequential = OnlineStats::new();
        for s in a_samples.iter().chain(b_samples.iter()) {
            sequential.push(*s);
        }
        assert_eq!(merged.count(), sequential.count());
        assert!((merged.mean() - sequential.mean()).abs() < 1e-12);
        assert!((merged.variance() - sequential.variance()).abs() < 1e-9);
    }

    #[test]
    fn nan_samples_are_rejected_and_counted() {
        let mut s = OnlineStats::new();
        s.push(2.0);
        s.push(f64::NAN);
        s.push(4.0);
        s.push(f64::NAN);
        assert_eq!(s.count(), 2);
        assert_eq!(s.nan_count(), 2);
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().is_finite());
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);

        let mut clean = OnlineStats::new();
        clean.push(2.0);
        clean.push(4.0);
        assert_eq!(s.mean().to_bits(), clean.mean().to_bits());
        assert_eq!(s.variance().to_bits(), clean.variance().to_bits());
    }

    #[test]
    fn merge_sums_nan_counts() {
        let mut a = OnlineStats::new();
        a.push(f64::NAN);
        a.push(1.0);
        let mut b = OnlineStats::new();
        b.push(f64::NAN);
        b.push(f64::NAN);
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.nan_count(), 3);

        // Merging into an empty accumulator keeps its own NaN tally too.
        let mut empty = OnlineStats::new();
        empty.push(f64::NAN);
        empty.merge(&b);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.nan_count(), 3);
    }

    #[test]
    fn cov_is_non_negative_for_negative_mean_streams() {
        let mut negative = OnlineStats::new();
        let mut positive = OnlineStats::new();
        for v in [10.0, 12.0, 20.0] {
            negative.push(-v);
            positive.push(v);
        }
        assert!(negative.mean() < 0.0);
        assert!(negative.coefficient_of_variation() > 0.0);
        assert_eq!(
            negative.coefficient_of_variation().to_bits(),
            positive.coefficient_of_variation().to_bits(),
            "a mirrored stream has identical relative dispersion"
        );
        // Zero-mean streams stay at the 0 sentinel (the ratio is undefined).
        let mut zero = OnlineStats::new();
        zero.push(-1.0);
        zero.push(1.0);
        assert_eq!(zero.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
