//! Empirical cumulative distribution functions.
//!
//! Figure 1 of the paper plots CDFs of execution time over randomly sampled tuning
//! configurations and over repeated runs of fixed configurations. [`EmpiricalCdf`] is the
//! shared representation the bench harnesses use to emit those series.

/// An empirical CDF built from a finite sample set.
///
/// Samples are stored sorted; evaluation is a binary search, quantiles are linear
/// interpolation over the order statistics.
///
/// ```
/// use dg_stats::EmpiricalCdf;
/// let cdf = EmpiricalCdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from an arbitrary (unsorted) sample slice.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        assert!(
            sorted.iter().all(|v| !v.is_nan()),
            "CDF samples must not contain NaN"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self { sorted }
    }

    /// Merges another CDF into this one (parallel/sharded reduction).
    ///
    /// Both sides are already sorted, so this is a linear two-way merge; the result is
    /// *exactly* the CDF that [`from_samples`](Self::from_samples) would build over the
    /// concatenated sample sets — the full sample list is kept, so quantiles of merged
    /// partials equal single-pass quantiles bit for bit.
    pub fn merge(&mut self, other: &EmpiricalCdf) {
        if other.sorted.is_empty() {
            return;
        }
        let mine = std::mem::take(&mut self.sorted);
        let mut merged = Vec::with_capacity(mine.len() + other.sorted.len());
        let (mut i, mut j) = (0, 0);
        while i < mine.len() && j < other.sorted.len() {
            if mine[i] <= other.sorted[j] {
                merged.push(mine[i]);
                i += 1;
            } else {
                merged.push(other.sorted[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&mine[i..]);
        merged.extend_from_slice(&other.sorted[j..]);
        self.sorted = merged;
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= value`, in `[0, 1]`.
    pub fn fraction_at_or_below(&self, value: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= value);
        count as f64 / self.sorted.len() as f64
    }

    /// Value below which a fraction `q` of the samples fall (`q` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`, or if the CDF is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction must be within [0, 1], got {q}"
        );
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = q * (self.sorted.len() - 1) as f64;
        let lower = rank.floor() as usize;
        let upper = rank.ceil() as usize;
        let weight = rank - lower as f64;
        self.sorted[lower] * (1.0 - weight) + self.sorted[upper] * weight
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of an empty CDF")
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of an empty CDF")
    }

    /// Iterator over `(value, cumulative_fraction)` pairs, one per sample, suitable for
    /// plotting or printing a CDF series.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, v)| (*v, (i + 1) as f64 / n))
    }

    /// Returns `step` evenly spaced `(value, fraction)` points between the min and max of
    /// the sample set, which is how the benches downsample large CDFs for textual output.
    ///
    /// Returns an empty vector if the CDF is empty or `steps == 0`.
    pub fn sampled_points(&self, steps: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || steps == 0 {
            return Vec::new();
        }
        let lo = self.min();
        let hi = self.max();
        (0..=steps)
            .map(|i| {
                let v = lo + (hi - lo) * i as f64 / steps as f64;
                (v, self.fraction_at_or_below(v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_monotone() {
        let cdf = EmpiricalCdf::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let mut prev = 0.0;
        for v in [0.0, 1.0, 1.5, 2.0, 3.0, 4.5, 5.0, 6.0] {
            let f = cdf.fraction_at_or_below(v);
            assert!(f >= prev, "CDF must be non-decreasing");
            prev = f;
        }
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(5.0), 1.0);
    }

    #[test]
    fn quantile_endpoints_match_min_max() {
        let cdf = EmpiricalCdf::from_samples(&[10.0, 20.0, 30.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(1.0), 30.0);
        assert_eq!(cdf.min(), 10.0);
        assert_eq!(cdf.max(), 30.0);
    }

    #[test]
    fn quantile_interpolation() {
        let cdf = EmpiricalCdf::from_samples(&[0.0, 10.0]);
        assert!((cdf.quantile(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn points_cover_all_samples() {
        let cdf = EmpiricalCdf::from_samples(&[3.0, 1.0, 2.0]);
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn sampled_points_bounds() {
        let cdf = EmpiricalCdf::from_samples(&[2.0, 4.0, 8.0]);
        let pts = cdf.sampled_points(4);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts.first().unwrap().0, 2.0);
        assert_eq!(pts.last().unwrap().0, 8.0);
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn merge_equals_from_samples_over_concatenation() {
        let a_samples = [5.0, 1.0, 3.0];
        let b_samples = [4.0, 2.0, 6.0, 0.5];
        let mut merged = EmpiricalCdf::from_samples(&a_samples);
        merged.merge(&EmpiricalCdf::from_samples(&b_samples));

        let mut all: Vec<f64> = a_samples.to_vec();
        all.extend_from_slice(&b_samples);
        let whole = EmpiricalCdf::from_samples(&all);
        assert_eq!(merged, whole);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(merged.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut cdf = EmpiricalCdf::from_samples(&[1.0, 2.0]);
        let before = cdf.clone();
        cdf.merge(&EmpiricalCdf::from_samples(&[]));
        assert_eq!(cdf, before);

        let mut empty = EmpiricalCdf::from_samples(&[]);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn empty_cdf_is_safe_for_fraction() {
        let cdf = EmpiricalCdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.sampled_points(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile of an empty CDF")]
    fn empty_cdf_quantile_panics() {
        EmpiricalCdf::from_samples(&[]).quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_samples_rejected() {
        EmpiricalCdf::from_samples(&[1.0, f64::NAN]);
    }
}
