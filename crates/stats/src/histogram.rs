//! Fixed-width histograms for textual distribution reports.

/// A fixed-bin histogram over a closed range `[lo, hi]`.
///
/// Values outside the range are clamped into the first/last bin so that no sample is ever
/// silently dropped (the experiment harnesses always report totals).
///
/// ```
/// use dg_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.add(1.0);
/// h.add(9.5);
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.counts()[0], 1);
/// assert_eq!(h.counts()[4], 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins covering `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if `lo >= hi`, or if either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "histogram range must be non-empty (lo < hi)");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one sample, clamping it into the covered range.
    pub fn add(&mut self, value: f64) {
        let bins = self.counts.len();
        let clamped = value.clamp(self.lo, self.hi);
        let width = (self.hi - self.lo) / bins as f64;
        let mut idx = ((clamped - self.lo) / width) as usize;
        if idx >= bins {
            idx = bins - 1;
        }
        self.counts[idx] += 1;
    }

    /// Adds every sample from `values`.
    pub fn extend_from_slice(&mut self, values: &[f64]) {
        for v in values {
            self.add(*v);
        }
    }

    /// Merges another histogram into this one (parallel/sharded reduction).
    ///
    /// Because bins are fixed at construction, merging partials built over disjoint
    /// sample subsets is *exact*: the merged counts equal single-pass accumulation over
    /// the concatenated samples.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in range or bin count — partials are only
    /// mergeable when they were constructed identically.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo.to_bits() == other.lo.to_bits()
                && self.hi.to_bits() == other.hi.to_bits()
                && self.counts.len() == other.counts.len(),
            "histogram merge requires identical range and bin count \
             (self: [{}, {}] x{}, other: [{}, {}] x{})",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len()
        );
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples added.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lower bound of the covered range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the covered range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Fraction of samples in bin `i`, or 0 if the histogram is empty.
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.add(5.0);
        h.add(15.0);
        h.add(99.9);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.add(-5.0);
        h.add(25.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
    }

    #[test]
    fn upper_bound_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(10.0);
        assert_eq!(h.counts()[4], 1);
    }

    #[test]
    fn bin_center_and_fraction() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend_from_slice(&[1.0, 1.5, 9.0]);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.fraction(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass_accumulation() {
        let all = [0.5, 1.5, 2.5, 3.5, 4.5, 9.9, -1.0, 12.0];
        let mut whole = Histogram::new(0.0, 10.0, 5);
        whole.extend_from_slice(&all);

        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.extend_from_slice(&all[..3]);
        b.extend_from_slice(&all[3..]);
        a.merge(&b);
        assert_eq!(
            a, whole,
            "merged partials must equal the single-pass result"
        );
        assert_eq!(a.total(), all.len() as u64);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new(0.0, 10.0, 4);
        h.extend_from_slice(&[1.0, 2.0, 3.0]);
        let before = h.clone();
        h.merge(&Histogram::new(0.0, 10.0, 4));
        assert_eq!(h, before);
    }

    #[test]
    #[should_panic(expected = "identical range and bin count")]
    fn merge_with_mismatched_bins_rejected() {
        let mut a = Histogram::new(0.0, 10.0, 4);
        a.merge(&Histogram::new(0.0, 10.0, 5));
    }

    #[test]
    #[should_panic(expected = "identical range and bin count")]
    fn merge_with_mismatched_range_rejected() {
        let mut a = Histogram::new(0.0, 10.0, 4);
        a.merge(&Histogram::new(0.0, 20.0, 4));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn inverted_range_rejected() {
        Histogram::new(1.0, 1.0, 4);
    }
}
