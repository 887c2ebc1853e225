//! Change-point detection over a streaming series of observations.
//!
//! [`DriftDetector`] watches a stream of noisy measurements (a deployed champion's
//! observed execution times, say) and decides when the *regime* generating them has
//! changed — not just a bad sample, but a persistent level shift. It calibrates a
//! reference window with [`OnlineStats`], normalises each later sample into a z-score
//! against that frozen reference, and accumulates the normalised deviations through a
//! two-sided CUSUM (Page–Hinkley) statistic. A single outlier adds a bounded amount of
//! mass (z-scores are clamped) that subsequent in-regime samples drain away; a
//! sustained shift accumulates linearly and crosses the threshold within a handful of
//! samples.
//!
//! [`Ewma`] is the companion recency-weighted view: an exponentially weighted mean, the
//! "current belief" a monitor gates on while the detector decides whether that belief
//! still describes the same regime.

use crate::online::OnlineStats;

/// Which way the stream moved when a drift was confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// The level rose (observed times got worse — a slowdown regime).
    Up,
    /// The level fell (observed times improved — pressure released).
    Down,
}

/// Samples the detector calibrates its frozen reference on before it can fire. At the
/// retune loop's 240 s cadence, 32 samples span about eight of the typical profile's
/// 900 s interference regimes.
pub const DRIFT_WARMUP: u32 = 32;

/// Per-sample drift tolerance in reference standard deviations: deviations below it
/// never accumulate, so ordinary noise drains the statistic instead of feeding it.
pub const DRIFT_DELTA: f64 = 0.75;

/// Detection threshold on the accumulated (clamped, normalised) deviation mass.
pub const DRIFT_LAMBDA: f64 = 20.0;

/// Z-scores are clamped to `[-DRIFT_CLAMP_Z, DRIFT_CLAMP_Z]` before accumulating,
/// bounding how much mass any single spike can contribute.
pub const DRIFT_CLAMP_Z: f64 = 6.0;

/// Floor on the reference standard deviation, as a fraction of the reference |mean|:
/// a suspiciously quiet calibration window cannot make the detector hair-triggered.
pub const DRIFT_MIN_REL_STD: f64 = 0.18;

/// Two-sided CUSUM / Page–Hinkley change-point detector over an [`OnlineStats`]
/// calibration stream, at the thresholds the retune loop runs.
///
/// The detector freezes its reference on the first [`DRIFT_WARMUP`] (32) samples, with
/// a standard deviation of at least [`DRIFT_MIN_REL_STD`] (18%) of the reference mean.
/// Each later sample becomes a z-score against that band, clamped to
/// ±[`DRIFT_CLAMP_Z`] (6); each side's CUSUM gains the z-score minus [`DRIFT_DELTA`]
/// (0.75) per sample, never falls below zero, and fires once it exceeds
/// [`DRIFT_LAMBDA`] (20).
///
/// ```
/// use dg_stats::{DriftDetector, DriftDirection, DRIFT_WARMUP};
///
/// let mut detector = DriftDetector::new();
/// for i in 0..DRIFT_WARMUP {
///     assert_eq!(detector.push(100.0 + (i % 2) as f64), None);
/// }
/// // A persistent 60% slowdown is confirmed within ten samples.
/// let fired = (0..10).find_map(|_| detector.push(160.0));
/// assert_eq!(fired, Some(DriftDirection::Up));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriftDetector {
    /// The calibration accumulator; frozen once [`DRIFT_WARMUP`] samples have arrived.
    reference: OnlineStats,
    /// Frozen `(mean, std)` once calibration completes.
    frozen: Option<(f64, f64)>,
    /// Upward (slowdown) CUSUM mass.
    cusum_up: f64,
    /// Downward (speedup) CUSUM mass.
    cusum_down: f64,
}

impl DriftDetector {
    /// Creates an uncalibrated detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The frozen reference band, `(mean, std)`, once calibration completes: the
    /// calibration samples' mean and their standard deviation, floored at
    /// [`DRIFT_MIN_REL_STD`] of the mean's magnitude and at `f64::EPSILON`.
    pub fn reference_band(&self) -> Option<(f64, f64)> {
        self.frozen
    }

    /// Feeds one observation. Returns the confirmed drift direction the first time the
    /// accumulated evidence crosses [`DRIFT_LAMBDA`]; the caller decides what to do (usually
    /// [`reset`](Self::reset) after acting). NaN samples are ignored entirely — the
    /// calibration accumulator already rejects them, and feeding the CUSUM a NaN would
    /// poison the mass.
    pub fn push(&mut self, value: f64) -> Option<DriftDirection> {
        if value.is_nan() {
            return None;
        }
        let (mean, std) = match self.frozen {
            None => {
                self.reference.push(value);
                if self.reference.count() >= u64::from(DRIFT_WARMUP) {
                    let mean = self.reference.mean();
                    let std = self
                        .reference
                        .std_dev()
                        .max(DRIFT_MIN_REL_STD * mean.abs())
                        .max(f64::EPSILON);
                    self.frozen = Some((mean, std));
                }
                return None;
            }
            Some(frozen) => frozen,
        };
        let z = ((value - mean) / std).clamp(-DRIFT_CLAMP_Z, DRIFT_CLAMP_Z);
        self.cusum_up = (self.cusum_up + z - DRIFT_DELTA).max(0.0);
        self.cusum_down = (self.cusum_down - z - DRIFT_DELTA).max(0.0);
        if self.cusum_up > DRIFT_LAMBDA {
            Some(DriftDirection::Up)
        } else if self.cusum_down > DRIFT_LAMBDA {
            Some(DriftDirection::Down)
        } else {
            None
        }
    }

    /// Clears all state and recalibrates from scratch — call after acting on a
    /// confirmed drift so the new regime becomes the new reference.
    pub fn reset(&mut self) {
        self.reference = OnlineStats::new();
        self.frozen = None;
        self.cusum_up = 0.0;
        self.cusum_down = 0.0;
    }
}

/// An exponentially weighted moving average: the recency-weighted "current belief"
/// view of a monitored stream.
///
/// The first sample seeds the mean; each later one moves it by the standard EWMA
/// recurrence `mean ← mean + α(x − mean)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    /// Samples absorbed since the last reset.
    hits: u64,
}

impl Ewma {
    /// Creates an empty EWMA with smoothing factor `alpha` in `(0, 1]`; larger values
    /// weight recent samples more heavily.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        Self {
            alpha,
            mean: 0.0,
            hits: 0,
        }
    }

    /// Adds one observation (NaN samples are ignored, mirroring [`OnlineStats`]).
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.hits += 1;
        if self.hits == 1 {
            self.mean = value;
            return;
        }
        self.mean += self.alpha * (value - self.mean);
    }

    /// The recency-weighted mean, or 0 before any sample.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Clears the average.
    pub fn reset(&mut self) {
        self.mean = 0.0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A detector calibrated on `DRIFT_WARMUP` samples of `100 + (i % period)`.
    fn calibrated(period: u32) -> DriftDetector {
        let mut detector = DriftDetector::new();
        for i in 0..DRIFT_WARMUP {
            assert_eq!(detector.push(100.0 + (i % period) as f64), None);
        }
        assert!(detector.reference_band().is_some());
        detector
    }

    #[test]
    fn no_detection_during_warmup() {
        let mut detector = DriftDetector::new();
        for i in 0..DRIFT_WARMUP - 1 {
            assert_eq!(detector.push(1000.0 * (i + 1) as f64), None);
            assert_eq!(detector.reference_band(), None);
        }
        detector.push(5.0);
        assert!(detector.reference_band().is_some());
    }

    #[test]
    fn steady_noise_never_fires() {
        let mut detector = DriftDetector::new();
        // A deterministic bounded oscillation around 100.
        let sample = |i: u64| 100.0 + 8.0 * ((i as f64 * 0.7).sin() + (i as f64 * 0.31).cos());
        for i in 0..1000 {
            assert_eq!(detector.push(sample(i)), None, "fired at sample {i}");
        }
    }

    #[test]
    fn sustained_shift_is_detected_quickly_and_in_the_right_direction() {
        let mut up = calibrated(3);
        let fired_after = (0..20).position(|_| up.push(160.0).is_some());
        assert!(
            fired_after.is_some_and(|n| n < 12),
            "a 60% shift must confirm within a dozen samples (got {fired_after:?})"
        );

        let mut down = calibrated(3);
        let fired = (0..20).find_map(|_| down.push(55.0));
        assert_eq!(fired, Some(DriftDirection::Down));
    }

    #[test]
    fn single_spikes_are_absorbed() {
        let mut detector = calibrated(4);
        for round in 0..50 {
            // One wild outlier every 10 samples, otherwise in-regime.
            let value = if round % 10 == 0 { 400.0 } else { 101.0 };
            assert_eq!(detector.push(value), None, "fired at round {round}");
        }
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut detector = DriftDetector::new();
        // A NaN during calibration does not count towards the warm-up...
        for _ in 0..DRIFT_WARMUP - 1 {
            detector.push(10.0);
        }
        assert_eq!(detector.push(f64::NAN), None);
        assert_eq!(detector.reference_band(), None);
        detector.push(10.0);
        let band = detector.reference_band();
        assert!(band.is_some());
        // ...and one after it neither moves the reference nor feeds the CUSUM.
        assert_eq!(detector.push(f64::NAN), None);
        assert_eq!(detector.reference_band(), band);
        assert_eq!((detector.cusum_up, detector.cusum_down), (0.0, 0.0));
    }

    #[test]
    fn reset_recalibrates() {
        let mut detector = DriftDetector::new();
        for _ in 0..DRIFT_WARMUP {
            detector.push(10.0);
        }
        let fired = (0..30).find_map(|_| detector.push(30.0));
        assert!(fired.is_some());
        detector.reset();
        assert_eq!(detector.reference_band(), None);
        // The new regime calibrates cleanly; staying there never fires.
        for i in 0..40 {
            assert_eq!(detector.push(30.0 + (i % 2) as f64), None);
        }
    }

    #[test]
    fn ewma_tracks_level_changes_with_recency_weighting() {
        let mut ewma = Ewma::new(0.3);
        assert_eq!(ewma.hits, 0);
        for _ in 0..20 {
            ewma.push(100.0);
        }
        assert!((ewma.mean() - 100.0).abs() < 1e-9);
        assert_eq!(ewma.hits, 20);
        for _ in 0..20 {
            ewma.push(200.0);
        }
        assert!(
            ewma.mean() > 195.0,
            "after 20 samples at the new level the belief must have moved (got {})",
            ewma.mean()
        );
        ewma.push(f64::NAN);
        assert_eq!(ewma.hits, 40, "NaN must not count as a hit");
        ewma.reset();
        assert_eq!(ewma.hits, 0);
        assert_eq!(ewma.mean(), 0.0);
        // The first sample after a reset seeds the mean outright.
        ewma.push(50.0);
        assert_eq!(ewma.mean(), 50.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}
