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
//! [`Ewma`] is the companion recency-weighted view: an exponentially weighted mean and
//! variance plus a hit counter, the "current belief" a monitor reports while the
//! detector decides whether that belief still describes the same regime.

use crate::online::OnlineStats;

/// Which way the stream moved when a drift was confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// The level rose (observed times got worse — a slowdown regime).
    Up,
    /// The level fell (observed times improved — pressure released).
    Down,
}

/// Tuning knobs for a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Samples used to calibrate the frozen reference mean/deviation before any
    /// detection can fire. Must be at least 2.
    pub warmup: u32,
    /// Per-sample drift tolerance in reference standard deviations: deviations below
    /// `delta` never accumulate, so ordinary noise drains the statistic instead of
    /// feeding it.
    pub delta: f64,
    /// Detection threshold on the accumulated (clamped, normalised) deviation mass.
    pub lambda: f64,
    /// Z-scores are clamped to `[-clamp_z, clamp_z]` before accumulating, bounding how
    /// much mass any single spike can contribute.
    pub clamp_z: f64,
    /// Floor on the reference standard deviation, as a fraction of the reference
    /// |mean|: a suspiciously quiet calibration window cannot make the detector
    /// hair-triggered.
    pub min_rel_std: f64,
}

impl Default for DriftConfig {
    /// Calibrate on 32 samples, tolerate half a standard deviation of drift, confirm
    /// after twelve sigmas of accumulated one-sided evidence, clamp spikes at 6σ, and
    /// never trust a reference deviation tighter than 8% of the mean.
    fn default() -> Self {
        Self {
            warmup: 32,
            delta: 0.5,
            lambda: 12.0,
            clamp_z: 6.0,
            min_rel_std: 0.08,
        }
    }
}

impl DriftConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `warmup < 2`, any threshold is not finite and strictly positive, or
    /// `min_rel_std` is negative.
    pub fn validate(&self) {
        assert!(self.warmup >= 2, "warmup needs at least 2 samples");
        assert!(
            self.delta.is_finite() && self.delta > 0.0,
            "delta must be > 0"
        );
        assert!(
            self.lambda.is_finite() && self.lambda > 0.0,
            "lambda must be > 0"
        );
        assert!(
            self.clamp_z.is_finite() && self.clamp_z > self.delta,
            "clamp_z must exceed delta"
        );
        assert!(
            self.min_rel_std.is_finite() && self.min_rel_std >= 0.0,
            "min_rel_std must be >= 0"
        );
    }
}

/// Two-sided CUSUM / Page–Hinkley change-point detector over an [`OnlineStats`]
/// calibration stream.
///
/// ```
/// use dg_stats::{DriftConfig, DriftDetector, DriftDirection};
///
/// let mut detector = DriftDetector::new(DriftConfig {
///     warmup: 8,
///     ..DriftConfig::default()
/// });
/// for i in 0..8 {
///     assert_eq!(detector.push(100.0 + (i % 2) as f64), None);
/// }
/// // A persistent 60% slowdown is confirmed within a few samples.
/// let fired = (0..10).find_map(|_| detector.push(160.0));
/// assert_eq!(fired, Some(DriftDirection::Up));
/// ```
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    /// The calibration accumulator; frozen once `warmup` samples have arrived.
    reference: OnlineStats,
    /// Frozen `(mean, std)` once calibration completes.
    frozen: Option<(f64, f64)>,
    /// Upward (slowdown) CUSUM mass.
    cusum_up: f64,
    /// Downward (speedup) CUSUM mass.
    cusum_down: f64,
    samples: u64,
}

impl DriftDetector {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see [`DriftConfig::validate`]).
    pub fn new(config: DriftConfig) -> Self {
        config.validate();
        Self {
            config,
            reference: OnlineStats::new(),
            frozen: None,
            cusum_up: 0.0,
            cusum_down: 0.0,
            samples: 0,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// The calibration statistics (frozen after `warmup` samples).
    pub fn reference(&self) -> &OnlineStats {
        &self.reference
    }

    /// Non-NaN samples seen so far (calibration included).
    pub fn samples_seen(&self) -> u64 {
        self.samples
    }

    /// True once the calibration window is full and detection is armed.
    pub fn calibrated(&self) -> bool {
        self.frozen.is_some()
    }

    /// The current accumulated `(up, down)` CUSUM mass (0 until calibrated).
    pub fn pressure(&self) -> (f64, f64) {
        (self.cusum_up, self.cusum_down)
    }

    /// Feeds one observation. Returns the confirmed drift direction the first time the
    /// accumulated evidence crosses `lambda`; the caller decides what to do (usually
    /// [`reset`](Self::reset) after acting). NaN samples are ignored entirely — the
    /// calibration accumulator already rejects them, and feeding the CUSUM a NaN would
    /// poison the mass.
    pub fn push(&mut self, value: f64) -> Option<DriftDirection> {
        if value.is_nan() {
            return None;
        }
        self.samples += 1;
        let (mean, std) = match self.frozen {
            None => {
                self.reference.push(value);
                if self.reference.count() >= u64::from(self.config.warmup) {
                    let mean = self.reference.mean();
                    let std = self
                        .reference
                        .std_dev()
                        .max(self.config.min_rel_std * mean.abs())
                        .max(f64::EPSILON);
                    self.frozen = Some((mean, std));
                }
                return None;
            }
            Some(frozen) => frozen,
        };
        let z = ((value - mean) / std).clamp(-self.config.clamp_z, self.config.clamp_z);
        self.cusum_up = (self.cusum_up + z - self.config.delta).max(0.0);
        self.cusum_down = (self.cusum_down - z - self.config.delta).max(0.0);
        if self.cusum_up > self.config.lambda {
            Some(DriftDirection::Up)
        } else if self.cusum_down > self.config.lambda {
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
        self.samples = 0;
    }
}

/// An exponentially weighted moving average with variance and a hit counter: the
/// recency-weighted "current belief" view of a monitored stream.
///
/// The weighting follows the standard EWMA recurrences (`West 1979` incremental
/// form): `mean ← mean + α(x − mean)`, `var ← (1 − α)(var + α(x − mean)²)`. The hit
/// count is the confidence gate — callers should not act on the belief until
/// enough samples have arrived ([`confident`](Self::confident)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    variance: f64,
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
            variance: 0.0,
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
            self.variance = 0.0;
            return;
        }
        let delta = value - self.mean;
        self.mean += self.alpha * delta;
        self.variance = (1.0 - self.alpha) * (self.variance + self.alpha * delta * delta);
    }

    /// The recency-weighted mean, or 0 before any sample.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The recency-weighted variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// The recency-weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Number of samples absorbed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// True once at least `min_hits` samples have been absorbed — the hit-count
    /// confidence gate.
    pub fn confident(&self, min_hits: u64) -> bool {
        self.hits >= min_hits
    }

    /// Clears the average.
    pub fn reset(&mut self) {
        self.mean = 0.0;
        self.variance = 0.0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(warmup: u32) -> DriftConfig {
        DriftConfig {
            warmup,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn no_detection_during_warmup() {
        let mut detector = DriftDetector::new(config(16));
        for i in 0..15 {
            assert_eq!(detector.push(1000.0 * (i + 1) as f64), None);
            assert!(!detector.calibrated());
        }
        detector.push(5.0);
        assert!(detector.calibrated());
    }

    #[test]
    fn steady_noise_never_fires() {
        let mut detector = DriftDetector::new(config(32));
        // A deterministic bounded oscillation around 100.
        let sample = |i: u64| 100.0 + 8.0 * ((i as f64 * 0.7).sin() + (i as f64 * 0.31).cos());
        for i in 0..1000 {
            assert_eq!(detector.push(sample(i)), None, "fired at sample {i}");
        }
    }

    #[test]
    fn sustained_shift_is_detected_quickly_and_in_the_right_direction() {
        let mut up = DriftDetector::new(config(16));
        for i in 0..16 {
            up.push(100.0 + (i % 3) as f64);
        }
        let fired_after = (0..20).position(|_| up.push(160.0).is_some());
        assert!(
            fired_after.is_some_and(|n| n < 12),
            "a 60% shift must confirm within a dozen samples (got {fired_after:?})"
        );

        let mut down = DriftDetector::new(config(16));
        for i in 0..16 {
            down.push(100.0 + (i % 3) as f64);
        }
        let fired = (0..20).find_map(|_| down.push(55.0));
        assert_eq!(fired, Some(DriftDirection::Down));
    }

    #[test]
    fn single_spikes_are_absorbed() {
        let mut detector = DriftDetector::new(config(16));
        for i in 0..16 {
            detector.push(100.0 + (i % 4) as f64);
        }
        for round in 0..50 {
            // One wild outlier every 10 samples, otherwise in-regime.
            let value = if round % 10 == 0 { 400.0 } else { 101.0 };
            assert_eq!(detector.push(value), None, "fired at round {round}");
        }
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut detector = DriftDetector::new(config(4));
        for _ in 0..4 {
            detector.push(10.0);
        }
        let before = detector.samples_seen();
        assert_eq!(detector.push(f64::NAN), None);
        assert_eq!(detector.samples_seen(), before);
        assert_eq!(detector.pressure(), (0.0, 0.0));
    }

    #[test]
    fn reset_recalibrates() {
        let mut detector = DriftDetector::new(config(4));
        for _ in 0..4 {
            detector.push(10.0);
        }
        let fired = (0..30).find_map(|_| detector.push(30.0));
        assert!(fired.is_some());
        detector.reset();
        assert!(!detector.calibrated());
        // The new regime calibrates cleanly; staying there never fires.
        for i in 0..40 {
            assert_eq!(detector.push(30.0 + (i % 2) as f64), None);
        }
    }

    #[test]
    fn ewma_tracks_level_changes_with_recency_weighting() {
        let mut ewma = Ewma::new(0.3);
        assert!(!ewma.confident(1));
        for _ in 0..20 {
            ewma.push(100.0);
        }
        assert!((ewma.mean() - 100.0).abs() < 1e-9);
        assert!(ewma.confident(20));
        for _ in 0..20 {
            ewma.push(200.0);
        }
        assert!(
            ewma.mean() > 195.0,
            "after 20 samples at the new level the belief must have moved (got {})",
            ewma.mean()
        );
        ewma.push(f64::NAN);
        assert_eq!(ewma.hits(), 40, "NaN must not count as a hit");
        ewma.reset();
        assert_eq!(ewma.hits(), 0);
        assert_eq!(ewma.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "clamp_z must exceed delta")]
    fn detector_rejects_inverted_clamp() {
        DriftDetector::new(DriftConfig {
            clamp_z: 0.1,
            ..DriftConfig::default()
        });
    }
}
