//! The champion monitor: recency-weighted tracking plus change-point detection over a
//! deployed configuration's observed execution times.
//!
//! A [`ChampionMonitor`] combines three defences against the three ways a noisy
//! deployment stream can mislead a retuning loop:
//!
//! * an [`Ewma`] tracks the *current belief* about the champion's performance with
//!   recency weighting; its mean is the **level gate**: a detector firing is only
//!   reported while the belief itself sits outside the detector's frozen reference
//!   band;
//! * a **transient filter** holds any sample deviating wildly from the calibrated
//!   reference back for one step: a lone spike (preemption retry, cache cold start) is
//!   dropped, while two consecutive deviations to the same side feed through as the
//!   start of a genuine level change;
//! * a [`DriftDetector`] (two-sided CUSUM over the filtered stream) decides when the
//!   accumulated evidence amounts to a *regime change* rather than noise.

use dg_campaign::{MONITOR_ALPHA, TRANSIENT_SIGMA};
use dg_stats::{DriftDetector, DriftDirection, Ewma};

/// Watches one deployed champion's observation stream and reports confirmed regime
/// changes, at the retune loop's production settings.
///
/// The [`DriftDetector`] calibrates on the first `DRIFT_WARMUP` (32) samples, with a
/// reference deviation of at least `DRIFT_MIN_REL_STD` (18%) of the mean, and fires on
/// a CUSUM mass above `DRIFT_LAMBDA` (20) at a slack of `DRIFT_DELTA` (0.75σ). After
/// calibration, a sample more than [`TRANSIENT_SIGMA`] (4) reference deviations from
/// the reference mean is held back one step, and a firing is reported only while the
/// EWMA belief, weighted [`MONITOR_ALPHA`] (0.2) towards each new sample, lies more
/// than one reference deviation from the reference mean.
///
/// ```
/// use dg_serve::ChampionMonitor;
/// use dg_stats::{DriftDirection, DRIFT_WARMUP};
///
/// let mut monitor = ChampionMonitor::new();
/// for i in 0..DRIFT_WARMUP {
///     assert_eq!(monitor.push(100.0 + (i % 2) as f64), None);
/// }
/// // One wild spike is filtered as a transient...
/// assert_eq!(monitor.push(400.0), None);
/// assert_eq!(monitor.push(101.0), None);
/// // ...but a sustained slowdown is confirmed.
/// let fired = (0..20).find_map(|_| monitor.push(170.0));
/// assert_eq!(fired, Some(DriftDirection::Up));
/// ```
#[derive(Debug, Clone)]
pub struct ChampionMonitor {
    ewma: Ewma,
    detector: DriftDetector,
    /// A deviant sample held back one step by the transient filter.
    pending: Option<f64>,
}

impl Default for ChampionMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl ChampionMonitor {
    /// Creates a monitor with an uncalibrated detector.
    pub fn new() -> Self {
        Self {
            ewma: Ewma::new(MONITOR_ALPHA),
            detector: DriftDetector::new(),
            pending: None,
        }
    }

    /// Feeds one observation; returns the drift direction the first time a regime
    /// change is confirmed *and* the belief has left the reference band. NaN samples
    /// are ignored.
    pub fn push(&mut self, value: f64) -> Option<DriftDirection> {
        if value.is_nan() {
            return None;
        }
        let Some(band) = self.detector.reference_band() else {
            // During calibration every sample is reference material; the detector
            // cannot fire yet, so the filter has nothing to protect.
            self.ewma.push(value);
            self.detector.push(value);
            return None;
        };
        let (mean, std) = band;
        let deviant = (value - mean).abs() > TRANSIENT_SIGMA * std;
        match self.pending.take() {
            Some(held) if deviant && (held > mean) == (value > mean) => {
                // Two consecutive deviations to the same side: a level change, not a
                // transient. Release the held sample first to keep stream order.
                self.ewma.push(held);
                let first = self.detector.push(held);
                self.ewma.push(value);
                let second = self.detector.push(value);
                self.level_gate(second.or(first), band)
            }
            _ => {
                // Any held sample not confirmed by a same-side deviation was a lone
                // transient: drop it.
                if deviant {
                    self.pending = Some(value);
                    return None;
                }
                self.ewma.push(value);
                let fired = self.detector.push(value);
                self.level_gate(fired, band)
            }
        }
    }

    /// Clears all state — belief, detector, and filter — so the *current* regime
    /// becomes the new reference. Call after acting on a confirmed drift (a retune).
    pub fn reset(&mut self) {
        self.ewma.reset();
        self.detector.reset();
        self.pending = None;
    }

    /// Passes a firing only while the recency-weighted belief has itself left the
    /// reference band `(mean, std)`: CUSUM evidence without a level change in the
    /// belief is the signature of a slow stationary wave, not a regime change.
    fn level_gate(
        &self,
        fired: Option<DriftDirection>,
        (mean, std): (f64, f64),
    ) -> Option<DriftDirection> {
        fired.filter(|_| (self.ewma.mean() - mean).abs() > std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_stats::DRIFT_WARMUP;

    fn calibrated() -> ChampionMonitor {
        let mut monitor = ChampionMonitor::new();
        for i in 0..DRIFT_WARMUP {
            assert_eq!(monitor.push(100.0 + (i % 3) as f64), None);
        }
        assert!(monitor.detector.reference_band().is_some());
        monitor
    }

    #[test]
    fn steady_wobble_never_fires() {
        let mut monitor = ChampionMonitor::new();
        let sample = |i: u64| 100.0 + 6.0 * ((i as f64 * 0.9).sin() - (i as f64 * 0.17).cos());
        for i in 0..600 {
            assert_eq!(monitor.push(sample(i)), None, "fired at sample {i}");
            assert_eq!(monitor.pending, None, "sample {i} was held as a transient");
        }
    }

    #[test]
    fn lone_spikes_are_filtered_as_transients() {
        let mut monitor = calibrated();
        for round in 0..60 {
            let spike = round % 15 == 7;
            let value = if spike { 500.0 } else { 101.0 };
            assert_eq!(monitor.push(value), None, "fired at round {round}");
            // A spike is held back one step, then dropped: it never reaches the belief.
            let held = spike.then_some(500.0);
            assert_eq!(monitor.pending, held, "round {round}");
            assert!(
                monitor.ewma.mean() < 102.0,
                "round {round} moved the belief"
            );
        }
    }

    #[test]
    fn sustained_shift_fires_despite_the_filter() {
        let mut monitor = calibrated();
        let fired = (0..24).find_map(|_| monitor.push(180.0));
        assert_eq!(fired, Some(dg_stats::DriftDirection::Up));
    }

    #[test]
    fn downward_shift_fires_down() {
        let mut monitor = calibrated();
        let fired = (0..24).find_map(|_| monitor.push(40.0));
        assert_eq!(fired, Some(dg_stats::DriftDirection::Down));
    }

    #[test]
    fn reset_recalibrates_to_the_new_regime() {
        let mut monitor = calibrated();
        assert!((0..24).find_map(|_| monitor.push(200.0)).is_some());
        monitor.reset();
        assert_eq!(monitor.detector.reference_band(), None);
        // The new level calibrates as the reference; staying there never fires.
        for i in 0..100 {
            assert_eq!(monitor.push(200.0 + (i % 2) as f64), None);
        }
    }

    #[test]
    fn nan_is_ignored() {
        let mut monitor = calibrated();
        let mut twin = monitor.clone();
        assert_eq!(monitor.push(f64::NAN), None);
        assert_eq!(monitor.ewma, twin.ewma);
        // The monitor that saw the NaN confirms a shift exactly when its twin does.
        for step in 0..24 {
            assert_eq!(monitor.push(180.0), twin.push(180.0), "step {step}");
        }
    }
}
