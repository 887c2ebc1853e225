//! Execution specifications: what the cloud simulator needs to know about one run.

/// The intrinsic performance characteristics of one application execution with one
/// tuning configuration.
///
/// The simulator never looks at the tuning parameters themselves; the `workloads` crate
/// maps a configuration to an `ExecutionSpec`, and everything downstream (noise,
/// co-location, progress tracking) operates on these two numbers:
///
/// * `base_time` — execution time in seconds on a dedicated, interference-free node, and
/// * `sensitivity` — how strongly interference inflates the execution time
///   (`observed = base * (1 + sensitivity * effective_interference)`).
///
/// ```
/// use dg_cloudsim::ExecutionSpec;
/// let spec = ExecutionSpec::new(230.0, 0.8);
/// assert_eq!(spec.base_time(), 230.0);
/// assert!((spec.slowdown(0.5) - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionSpec {
    base_time: f64,
    sensitivity: f64,
}

impl ExecutionSpec {
    /// Creates a spec from a dedicated-environment execution time (seconds) and an
    /// interference sensitivity (typically in `[0, 1.5]`).
    ///
    /// # Panics
    ///
    /// Panics if `base_time` is not strictly positive and finite, or if `sensitivity` is
    /// negative or not finite.
    pub fn new(base_time: f64, sensitivity: f64) -> Self {
        assert!(
            base_time.is_finite() && base_time > 0.0,
            "base_time must be positive and finite, got {base_time}"
        );
        assert!(
            sensitivity.is_finite() && sensitivity >= 0.0,
            "sensitivity must be non-negative and finite, got {sensitivity}"
        );
        Self {
            base_time,
            sensitivity,
        }
    }

    /// Execution time on a dedicated (interference-free) node, in seconds.
    pub fn base_time(&self) -> f64 {
        self.base_time
    }

    /// Interference sensitivity.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The multiplicative slowdown experienced under an effective interference level.
    pub fn slowdown(&self, effective_interference: f64) -> f64 {
        1.0 + self.sensitivity * effective_interference.max(0.0)
    }

    /// Instantaneous progress rate (fraction of total work per second) under an effective
    /// interference level.
    pub fn progress_rate(&self, effective_interference: f64) -> f64 {
        1.0 / (self.base_time * self.slowdown(effective_interference))
    }

    /// Returns a copy with the base time scaled by `factor` (used for VM speed factors).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite"
        );
        Self::new(self.base_time * factor, self.sensitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_without_interference() {
        let spec = ExecutionSpec::new(100.0, 0.7);
        assert_eq!(spec.slowdown(0.0), 1.0);
        assert_eq!(spec.progress_rate(0.0), 1.0 / 100.0);
    }

    #[test]
    fn slowdown_grows_with_interference_and_sensitivity() {
        let fragile = ExecutionSpec::new(100.0, 1.0);
        let robust = ExecutionSpec::new(100.0, 0.1);
        assert!(fragile.slowdown(0.5) > robust.slowdown(0.5));
        assert!(fragile.progress_rate(0.5) < robust.progress_rate(0.5));
    }

    #[test]
    fn negative_interference_is_clamped() {
        let spec = ExecutionSpec::new(50.0, 0.5);
        assert_eq!(spec.slowdown(-3.0), 1.0);
    }

    #[test]
    fn scaled_changes_base_time_only() {
        let spec = ExecutionSpec::new(200.0, 0.4).scaled(0.5);
        assert_eq!(spec.base_time(), 100.0);
        assert_eq!(spec.sensitivity(), 0.4);
    }

    #[test]
    #[should_panic(expected = "base_time must be positive")]
    fn zero_base_time_rejected() {
        ExecutionSpec::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "sensitivity must be non-negative")]
    fn negative_sensitivity_rejected() {
        ExecutionSpec::new(10.0, -0.1);
    }
}
