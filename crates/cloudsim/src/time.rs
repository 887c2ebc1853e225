//! Simulated wall-clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in seconds since the start of the simulation.
///
/// `SimTime` is a thin newtype over `f64` seconds; it exists so that simulated timestamps
/// cannot be confused with durations, interference levels, or observed execution times.
///
/// ```
/// use dg_cloudsim::SimTime;
/// let t = SimTime::from_seconds(90.0) + 30.0;
/// assert_eq!(t.as_seconds(), 120.0);
/// assert_eq!(t.as_minutes(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a timestamp from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite.
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        Self(seconds)
    }

    /// Seconds since the simulation origin.
    pub fn as_seconds(&self) -> f64 {
        self.0
    }

    /// Minutes since the simulation origin.
    pub fn as_minutes(&self) -> f64 {
        self.0 / 60.0
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, seconds: f64) -> SimTime {
        SimTime::from_seconds(self.0 + seconds)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, seconds: f64) {
        *self = *self + seconds;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trip() {
        let t = SimTime::from_seconds(5400.0);
        assert_eq!(t.as_seconds(), 5400.0);
        assert_eq!(t.as_minutes(), 90.0);
    }

    #[test]
    fn add_and_subtract() {
        let a = SimTime::from_seconds(100.0);
        let b = a + 50.0;
        assert_eq!(b - a, 50.0);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 10.0;
        t += 5.0;
        assert_eq!(t.as_seconds(), 15.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SimTime::from_seconds(12.34).to_string(), "12.3s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        SimTime::from_seconds(-1.0);
    }
}
