//! Core-hour and wall-clock accounting for tuning runs.

use crate::vm::VmType;
use std::fmt;
use std::ops::{Add, AddAssign};

/// A quantity of compute, measured in core-hours (`vCPUs × hours`).
///
/// Core-hours are the resource metric used by Fig. 12 and Fig. 14 of the paper, where
/// every tuner's tuning cost is expressed as a percentage of the exhaustive search.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CoreHours(f64);

impl CoreHours {
    /// Zero compute.
    pub const ZERO: CoreHours = CoreHours(0.0);

    /// Creates a quantity from a raw core-hour value.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "core-hours must be finite and non-negative"
        );
        Self(value)
    }

    /// Computes the core-hours consumed by occupying `cores` cores for
    /// `wall_clock_seconds` seconds.
    pub fn from_usage(cores: usize, wall_clock_seconds: f64) -> Self {
        Self::new(cores as f64 * wall_clock_seconds.max(0.0) / 3600.0)
    }

    /// The raw value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Add for CoreHours {
    type Output = CoreHours;

    fn add(self, rhs: CoreHours) -> CoreHours {
        CoreHours(self.0 + rhs.0)
    }
}

impl AddAssign for CoreHours {
    fn add_assign(&mut self, rhs: CoreHours) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for CoreHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} core-hours", self.0)
    }
}

/// A point-in-time copy of a [`CostTracker`]'s counters, taken with
/// [`CostTracker::snapshot`].
///
/// Snapshots turn the "remember the counters at phase start, subtract at phase end"
/// bookkeeping that used to be hand-rolled at every call site into one API:
///
/// ```
/// use dg_cloudsim::{CostTracker, VmType};
/// let mut tracker = CostTracker::new();
/// let before = tracker.snapshot();
/// tracker.charge_serial(VmType::M5_8xlarge, 3600.0);
/// let delta = before.delta(&tracker);
/// assert!((delta.core_hours - 32.0).abs() < 1e-9);
/// assert_eq!(delta.runs, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSnapshot {
    core_hours: f64,
    wall_clock_seconds: f64,
    runs: u64,
}

impl CostSnapshot {
    /// The resources consumed between this snapshot and `now`.
    ///
    /// The subtraction is performed field by field exactly as the former hand-rolled
    /// call sites did, so refactoring onto snapshots is bit-for-bit neutral.
    pub fn delta(&self, now: &CostTracker) -> CostDelta {
        CostDelta {
            core_hours: now.core_hours() - self.core_hours,
            wall_clock_seconds: now.wall_clock_seconds() - self.wall_clock_seconds,
            runs: now.runs() - self.runs,
        }
    }
}

/// The resources consumed over an interval, as reported by [`CostSnapshot::delta`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostDelta {
    /// Core-hours consumed in the interval.
    pub core_hours: f64,
    /// Wall-clock seconds elapsed in the interval.
    pub wall_clock_seconds: f64,
    /// Runs/games recorded in the interval.
    pub runs: u64,
}

/// Accumulates the resources consumed by a tuning session.
///
/// Wall-clock time and core-hours are tracked separately because games can be played in
/// parallel on different VMs: parallel games add their core-hours but only the longest of
/// them extends the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostTracker {
    core_hours: CoreHours,
    wall_clock_seconds: f64,
    runs: u64,
}

impl CostTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a single run (or game) that occupied the whole VM for
    /// `wall_clock_seconds`, advancing the wall clock.
    pub fn charge_serial(&mut self, vm: VmType, wall_clock_seconds: f64) {
        self.core_hours += CoreHours::from_usage(vm.vcpus(), wall_clock_seconds);
        self.wall_clock_seconds += wall_clock_seconds.max(0.0);
        self.runs += 1;
    }

    /// Records a batch of games that ran concurrently on separate VMs of the same type:
    /// all of them are charged in core-hours, but the wall clock only advances by the
    /// longest one.
    pub fn charge_parallel(&mut self, vm: VmType, wall_clock_seconds: &[f64]) {
        let mut max_elapsed: f64 = 0.0;
        for elapsed in wall_clock_seconds {
            self.core_hours += CoreHours::from_usage(vm.vcpus(), *elapsed);
            max_elapsed = max_elapsed.max(*elapsed);
            self.runs += 1;
        }
        self.wall_clock_seconds += max_elapsed.max(0.0);
    }

    /// Captures the current counters so the resources consumed by a sub-phase can be
    /// measured with [`CostSnapshot::delta`] afterwards.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            core_hours: self.core_hours(),
            wall_clock_seconds: self.wall_clock_seconds(),
            runs: self.runs(),
        }
    }

    /// Merges another tracker into this one (used when sub-phases account independently).
    pub fn merge(&mut self, other: &CostTracker) {
        self.core_hours += other.core_hours;
        self.wall_clock_seconds += other.wall_clock_seconds;
        self.runs += other.runs;
    }

    /// Total compute consumed.
    pub fn core_hours(&self) -> f64 {
        self.core_hours.value()
    }

    /// Total wall-clock seconds of tuning.
    pub fn wall_clock_seconds(&self) -> f64 {
        self.wall_clock_seconds
    }

    /// Number of runs/games recorded.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Dollar cost at the VM's on-demand hourly price (single-VM approximation).
    pub fn dollar_cost(&self, vm: VmType) -> f64 {
        self.core_hours.value() / vm.vcpus() as f64 * vm.hourly_price_usd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_usage_scales_with_cores_and_time() {
        let a = CoreHours::from_usage(32, 3600.0);
        assert!((a.value() - 32.0).abs() < 1e-12);
        let b = CoreHours::from_usage(2, 1800.0);
        assert!((b.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_charges_advance_wall_clock() {
        let mut tracker = CostTracker::new();
        tracker.charge_serial(VmType::M5_8xlarge, 100.0);
        tracker.charge_serial(VmType::M5_8xlarge, 200.0);
        assert_eq!(tracker.wall_clock_seconds(), 300.0);
        assert_eq!(tracker.runs(), 2);
        assert!((tracker.core_hours() - 32.0 * 300.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_charges_advance_by_longest() {
        let mut tracker = CostTracker::new();
        tracker.charge_parallel(VmType::M5_8xlarge, &[100.0, 250.0, 50.0]);
        assert_eq!(tracker.wall_clock_seconds(), 250.0);
        assert_eq!(tracker.runs(), 3);
        assert!((tracker.core_hours() - 32.0 * 400.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = CostTracker::new();
        a.charge_serial(VmType::M5Large, 100.0);
        let mut b = CostTracker::new();
        b.charge_serial(VmType::M5Large, 300.0);
        a.merge(&b);
        assert_eq!(a.runs(), 2);
        assert_eq!(a.wall_clock_seconds(), 400.0);
    }

    #[test]
    fn dollar_cost_uses_hourly_price() {
        let mut tracker = CostTracker::new();
        tracker.charge_serial(VmType::M5_8xlarge, 3600.0);
        let cost = tracker.dollar_cost(VmType::M5_8xlarge);
        assert!((cost - VmType::M5_8xlarge.hourly_price_usd()).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_measures_intervals() {
        let mut tracker = CostTracker::new();
        tracker.charge_serial(VmType::M5_8xlarge, 100.0);
        let snapshot = tracker.snapshot();
        let zero = snapshot.delta(&tracker);
        assert_eq!(zero.core_hours, 0.0);
        assert_eq!(zero.runs, 0);
        tracker.charge_parallel(VmType::M5_8xlarge, &[50.0, 80.0]);
        let delta = snapshot.delta(&tracker);
        assert!((delta.core_hours - 32.0 * 130.0 / 3600.0).abs() < 1e-9);
        assert_eq!(delta.wall_clock_seconds, 80.0);
        assert_eq!(delta.runs, 2);
    }

    #[test]
    fn display_format() {
        assert_eq!(CoreHours::new(1.234).to_string(), "1.23 core-hours");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_core_hours_rejected() {
        CoreHours::new(-1.0);
    }
}
