//! Work-progress semantics per application.
//!
//! DarwinGame's early-termination rule needs to know "how much work" each co-located
//! execution has completed. The paper tracks a different observable per application
//! (requests served, frames processed, output bytes produced); the simulator works with
//! abstract fractions in `[0, 1]`, and this module supplies the translation used when
//! reporting progress in logs and examples.

use crate::app::Application;
use std::fmt;

/// The unit in which an application's work progress is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Requests completed out of a total (Redis: one million requests).
    Requests {
        /// Total number of requests in the benchmark.
        total: u64,
    },
    /// Video frames processed out of a total (FFmpeg).
    Frames {
        /// Total number of frames in the input video.
        total: u64,
    },
    /// Output bytes produced out of an expected total (GROMACS, LAMMPS).
    OutputBytes {
        /// Expected output size in bytes.
        total: u64,
    },
}

impl WorkUnit {
    /// The work unit used for each evaluated application (Sec. 4 of the paper).
    pub fn for_application(app: Application) -> Self {
        match app {
            Application::Redis => WorkUnit::Requests { total: 1_000_000 },
            Application::Ffmpeg => WorkUnit::Frames { total: 864_000 },
            Application::Gromacs => WorkUnit::OutputBytes {
                total: 3_500_000_000,
            },
            Application::Lammps => WorkUnit::OutputBytes {
                total: 2_200_000_000,
            },
        }
    }

    /// Total amount of work in this unit.
    pub fn total(&self) -> u64 {
        match self {
            WorkUnit::Requests { total }
            | WorkUnit::Frames { total }
            | WorkUnit::OutputBytes { total } => *total,
        }
    }

    /// Converts an abstract work fraction into concrete completed units.
    ///
    /// The fraction is clamped into `[0, 1]`.
    pub fn completed(&self, fraction: f64) -> u64 {
        (self.total() as f64 * fraction.clamp(0.0, 1.0)).round() as u64
    }

    /// Converts completed units back into a fraction of the total work.
    pub fn fraction(&self, completed: u64) -> f64 {
        (completed as f64 / self.total() as f64).clamp(0.0, 1.0)
    }

    /// Human-readable progress string, e.g. `"412500/1000000 requests"`.
    pub fn describe(&self, fraction: f64) -> String {
        let done = self.completed(fraction);
        match self {
            WorkUnit::Requests { total } => format!("{done}/{total} requests"),
            WorkUnit::Frames { total } => format!("{done}/{total} frames"),
            WorkUnit::OutputBytes { total } => format!("{done}/{total} output bytes"),
        }
    }
}

impl fmt::Display for WorkUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkUnit::Requests { total } => write!(f, "{total} requests"),
            WorkUnit::Frames { total } => write!(f, "{total} frames"),
            WorkUnit::OutputBytes { total } => write!(f, "{total} output bytes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_application_units_match_paper() {
        assert!(matches!(
            WorkUnit::for_application(Application::Redis),
            WorkUnit::Requests { total: 1_000_000 }
        ));
        assert!(matches!(
            WorkUnit::for_application(Application::Ffmpeg),
            WorkUnit::Frames { .. }
        ));
        assert!(matches!(
            WorkUnit::for_application(Application::Gromacs),
            WorkUnit::OutputBytes { .. }
        ));
    }

    #[test]
    fn completed_and_fraction_are_inverse() {
        let unit = WorkUnit::Requests { total: 1_000_000 };
        let done = unit.completed(0.25);
        assert_eq!(done, 250_000);
        assert!((unit.fraction(done) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fraction_is_clamped() {
        let unit = WorkUnit::Frames { total: 100 };
        assert_eq!(unit.completed(1.5), 100);
        assert_eq!(unit.completed(-0.5), 0);
        assert_eq!(unit.fraction(500), 1.0);
    }

    #[test]
    fn describe_mentions_unit() {
        let unit = WorkUnit::for_application(Application::Redis);
        assert!(unit.describe(0.5).contains("requests"));
        assert!(unit.to_string().contains("requests"));
    }
}
