//! Tuning outcomes and sample records.

use dg_workloads::ConfigId;

/// One configuration evaluation performed during tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// The evaluated configuration.
    pub config: ConfigId,
    /// The observed execution time in the (noisy) evaluation environment, seconds.
    pub observed_time: f64,
}

/// The result of one tuning session.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// Name of the tuner that produced this outcome.
    pub tuner: String,
    /// The configuration the tuner finally selected.
    pub chosen: ConfigId,
    /// The observed execution time of the chosen configuration during tuning (the value
    /// the tuner believed when it made its choice), seconds.
    pub believed_time: f64,
    /// Number of configuration evaluations (samples) performed.
    pub samples: usize,
    /// Core-hours consumed by tuning.
    pub core_hours: f64,
    /// Wall-clock seconds of tuning.
    pub wall_clock_seconds: f64,
    /// Every sample taken, in order.
    pub history: Vec<SampleRecord>,
}

impl TuningOutcome {
    /// The best (lowest) observed time among all samples taken, if any.
    pub fn best_observed(&self) -> Option<SampleRecord> {
        self.history.iter().copied().min_by(|a, b| {
            a.observed_time
                .partial_cmp(&b.observed_time)
                .expect("no NaN")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> TuningOutcome {
        TuningOutcome {
            tuner: "test".into(),
            chosen: 7,
            believed_time: 120.0,
            samples: 3,
            core_hours: 1.5,
            wall_clock_seconds: 300.0,
            history: vec![
                SampleRecord {
                    config: 1,
                    observed_time: 200.0,
                },
                SampleRecord {
                    config: 7,
                    observed_time: 120.0,
                },
                SampleRecord {
                    config: 1,
                    observed_time: 210.0,
                },
            ],
        }
    }

    #[test]
    fn best_observed_finds_minimum() {
        let best = outcome().best_observed().unwrap();
        assert_eq!(best.config, 7);
        assert_eq!(best.observed_time, 120.0);
    }

    #[test]
    fn empty_history_has_no_best() {
        let mut o = outcome();
        o.history.clear();
        assert!(o.best_observed().is_none());
    }
}
