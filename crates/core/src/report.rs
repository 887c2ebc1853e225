//! Tournament reports.

use dg_tuners::{SampleRecord, TuningOutcome};
use dg_workloads::ConfigId;

/// Summary of one tournament phase, for logging and the examples.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name ("regional", "global", "playoffs+final").
    pub name: String,
    /// Number of players entering the phase.
    pub players_in: usize,
    /// Number of players leaving the phase.
    pub players_out: usize,
    /// Number of games played in the phase.
    pub games: usize,
    /// Core-hours consumed by the phase.
    pub core_hours: f64,
}

/// The full result of a DarwinGame tournament.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentReport {
    /// The winning tuning configuration.
    pub champion: ConfigId,
    /// The configuration that lost the final, if a final was played.
    pub runner_up: Option<ConfigId>,
    /// Observed execution time of the champion in the final game (seconds).
    pub champion_observed_time: f64,
    /// Number of regional winners that entered the global phase.
    pub regional_winners: usize,
    /// Total number of games played across all phases.
    pub games_played: usize,
    /// Total core-hours consumed by the tournament.
    pub core_hours: f64,
    /// Total wall-clock seconds of tuning (phases in parallel counted once).
    pub wall_clock_seconds: f64,
    /// Per-phase summaries, in play order.
    pub phases: Vec<PhaseSummary>,
}

impl TournamentReport {
    /// Converts the report into the common [`TuningOutcome`] shape used by every tuner,
    /// so DarwinGame can be compared head-to-head with the baselines.
    pub fn to_outcome(&self) -> TuningOutcome {
        TuningOutcome {
            tuner: "DarwinGame".to_string(),
            chosen: self.champion,
            believed_time: self.champion_observed_time,
            samples: self.games_played,
            core_hours: self.core_hours,
            wall_clock_seconds: self.wall_clock_seconds,
            history: vec![SampleRecord {
                config: self.champion,
                observed_time: self.champion_observed_time,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_converts_to_outcome() {
        let report = TournamentReport {
            champion: 99,
            runner_up: Some(7),
            champion_observed_time: 245.0,
            regional_winners: 12,
            games_played: 40,
            core_hours: 55.0,
            wall_clock_seconds: 4000.0,
            phases: vec![PhaseSummary {
                name: "regional".into(),
                players_in: 320,
                players_out: 12,
                games: 30,
                core_hours: 40.0,
            }],
        };
        let outcome = report.to_outcome();
        assert_eq!(outcome.tuner, "DarwinGame");
        assert_eq!(outcome.chosen, 99);
        assert_eq!(outcome.samples, 40);
        assert_eq!(outcome.core_hours, 55.0);
        assert_eq!(outcome.history.len(), 1);
    }
}
