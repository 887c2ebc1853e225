//! Tournament players.

use crate::score::ScoreBoard;
use dg_cloudsim::ExecutionSpec;
use dg_workloads::{ConfigId, Workload};

/// A player in the tournament: one tuning configuration plus its score record.
///
/// A player is a small `Copy` value: its [`ScoreBoard`] keeps running sums rather than a
/// history, so phases copy players between brackets instead of moving heap data. A
/// player that won its region also carries the execution spec the region looked up
/// for it, so the global phase plays it without computing the spec again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Player {
    config: ConfigId,
    origin_region: Option<usize>,
    scores: ScoreBoard,
    spec: Option<ExecutionSpec>,
}

impl Player {
    /// Creates a player for a configuration, optionally remembering which search-space
    /// region it came from (used by the global phase to build diverse groups).
    pub fn new(config: ConfigId, origin_region: Option<usize>) -> Self {
        Self {
            config,
            origin_region,
            scores: ScoreBoard::new(),
            spec: None,
        }
    }

    /// A regional winner: its record from the region and the spec the region looked up
    /// for it, which must be `workload.spec(config)` of the tournament's workload.
    pub(crate) fn regional_winner(
        config: ConfigId,
        region: usize,
        scores: ScoreBoard,
        spec: Option<ExecutionSpec>,
    ) -> Self {
        Self {
            config,
            origin_region: Some(region),
            scores,
            spec,
        }
    }

    /// The configuration this player represents.
    pub fn config(&self) -> ConfigId {
        self.config
    }

    /// The search-space region the player was drawn from, if known.
    pub fn origin_region(&self) -> Option<usize> {
        self.origin_region
    }

    /// The player's execution spec: the one it carries from its region, or else
    /// `workload.spec(config)`.
    pub(crate) fn spec(&self, workload: &Workload) -> ExecutionSpec {
        self.spec.unwrap_or_else(|| workload.spec(self.config))
    }

    /// The player's score record.
    pub fn scores(&self) -> &ScoreBoard {
        &self.scores
    }

    /// Mutable access to the score record (used by the game driver).
    pub fn scores_mut(&mut self) -> &mut ScoreBoard {
        &mut self.scores
    }

    /// Average execution score over all games played.
    pub fn average_execution_score(&self) -> f64 {
        self.scores.average_execution_score()
    }

    /// Consistency score over all games played.
    pub fn consistency_score(&self) -> f64 {
        self.scores.consistency_score()
    }
}

#[cfg(test)]
impl Player {
    /// Every field as 64-bit words, floats as their bits: the configuration, the origin
    /// region, the score board and the carried spec.
    pub(crate) fn to_words(self) -> Vec<u64> {
        let origin = self.origin_region.map_or(u64::MAX, |region| region as u64);
        let mut words = vec![self.config, origin];
        words.extend(self.scores.to_words());
        match self.spec {
            Some(spec) => {
                words.extend([1, spec.base_time().to_bits(), spec.sensitivity().to_bits()])
            }
            None => words.push(0),
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_player_has_no_history() {
        let player = Player::new(42, Some(3));
        assert_eq!(player.config(), 42);
        assert_eq!(player.origin_region(), Some(3));
        assert_eq!(player.scores().games_played(), 0);
        assert_eq!(player.average_execution_score(), 0.0);
    }

    #[test]
    fn scores_accumulate_through_mutable_access() {
        let mut player = Player::new(7, None);
        player.scores_mut().record_game(1.0, 1);
        player.scores_mut().record_game(0.5, 2);
        assert_eq!(player.scores().games_played(), 2);
        assert!((player.average_execution_score() - 0.75).abs() < 1e-12);
        assert!((player.consistency_score() - 0.75).abs() < 1e-12);
    }
}
