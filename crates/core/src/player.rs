//! Tournament players.

use crate::score::ScoreBoard;
use dg_workloads::ConfigId;

/// A player in the tournament: one tuning configuration plus its score history.
#[derive(Debug, Clone, PartialEq)]
pub struct Player {
    config: ConfigId,
    origin_region: Option<usize>,
    scores: ScoreBoard,
}

impl Player {
    /// Creates a player for a configuration, optionally remembering which search-space
    /// region it came from (used by the global phase to build diverse groups).
    pub fn new(config: ConfigId, origin_region: Option<usize>) -> Self {
        Self {
            config,
            origin_region,
            scores: ScoreBoard::new(),
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

    /// The player's score history.
    pub fn scores(&self) -> &ScoreBoard {
        &self.scores
    }

    /// Mutable access to the score history (used by the game driver).
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

/// Turns `players` into a take-once lookup by index, so players that advance are moved
/// rather than cloned.
///
/// The returned closure panics if asked for the same index twice.
pub(crate) fn take_by_index(players: Vec<Player>) -> impl FnMut(usize) -> Player {
    let mut seats: Vec<Option<Player>> = players.into_iter().map(Some).collect();
    move |i| seats[i].take().expect("each player advances at most once")
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
