//! Execution and consistency scores.
//!
//! Two quantities drive every decision in the tournament:
//!
//! * the **execution score** of a player in one game — the fraction of work it completed
//!   relative to the fastest player when the game ended (Fig. 5), and
//! * the **consistency score** of a player — the average of `1 / rank` over every game
//!   the player has participated in so far (Fig. 7), which rewards configurations whose
//!   good performance is *repeatable* under changing interference.

/// Per-player score history across all games played so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreBoard {
    execution_scores: Vec<f64>,
    ranks: Vec<usize>,
}

impl ScoreBoard {
    /// Creates an empty score board (no games played yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the result of one game: the player's execution score in that game and its
    /// 1-based rank among the game's players.
    ///
    /// # Panics
    ///
    /// Panics if `execution_score` is not within `[0, 1]` or `rank == 0`.
    pub fn record_game(&mut self, execution_score: f64, rank: usize) {
        assert!(
            (0.0..=1.0).contains(&execution_score),
            "execution score must be within [0, 1], got {execution_score}"
        );
        assert!(rank >= 1, "ranks are 1-based");
        self.execution_scores.push(execution_score);
        self.ranks.push(rank);
    }

    /// Number of games recorded.
    pub fn games_played(&self) -> usize {
        self.execution_scores.len()
    }

    /// Execution score of the most recent game, if any.
    pub fn latest_execution_score(&self) -> Option<f64> {
        self.execution_scores.last().copied()
    }

    /// Average execution score over all games (0 when no games were played).
    pub fn average_execution_score(&self) -> f64 {
        if self.execution_scores.is_empty() {
            0.0
        } else {
            self.execution_scores.iter().sum::<f64>() / self.execution_scores.len() as f64
        }
    }

    /// Consistency score: the average of `1 / rank` over all games (0 when no games were
    /// played). A player that always ranks first scores 1.0; one that alternates between
    /// rank 1 and rank 4 scores 0.625.
    pub fn consistency_score(&self) -> f64 {
        if self.ranks.is_empty() {
            0.0
        } else {
            self.ranks.iter().map(|r| 1.0 / *r as f64).sum::<f64>() / self.ranks.len() as f64
        }
    }

    /// Number of games this player has won (rank 1).
    pub fn wins(&self) -> usize {
        self.ranks.iter().filter(|r| **r == 1).count()
    }

    /// True when the player won its most recent `streak` games.
    pub fn winning_streak(&self, streak: usize) -> bool {
        if streak == 0 || self.ranks.len() < streak {
            return false;
        }
        self.ranks.iter().rev().take(streak).all(|r| *r == 1)
    }
}

/// Combines the two score rankings the way the global phase does: players are ranked by
/// execution score and by consistency score separately, and the *sum of the two rank
/// positions* decides the game (lowest sum wins). Either criterion can be disabled to
/// reproduce the Fig. 16 ablations.
///
/// Returns the indices of `players` ordered from best (winner) to worst.
pub fn combined_ranking(
    execution_scores: &[f64],
    consistency_scores: &[f64],
    use_execution: bool,
    use_consistency: bool,
) -> Vec<usize> {
    assert_eq!(
        execution_scores.len(),
        consistency_scores.len(),
        "score slices must have equal length"
    );
    let n = execution_scores.len();
    let exec_rank = rank_descending(execution_scores);
    let cons_rank = rank_descending(consistency_scores);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|i| {
        let mut key = 0usize;
        if use_execution {
            key += exec_rank[*i];
        }
        if use_consistency {
            key += cons_rank[*i];
        }
        if !use_execution && !use_consistency {
            // Degenerate ablation: fall back to execution rank so the result is total.
            key = exec_rank[*i];
        }
        // Ties on the summed rank are broken by player index for determinism.
        key * n + *i
    });
    order
}

/// 1-based ranks of values sorted descending (highest value gets rank 1). Ties are broken
/// by index for determinism.
pub fn rank_descending(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|a, b| {
        values[*b]
            .partial_cmp(&values[*a])
            .expect("scores must not be NaN")
            .then(a.cmp(b))
    });
    let mut ranks = vec![0usize; values.len()];
    for (position, index) in order.iter().enumerate() {
        ranks[*index] = position + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_score_matches_paper_example() {
        // Fig. 7: ranks 1, 4, 1, 3 give (1 + 1/4 + 1 + 1/3) / 4.
        let mut board = ScoreBoard::new();
        for (score, rank) in [(1.0, 1), (0.4, 4), (1.0, 1), (0.6, 3)] {
            board.record_game(score, rank);
        }
        let expected = (1.0 + 0.25 + 1.0 + 1.0 / 3.0) / 4.0;
        assert!((board.consistency_score() - expected).abs() < 1e-12);
        assert_eq!(board.wins(), 2);
    }

    #[test]
    fn empty_board_is_zero() {
        let board = ScoreBoard::new();
        assert_eq!(board.average_execution_score(), 0.0);
        assert_eq!(board.consistency_score(), 0.0);
        assert_eq!(board.games_played(), 0);
        assert!(!board.winning_streak(1));
    }

    #[test]
    fn winning_streak_requires_consecutive_wins() {
        let mut board = ScoreBoard::new();
        board.record_game(1.0, 1);
        board.record_game(0.8, 2);
        board.record_game(1.0, 1);
        assert!(!board.winning_streak(2));
        board.record_game(1.0, 1);
        assert!(board.winning_streak(2));
        assert!(!board.winning_streak(3));
    }

    #[test]
    fn rank_descending_is_one_based_and_tie_stable() {
        let ranks = rank_descending(&[0.5, 0.9, 0.5, 0.1]);
        assert_eq!(ranks, vec![2, 1, 3, 4]);
    }

    #[test]
    fn combined_ranking_sums_both_criteria() {
        // Player 0: best execution, poor consistency. Player 1: decent on both.
        // Player 2: poor on both.
        let execution = [1.0, 0.9, 0.5];
        let consistency = [0.3, 0.9, 0.4];
        let order = combined_ranking(&execution, &consistency, true, true);
        assert_eq!(
            order[0], 1,
            "balanced player should win the combined ranking"
        );
        assert_eq!(order[2], 2);
    }

    #[test]
    fn combined_ranking_respects_ablation_flags() {
        let execution = [1.0, 0.9];
        let consistency = [0.1, 0.9];
        let exec_only = combined_ranking(&execution, &consistency, true, false);
        assert_eq!(exec_only[0], 0);
        let consistency_only = combined_ranking(&execution, &consistency, false, true);
        assert_eq!(consistency_only[0], 1);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_execution_score_rejected() {
        ScoreBoard::new().record_game(1.5, 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_rank_rejected() {
        ScoreBoard::new().record_game(0.5, 0);
    }
}
