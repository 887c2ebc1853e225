//! Execution and consistency scores.
//!
//! Two quantities drive every decision in the tournament:
//!
//! * the **execution score** of a player in one game — the fraction of work it completed
//!   relative to the fastest player when the game ended (Fig. 5), and
//! * the **consistency score** of a player — the average of `1 / rank` over every game
//!   the player has participated in so far (Fig. 7), which rewards configurations whose
//!   good performance is *repeatable* under changing interference.

/// A player's score record across all games played so far, kept as running sums.
///
/// The board holds the game count, the sum of execution scores, the sum of `1 / rank`
/// and the latest execution score, so a player is a fixed-size value and every accessor is O(1). The averages are exactly
/// the ones a stored history would give: each sum starts at `-0.0` and adds one game at
/// a time in recording order, which is the fold `Iterator::sum::<f64>()` performs over
/// the history, and the mean divides by the same `games as f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBoard {
    games: usize,
    execution_sum: f64,
    inverse_rank_sum: f64,
    latest_execution_score: f64,
}

impl Default for ScoreBoard {
    fn default() -> Self {
        Self {
            games: 0,
            // `-0.0` is the additive identity `Iterator::sum::<f64>()` starts from.
            execution_sum: -0.0,
            inverse_rank_sum: -0.0,
            latest_execution_score: 0.0,
        }
    }
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
        self.games += 1;
        self.execution_sum += execution_score;
        self.inverse_rank_sum += 1.0 / rank as f64;
        self.latest_execution_score = execution_score;
    }

    /// Number of games recorded.
    pub fn games_played(&self) -> usize {
        self.games
    }

    /// Execution score of the most recent game, if any.
    pub fn latest_execution_score(&self) -> Option<f64> {
        (self.games > 0).then_some(self.latest_execution_score)
    }

    /// Average execution score over all games (0 when no games were played).
    pub fn average_execution_score(&self) -> f64 {
        if self.games == 0 {
            0.0
        } else {
            self.execution_sum / self.games as f64
        }
    }

    /// Consistency score: the average of `1 / rank` over all games (0 when no games were
    /// played). A player that always ranks first scores 1.0; one that alternates between
    /// rank 1 and rank 4 scores 0.625.
    pub fn consistency_score(&self) -> f64 {
        if self.games == 0 {
            0.0
        } else {
            self.inverse_rank_sum / self.games as f64
        }
    }
}

/// Ranks one game after another into buffers it reuses, so a tournament phase ranks
/// its games without allocating. Every game of the tournament is ranked through one.
///
/// A game's **execution ranking** orders its players by execution score, highest
/// first, with 1-based ranks; ties go to the lower player index, for determinism. The
/// global phase then **combines** it with the players' consistency scores: each player
/// is ranked by execution score and by consistency score separately, and the lowest
/// *sum of the two rank positions* wins (ties again to the lower index). Either
/// criterion can be switched off to reproduce the Fig. 16 ablations.
#[derive(Debug, Default)]
pub(crate) struct Ranker {
    /// Player indices ordered by the last [`Ranker::rank`], best first.
    standings: Vec<usize>,
    /// 1-based execution ranks from the last [`Ranker::rank`].
    ranks: Vec<usize>,
    consistency_order: Vec<usize>,
    consistency_ranks: Vec<usize>,
    combined: Vec<usize>,
}

impl Ranker {
    /// Ranks `execution_scores`, highest first, and returns each player's 1-based rank.
    pub(crate) fn rank(&mut self, execution_scores: &[f64]) -> &[usize] {
        rank_into(execution_scores, &mut self.standings, &mut self.ranks);
        &self.ranks
    }

    /// Player indices from best to worst execution score, as last ranked.
    pub(crate) fn standings(&self) -> &[usize] {
        &self.standings
    }

    /// The combined order of the last ranked game, best first, given its players'
    /// consistency scores.
    pub(crate) fn combined(
        &mut self,
        consistency_scores: &[f64],
        use_execution: bool,
        use_consistency: bool,
    ) -> &[usize] {
        rank_into(
            consistency_scores,
            &mut self.consistency_order,
            &mut self.consistency_ranks,
        );
        let (exec_rank, cons_rank) = (&self.ranks, &self.consistency_ranks);
        let n = exec_rank.len();
        self.combined.clear();
        self.combined.extend(0..n);
        // Keys are distinct (the index is folded in), so the unstable sort gives the
        // stable sort's order.
        self.combined.sort_unstable_by_key(|i| {
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
        &self.combined
    }
}

/// Ranks `values`, highest first, into reused buffers: `order` receives the indices
/// best first (ties by index) and `ranks` each index's 1-based rank.
fn rank_into(values: &[f64], order: &mut Vec<usize>, ranks: &mut Vec<usize>) {
    order.clear();
    order.extend(0..values.len());
    // The index tie-break makes the order total, so the unstable sort gives the stable
    // sort's order.
    order.sort_unstable_by(|a, b| {
        values[*b]
            .partial_cmp(&values[*a])
            .expect("scores must not be NaN")
            .then(a.cmp(b))
    });
    ranks.clear();
    ranks.resize(values.len(), 0);
    for (position, index) in order.iter().enumerate() {
        ranks[*index] = position + 1;
    }
}

#[cfg(test)]
impl ScoreBoard {
    /// Every field as a 64-bit word, floats as their bits.
    pub(crate) fn to_words(self) -> [u64; 4] {
        [
            self.games as u64,
            self.execution_sum.to_bits(),
            self.inverse_rank_sum.to_bits(),
            self.latest_execution_score.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::SimRng;

    /// The score board as it was before it kept running sums: the whole history,
    /// re-summed on every read.
    #[derive(Default)]
    struct HistoryBoard {
        execution_scores: Vec<f64>,
        ranks: Vec<usize>,
    }

    impl HistoryBoard {
        fn record_game(&mut self, execution_score: f64, rank: usize) {
            self.execution_scores.push(execution_score);
            self.ranks.push(rank);
        }

        fn average_execution_score(&self) -> f64 {
            if self.execution_scores.is_empty() {
                0.0
            } else {
                self.execution_scores.iter().sum::<f64>() / self.execution_scores.len() as f64
            }
        }

        fn consistency_score(&self) -> f64 {
            if self.ranks.is_empty() {
                0.0
            } else {
                self.ranks.iter().map(|r| 1.0 / *r as f64).sum::<f64>() / self.ranks.len() as f64
            }
        }
    }

    fn assert_boards_agree(board: &ScoreBoard, history: &HistoryBoard, case: usize) {
        let games = history.ranks.len();
        let label = format!("case {case} after {games} games");
        assert_eq!(board.games_played(), games, "{label}");
        assert_eq!(
            board.latest_execution_score().map(f64::to_bits),
            history.execution_scores.last().map(|s| s.to_bits()),
            "{label}"
        );
        assert_eq!(
            board.average_execution_score().to_bits(),
            history.average_execution_score().to_bits(),
            "{label}"
        );
        assert_eq!(
            board.consistency_score().to_bits(),
            history.consistency_score().to_bits(),
            "{label}"
        );
    }

    #[test]
    fn running_sums_match_the_stored_history_bit_for_bit() {
        let mut rng = SimRng::new(0x5b).derive("score-board-battery");
        for case in 0..2_000 {
            let mut board = ScoreBoard::new();
            let mut history = HistoryBoard::default();
            assert_boards_agree(&board, &history, case);
            for _ in 0..rng.index(41) {
                let score = match rng.index(3) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.uniform(),
                };
                // Rank 1 often, as a game winner's.
                let rank = if rng.uniform() < 0.4 {
                    1
                } else {
                    1 + rng.index(33)
                };
                board.record_game(score, rank);
                history.record_game(score, rank);
                assert_boards_agree(&board, &history, case);
            }
        }
    }

    #[test]
    fn consistency_score_matches_paper_example() {
        // Fig. 7: ranks 1, 4, 1, 3 give (1 + 1/4 + 1 + 1/3) / 4.
        let mut board = ScoreBoard::new();
        for (score, rank) in [(1.0, 1), (0.4, 4), (1.0, 1), (0.6, 3)] {
            board.record_game(score, rank);
        }
        let expected = (1.0 + 0.25 + 1.0 + 1.0 / 3.0) / 4.0;
        assert!((board.consistency_score() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_board_is_zero() {
        let board = ScoreBoard::new();
        assert_eq!(board.average_execution_score(), 0.0);
        assert_eq!(board.consistency_score(), 0.0);
        assert_eq!(board.games_played(), 0);
    }

    #[test]
    fn ranks_are_one_based_and_tie_stable() {
        let mut ranker = Ranker::default();
        assert_eq!(ranker.rank(&[0.5, 0.9, 0.5, 0.1]), [2, 1, 3, 4]);
        assert_eq!(ranker.standings(), [1, 0, 2, 3]);
        // The buffers are reused: a smaller game ranks cleanly after a larger one.
        assert_eq!(ranker.rank(&[0.2, 0.7]), [2, 1]);
        assert_eq!(ranker.standings(), [1, 0]);
    }

    #[test]
    fn combined_order_sums_both_criteria() {
        // Player 0: best execution, poor consistency. Player 1: decent on both.
        // Player 2: poor on both.
        let mut ranker = Ranker::default();
        ranker.rank(&[1.0, 0.9, 0.5]);
        let order = ranker.combined(&[0.3, 0.9, 0.4], true, true);
        assert_eq!(
            order[0], 1,
            "balanced player should win the combined ranking"
        );
        assert_eq!(order[2], 2);
    }

    #[test]
    fn combined_order_respects_ablation_flags() {
        let mut ranker = Ranker::default();
        ranker.rank(&[1.0, 0.9]);
        let consistency = [0.1, 0.9];
        assert_eq!(ranker.combined(&consistency, true, false)[0], 0);
        assert_eq!(ranker.combined(&consistency, false, true)[0], 1);
        // With both criteria off the execution ranking decides.
        assert_eq!(ranker.combined(&consistency, false, false)[0], 0);
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
