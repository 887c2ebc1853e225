//! Playing a single game: a co-located execution of several configurations.

use crate::score::rank_descending;
use dg_exec::{ExecutionBackend, GamePlay, GameRules};
use dg_workloads::{ConfigId, Workload};

/// The result of one game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameResult {
    /// The configurations that played, in player order.
    pub configs: Vec<ConfigId>,
    /// Execution score of every player (work done relative to the fastest player).
    pub execution_scores: Vec<f64>,
    /// 1-based rank of every player by execution score.
    pub ranks: Vec<usize>,
    /// Index (into `configs`) of the winning player.
    pub winner: usize,
    /// Wall-clock seconds the game occupied its node.
    pub elapsed: f64,
    /// Whether the game was stopped by the early-termination rule.
    pub early_terminated: bool,
    /// The raw backend-level play (the committable unit of accounting).
    pub play: GamePlay,
}

impl GameResult {
    /// Player indices ordered from best to worst execution score.
    pub fn standings(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.configs.len()).collect();
        order.sort_by_key(|i| self.ranks[*i]);
        order
    }

    /// The winning configuration.
    pub fn winning_config(&self) -> ConfigId {
        self.configs[self.winner]
    }
}

/// Plays one game among `configs` on the given execution backend.
///
/// The game runs until the fastest player completes its work, or — when early termination
/// is enabled and the leader has completed at least `min_leader_progress` of its work —
/// until the work-done gap between the leader and the runner-up exceeds
/// `work_done_deviation`.
///
/// The game's cost is **not** committed to the backend; the tournament phases decide
/// whether games in a round are accounted serially or in parallel.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn play_game(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    configs: &[ConfigId],
    options: GameRules,
) -> GameResult {
    assert!(!configs.is_empty(), "a game needs at least one player");
    let specs: Vec<_> = configs.iter().map(|id| workload.spec(*id)).collect();
    let play = exec.play_game(&specs, &options);
    let execution_scores = play.execution_scores.clone();
    let ranks = rank_descending(&execution_scores);
    let winner = ranks
        .iter()
        .position(|r| *r == 1)
        .expect("exactly one player holds rank 1");
    GameResult {
        configs: configs.to_vec(),
        execution_scores,
        ranks,
        winner,
        elapsed: play.elapsed,
        early_terminated: play.early_terminated,
        play,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    fn setup() -> (Workload, CloudEnvironment) {
        (
            Workload::scaled(Application::Redis, 10_000),
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 5),
        )
    }

    /// Finds a pair (fast, slow) of configurations with a large dedicated-time gap.
    fn fast_and_slow(workload: &Workload) -> (ConfigId, ConfigId) {
        let fast = workload.oracle_index(2_000);
        let slow = (0..workload.size())
            .step_by((workload.size() / 500).max(1) as usize)
            .max_by(|a, b| {
                workload
                    .base_time(*a)
                    .partial_cmp(&workload.base_time(*b))
                    .unwrap()
            })
            .unwrap();
        (fast, slow)
    }

    #[test]
    fn clearly_faster_config_wins() {
        let (workload, mut cloud) = setup();
        let (fast, slow) = fast_and_slow(&workload);
        let result = play_game(&mut cloud, &workload, &[slow, fast], GameRules::default());
        assert_eq!(result.winning_config(), fast);
        assert_eq!(result.ranks[result.winner], 1);
    }

    #[test]
    fn early_termination_shortens_lopsided_games() {
        let (workload, mut cloud) = setup();
        let (fast, slow) = fast_and_slow(&workload);

        let with_early = play_game(&mut cloud, &workload, &[fast, slow], GameRules::default());
        let without_early = play_game(&mut cloud, &workload, &[fast, slow], GameRules::playoff());
        assert!(with_early.early_terminated);
        assert!(!without_early.early_terminated);
        assert!(with_early.elapsed < without_early.elapsed);
    }

    #[test]
    fn execution_scores_are_relative_to_winner() {
        let (workload, mut cloud) = setup();
        let configs: Vec<ConfigId> = (0..8).map(|i| i * (workload.size() / 9)).collect();
        let result = play_game(&mut cloud, &workload, &configs, GameRules::default());
        let winner_score = result.execution_scores[result.winner];
        assert!((winner_score - 1.0).abs() < 1e-9);
        assert!(result
            .execution_scores
            .iter()
            .all(|s| (0.0..=1.0 + 1e-9).contains(s)));
    }

    #[test]
    fn standings_are_consistent_with_ranks() {
        let (workload, mut cloud) = setup();
        let configs: Vec<ConfigId> = (0..6).map(|i| i * (workload.size() / 7)).collect();
        let result = play_game(&mut cloud, &workload, &configs, GameRules::default());
        let standings = result.standings();
        assert_eq!(standings.len(), configs.len());
        assert_eq!(standings[0], result.winner);
        for pair in standings.windows(2) {
            assert!(result.ranks[pair[0]] < result.ranks[pair[1]]);
        }
    }

    #[test]
    fn games_are_not_committed_to_the_environment() {
        let (workload, mut cloud) = setup();
        let before = cloud.cost().core_hours();
        let _ = play_game(&mut cloud, &workload, &[0, 1], GameRules::default());
        assert_eq!(cloud.cost().core_hours(), before);
    }

    #[test]
    fn play_carries_the_accounting_triple() {
        let (workload, mut cloud) = setup();
        let result = play_game(&mut cloud, &workload, &[0, 1], GameRules::default());
        assert_eq!(result.play.players(), 2);
        assert_eq!(result.play.elapsed, result.elapsed);
        assert_eq!(result.play.execution_scores, result.execution_scores);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        let (workload, mut cloud) = setup();
        play_game(&mut cloud, &workload, &[], GameRules::default());
    }
}
