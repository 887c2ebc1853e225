//! Playing a single game: a co-located execution of several configurations.

use crate::score::rank_descending;
use dg_cloudsim::ExecutionSpec;
use dg_exec::{ExecutionBackend, GameBatchItem, GamePlay};
use dg_workloads::{ConfigId, Workload};

/// How a game should be driven. This is the backend-level [`dg_exec::GameRules`] type:
/// the tournament layer decides the rules, the execution backend enforces them while
/// the game runs.
pub use dg_exec::GameRules as GameOptions;

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
    options: GameOptions,
) -> GameResult {
    assert!(!configs.is_empty(), "a game needs at least one player");
    let specs: Vec<_> = configs.iter().map(|id| workload.spec(*id)).collect();
    play_game_with_specs(exec, configs, &specs, options)
}

/// [`play_game`] for a caller that already holds the players' execution specs
/// (`specs[i]` is `workload.spec(configs[i])`), such as a region that caches them.
pub(crate) fn play_game_with_specs(
    exec: &mut dyn ExecutionBackend,
    configs: &[ConfigId],
    specs: &[ExecutionSpec],
    options: GameOptions,
) -> GameResult {
    game_result(configs.to_vec(), exec.play_game(specs, &options))
}

/// Ranks a backend-level play into a [`GameResult`].
fn game_result(configs: Vec<ConfigId>, play: GamePlay) -> GameResult {
    let execution_scores = play.execution_scores.clone();
    let ranks = rank_descending(&execution_scores);
    let winner = ranks
        .iter()
        .position(|r| *r == 1)
        .expect("exactly one player holds rank 1");
    GameResult {
        configs,
        execution_scores,
        ranks,
        winner,
        elapsed: play.elapsed,
        early_terminated: play.early_terminated,
        play,
    }
}

/// Plays one round's worth of games as a single backend batch.
///
/// Games execute in slot order through [`dg_exec::ExecutionBackend::play_games_batch`],
/// so outcomes, costs, and the backend's noise stream are identical to calling
/// [`play_game`] once per entry — backends merely get the whole round at once, which
/// lets the scenario decorator look up the round's load once instead of per game. Nothing is committed; the caller decides serial vs parallel
/// accounting exactly as with [`play_game`].
///
/// # Panics
///
/// Panics if any game in `games` is empty.
pub fn play_games(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    games: &[Vec<ConfigId>],
    options: GameOptions,
) -> Vec<GameResult> {
    // One flat spec buffer for the whole round; each batch item borrows its slice.
    let mut specs = Vec::with_capacity(games.iter().map(Vec::len).sum());
    let mut bounds = Vec::with_capacity(games.len());
    for configs in games {
        assert!(!configs.is_empty(), "a game needs at least one player");
        let start = specs.len();
        specs.extend(configs.iter().map(|id| workload.spec(*id)));
        bounds.push(start..specs.len());
    }
    let items: Vec<GameBatchItem<'_>> = bounds
        .iter()
        .map(|range| GameBatchItem {
            specs: &specs[range.clone()],
        })
        .collect();
    let plays = exec.play_games_batch(&items, &options);
    games
        .iter()
        .zip(plays)
        .map(|(configs, play)| game_result(configs.clone(), play))
        .collect()
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
        let result = play_game(&mut cloud, &workload, &[slow, fast], GameOptions::default());
        assert_eq!(result.winning_config(), fast);
        assert_eq!(result.ranks[result.winner], 1);
    }

    #[test]
    fn early_termination_shortens_lopsided_games() {
        let (workload, mut cloud) = setup();
        let (fast, slow) = fast_and_slow(&workload);

        let with_early = play_game(&mut cloud, &workload, &[fast, slow], GameOptions::default());
        let without_early = play_game(&mut cloud, &workload, &[fast, slow], GameOptions::playoff());
        assert!(with_early.early_terminated);
        assert!(!without_early.early_terminated);
        assert!(with_early.elapsed < without_early.elapsed);
    }

    #[test]
    fn execution_scores_are_relative_to_winner() {
        let (workload, mut cloud) = setup();
        let configs: Vec<ConfigId> = (0..8).map(|i| i * (workload.size() / 9)).collect();
        let result = play_game(&mut cloud, &workload, &configs, GameOptions::default());
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
        let result = play_game(&mut cloud, &workload, &configs, GameOptions::default());
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
        let _ = play_game(&mut cloud, &workload, &[0, 1], GameOptions::default());
        assert_eq!(cloud.cost().core_hours(), before);
    }

    #[test]
    fn play_carries_the_accounting_triple() {
        let (workload, mut cloud) = setup();
        let result = play_game(&mut cloud, &workload, &[0, 1], GameOptions::default());
        assert_eq!(result.play.players(), 2);
        assert_eq!(result.play.elapsed, result.elapsed);
        assert_eq!(result.play.execution_scores, result.execution_scores);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        let (workload, mut cloud) = setup();
        play_game(&mut cloud, &workload, &[], GameOptions::default());
    }

    #[test]
    fn batched_round_matches_sequential_games_bit_for_bit() {
        let (workload, mut looped) = setup();
        let (_, mut batched) = setup();
        let step = workload.size() / 16;
        let round: Vec<Vec<ConfigId>> = vec![
            vec![0, step, 2 * step, 3 * step],
            vec![4 * step, 5 * step],
            vec![6 * step, 7 * step, 8 * step],
        ];
        let expected: Vec<GameResult> = round
            .iter()
            .map(|configs| play_game(&mut looped, &workload, configs, GameOptions::default()))
            .collect();
        let got = play_games(&mut batched, &workload, &round, GameOptions::default());
        assert_eq!(expected, got);
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(
                a.execution_scores
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                b.execution_scores
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(a.play.elapsed.to_bits(), b.play.elapsed.to_bits());
        }
    }
}
