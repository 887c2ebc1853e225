//! Phases III & IV: barrage-style playoffs and the final.
//!
//! Only a handful of promising, consistent configurations reach this stage. To maximise
//! accuracy the games are now strictly two-player and run until the faster player
//! completes (no early termination). The playoffs follow the barrage format: the two
//! best players meet first and the winner goes straight to the final; the loser gets a
//! second chance against the winner of the remaining players; the final is a single
//! head-to-head game decided purely by who finishes first.

use crate::config::TournamentConfig;
use crate::game::play_recorded;
use crate::player::Player;
use dg_exec::{ExecutionBackend, GameRules};
use dg_workloads::Workload;

/// The result of the playoffs and final.
#[derive(Debug, Clone)]
pub struct PlayoffOutcome {
    /// The tournament champion: DarwinGame's chosen tuning configuration.
    pub champion: Player,
    /// The losing finalist, if there was more than one playoff player.
    pub runner_up: Option<Player>,
    /// The champion's observed execution time in the final game (seconds).
    pub champion_observed_time: f64,
    /// Number of games played in the playoffs and final.
    pub games_played: usize,
}

/// Runs the playoffs (barrage style) and the final on the main tuning VM.
///
/// Every game, the w/o-barrage ablation's single group game included, is played
/// under [`GameRules::playoff`]: to completion, with no early termination.
///
/// # Panics
///
/// Panics if `players` is empty.
pub fn run_playoffs(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    mut players: Vec<Player>,
    config: &TournamentConfig,
) -> PlayoffOutcome {
    assert!(!players.is_empty(), "the playoffs need at least one player");

    if players.len() == 1 {
        let champion = players.remove(0);
        let observed = exec
            .run_single(workload.spec(champion.config()))
            .observed_time;
        return PlayoffOutcome {
            champion_observed_time: observed,
            champion,
            runner_up: None,
            games_played: 0,
        };
    }

    // Rank playoff players by their average execution score so far.
    players.sort_by(|a, b| {
        b.average_execution_score()
            .partial_cmp(&a.average_execution_score())
            .expect("scores are not NaN")
            .then(a.config().cmp(&b.config()))
    });

    let (finalist_a, finalist_b, barrage_games) = if !config.ablation.barrage_playoffs {
        // Ablation "w/o barrage": a single multi-player game ranks the playoff players
        // and the top two go to the final.
        let (standings, _) = play_recorded(exec, workload, &mut players, &GameRules::playoff());
        (players[standings[0]], players[standings[1]], 1)
    } else if players.len() == 2 {
        (players[0], players[1], 0)
    } else if players.len() == 3 {
        // Game 1: the two best players; the winner goes to the final.
        let (game1_winner, game1_loser, _) = duel(exec, workload, players[0], players[1]);
        // Game 2: the loser of game 1 against the remaining player.
        let (game2_winner, _, _) = duel(exec, workload, game1_loser, players[2]);
        (game1_winner, game2_winner, 2)
    } else {
        // Four or more players: classic barrage with the top four.
        // Game 1: top two; winner straight to the final.
        let (game1_winner, game1_loser, _) = duel(exec, workload, players[0], players[1]);
        // Game 2: bottom two; loser eliminated.
        let (game2_winner, _, _) = duel(exec, workload, players[2], players[3]);
        // Game 3: loser of game 1 vs winner of game 2; winner is the second finalist.
        let (game3_winner, _, _) = duel(exec, workload, game1_loser, game2_winner);
        (game1_winner, game3_winner, 3)
    };

    // The final: a single head-to-head game; whoever finishes first wins.
    let (champion, runner_up, champion_observed_time) =
        duel(exec, workload, finalist_a, finalist_b);

    PlayoffOutcome {
        champion,
        runner_up: Some(runner_up),
        champion_observed_time,
        games_played: barrage_games + 1,
    }
}

/// Plays one committed two-player game, `a` in the first slot, under
/// [`GameRules::playoff`], and returns the winner and the loser, each with the game on
/// its record, and the winner's observed time.
fn duel(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    a: Player,
    b: Player,
) -> (Player, Player, f64) {
    let mut pair = [a, b];
    let (standings, play) = play_recorded(exec, workload, &mut pair, &GameRules::playoff());
    let winner = standings[0];
    (pair[winner], pair[1 - winner], play.observed_times[winner])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::{Application, ConfigId};

    fn setup() -> (Workload, CloudEnvironment, TournamentConfig) {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 31);
        (workload, cloud, TournamentConfig::scaled(16, 3))
    }

    fn player(config: ConfigId, seed_scores: &[(f64, usize)]) -> Player {
        let mut p = Player::new(config, None);
        for (score, rank) in seed_scores {
            p.scores_mut().record_game(*score, *rank);
        }
        p
    }

    #[test]
    fn four_player_barrage_plays_four_games() {
        let (workload, mut cloud, config) = setup();
        let step = workload.size() / 5;
        let players: Vec<Player> = (0..4)
            .map(|i| player(i as u64 * step, &[(1.0 - 0.1 * i as f64, i + 1)]))
            .collect();
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        // Three barrage games plus the final.
        assert_eq!(outcome.games_played, 4);
        assert!(outcome.runner_up.is_some());
        assert!(outcome.champion_observed_time > 0.0);
    }

    #[test]
    fn champion_is_a_fast_configuration() {
        let (workload, mut cloud, config) = setup();
        // One clearly excellent configuration among three mediocre ones.
        let good = workload.oracle_index(2_000);
        let step = workload.size() / 4;
        let players = vec![
            player(good, &[(1.0, 1)]),
            player(step, &[(0.8, 2)]),
            player(2 * step, &[(0.7, 3)]),
            player(3 * step, &[(0.6, 4)]),
        ];
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        let champion_time = workload.base_time(outcome.champion.config());
        let median_time = workload.base_time(2 * step);
        assert!(champion_time <= median_time);
    }

    #[test]
    fn two_players_go_straight_to_the_final() {
        let (workload, mut cloud, config) = setup();
        let players = vec![
            player(0, &[(1.0, 1)]),
            player(workload.size() / 2, &[(0.9, 2)]),
        ];
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        assert_eq!(outcome.games_played, 1);
    }

    #[test]
    fn three_players_play_two_playoff_games_plus_final() {
        let (workload, mut cloud, config) = setup();
        let step = workload.size() / 4;
        let players = vec![
            player(0, &[(1.0, 1)]),
            player(step, &[(0.9, 2)]),
            player(2 * step, &[(0.8, 3)]),
        ];
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        assert_eq!(outcome.games_played, 3);
    }

    #[test]
    fn single_player_is_champion_without_playoff_games() {
        let (workload, mut cloud, config) = setup();
        let players = vec![player(42, &[(1.0, 1)])];
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        assert_eq!(outcome.champion.config(), 42);
        assert!(outcome.runner_up.is_none());
        assert_eq!(outcome.games_played, 0);
    }

    #[test]
    fn without_barrage_a_single_group_game_selects_finalists() {
        let (workload, mut cloud, mut config) = setup();
        config.ablation.barrage_playoffs = false;
        let step = workload.size() / 5;
        let players: Vec<Player> = (0..4)
            .map(|i| player(i as u64 * step, &[(1.0 - 0.1 * i as f64, i + 1)]))
            .collect();
        let outcome = run_playoffs(&mut cloud, &workload, players, &config);
        // One group game plus the final.
        assert_eq!(outcome.games_played, 2);
    }

    #[test]
    fn playoff_cost_is_committed_to_the_environment() {
        let (workload, mut cloud, config) = setup();
        let before = cloud.cost().core_hours();
        let players = vec![
            player(0, &[(1.0, 1)]),
            player(workload.size() / 2, &[(0.9, 2)]),
        ];
        let _ = run_playoffs(&mut cloud, &workload, players, &config);
        assert!(cloud.cost().core_hours() > before);
    }
}
