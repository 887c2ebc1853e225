//! Playing a single committed game: the one path every game outside a batched round
//! takes.

use crate::player::Player;
use crate::score::Ranker;
use dg_cloudsim::ExecutionSpec;
use dg_exec::{ExecutionBackend, GamePlay, GameRules};
use dg_workloads::Workload;

/// Plays one game among `players` from the specs they carry, commits it, records every
/// player's execution score and rank, and returns the players' slots from best to
/// worst execution score together with the play.
///
/// The playoffs' two-player games, the w/o-barrage and w/o-global games and the wild
/// card all go through here; the regional phase and the global rounds rank their games
/// into their own reused [`Ranker`].
pub(crate) fn play_recorded(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    players: &mut [Player],
    rules: &GameRules,
) -> (Vec<usize>, GamePlay) {
    let specs: Vec<ExecutionSpec> = players.iter().map(|p| p.spec(workload)).collect();
    let play = exec.play_game(&specs, rules);
    exec.commit(&play);
    let mut ranker = Ranker::default();
    let ranks = ranker.rank(&play.execution_scores);
    for (slot, player) in players.iter_mut().enumerate() {
        player
            .scores_mut()
            .record_game(play.execution_scores[slot], ranks[slot]);
    }
    (ranker.standings().to_vec(), play)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::{Application, ConfigId};

    fn setup() -> (Workload, CloudEnvironment) {
        (
            Workload::scaled(Application::Redis, 10_000),
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 5),
        )
    }

    fn players(configs: &[ConfigId]) -> Vec<Player> {
        configs.iter().map(|id| Player::new(*id, None)).collect()
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
        let mut pair = players(&[slow, fast]);
        let (standings, _) = play_recorded(&mut cloud, &workload, &mut pair, &GameRules::default());
        assert_eq!(pair[standings[0]].config(), fast);
        assert_eq!(pair[standings[0]].consistency_score(), 1.0);
    }

    #[test]
    fn early_termination_shortens_lopsided_games() {
        let (workload, mut cloud) = setup();
        let (fast, slow) = fast_and_slow(&workload);
        let rules = [GameRules::default(), GameRules::playoff()];
        let [with_early, without_early] = rules.map(|rules| {
            play_recorded(&mut cloud, &workload, &mut players(&[fast, slow]), &rules).1
        });
        assert!(with_early.early_terminated);
        assert!(!without_early.early_terminated);
        assert!(with_early.elapsed < without_early.elapsed);
    }

    #[test]
    fn execution_scores_are_relative_to_winner() {
        let (workload, mut cloud) = setup();
        let configs: Vec<ConfigId> = (0..8).map(|i| i * (workload.size() / 9)).collect();
        let mut field = players(&configs);
        let (standings, play) =
            play_recorded(&mut cloud, &workload, &mut field, &GameRules::default());
        assert!((play.execution_scores[standings[0]] - 1.0).abs() < 1e-9);
        assert!(field
            .iter()
            .all(|p| (0.0..=1.0 + 1e-9).contains(&p.average_execution_score())));
    }

    #[test]
    fn standings_are_consistent_with_ranks() {
        let (workload, mut cloud) = setup();
        let configs: Vec<ConfigId> = (0..6).map(|i| i * (workload.size() / 7)).collect();
        let mut field = players(&configs);
        let (standings, play) =
            play_recorded(&mut cloud, &workload, &mut field, &GameRules::default());
        assert_eq!(standings.len(), configs.len());
        // Each player recorded `1 / rank`, its position in the standings.
        for (position, slot) in standings.iter().enumerate() {
            assert_eq!(
                field[*slot].consistency_score(),
                1.0 / (position + 1) as f64
            );
        }
        for pair in standings.windows(2) {
            assert!(play.execution_scores[pair[0]] >= play.execution_scores[pair[1]]);
        }
    }

    #[test]
    fn recorded_games_are_committed_to_the_environment() {
        let (workload, mut cloud) = setup();
        let (_, play) = play_recorded(
            &mut cloud,
            &workload,
            &mut players(&[0, 1]),
            &GameRules::default(),
        );
        assert_eq!(cloud.clock().as_seconds(), play.elapsed);
        assert!(cloud.cost().core_hours() > 0.0);
    }

    #[test]
    fn play_carries_the_accounting_triple() {
        let (workload, mut cloud) = setup();
        let mut pair = players(&[0, 1]);
        let (_, play) = play_recorded(&mut cloud, &workload, &mut pair, &GameRules::default());
        assert_eq!(play.players(), 2);
        for (slot, player) in pair.iter().enumerate() {
            assert_eq!(player.scores().games_played(), 1);
            assert_eq!(
                player.scores().latest_execution_score(),
                Some(play.execution_scores[slot])
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        let (workload, mut cloud) = setup();
        play_recorded(&mut cloud, &workload, &mut [], &GameRules::default());
    }
}
