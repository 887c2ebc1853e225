//! Phase II: the global phase, played in double-elimination style.
//!
//! Regional winners are grouped into multi-player games; within each round, groups are
//! built to mix players from different regions (diversity). Group winners stay in the
//! main bracket; everyone else drops into the loser bracket instead of being eliminated.
//! Games are judged by the *sum* of each player's execution-score rank and
//! consistency-score rank, so that only configurations that are both fast and repeatable
//! advance. When the main bracket is small enough, the best players of the loser bracket
//! play one game whose winner receives a wild-card entry into the playoffs.

use crate::config::TournamentConfig;
use crate::game::play_recorded;
use crate::player::Player;
use crate::score::Ranker;
use dg_cloudsim::ExecutionSpec;
use dg_exec::{ExecutionBackend, GameBatchItem, GameRules};
use dg_obs::{emit_with, ObsEvent};
use dg_workloads::{ConfigId, Workload};
use std::ops::Range;

/// The result of the global phase.
#[derive(Debug, Clone)]
pub struct GlobalOutcome {
    /// Main-bracket survivors that advance to the playoffs.
    pub finalists: Vec<Player>,
    /// The loser-bracket wild card, if double elimination is enabled and anyone lost.
    pub wildcard: Option<Player>,
    /// Number of games played in this phase.
    pub games_played: usize,
    /// Number of rounds played in the main bracket.
    pub rounds: usize,
}

impl GlobalOutcome {
    /// All players advancing to the playoffs (finalists plus the wild card).
    pub fn playoff_players(&self) -> Vec<Player> {
        let mut players = self.finalists.clone();
        if let Some(wildcard) = self.wildcard {
            if !players.iter().any(|p| p.config() == wildcard.config()) {
                players.push(wildcard);
            }
        }
        players
    }
}

/// Runs the global phase on the main tuning VM.
///
/// Each round sorts the main bracket by origin region once and deals it round-robin
/// into groups without building them: group `g` of `G` is the players at sorted
/// positions `g, g + G, g + 2G, …`. The round's games go to the backend as one batch,
/// from one flat spec buffer filled from the specs the players carry from their
/// regions (a player built with [`Player::new`] has its spec looked up), and are ranked
/// into reused buffers. `workload` must be the one the regional phase played.
pub fn run_global_phase(
    exec: &mut dyn ExecutionBackend,
    workload: &Workload,
    mut players: Vec<Player>,
    config: &TournamentConfig,
) -> GlobalOutcome {
    let players_per_game = config.effective_players_per_game(exec.vm().vcpus());
    let game_options = GameRules {
        early_termination: config.ablation.early_termination,
        ..GameRules::default()
    };

    let mut games_played = 0usize;
    let mut rounds = 0usize;
    let mut loser_bracket: Vec<Player> = Vec::new();

    if !config.ablation.global_phase {
        // Ablation "w/o global": a single game among (up to P of) the regional winners
        // chooses the playoff players directly.
        players.sort_by(|a, b| {
            b.average_execution_score()
                .partial_cmp(&a.average_execution_score())
                .expect("scores are not NaN")
                .then(a.config().cmp(&b.config()))
        });
        players.truncate(players_per_game.max(2));
        if players.len() >= 2 {
            let (standings, _) = play_recorded(exec, workload, &mut players, &game_options);
            games_played += 1;
            let keep = config.main_bracket_target.min(standings.len());
            let finalists: Vec<Player> = standings[..keep].iter().map(|i| players[*i]).collect();
            return GlobalOutcome {
                finalists,
                wildcard: None,
                games_played,
                rounds: 1,
            };
        }
        return GlobalOutcome {
            finalists: players,
            wildcard: None,
            games_played,
            rounds: 0,
        };
    }

    // Round scratch, reused from round to round.
    let mut order: Vec<usize> = Vec::with_capacity(players.len());
    let mut specs: Vec<ExecutionSpec> = Vec::with_capacity(players.len());
    let mut bounds: Vec<Range<usize>> = Vec::new();
    let mut members: Vec<usize> = Vec::with_capacity(players_per_game);
    let mut consistency: Vec<f64> = Vec::with_capacity(players_per_game);
    let mut winners: Vec<usize> = Vec::new();
    let mut losers: Vec<usize> = Vec::new();
    let mut advancing: Vec<Player> = Vec::new();
    let mut ranker = Ranker::default();

    while players.len() > config.main_bracket_target {
        rounds += 1;
        let groups = group_count(players.len(), players_per_game, config.main_bracket_target);
        deal(&players, &mut order);

        // A round's games are independent (groups are disjoint), so the whole round
        // goes to the backend as one batch: games still execute in group order with
        // identical outcomes, but the backend can hoist per-round work. Deferring the
        // score recording below until after the batch is safe for the same
        // disjointness reason — no group's ranking inputs depend on another group's
        // results from this round.
        specs.clear();
        bounds.clear();
        for g in 0..groups {
            let group = dealt_group(&order, groups, g);
            if group.len() > 1 {
                let start = specs.len();
                specs.extend(group.map(|i| players[i].spec(workload)));
                bounds.push(start..specs.len());
            }
        }
        let items: Vec<GameBatchItem<'_>> = bounds
            .iter()
            .map(|range| GameBatchItem {
                specs: &specs[range.clone()],
            })
            .collect();
        let plays = exec.play_games_batch(&items, &game_options);
        games_played += plays.len();
        emit_with(|| ObsEvent::Round {
            phase: "global",
            round: rounds - 1,
            games: plays.len(),
        });

        winners.clear();
        losers.clear();
        let mut round_plays = plays.iter();
        for g in 0..groups {
            members.clear();
            members.extend(dealt_group(&order, groups, g));
            if members.len() == 1 {
                // A lone player advances without playing.
                winners.push(members[0]);
                continue;
            }
            let play = round_plays.next().expect("one play per multi-player group");

            // Record scores and decide the group winner by the combined ranking.
            let ranks = ranker.rank(&play.execution_scores);
            for (slot, i) in members.iter().enumerate() {
                players[*i]
                    .scores_mut()
                    .record_game(play.execution_scores[slot], ranks[slot]);
            }
            consistency.clear();
            consistency.extend(members.iter().map(|i| players[*i].consistency_score()));
            let standings = ranker.combined(
                &consistency,
                config.ablation.execution_score,
                config.ablation.consistency_score,
            );
            winners.push(members[standings[0]]);
            if config.ablation.double_elimination {
                losers.extend(standings[1..].iter().map(|slot| members[*slot]));
            }
        }

        // Games within a round run on parallel VMs of the same type.
        exec.commit_parallel(&plays);

        // No reduction is possible (degenerate small input): stop to guarantee
        // termination.
        let stalled = winners.len() >= players.len();
        loser_bracket.extend(losers.iter().map(|i| players[*i]));
        advancing.clear();
        advancing.extend(winners.iter().map(|i| players[*i]));
        std::mem::swap(&mut players, &mut advancing);
        if stalled {
            break;
        }
    }

    // Wild card from the loser bracket.
    let wildcard = if config.ablation.double_elimination && loser_bracket.len() >= 2 {
        let keys: Vec<(f64, ConfigId)> = loser_bracket.iter().map(wildcard_key).collect();
        let mut entrants: Vec<Player> = wildcard_entrants(&keys, players_per_game)
            .iter()
            .map(|i| loser_bracket[*i])
            .collect();
        let (standings, _) = play_recorded(exec, workload, &mut entrants, &game_options);
        games_played += 1;
        Some(entrants[standings[0]])
    } else if config.ablation.double_elimination {
        loser_bracket.first().copied()
    } else {
        None
    };

    GlobalOutcome {
        finalists: players,
        wildcard,
        games_played,
        rounds,
    }
}

/// Sorts `order` to a round's deal of `players`: their indices by origin region (players
/// of no known region last), ties by index. Dealt round-robin from this order (see
/// [`dealt_group`]), each group mixes regions.
fn deal(players: &[Player], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..players.len());
    // The index makes every key distinct, so the unstable sort gives the stable order.
    order.sort_unstable_by_key(|i| (players[*i].origin_region().unwrap_or(usize::MAX), *i));
}

/// Group `g` of a round whose [`deal`] `order` is dealt round-robin into `groups`
/// groups: the players at positions `g, g + groups, g + 2 * groups, …`.
fn dealt_group(
    order: &[usize],
    groups: usize,
    g: usize,
) -> impl ExactSizeIterator<Item = usize> + '_ {
    order[g..].iter().step_by(groups).copied()
}

/// Number of groups a round of `n` players is dealt into: enough for games of at most
/// `players_per_game`, or, when few players remain, as many as still narrow the field
/// toward `main_bracket_target`.
fn group_count(n: usize, players_per_game: usize, main_bracket_target: usize) -> usize {
    if n > players_per_game {
        n.div_ceil(players_per_game)
    } else {
        main_bracket_target.min(n / 2).max(1)
    }
}

/// A loser's wild-card key: its average execution score plus its consistency score,
/// and its configuration.
fn wildcard_key(player: &Player) -> (f64, ConfigId) {
    (
        player.average_execution_score() + player.consistency_score(),
        player.config(),
    )
}

/// Indices of the wild-card game's entrants, best first: the top `count` of the loser
/// bracket by [`wildcard_key`], score descending, ties broken by config and then by
/// bracket position. That is exactly the order a stable sort of the whole bracket by
/// (score descending, config ascending) gives, found with a partial selection.
fn wildcard_entrants(keys: &[(f64, ConfigId)], count: usize) -> Vec<usize> {
    let rank = |a: &usize, b: &usize| {
        keys[*b]
            .0
            .partial_cmp(&keys[*a].0)
            .expect("scores are not NaN")
            .then(keys[*a].1.cmp(&keys[*b].1))
            .then(a.cmp(b))
    };
    let mut order: Vec<usize> = (0..keys.len()).collect();
    if count < order.len() {
        order.select_nth_unstable_by(count, rank);
        order.truncate(count);
    }
    order.sort_unstable_by(rank);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, SimRng, VmType};
    use dg_workloads::Application;

    fn setup() -> (Workload, CloudEnvironment, TournamentConfig) {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 23);
        let mut config = TournamentConfig::scaled(16, 7);
        config.players_per_game = Some(8);
        (workload, cloud, config)
    }

    fn players_from_spread(workload: &Workload, count: usize) -> Vec<Player> {
        (0..count)
            .map(|i| {
                let id = (i as u64 * (workload.size() / count as u64)).min(workload.size() - 1);
                Player::new(id, Some(i % 5))
            })
            .collect()
    }

    #[test]
    fn global_phase_narrows_to_main_bracket_target() {
        let (workload, mut cloud, config) = setup();
        let players = players_from_spread(&workload, 24);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        assert!(outcome.finalists.len() <= config.main_bracket_target);
        assert!(!outcome.finalists.is_empty());
        assert!(outcome.games_played >= 1);
        assert!(outcome.rounds >= 1);
    }

    #[test]
    fn double_elimination_produces_a_wildcard() {
        let (workload, mut cloud, config) = setup();
        let players = players_from_spread(&workload, 20);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        assert!(outcome.wildcard.is_some());
        let playoff = outcome.playoff_players();
        assert!(playoff.len() >= outcome.finalists.len());
    }

    #[test]
    fn without_double_elimination_no_wildcard() {
        let (workload, mut cloud, mut config) = setup();
        config.ablation.double_elimination = false;
        let players = players_from_spread(&workload, 20);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        assert!(outcome.wildcard.is_none());
    }

    #[test]
    fn without_global_phase_a_single_game_selects_playoff_players() {
        let (workload, mut cloud, mut config) = setup();
        config.ablation.global_phase = false;
        let players = players_from_spread(&workload, 20);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        assert_eq!(outcome.games_played, 1);
        assert!(outcome.finalists.len() <= config.main_bracket_target);
    }

    #[test]
    fn small_fields_pass_through_without_games() {
        let (workload, mut cloud, config) = setup();
        let players = players_from_spread(&workload, 2);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        assert_eq!(outcome.finalists.len(), 2);
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn the_execution_score_decides_a_group_the_consistency_score_alone_would_not() {
        // One global game of three players on a dedicated node. Each base time is at
        // least 1.25 times the last, which the jitter (at most a few percent of slowdown
        // here) and the noise (1%) cannot undo, so the game ranks `fast`, `middle`,
        // `steady` on execution. Nine earlier games, counted with this one, rank them
        // `steady`, `fast`, `middle` on consistency. The rank sums are 3 for `fast`, 4
        // for `steady` and 5 for `middle`: the full design advances `fast`, and without
        // the execution score `steady` wins the group.
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut by_base: Vec<(f64, u64)> = (0..workload.size())
            .map(|id| (workload.spec(id).base_time(), id))
            .collect();
        by_base.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut picked = vec![by_base[0]];
        for &(base, id) in &by_base {
            if picked.len() < 3 && base >= 1.25 * picked[picked.len() - 1].0 {
                picked.push((base, id));
            }
        }
        let [fast, middle, steady] = [picked[0].1, picked[1].1, picked[2].1];
        let with_history = |config: ConfigId, earlier_rank: usize| {
            let mut player = Player::new(config, Some(0));
            for _ in 0..9 {
                player.scores_mut().record_game(0.5, earlier_rank);
            }
            player
        };
        let players = vec![
            with_history(fast, 2),
            with_history(middle, 4),
            with_history(steady, 1),
        ];
        let winner = |execution_score: bool, consistency_score: bool| {
            let mut config = TournamentConfig::scaled(16, 7);
            config.players_per_game = Some(8);
            config.main_bracket_target = 1;
            config.ablation.double_elimination = false;
            config.ablation.execution_score = execution_score;
            config.ablation.consistency_score = consistency_score;
            let mut cloud =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::Dedicated, 23);
            let outcome = run_global_phase(&mut cloud, &workload, players.clone(), &config);
            assert_eq!((outcome.games_played, outcome.finalists.len()), (1, 1));
            outcome.finalists[0].config()
        };
        assert_eq!(winner(true, true), fast);
        assert_eq!(winner(true, false), fast);
        assert_eq!(winner(false, true), steady);
    }

    /// The groups a round's deal gives, built out for comparison.
    fn dealt_groups(
        players: &[Player],
        players_per_game: usize,
        main_bracket_target: usize,
    ) -> Vec<Vec<usize>> {
        let groups = group_count(players.len(), players_per_game, main_bracket_target);
        let mut order = Vec::new();
        deal(players, &mut order);
        (0..groups)
            .map(|g| dealt_group(&order, groups, g).collect::<Vec<_>>())
            .filter(|group| !group.is_empty())
            .collect()
    }

    /// The round's groups as they were built before the deal became implicit: split
    /// `players` into groups of at most `players_per_game`, mixing origin regions; when
    /// few players remain, choose the number of groups so the round still narrows the
    /// field toward `main_bracket_target`.
    fn build_diverse_groups(
        players: &[Player],
        players_per_game: usize,
        main_bracket_target: usize,
    ) -> Vec<Vec<usize>> {
        let n = players.len();
        let group_count = if n > players_per_game {
            n.div_ceil(players_per_game)
        } else {
            main_bracket_target.min(n / 2).max(1)
        };

        // Sort player indices by origin region, then deal them round-robin across
        // groups so each group mixes regions.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| (players[*i].origin_region().unwrap_or(usize::MAX), *i));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); group_count];
        for (position, player_index) in order.into_iter().enumerate() {
            groups[position % group_count].push(player_index);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    #[test]
    fn groups_mix_origin_regions() {
        let players: Vec<Player> = (0..16)
            .map(|i| Player::new(i as u64, Some(i / 4)))
            .collect();
        let groups = dealt_groups(&players, 4, 3);
        assert_eq!(groups.len(), 4);
        for group in &groups {
            let regions: std::collections::BTreeSet<_> = group
                .iter()
                .map(|i| players[*i].origin_region().unwrap())
                .collect();
            assert!(regions.len() >= 2, "groups should span multiple regions");
        }
    }

    #[test]
    fn implicit_deal_matches_the_built_groups() {
        let mut rng = SimRng::new(0x5d).derive("deal-battery");
        for n in 1..=300usize {
            for players_per_game in [2, 3, 8, 16, 32] {
                for main_bracket_target in [1, 3, 5] {
                    // Origins shuffled across a few regions (so they repeat), unique per
                    // player, or unknown for some or all players.
                    let regions = 1 + rng.index(n.min(40));
                    let unknown_share = [0.0, 0.3, 1.0][rng.index(3)];
                    let players: Vec<Player> = (0..n)
                        .map(|i| {
                            let origin = if rng.uniform() < unknown_share {
                                None
                            } else if regions == n {
                                Some(n - 1 - i)
                            } else {
                                Some(rng.index(regions))
                            };
                            Player::new(i as u64, origin)
                        })
                        .collect();
                    assert_eq!(
                        dealt_groups(&players, players_per_game, main_bracket_target),
                        build_diverse_groups(&players, players_per_game, main_bracket_target),
                        "n = {n}, P = {players_per_game}, target = {main_bracket_target}"
                    );
                }
            }
        }
    }

    /// The wild-card entrants as they were chosen before the keyed selection: a stable
    /// sort of the whole loser bracket whose comparator recomputes both scores,
    /// truncated to `count`.
    fn stable_sort_entrants(bracket: &[Player], count: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..bracket.len()).collect();
        order.sort_by(|a, b| {
            let (a, b) = (&bracket[*a], &bracket[*b]);
            let score_a = a.average_execution_score() + a.consistency_score();
            let score_b = b.average_execution_score() + b.consistency_score();
            score_b
                .partial_cmp(&score_a)
                .expect("scores are not NaN")
                .then(a.config().cmp(&b.config()))
        });
        order.truncate(count);
        order
    }

    #[test]
    fn keyed_wildcard_selection_matches_the_stable_sort() {
        let mut rng = SimRng::new(0x3c).derive("wildcard-selection");
        let mut tied_cases = 0;
        for case in 0..400 {
            // Brackets from empty to well past the largest P, drawn from few configs
            // and few score histories, so keys tie often and configs repeat.
            let bracket: Vec<Player> = (0..rng.index(48))
                .map(|_| {
                    let mut player = Player::new(rng.index(6) as u64, None);
                    for _ in 0..=rng.index(3) {
                        let score = [0.25, 0.5, 1.0][rng.index(3)];
                        player.scores_mut().record_game(score, 1 + rng.index(3));
                    }
                    player
                })
                .collect();
            let keys: Vec<(f64, ConfigId)> = bracket.iter().map(wildcard_key).collect();
            tied_cases += usize::from((1..keys.len()).any(|i| keys[..i].contains(&keys[i])));
            for count in [2, 8, 16, 32] {
                assert_eq!(
                    wildcard_entrants(&keys, count),
                    stable_sort_entrants(&bracket, count),
                    "case {case}, P = {count}, bracket of {}",
                    bracket.len()
                );
            }
        }
        assert!(
            tied_cases > 100,
            "only {tied_cases} brackets had fully tied entries"
        );
    }

    #[test]
    fn finalists_carry_score_history() {
        let (workload, mut cloud, config) = setup();
        let players = players_from_spread(&workload, 24);
        let outcome = run_global_phase(&mut cloud, &workload, players, &config);
        for finalist in &outcome.finalists {
            assert!(finalist.scores().games_played() > 0);
        }
    }
}
