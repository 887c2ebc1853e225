//! Phase I: the regional phase, played in Swiss style.
//!
//! The search space is divided into `n_r` regions; inside each region multi-player games
//! are played for several rounds. Half of each round's players are drawn from the pool
//! that has never played (new players) and half are drawn probabilistically from players
//! that already have an execution score — so increasingly promising configurations meet
//! each other, which is the Swiss-style progression of Fig. 6. A region ends when one
//! configuration has won two games in a row, when there are no new players left to
//! introduce, or when the round cap is reached; every player within the work-done
//! deviation `d` ([`WORK_DONE_DEVIATION`], 10%) of the regional best advances to the
//! global phase.

use crate::config::TournamentConfig;
use crate::player::Player;
use crate::score::{Ranker, ScoreBoard};
use dg_cloudsim::{CostTracker, ExecutionSpec, SimRng, WORK_DONE_DEVIATION};
use dg_exec::{default_workers, run_ordered, ExecutionBackend, GameRules};
use dg_obs::{emit_with, ObsEvent};
use dg_workloads::{ConfigId, IndexPartition, Workload};
use std::cell::Cell;
use std::cmp::Ordering;

/// The result of playing one region.
#[derive(Debug, Clone)]
pub struct RegionalOutcome {
    /// Which region (partition part) this outcome belongs to.
    pub region: usize,
    /// Players that advance to the global phase, score record and spec included.
    pub winners: Vec<Player>,
    /// Distinct configurations that played at least one game in the region.
    pub players_in: usize,
    /// Number of games played inside the region.
    pub games_played: usize,
    /// Core-hours consumed by the region's games.
    pub core_hours: f64,
    /// Wall-clock seconds the region's (dedicated) VM was busy.
    pub wall_clock_seconds: f64,
}

/// The deterministic seed of one region's sub-environment.
fn region_seed(config: &TournamentConfig, region: usize) -> u64 {
    dg_cloudsim::mix(config.seed, 0x4e67 ^ region as u64)
}

/// Plays the Swiss-style tournament inside one region, on its own execution backend.
///
/// Regions are independent by construction (the paper runs them on separate VMs in
/// parallel), so each plays on a backend forked from the main one with a seed derived
/// from the tournament seed and the region index — see
/// [`run_regional_phase`], which performs the forking. `exec` must be a fresh fork (its
/// cost tracker becomes the region's bill).
///
/// The region keeps flat per-candidate columns (the sampled configurations, a spec
/// cache filled before each candidate's first game, and a [`ScoreBoard`] each), plays
/// every game straight on the backend and ranks it into reused buffers, so its
/// bookkeeping allocates nothing per game. Its veterans, the candidates that have
/// played, are a bitset in candidate order, and each veteran's selection weight,
/// `average_execution_score().max(0.01)`, is updated only after its own games: a round
/// gathers the veterans and their weights from the bitset in candidate order, without
/// visiting every board or dividing again. The columns, the round buffers and the
/// ranker are the calling thread's, cleared and reused from one region to the next, so
/// a region allocates only its candidates and its winners. When the region ends, the
/// best average execution score sets the advancement threshold and only the candidates
/// at or above it are sorted into ranking order (the single-winner ablation takes the
/// first candidate of that order). [`Player`]s are built only for the candidates that
/// advance, each carrying its spec into the global phase.
pub fn run_region(
    workload: &Workload,
    partition: &IndexPartition,
    region: usize,
    offset: u64,
    exec: &mut dyn ExecutionBackend,
    config: &TournamentConfig,
) -> RegionalOutcome {
    // A region that panics loses the buffers, and the next one starts from new ones.
    let mut scratch = REGION_SCRATCH.take();
    let outcome = scratch.play(workload, partition, region, offset, exec, config);
    REGION_SCRATCH.set(scratch);
    outcome
}

thread_local! {
    /// The buffers of the regions this thread plays.
    static REGION_SCRATCH: Cell<RegionScratch> = Cell::new(RegionScratch::default());
}

/// A region's buffers, cleared and refilled by every region a thread plays.
#[derive(Debug, Default)]
struct RegionScratch {
    /// Per candidate, its score record.
    boards: Vec<ScoreBoard>,
    /// Per candidate, its spec, looked up before its first game.
    specs: Vec<Option<ExecutionSpec>>,
    /// The veterans, the candidates that have played, one bit each in candidate order.
    veterans: Vec<u64>,
    /// Per veteran, its selection weight, `average_execution_score().max(0.01)`.
    weights: Vec<f64>,
    /// The candidates that have not played, in the order they are drawn (from the end).
    unplayed: Vec<usize>,
    /// The round's players, by candidate.
    participants: Vec<usize>,
    /// The round's veterans in candidate order and their weights, as the draws take
    /// them out.
    pool: Vec<usize>,
    pool_weights: Vec<f64>,
    /// The round's players' specs.
    game_specs: Vec<ExecutionSpec>,
    /// The veterans' standings when the region ends, then the advancing ones.
    standings: Vec<Standing>,
    ranker: Ranker,
}

impl RegionScratch {
    /// Plays one region, as [`run_region`] describes.
    fn play(
        &mut self,
        workload: &Workload,
        partition: &IndexPartition,
        region: usize,
        offset: u64,
        exec: &mut dyn ExecutionBackend,
        config: &TournamentConfig,
    ) -> RegionalOutcome {
        let mut rng = SimRng::new(exec.seed()).derive("regional");
        let players_per_game = config.effective_players_per_game(exec.vm().vcpus());

        let game_options = GameRules {
            early_termination: config.ablation.early_termination,
            ..GameRules::default()
        };

        // Candidate pool: enough distinct configurations to feed every possible round.
        let pool_size = players_per_game
            + (players_per_game / 2) * config.max_regional_rounds.saturating_sub(1);
        let mut candidates = partition.sample_distinct(region, pool_size, &mut rng);
        for id in &mut candidates {
            *id += offset;
        }
        let Self {
            boards,
            specs,
            veterans,
            weights,
            unplayed,
            participants,
            pool,
            pool_weights,
            game_specs,
            standings,
            ranker,
        } = self;
        let count = candidates.len();
        boards.clear();
        boards.resize(count, ScoreBoard::new());
        specs.clear();
        specs.resize(count, None);
        veterans.clear();
        veterans.resize(count.div_ceil(64), 0);
        weights.clear();
        weights.resize(count, 0.0);
        unplayed.clear();
        unplayed.extend(0..count);
        rng.shuffle(unplayed);

        let mut games_played = 0usize;
        let mut last_winner: Option<ConfigId> = None;
        let mut consecutive_wins = 0usize;

        let rounds = if config.ablation.swiss_regional {
            config.max_regional_rounds
        } else {
            // Ablation "w/o Swiss": a single game among the sampled players decides
            // winners.
            1
        };

        for round in 0..rounds {
            // Select this round's participants.
            participants.clear();
            if round == 0 || !config.ablation.swiss_regional {
                // First round (or non-Swiss single game): random players from the pool.
                while participants.len() < players_per_game && !unplayed.is_empty() {
                    participants.push(unplayed.pop().expect("unplayed is non-empty"));
                }
            } else {
                // Half new players, half high-scoring veterans selected
                // probabilistically. The new players have not played yet, so no veteran
                // is already in the game.
                let new_slots = (players_per_game / 2).min(unplayed.len());
                for _ in 0..new_slots {
                    participants.push(unplayed.pop().expect("unplayed is non-empty"));
                }
                pool.clear();
                pool.extend(members(veterans));
                pool_weights.clear();
                pool_weights.extend(pool.iter().map(|i| weights[*i]));
                let veteran_slots = (players_per_game - participants.len()).min(pool.len());
                for _ in 0..veteran_slots {
                    let pick = rng.weighted_index(pool_weights);
                    participants.push(pool.swap_remove(pick));
                    pool_weights.swap_remove(pick);
                }
            }
            if participants.len() < 2 {
                break;
            }

            game_specs.clear();
            for &i in participants.iter() {
                let id = candidates[i];
                game_specs.push(*specs[i].get_or_insert_with(|| workload.spec(id)));
            }
            let play = exec.play_game(game_specs, &game_options);
            exec.commit(&play);
            games_played += 1;
            emit_with(|| ObsEvent::Round {
                phase: "regional",
                round,
                games: 1,
            });

            let ranks = ranker.rank(&play.execution_scores);
            for (slot, &i) in participants.iter().enumerate() {
                let board = &mut boards[i];
                board.record_game(play.execution_scores[slot], ranks[slot]);
                weights[i] = board.average_execution_score().max(0.01);
                veterans[i / 64] |= 1 << (i % 64);
            }

            // Track consecutive wins of the same configuration for the termination rule.
            let winning_config = candidates[participants[ranker.standings()[0]]];
            if Some(winning_config) == last_winner {
                consecutive_wins += 1;
            } else {
                last_winner = Some(winning_config);
                consecutive_wins = 1;
            }
            if config.ablation.swiss_regional && consecutive_wins >= 2 {
                break;
            }
            if unplayed.is_empty() {
                break;
            }
        }

        standings.clear();
        standings.extend(
            members(veterans).map(|i| (boards[i].average_execution_score(), candidates[i], i)),
        );
        let players_in = standings.len();
        advancing(
            standings,
            config.ablation.single_regional_winner,
            WORK_DONE_DEVIATION,
        );
        let winners: Vec<Player> = standings
            .iter()
            .map(|&(_, id, i)| Player::regional_winner(id, region, boards[i], specs[i]))
            .collect();

        RegionalOutcome {
            region,
            winners,
            players_in,
            games_played,
            core_hours: exec.cost().core_hours(),
            wall_clock_seconds: exec.cost().wall_clock_seconds(),
        }
    }
}

/// The members of a bitset, ascending.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(word, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                word * 64 + bit
            })
        })
    })
}

/// A candidate that played in a region: its average execution score, its configuration
/// and its index among the region's candidates.
type Standing = (f64, ConfigId, usize);

/// The region's ranking order: average execution score descending, then configuration
/// ascending. Candidates are distinct configurations, so the order is total.
fn by_rank(a: &Standing, b: &Standing) -> Ordering {
    b.0.partial_cmp(&a.0)
        .expect("scores are not NaN")
        .then(a.1.cmp(&b.1))
}

/// Keeps the standings that advance, in ranking order: everyone within the work-done
/// deviation `d` of the best average execution score, or only the first in ranking
/// order under the single-winner ablation. Only the standings at or above the
/// threshold are sorted.
fn advancing(played: &mut Vec<Standing>, single_winner: bool, d: f64) {
    if single_winner {
        let best = played.iter().copied().min_by(by_rank);
        played.clear();
        played.extend(best);
        return;
    }
    let best = played.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
    let threshold = best * (1.0 - d);
    played.retain(|(score, _, _)| *score >= threshold);
    played.sort_unstable_by(by_rank);
}

/// Runs every region and aggregates the results.
///
/// Every region plays on its own sub-backend, forked from `exec` with a seed derived
/// from the tournament seed and the region index (forking happens up front, in region
/// order, so recording backends assign stream keys deterministically). The regions
/// then run on `dg-exec`'s [`run_ordered`] pool, each taking its backend by value:
/// [`default_workers`] threads when `parallel_regions` is set, else one, which runs
/// every region on the caller's thread; each thread reuses one set of region buffers
/// (see [`run_region`]). Either way the outcomes come back in region
/// order, and the simulated cost model is the same: regions are always charged as if
/// they ran concurrently on separate VMs, so the aggregate wall clock is the longest
/// region, per Fig. 6's "played in parallel".
pub fn run_regional_phase(
    workload: &Workload,
    partition: &IndexPartition,
    offset: u64,
    exec: &mut dyn ExecutionBackend,
    config: &TournamentConfig,
) -> (Vec<RegionalOutcome>, CostTracker) {
    let vm = exec.vm();
    let backends: Vec<Box<dyn ExecutionBackend>> = (0..partition.parts())
        .map(|region| exec.fork(region_seed(config, region)))
        .collect();
    let workers = if config.parallel_regions {
        default_workers()
    } else {
        1
    };
    let outcomes = run_ordered(backends, workers, |region, mut backend| {
        run_region(
            workload,
            partition,
            region,
            offset,
            backend.as_mut(),
            config,
        )
    });

    // Regions run concurrently on separate VMs: core-hours add up, wall-clock is the max.
    let mut cost = CostTracker::new();
    let elapsed: Vec<f64> = outcomes.iter().map(|o| o.wall_clock_seconds).collect();
    cost.charge_parallel(vm, &elapsed);
    (outcomes, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    fn setup(regions: usize) -> (Workload, IndexPartition, TournamentConfig) {
        let workload = Workload::scaled(Application::Redis, 5_000);
        let partition = IndexPartition::new(workload.size(), regions);
        let mut config = TournamentConfig::scaled(regions, 11);
        config.players_per_game = Some(8);
        config.parallel_regions = false;
        (workload, partition, config)
    }

    /// A fresh region backend, forked the way `run_regional_phase` does it.
    fn region_backend(config: &TournamentConfig, region: usize) -> Box<dyn ExecutionBackend> {
        let mut main = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
        ExecutionBackend::fork(&mut main, region_seed(config, region))
    }

    #[test]
    fn region_produces_winners_with_score_history() {
        let (workload, partition, config) = setup(16);
        let mut exec = region_backend(&config, 3);
        let outcome = run_region(&workload, &partition, 3, 0, exec.as_mut(), &config);
        assert!(!outcome.winners.is_empty());
        assert!(outcome.games_played >= 1);
        assert!(outcome.core_hours > 0.0);
        for winner in &outcome.winners {
            assert!(winner.scores().games_played() > 0);
            assert_eq!(winner.origin_region(), Some(3));
            let range = partition.range(3);
            assert!(range.contains(&winner.config()));
        }
    }

    #[test]
    fn regions_count_the_configurations_that_played() {
        let (workload, partition, mut config) = setup(16);
        for region in 0..16 {
            let mut exec = region_backend(&config, region);
            let outcome = run_region(&workload, &partition, region, 0, exec.as_mut(), &config);
            // The first game seats P new candidates and every later one P/2 more; the
            // pool holds enough for every round, so none runs short.
            assert_eq!(
                outcome.players_in,
                8 + 4 * (outcome.games_played - 1),
                "region {region}"
            );
            assert!(outcome.players_in >= outcome.winners.len());
        }
        config.ablation.swiss_regional = false;
        let mut exec = region_backend(&config, 5);
        let outcome = run_region(&workload, &partition, 5, 0, exec.as_mut(), &config);
        assert_eq!(outcome.players_in, 8);
    }

    #[test]
    fn single_winner_ablation_limits_winners() {
        let (workload, partition, mut config) = setup(16);
        config.ablation.single_regional_winner = true;
        let mut exec = region_backend(&config, 0);
        let outcome = run_region(&workload, &partition, 0, 0, exec.as_mut(), &config);
        assert_eq!(outcome.winners.len(), 1);
    }

    #[test]
    fn non_swiss_ablation_plays_single_game() {
        let (workload, partition, mut config) = setup(16);
        config.ablation.swiss_regional = false;
        let mut exec = region_backend(&config, 1);
        let outcome = run_region(&workload, &partition, 1, 0, exec.as_mut(), &config);
        assert_eq!(outcome.games_played, 1);
    }

    #[test]
    fn regional_winners_are_better_than_region_average() {
        let (workload, partition, config) = setup(8);
        let mut exec = region_backend(&config, 2);
        let outcome = run_region(&workload, &partition, 2, 0, exec.as_mut(), &config);
        let winner_best = outcome
            .winners
            .iter()
            .map(|p| workload.base_time(p.config()))
            .fold(f64::INFINITY, f64::min);
        // Compare against the average dedicated time of a sample from the region.
        let range = partition.range(2);
        let sample: Vec<f64> = range
            .clone()
            .step_by(((range.end - range.start) / 64).max(1) as usize)
            .map(|id| workload.base_time(id))
            .collect();
        assert!(winner_best < dg_stats::mean(&sample));
    }

    /// Winner selection as a textbook: sort every standing into ranking order, then keep
    /// the first under the single-winner ablation, or everyone within the work-done
    /// deviation of the first.
    fn advancing_by_sorting_everything(
        mut ranked: Vec<Standing>,
        single_winner: bool,
        d: f64,
    ) -> Vec<Standing> {
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        if let Some(&(best, _, _)) = ranked.first() {
            if single_winner {
                ranked.truncate(1);
            } else {
                let threshold = best * (1.0 - d);
                ranked.retain(|(score, _, _)| *score >= threshold);
            }
        }
        ranked
    }

    #[test]
    fn threshold_first_selection_matches_sorting_everything() {
        let mut rng = SimRng::new(0x5e1).derive("advancing-battery");
        for case in 0..4_000 {
            // Boards of 0 to 80 players in shuffled order, with distinct configurations.
            // Even cases draw averages from a few values, so ties are common at the top,
            // on the threshold and below it.
            let players = rng.index(81);
            let distinct = 1 + rng.index(6);
            let mut configs: Vec<ConfigId> = (0..players as u64).map(|c| 3 * c + 1).collect();
            rng.shuffle(&mut configs);
            let played: Vec<Standing> = configs
                .into_iter()
                .enumerate()
                .map(|(i, config)| {
                    let score = if case % 2 == 0 {
                        rng.index(distinct) as f64 / distinct as f64
                    } else {
                        rng.uniform()
                    };
                    (score, config, i)
                })
                .collect();
            let d = [WORK_DONE_DEVIATION, 0.25, 0.5, 0.9][case % 4];
            let single_winner = case % 3 == 0;
            let mut got = played.clone();
            advancing(&mut got, single_winner, d);
            let want = advancing_by_sorting_everything(played, single_winner, d);
            let bits = |standings: &[Standing]| -> Vec<(u64, ConfigId, usize)> {
                standings
                    .iter()
                    .map(|s| (s.0.to_bits(), s.1, s.2))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "case {case}");
        }
    }

    /// `run_region` as it was before the veteran pool and the thread's buffers: fresh
    /// columns for every region, and the veterans and their weights rebuilt from every
    /// board each round. Winners are selected by sorting every standing.
    fn run_region_textbook(
        workload: &Workload,
        partition: &IndexPartition,
        region: usize,
        offset: u64,
        exec: &mut dyn ExecutionBackend,
        config: &TournamentConfig,
    ) -> RegionalOutcome {
        let mut rng = SimRng::new(exec.seed()).derive("regional");
        let players_per_game = config.effective_players_per_game(exec.vm().vcpus());
        let game_options = GameRules {
            early_termination: config.ablation.early_termination,
            ..GameRules::default()
        };
        let pool_size = players_per_game
            + (players_per_game / 2) * config.max_regional_rounds.saturating_sub(1);
        let mut candidates = partition.sample_distinct(region, pool_size, &mut rng);
        for id in &mut candidates {
            *id += offset;
        }
        let mut boards = vec![ScoreBoard::new(); candidates.len()];
        let mut specs: Vec<Option<ExecutionSpec>> = vec![None; candidates.len()];
        let mut unplayed: Vec<usize> = (0..candidates.len()).collect();
        rng.shuffle(&mut unplayed);
        let mut games_played = 0usize;
        let mut last_winner: Option<ConfigId> = None;
        let mut consecutive_wins = 0usize;
        let rounds = if config.ablation.swiss_regional {
            config.max_regional_rounds
        } else {
            1
        };
        let mut ranker = Ranker::default();
        for round in 0..rounds {
            let mut participants: Vec<usize> = Vec::new();
            if round == 0 || !config.ablation.swiss_regional {
                while participants.len() < players_per_game && !unplayed.is_empty() {
                    participants.push(unplayed.pop().unwrap());
                }
            } else {
                let new_slots = (players_per_game / 2).min(unplayed.len());
                for _ in 0..new_slots {
                    participants.push(unplayed.pop().unwrap());
                }
                let mut veterans: Vec<usize> = (0..boards.len())
                    .filter(|i| boards[*i].games_played() > 0)
                    .collect();
                let veteran_slots = (players_per_game - participants.len()).min(veterans.len());
                let mut weights: Vec<f64> = veterans
                    .iter()
                    .map(|i| boards[*i].average_execution_score().max(0.01))
                    .collect();
                for _ in 0..veteran_slots {
                    let pick = rng.weighted_index(&weights);
                    participants.push(veterans.swap_remove(pick));
                    weights.swap_remove(pick);
                }
            }
            if participants.len() < 2 {
                break;
            }
            let game_specs: Vec<ExecutionSpec> = participants
                .iter()
                .map(|&i| *specs[i].get_or_insert_with(|| workload.spec(candidates[i])))
                .collect();
            let play = exec.play_game(&game_specs, &game_options);
            exec.commit(&play);
            games_played += 1;
            let ranks = ranker.rank(&play.execution_scores);
            for (slot, i) in participants.iter().enumerate() {
                boards[*i].record_game(play.execution_scores[slot], ranks[slot]);
            }
            let winning_config = candidates[participants[ranker.standings()[0]]];
            if Some(winning_config) == last_winner {
                consecutive_wins += 1;
            } else {
                last_winner = Some(winning_config);
                consecutive_wins = 1;
            }
            if config.ablation.swiss_regional && consecutive_wins >= 2 {
                break;
            }
            if unplayed.is_empty() {
                break;
            }
        }
        let played: Vec<Standing> = (0..candidates.len())
            .filter(|i| boards[*i].games_played() > 0)
            .map(|i| (boards[i].average_execution_score(), candidates[i], i))
            .collect();
        let players_in = played.len();
        let single_winner = config.ablation.single_regional_winner;
        let winners = advancing_by_sorting_everything(played, single_winner, WORK_DONE_DEVIATION)
            .iter()
            .map(|&(_, id, i)| Player::regional_winner(id, region, boards[i], specs[i]))
            .collect();
        RegionalOutcome {
            region,
            winners,
            players_in,
            games_played,
            core_hours: exec.cost().core_hours(),
            wall_clock_seconds: exec.cost().wall_clock_seconds(),
        }
    }

    /// Everything a region reports, as 64-bit words, floats as their bits: the region,
    /// `players_in`, `games_played`, the core-hours and wall bits, and every field of
    /// every winner in order (configuration, origin, score board, spec).
    fn outcome_words(outcome: &RegionalOutcome) -> Vec<u64> {
        let mut words = vec![
            outcome.region as u64,
            outcome.players_in as u64,
            outcome.games_played as u64,
            outcome.core_hours.to_bits(),
            outcome.wall_clock_seconds.to_bits(),
            outcome.winners.len() as u64,
        ];
        for winner in &outcome.winners {
            words.extend(winner.to_words());
        }
        words
    }

    /// Plays `region` with `run_region` and with the textbook, each on a fresh fork,
    /// and asserts the two outcomes are equal word for word.
    fn assert_region_matches_the_textbook(
        workload: &Workload,
        partition: &IndexPartition,
        region: usize,
        config: &TournamentConfig,
        label: &str,
    ) {
        let mut exec = region_backend(config, region);
        let got = run_region(workload, partition, region, 0, exec.as_mut(), config);
        let mut exec = region_backend(config, region);
        let want = run_region_textbook(workload, partition, region, 0, exec.as_mut(), config);
        assert_eq!(
            outcome_words(&got),
            outcome_words(&want),
            "{label}, region {region}: {got:?} against {want:?}"
        );
    }

    /// The scaled setup at `seed` under the full design, without Swiss rounds and with
    /// a single regional winner.
    fn scaled_variants(seed: u64) -> Vec<(&'static str, TournamentConfig)> {
        let (_, _, mut config) = setup(16);
        config.seed = seed;
        let mut non_swiss = config;
        non_swiss.ablation.swiss_regional = false;
        let mut single_winner = config;
        single_winner.ablation.single_regional_winner = true;
        vec![
            ("Swiss", config),
            ("non-Swiss", non_swiss),
            ("single winner", single_winner),
        ]
    }

    /// The full Redis space in 10,000 regions with 16 players per game: the paper's
    /// scale.
    fn paper_scale(seed: u64) -> (Workload, IndexPartition, TournamentConfig) {
        let workload = Workload::full(Application::Redis);
        let partition = IndexPartition::new(workload.size(), 10_000);
        let mut config = TournamentConfig::scaled(10_000, seed);
        config.players_per_game = Some(16);
        config.parallel_regions = false;
        (workload, partition, config)
    }

    #[test]
    fn regions_match_the_textbook_on_the_scaled_setup() {
        // Every region of the scaled setup at three seeds under three variants, all on
        // this thread, so each region reuses the buffers the one before it left.
        let (workload, partition, _) = setup(16);
        for seed in [11, 12, 13] {
            for (variant, config) in scaled_variants(seed) {
                for region in 0..partition.parts() {
                    let label = format!("{variant} at seed {seed}");
                    assert_region_matches_the_textbook(
                        &workload, &partition, region, &config, &label,
                    );
                }
            }
        }
    }

    #[test]
    fn paper_scale_regions_match_the_textbook() {
        // 200 of the 10,000 regions of the full Redis space, one in every 50.
        let (workload, partition, config) = paper_scale(5);
        for region in (0..partition.parts()).step_by(50) {
            assert_region_matches_the_textbook(
                &workload,
                &partition,
                region,
                &config,
                "paper scale",
            );
        }
    }

    #[test]
    fn a_thread_plays_a_wider_region_after_a_narrower_one() {
        // On a new thread, whose buffers start empty: an 8-player region of the scaled
        // setup, a 16-player paper-scale region on the buffers it left, then the
        // 8-player one again on the 16-player region's.
        std::thread::spawn(|| {
            let (scaled_workload, scaled_partition, scaled_config) = setup(16);
            let (workload, partition, config) = paper_scale(9);
            for _ in 0..2 {
                assert_region_matches_the_textbook(
                    &scaled_workload,
                    &scaled_partition,
                    7,
                    &scaled_config,
                    "8 players",
                );
                assert_region_matches_the_textbook(
                    &workload,
                    &partition,
                    4_321,
                    &config,
                    "16 players",
                );
            }
        })
        .join()
        .expect("the regions match the textbook");
    }

    #[test]
    fn the_phase_matches_the_textbook_with_and_without_threads() {
        let (workload, partition, mut config) = setup(16);
        for parallel_regions in [false, true] {
            config.parallel_regions = parallel_regions;
            let mut main =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
            let (outcomes, _) = run_regional_phase(&workload, &partition, 0, &mut main, &config);
            assert_eq!(outcomes.len(), partition.parts());
            for (region, got) in outcomes.iter().enumerate() {
                let mut exec = region_backend(&config, region);
                let want =
                    run_region_textbook(&workload, &partition, region, 0, exec.as_mut(), &config);
                assert_eq!(
                    outcome_words(got),
                    outcome_words(&want),
                    "parallel regions {parallel_regions}, region {region}"
                );
            }
        }
    }

    #[test]
    fn phase_aggregates_cost_in_parallel() {
        let (workload, partition, config) = setup(4);
        let mut main = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
        let (outcomes, cost) = run_regional_phase(&workload, &partition, 0, &mut main, &config);
        assert_eq!(outcomes.len(), 4);
        let total_region_hours: f64 = outcomes.iter().map(|o| o.core_hours).sum();
        assert!((cost.core_hours() - total_region_hours).abs() / total_region_hours < 0.05);
        let longest = outcomes
            .iter()
            .map(|o| o.wall_clock_seconds)
            .fold(0.0_f64, f64::max);
        assert!((cost.wall_clock_seconds() - longest).abs() < 1e-6);
        // The regions' games never touch the main backend's own accounting.
        assert_eq!(main.cost().core_hours(), 0.0);
    }

    #[test]
    fn parallel_and_sequential_regions_agree() {
        let (workload, partition, mut config) = setup(4);
        let run_phase = |config: &TournamentConfig| {
            let mut main =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
            run_regional_phase(&workload, &partition, 0, &mut main, config).0
        };
        config.parallel_regions = false;
        let sequential = run_phase(&config);
        config.parallel_regions = true;
        let parallel = run_phase(&config);
        let winners = |outcomes: &[RegionalOutcome]| -> Vec<ConfigId> {
            outcomes
                .iter()
                .flat_map(|o| o.winners.iter().map(Player::config))
                .collect()
        };
        assert_eq!(winners(&sequential), winners(&parallel));
        // Threading must not change how much work each region did either: identical
        // game counts and identical (bitwise) cost accounting, region by region.
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(s.region, p.region);
            assert_eq!(s.games_played, p.games_played);
            assert_eq!(s.core_hours.to_bits(), p.core_hours.to_bits());
            assert_eq!(
                s.wall_clock_seconds.to_bits(),
                p.wall_clock_seconds.to_bits()
            );
        }
    }
}
