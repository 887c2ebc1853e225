//! The DarwinGame tournament orchestrator (Algorithm 1 of the paper).

use crate::config::TournamentConfig;
use crate::global::run_global_phase;
use crate::player::Player;
use crate::playoffs::run_playoffs;
use crate::regional::run_regional_phase;
use crate::report::{PhaseSummary, TournamentReport};
use dg_cloudsim::{CostTracker, SimRng};
use dg_exec::ExecutionBackend;
use dg_obs::Span;
use dg_tuners::{Tuner, TuningBudget, TuningOutcome};
use dg_workloads::{IndexPartition, Workload};

/// The DarwinGame tuner: a four-phase tournament played among co-located application
/// executions with different tuning configurations.
///
/// ```
/// use darwin_core::{DarwinGame, TournamentConfig};
/// use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
/// use dg_workloads::{Application, Workload};
///
/// let workload = Workload::scaled(Application::Redis, 2_000);
/// let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
/// let mut config = TournamentConfig::scaled(8, 42);
/// config.players_per_game = Some(8);
/// let report = DarwinGame::new(config).run(&workload, &mut cloud);
/// assert!(report.champion < workload.size());
/// ```
#[derive(Debug, Clone)]
pub struct DarwinGame {
    config: TournamentConfig,
}

impl DarwinGame {
    /// Creates a tournament tuner from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`TournamentConfig::validate`]).
    pub fn new(config: TournamentConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The tournament configuration.
    pub fn config(&self) -> &TournamentConfig {
        &self.config
    }

    /// Plays the full tournament for `workload` and returns the detailed report.
    ///
    /// The regional phase runs on per-region sub-backends forked from `exec` (same VM
    /// type and interference profile); the global phase, playoffs, and final run on
    /// `exec` itself. Any [`ExecutionBackend`] works: the cloud simulator (the
    /// default), a trace recorder/replayer, or a real-process backend.
    pub fn run(&self, workload: &Workload, exec: &mut dyn ExecutionBackend) -> TournamentReport {
        let config = &self.config;
        let size = workload.size();
        let (offset, span) = match config.search_range {
            Some((start, end)) => {
                let end = end.min(size);
                assert!(start < end, "search_range outside the workload's space");
                (start, end - start)
            }
            None => (0, size),
        };
        let regions = config.regions.min(span as usize).max(1);
        let partition = IndexPartition::new(span, regions);

        let main_start = exec.cost().snapshot();

        // -------- Phase I: regional (Swiss style) --------
        let mut regional_played = 0;
        let (entrants, regional_cost, regional_games) = if config.ablation.regional_phase {
            let _span = Span::enter("phase.regional");
            let (outcomes, cost) = run_regional_phase(workload, &partition, offset, exec, config);
            let games = outcomes.iter().map(|o| o.games_played).sum();
            regional_played = outcomes.iter().map(|o| o.players_in).sum();
            let players: Vec<Player> = outcomes.into_iter().flat_map(|o| o.winners).collect();
            (players, cost, games)
        } else {
            // Ablation "w/o regional": one random configuration per region enters the
            // global phase directly, with no score history.
            let mut rng = SimRng::new(config.seed).derive("no-regional");
            let players: Vec<Player> = (0..partition.parts())
                .map(|region| {
                    Player::new(partition.sample(region, &mut rng) + offset, Some(region))
                })
                .collect();
            (players, CostTracker::new(), 0)
        };

        // Safety net: if the regional phase produced nothing (degenerate tiny spaces),
        // fall back to one random player per region.
        let entrants = if entrants.is_empty() {
            let mut rng = SimRng::new(config.seed).derive("regional-fallback");
            (0..partition.parts())
                .map(|region| {
                    Player::new(partition.sample(region, &mut rng) + offset, Some(region))
                })
                .collect()
        } else {
            entrants
        };
        let regional_winner_count = entrants.len();
        // Entrants drawn without a regional game are the phase's players in.
        let regional_players_in = if regional_games == 0 {
            regional_winner_count
        } else {
            regional_played
        };

        // -------- Phase II: global (double elimination) --------
        let global_start = exec.cost().snapshot();
        let global = {
            let _span = Span::enter("phase.global");
            run_global_phase(exec, workload, entrants, config)
        };
        let global_core_hours = global_start.delta(exec.cost()).core_hours;

        // -------- Phases III & IV: playoffs (barrage) and final --------
        let playoff_players = global.playoff_players();
        let playoff_entrants = playoff_players.len();
        let playoffs_start = exec.cost().snapshot();
        let playoffs = {
            let _span = Span::enter("phase.playoffs");
            run_playoffs(exec, workload, playoff_players, config)
        };
        let playoffs_core_hours = playoffs_start.delta(exec.cost()).core_hours;

        let main_delta = main_start.delta(exec.cost());

        TournamentReport {
            champion: playoffs.champion.config(),
            runner_up: playoffs.runner_up.as_ref().map(Player::config),
            champion_observed_time: playoffs.champion_observed_time,
            regional_winners: regional_winner_count,
            games_played: regional_games + global.games_played + playoffs.games_played,
            core_hours: regional_cost.core_hours() + main_delta.core_hours,
            wall_clock_seconds: regional_cost.wall_clock_seconds() + main_delta.wall_clock_seconds,
            phases: vec![
                PhaseSummary {
                    name: "regional".into(),
                    players_in: regional_players_in,
                    players_out: regional_winner_count,
                    games: regional_games,
                    core_hours: regional_cost.core_hours(),
                },
                PhaseSummary {
                    name: "global".into(),
                    players_in: regional_winner_count,
                    players_out: playoff_entrants,
                    games: global.games_played,
                    core_hours: global_core_hours,
                },
                PhaseSummary {
                    name: "playoffs+final".into(),
                    players_in: playoff_entrants,
                    players_out: 1,
                    games: playoffs.games_played,
                    core_hours: playoffs_core_hours,
                },
            ],
        }
    }
}

impl Tuner for DarwinGame {
    fn name(&self) -> &str {
        "DarwinGame"
    }

    /// Runs the tournament. The evaluation budget is ignored: DarwinGame's sampling
    /// effort is determined by its tournament structure (`regions`, players per game,
    /// round caps), not by a per-sample budget.
    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        _budget: TuningBudget,
    ) -> TuningOutcome {
        self.run(workload, exec).to_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    fn small_config(regions: usize, seed: u64) -> TournamentConfig {
        let mut config = TournamentConfig::scaled(regions, seed);
        config.players_per_game = Some(8);
        config.max_regional_rounds = 4;
        config.parallel_regions = false;
        config
    }

    fn cloud(seed: u64) -> CloudEnvironment {
        CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), seed)
    }

    #[test]
    fn full_tournament_finds_a_fast_configuration() {
        let workload = Workload::scaled(Application::Redis, 20_000);
        let mut cloud = cloud(3);
        let report = DarwinGame::new(small_config(24, 5)).run(&workload, &mut cloud);

        let champion_time = workload.base_time(report.champion);
        let best = workload.application().surface_config().best_time;
        let worst = workload.application().surface_config().worst_time;
        assert!(
            champion_time < best + 0.35 * (worst - best),
            "champion ({champion_time}s) should be well into the fast tail"
        );
        assert!(report.games_played > 10);
        assert!(report.core_hours > 0.0);
        assert_eq!(report.phases.len(), 3);
    }

    #[test]
    fn tournament_is_deterministic() {
        let workload = Workload::scaled(Application::Ffmpeg, 8_000);
        let run = || {
            let mut cloud = cloud(9);
            DarwinGame::new(small_config(12, 21))
                .run(&workload, &mut cloud)
                .champion
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_can_pick_different_champions_but_all_fast() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let config = workload.application().surface_config();
        for seed in 0..3u64 {
            let mut env = cloud(100 + seed);
            let report = DarwinGame::new(small_config(12, seed)).run(&workload, &mut env);
            let time = workload.base_time(report.champion);
            assert!(
                time < (config.best_time + config.worst_time) / 2.0,
                "seed {seed}: champion too slow ({time}s)"
            );
        }
    }

    #[test]
    fn search_range_restricts_the_champion() {
        let workload = Workload::scaled(Application::Lammps, 10_000);
        let mut env = cloud(7);
        let mut config = small_config(8, 13);
        let start = workload.size() / 2;
        let end = workload.size();
        config.search_range = Some((start, end));
        let report = DarwinGame::new(config).run(&workload, &mut env);
        assert!(report.champion >= start && report.champion < end);
    }

    #[test]
    fn tuner_trait_reports_darwin_game_outcome() {
        let workload = Workload::scaled(Application::Gromacs, 8_000);
        let mut env = cloud(11);
        let mut tuner = DarwinGame::new(small_config(8, 2));
        let outcome = tuner.tune(&workload, &mut env, TuningBudget::evaluations(10));
        assert_eq!(outcome.tuner, "DarwinGame");
        assert!(outcome.core_hours > 0.0);
        assert!(outcome.believed_time > 0.0);
    }

    #[test]
    fn report_phase_cost_sums_to_total() {
        let workload = Workload::scaled(Application::Redis, 8_000);
        let mut env = cloud(17);
        let report = DarwinGame::new(small_config(10, 3)).run(&workload, &mut env);
        let phase_total: f64 = report.phases.iter().map(|p| p.core_hours).sum();
        assert!((phase_total - report.core_hours).abs() / report.core_hours < 0.05);
    }

    #[test]
    fn report_totals_are_consistent_across_seeds_and_region_counts() {
        let workload = Workload::scaled(Application::Redis, 12_000);
        for seed in [1u64, 9, 42] {
            for regions in [4usize, 10, 24] {
                let mut env = cloud(100 + seed * 7 + regions as u64);
                let report = DarwinGame::new(small_config(regions, seed)).run(&workload, &mut env);
                let label = format!("seed {seed}, {regions} regions");

                assert_eq!(
                    report.phases.len(),
                    3,
                    "{label}: expected 3 phase summaries"
                );
                let phase_games: usize = report.phases.iter().map(|p| p.games).sum();
                assert_eq!(
                    phase_games, report.games_played,
                    "{label}: phase games must sum to the report total"
                );
                let phase_hours: f64 = report.phases.iter().map(|p| p.core_hours).sum();
                assert!(
                    (phase_hours - report.core_hours).abs() <= 1e-9 * report.core_hours,
                    "{label}: phase core-hours {phase_hours} vs total {}",
                    report.core_hours
                );
                // Phase hand-offs line up: regional winners enter the global phase, the
                // global phase's survivors enter the playoffs, one champion leaves.
                assert_eq!(
                    report.phases[0].players_out, report.regional_winners,
                    "{label}"
                );
                assert_eq!(
                    report.phases[1].players_in, report.regional_winners,
                    "{label}"
                );
                assert_eq!(
                    report.phases[1].players_out, report.phases[2].players_in,
                    "{label}"
                );
                assert_eq!(report.phases[2].players_out, 1, "{label}");
                assert!(report.core_hours > 0.0, "{label}");
            }
        }
    }

    #[test]
    fn ablated_tournament_without_regional_phase_still_completes() {
        let workload = Workload::scaled(Application::Redis, 8_000);
        let mut env = cloud(19);
        let mut config = small_config(10, 23);
        config.ablation.regional_phase = false;
        let report = DarwinGame::new(config).run(&workload, &mut env);
        assert!(report.champion < workload.size());
        assert_eq!(report.phases[0].games, 0);
        // The drawn entrants, one per region, are the phase's players in and out.
        assert_eq!(report.phases[0].players_in, 10);
        assert_eq!(report.phases[0].players_out, 10);
    }
}
