//! End-to-end integration tests: the full tuning pipeline across crates.

use darwingame::prelude::*;

fn small_tournament(seed: u64) -> TournamentConfig {
    let mut config = TournamentConfig::scaled(24, seed);
    config.players_per_game = Some(8);
    config.max_regional_rounds = 4;
    config
}

/// DarwinGame end to end: the champion is a genuinely fast configuration and the whole
/// pipeline (regions → global → playoffs → final) accounts its cost.
#[test]
fn darwin_game_finds_fast_configuration_end_to_end() {
    let workload = Workload::scaled(Application::Redis, 30_000);
    let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 11);
    let report = DarwinGame::new(small_tournament(3)).run(&workload, &mut cloud);

    let champion_time = workload.base_time(report.champion);
    let surface = workload.application().surface_config();
    assert!(
        champion_time < surface.best_time + 0.3 * (surface.worst_time - surface.best_time),
        "champion should sit in the fast tail (got {champion_time:.1}s)"
    );
    assert!(report.core_hours > 0.0);
    assert!(report.wall_clock_seconds > 0.0);
    assert_eq!(report.phases.len(), 3);
    assert!(report.games_played >= report.phases.iter().map(|p| p.games).sum::<usize>());
}

/// DarwinGame's chosen configuration is markedly more stable under interference than the
/// configuration chosen by an interference-unaware baseline with a comparable budget.
#[test]
fn darwin_game_choice_is_more_stable_than_baselines() {
    let workload = Workload::scaled(Application::Redis, 30_000);

    // A tournament with enough regional coverage to surface the rare fast-and-robust
    // configurations (the reduced-scale equivalent of the paper's 10,000 regions).
    // At this scale an individual environment seed can still get unlucky and crown a
    // sensitive champion, so take the median stability over five environments — the
    // typical behaviour is what the paper's claim is about.
    let mut darwin_covs: Vec<f64> = (21..26u64)
        .map(|env_seed| {
            let mut tournament = TournamentConfig::scaled(48, 7);
            tournament.players_per_game = Some(16);
            let mut darwin_cloud =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), env_seed);
            let report = DarwinGame::new(tournament).run(&workload, &mut darwin_cloud);
            let darwin_runs =
                darwin_cloud.observe_repeated(workload.spec(report.champion), 80, 1_800.0);
            coefficient_of_variation(&darwin_runs)
        })
        .collect();
    darwin_covs.sort_by(|a, b| a.partial_cmp(b).expect("CoVs are not NaN"));
    let darwin_cov = darwin_covs[darwin_covs.len() / 2];

    // Average the baseline over a few seeds so the comparison is not hostage to one
    // lucky/unlucky baseline run.
    let mut baseline_covs = Vec::new();
    for seed in 0..3u64 {
        let mut cloud = CloudEnvironment::new(
            VmType::M5_8xlarge,
            InterferenceProfile::typical(),
            100 + seed,
        );
        let outcome =
            OpenTuner::new(seed).tune(&workload, &mut cloud, TuningBudget::evaluations(120));
        let runs = cloud.observe_repeated(workload.spec(outcome.chosen), 80, 1_800.0);
        baseline_covs.push(coefficient_of_variation(&runs));
    }
    let baseline_cov = darwingame::stats::mean(&baseline_covs);
    assert!(
        darwin_cov < baseline_cov,
        "DarwinGame CoV ({darwin_cov:.2}%) should beat the baseline average ({baseline_cov:.2}%)"
    );
    assert!(
        darwin_cov < 6.0,
        "DarwinGame CoV should be small, got {darwin_cov:.2}%"
    );
}

/// Running the regional phase on worker threads is an execution detail: with the same
/// seed, the parallel and serial tournaments must crown the same champion, play the
/// same number of games, and account the same cost (guards the scoped-thread chunking
/// in `run_regional_phase`).
#[test]
fn parallel_regions_do_not_change_the_tournament() {
    let workload = Workload::scaled(Application::Redis, 20_000);
    let run = |parallel_regions: bool| {
        let mut config = TournamentConfig::scaled(24, 13);
        config.players_per_game = Some(8);
        config.parallel_regions = parallel_regions;
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 77);
        let report = DarwinGame::new(config).run(&workload, &mut cloud);
        (
            report.champion,
            report.games_played,
            report.core_hours.to_bits(),
            report.wall_clock_seconds.to_bits(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// Every tuner implements the same trait and can be driven interchangeably.
#[test]
fn all_tuners_run_through_the_common_interface() {
    let workload = Workload::scaled(Application::Ffmpeg, 8_000);
    let budget = TuningBudget::evaluations(30);
    let mut tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(RandomSearch::new(1)),
        Box::new(ExhaustiveSearch::new()),
        Box::new(ActiveHarmony::new(2)),
        Box::new(OpenTuner::new(3)),
        Box::new(Bliss::new(4)),
        Box::new(DarwinGame::new(small_tournament(5))),
        Box::new(
            HybridDarwinGame::bliss(6)
                .with_subspaces(4)
                .with_explorations(2),
        ),
    ];
    for tuner in &mut tuners {
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 55);
        let outcome = tuner.tune(&workload, &mut cloud, budget);
        assert!(
            outcome.chosen < workload.size(),
            "{} picked out of range",
            outcome.tuner
        );
        assert!(
            outcome.core_hours > 0.0,
            "{} reported no cost",
            outcome.tuner
        );
        assert!(outcome.believed_time > 0.0);
    }
}

/// Tuning twice with identical seeds is bit-for-bit reproducible, and changing the
/// environment seed changes the observations (the noise is real).
#[test]
fn tuning_is_deterministic_per_seed() {
    let workload = Workload::scaled(Application::Gromacs, 10_000);
    let run = |env_seed: u64| {
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), env_seed);
        DarwinGame::new(small_tournament(9))
            .run(&workload, &mut cloud)
            .champion
    };
    assert_eq!(run(7), run(7));

    let observe = |env_seed: u64| {
        let cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), env_seed);
        cloud.observe_single_at(workload.spec(0), SimTime::from_seconds(500.0), 0)
    };
    assert_ne!(observe(1), observe(2));
}

/// The hybrid integration explores several subspaces and reports an aggregate cost that
/// is bounded by a stand-alone tournament of the same scale per subspace.
#[test]
fn hybrid_explores_subspaces_and_reports_cost() {
    let workload = Workload::scaled(Application::Lammps, 16_000);
    let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 33);
    let mut hybrid = HybridDarwinGame::active_harmony(4)
        .with_subspaces(8)
        .with_explorations(4);
    let outcome = hybrid.tune(&workload, &mut cloud, TuningBudget::default());
    assert_eq!(outcome.history.len(), 4);
    assert!(outcome.core_hours > 0.0);
    assert!(outcome.chosen < workload.size());
}
