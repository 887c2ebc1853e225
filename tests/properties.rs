//! Property-based tests (proptest) of the core data structures and invariants.

use darwingame::cloudsim::{ExecutionSpec, GameRules};
use darwingame::prelude::*;
use darwingame::stats::OnlineStats;
use darwingame::workloads::{IndexPartition, Parameter, ParameterSpace};
use proptest::prelude::*;

proptest! {
    /// Mixed-radix encoding: index -> point -> index is the identity for arbitrary
    /// parameter spaces and arbitrary in-range indices.
    #[test]
    fn parameter_space_index_round_trip(
        level_counts in prop::collection::vec(1usize..6, 1..10),
        index_fraction in 0.0f64..1.0,
    ) {
        let parameters: Vec<Parameter> = level_counts
            .iter()
            .enumerate()
            .map(|(i, levels)| Parameter::with_level_count(format!("p{i}"), *levels))
            .collect();
        let space = ParameterSpace::new(parameters);
        let index = ((space.size() - 1) as f64 * index_fraction) as u64;
        let point = space.point_of(index);
        prop_assert_eq!(space.index_of(&point), index);
        // Every coordinate respects its parameter's level count.
        for (level, parameter) in point.iter().zip(space.parameters()) {
            prop_assert!(*level < parameter.level_count());
        }
    }

    /// Partitions cover the whole index space exactly once, and `part_of` inverts
    /// `range` for every element.
    #[test]
    fn index_partition_covers_space(total in 1u64..50_000, parts in 1usize..64) {
        let partition = IndexPartition::new(total, parts);
        let mut covered = 0u64;
        for part in 0..partition.parts() {
            let range = partition.range(part);
            covered += range.end - range.start;
            // Check the boundary elements map back to their part.
            if range.start < range.end {
                prop_assert_eq!(partition.part_of(range.start), part);
                prop_assert_eq!(partition.part_of(range.end - 1), part);
            }
        }
        prop_assert_eq!(covered, total);
    }

    /// Part sizes never differ by more than one configuration.
    #[test]
    fn index_partition_is_balanced(total in 1u64..100_000, parts in 1usize..128) {
        let partition = IndexPartition::new(total, parts);
        let sizes: Vec<u64> = (0..partition.parts()).map(|p| partition.part_size(p)).collect();
        let min = sizes.iter().min().copied().unwrap_or(0);
        let max = sizes.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    /// The empirical CDF is monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn empirical_cdf_is_monotone(samples in prop::collection::vec(0.0f64..1_000.0, 1..200)) {
        let cdf = EmpiricalCdf::from_samples(&samples);
        let mut previous = 0.0;
        for i in 0..=100 {
            let value = i as f64 * 10.0;
            let fraction = cdf.fraction_at_or_below(value);
            prop_assert!((0.0..=1.0).contains(&fraction));
            prop_assert!(fraction >= previous);
            previous = fraction;
        }
        prop_assert!((cdf.fraction_at_or_below(1_000.0) - 1.0).abs() < 1e-12);
    }

    /// Streaming statistics agree with batch statistics on arbitrary inputs.
    #[test]
    fn online_stats_match_batch(samples in prop::collection::vec(-1_000.0f64..1_000.0, 2..100)) {
        let mut online = OnlineStats::new();
        for sample in &samples {
            online.push(*sample);
        }
        prop_assert!((online.mean() - darwingame::stats::mean(&samples)).abs() < 1e-6);
        prop_assert!(
            (online.std_dev() - darwingame::stats::std_dev(&samples)).abs() < 1e-6
        );
    }

    /// A co-located game's execution scores are always in [0, 1], the winner always has
    /// score 1, and observed times are never below the dedicated execution time of the
    /// corresponding spec (interference can only slow things down). The bound holds for
    /// the extrapolated times of players that did not finish too, because no player
    /// progresses faster than 1.01 / base time.
    #[test]
    fn game_scores_and_times_are_well_formed(
        base_times in prop::collection::vec(60.0f64..600.0, 2..6),
        sensitivities in prop::collection::vec(0.0f64..1.2, 6),
        seed in 0u64..1_000,
    ) {
        let specs: Vec<ExecutionSpec> = base_times
            .iter()
            .zip(sensitivities.iter())
            .map(|(t, s)| ExecutionSpec::new(*t, *s))
            .collect();
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), seed);
        let play = cloud.play_game(&specs, &GameRules::playoff());
        let scores = &play.execution_scores;
        prop_assert!(scores.iter().all(|s| (0.0..=1.0 + 1e-9).contains(s)));
        let winner = (0..play.players())
            .min_by(|&a, &b| play.observed_times[a].total_cmp(&play.observed_times[b]))
            .expect("a game has players");
        prop_assert!((scores[winner] - 1.0).abs() < 1e-9);
        for (spec, observed) in specs.iter().zip(&play.observed_times) {
            prop_assert!(*observed >= spec.base_time() * 0.98);
        }
    }

    /// Tournament score bookkeeping: the consistency score is always within (0, 1] once a
    /// game has been played, and is 1 exactly when the player won every game.
    #[test]
    fn consistency_score_is_bounded(ranks in prop::collection::vec(1usize..8, 1..20)) {
        let mut board = darwingame::darwin::ScoreBoard::new();
        for rank in &ranks {
            board.record_game(1.0 / *rank as f64, *rank);
        }
        let consistency = board.consistency_score();
        prop_assert!(consistency > 0.0 && consistency <= 1.0);
        let all_wins = ranks.iter().all(|r| *r == 1);
        prop_assert_eq!((consistency - 1.0).abs() < 1e-12, all_wins);
    }

    /// Synthetic surfaces always produce execution specs inside their configured bounds.
    #[test]
    fn surface_specs_stay_in_bounds(raw_id in 0u64..1_000_000, app_index in 0usize..4) {
        let app = Application::ALL[app_index];
        let workload = Workload::scaled(app, 20_000);
        let id = raw_id % workload.size();
        let spec = workload.spec(id);
        let config = app.surface_config();
        prop_assert!(spec.base_time() >= config.best_time - 1e-9);
        prop_assert!(spec.base_time() <= config.worst_time + 1e-9);
        prop_assert!(spec.sensitivity() >= 0.0 && spec.sensitivity() <= 1.5);
    }
}
