//! The sharding differential battery: sharded campaigns are indistinguishable from
//! whole campaigns.
//!
//! The load-bearing property of the whole subsystem is pinned here: for randomized
//! `(grid, K, strategy)` triples, running the campaign whole and running it as K
//! shards (each shard round-tripped through its JSON file format, the way real
//! shard processes hand results around) produce **byte-identical** canonical JSON
//! after [`CampaignReport::merge`]. The vendored proptest harness runs 64
//! deterministic cases per property.

use dg_campaign::{
    Campaign, CampaignReport, CampaignSpec, ExperimentScale, ShardPlan, ShardReport, ShardStrategy,
};
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_workloads::Application;
use proptest::prelude::*;

/// A deliberately tiny per-cell scale so 64 differential cases (each running every
/// cell twice) stay inside a few seconds.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        space_size: 400,
        regions: 4,
        players_per_game: 4,
        baseline_budget: 6,
        exhaustive_budget: 24,
        evaluation_runs: 4,
        evaluation_spacing: 600.0,
        tuning_repeats: 1,
    }
}

/// Builds a randomized small grid from the sampled axis sizes.
fn random_spec(
    tuner_count: usize,
    profile_count: usize,
    seed_count: u64,
    base_seed: u64,
    paired: bool,
) -> CampaignSpec {
    let mut spec = CampaignSpec::new("sharding-differential");
    let tuner_pool = ["RandomSearch", "OpenTuner", "ActiveHarmony"];
    spec.tuners = tuner_pool[..tuner_count]
        .iter()
        .map(|t| t.to_string())
        .collect();
    spec.applications = vec![Application::Redis];
    spec.vm_types = vec![VmType::M5_8xlarge];
    let profile_pool = [InterferenceProfile::typical(), InterferenceProfile::heavy()];
    spec.profiles = profile_pool[..profile_count].to_vec();
    spec.seeds = (0..seed_count).collect();
    spec.scale = tiny_scale();
    spec.base_seed = base_seed;
    spec.paired_tuners = paired;
    spec
}

proptest! {
    /// The differential property: whole run == merged sharded run, byte for byte,
    /// with every shard report round-tripped through its JSON wire format.
    #[test]
    fn sharded_run_merges_to_the_whole_run_byte_identically(
        tuner_count in 1usize..4,
        profile_count in 1usize..3,
        seed_count in 1u64..4,
        base_seed in 0u64..1_000_000,
        shards in 1usize..6,
        strategy_index in 0usize..3,
        paired in 0u8..2,
    ) {
        let spec = random_spec(tuner_count, profile_count, seed_count, base_seed, paired == 1);
        let strategy = ShardStrategy::ALL[strategy_index];
        let campaign = Campaign::new(spec.clone());
        let whole = campaign.run_with_workers(1);

        let plan = ShardPlan::new(&spec, shards, strategy);
        let mut reports = Vec::with_capacity(shards);
        for shard in 0..plan.shard_count() {
            // Alternate worker counts so the battery also covers the parallel path.
            let workers = 1 + (shard % 2);
            let report = campaign.run_shard_with_workers(&plan, shard, workers);
            // Round-trip through the wire format, the way real shard processes do.
            let parsed = ShardReport::from_json(&report.to_json())
                .expect("shard reports parse their own canonical output");
            prop_assert_eq!(&parsed, &report, "JSON round trip must be lossless");
            reports.push(parsed);
        }
        // Merge in reverse arrival order to prove order-independence.
        reports.reverse();
        let merged = CampaignReport::merge(reports).expect("plan shards always merge");
        prop_assert_eq!(
            merged.to_json(),
            whole.to_json(),
            "strategy {} x {} shards diverged from the whole run",
            strategy,
            shards
        );
    }

    /// Shard plans disjointly and exhaustively cover the grid's index space, for
    /// every strategy.
    #[test]
    fn plans_partition_the_scheduled_index_space(
        tuner_count in 1usize..4,
        profile_count in 1usize..3,
        seed_count in 1u64..5,
        shards in 1usize..9,
        strategy_index in 0usize..3,
    ) {
        let spec = random_spec(tuner_count, profile_count, seed_count, 1, false);
        let grid = spec.grid_size();
        let strategy = ShardStrategy::ALL[strategy_index];
        let plan = ShardPlan::new(&spec, shards, strategy);

        prop_assert_eq!(plan.grid_cells(), grid);
        let mut owner = vec![None::<usize>; grid];
        for shard in 0..plan.shard_count() {
            let mut previous = None;
            for index in plan.indices(shard) {
                prop_assert!(*index < grid, "index out of range");
                prop_assert!(owner[*index].is_none(), "cell {} assigned twice", index);
                owner[*index] = Some(shard);
                prop_assert!(previous < Some(*index), "indices must be ascending");
                previous = Some(*index);
            }
        }
        prop_assert!(owner.iter().all(Option::is_some), "some cell is uncovered");
    }

    /// Plans are a pure function of `(spec, K, strategy)`.
    #[test]
    fn plans_are_deterministic(
        tuner_count in 1usize..4,
        seed_count in 1u64..5,
        shards in 1usize..9,
        strategy_index in 0usize..3,
    ) {
        let spec = random_spec(tuner_count, 1, seed_count, 3, false);
        let strategy = ShardStrategy::ALL[strategy_index];
        let a = ShardPlan::new(&spec, shards, strategy);
        let b = ShardPlan::new(&spec.clone(), shards, strategy);
        prop_assert_eq!(a, b);
    }

    /// Cost-balanced plans respect the greedy LPT bound: no shard's estimated cost
    /// exceeds `total/K + max_cell`, even with an Exhaustive tuner skewing cell costs.
    #[test]
    fn cost_balanced_plans_respect_the_lpt_bound(
        tuner_count in 1usize..4,
        seed_count in 1u64..5,
        shards in 1usize..7,
        exhaustive_budget in 1usize..512,
    ) {
        let mut spec = random_spec(tuner_count, 1, seed_count, 5, false);
        // Skew one tuner's cost so balancing actually has work to do.
        spec.tuners.push("Exhaustive".into());
        spec.scale.exhaustive_budget = exhaustive_budget;
        let plan = ShardPlan::new(&spec, shards, ShardStrategy::CostBalanced);
        let total: u64 = (0..plan.shard_count()).map(|s| plan.estimated_cost(s)).sum();
        let max_cell = spec
            .cells()
            .iter()
            .map(|c| spec.budget_for(&c.tuner) as u64)
            .max()
            .unwrap_or(0);
        for shard in 0..plan.shard_count() {
            prop_assert!(
                plan.estimated_cost(shard) <= total / shards as u64 + max_cell,
                "shard {} cost {} exceeds LPT bound ({} total, {} max cell)",
                shard,
                plan.estimated_cost(shard),
                total,
                max_cell
            );
        }
    }
}

/// Shard plans are part of the sharding protocol: every participant rebuilds the plan
/// locally, so a plan that moved between versions would split one campaign two ways.
/// Pinned at K=3 on a grid whose Exhaustive cells cost ten times the others.
#[test]
fn shard_plans_are_pinned() {
    let mut spec = CampaignSpec::single("plan-pin", "RandomSearch", 2);
    spec.tuners = vec!["RandomSearch".into(), "Exhaustive".into(), "BLISS".into()];
    spec.scale = ExperimentScale::smoke();
    let expected: [(ShardStrategy, [&[usize]; 3]); 3] = [
        (ShardStrategy::Contiguous, [&[0, 1], &[2, 3], &[4, 5]]),
        (ShardStrategy::Strided, [&[0, 3], &[1, 4], &[2, 5]]),
        (ShardStrategy::CostBalanced, [&[2], &[3], &[0, 1, 4, 5]]),
    ];
    for (strategy, shards) in expected {
        let plan = ShardPlan::new(&spec, 3, strategy);
        for (shard, indices) in shards.iter().enumerate() {
            assert_eq!(plan.indices(shard), *indices, "{strategy} shard {shard}");
        }
    }
}

/// The paired-tuner ablation design survives sharding even when the strategy splits a
/// seed-pair across shards: pairing is a property of seed derivation, not scheduling.
#[test]
fn paired_tuners_survive_arbitrary_shard_splits() {
    let mut spec = random_spec(2, 1, 2, 77, true);
    spec.scale = tiny_scale();
    let campaign = Campaign::new(spec.clone());
    let whole = campaign.run_with_workers(2);

    // Strided with K=3 tears the (tuner A, tuner B) pairs apart deliberately.
    let plan = ShardPlan::new(&spec, 3, ShardStrategy::Strided);
    let reports: Vec<ShardReport> = (0..3).map(|s| campaign.run_shard(&plan, s)).collect();
    let merged = CampaignReport::merge(reports).expect("shards merge");
    assert_eq!(merged.to_json(), whole.to_json());
}

/// Reports produced under different base seeds refuse to merge: the fingerprint check
/// catches operator error before it corrupts a result.
#[test]
fn shards_from_different_specs_refuse_to_merge() {
    let spec_a = random_spec(1, 1, 2, 21, false);
    let mut spec_b = spec_a.clone();
    spec_b.base_seed = 22;
    let plan_a = ShardPlan::new(&spec_a, 2, ShardStrategy::Contiguous);
    let plan_b = ShardPlan::new(&spec_b, 2, ShardStrategy::Contiguous);
    let shard_a = Campaign::new(spec_a).run_shard_with_workers(&plan_a, 0, 1);
    let shard_b = Campaign::new(spec_b).run_shard_with_workers(&plan_b, 1, 1);
    let result = CampaignReport::merge(vec![shard_a, shard_b]);
    assert!(
        matches!(
            result,
            Err(dg_campaign::MergeError::SpecMismatch {
                field: "fingerprint",
                ..
            })
        ),
        "got {result:?}"
    );
}
