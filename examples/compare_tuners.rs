//! Compare DarwinGame against the interference-unaware baselines on one workload.
//!
//! This is a miniature of the paper's Fig. 10/11, declared as a campaign: every tuner on
//! the tuner axis tunes the same application in its own noisy cloud cell, the cells run
//! in parallel across the host's cores, and the report aggregates the re-measured mean
//! execution time and variability of every choice.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compare_tuners
//! ```
//!
//! Set `DG_SMOKE=1` to run the CI-sized grid (seconds instead of minutes).

use darwingame::prelude::*;

fn main() {
    let smoke = smoke_requested();

    let mut spec = CampaignSpec::single("compare-tuners", "DarwinGame", 1);
    spec.tuners = vec![
        "Exhaustive".into(),
        "BLISS".into(),
        "OpenTuner".into(),
        "ActiveHarmony".into(),
        "RandomSearch".into(),
        "DarwinGame".into(),
    ];
    spec.scale = if smoke {
        ExperimentScale::smoke()
    } else {
        ExperimentScale {
            space_size: 20_000,
            regions: 48,
            baseline_budget: 150,
            exhaustive_budget: 2_000,
            evaluation_runs: 50,
            ..ExperimentScale::default_scale()
        }
    };
    spec.base_seed = 100;

    let workload = Workload::scaled(Application::Redis, spec.scale.space_size);
    let oracle_time = OracleTuner::new().optimal_time(&workload, VmType::M5_8xlarge);

    let campaign = Campaign::new(spec);
    let report = campaign.run();

    println!(
        "Tuning {} in a noisy m5.8xlarge cloud ({} campaign cells, {} workers)\n",
        workload.application(),
        report.completed_cells(),
        darwingame::campaign::default_workers(),
    );
    println!("Optimal (dedicated): {oracle_time:.1} s\n");
    println!("{}", report.summary_table().render());
    println!("(lower is better everywhere; 'Optimal' is the dedicated-environment bound)");
    println!("\ncampaign report JSON:\n{}", report.to_json());
}
