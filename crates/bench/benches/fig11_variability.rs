//! Figure 11 — Coefficient of variation of the chosen configuration across repeated
//! cloud executions.
//!
//! After tuning, the chosen configuration is executed many times in the cloud at
//! different periods; the coefficient of variation of those execution times measures how
//! stable the tuner's choice is under interference. DarwinGame's choice is dramatically
//! more stable than those of the interference-unaware tuners.
//!
//! Run with `cargo bench --bench fig11_variability`.

use dg_bench::{run_session, ExperimentScale};
use dg_campaign::standard_registry;
use dg_cloudsim::VmType;
use dg_stats::{Column, Table};
use dg_tuners::{ActiveHarmony, Bliss, ExhaustiveSearch, OpenTuner, Tuner};
use dg_workloads::Application;

fn main() {
    let scale = ExperimentScale::default_scale();
    println!("=== Figure 11: CoV of execution time of the chosen configuration ===\n");

    let mut table = Table::new(vec![
        Column::left("application"),
        Column::left("tuner"),
        Column::right("CoV (%)"),
        Column::right("mean time (s)"),
    ]);

    let mut darwin_covs = Vec::new();
    let mut baseline_covs = Vec::new();
    for app in Application::ALL {
        let mut tuner = standard_registry(&scale)
            .build("DarwinGame", 7, VmType::M5_8xlarge)
            .expect("DarwinGame is registered");
        let darwin = run_session(tuner.as_mut(), app, &scale, 700, 0.0);
        darwin_covs.push(darwin.cov_percent);
        table.push_row(vec![
            app.name().into(),
            "DarwinGame".into(),
            format!("{:.2}", darwin.cov_percent),
            format!("{:.1}", darwin.mean_time),
        ]);

        let mut baselines: Vec<Box<dyn Tuner>> = vec![
            Box::new(ExhaustiveSearch::new()),
            Box::new(Bliss::new(41)),
            Box::new(OpenTuner::new(42)),
            Box::new(ActiveHarmony::new(43)),
        ];
        for tuner in &mut baselines {
            let choice = run_session(tuner.as_mut(), app, &scale, 900, 0.0);
            baseline_covs.push(choice.cov_percent);
            let name = tuner.name().to_string();
            table.push_row(vec![
                app.name().into(),
                name,
                format!("{:.2}", choice.cov_percent),
                format!("{:.1}", choice.mean_time),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "DarwinGame average CoV: {:.2} %   baselines average CoV: {:.2} %",
        dg_stats::mean(&darwin_covs),
        dg_stats::mean(&baseline_covs)
    );
    println!("(paper: DarwinGame 0.46 %, all other solutions above 6 %)");
}
