//! Figure 12 — Core-hours required for tuning, as a percentage of exhaustive search.
//!
//! Exhaustive search is by far the most expensive strategy; every other tuner is
//! reported relative to it. DarwinGame's multi-player games and early termination keep
//! its resource usage at or below the level of the existing tuners.
//!
//! Run with `cargo bench --bench fig12_core_hours`.

use dg_bench::{run_session, ExperimentScale};
use dg_campaign::standard_registry;
use dg_cloudsim::VmType;
use dg_stats::{Column, Table};
use dg_tuners::{ActiveHarmony, Bliss, ExhaustiveSearch, OpenTuner, Tuner};
use dg_workloads::Application;

fn main() {
    let scale = ExperimentScale::default_scale();
    println!("=== Figure 12: tuning core-hours as % of exhaustive search ===\n");

    let mut table = Table::new(vec![
        Column::left("application"),
        Column::left("tuner"),
        Column::right("core-hours"),
        Column::right("% of exhaustive"),
    ]);

    for app in Application::ALL {
        // Exhaustive reference.
        let mut exhaustive = ExhaustiveSearch::new();
        let exhaustive_choice = run_session(&mut exhaustive, app, &scale, 500, 0.0);
        let reference = exhaustive_choice.core_hours;
        table.push_row(vec![
            app.name().into(),
            "Exhaustive".into(),
            format!("{reference:.1}"),
            "100.0".into(),
        ]);

        let mut tuner = standard_registry(&scale)
            .build("DarwinGame", 9, VmType::M5_8xlarge)
            .expect("DarwinGame is registered");
        let darwin = run_session(tuner.as_mut(), app, &scale, 901, 0.0);
        table.push_row(vec![
            app.name().into(),
            "DarwinGame".into(),
            format!("{:.1}", darwin.core_hours),
            format!("{:.2}", 100.0 * darwin.core_hours / reference),
        ]);

        let mut baselines: Vec<Box<dyn Tuner>> = vec![
            Box::new(Bliss::new(51)),
            Box::new(OpenTuner::new(52)),
            Box::new(ActiveHarmony::new(53)),
        ];
        for tuner in &mut baselines {
            let choice = run_session(tuner.as_mut(), app, &scale, 902, 0.0);
            let name = tuner.name().to_string();
            table.push_row(vec![
                app.name().into(),
                name,
                format!("{:.1}", choice.core_hours),
                format!("{:.2}", 100.0 * choice.core_hours / reference),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(paper: every tuner sits at a few percent of exhaustive search; DarwinGame is");
    println!(" usually the cheapest thanks to multi-player games and early termination)");
}
