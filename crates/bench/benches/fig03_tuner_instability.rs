//! Figure 3 — Motivation: existing tuners are suboptimal and inconsistent in the cloud.
//!
//! Each existing tuner (Exhaustive, BLISS, OpenTuner, ActiveHarmony) tunes Redis three
//! times, at three different simulated times of day (T1, T2, T3) and therefore under
//! different interference. The chosen configurations differ between sessions and their
//! execution times stay well above the dedicated-environment optimum.
//!
//! Run with `cargo bench --bench fig03_tuner_instability`.

use dg_bench::{oracle_reference, run_session, standard_workload, ExperimentScale};
use dg_stats::{Column, Table};
use dg_tuners::{ActiveHarmony, Bliss, ExhaustiveSearch, OpenTuner, Tuner};
use dg_workloads::Application;

fn main() {
    let scale = ExperimentScale::default_scale();
    let app = Application::Redis;
    let workload = standard_workload(app, &scale);
    let oracle = oracle_reference(&workload, dg_cloudsim::VmType::M5_8xlarge);

    // Three tuning sessions started 8 simulated hours apart.
    let session_starts = [0.0_f64, 8.0 * 3600.0, 16.0 * 3600.0];

    println!("=== Figure 3: tuning Redis at three different times (T1, T2, T3) ===");
    println!("dedicated-environment optimal: {oracle:.1} s\n");

    let mut table = Table::new(vec![
        Column::left("tuner"),
        Column::right("T1 time (s)"),
        Column::right("T2 time (s)"),
        Column::right("T3 time (s)"),
        Column::right("worst vs optimal (%)"),
        Column::right("distinct configs"),
    ]);
    table.push_row(vec![
        "Optimal".into(),
        format!("{oracle:.1}"),
        format!("{oracle:.1}"),
        format!("{oracle:.1}"),
        "0.0".into(),
        "1/3".into(),
    ]);

    let mut tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(ExhaustiveSearch::new()),
        Box::new(Bliss::new(31)),
        Box::new(OpenTuner::new(32)),
        Box::new(ActiveHarmony::new(33)),
    ];
    for tuner in &mut tuners {
        let mut times = Vec::new();
        let mut picks = Vec::new();
        for (i, start) in session_starts.iter().enumerate() {
            let choice = run_session(tuner.as_mut(), app, &scale, 300 + i as u64, *start);
            times.push(choice.mean_time);
            picks.push(choice.chosen);
        }
        let worst = times.iter().copied().fold(0.0_f64, f64::max);
        let mut distinct = picks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let name = tuner.name().to_string();
        table.push_row(vec![
            name,
            format!("{:.1}", times[0]),
            format!("{:.1}", times[1]),
            format!("{:.1}", times[2]),
            format!("{:.1}", dg_stats::percent_change(worst, oracle)),
            format!("{}/{}", distinct.len(), picks.len()),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: existing tuners end up far from the optimum and pick different");
    println!(" configurations depending on when the tuning happened to run)");
}
