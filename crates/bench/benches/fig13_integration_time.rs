//! Figure 13 — Integrating DarwinGame with existing tuners improves their execution time.
//!
//! BLISS and ActiveHarmony are compared with their DarwinGame-integrated counterparts
//! (the outer tuner navigates subspaces; DarwinGame plays a tournament inside each). The
//! paper reports >15 % average improvement in the chosen configuration's execution time.
//!
//! Run with `cargo bench --bench fig13_integration_time`.

use darwin_core::HybridDarwinGame;
use dg_bench::{run_session, ExperimentScale};
use dg_stats::{Column, Table};
use dg_tuners::{ActiveHarmony, Bliss};
use dg_workloads::Application;

fn main() {
    let scale = ExperimentScale::default_scale();
    println!("=== Figure 13: execution time with and without DarwinGame integration ===\n");

    let mut table = Table::new(vec![
        Column::left("application"),
        Column::left("tuner"),
        Column::right("mean time (s)"),
        Column::right("CoV (%)"),
        Column::right("improvement (%)"),
    ]);

    let mut improvements = Vec::new();
    for app in Application::ALL {
        // BLISS vs BLISS + DarwinGame.
        let bliss = run_session(&mut Bliss::new(61), app, &scale, 610, 0.0);
        let bliss_hybrid = run_session(&mut HybridDarwinGame::bliss(61), app, &scale, 611, 0.0);
        let bliss_improvement =
            100.0 * (bliss.mean_time - bliss_hybrid.mean_time) / bliss.mean_time;
        improvements.push(bliss_improvement);
        table.push_row(vec![
            app.name().into(),
            "BLISS".into(),
            format!("{:.1}", bliss.mean_time),
            format!("{:.2}", bliss.cov_percent),
            "-".into(),
        ]);
        table.push_row(vec![
            app.name().into(),
            "BLISS+DarwinGame".into(),
            format!("{:.1}", bliss_hybrid.mean_time),
            format!("{:.2}", bliss_hybrid.cov_percent),
            format!("{bliss_improvement:.1}"),
        ]);

        // ActiveHarmony vs ActiveHarmony + DarwinGame.
        let harmony = run_session(&mut ActiveHarmony::new(62), app, &scale, 620, 0.0);
        let harmony_hybrid = run_session(
            &mut HybridDarwinGame::active_harmony(62),
            app,
            &scale,
            621,
            0.0,
        );
        let harmony_improvement =
            100.0 * (harmony.mean_time - harmony_hybrid.mean_time) / harmony.mean_time;
        improvements.push(harmony_improvement);
        table.push_row(vec![
            app.name().into(),
            "ActiveHarmony".into(),
            format!("{:.1}", harmony.mean_time),
            format!("{:.2}", harmony.cov_percent),
            "-".into(),
        ]);
        table.push_row(vec![
            app.name().into(),
            "ActiveHarmony+DarwinGame".into(),
            format!("{:.1}", harmony_hybrid.mean_time),
            format!("{:.2}", harmony_hybrid.cov_percent),
            format!("{harmony_improvement:.1}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "average improvement from integrating DarwinGame: {:.1} % (paper: more than 15 %)",
        dg_stats::mean(&improvements)
    );
}
