//! Figure 14 — Integrating DarwinGame with existing tuners reduces their tuning cost.
//!
//! Same experiment as Fig. 13, but reporting the core-hours consumed by tuning, expressed
//! as a percentage of exhaustive search (the Fig. 12 reference).
//!
//! Run with `cargo bench --bench fig14_integration_hours`.

use darwin_core::HybridDarwinGame;
use dg_bench::{run_session, ExperimentScale};
use dg_stats::{Column, Table};
use dg_tuners::{ActiveHarmony, Bliss, ExhaustiveSearch};
use dg_workloads::Application;

fn main() {
    let scale = ExperimentScale::default_scale();
    println!("=== Figure 14: tuning core-hours with and without DarwinGame integration ===\n");

    let mut table = Table::new(vec![
        Column::left("application"),
        Column::left("tuner"),
        Column::right("core-hours"),
        Column::right("% of exhaustive"),
    ]);

    for app in Application::ALL {
        let exhaustive = run_session(&mut ExhaustiveSearch::new(), app, &scale, 640, 0.0);
        let reference = exhaustive.core_hours;
        let percent = |hours: f64| format!("{:.2}", 100.0 * hours / reference);

        let bliss = run_session(&mut Bliss::new(71), app, &scale, 710, 0.0);
        let bliss_hybrid = run_session(&mut HybridDarwinGame::bliss(71), app, &scale, 711, 0.0);
        let harmony = run_session(&mut ActiveHarmony::new(72), app, &scale, 720, 0.0);
        let harmony_hybrid = run_session(
            &mut HybridDarwinGame::active_harmony(72),
            app,
            &scale,
            721,
            0.0,
        );

        for (name, hours) in [
            ("BLISS", bliss.core_hours),
            ("BLISS+DarwinGame", bliss_hybrid.core_hours),
            ("ActiveHarmony", harmony.core_hours),
            ("ActiveHarmony+DarwinGame", harmony_hybrid.core_hours),
        ] {
            table.push_row(vec![
                app.name().into(),
                name.into(),
                format!("{hours:.1}"),
                percent(hours),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(paper: the +DarwinGame variants need fewer core-hours than the plain tuners,");
    println!(" thanks to early termination and multi-player games inside each subspace)");
}
