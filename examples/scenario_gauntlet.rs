//! The scenario gauntlet: rank every tuner across the whole built-in scenario pack.
//!
//! One campaign sweeps tuners × the ≥8 named cloud scenarios (`steady`, `diurnal`,
//! `bursty-neighbor`, `regime-shift`, `preemption-heavy`, `hetero-fleet`,
//! `noisy-cheap`, `quiet-expensive`) over several seeds, then ranks the tuners per
//! scenario by the mean execution time of their chosen configurations. The point of
//! the exercise: a ranking earned under stationary noise does not survive dynamic
//! regimes — at least one scenario reorders the tuners relative to `steady`.
//!
//! The sweep runs twice (1 worker, then all cores) and asserts the reports are
//! byte-identical, the same guarantee every other campaign carries.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scenario_gauntlet
//! ```
//!
//! Set `DG_SMOKE=1` for a CI-sized grid (seconds instead of minutes) and
//! `DG_GAUNTLET_OUT=/path/report.json` to write the canonical campaign report (the
//! CI `scenario-smoke` job runs the example twice and diffs the two files byte for
//! byte).

use darwingame::prelude::*;
use darwingame::stats::{Column, Table};

fn gauntlet_spec(smoke: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::single("scenario-gauntlet", "DarwinGame", 1);
    spec.tuners = vec![
        "DarwinGame".into(),
        "RandomSearch".into(),
        "BLISS".into(),
        "OpenTuner".into(),
        "ActiveHarmony".into(),
        "NTBEA".into(),
    ];
    spec.scenarios = ScenarioSpec::pack();
    if smoke {
        spec.seeds = vec![0];
        spec.scale = ExperimentScale::smoke();
    } else {
        spec.seeds = vec![0, 1];
        spec.scale = ExperimentScale {
            space_size: 20_000,
            regions: 64,
            evaluation_runs: 30,
            ..ExperimentScale::default_scale()
        };
    }
    spec.base_seed = 0x5ce1;
    spec
}

/// Tuners of one scenario, ranked best (lowest group mean time) first.
fn ranking(report: &CampaignReport, scenario: &str) -> Vec<(String, f64)> {
    let mut rows: Vec<(String, f64)> = report
        .groups
        .iter()
        .filter(|g| g.scenario == scenario)
        .map(|g| (g.tuner.clone(), g.mean_time))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

fn main() {
    let smoke = smoke_requested();
    let spec = gauntlet_spec(smoke);
    let campaign = Campaign::new(spec);
    let scenarios: Vec<String> = campaign
        .spec()
        .scenarios
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert!(scenarios.len() >= 8, "the gauntlet runs the whole pack");

    println!(
        "=== Scenario gauntlet: {} tuners x {} scenarios x {} seeds ({} cells) ===\n",
        campaign.spec().tuners.len(),
        scenarios.len(),
        campaign.spec().seeds.len(),
        campaign.spec().grid_size(),
    );

    let serial = campaign.run_with_workers(1);
    let parallel = campaign.run();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "1-worker and N-worker gauntlets must be byte-identical"
    );
    let report = parallel;

    let mut table = Table::new(vec![
        Column::left("scenario"),
        Column::left("ranking (best -> worst)"),
        Column::right("best mean (s)"),
        Column::right("core-hours"),
        Column::left("vs steady"),
    ]);
    let steady_order: Vec<String> = ranking(&report, "steady")
        .into_iter()
        .map(|(tuner, _)| tuner)
        .collect();
    let mut reordered: Vec<&str> = Vec::new();
    for scenario in &scenarios {
        let ranked = ranking(&report, scenario);
        let order: Vec<String> = ranked.iter().map(|(tuner, _)| tuner.clone()).collect();
        let hours: f64 = report
            .groups
            .iter()
            .filter(|g| &g.scenario == scenario)
            .map(|g| g.core_hours)
            .sum();
        let delta = if order == steady_order {
            "same order"
        } else {
            reordered.push(scenario);
            "REORDERED"
        };
        table.push_row(vec![
            scenario.clone(),
            order.join(" > "),
            format!("{:.1}", ranked.first().map(|(_, t)| *t).unwrap_or(f64::NAN)),
            format!("{hours:.1}"),
            delta.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\n{} of {} non-steady scenarios reorder the steady tuner ranking: {}",
        reordered.len(),
        scenarios.len() - 1,
        if reordered.is_empty() {
            "none".to_string()
        } else {
            reordered.join(", ")
        }
    );
    assert!(
        !reordered.is_empty(),
        "at least one scenario must reorder the tuner ranking vs steady"
    );

    if let Ok(path) = std::env::var("DG_GAUNTLET_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, report.to_json()).expect("write gauntlet report");
            println!("\ncanonical report written to {path}");
        }
    }
}
