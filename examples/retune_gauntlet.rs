//! The retune gauntlet: adaptive serving vs the paper's tune-once protocol.
//!
//! One [`RetuneSweep`] runs the dynamic-scenario gauntlet (`steady`, `regime-shift`,
//! `diurnal`, `bursty-neighbor`) over several seeds. Every cell deploys two champions
//! at evaluation parity on same-seeded environments: the *adaptive* leg monitors its
//! deployment stream and re-tunes on confirmed drift, the *fixed* leg spends the same
//! total budget up front and never looks back. Cumulative regret (deployed time minus
//! the oracle champion's paired deployed time) is the score.
//!
//! The sweep runs twice (1 worker, then all cores) and asserts the reports are
//! byte-identical — the same guarantee every campaign in this repo carries. The
//! `steady` column must show zero detections and zero retunes: a monitor that fires
//! under stationary noise would burn budget chasing ghosts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example retune_gauntlet
//! ```
//!
//! Set `DG_SMOKE=1` for a CI-sized grid (seconds instead of minutes) and
//! `DG_RETUNE_OUT=/path/report.json` to write the canonical retune report (the CI
//! `retune-smoke` job runs the example twice and diffs the two files byte for byte).

use darwingame::prelude::*;

fn main() {
    let smoke = smoke_requested();
    let sweep = RetuneSweep::new(RetuneSpec::regret_gauntlet("retune-gauntlet", smoke));

    println!(
        "=== Retune gauntlet: {} scenarios x {} seeds ({} cells, <= {} evals/leg, {}) ===\n",
        sweep.spec().scenarios.len(),
        sweep.spec().seeds.len(),
        sweep.spec().grid_size(),
        sweep.spec().fixed_budget(),
        if smoke { "smoke" } else { "full" },
    );

    let serial = sweep.run_with_workers(1);
    let parallel = sweep.run();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "1-worker and N-worker retune sweeps must be byte-identical"
    );
    let report = parallel;

    println!("{}", report.summary_table());

    let steady = report.scenario("steady").expect("steady column");
    assert_eq!(
        steady.detections, 0,
        "the monitor must never fire under a steady environment"
    );
    assert_eq!(steady.retunes, 0, "steady cells must never spend a retune");

    let dynamic: Vec<&RetuneScenarioSummary> = report
        .scenarios
        .iter()
        .filter(|s| s.scenario != "steady")
        .collect();
    let adaptive: f64 = dynamic.iter().map(|s| s.adaptive_regret).sum();
    let fixed: f64 = dynamic.iter().map(|s| s.fixed_regret).sum();
    println!(
        "\ndynamic scenarios: adaptive regret {adaptive:.1} s vs tune-once {fixed:.1} s \
         ({:.1}% saved)",
        if fixed > 0.0 {
            100.0 * (fixed - adaptive) / fixed
        } else {
            0.0
        }
    );
    assert!(
        adaptive <= fixed,
        "adaptive serving must not lose to tune-once in aggregate \
         (adaptive {adaptive:.1} s vs fixed {fixed:.1} s)"
    );

    if let Ok(path) = std::env::var("DG_RETUNE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, report.to_json()).expect("write retune report");
            println!("\ncanonical report written to {path}");
        }
    }
}
