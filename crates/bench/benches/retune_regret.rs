//! Online retuning vs the paper's tune-once protocol: cumulative-regret gauntlet.
//!
//! The claim being verified: over the dynamic scenarios of the retune gauntlet
//! (`regime-shift`, `diurnal`, `bursty-neighbor`, all with sensitivity-coupled load),
//! a [`RetuneLoop`] that monitors its deployment stream and re-tunes on confirmed
//! drift accrues **strictly lower cumulative regret** than the tune-once protocol at
//! exact evaluation parity — the fixed leg of every cell spends up front precisely
//! the evaluations the adaptive leg ended up spending. Under `steady` the monitor
//! must never fire: zero detections, zero retunes, and (because parity makes the two
//! legs run identical tuning sessions) an exact regret tie. The whole sweep runs
//! twice, on 1 worker and on all cores, and the two reports must be byte-identical.
//!
//! Regret is measured against a fixed oracle configuration probed pairwise with the
//! deployed champion at every deployment step, so both legs share a bitwise-equal
//! baseline and the regret difference isolates the champion gap. Negative regret
//! means a leg beat the single-configuration oracle — possible under coupled load,
//! where no one configuration is optimal in every regime.
//!
//! Run with `cargo bench --bench retune_regret`. Set `DG_SMOKE=1` for the
//! CI-sized grid (the strict per-scenario assertion relaxes to the aggregate — a
//! six-seed column is too small a sample to assert cell-level strictness on) and
//! `DG_RETUNE_OUT=/path/report.json` to write the machine-readable results (the
//! same JSON always goes to stdout).
//!
//! # `BENCH_retune.json`
//!
//! ```text
//! {"bench":"retune_regret","mode":"full"|"smoke",
//!  "spec_fingerprint":u64,"cells":usize,
//!  "dynamic_adaptive_regret":f64,"dynamic_fixed_regret":f64,
//!  "scenarios":[{"scenario":str,"cells":usize,
//!                "adaptive_regret":f64,"fixed_regret":f64,
//!                "regret_reduction_percent":f64,
//!                "detections":usize,"retunes":usize,"switches":usize}, ...]}
//! ```
//!
//! Each `scenarios` entry is a `RetuneScenarioSummary` as `RetuneReport` writes it.

use dg_campaign::RetuneSpec;
use dg_exec::json;
use dg_serve::RetuneSweep;

fn main() {
    let smoke = dg_campaign::smoke_requested();
    let sweep = RetuneSweep::new(RetuneSpec::regret_gauntlet("retune-regret", smoke));

    println!(
        "=== Retune regret: {} scenarios x {} seeds ({} cells, <= {} evals/leg, {}) ===\n",
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
    assert_eq!(
        steady.adaptive_regret.to_bits(),
        steady.fixed_regret.to_bits(),
        "evaluation parity makes undetected cells exact ties"
    );

    let dynamic: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.scenario != "steady")
        .collect();
    let adaptive: f64 = dynamic.iter().map(|s| s.adaptive_regret).sum();
    let fixed: f64 = dynamic.iter().map(|s| s.fixed_regret).sum();
    println!("\ndynamic scenarios: adaptive regret {adaptive:.1} s vs tune-once {fixed:.1} s");
    if smoke {
        assert!(
            adaptive < fixed,
            "adaptive serving must beat tune-once in aggregate \
             (adaptive {adaptive:.1} s vs fixed {fixed:.1} s)"
        );
    } else {
        for summary in &dynamic {
            assert!(
                summary.adaptive_regret < summary.fixed_regret,
                "adaptive regret must be strictly lower under {} \
                 (adaptive {:.1} s vs fixed {:.1} s)",
                summary.scenario,
                summary.adaptive_regret,
                summary.fixed_regret
            );
        }
    }

    // The machine-readable record, to stdout and (optionally) a file.
    let json = json::object(|o| {
        o.field("bench", "retune_regret")
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("spec_fingerprint", &sweep.spec().fingerprint())
            .field("cells", &report.cells.len())
            .field("dynamic_adaptive_regret", &adaptive)
            .field("dynamic_fixed_regret", &fixed)
            .field("scenarios", &report.scenarios);
    });
    println!("\n{json}");
    if let Ok(path) = std::env::var("DG_RETUNE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &json).expect("write retune bench report");
            println!("report written to {path}");
        }
    }
}
