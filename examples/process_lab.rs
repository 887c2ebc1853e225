//! A real-process campaign in a resumable lab: tune actual OS processes, kill the
//! run at any point, resume without re-running a single completed cell.
//!
//! The example writes a small `/bin/sh` workload whose reported duration
//! (`DG_TIME=...` on stdout) is a pure function of its configuration, then runs a
//! campaign against it through [`ProcessProvider`] inside a persistent
//! [`CampaignLab`]. Every completed cell is flushed to `lab/cells/cell-<i>.json` the
//! moment it finishes, so re-running the example against the same `DG_LAB_DIR`:
//!
//! * skips every completed cell (launching **zero** processes for them — provable
//!   with `DG_LAB_EXPECT_ZERO=1`), and
//! * produces a final merged report **byte-identical** to an uninterrupted run, no
//!   matter where a previous run was killed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example process_lab
//! DG_LAB_KILL_AFTER=2 cargo run --release --example process_lab   # stop after 2 cells
//! ```
//!
//! Environment knobs: `DG_LAB_DIR` (lab location, default under the temp dir),
//! `DG_LAB_KILL_AFTER` (simulate a kill: run at most N new cells, then exit),
//! `DG_LAB_REPORT` (write the merged report JSON here when complete), and
//! `DG_LAB_EXPECT_ZERO` (assert the whole run launched zero processes).

use darwingame::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// The stand-in workload: deterministic, instant, and honest about the marker
/// contract. A real lab points the template at its actual benchmark command instead.
const WORKLOAD_SH: &str = r#"#!/bin/sh
# Report a duration that is a pure function of the configuration (base time,
# sensitivity) and the observation salt, then declare success.
t=$(awk -v b="$DG_BASE_TIME" -v s="$DG_SENSITIVITY" -v x="$DG_SALT" \
    'BEGIN { printf "%.6f", b * (1.0 + 0.2 * s) + (x % 7) * 0.125 }')
echo "DG_TIME=$t"
printf SUCCESS > "$DG_JOB_DIR/status"
"#;

/// A deliberately tiny per-cell scale so the whole lab is a few dozen processes.
fn lab_scale() -> ExperimentScale {
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

/// The spec every invocation rebuilds identically — the lab refuses to resume under
/// a different fingerprint.
fn lab_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::single("process-lab", "RandomSearch", 4);
    spec.scale = lab_scale();
    spec.base_seed = 0x9a0c;
    spec
}

fn main() {
    let lab_dir = std::env::var("DG_LAB_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("dg-process-lab-{}", std::process::id()))
        });
    fs::create_dir_all(&lab_dir).expect("create lab directory");
    let script = lab_dir.join("workload.sh");
    fs::write(&script, WORKLOAD_SH).expect("write workload script");

    let spec = lab_spec();
    let campaign = Campaign::new(spec.clone());
    let lab = CampaignLab::open(lab_dir.join("lab"), &spec).expect("open campaign lab");
    let provider = ProcessProvider::new(
        CommandTemplate::new("/bin/sh", [script.display().to_string()]),
        lab_dir.join("jobs"),
    )
    .with_timing(TimingSource::Reported)
    .with_timeout(Duration::from_secs(60));

    let kill_after: Option<usize> = std::env::var("DG_LAB_KILL_AFTER")
        .ok()
        .map(|v| v.parse().expect("DG_LAB_KILL_AFTER must be an integer"));

    println!(
        "=== Real-process campaign lab at {} ===\n",
        lab_dir.display()
    );
    let before = process_launches();
    let outcome = campaign
        .run_lab_session(&lab, &provider, default_workers(), kill_after)
        .expect("lab session");
    let launched = process_launches() - before;
    println!(
        "cells: {} loaded from disk, {} executed this session, {} discarded as corrupt",
        outcome.loaded_cells, outcome.fresh_cells, outcome.discarded_cells
    );
    println!("processes launched: {launched}");

    if std::env::var("DG_LAB_EXPECT_ZERO").is_ok() {
        assert_eq!(
            launched, 0,
            "a resumed complete lab must not launch any process"
        );
        assert_eq!(outcome.fresh_cells, 0, "no cell may be re-executed");
        println!("resume check passed: zero launches, zero re-executed cells");
    }

    match outcome.report {
        Some(report) => {
            let json = report.to_json();
            println!(
                "\nlab complete: {} cells merged into {} bytes of canonical JSON\n",
                report.completed_cells(),
                json.len()
            );
            println!("{}", report.summary_table().render());
            if let Ok(path) = std::env::var("DG_LAB_REPORT") {
                fs::write(&path, &json).expect("write merged report");
                println!("report written to {path}");
            }
        }
        None => {
            let done = outcome.loaded_cells + outcome.fresh_cells;
            println!(
                "\nlab interrupted at {done}/{} cells — rerun with the same DG_LAB_DIR to \
                 resume where it left off",
                lab.grid_cells()
            );
        }
    }
}
