//! The lab kill-and-resume battery: interrupted campaigns resume losslessly.
//!
//! The load-bearing property of the campaign lab is pinned here as a differential
//! proptest: for randomized grids, completing a lab, "killing" it by deleting a
//! random prefix of its completed cell files, and resuming (optionally in
//! `max_new_cells`-capped sessions) produces a final merged report **byte-identical**
//! to both an uninterrupted lab run and a plain in-memory `run()`. The vendored
//! proptest harness runs 64 deterministic cases per property.

use dg_campaign::{default_workers, Campaign, CampaignLab, CampaignSpec, ExperimentScale};
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_exec::SimProvider;
use dg_workloads::Application;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique per-invocation lab directories so parallel tests never collide.
fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("dg-lab-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A deliberately tiny per-cell scale so 64 differential cases (each running every
/// cell at least twice) stay inside a few seconds.
fn tiny_scale() -> ExperimentScale {
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

/// Builds a randomized small grid from the sampled axis sizes.
fn random_spec(tuner_count: usize, seed_count: u64, base_seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("lab-differential");
    let tuner_pool = ["RandomSearch", "OpenTuner", "ActiveHarmony"];
    spec.tuners = tuner_pool[..tuner_count]
        .iter()
        .map(|t| t.to_string())
        .collect();
    spec.applications = vec![Application::Redis];
    spec.vm_types = vec![VmType::M5_8xlarge];
    spec.profiles = vec![InterferenceProfile::typical()];
    spec.seeds = (0..seed_count).collect();
    spec.scale = tiny_scale();
    spec.base_seed = base_seed;
    spec
}

proptest! {
    /// The differential property: a lab killed after an arbitrary prefix of its cells
    /// and resumed (in sessions of arbitrary size, on varying worker counts) merges
    /// to the byte-identical report of an uninterrupted run.
    #[test]
    fn killed_labs_resume_to_the_byte_identical_report(
        tuner_count in 1usize..3,
        seed_count in 1u64..3,
        base_seed in 0u64..1_000_000,
        keep_num in 0usize..16,
        session_cap in 0usize..3,
    ) {
        let spec = random_spec(tuner_count, seed_count, base_seed);
        let campaign = Campaign::new(spec.clone());
        let whole = campaign.run_with_workers(1);

        let dir = unique_dir("resume");
        let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
        let outcome = campaign
            .run_lab_session(&lab, &SimProvider, 2, None)
            .expect("uninterrupted session runs");
        prop_assert_eq!(outcome.loaded_cells, 0);
        let full = outcome.report.expect("uncapped session completes the lab");
        prop_assert_eq!(full.to_json(), whole.to_json(), "lab run diverged from run()");

        // "Kill": delete the completed cells beyond a random prefix, exactly the disk
        // state a run killed mid-flight leaves behind (flushes are atomic, so partial
        // files never occur — a killed writer leaves at most an ignored `.tmp`).
        let scheduled = spec.cells().len();
        let keep = keep_num % (scheduled + 1);
        for index in keep..scheduled {
            fs::remove_file(lab.cell_path(index)).expect("cell file exists");
        }

        // Resume, optionally in capped sessions (cap 0 samples the uncapped path).
        let cap = if session_cap == 0 { None } else { Some(session_cap) };
        let mut resumed = None;
        for _ in 0..=scheduled {
            let outcome = campaign
                .run_lab_session(&lab, &SimProvider, 1, cap)
                .expect("resume session runs");
            prop_assert!(outcome.loaded_cells >= keep, "completed cells were re-run");
            if let Some(report) = outcome.report {
                resumed = Some(report);
                break;
            }
        }
        let resumed = resumed.expect("capped sessions complete within the cell count");
        prop_assert_eq!(resumed.to_json(), whole.to_json(), "resumed lab diverged");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A complete lab is pure resume: a follow-up session loads every cell from disk,
/// executes nothing, and still returns the byte-identical merged report.
#[test]
fn complete_labs_resume_without_executing_anything() {
    let spec = random_spec(1, 2, 7);
    let campaign = Campaign::new(spec.clone());
    let dir = unique_dir("noop");
    let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
    let first = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("first run");
    let second = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("second run");
    assert_eq!(second.loaded_cells, lab.grid_cells());
    assert_eq!(second.fresh_cells, 0);
    assert_eq!(
        first.report.expect("first complete").to_json(),
        second.report.expect("second complete").to_json()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A torn cell file (e.g. from a crash predating the atomic rename) is discarded,
/// re-run, and overwritten — never trusted, never fatal.
#[test]
fn corrupt_cell_files_are_rerun_not_trusted() {
    let spec = random_spec(1, 2, 11);
    let campaign = Campaign::new(spec.clone());
    let dir = unique_dir("corrupt");
    let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
    let whole = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("first run")
        .report
        .expect("complete");

    let path = lab.cell_path(0);
    let good = fs::read_to_string(&path).expect("cell file readable");
    fs::write(&path, &good[..good.len() / 2]).expect("truncate cell file");

    let outcome = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("resume over corruption");
    assert_eq!(outcome.discarded_cells, 1);
    assert_eq!(outcome.fresh_cells, 1);
    assert_eq!(outcome.loaded_cells, lab.grid_cells() - 1);
    assert_eq!(
        outcome.report.expect("complete again").to_json(),
        whole.to_json()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupt cell file whose corruption is *adversarially deep nesting* (rather than
/// truncation) is also discarded and re-run: the JSON parser's depth cap turns what
/// would be a stack overflow into an ordinary parse error, so resume survives a
/// malicious or bit-rotted `cells/cell-<i>.json` without crashing the process.
#[test]
fn deeply_nested_corrupt_cell_files_are_discarded_not_fatal() {
    let spec = random_spec(1, 2, 17);
    let campaign = Campaign::new(spec.clone());
    let dir = unique_dir("deep");
    let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
    let whole = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("first run")
        .report
        .expect("complete");

    // 100k unclosed arrays: a recursive-descent parser without a depth cap would
    // blow the stack here and take the whole resume down with it.
    fs::write(lab.cell_path(0), "[".repeat(100_000)).expect("overwrite cell file");

    let outcome = campaign
        .run_lab_session(&lab, &SimProvider, default_workers(), None)
        .expect("resume over deep nesting");
    assert_eq!(outcome.discarded_cells, 1);
    assert_eq!(outcome.fresh_cells, 1);
    assert_eq!(outcome.loaded_cells, lab.grid_cells() - 1);
    assert_eq!(
        outcome.report.expect("complete again").to_json(),
        whole.to_json()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `max_new_cells` sizes sessions exactly: each capped session runs that many cells
/// (or the remainder) and only the final one yields the merged report.
#[test]
fn capped_sessions_progress_cell_by_cell() {
    let spec = random_spec(2, 2, 13); // 4 scheduled cells
    let scheduled = spec.cells().len();
    let campaign = Campaign::new(spec.clone());
    let dir = unique_dir("capped");
    let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
    let mut completed = 0usize;
    while completed < scheduled {
        let outcome = campaign
            .run_lab_session(&lab, &SimProvider, 1, Some(3))
            .expect("session runs");
        assert_eq!(outcome.loaded_cells, completed);
        assert_eq!(outcome.fresh_cells, (scheduled - completed).min(3));
        completed += outcome.fresh_cells;
        assert_eq!(outcome.report.is_some(), completed == scheduled);
    }
    let _ = fs::remove_dir_all(&dir);
}
