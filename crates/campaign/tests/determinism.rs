//! Campaign determinism: the report is a pure function of the spec.
//!
//! The executor fans cells out across worker threads; these tests pin the property the
//! rest of the repository relies on: worker count and completion order are invisible
//! in the result.

use dg_campaign::{Campaign, CampaignSpec, ExperimentScale};
use dg_cloudsim::InterferenceProfile;

fn small_grid() -> CampaignSpec {
    let mut spec = CampaignSpec::single("determinism", "RandomSearch", 2);
    spec.tuners = vec!["RandomSearch".into(), "BLISS".into()];
    spec.profiles = vec![InterferenceProfile::typical(), InterferenceProfile::heavy()];
    spec.scale = ExperimentScale::smoke();
    spec.base_seed = 7;
    spec
}

#[test]
fn one_worker_and_many_workers_emit_byte_identical_json() {
    let campaign = Campaign::new(small_grid());
    let serial = campaign.run_with_workers(1);
    let parallel = campaign.run_with_workers(4);
    assert_eq!(serial.completed_cells(), 8);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "worker count must be invisible in the report"
    );
    // And the structured reports agree too, not just their serialization.
    assert_eq!(serial, parallel);
}

#[test]
fn repeated_runs_are_identical() {
    let campaign = Campaign::new(small_grid());
    let a = campaign.run_with_workers(2);
    let b = campaign.run_with_workers(3);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn report_lists_cells_in_stable_grid_order() {
    let report = Campaign::new(small_grid()).run_with_workers(4);
    let indices: Vec<usize> = report.cells.iter().map(|c| c.index).collect();
    assert_eq!(indices, (0..8).collect::<Vec<_>>());
    // Grid order: tuners outermost, then profiles, then seeds.
    assert_eq!(report.cells[0].tuner, "RandomSearch");
    assert_eq!(report.cells[0].profile, "typical");
    assert_eq!(report.cells[0].seed, 0);
    assert_eq!(report.cells[3].tuner, "RandomSearch");
    assert_eq!(report.cells[3].profile, "heavy");
    assert_eq!(report.cells[3].seed, 1);
    assert_eq!(report.cells[4].tuner, "BLISS");
}
