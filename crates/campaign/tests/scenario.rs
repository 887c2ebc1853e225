//! Campaign-level scenario integration: the scenario axis composes with every
//! existing guarantee — worker-count invariance, sharded merge, record/replay — and
//! the default `steady` axis is invisible in reports (pre-axis byte compatibility).

use dg_campaign::{
    profile_label, Campaign, CampaignReport, CampaignSpec, ExperimentScale, ScenarioSpec,
    ShardPlan, ShardReport, ShardStrategy,
};
use dg_exec::json::fnv1a;
use dg_exec::{sim_ops, ExecutionTrace};
use std::sync::Arc;

/// A deliberately tiny per-cell scale so the pack-wide sweeps stay fast.
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

/// Two tuners (one tournament, one baseline) across the whole built-in pack.
fn pack_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::single("scenario-integration", "DarwinGame", 1);
    spec.tuners = vec!["DarwinGame".into(), "RandomSearch".into()];
    spec.scenarios = ScenarioSpec::pack();
    spec.scale = tiny_scale();
    spec.base_seed = 21;
    spec
}

/// FNV-1a of the canonical report JSON of `spec` run on one worker.
fn report_fingerprint(spec: CampaignSpec) -> u64 {
    fnv1a(&Campaign::new(spec).run_with_workers(1).to_json())
}

/// Pins the scenario-wrapped reports absolutely. The worker-count, shard, replay and
/// batch-vs-loop checks each compare two runs of the same decorator code, so a drift
/// in the scenario arithmetic passes all of them and fails only here.
#[test]
fn pack_sweep_fingerprint_is_pinned() {
    assert_eq!(report_fingerprint(pack_spec()), 18245576092348915166);
}

/// The same sweep with load coupled through sensitivity. The coupling is 0.7, not 1.0:
/// at 1.0 the `(1 - c)` term of the exponent vanishes and hides a drift in it.
#[test]
fn coupled_pack_sweep_fingerprint_is_pinned() {
    let mut spec = pack_spec();
    spec.scenarios = ScenarioSpec::pack()
        .into_iter()
        .map(|s| {
            if s.is_passthrough() {
                s
            } else {
                s.with_load_coupling(0.7)
            }
        })
        .collect();
    assert_eq!(report_fingerprint(spec), 3782903258949859850);
}

#[test]
fn scenario_sweeps_are_worker_count_invariant() {
    let campaign = Campaign::new(pack_spec());
    let serial = campaign.run_with_workers(1);
    let parallel = campaign.run_with_workers(4);
    assert_eq!(serial.completed_cells(), 2 * ScenarioSpec::pack().len());
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "worker count must be invisible in scenario-swept reports"
    );
}

#[test]
fn scenario_campaigns_record_and_replay_byte_identically() {
    let campaign = Campaign::new(pack_spec());
    let (live, trace) = campaign.record_with_workers(2);
    let trace =
        Arc::new(ExecutionTrace::from_json(&trace.to_json()).expect("canonical traces round-trip"));
    let before = sim_ops();
    let replayed = campaign
        .replay_with_workers(Arc::clone(&trace), 1)
        .expect("a recorded scenario campaign replays against its own spec");
    assert_eq!(
        sim_ops(),
        before,
        "scenario replay must execute zero simulator operations"
    );
    assert_eq!(
        replayed.to_json(),
        live.to_json(),
        "scenario transforms must re-apply identically at replay"
    );

    // A scenario's profile override is what the provider sees: the trace stream header
    // records it, while the cell result keeps the profile axis label.
    let axis = profile_label(&campaign.spec().profiles[0]);
    for cell in &live.cells {
        let stream = trace
            .stream(&format!("cell-{}", cell.index))
            .expect("every cell records a stream");
        let scenario = ScenarioSpec::by_name(&cell.scenario).expect("pack scenario");
        let expected = scenario
            .profile
            .as_ref()
            .map_or(axis.clone(), profile_label);
        assert_eq!(stream.profile, expected, "cell {}", cell.index);
        assert_eq!(cell.profile, axis, "cell {}", cell.index);
    }
    let noisy = live
        .cells
        .iter()
        .find(|cell| cell.scenario == "noisy-cheap")
        .expect("the pack sweeps noisy-cheap");
    let header = trace.stream(&format!("cell-{}", noisy.index));
    assert_eq!(header.map(|s| s.profile.as_str()), Some("heavy"));
    assert_eq!(noisy.profile, "typical");
}

#[test]
fn scenario_shards_merge_byte_identically() {
    let campaign = Campaign::new(pack_spec());
    let whole = campaign.run_with_workers(2);
    for strategy in [ShardStrategy::Strided, ShardStrategy::CostBalanced] {
        let plan = ShardPlan::new(campaign.spec(), 3, strategy);
        let reports: Vec<ShardReport> = (0..plan.shard_count())
            .map(|shard| {
                let report = campaign.run_shard_with_workers(&plan, shard, 2);
                ShardReport::from_json(&report.to_json()).expect("canonical round trip")
            })
            .collect();
        let merged = CampaignReport::merge(reports).expect("scenario shards merge");
        assert_eq!(
            merged.to_json(),
            whole.to_json(),
            "{strategy}: merged scenario sweep must equal the single-host run"
        );
    }
}

#[test]
fn default_steady_axis_is_invisible_in_reports() {
    let mut spec = CampaignSpec::single("steady-compat", "RandomSearch", 2);
    spec.scale = tiny_scale();
    assert!(spec.has_default_scenarios());
    let report = Campaign::new(spec).run_with_workers(1);
    let json = report.to_json();
    assert!(
        !json.contains("scenario"),
        "default-axis reports must serialize exactly as before the axis existed"
    );
    // And the round trip through the shard wire format agrees.
    let campaign = Campaign::new({
        let mut spec = CampaignSpec::single("steady-compat", "RandomSearch", 2);
        spec.scale = tiny_scale();
        spec
    });
    let plan = ShardPlan::new(campaign.spec(), 1, ShardStrategy::Contiguous);
    let shard = campaign.run_shard_with_workers(&plan, 0, 1);
    let parsed = ShardReport::from_json(&shard.to_json()).expect("round trip");
    assert_eq!(parsed.cells[0].scenario, "steady");
}

#[test]
fn non_steady_scenarios_change_execution() {
    let report = Campaign::new(pack_spec()).run_with_workers(2);
    let steady: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.scenario == "steady")
        .collect();
    // Every non-steady scenario must differ from its steady counterpart in at least
    // one measured quantity for at least one tuner — the axis has teeth.
    for scenario in ScenarioSpec::pack().iter().filter(|s| !s.is_passthrough()) {
        let differs = report
            .cells
            .iter()
            .filter(|c| c.scenario == scenario.name)
            .zip(steady.iter())
            .any(|(cell, base)| {
                assert_eq!(cell.tuner, base.tuner);
                cell.chosen != base.chosen
                    || cell.mean_time.to_bits() != base.mean_time.to_bits()
                    || cell.core_hours.to_bits() != base.core_hours.to_bits()
            });
        assert!(
            differs,
            "scenario {:?} produced results identical to steady",
            scenario.name
        );
    }
}
