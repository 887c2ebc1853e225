//! Fixed instances of every canonical JSON document the workspace writes, shared by
//! the byte pins (`json_pins.rs`) and the decoder battery (`decode.rs`).
//!
//! Each builder returns the same value on every call, so a document's bytes are a
//! pure function of the encoder that writes it.

#![allow(dead_code)]

use dg_campaign::{
    CampaignLab, CampaignReport, CampaignSpec, CellResult, ExperimentScale, GroupSummary,
    RetuneCellResult, RetuneReport, RetuneScenarioSummary, ScenarioEvent, ScenarioSpec,
    ShardReport,
};
use dg_cloudsim::InterferenceProfile;
use dg_exec::ExecutionTrace;
use dg_obs::{HistogramSnapshot, MetricsSnapshot, ObsEvent, ObsRecord};

/// A trace with all four ops, a latched failure, and `inf`, `-inf` and `nan` floats.
pub const TRACE: &str = concat!(
    r#"{"campaign":"pins","fingerprint":18446744073709551615,"streams":["#,
    r#"{"key":"cell-0","vm":"m5.8xlarge","profile":"typical","seed":42,"events":["#,
    r#"{"op":"game","specs":[[230.5,0.8],[400,0.2],[0.1,0]],"rules":[true,0.1,0.25],"#,
    r#""start":0,"elapsed":245.25,"times":[244.1,"inf",0.30000000000000004],"#,
    r#""scores":[1,0.59,"nan"],"early":false},"#,
    r#"{"op":"single","spec":[230.5,0.8],"time":"-inf","start":245.25,"elapsed":245.5},"#,
    r#"{"op":"observe","spec":[230.5,0.8],"at":1800,"salt":3,"time":244.9},"#,
    r#"{"op":"fork","seed":777}]},"#,
    r#"{"key":"cell-0/0","vm":"m5.8xlarge","profile":"typical","seed":777,"#,
    r#""failure":"process exited with status 7","events":["#,
    r#"{"op":"single","spec":[400,0.2],"time":"inf","start":0,"elapsed":0}]}]}"#,
);

/// The fixed trace, built by parsing [`TRACE`].
pub fn trace() -> ExecutionTrace {
    ExecutionTrace::from_json(TRACE).expect("the fixture trace parses")
}

fn cell(index: usize) -> CellResult {
    CellResult {
        index,
        tuner: "DarwinGame".into(),
        application: "Redis".into(),
        vm: "m5.8xlarge".into(),
        profile: "typical".into(),
        scenario: "steady".into(),
        seed: index as u64 + (1 << 60),
        chosen: 4_242,
        mean_time: 245.3 + index as f64,
        cov_percent: 0.1 + 0.2,
        samples: 96,
        core_hours: 1.25,
        wall_clock_seconds: 3_600.5,
        failure: None,
    }
}

/// A shard report whose cells carry the optional `scenario` and `failure` keys and
/// non-finite floats.
pub fn shard_report() -> ShardReport {
    let mut shifted = cell(2);
    shifted.scenario = "regime-shift".into();
    let mut failed = cell(5);
    failed.scenario = "bursty-neighbor".into();
    failed.mean_time = f64::INFINITY;
    failed.cov_percent = f64::NAN;
    failed.wall_clock_seconds = f64::NEG_INFINITY;
    failed.failure = Some("process exited with status 7\n\"quoted\"".into());
    ShardReport {
        campaign: "pins".into(),
        fingerprint: 0x0123_4567_89ab_cdef,
        shard: 1,
        shard_count: 3,
        strategy: "strided".into(),
        grid_cells: 6,
        assigned: vec![2, 5],
        cells: vec![shifted, failed],
    }
}

/// A campaign report with a steady group and a scenario group, holding cells with
/// and without the optional keys.
pub fn campaign_report() -> CampaignReport {
    let shard = shard_report();
    let mut cells = vec![cell(0), cell(1)];
    cells.extend(shard.cells);
    let group = |scenario: &str, cells: usize| GroupSummary {
        tuner: "DarwinGame".into(),
        application: "Redis".into(),
        vm: "m5.8xlarge".into(),
        profile: "typical".into(),
        scenario: scenario.into(),
        cells,
        mean_time: 246.3,
        across_seed_cov_percent: 0.2,
        mean_cov_percent: 0.1 + 0.2,
        p50_time: 246.3,
        p90_time: f64::INFINITY,
        core_hours: 2.5,
    };
    CampaignReport {
        name: "pins".into(),
        grid_cells: 6,
        total_core_hours: 5.0,
        cells,
        groups: vec![group("steady", 2), group("regime-shift", 2)],
    }
}

/// The spec the fixture lab is opened for.
pub fn lab_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::single("lab-pins", "RandomSearch", 2);
    spec.scale = ExperimentScale::smoke();
    spec.base_seed = 5;
    spec
}

/// A fresh lab for [`lab_spec`] at `dir`, emptied first, and its manifest's text.
pub fn lab_manifest(dir: &std::path::Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    CampaignLab::open(dir, &lab_spec()).expect("the fixture lab opens");
    std::fs::read_to_string(dir.join("manifest.json")).expect("the manifest is written")
}

/// The built-in pack, one coupled, one delayed, and one with a `custom` profile.
pub fn scenarios() -> Vec<ScenarioSpec> {
    let mut all = ScenarioSpec::pack();
    all.push(
        ScenarioSpec::by_name("regime-shift")
            .expect("pack member")
            .with_load_coupling(0.7),
    );
    all.push(
        ScenarioSpec::by_name("preemption-heavy")
            .expect("pack member")
            .delayed(1_000.5),
    );
    let mut custom = ScenarioSpec::new("custom-storms");
    custom.profile = Some(InterferenceProfile::Custom {
        base: 0.05,
        value_amplitude: 0.1 + 0.2,
        regime_scale: 1.0,
        burst_magnitude: 0.9,
    });
    custom.events.push(ScenarioEvent::Storm {
        at: 60.0,
        duration: 900.0,
        factor: 1.5,
    });
    custom.events.push(ScenarioEvent::Diurnal {
        period: 21_600.0,
        amplitude: 0.25,
        phase: -0.125,
    });
    all.push(custom);
    all
}

/// One record of each of the 15 event kinds.
pub fn obs_records() -> Vec<ObsRecord> {
    let events = vec![
        ObsEvent::CampaignStart {
            campaign: "pins".into(),
            cells: 16,
            total_cost: 1_536.5,
        },
        ObsEvent::CampaignFinish {
            campaign: "pins".into(),
            completed: 16,
        },
        ObsEvent::CellStart {
            campaign: "pins".into(),
            cell_seq: 3,
            index: 5,
            tuner: "DarwinGame".into(),
            vm: "m5.8xlarge".into(),
            est_cost: 96.0,
        },
        ObsEvent::CellFinish {
            campaign: "pins".into(),
            cell_seq: 3,
            index: 5,
            core_hours: 0.1 + 0.2,
            mean_time: f64::INFINITY,
            failed: true,
        },
        ObsEvent::LabSession {
            campaign: "pins".into(),
            loaded: 4,
            fresh: 12,
            discarded: 1,
        },
        ObsEvent::SpanStart {
            name: "phase.regional".into(),
        },
        ObsEvent::SpanEnd {
            name: "phase.regional".into(),
            start_seq: 6,
        },
        ObsEvent::Round {
            phase: "global",
            round: 2,
            games: 8,
        },
        ObsEvent::Game {
            players: 4,
            start: 1_800.0,
            elapsed: 245.25,
            early_terminated: false,
        },
        ObsEvent::Solo {
            start: 0.0,
            observed_time: f64::NAN,
        },
        ObsEvent::Probe {
            start: 3_600.0,
            observed_time: 244.9,
        },
        ObsEvent::RetuneDetection {
            step: 40,
            at: 72_000.0,
            direction: "up".into(),
        },
        ObsEvent::Retune {
            step: 41,
            kind: "retune".into(),
            accepted: true,
        },
        ObsEvent::ScenarioTimeline {
            scenario: "preemption-heavy".into(),
            preemptions: 24,
        },
        ObsEvent::PreemptionStrike {
            at: 9_000.0,
            outage: f64::NEG_INFINITY,
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| ObsRecord {
            seq: u64::MAX - i as u64,
            event,
        })
        .collect()
}

/// A hand-built snapshot with two counters, two gauges and two histograms.
pub fn metrics_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            ("exec.process_launches".into(), 0),
            ("exec.sim_ops".into(), u64::MAX),
        ],
        gauges: vec![("campaign.eta_s".into(), 0.1 + 0.2), ("x".into(), f64::NAN)],
        histograms: vec![
            HistogramSnapshot {
                name: "cell.seconds".into(),
                count: 3,
                sum: 12.5,
                min: 0.0005,
                max: 2_000.0,
                buckets: vec![1, 0, 0, 0, 1, 0, 0, 1],
            },
            HistogramSnapshot {
                name: "empty".into(),
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                buckets: vec![0; 8],
            },
        ],
    }
}

/// A retune report with two cells and two scenario summaries.
pub fn retune_report() -> RetuneReport {
    let cell = |scenario: &str, seed: u64, adaptive: f64| RetuneCellResult {
        scenario: scenario.into(),
        seed,
        adaptive_initial: 3,
        adaptive_final: 9,
        fixed_champion: 4,
        detections: 2,
        retunes: 1,
        switches: 1,
        adaptive_time: adaptive,
        fixed_time: 12_000.5,
        reference_time: 10_000.0,
        adaptive_evals: 32,
        fixed_evals: 32,
        core_hours: 0.1 + 0.2,
    };
    let summary = |scenario: &str, fixed_regret: f64| RetuneScenarioSummary {
        scenario: scenario.into(),
        cells: 1,
        adaptive_regret: 1_500.25,
        fixed_regret,
        detections: 2,
        retunes: 1,
        switches: 1,
    };
    RetuneReport {
        campaign: "retune-pins".into(),
        fingerprint: u64::MAX,
        cells: vec![
            cell("steady", 0, 11_500.25),
            cell("diurnal", u64::MAX, f64::INFINITY),
        ],
        scenarios: vec![summary("steady", 2_000.5), summary("diurnal", 0.0)],
    }
}
