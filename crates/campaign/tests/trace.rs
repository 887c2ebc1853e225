//! Record/replay differential battery: a recorded campaign trace, round-tripped
//! through its canonical JSON wire format, replays to a `CampaignReport` that is
//! byte-identical to the live run — with zero simulator operations executed.
//!
//! Mismatched replays (different spec fingerprint, renamed campaign, truncated trace)
//! are rejected with typed [`TraceError`]s. The vendored proptest harness runs 64
//! deterministic cases per property.

use dg_campaign::{Campaign, CampaignSpec, ExperimentScale, TraceError};
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_exec::{sim_ops, ExecutionTrace};
use dg_workloads::Application;
use proptest::prelude::*;
use std::sync::Arc;

/// A deliberately tiny per-cell scale so the 64 record+replay cases stay fast.
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

fn random_spec(tuner_count: usize, seed_count: u64, base_seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("trace-differential");
    // Include DarwinGame so traces exercise games, forks, solo runs, and observations.
    let tuner_pool = ["DarwinGame", "RandomSearch", "OpenTuner"];
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
    /// The load-bearing property: record → serialize → parse → replay reproduces the
    /// live report byte for byte, and the replay performs zero simulator operations.
    #[test]
    fn recorded_traces_replay_byte_identically_with_zero_simulation(
        tuner_count in 1usize..4,
        seed_count in 1u64..3,
        base_seed in 0u64..1_000_000,
        workers in 1usize..3,
    ) {
        let spec = random_spec(tuner_count, seed_count, base_seed);
        let campaign = Campaign::new(spec);
        let (live_report, trace) = campaign.record_with_workers(workers);

        // Round-trip the trace through its canonical JSON wire format, the way a
        // stored trace file would travel.
        let json = trace.to_json();
        let parsed = ExecutionTrace::from_json(&json).expect("canonical traces parse");
        prop_assert_eq!(&parsed, &trace, "JSON round trip must be lossless");
        prop_assert_eq!(parsed.to_json(), json, "re-serialization is byte-identical");
        let parsed = Arc::new(parsed);

        // Single-worker replay runs on this thread, so the thread-local simulator-op
        // counter proves zero resimulation exactly.
        let before = sim_ops();
        let replayed = campaign
            .replay_with_workers(Arc::clone(&parsed), 1)
            .expect("a recorded trace replays against its own spec");
        prop_assert_eq!(
            sim_ops(),
            before,
            "replay must execute zero simulator operations"
        );
        prop_assert_eq!(
            replayed.to_json(),
            live_report.to_json(),
            "replayed report diverged from the live run"
        );
        // Replay is worker-count independent too.
        let replayed_parallel = campaign
            .replay_with_workers(Arc::clone(&parsed), 2)
            .expect("a recorded trace replays against its own spec");
        prop_assert_eq!(
            replayed_parallel.to_json(),
            replayed.to_json(),
            "replay must be byte-identical across worker counts"
        );
    }
}

#[test]
fn replaying_against_a_mismatched_spec_is_a_typed_error() {
    let spec = random_spec(1, 1, 42);
    let campaign = Campaign::new(spec.clone());
    let (_, trace) = campaign.record_with_workers(1);

    // Same grid, different base seed: different fingerprint.
    let mut reseeded = spec.clone();
    reseeded.base_seed ^= 0xdead;
    let err = Campaign::new(reseeded.clone())
        .replay(trace)
        .expect_err("a reseeded spec must reject the trace");
    assert_eq!(
        err,
        TraceError::FingerprintMismatch {
            expected: reseeded.fingerprint(),
            found: spec.fingerprint(),
        }
    );
    assert!(err.to_string().contains("different campaign spec"));
}

#[test]
fn replaying_a_truncated_trace_is_a_typed_error() {
    let campaign = Campaign::new(random_spec(1, 2, 7));
    let (_, trace) = campaign.record_with_workers(1);

    // Streams serialize sorted by key, so cell-1's stream and its forks ("cell-1/0",
    // ...) close the document: cut them out and keep cell-0's.
    let json = trace.to_json();
    let cut = json
        .find(",{\"key\":\"cell-1\"")
        .expect("the trace records cell-1");
    let truncated = ExecutionTrace::from_json(&format!("{}]}}", &json[..cut]))
        .expect("the cut trace still parses");
    assert!(truncated.stream("cell-0").is_some());
    let err = campaign
        .replay(truncated)
        .expect_err("missing cell streams must be rejected");
    assert_eq!(
        err,
        TraceError::MissingStream {
            stream: "cell-1".into()
        }
    );
}

#[test]
fn replaying_a_renamed_campaign_is_a_typed_error() {
    let spec = random_spec(1, 1, 3);
    let (_, trace) = Campaign::new(spec.clone()).record_with_workers(1);
    let mut renamed = spec;
    renamed.name = "something-else".into();
    // Renaming changes the fingerprint as well; the fingerprint check fires first.
    let err = Campaign::new(renamed)
        .replay(trace)
        .expect_err("renamed campaigns must be rejected");
    assert!(matches!(err, TraceError::FingerprintMismatch { .. }));
}

#[test]
fn replaying_a_stream_with_a_foreign_header_is_a_typed_error() {
    // One RandomSearch cell: a single stream, since RandomSearch never forks.
    let mut spec = random_spec(1, 1, 5);
    spec.tuners = vec!["RandomSearch".into()];
    let campaign = Campaign::new(spec);
    let (_, trace) = campaign.record_with_workers(1);
    assert_eq!(trace.streams().len(), 1);

    // One flipped byte in the stream's profile label still decodes.
    let edited = trace.to_json().replacen("\"typical\"", "\"typicaL\"", 1);
    let edited = ExecutionTrace::from_json(&edited).expect("the edited trace still parses");
    let err = campaign
        .replay_with_workers(edited, 1)
        .expect_err("a stream recorded under another profile must be rejected");
    assert_eq!(
        err,
        TraceError::StreamMismatch {
            stream: "cell-0".into(),
            field: "profile",
            recorded: "typicaL".into(),
            requested: "typical".into(),
        }
    );
    assert!(err.to_string().contains("typicaL"));
}
