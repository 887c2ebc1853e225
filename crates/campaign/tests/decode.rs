//! Decoder battery: whatever a decoder reads from disk or from a child process, it
//! gives a typed error or a value that re-encodes and re-parses to itself, and the
//! code that consumes that value never panics.
//!
//! The inputs are derived from the fixed documents of `documents/`: each one cut at
//! every char boundary, a seeded sample of single-byte flips, every number token
//! replaced by a hostile number or a string, and nesting 10,000 deep. Every decoder
//! runs over all of them, each followed by a use of what it accepts:
//!
//! - `ExecutionTrace::from_json`, then a replay of every stream, op by op;
//! - `ShardReport::from_json`, then `CampaignReport::merge`;
//! - lab manifests and cell files through `CampaignLab::open`, `load_cells` and
//!   `merge_if_complete`;
//! - `ScenarioSpec::from_json`, then `ScenarioBackend::new` and a few operations;
//! - `parse_profile`, then `InterferenceProfile::sampler`;
//! - `parse_time_report`, the `DG_TIME=` stdout reader of `ProcessBackend`.
//!
//! A panic is caught and reported with its input. Inputs that once made a decoder
//! panic stay below as named cases.

mod documents;

use dg_campaign::{
    CampaignLab, CampaignReport, ExecutionTrace, ScenarioBackend, ScenarioSpec, ShardReport,
};
use dg_cloudsim::{ExecutionSpec, GameRules, InterferenceProfile, SimRng, SimTime, VmType};
use dg_exec::json::{self, parse_profile, ToJson};
use dg_exec::{
    parse_time_report, BackendProvider, ExecutionBackend, SimProvider, TraceEvent, TraceReplayer,
};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Replacements for each number token: out-of-range and signed-zero numbers, a `u64`
/// one past the largest, an underflowing exponent, and strings.
const HOSTILE_NUMBERS: [&str; 9] = [
    "1e999",
    "-1",
    "-0",
    "18446744073709551616",
    "1e-400",
    "null",
    "\"nan\"",
    "\"1\"",
    "\"x\"",
];

/// Single-byte flips sampled per document.
const FLIPS: usize = 256;

/// The spans of the number tokens of `doc`, skipping the insides of strings.
fn number_spans(doc: &str) -> Vec<Range<usize>> {
    let bytes = doc.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i + 1 < bytes.len()
                    && matches!(bytes[i + 1], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                spans.push(start..i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Every hostile input derived from `doc`, labelled for the failure report.
fn hostile_inputs(doc: &str, seed: u64) -> Vec<(String, String)> {
    let mut inputs = Vec::new();
    for (at, _) in doc.char_indices() {
        inputs.push((format!("cut at {at}"), doc[..at].to_string()));
    }
    let mut rng = SimRng::new(seed);
    for _ in 0..FLIPS {
        let at = (rng.next_u64() % doc.len() as u64) as usize;
        let mut bytes = doc.as_bytes().to_vec();
        // The documents are ASCII, and a flip below 0x80 keeps them so.
        bytes[at] ^= 1 + (rng.next_u64() % 0x7f) as u8;
        if let Ok(text) = String::from_utf8(bytes) {
            inputs.push((format!("flip at {at}"), text));
        }
    }
    for span in number_spans(doc) {
        for number in HOSTILE_NUMBERS {
            let text = format!("{}{number}{}", &doc[..span.start], &doc[span.end..]);
            inputs.push((format!("{number} at {}", span.start), text));
        }
    }
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    if let Some(span) = number_spans(doc).first() {
        let text = format!("{}{deep}{}", &doc[..span.start], &doc[span.end..]);
        inputs.push(("deep value".to_string(), text));
    }
    inputs.push(("deep arrays".to_string(), deep));
    inputs.push(("deep objects".to_string(), "{\"a\":".repeat(10_000)));
    inputs
}

/// Runs `case` on every input, catching panics, and fails listing each input that
/// panicked or whose accepted value did not survive a re-encode. `case` returns
/// whether it accepted the input. Returns the number accepted.
fn battery(
    decoder: &str,
    inputs: &[(String, String)],
    case: impl Fn(&str) -> Result<bool, String>,
) -> usize {
    let mut failures = Vec::new();
    let mut accepted = 0;
    for (label, text) in inputs {
        match catch_unwind(AssertUnwindSafe(|| case(text))) {
            Ok(Ok(true)) => accepted += 1,
            Ok(Ok(false)) => {}
            Ok(Err(mismatch)) => failures.push(format!("{label}: {mismatch}")),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                failures.push(format!("{label}: panicked: {message}\n  input: {text}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{decoder}: {} of {} inputs failed:\n{}",
        failures.len(),
        inputs.len(),
        failures[..failures.len().min(8)].join("\n")
    );
    accepted
}

/// Checks that `json`, the encoding of an accepted value, re-parses to a value that
/// encodes to the same bytes.
fn round_trip(json: &str, reencode: impl Fn(&str) -> Result<String, String>) -> Result<(), String> {
    match reencode(json) {
        Ok(again) if again == json => Ok(()),
        Ok(again) => Err(format!("re-encoded as {again}\n  from {json}")),
        Err(err) => Err(format!("its encoding does not parse ({err}): {json}")),
    }
}

/// Replays every stream of `trace` whose header names a VM and a named profile, op by
/// op, with the recorded arguments: what a campaign replay does with each event.
fn replay(trace: &ExecutionTrace) {
    let replayer = TraceReplayer::new(trace.clone());
    for stream in trace.streams().iter().filter(|s| !s.key.contains('/')) {
        let Some(vm) = VmType::from_name(&stream.vm) else {
            continue;
        };
        let profile = match stream.profile.as_str() {
            "typical" => InterferenceProfile::Typical,
            "heavy" => InterferenceProfile::Heavy,
            "dedicated" => InterferenceProfile::Dedicated,
            _ => continue,
        };
        let mut exec = replayer.backend(&stream.key, vm, &profile, stream.seed);
        drive(trace, &stream.key, exec.as_mut());
    }
}

fn drive(trace: &ExecutionTrace, key: &str, exec: &mut dyn ExecutionBackend) {
    let stream = trace.stream(key).expect("the stream exists");
    let mut forks = 0;
    for event in &stream.events {
        match event {
            TraceEvent::Game { specs, rules, .. } => {
                let play = exec.play_game(specs, rules);
                exec.commit_parallel(std::slice::from_ref(&play));
                exec.commit(&play);
            }
            TraceEvent::Single { spec, .. } => {
                exec.run_single(*spec);
            }
            TraceEvent::Observe {
                spec, start, salt, ..
            } => {
                exec.observe_single_at(*spec, *start, *salt);
            }
            TraceEvent::Fork { seed } => {
                let mut child = exec.fork(*seed);
                drive(trace, &format!("{key}/{forks}"), child.as_mut());
                forks += 1;
            }
        }
    }
    let _ = (exec.clock(), exec.cost().core_hours(), exec.failure());
}

fn trace_case(text: &str) -> Result<bool, String> {
    let Ok(trace) = ExecutionTrace::from_json(text) else {
        return Ok(false);
    };
    round_trip(&trace.to_json(), |json| {
        ExecutionTrace::from_json(json)
            .map(|t| t.to_json())
            .map_err(|e| e.to_string())
    })?;
    replay(&trace);
    Ok(true)
}

fn shard_case(text: &str) -> Result<bool, String> {
    let Ok(report) = ShardReport::from_json(text) else {
        return Ok(false);
    };
    round_trip(&report.to_json(), |json| {
        ShardReport::from_json(json)
            .map(|r| r.to_json())
            .map_err(|e| e.to_string())
    })?;
    if let Ok(merged) = CampaignReport::merge(vec![report]) {
        let _ = (merged.to_json(), merged.summary_table().render());
    }
    Ok(true)
}

fn scenario_case(text: &str) -> Result<bool, String> {
    let Ok(spec) = ScenarioSpec::from_json(text) else {
        return Ok(false);
    };
    round_trip(&spec.to_json(), |json| {
        ScenarioSpec::from_json(json).map(|s| s.to_json())
    })?;
    let vm = VmType::M5_8xlarge;
    let profile = spec.profile.clone().unwrap_or(InterferenceProfile::Typical);
    let inner = SimProvider.backend("decode", vm, &profile, 7);
    let mut exec = ScenarioBackend::new(inner, spec, 7);
    let (fast, slow) = (
        ExecutionSpec::new(100.0, 0.3),
        ExecutionSpec::new(220.0, 0.9),
    );
    let play = exec.play_game(&[fast, slow], &GameRules::default());
    exec.commit(&play);
    exec.run_single(fast);
    exec.observe_single_at(slow, SimTime::from_seconds(7_200.0), 3);
    exec.fork(11).run_single(slow);
    let _ = (exec.clock(), exec.billed_dollars());
    Ok(true)
}

fn profile_case(text: &str) -> Result<bool, String> {
    let Ok(value) = json::parse(text) else {
        return Ok(false);
    };
    let Ok(profile) = parse_profile(&value) else {
        return Ok(false);
    };
    let encode = |profile: &InterferenceProfile| {
        let mut out = String::new();
        profile.write_json(&mut out);
        out
    };
    round_trip(&encode(&profile), |json| {
        parse_profile(&json::parse(json)?).map(|p| encode(&p))
    })?;
    let sampler = profile.sampler(5);
    let _ = (
        sampler.level_at_seconds(0.0),
        sampler.level_at_seconds(86_400.0),
    );
    Ok(true)
}

fn time_case(text: &str) -> Result<bool, String> {
    let Ok(seconds) = parse_time_report(text) else {
        return Ok(false);
    };
    let again = parse_time_report(&format!("DG_TIME={seconds}"))?;
    if again.to_bits() != seconds.to_bits() {
        return Err(format!("{seconds} re-read as {again}"));
    }
    Ok(true)
}

#[test]
fn traces_decode_to_typed_errors_or_replayable_traces() {
    let inputs = hostile_inputs(documents::TRACE, 1);
    let accepted = battery("ExecutionTrace::from_json", &inputs, trace_case);
    assert!(accepted > 0, "the battery must reach the replay");
}

#[test]
fn shard_reports_decode_to_typed_errors_or_mergeable_reports() {
    let mut inputs = hostile_inputs(&documents::shard_report().to_json(), 3);
    let mut single = documents::shard_report();
    single.shard = 0;
    single.shard_count = 1;
    single.grid_cells = 2;
    single.assigned = vec![0, 1];
    single.cells[0].index = 0;
    single.cells[1].index = 1;
    inputs.extend(hostile_inputs(&single.to_json(), 4));
    let accepted = battery("ShardReport::from_json", &inputs, shard_case);
    assert!(accepted > 0);
}

#[test]
fn lab_manifests_and_cells_decode_to_typed_errors() {
    let dir = std::env::temp_dir().join("dg-decode-battery-lab");
    let manifest = documents::lab_manifest(&dir);
    let spec = documents::lab_spec();
    let lab = CampaignLab::open(&dir, &spec).expect("the fixture lab opens");
    let cell = |index: usize| {
        let mut report = documents::shard_report();
        report.cells.truncate(1);
        let mut result = report.cells.remove(0);
        result.index = index;
        result.scenario = "steady".into();
        result
    };
    lab.flush_cell(&cell(0)).expect("cell 0 flushes");
    lab.flush_cell(&cell(1)).expect("cell 1 flushes");
    let cell_doc = std::fs::read_to_string(lab.cell_path(0)).expect("cell file readable");

    let manifest_path = dir.join("manifest.json");
    let manifests = hostile_inputs(&manifest, 5);
    battery("lab manifest", &manifests, |text| {
        std::fs::write(&manifest_path, text).expect("write manifest");
        Ok(CampaignLab::open(&dir, &spec).is_ok())
    });
    std::fs::write(&manifest_path, &manifest).expect("restore manifest");

    let cells = hostile_inputs(&cell_doc, 6);
    let accepted = battery("lab cell", &cells, |text| {
        std::fs::write(lab.cell_path(0), text).expect("write cell");
        let (loaded, _) = lab.load_cells().map_err(|e| e.to_string())?;
        let _ = lab.merge_if_complete().map_err(|e| e.to_string())?;
        Ok(loaded.contains_key(&0))
    });
    assert!(accepted > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenarios_decode_to_typed_errors_or_runnable_scenarios() {
    let mut inputs = Vec::new();
    for (i, scenario) in documents::scenarios().iter().enumerate() {
        inputs.extend(hostile_inputs(&scenario.to_json(), 10 + i as u64));
    }
    let accepted = battery("ScenarioSpec::from_json", &inputs, scenario_case);
    assert!(accepted > 0);
}

#[test]
fn profiles_decode_to_typed_errors_or_samplers() {
    let mut inputs = Vec::new();
    for (i, doc) in [
        "\"typical\"",
        "{\"constant\":0.05}",
        "{\"custom\":[0.05,0.30000000000000004,1,0.9]}",
    ]
    .into_iter()
    .enumerate()
    {
        inputs.extend(hostile_inputs(doc, 30 + i as u64));
    }
    let accepted = battery("parse_profile", &inputs, profile_case);
    assert!(accepted > 0);
}

#[test]
fn time_reports_decode_to_typed_errors_or_durations() {
    let mut inputs = Vec::new();
    for (i, doc) in [
        "warming up\nDG_TIME=245.25\n",
        "DG_TIME=1\nDG_TIME=0.30000000000000004",
    ]
    .into_iter()
    .enumerate()
    {
        inputs.extend(hostile_inputs(doc, 40 + i as u64));
    }
    for odd in [
        "DG_TIME=inf",
        "DG_TIME=NaN",
        "DG_TIME=-0",
        "DG_TIME=",
        "DG_TIME=1e400",
    ] {
        inputs.push((odd.to_string(), odd.to_string()));
    }
    let accepted = battery("parse_time_report", &inputs, time_case);
    assert!(accepted > 0);
}

/// Inputs whose consumers panicked or never returned before the decoders refused
/// them; each is now a typed error.
#[test]
fn inputs_that_once_panicked_or_hung_are_typed_errors() {
    let trace = documents::TRACE;
    for (case, text) in [
        // A NaN elapsed time: replay panicked adding it to the clock.
        (
            "NaN elapsed",
            trace.replacen("\"elapsed\":0}", "\"elapsed\":\"nan\"}", 1),
        ),
        // NaN game rules: replay's check that the requested rules match the recorded
        // ones panicked on NaN != NaN.
        (
            "NaN rules",
            trace.replacen("[true,0.1,0.25]", "[true,\"nan\",0.25]", 1),
        ),
        // A fork whose stream has another header, or none: replay panicked opening it.
        (
            "foreign fork stream",
            trace.replacen("\"seed\":777,\"failure\"", "\"seed\":778,\"failure\"", 1),
        ),
        (
            "missing fork stream",
            trace.replacen("\"key\":\"cell-0/0\"", "\"key\":\"cell-0/1\"", 1),
        ),
        // Two finite elapsed times whose sum is not: the replayed clock overflowed.
        (
            "clock overflow",
            trace
                .replacen("\"elapsed\":245.25", "\"elapsed\":1.7e308", 1)
                .replacen("\"elapsed\":245.5", "\"elapsed\":1.7e308", 1),
        ),
    ] {
        let err = ExecutionTrace::from_json(&text).expect_err(case);
        assert!(err.to_string().contains("streams"), "{case}: {err}");
    }

    // A legacy null mean time reads as NaN, which panicked the merge's CDF.
    let shard = documents::shard_report().to_json().replacen(
        "\"mean_time\":\"inf\"",
        "\"mean_time\":null",
        1,
    );
    let err = ShardReport::from_json(&shard).expect_err("a NaN mean time");
    assert!(err.to_string().contains("cells[1].mean_time"), "{err}");

    // Values that pushed a game's clock past where the simulator can advance it, so
    // that the scenario's first operations never returned.
    for scenario in [
        r#"{"name":"x","fleet":[],"events":[{"op":"diurnal","period":21600,"amplitude":18446744073709551616,"phase":-0.125}]}"#,
        r#"{"name":"x","fleet":[],"events":[{"op":"storm","at":0,"duration":60,"factor":18446744073709551616}]}"#,
        r#"{"name":"x","fleet":[],"events":[{"op":"preempt","at":0,"downtime":18446744073709551616}]}"#,
    ] {
        assert!(ScenarioSpec::from_json(scenario).is_err(), "{scenario}");
    }
}
