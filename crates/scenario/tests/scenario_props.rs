//! Scenario property battery: randomly-composed scenarios expand to timelines that
//! are deterministic per seed, round-trip through canonical JSON, and — wrapped
//! around a recording/replaying backend — reproduce every observable quantity bit for
//! bit with zero resimulation.

use dg_cloudsim::{ExecutionSpec, InterferenceProfile, SimTime, VmType};
use dg_exec::{
    sim_ops, BackendProvider, ExecutionBackend, GameRules, SimProvider, TraceRecorder,
    TraceReplayer,
};
use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec, Timeline};
use proptest::prelude::*;

const VM: VmType = VmType::M5_8xlarge;

/// Builds a valid scenario from drawn selectors: 4 event slots (kind 7 = empty) with
/// 3 unit-interval parameters each, plus a fleet selector.
fn scenario_from(kinds: &[u8], params: &[f64], fleet: u8) -> ScenarioSpec {
    let mut scenario = ScenarioSpec::new("prop");
    for (slot, kind) in kinds.iter().enumerate() {
        let p = |i: usize| params[slot * 3 + i];
        let event = match kind {
            0 => ScenarioEvent::LoadShift {
                at: p(0) * 5_000.0,
                factor: 0.5 + 2.0 * p(1),
            },
            1 => ScenarioEvent::Storm {
                at: p(0) * 5_000.0,
                duration: 100.0 + p(1) * 2_000.0,
                factor: 1.0 + p(2) * 2.0,
            },
            2 => ScenarioEvent::StormFront {
                start: p(0) * 2_000.0,
                period: 600.0 + p(1) * 3_000.0,
                chance: p(2),
                duration: 300.0,
                factor: 1.5,
                windows: 8,
            },
            3 => ScenarioEvent::Preemption {
                at: p(0) * 8_000.0,
                downtime: p(1) * 600.0,
            },
            4 => ScenarioEvent::Preemptions {
                start: p(0) * 2_000.0,
                mean_interval: 600.0 + p(1) * 4_000.0,
                downtime: 300.0,
                count: 6,
            },
            5 => ScenarioEvent::PriceChange {
                at: p(0) * 5_000.0,
                factor: 0.25 + p(1) * 3.0,
            },
            6 => ScenarioEvent::Diurnal {
                period: 3_600.0 + p(0) * 40_000.0,
                amplitude: p(1),
                phase: p(2),
            },
            _ => continue,
        };
        scenario.events.push(event);
    }
    scenario.fleet = match fleet {
        0 => Vec::new(),
        1 => vec![VmType::C5_9xlarge, VmType::M5_8xlarge],
        _ => vec![VmType::M5Large, VmType::M5_16xlarge, VmType::R5_8xlarge],
    };
    scenario.validate();
    scenario
}

/// The operation mix the record/replay differential drives: a game (committed), a solo
/// run, repeated observations, and a forked sub-environment.
fn drive(exec: &mut dyn ExecutionBackend) -> (Vec<u64>, u64, u64) {
    let fast = ExecutionSpec::new(100.0, 0.3);
    let slow = ExecutionSpec::new(220.0, 0.9);
    let play = exec.play_game(&[fast, slow], &GameRules::default());
    exec.commit(&play);
    let run = exec.run_single(fast);
    let observations = exec.observe_repeated(slow, 3, 900.0);
    let mut fork = exec.fork(4242);
    let fork_run = fork.run_single(slow);
    let mut bits: Vec<u64> = play.observed_times.iter().map(|t| t.to_bits()).collect();
    bits.push(play.elapsed.to_bits());
    bits.push(run.observed_time.to_bits());
    bits.push(run.elapsed.to_bits());
    bits.push(fork_run.observed_time.to_bits());
    bits.push(fork.cost().core_hours().to_bits());
    bits.extend(observations.iter().map(|t| t.to_bits()));
    (
        bits,
        exec.cost().core_hours().to_bits(),
        exec.clock().as_seconds().to_bits(),
    )
}

proptest! {
    /// Timeline expansion is a pure function of `(spec, seed)`, its factors are pure
    /// functions of time, and the spec round-trips through canonical JSON (fingerprint
    /// included) byte for byte.
    #[test]
    fn timelines_are_deterministic_per_seed(
        kinds in prop::collection::vec(0u8..8, 4),
        params in prop::collection::vec(0.0f64..1.0, 12),
        fleet in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let scenario = scenario_from(&kinds, &params, fleet);
        prop_assert_eq!(
            Timeline::expand(&scenario, seed),
            Timeline::expand(&scenario, seed),
            "same (spec, seed) must expand identically"
        );
        let timeline = scenario.timeline(seed);
        for i in 0..24u64 {
            let t = i as f64 * 577.0;
            prop_assert_eq!(timeline.load_factor(t).to_bits(), timeline.load_factor(t).to_bits());
            prop_assert!(timeline.load_factor(t) > 0.0);
            prop_assert!(timeline.price_factor(t) > 0.0);
        }
        let json = scenario.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("canonical scenarios parse");
        prop_assert_eq!(&parsed, &scenario);
        prop_assert_eq!(parsed.to_json(), json, "re-serialization is byte-identical");
        prop_assert_eq!(parsed.fingerprint(), scenario.fingerprint());
    }

    /// The load-bearing property: a scenario-wrapped backend recorded through
    /// `TraceRecorder` replays through `TraceReplayer` bit-identically — every
    /// observation, the cost accounting, and the clock — with zero simulator
    /// operations, because the scenario re-applies its deterministic transforms over
    /// the replayed raw outcomes.
    #[test]
    fn scenario_backends_record_replay_byte_identically(
        kinds in prop::collection::vec(0u8..8, 4),
        params in prop::collection::vec(0.0f64..1.0, 12),
        fleet in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let scenario = scenario_from(&kinds, &params, fleet);
        let profile = InterferenceProfile::typical();

        let recorder = TraceRecorder::new(Box::new(SimProvider), "scenario-prop", 0xdead);
        let inner = recorder.backend("root", VM, &profile, seed);
        let mut live = ScenarioBackend::new(inner, scenario.clone(), seed);
        let live_result = drive(&mut live);
        drop(live);
        let trace = recorder.finish();

        let replayer = TraceReplayer::new(trace);
        let before = sim_ops();
        let inner = replayer.backend("root", VM, &profile, seed);
        let mut replay = ScenarioBackend::new(inner, scenario, seed);
        let replay_result = drive(&mut replay);
        prop_assert_eq!(sim_ops(), before, "replay must not touch the simulator");
        prop_assert_eq!(live_result, replay_result);
    }
}

#[test]
fn set_clock_skips_idle_preemptions_deterministically() {
    // A Fig. 3-style delayed tuning start (set_clock) crosses early preemptions while
    // idle; the backend must skip them identically on record and replay.
    let mut scenario = ScenarioSpec::new("late-start");
    scenario.events.push(ScenarioEvent::Preemptions {
        start: 0.0,
        mean_interval: 400.0,
        downtime: 120.0,
        count: 10,
    });
    let profile = InterferenceProfile::typical();
    let run = |seed: u64| {
        let mut exec = ScenarioBackend::new(
            SimProvider.backend("s", VM, &profile, seed),
            scenario.clone(),
            seed,
        );
        exec.set_clock(SimTime::from_seconds(1_500.0));
        let run = exec.run_single(ExecutionSpec::new(300.0, 0.4));
        (run.observed_time.to_bits(), run.elapsed.to_bits())
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4), "different seeds see different schedules");
}
