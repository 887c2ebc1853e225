//! Memoization composed with scenarios: the solo-cache regression battery.
//!
//! A memoized backend inside a load-varying scenario must not replay answers from a
//! different load regime. The bug pinned here: `MemoBackend`'s solo key used to ignore
//! the clock, so a `run_single` issued *after* a `LoadShift` happily returned the
//! pre-shift observation — stale by the shift factor. The default memo now keys on the
//! clock (repeat evaluations under a different regime re-observe), while
//! [`MemoBackend::assuming_stationary`] is the explicit opt-in to the old aggressive
//! caching for workloads that really are time-invariant.

use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, SimTime, VmType};
use dg_exec::{ExecutionBackend, MemoBackend};
use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};

/// The ambient load triples at t = 1000 s.
fn shifted_scenario() -> ScenarioSpec {
    let mut scenario = ScenarioSpec::new("memo-load-shift");
    scenario.events.push(ScenarioEvent::LoadShift {
        at: 1_000.0,
        factor: 3.0,
    });
    scenario
}

fn memoized_scenario(seed: u64, stationary: bool) -> MemoBackend {
    let sim = Box::new(CloudEnvironment::new(
        VmType::M5_8xlarge,
        InterferenceProfile::typical(),
        seed,
    ));
    let wrapped = Box::new(ScenarioBackend::new(sim, shifted_scenario(), seed));
    if stationary {
        MemoBackend::assuming_stationary(wrapped)
    } else {
        MemoBackend::new(wrapped)
    }
}

#[test]
fn default_memo_reobserves_after_a_load_shift() {
    let mut exec = memoized_scenario(11, false);
    let spec = ExecutionSpec::new(100.0, 0.5);

    let before = exec.run_single(spec);
    assert!(
        before.started_at.as_seconds() < 1_000.0,
        "first run pre-shift"
    );

    // Jump past the shift: the same spec now lives in a 3x-loaded regime.
    exec.set_clock(SimTime::from_seconds(10_000.0));
    let after = exec.run_single(spec);

    assert_eq!(exec.hits(), 0, "a different clock must not hit the cache");
    assert_eq!(exec.misses(), 2);
    assert_ne!(
        after.observed_time.to_bits(),
        before.observed_time.to_bits(),
        "the post-shift run must be a fresh observation, not the cached one"
    );
    assert!(
        after.observed_time > before.observed_time,
        "tripled ambient load must show up in the fresh observation \
         ({} vs {})",
        after.observed_time,
        before.observed_time
    );
}

#[test]
fn stationary_memo_replays_stale_bits_across_the_shift() {
    // The documented trade of `assuming_stationary`: bit-identical replay of the first
    // observation even though the regime changed underneath. Correct (and fast) for
    // steady scenarios, knowingly stale for this one.
    let mut exec = memoized_scenario(11, true);
    let spec = ExecutionSpec::new(100.0, 0.5);

    let before = exec.run_single(spec);
    exec.set_clock(SimTime::from_seconds(10_000.0));
    let after = exec.run_single(spec);

    assert_eq!(exec.hits(), 1);
    assert_eq!(exec.misses(), 1);
    assert_eq!(
        after.observed_time.to_bits(),
        before.observed_time.to_bits(),
        "stationary memo serves the cached pre-shift observation"
    );
}

#[test]
fn default_memo_still_caches_observations_within_one_regime() {
    // The fix must not disable memoization where it is sound: observations carry an
    // explicit start time in their key, so repeating the same cost-free sweep at the
    // same clock is answered from the cache with zero new simulation.
    let mut exec = memoized_scenario(13, false);
    let spec = ExecutionSpec::new(100.0, 0.5);

    let first = exec.observe_repeated(spec, 3, 900.0);
    let ops = dg_exec::sim_ops();
    let second = exec.observe_repeated(spec, 3, 900.0);

    assert_eq!(
        dg_exec::sim_ops(),
        ops,
        "the repeat sweep must be cache-served"
    );
    assert_eq!(exec.hits(), 3);
    let first_bits: Vec<u64> = first.iter().map(|t| t.to_bits()).collect();
    let second_bits: Vec<u64> = second.iter().map(|t| t.to_bits()).collect();
    assert_eq!(first_bits, second_bits);
}
