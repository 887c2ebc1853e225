//! Test-only reference physics: the textbook forms the engine is checked against.
//!
//! [`level`] evaluates an interference profile component by component, rehashing every
//! component at every call, with no memoization and no batching. [`game`] steps a
//! co-located game one [`level`] call and one player at a time. The engine's samplers
//! and step loops in `interference.rs` and `cloud.rs` must match both bit for bit, in
//! every output and in the random draws they consume.

use crate::cloud::{
    CONTENTION_COEFF, MAX_RUN_MULTIPLIER, MEASUREMENT_NOISE_STD, PLAYER_JITTER_STD,
};
use crate::rng::{hash_unit, mix};
use crate::{ExecutionSpec, GamePlay, GameRules, InterferenceProfile, SimRng, SimTime, VmType};

/// The interference level of `profile` on the node identified by `seed` at time `t`:
/// base load plus value noise plus regime plus burst, as [`InterferenceProfile`]
/// defines them.
pub(crate) fn level(profile: &InterferenceProfile, seed: u64, t: SimTime) -> f64 {
    let (base, value_amplitude, regime_scale, burst_magnitude) = match *profile {
        InterferenceProfile::Dedicated => return 0.0,
        InterferenceProfile::Constant(level) => return level,
        InterferenceProfile::Typical => (0.05, 0.25, 1.0, 0.9),
        InterferenceProfile::Heavy => (0.15, 0.45, 2.0, 1.4),
        InterferenceProfile::Custom {
            base,
            value_amplitude,
            regime_scale,
            burst_magnitude,
        } => (base, value_amplitude, regime_scale, burst_magnitude),
    };
    let seconds = t.as_seconds();

    // Value noise: anchors every 480 s, cosine-interpolated.
    let x = seconds / 480.0;
    let cell = x.floor() as u64;
    let w = (1.0 - (std::f64::consts::PI * (x - x.floor())).cos()) / 2.0;
    let (a, b) = (
        hash_unit(mix(seed, 1), cell),
        hash_unit(mix(seed, 1), cell + 1),
    );
    let value = value_amplitude * (a * (1.0 - w) + b * w);

    // Regime: a weighted draw from the catalogue every 900 s.
    let levels = [0.0, 0.12, 0.3, 0.55].map(|level| level * regime_scale);
    let weights = [0.35, 0.35, 0.2, 0.1];
    let total: f64 = weights.iter().sum();
    let epoch = (seconds / 900.0).floor() as u64;
    let mut target = hash_unit(mix(mix(seed, 2), 0x5eed), epoch) * total;
    let mut regime = levels[3];
    for (level, weight) in levels.into_iter().zip(weights) {
        if target < weight {
            regime = level;
            break;
        }
        target -= weight;
    }

    // Bursts: with probability 0.25, a 600 s window holds a burst over 15% of it.
    let (probability, duty) = (0.25, 0.15);
    let x = seconds / 600.0;
    let epoch = x.floor() as u64;
    let frac = x - x.floor();
    let mut burst = 0.0;
    if hash_unit(mix(mix(seed, 3), 0xb00f), epoch) < probability {
        let start = hash_unit(mix(mix(seed, 3), 0xcafe), epoch) * (1.0 - duty);
        if frac >= start && frac < start + duty {
            burst = burst_magnitude;
        }
    }

    base + value + regime + burst
}

/// Plays `specs` as one co-located game on `vm` from `start` under the Fig. 5 rules of
/// `rules`, over the signal `level(profile, node_seed, _)`, drawing each player's
/// jitter and then each player's measurement noise from `rng`. Also returns how many
/// players finished.
pub(crate) fn game(
    vm: VmType,
    profile: &InterferenceProfile,
    node_seed: u64,
    start: SimTime,
    specs: &[ExecutionSpec],
    rng: &mut SimRng,
    rules: &GameRules,
) -> (GamePlay, usize) {
    let players = specs.len();
    let scaled: Vec<ExecutionSpec> = specs.iter().map(|s| s.scaled(vm.speed_factor())).collect();
    let contention = CONTENTION_COEFF * (players - 1) as f64 / vm.vcpus() as f64;
    let overload = if players > vm.vcpus() {
        players as f64 / vm.vcpus() as f64
    } else {
        1.0
    };
    let jitter: Vec<f64> = (0..players)
        .map(|_| rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4))
        .collect();
    let noise: Vec<f64> = (0..players)
        .map(|_| {
            rng.normal_with(1.0, MEASUREMENT_NOISE_STD)
                .clamp(0.99, 1.01)
        })
        .collect();
    let min_base = scaled
        .iter()
        .map(|s| s.base_time())
        .fold(f64::INFINITY, f64::min);
    let dt = (min_base / 200.0).max(0.25);
    let max_seconds =
        specs.iter().map(|s| s.base_time()).fold(0.0_f64, f64::max) * MAX_RUN_MULTIPLIER;

    let mut progress = vec![0.0; players];
    let mut finish: Vec<Option<f64>> = vec![None; players];
    let mut elapsed = 0.0_f64;
    let mut early_terminated = false;
    while finish.iter().all(Option::is_none) && elapsed < max_seconds {
        let ambient = level(profile, node_seed, start + elapsed) * vm.interference_factor();
        for i in 0..players {
            let effective = (ambient + contention) * jitter[i];
            let rate = scaled[i].progress_rate(effective) * noise[i] / overload;
            let advanced = progress[i] + rate * dt;
            if advanced >= 1.0 {
                // Interpolate the exact finish instant inside this step.
                finish[i] = Some(elapsed + (1.0 - progress[i]) / rate);
                progress[i] = 1.0;
            } else {
                progress[i] = advanced;
            }
        }
        elapsed += dt;
        if rules.early_termination && players > 1 {
            let mut leader = 0;
            for i in 1..players {
                if progress[i] > progress[leader] {
                    leader = i;
                }
            }
            let runner_up = (0..players)
                .filter(|&i| i != leader)
                .map(|i| progress[i])
                .fold(0.0_f64, f64::max);
            let gap = if progress[leader] > 0.0 {
                (progress[leader] - runner_up) / progress[leader]
            } else {
                0.0
            };
            if progress[leader] >= rules.min_leader_progress && gap >= rules.work_done_deviation {
                early_terminated = true;
                break;
            }
        }
    }

    let observed_times: Vec<f64> = (0..players)
        .map(|i| match finish[i] {
            Some(t) => t,
            None if progress[i] > 0.0 => elapsed / progress[i],
            None => f64::INFINITY,
        })
        .collect();
    let best = observed_times.iter().copied().fold(f64::INFINITY, f64::min);
    let execution_scores = observed_times
        .iter()
        .map(|t| {
            if best.is_finite() && best > 0.0 && t.is_finite() {
                (best / t).min(1.0)
            } else {
                0.0
            }
        })
        .collect();
    let play = GamePlay {
        start,
        elapsed,
        observed_times,
        execution_scores,
        early_terminated,
    };
    (play, finish.iter().flatten().count())
}
