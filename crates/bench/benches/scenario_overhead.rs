//! Scenario-engine wrapper overhead (fig15-style leg).
//!
//! The scenario engine promises that wrapping a backend in a pass-through
//! [`ScenarioBackend`] costs effectively nothing: the wrapper adds a handful of float
//! multiplies and a timeline lookup per operation, against the piecewise integration
//! of each simulated game. This bench drives the identical operation
//! sequence through a bare `CloudEnvironment` and through a `steady`-wrapped one, asserts
//! the results are bit-identical, and demands the wrapper's overhead stay under 5 %.
//!
//! The overhead is the median, over many pairs, of the ratio of the two legs of a pair.
//! The legs of a pair run back to back, bare first in even pairs and wrapped first in
//! odd ones, so a change in the host's speed between pairs moves both legs of a pair
//! alike, and neither leg always runs first. A third leg reports the cost of an *active*
//! timeline (`regime-shift`) for context — that one is allowed to change results, so
//! only its time is shown.
//!
//! Run with `cargo bench --bench scenario_overhead`. Set `DG_SMOKE=1` for
//! the CI-sized workload.
//!
//! # `BENCH_scenario_overhead.json`
//!
//! | key | meaning |
//! |---|---|
//! | `bench`, `mode` | `"scenario_overhead"`, `"smoke"` or `"full"` |
//! | `rounds`, `pairs` | rounds per leg, bare/steady pairs timed |
//! | `bare_seconds` | bare `CloudEnvironment`, median leg |
//! | `steady_seconds` | `ScenarioBackend` with a constant timeline (bit-identical), median leg |
//! | `active_seconds` | `ScenarioBackend` with a regime-shift timeline, median leg |
//! | `overhead_percent` | median steady/bare ratio of a pair, minus 1, in % (must stay `< 5`) |

use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, VmType};
use dg_exec::json;
use dg_exec::{ExecutionBackend, GameRules};
use dg_scenario::{ScenarioBackend, ScenarioSpec};
use std::time::Instant;

const VM: VmType = VmType::M5_8xlarge;

/// One workload unit: a committed 4-player game, a solo run, and three observations —
/// the operation mix campaign cells actually issue.
fn drive(exec: &mut dyn ExecutionBackend, round: u64) -> f64 {
    let specs = [
        ExecutionSpec::new(180.0 + round as f64 % 17.0, 0.6),
        ExecutionSpec::new(220.0, 0.3),
        ExecutionSpec::new(260.0, 0.9),
        ExecutionSpec::new(300.0, 0.1),
    ];
    let play = exec.play_game(&specs, &GameRules::default());
    exec.commit(&play);
    let run = exec.run_single(specs[0]);
    let mut acc: f64 = play.observed_times.iter().sum::<f64>() + run.observed_time;
    acc += exec
        .observe_repeated(specs[1], 3, 900.0)
        .into_iter()
        .sum::<f64>();
    acc
}

/// Total observed seconds plus final accounting, as a bitwise-comparable signature.
fn sweep(mut exec: Box<dyn ExecutionBackend>, rounds: u64) -> (u64, u64, u64) {
    let mut acc = 0.0_f64;
    for round in 0..rounds {
        acc += drive(exec.as_mut(), round);
    }
    (
        acc.to_bits(),
        exec.cost().core_hours().to_bits(),
        exec.clock().as_seconds().to_bits(),
    )
}

fn bare(seed: u64) -> Box<dyn ExecutionBackend> {
    Box::new(CloudEnvironment::new(
        VM,
        InterferenceProfile::typical(),
        seed,
    ))
}

fn wrapped(scenario: &ScenarioSpec, seed: u64) -> Box<dyn ExecutionBackend> {
    Box::new(ScenarioBackend::new(bare(seed), scenario.clone(), seed))
}

/// The median of an odd number of `samples`.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Times one sweep, returning its signature and its wall-clock seconds.
fn timed(exec: Box<dyn ExecutionBackend>, rounds: u64) -> ((u64, u64, u64), f64) {
    let start = Instant::now();
    let signature = sweep(exec, rounds);
    (signature, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = dg_campaign::smoke_requested();
    // A round costs about 8 us. Short legs keep the two legs of a pair close in time;
    // many pairs let the median shrug off the pairs a scheduler hiccup lands in.
    let rounds: u64 = if smoke { 400 } else { 1_500 };
    let pairs = 41;

    println!("=== Scenario-engine wrapper overhead ({rounds} rounds x {pairs} pairs) ===\n");

    // Warm-up pass, and the correctness gate: steady wrapping must not change a bit.
    let reference = sweep(bare(1), rounds);
    assert_eq!(
        sweep(wrapped(&ScenarioSpec::steady(), 1), rounds),
        reference,
        "steady-wrapped execution must be bit-identical to the bare backend"
    );

    let mut bare_times = Vec::with_capacity(pairs);
    let mut steady_times = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    let mut active_times = Vec::with_capacity(pairs);
    let steady = ScenarioSpec::steady();
    let active = ScenarioSpec::by_name("regime-shift").expect("pack scenario");
    for pair in 0..pairs as u64 {
        let seed = 100 + pair;
        let ((a, bare_s), (b, steady_s)) = if pair % 2 == 0 {
            let bare_leg = timed(bare(seed), rounds);
            (bare_leg, timed(wrapped(&steady, seed), rounds))
        } else {
            let steady_leg = timed(wrapped(&steady, seed), rounds);
            (timed(bare(seed), rounds), steady_leg)
        };
        assert_eq!(
            a, b,
            "steady wrapping must stay bit-identical at every seed"
        );
        bare_times.push(bare_s);
        steady_times.push(steady_s);
        ratios.push(steady_s / bare_s);
        active_times.push(timed(wrapped(&active, seed), rounds).1);
    }

    let bare_median = median(&bare_times);
    let steady_median = median(&steady_times);
    let active_median = median(&active_times);
    let overhead_percent = 100.0 * (median(&ratios) - 1.0);

    println!(
        "bare CloudEnvironment:     {:>8.4} s (median of {pairs}, {:.1} us per round)",
        bare_median,
        bare_median / rounds as f64 * 1e6
    );
    println!(
        "steady ScenarioBackend:    {:>8.4} s (median of {pairs}; median pair {overhead_percent:+.2}% vs bare, bit-identical)",
        steady_median
    );
    println!(
        "regime-shift scenario:     {:>8.4} s (median of {pairs}; active timeline, results differ by design)",
        active_median
    );

    assert!(
        overhead_percent < 5.0,
        "pass-through scenario wrapper overhead must stay under 5% (measured {overhead_percent:.2}%)"
    );
    println!("\nwrapper overhead {overhead_percent:+.2}% < 5% budget — OK");

    // Machine-readable record (BENCH_scenario_overhead.json at the repo root is the
    // committed full-mode emission). All times are medians over the pairs, in seconds.
    let json = json::object(|o| {
        o.field("bench", "scenario_overhead")
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("rounds", &rounds)
            .field("pairs", &pairs)
            .field("bare_seconds", &bare_median)
            .field("steady_seconds", &steady_median)
            .field("active_seconds", &active_median)
            .field("overhead_percent", &overhead_percent);
    });
    println!("\n{json}");
    let default_path = if smoke {
        String::new()
    } else {
        // Anchor at the workspace root (cargo runs benches from the package dir).
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_scenario_overhead.json"
        )
        .into()
    };
    let path = std::env::var("DG_SCENARIO_OUT").unwrap_or(default_path);
    if !path.is_empty() {
        std::fs::write(&path, &json).expect("write scenario overhead report");
        println!("report written to {path}");
    }
}
