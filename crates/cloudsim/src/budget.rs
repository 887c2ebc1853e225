//! The engine's error budget, measured against the fine fixed-step reference.
//!
//! The measured set is fixed by seed:
//!
//! * **7,200 games.** 4 applications on spaces scaled to at most 55,296
//!   configurations, on m5.large, m5.8xlarge and m5.24xlarge, 600 games each. Widths
//!   go 2, 4, 8 and 16 in turn. Every third game draws its players from the
//!   application's 100 fastest of 4,000 sampled configurations, to stand for close
//!   late-phase games, and every fifth game plays under playoff rules.
//! * **20,000 solo runs.** 625 per application and VM, over all 8 VMs.
//!
//! Each game and run starts at its own instant of the first simulated day, on a
//! typical-profile node of its own. It is compared with the same draws played through
//! `reference::game` at step divisor 12,800 (25,600 for solo runs), whose 0.25 s step
//! floor scales by the same factor. The engine is measured next to two fixed-step
//! rules, so that the table shows the row to beat: divisor 200, the engine's rule up
//! to this measurement, and divisor 100, the fallback.
//!
//! The budget, against the ±1% clamp of the measurement noise:
//!
//! * observed-time error p99 at most 0.05% and max at most 1%, for games and for solo
//!   runs;
//! * winner flips and early-termination flips each in at most 0.04% of games, the
//!   rate divisor 200 showed when this budget was set;
//! * `elapsed` error p99 no larger than divisor 200's.
//!
//! ```sh
//! cargo test --release -p dg-cloudsim error_budget -- --ignored --nocapture
//! ```
//!
//! `error_budget_slice` checks the same budget on every tenth game and run.

use crate::{
    CloudEnvironment, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, SimRng, SimTime,
    VmType,
};
use dg_workloads::{Application, Workload};
use std::time::Instant;

/// The reference's step divisor for games.
const FINE_GAME_DIVISOR: f64 = 12_800.0;
/// The reference's step divisor for solo runs.
const FINE_SOLO_DIVISOR: f64 = 25_600.0;
/// Seconds in the simulated day the start instants are drawn from.
const DAY: f64 = 86_400.0;

/// One game of the set.
struct GameCase {
    vm: VmType,
    seed: u64,
    start: SimTime,
    specs: Vec<ExecutionSpec>,
    rules: GameRules,
}

/// One solo run of the set.
struct SoloCase {
    vm: VmType,
    seed: u64,
    start: SimTime,
    spec: ExecutionSpec,
}

/// The games and solo runs of the set, every `stride`-th of each.
fn cases(stride: usize) -> (Vec<GameCase>, Vec<SoloCase>) {
    let mut draw = SimRng::new(0xb0d6e7).derive("error-budget");
    let (mut games, mut solos) = (Vec::new(), Vec::new());
    let (mut game_index, mut solo_index) = (0_usize, 0_usize);
    for app in Application::ALL {
        let workload = Workload::scaled(app, 55_296);
        let size = workload.size();
        // `dg-workloads` links its own build of this crate, so specs cross by value.
        let spec = |id: u64| {
            let spec = workload.spec(id);
            ExecutionSpec::new(spec.base_time(), spec.sensitivity())
        };
        let uniform = |draw: &mut SimRng| ((draw.uniform() * size as f64) as u64).min(size - 1);
        let mut sampled: Vec<u64> = (0..4_000).map(|_| uniform(&mut draw)).collect();
        sampled.sort_by(|a, b| workload.base_time(*a).total_cmp(&workload.base_time(*b)));
        let fastest = &sampled[..100];
        for vm in [VmType::M5Large, VmType::M5_8xlarge, VmType::M5_24xlarge] {
            for g in 0..600 {
                let players = [2, 4, 8, 16][g % 4];
                let specs = (0..players)
                    .map(|_| {
                        let id = if g % 3 == 0 {
                            fastest[draw.index(fastest.len())]
                        } else {
                            uniform(&mut draw)
                        };
                        spec(id)
                    })
                    .collect();
                let rules = if g % 5 == 0 {
                    GameRules::playoff()
                } else {
                    GameRules::default()
                };
                let (seed, start) = (draw.index(1 << 30) as u64, draw.uniform() * DAY);
                if game_index % stride == 0 {
                    games.push(GameCase {
                        vm,
                        seed,
                        start: SimTime::from_seconds(start),
                        specs,
                        rules,
                    });
                }
                game_index += 1;
            }
        }
        for vm in VmType::ALL {
            for _ in 0..625 {
                let spec = spec(uniform(&mut draw));
                let (seed, start) = (draw.index(1 << 30) as u64, draw.uniform() * DAY);
                if solo_index % stride == 0 {
                    solos.push(SoloCase {
                        vm,
                        seed,
                        start: SimTime::from_seconds(start),
                        spec,
                    });
                }
                solo_index += 1;
            }
        }
    }
    (games, solos)
}

fn env_at(vm: VmType, seed: u64, start: SimTime) -> CloudEnvironment {
    let mut env = CloudEnvironment::new(vm, InterferenceProfile::typical(), seed);
    env.set_clock(start);
    env
}

/// `|got - want| / want`.
fn relative(got: f64, want: f64) -> f64 {
    (got - want).abs() / want
}

/// The index of the fastest observed time; the first of ties.
fn winner(play: &GamePlay) -> usize {
    let times = &play.observed_times;
    (1..times.len()).fold(0, |best, i| if times[i] < times[best] { i } else { best })
}

/// The p50, the p99 and the max of `values`, by nearest rank.
fn spread(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    [0.5, 0.99, 1.0].map(|q| {
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        values[rank - 1]
    })
}

/// One row of the error table.
#[derive(Default)]
struct Row {
    observed: Vec<f64>,
    elapsed: Vec<f64>,
    winner_flips: usize,
    early_flips: usize,
    games: usize,
    solo: Vec<f64>,
    seconds: f64,
}

impl Row {
    fn add_game(&mut self, got: &GamePlay, fine: &GamePlay) {
        for (&got, &want) in got.observed_times.iter().zip(&fine.observed_times) {
            self.observed.push(relative(got, want));
        }
        self.elapsed.push(relative(got.elapsed, fine.elapsed));
        self.winner_flips += usize::from(winner(got) != winner(fine));
        self.early_flips += usize::from(got.early_terminated != fine.early_terminated);
        self.games += 1;
    }

    fn winner_flip_pct(&self) -> f64 {
        100.0 * self.winner_flips as f64 / self.games as f64
    }

    fn early_flip_pct(&self) -> f64 {
        100.0 * self.early_flips as f64 / self.games as f64
    }

    fn print(&mut self, label: &str) {
        let pct = |x: f64| format!("{:.4}%", 100.0 * x);
        let [p50, p99, max] = spread(&mut self.observed);
        let [e50, e99, _] = spread(&mut self.elapsed);
        let [s50, s99, smax] = spread(&mut self.solo);
        println!(
            "| {label} | {} / {} / {} | {:.3}% | {:.3}% | {} / {} | {} / {} / {} |",
            pct(p50),
            pct(p99),
            pct(max),
            self.winner_flip_pct(),
            self.early_flip_pct(),
            pct(e50),
            pct(e99),
            pct(s50),
            pct(s99),
            pct(smax),
        );
    }
}

/// Measures the engine and the fixed-step rules on every `stride`-th case, prints the
/// table, and checks the budget.
fn measure(stride: usize) {
    let (games, solos) = cases(stride);
    let divisors = [100.0, 200.0];
    let mut steps: Vec<Row> = divisors.iter().map(|_| Row::default()).collect();
    let mut engine = Row::default();
    for case in &games {
        let (fine, _) = env_at(case.vm, case.seed, case.start).reference_game(
            &case.specs,
            &case.rules,
            FINE_GAME_DIVISOR,
        );
        for (row, &divisor) in steps.iter_mut().zip(&divisors) {
            let (play, _) = env_at(case.vm, case.seed, case.start).reference_game(
                &case.specs,
                &case.rules,
                divisor,
            );
            row.add_game(&play, &fine);
        }
        let mut env = env_at(case.vm, case.seed, case.start);
        let timer = Instant::now();
        let play = env.play_game(&case.specs, &case.rules);
        engine.seconds += timer.elapsed().as_secs_f64();
        engine.add_game(&play, &fine);
    }
    for case in &solos {
        let (fine, _) = env_at(case.vm, case.seed, case.start).reference_game(
            &[case.spec],
            &GameRules::playoff(),
            FINE_SOLO_DIVISOR,
        );
        let fine = fine.observed_times[0];
        for (row, &divisor) in steps.iter_mut().zip(&divisors) {
            let (play, _) = env_at(case.vm, case.seed, case.start).reference_game(
                &[case.spec],
                &GameRules::playoff(),
                divisor,
            );
            row.solo.push(relative(play.observed_times[0], fine));
        }
        let mut env = env_at(case.vm, case.seed, case.start);
        let timer = Instant::now();
        let run = env.run_single(case.spec);
        engine.seconds += timer.elapsed().as_secs_f64();
        engine.solo.push(relative(run.observed_time, fine));
    }

    println!(
        "{} games, {} solo runs; engine time {:.3} s",
        games.len(),
        solos.len(),
        engine.seconds
    );
    println!(
        "| rule | observed-time error p50 / p99 / max | winner flips | \
         early-termination flips | `elapsed` error p50 / p99 | solo-run error p50 / p99 / max |"
    );
    println!("|---|---|---|---|---|---|");
    for (row, divisor) in steps.iter_mut().zip(divisors) {
        row.print(&format!("step, divisor {divisor}"));
    }
    engine.print("engine");

    let [_, old_rule_elapsed_p99, _] = spread(&mut steps[1].elapsed);
    for (values, what) in [
        (&mut engine.observed, "game"),
        (&mut engine.solo, "solo-run"),
    ] {
        let [_, p99, max] = spread(values);
        assert!(
            p99 <= 5e-4,
            "{what} observed-time error p99 {p99} over 0.05%"
        );
        assert!(max <= 1e-2, "{what} observed-time error max {max} over 1%");
    }
    for (pct, what) in [
        (engine.winner_flip_pct(), "winner"),
        (engine.early_flip_pct(), "early-termination"),
    ] {
        assert!(pct <= 0.04, "{what} flips in {pct}% of games, over 0.04%");
    }
    let [_, elapsed_p99, _] = spread(&mut engine.elapsed);
    assert!(
        elapsed_p99 <= old_rule_elapsed_p99,
        "elapsed error p99 {elapsed_p99}, divisor 200 has {old_rule_elapsed_p99}"
    );
}

#[test]
#[ignore = "about a minute in release; run with --ignored"]
fn error_budget() {
    measure(1);
}

#[test]
#[ignore = "run with --ignored; CI runs it in release"]
fn error_budget_slice() {
    measure(10);
}
