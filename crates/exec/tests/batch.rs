//! The batched-execution differential battery.
//!
//! `ExecutionBackend::play_games_batch` is documented as an accounting-identical
//! reordering of the per-game loop: same outcomes, same cost, same clock, same RNG
//! stream. These tests enforce that contract across every composable backend — the
//! raw simulator, scenario wrappers (plain and load-coupled), and record→replay
//! traces — over randomized tournaments.
//!
//! Every comparison is on `f64::to_bits`, not approximate equality: the batch path is
//! only allowed transforms that are bitwise invisible.

use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, SimRng, VmType};
use dg_exec::{
    BackendProvider, ExecutionBackend, GameBatchItem, GamePlay, GameRules, SimProvider,
    TraceRecorder, TraceReplayer,
};
use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};

const VM: VmType = VmType::M5_8xlarge;

/// A randomized tournament: a few rounds, each of a few games, each of 1–8 players.
fn random_rounds(seed: u64) -> Vec<Vec<Vec<ExecutionSpec>>> {
    let mut rng = SimRng::new(seed).derive("batch-battery");
    let rounds = 1 + rng.index(3);
    (0..rounds)
        .map(|_| {
            let games = 1 + rng.index(4);
            (0..games)
                .map(|_| {
                    let players = 1 + rng.index(8);
                    (0..players)
                        .map(|_| {
                            ExecutionSpec::new(
                                rng.uniform_range(40.0, 400.0),
                                rng.uniform_range(0.0, 1.2),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Rules alternate per round so both early-termination branches are exercised.
fn rules_for(round: usize) -> GameRules {
    if round % 2 == 0 {
        GameRules::default()
    } else {
        GameRules::playoff()
    }
}

/// Drives one tournament and returns every produced number as raw bits, in order.
///
/// Each round is committed in parallel (clock advances between rounds, so batches
/// start mid-stream), and the trailing solo run + observation prove the backend's RNG
/// stream ends in exactly the same state either way.
fn drive(
    exec: &mut dyn ExecutionBackend,
    rounds: &[Vec<Vec<ExecutionSpec>>],
    batched: bool,
) -> Vec<u64> {
    let mut bits = Vec::new();
    for (round, games) in rounds.iter().enumerate() {
        let rules = rules_for(round);
        let plays: Vec<GamePlay> = if batched {
            let items: Vec<GameBatchItem<'_>> =
                games.iter().map(|specs| GameBatchItem { specs }).collect();
            exec.play_games_batch(&items, &rules)
        } else {
            games
                .iter()
                .map(|specs| exec.play_game(specs, &rules))
                .collect()
        };
        for play in &plays {
            bits.push(play.start.as_seconds().to_bits());
            bits.push(play.elapsed.to_bits());
            bits.push(u64::from(play.early_terminated));
            bits.extend(play.observed_times.iter().map(|t| t.to_bits()));
            bits.extend(play.execution_scores.iter().map(|s| s.to_bits()));
        }
        exec.commit_parallel(&plays);
    }
    let probe = ExecutionSpec::new(130.0, 0.65);
    let run = exec.run_single(probe);
    bits.push(run.observed_time.to_bits());
    bits.push(run.elapsed.to_bits());
    bits.push(exec.observe_single_at(probe, exec.clock(), 23).to_bits());
    bits.push(exec.cost().core_hours().to_bits());
    bits.push(exec.clock().as_seconds().to_bits());
    bits
}

fn sim(seed: u64) -> Box<dyn ExecutionBackend> {
    Box::new(CloudEnvironment::new(
        VM,
        InterferenceProfile::typical(),
        seed,
    ))
}

/// A scenario with every kind of timeline structure the batch path must respect.
fn eventful(name: &str, coupling: f64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(name);
    spec.events = vec![
        ScenarioEvent::LoadShift {
            at: 60.0,
            factor: 1.5,
        },
        ScenarioEvent::Storm {
            at: 20.0,
            duration: 200.0,
            factor: 1.3,
        },
        ScenarioEvent::Diurnal {
            period: 500.0,
            amplitude: 0.4,
            phase: 0.1,
        },
        ScenarioEvent::Preemptions {
            start: 0.0,
            mean_interval: 150.0,
            downtime: 9.0,
            count: 10,
        },
    ];
    spec.load_coupling = coupling;
    spec
}

/// A seedable constructor for one composable backend stack.
type BackendFactory = Box<dyn Fn(u64) -> Box<dyn ExecutionBackend>>;

/// Every composable backend the batch contract covers, as seedable factories.
fn factories() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("sim", Box::new(sim)),
        (
            "scenario",
            Box::new(|seed| {
                Box::new(ScenarioBackend::new(
                    sim(seed),
                    eventful("plain", 0.0),
                    seed,
                )) as Box<dyn ExecutionBackend>
            }),
        ),
        (
            "scenario-coupled",
            Box::new(|seed| {
                Box::new(ScenarioBackend::new(
                    sim(seed),
                    eventful("coupled", 0.7),
                    seed,
                )) as Box<dyn ExecutionBackend>
            }),
        ),
    ]
}

#[test]
fn batched_tournaments_are_bit_identical_on_every_backend() {
    for tournament in 0..64u64 {
        let rounds = random_rounds(tournament);
        for (name, factory) in factories() {
            let mut looped = factory(tournament);
            let mut batched = factory(tournament);
            let a = drive(looped.as_mut(), &rounds, false);
            let b = drive(batched.as_mut(), &rounds, true);
            assert_eq!(
                a, b,
                "tournament {tournament} on backend {name}: batch diverged from the loop"
            );
        }
    }
}

#[test]
fn recorded_batches_replay_interchangeably_with_the_loop() {
    // A trace recorded from a batched run must replay through the per-game loop (and
    // vice versa): the recorder is required to emit the identical event stream either
    // way, so traces stay mode-agnostic.
    for tournament in [2u64, 29] {
        let rounds = random_rounds(tournament);
        for (record_batched, replay_batched) in [(true, false), (false, true)] {
            let recorder = TraceRecorder::new(Box::new(SimProvider), "batch-battery", 0xBA7C);
            let recorded = {
                let mut backend =
                    recorder.backend("root", VM, &InterferenceProfile::typical(), tournament);
                drive(backend.as_mut(), &rounds, record_batched)
            };
            let trace = recorder.finish();
            let replayer = TraceReplayer::new(trace);
            let mut backend =
                replayer.backend("root", VM, &InterferenceProfile::typical(), tournament);
            let replayed = drive(backend.as_mut(), &rounds, replay_batched);
            assert_eq!(
                recorded, replayed,
                "tournament {tournament}: replay (batched={replay_batched}) diverged from \
                 recording (batched={record_batched})"
            );
        }
    }
}
