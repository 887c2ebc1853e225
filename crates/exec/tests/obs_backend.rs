//! The `dg-obs` neutrality battery at the backend seam.
//!
//! [`ObsBackend`] is documented as a bit-transparent decorator: with no sink installed
//! it is invisible, and with one **installed** (every event actually constructed and
//! delivered) the wrapped stack must still produce byte-for-byte the numbers the bare
//! stack produces. These tests enforce that over the composable backends — simulator,
//! scenario wrapper, record→replay traces — plus the decorator's side
//! contracts: batch/loop interchangeability, exactly one event per operation, and
//! none while no sink is installed.
//!
//! A last battery checks the methods every decorator passes through to its inner
//! backend — `vm`, `profile`, `seed`, `clock`, `cost` and `failure()` latching — on
//! the obs, scenario and recording decorators around a failing real-process backend.
//!
//! The global sink registry is process-wide, so every test serializes on a shared
//! mutex and removes its sink before releasing it.

use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, SimRng, SimTime, VmType};
use dg_exec::{
    BackendProvider, CommandTemplate, ExecutionBackend, GameBatchItem, GamePlay, GameRules,
    ObsBackend, ObsProvider, ProcessProvider, SimProvider, TraceRecorder, TraceReplayer,
};
use dg_obs::{install_sink, remove_sink, ObsEvent, RingSink};
use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};
use std::sync::{Arc, Mutex, MutexGuard};

const VM: VmType = VmType::M5_8xlarge;

/// Serializes the battery: the sink registry is process-global.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with observability fully live (a bounded ring installed) and removes the
/// ring afterwards, returning the result and the ring.
fn with_live_obs<T>(f: impl FnOnce() -> T) -> (T, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(65_536));
    let id = install_sink(ring.clone());
    let result = f();
    remove_sink(id);
    (result, ring)
}

/// A randomized tournament: a few rounds, each of a few games, each of 1–8 players.
fn random_rounds(seed: u64) -> Vec<Vec<Vec<ExecutionSpec>>> {
    let mut rng = SimRng::new(seed).derive("obs-battery");
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

/// Drives one tournament and returns every produced number as raw bits, in order.
fn drive(
    exec: &mut dyn ExecutionBackend,
    rounds: &[Vec<Vec<ExecutionSpec>>],
    batched: bool,
) -> Vec<u64> {
    let mut bits = Vec::new();
    for games in rounds {
        let rules = GameRules::default();
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
    // A fork must stay instrumented without perturbing the parent's stream.
    let mut forked = exec.fork(91);
    bits.push(forked.run_single(probe).observed_time.to_bits());
    bits.push(exec.run_single(probe).observed_time.to_bits());
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

/// A scenario exercising load shifts, storms, diurnal load, and preemptions, so the
/// decorator is proven neutral across every timeline transform (preemption strikes
/// emit their own events mid-operation).
fn eventful(seed: u64) -> Box<dyn ExecutionBackend> {
    let mut spec = ScenarioSpec::new("obs-eventful");
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
    Box::new(ScenarioBackend::new(sim(seed), spec, seed))
}

/// A seedable constructor for one composable backend stack.
type BackendFactory = Box<dyn Fn(u64) -> Box<dyn ExecutionBackend>>;

/// Every composable backend the neutrality contract covers.
fn factories() -> Vec<(&'static str, BackendFactory)> {
    vec![("sim", Box::new(sim)), ("scenario", Box::new(eventful))]
}

#[test]
fn instrumented_stacks_are_bit_identical_to_bare_with_obs_live() {
    let _guard = obs_lock();
    for tournament in 0..16u64 {
        let rounds = random_rounds(tournament);
        for (name, factory) in factories() {
            let mut bare = factory(tournament);
            let a = drive(bare.as_mut(), &rounds, false);
            let (b, ring) = with_live_obs(|| {
                let mut instrumented = ObsBackend::new(factory(tournament));
                drive(&mut instrumented, &rounds, false)
            });
            assert_eq!(
                a, b,
                "tournament {tournament} on {name}: instrumentation perturbed the run"
            );
            assert!(
                !ring.is_empty(),
                "tournament {tournament} on {name}: live obs produced no events"
            );
        }
    }
}

#[test]
fn instrumented_batches_interchange_with_the_bare_loop() {
    let _guard = obs_lock();
    for tournament in [3u64, 17, 40] {
        let rounds = random_rounds(tournament);
        for (name, factory) in factories() {
            let mut bare = factory(tournament);
            let looped = drive(bare.as_mut(), &rounds, false);
            let (batched, ring) = with_live_obs(|| {
                let mut instrumented = ObsBackend::new(factory(tournament));
                drive(&mut instrumented, &rounds, true)
            });
            assert_eq!(
                looped, batched,
                "tournament {tournament} on {name}: instrumented batch diverged from bare loop"
            );
            // Batch delegation emits in batch order: the game-event stream is the
            // same one the per-game loop would have produced.
            let games = ring
                .drain()
                .into_iter()
                .filter(|r| matches!(r.event, ObsEvent::Game { .. }))
                .count();
            let expected: usize = rounds.iter().map(Vec::len).sum();
            assert_eq!(games, expected, "one game event per game, in batch order");
        }
    }
}

#[test]
fn record_replay_stays_interchangeable_under_instrumentation() {
    let _guard = obs_lock();
    let tournament = 29u64;
    let rounds = random_rounds(tournament);
    // Record bare, replay instrumented with obs live: identical numbers.
    let recorder = TraceRecorder::new(Box::new(SimProvider), "obs-battery", 0xB0B);
    let recorded = {
        let mut backend = recorder.backend("root", VM, &InterferenceProfile::typical(), tournament);
        drive(backend.as_mut(), &rounds, false)
    };
    let trace = recorder.finish();
    let replayer = TraceReplayer::new(trace);
    let (replayed, _ring) = with_live_obs(|| {
        let provider = ObsProvider::new(Box::new(replayer));
        let mut backend = provider.backend("root", VM, &InterferenceProfile::typical(), tournament);
        drive(backend.as_mut(), &rounds, true)
    });
    assert_eq!(
        recorded, replayed,
        "instrumented replay diverged from bare recording"
    );
}

#[test]
fn every_seam_operation_emits_exactly_one_event() {
    let _guard = obs_lock();
    let ((), ring) = with_live_obs(|| {
        let mut exec = ObsBackend::new(sim(5));
        let specs = [
            ExecutionSpec::new(100.0, 0.3),
            ExecutionSpec::new(150.0, 0.8),
        ];
        let play = exec.play_game(&specs, &GameRules::default());
        exec.commit(&play);
        exec.run_single(specs[0]);
        exec.observe_single_at(specs[1], SimTime::from_seconds(500.0), 7);
    });
    let kinds: Vec<&'static str> = ring.drain().iter().map(|r| r.event.kind()).collect();
    assert_eq!(kinds, ["game", "solo", "probe"]);
}

#[test]
fn disabled_obs_emits_nothing_through_the_decorator() {
    let _guard = obs_lock();
    // The sequence id one marker event is stamped with, under a briefly live sink.
    let stamp = || {
        let (seq, _ring) = with_live_obs(|| {
            dg_obs::emit(ObsEvent::SpanStart {
                name: "mark".into(),
            })
        });
        seq.expect("a live sink stamps the marker")
    };
    let before = stamp();
    let mut exec = ObsBackend::new(sim(6));
    let spec = ExecutionSpec::new(90.0, 0.4);
    let play = exec.play_game(&[spec, spec], &GameRules::default());
    exec.commit(&play);
    exec.run_single(spec);
    exec.observe_single_at(spec, exec.clock(), 1);
    assert_eq!(
        stamp(),
        before + 1,
        "no sink installed: the decorator may emit no events"
    );
}

/// A provider of real-process backends whose every job exits with status 3, each
/// stream rooted under `root`.
fn failing_processes(root: &std::path::Path) -> ProcessProvider {
    ProcessProvider::new(CommandTemplate::new("/bin/sh", ["-c", "exit 3"]), root)
}

/// Every decorator around a failing process backend, each rooted in its own
/// directory under `root`.
fn failing_stacks(root: &std::path::Path) -> Vec<(&'static str, Box<dyn ExecutionBackend>)> {
    let profile = InterferenceProfile::typical();
    let inner = |name: &str| failing_processes(&root.join(name)).backend("root", VM, &profile, 42);
    let mut scenario = ScenarioSpec::new("pass-through-battery");
    scenario.events.push(ScenarioEvent::LoadShift {
        at: 0.0,
        factor: 1.5,
    });
    let recorder = TraceRecorder::new(
        Box::new(failing_processes(&root.join("recording"))),
        "pass-through-battery",
        0,
    );
    vec![
        ("obs", Box::new(ObsBackend::new(inner("obs")))),
        (
            "scenario",
            Box::new(ScenarioBackend::new(inner("scenario"), scenario, 42)),
        ),
        ("recording", recorder.backend("root", VM, &profile, 42)),
    ]
}

#[test]
fn failure_latching_passes_through_the_decorator() {
    let _guard = obs_lock();
    let dir = std::env::temp_dir().join(format!("dg-obs-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = ExecutionSpec::new(100.0, 0.5);
    let committed = |start: SimTime, elapsed: f64| GamePlay {
        start,
        elapsed,
        observed_times: vec![elapsed],
        execution_scores: vec![1.0],
        early_terminated: false,
    };
    for (name, mut exec) in failing_stacks(&dir.join("wrapped")) {
        let mut bare = failing_processes(&dir.join("bare").join(name)).backend(
            "root",
            VM,
            &InterferenceProfile::typical(),
            42,
        );
        let ((), _ring) = with_live_obs(|| {
            for backend in [bare.as_mut(), exec.as_mut()] {
                assert_eq!(backend.failure(), None, "{name}: nothing ran yet");
                backend.set_clock(SimTime::from_seconds(50.0));
            }
            let run = exec.run_single(spec);
            assert_eq!(run.elapsed, 0.0, "{name}: failures charge nothing");
            assert_eq!(
                run.observed_time.to_bits(),
                bare.run_single(spec).observed_time.to_bits(),
                "{name}: failed runs report the inner sentinel"
            );
            let game = exec.play_game(&[spec, spec], &GameRules::default());
            assert_eq!(game, bare.play_game(&[spec, spec], &GameRules::default()));
            for backend in [bare.as_mut(), exec.as_mut()] {
                let start = backend.clock();
                backend.commit(&committed(start, 30.0));
                backend.commit_parallel(&[committed(start, 10.0), committed(start, 20.0)]);
            }
            let failure = exec.failure().expect("the inner failure is latched");
            assert!(failure.contains("exited"), "{name}: {failure}");
            assert_eq!(Some(failure), bare.failure(), "{name}: failure");
            assert_eq!(exec.vm(), bare.vm(), "{name}: vm");
            assert_eq!(exec.profile(), bare.profile(), "{name}: profile");
            assert_eq!(exec.seed(), bare.seed(), "{name}: seed");
            assert_eq!(exec.clock(), bare.clock(), "{name}: clock");
            assert_eq!(exec.cost(), bare.cost(), "{name}: cost");
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}
