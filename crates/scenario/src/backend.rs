//! [`ScenarioBackend`]: applies a scenario's timeline over any inner execution backend.

use crate::spec::ScenarioSpec;
use crate::timeline::Timeline;
use dg_cloudsim::{CostTracker, ExecutionSpec, InterferenceProfile, ObservedRun, SimTime, VmType};
use dg_exec::{ExecutionBackend, GameBatchItem, GamePlay, GameRules};
use dg_obs::{emit_with, ObsEvent};

/// The pivot interference sensitivity for [`ScenarioSpec::load_coupling`]: a spec
/// with exactly this sensitivity feels the nominal load factor under full coupling.
/// Sits mid-range of the workload generators' `[~0.12, ~1.2]` sensitivity spread, so
/// fragile configurations roughly square a load excursion while robust ones feel its
/// fourth root.
const REFERENCE_SENSITIVITY: f64 = 0.6;

/// An [`ExecutionBackend`] decorator that applies a [`ScenarioSpec`]'s event timeline
/// as its clock advances, so tournaments, baseline tuners, record/replay traces, and
/// sharded campaigns all get scenarios for free through the existing backend seam.
///
/// The wrapper owns the *accounting* (clock, cost tracker, spot billing) and uses the
/// inner backend purely as the noise oracle: games and observations are delegated
/// (with the inner clock synced forward first, so the inner noise processes are
/// sampled at scenario time), but commits never reach the inner backend — the
/// scenario charges its own tracker through the exact arithmetic the simulator uses.
/// That is what lets the timeline inflate outcomes without double-charging:
///
/// * the ambient **load factor** ([`Timeline::load_factor`]) multiplies observed times
///   and elapsed time — co-tenant arrivals/departures, slowdown storms, diurnal
///   curves, and mid-run regime escalation all act through it. It is read once, at
///   each operation's start, and held for the whole operation. That is the one load
///   model every scenario fingerprint pins: another model (integrating the level over
///   the span, say) is a physics change that replaces this one and re-pins those
///   fingerprints, not an option beside it;
/// * **preemptions** strike operations in progress: the work done so far is lost, the
///   node is down for the event's `downtime`, and the operation restarts from scratch
///   (a preemption whose time passes while the node is idle is skipped);
/// * a **heterogeneous fleet** gives forked sub-environments (tournament regions) the
///   relative hardware speed of `fleet[fork_ordinal % len]`;
/// * **price changes** feed the scenario's dollar meter
///   ([`billed_dollars`](Self::billed_dollars)): every committed wall-clock second is
///   billed via the [`CostTracker`] dollar discipline at the price factor in effect
///   when the operation started.
///
/// A pass-through scenario ([`ScenarioSpec::is_passthrough`]) leaves every number
/// bit-identical to the unwrapped backend (all factors are exactly `1.0`, and
/// multiplying a finite float by `1.0` is the identity), which the default-`steady`
/// byte-compatibility tests pin.
///
/// Composability with record/replay: wrap the scenario *around* a recording or replay
/// backend. Recording captures the raw inner outcomes; replaying re-applies the same
/// deterministic timeline transforms, so a recorded scenario campaign replays
/// byte-identically with zero resimulation.
pub struct ScenarioBackend {
    inner: Box<dyn ExecutionBackend>,
    spec: ScenarioSpec,
    timeline: Timeline,
    /// Index of the next unconsumed preemption in `timeline.preemptions()`.
    next_preemption: usize,
    clock: SimTime,
    cost: CostTracker,
    billed_dollars: f64,
    /// Relative hardware speed of this node (1.0 for the root; fleet-derived for
    /// forked sub-environments).
    speed: f64,
    /// VM type of the root backend, the reference point for fleet speed ratios.
    base_vm: VmType,
    forks: usize,
}

impl std::fmt::Debug for ScenarioBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBackend")
            .field("scenario", &self.spec.name)
            .field("clock", &self.clock)
            .field("core_hours", &self.cost.core_hours())
            .field("speed", &self.speed)
            .finish()
    }
}

impl ScenarioBackend {
    /// Wraps `inner` in `scenario`, expanding the timeline for `seed` (pass the same
    /// seed the inner backend was built with so the scenario realisation is part of
    /// the backend's identity). The scenario clock starts where `inner`'s clock reads.
    pub fn new(inner: Box<dyn ExecutionBackend>, scenario: ScenarioSpec, seed: u64) -> Self {
        scenario.validate();
        let base_vm = inner.vm();
        let backend = Self::with_speed(inner, scenario, seed, 1.0, base_vm);
        emit_with(|| ObsEvent::ScenarioTimeline {
            scenario: backend.spec.name.clone(),
            preemptions: backend.timeline.preemptions().len(),
        });
        backend
    }

    fn with_speed(
        inner: Box<dyn ExecutionBackend>,
        scenario: ScenarioSpec,
        seed: u64,
        speed: f64,
        base_vm: VmType,
    ) -> Self {
        let timeline = scenario.timeline(seed);
        let clock = inner.clock();
        Self {
            inner,
            spec: scenario,
            timeline,
            next_preemption: 0,
            clock,
            cost: CostTracker::new(),
            billed_dollars: 0.0,
            speed,
            base_vm,
            forks: 0,
        }
    }

    /// Dollars billed for the committed core-hours so far: each committed wall-clock
    /// second costs the VM's on-demand hourly price times the scenario's price factor
    /// at the moment the operation started — the spot-market meter `PriceChange`
    /// events feed. Without price events this equals
    /// `CostTracker::dollar_cost(self.vm())` for serially-committed work.
    pub fn billed_dollars(&self) -> f64 {
        self.billed_dollars
    }

    /// The observed-time multiplier for a spec with interference `sensitivity` under
    /// the timeline's load level `load`, honouring [`ScenarioSpec::load_coupling`]:
    /// under coupling `c` the level is felt as `load^((1 - c) + c * s / 0.6)` by a spec
    /// with sensitivity `s`, so fragile configurations amplify a storm, robust ones
    /// shrug it off, and `s = 0.6` feels exactly the nominal level. Hardware speed
    /// stays a uniform multiplier (a slower machine slows everything equally).
    fn observed_factor(&self, load: f64, sensitivity: f64) -> f64 {
        let c = self.spec.load_coupling;
        if c == 0.0 {
            // The same formula at exponent 1, without the `powf`.
            return self.speed * load;
        }
        let exponent = (1.0 - c) + c * sensitivity / REFERENCE_SENSITIVITY;
        self.speed * load.powf(exponent)
    }

    /// Moves the inner backend's clock forward to the scenario clock so inner noise
    /// processes are sampled at scenario time. The scenario clock starts at the inner
    /// one, and the inner clock never advances on its own (commits are not delegated),
    /// so it can only lag, never lead.
    fn sync_inner_clock(&mut self) {
        if self.inner.clock().as_seconds() < self.clock.as_seconds() {
            self.inner.set_clock(self.clock);
        }
    }

    /// The wall-clock span an operation of `base_elapsed` seconds occupies when it
    /// starts at `start`, after preemption strikes: each preemption inside the span
    /// adds the lost partial work plus its downtime and restarts the operation from
    /// scratch. Consumes the struck (and any idle-crossed) preemptions.
    fn preempted_span(&mut self, start: SimTime, base_elapsed: f64) -> f64 {
        let mut total = 0.0;
        let mut t = start.as_seconds();
        loop {
            match self.timeline.preemptions().get(self.next_preemption) {
                // The node was idle when this preemption fired; nothing to lose.
                Some(&(at, _)) if at < t => self.next_preemption += 1,
                Some(&(at, downtime)) if at < t + base_elapsed => {
                    emit_with(|| ObsEvent::PreemptionStrike {
                        at,
                        outage: downtime,
                    });
                    total += (at - t) + downtime;
                    t = at + downtime;
                    self.next_preemption += 1;
                }
                _ => return total + base_elapsed,
            }
        }
    }

    /// Charges one serially-committed span through the same arithmetic
    /// `CloudEnvironment::commit` uses, plus the scenario dollar meter.
    fn charge_serial(&mut self, start: SimTime, elapsed: f64) {
        self.cost.charge_serial(self.inner.vm(), elapsed);
        self.clock += elapsed;
        self.bill(start, elapsed);
    }

    fn bill(&mut self, start: SimTime, elapsed: f64) {
        self.billed_dollars += elapsed / 3600.0
            * self.inner.vm().hourly_price_usd()
            * self.timeline.price_factor(start.as_seconds());
    }

    /// Applies the timeline transforms of [`play_game`](ExecutionBackend::play_game)
    /// to one inner play: look the load level up once at the play's start, scale each
    /// observation by its spec's factor, scale the wall-clock, then let preemptions
    /// strike it.
    fn apply_scenario_to_play(&mut self, play: &mut GamePlay, specs: &[ExecutionSpec]) {
        let start = play.start;
        let load = self.timeline.load_factor(start.as_seconds());
        for (time, spec) in play.observed_times.iter_mut().zip(specs) {
            *time *= self.observed_factor(load, spec.sensitivity());
        }
        let scaled_elapsed = self.speed * load * play.elapsed;
        play.elapsed = self.preempted_span(start, scaled_elapsed);
    }
}

impl ExecutionBackend for ScenarioBackend {
    fn vm(&self) -> VmType {
        self.inner.vm()
    }

    fn profile(&self) -> &InterferenceProfile {
        self.inner.profile()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn set_clock(&mut self, t: SimTime) {
        assert!(
            t.as_seconds() >= self.clock.as_seconds(),
            "the simulated clock cannot move backwards"
        );
        self.clock = t;
    }

    fn cost(&self) -> &CostTracker {
        &self.cost
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        self.sync_inner_clock();
        let mut play = self.inner.play_game(specs, rules);
        // Execution scores are relative work fractions; a slowdown shared by every
        // co-located player leaves them untouched. The game's wall-clock (the thing
        // that is billed) scales machine-level: load occupies the node regardless of
        // which players were fragile enough to feel it in their observed times.
        self.apply_scenario_to_play(&mut play, specs);
        play
    }

    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        self.sync_inner_clock();
        // One batch reaches the inner backend; each play is then transformed at its
        // own start, consuming preemptions in play order exactly as the per-game loop
        // would.
        let mut plays = self.inner.play_games_batch(games, rules);
        for (play, game) in plays.iter_mut().zip(games) {
            self.apply_scenario_to_play(play, game.specs);
        }
        plays
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        // Route through play_game: for a single player the simulator's solo path and
        // the game loop are the same integration (any-finished == all-finished), so a
        // pass-through scenario stays bit-identical while the scenario keeps control
        // of the accounting.
        let start = self.clock;
        let play = self.play_game(std::slice::from_ref(&spec), &GameRules::default());
        self.charge_serial(start, play.elapsed);
        ObservedRun {
            observed_time: play.observed_times[0],
            started_at: start,
            elapsed: play.elapsed,
        }
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        // Cost-free measurement: the load factor at the observation instant applies,
        // preemptions do not (nothing is charged, nothing restarts).
        let inner = self.inner.observe_single_at(spec, start, salt);
        let load = self.timeline.load_factor(start.as_seconds());
        inner * self.observed_factor(load, spec.sensitivity())
    }

    fn commit(&mut self, play: &GamePlay) {
        self.charge_serial(play.start, play.elapsed);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        if plays.is_empty() {
            return;
        }
        let elapsed: Vec<f64> = plays.iter().map(|p| p.elapsed).collect();
        self.cost.charge_parallel(self.inner.vm(), &elapsed);
        let max_elapsed = elapsed.iter().copied().fold(0.0_f64, f64::max);
        self.clock += max_elapsed;
        for play in plays {
            self.bill(play.start, play.elapsed);
        }
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        let speed = if self.spec.fleet.is_empty() {
            self.speed
        } else {
            // Fork ordinals walk the fleet round-robin; speeds are relative to the
            // root VM so a fleet of the root's own type is exactly homogeneous.
            self.spec.fleet[self.forks % self.spec.fleet.len()].speed_factor()
                / self.base_vm.speed_factor()
        };
        self.forks += 1;
        let inner = self.inner.fork(seed);
        Box::new(ScenarioBackend::with_speed(
            inner,
            self.spec.clone(),
            seed,
            speed,
            self.base_vm,
        ))
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioEvent;
    use dg_cloudsim::CloudEnvironment;

    const VM: VmType = VmType::M5_8xlarge;

    fn sim(seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            VM,
            InterferenceProfile::typical(),
            seed,
        ))
    }

    fn wrapped(scenario: ScenarioSpec, seed: u64) -> ScenarioBackend {
        ScenarioBackend::new(sim(seed), scenario, seed)
    }

    /// Drives the same operation mix the record/replay unit tests use.
    fn drive(exec: &mut dyn ExecutionBackend) -> (Vec<f64>, f64, f64) {
        let fast = ExecutionSpec::new(100.0, 0.3);
        let slow = ExecutionSpec::new(220.0, 0.9);
        let play = exec.play_game(&[fast, slow], &GameRules::default());
        exec.commit(&play);
        let run = exec.run_single(fast);
        let observations = exec.observe_repeated(slow, 3, 900.0);
        let mut fork = exec.fork(4242);
        let fork_run = fork.run_single(slow);
        let mut times = play.observed_times.clone();
        times.push(run.observed_time);
        times.push(fork_run.observed_time);
        times.extend(observations);
        (times, exec.cost().core_hours(), exec.clock().as_seconds())
    }

    #[test]
    fn steady_scenario_is_bit_identical_to_the_bare_backend() {
        let mut bare = CloudEnvironment::new(VM, InterferenceProfile::typical(), 9);
        let mut steady = wrapped(ScenarioSpec::steady(), 9);
        let (bare_times, bare_hours, bare_clock) = drive(&mut bare);
        let (times, hours, clock) = drive(&mut steady);
        assert_eq!(
            bare_times.iter().map(|t| t.to_bits()).collect::<Vec<u64>>(),
            times.iter().map(|t| t.to_bits()).collect::<Vec<u64>>(),
        );
        assert_eq!(bare_hours.to_bits(), hours.to_bits());
        assert_eq!(bare_clock.to_bits(), clock.to_bits());
    }

    #[test]
    fn wrapping_a_moved_clock_starts_the_scenario_there() {
        let mut inner = sim(13);
        inner.set_clock(SimTime::from_seconds(10_000.0));
        let mut exec = ScenarioBackend::new(inner, ScenarioSpec::steady(), 13);
        assert_eq!(exec.clock().as_seconds(), 10_000.0);
        let specs = [
            ExecutionSpec::new(100.0, 0.3),
            ExecutionSpec::new(220.0, 0.9),
        ];
        let first = exec.play_game(&specs, &GameRules::default());
        exec.commit(&first);
        assert_eq!(first.start.as_seconds(), 10_000.0);
        let after_first = exec.clock().as_seconds();
        assert_eq!(after_first, 10_000.0 + first.elapsed);
        let second = exec.play_game(&specs, &GameRules::default());
        exec.commit(&second);
        assert_eq!(second.start.as_seconds(), after_first);
        assert_eq!(exec.clock().as_seconds(), after_first + second.elapsed);
    }

    #[test]
    #[should_panic(expected = "cannot run an operation that starts at")]
    fn overlapping_storms_cannot_push_the_engine_past_its_clock() {
        // 48 storms of factor 100 open one second apart and each lasts 10^6 s, so from
        // t = 47 s on the load is 100^48: the second game's elapsed time carries the
        // clock to about 10^98 s, where the engine's next breakpoint no longer advances.
        let mut scenario = ScenarioSpec::new("storm-pileup");
        scenario.events.push(ScenarioEvent::StormFront {
            start: 0.0,
            period: 1.0,
            chance: 1.0,
            duration: 1e6,
            factor: 100.0,
            windows: 48,
        });
        let mut exec = wrapped(scenario, 5);
        let fast = ExecutionSpec::new(100.0, 0.3);
        for _ in 0..3 {
            let play = exec.play_game(&[fast, fast], &GameRules::default());
            exec.commit(&play);
        }
    }

    #[test]
    fn load_shift_scales_observations_and_cost() {
        let mut scenario = ScenarioSpec::new("double");
        scenario.events.push(ScenarioEvent::LoadShift {
            at: 0.0,
            factor: 2.0,
        });
        let mut shifted = wrapped(scenario, 5);
        let mut bare = CloudEnvironment::new(VM, InterferenceProfile::typical(), 5);
        let spec = ExecutionSpec::new(100.0, 0.4);
        let a = shifted.run_single(spec);
        let b = ExecutionBackend::run_single(&mut bare, spec);
        assert_eq!(a.observed_time.to_bits(), (b.observed_time * 2.0).to_bits());
        assert_eq!(a.elapsed.to_bits(), (b.elapsed * 2.0).to_bits());
        assert_eq!(
            shifted.cost().core_hours().to_bits(),
            (bare.cost().core_hours() * 2.0).to_bits()
        );
    }

    #[test]
    fn games_keep_their_scores_under_uniform_slowdown() {
        let mut scenario = ScenarioSpec::new("stormy");
        scenario.events.push(ScenarioEvent::Storm {
            at: 0.0,
            duration: 1e9,
            factor: 1.5,
        });
        let mut stormy = wrapped(scenario, 6);
        let mut bare = CloudEnvironment::new(VM, InterferenceProfile::typical(), 6);
        let specs = [
            ExecutionSpec::new(120.0, 0.8),
            ExecutionSpec::new(150.0, 0.2),
        ];
        let a = stormy.play_game(&specs, &GameRules::default());
        let b = bare.play_game(&specs, &GameRules::default());
        assert_eq!(a.execution_scores, b.execution_scores);
        assert_eq!(a.early_terminated, b.early_terminated);
        assert_eq!(
            a.observed_times[0].to_bits(),
            (b.observed_times[0] * 1.5).to_bits()
        );
    }

    #[test]
    fn preemption_inside_a_run_adds_lost_work_and_downtime() {
        let mut scenario = ScenarioSpec::new("spot");
        scenario.events.push(ScenarioEvent::Preemption {
            at: 50.0,
            downtime: 30.0,
        });
        let mut spot = wrapped(scenario, 7);
        let mut bare = CloudEnvironment::new(VM, InterferenceProfile::typical(), 7);
        let spec = ExecutionSpec::new(100.0, 0.2);
        let a = spot.run_single(spec);
        let b = ExecutionBackend::run_single(&mut bare, spec);
        // The run starts at 0, is struck at 50 (losing 50 s of work), waits out 30 s of
        // downtime, then reruns to completion.
        assert!((a.elapsed - (50.0 + 30.0 + b.elapsed)).abs() < 1e-9);
        assert_eq!(
            a.observed_time.to_bits(),
            b.observed_time.to_bits(),
            "the surviving run's observation is unchanged"
        );
        assert_eq!(spot.clock().as_seconds(), a.elapsed);
    }

    #[test]
    fn idle_crossed_preemptions_are_skipped() {
        let mut scenario = ScenarioSpec::new("spot-idle");
        scenario.events.push(ScenarioEvent::Preemption {
            at: 10.0,
            downtime: 1e6,
        });
        let mut spot = wrapped(scenario, 8);
        spot.set_clock(SimTime::from_seconds(1_000.0));
        let spec = ExecutionSpec::new(100.0, 0.2);
        let run = spot.run_single(spec);
        assert!(
            run.elapsed < 1_000.0,
            "a preemption that fired while idle must not delay later work"
        );
    }

    #[test]
    fn price_changes_feed_the_dollar_meter() {
        let mut scenario = ScenarioSpec::new("spot-market");
        scenario.events.push(ScenarioEvent::PriceChange {
            at: 0.0,
            factor: 0.5,
        });
        let mut cheap = wrapped(scenario, 9);
        let mut full = wrapped(ScenarioSpec::new("on-demand"), 9);
        let spec = ExecutionSpec::new(100.0, 0.2);
        let a = cheap.run_single(spec);
        let b = full.run_single(spec);
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
        assert!((cheap.billed_dollars() - full.billed_dollars() * 0.5).abs() < 1e-12);
        assert!(
            (full.billed_dollars() - full.cost().dollar_cost(VM)).abs() < 1e-12,
            "without price events the meter matches the tracker's on-demand cost"
        );
    }

    #[test]
    fn hetero_fleet_slows_and_speeds_forks_round_robin() {
        let mut scenario = ScenarioSpec::new("fleet");
        scenario.fleet = vec![VmType::M5Large, VmType::M5_8xlarge];
        let mut fleet = wrapped(scenario, 10);
        // The root itself runs at its own VM's speed.
        let spec = ExecutionSpec::new(100.0, 0.2);
        assert_eq!(
            fleet.run_single(spec).observed_time.to_bits(),
            sim(10).run_single(spec).observed_time.to_bits()
        );
        let mut slow_fork = fleet.fork(1);
        let mut native_fork = fleet.fork(1);
        let slow = slow_fork.run_single(spec);
        let native = native_fork.run_single(spec);
        let ratio = VmType::M5Large.speed_factor() / VM.speed_factor();
        assert_eq!(
            slow.observed_time.to_bits(),
            (native.observed_time * ratio).to_bits(),
            "fork 0 runs at m5.large speed, fork 1 at the root's own speed"
        );
    }

    #[test]
    fn batched_games_are_bit_identical_to_the_per_game_loop() {
        // Rich timelines (shift + storm + diurnal + preemptions), with and without
        // load coupling: the batch path must reproduce the sequential play_game loop
        // bit for bit, including stateful preemption consumption and the shared clock.
        let mut eventful = ScenarioSpec::new("eventful");
        eventful.events = vec![
            ScenarioEvent::LoadShift {
                at: 40.0,
                factor: 1.7,
            },
            ScenarioEvent::Storm {
                at: 10.0,
                duration: 120.0,
                factor: 1.4,
            },
            ScenarioEvent::Diurnal {
                period: 300.0,
                amplitude: 0.6,
                phase: 0.2,
            },
            ScenarioEvent::Preemptions {
                start: 0.0,
                mean_interval: 90.0,
                downtime: 12.0,
                count: 12,
            },
        ];
        let mut coupled = eventful.clone();
        coupled.name = "eventful-coupled".into();
        coupled.load_coupling = 0.8;

        for scenario in [eventful, coupled] {
            let mut looped = wrapped(scenario.clone(), 21);
            let mut batched = wrapped(scenario, 21);
            let spec_sets: [&[ExecutionSpec]; 3] = [
                &[
                    ExecutionSpec::new(100.0, 0.3),
                    ExecutionSpec::new(160.0, 0.9),
                ],
                &[ExecutionSpec::new(80.0, 0.12)],
                &[
                    ExecutionSpec::new(140.0, 1.1),
                    ExecutionSpec::new(90.0, 0.5),
                    ExecutionSpec::new(120.0, 0.7),
                ],
            ];
            let rules = GameRules::default();
            for round in 0..3 {
                let expected: Vec<GamePlay> = spec_sets
                    .iter()
                    .map(|specs| looped.play_game(specs, &rules))
                    .collect();
                let items: Vec<GameBatchItem<'_>> = spec_sets
                    .iter()
                    .map(|specs| GameBatchItem { specs })
                    .collect();
                let got = batched.play_games_batch(&items, &rules);
                for (a, b) in expected.iter().zip(&got) {
                    assert_eq!(
                        a.start.as_seconds().to_bits(),
                        b.start.as_seconds().to_bits()
                    );
                    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "round {round}");
                    assert_eq!(
                        a.observed_times
                            .iter()
                            .map(|t| t.to_bits())
                            .collect::<Vec<_>>(),
                        b.observed_times
                            .iter()
                            .map(|t| t.to_bits())
                            .collect::<Vec<_>>(),
                    );
                    assert_eq!(a.execution_scores, b.execution_scores);
                    assert_eq!(a.early_terminated, b.early_terminated);
                }
                // Commit the round on both sides so later batches start mid-timeline.
                looped.commit_parallel(&expected);
                batched.commit_parallel(&got);
            }
            assert_eq!(
                looped.clock().as_seconds().to_bits(),
                batched.clock().as_seconds().to_bits()
            );
            assert_eq!(
                looped.billed_dollars().to_bits(),
                batched.billed_dollars().to_bits()
            );
        }
    }
}
