//! [`ScenarioBackend`]: applies a scenario's timeline over any inner execution backend.

use crate::spec::ScenarioSpec;
use crate::timeline::Timeline;
use dg_cloudsim::{CostTracker, ExecutionSpec, InterferenceProfile, ObservedRun, SimTime, VmType};
use dg_exec::{BackendProvider, ExecutionBackend, GameBatchItem, GamePlay, GameRules};
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
/// * the ambient **load factor** ([`Timeline::load_factor`], sampled at each
///   operation's start) multiplies observed times and elapsed time — co-tenant
///   arrivals/departures, slowdown storms, diurnal curves, and mid-run regime
///   escalation all act through it;
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
    /// the backend's identity).
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
        Self {
            inner,
            spec: scenario,
            timeline,
            next_preemption: 0,
            clock: SimTime::ZERO,
            cost: CostTracker::new(),
            billed_dollars: 0.0,
            speed,
            base_vm,
            forks: 0,
        }
    }

    /// The scenario being applied.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The expanded timeline realisation of this backend.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// This node's relative hardware speed (`1.0` unless a fleet scenario assigned a
    /// different machine to this fork).
    pub fn relative_speed(&self) -> f64 {
        self.speed
    }

    /// Dollars billed for the committed core-hours so far: each committed wall-clock
    /// second costs the VM's on-demand hourly price times the scenario's price factor
    /// at the moment the operation started — the spot-market meter `PriceChange`
    /// events feed. Without price events this equals
    /// `CostTracker::dollar_cost(self.vm())` for serially-committed work.
    pub fn billed_dollars(&self) -> f64 {
        self.billed_dollars
    }

    /// The scenario-relative slowdown factor for an operation starting at `t`.
    fn factor_at(&self, t: SimTime) -> f64 {
        self.speed * self.timeline.load_factor(t.as_seconds())
    }

    /// The scenario-scaled span of a base span of `base` seconds starting at `start`.
    ///
    /// By default the load factor is sampled once at `start` and held for the whole
    /// span — stale for long operations that straddle a shift or storm edge. When the
    /// scenario opts in via [`ScenarioSpec::with_integrated_load`], the factor is
    /// instead integrated piecewise over the occupied window
    /// `[start, start + speed * base)`, charging each load level only for the
    /// wall-clock actually spent under it. The default path computes the exact
    /// product the pre-flag code did, so existing goldens and fingerprints stay
    /// byte-identical.
    fn scaled_span(&self, start: SimTime, base: f64) -> f64 {
        if self.spec.integrate_load {
            let s = start.as_seconds();
            self.timeline.integrate_load(s, s + self.speed * base)
        } else {
            self.factor_at(start) * base
        }
    }

    /// [`scaled_span`](Self::scaled_span) for one player's observed time, honouring
    /// [`ScenarioSpec::load_coupling`]: under coupling `c` the timeline's load level
    /// `L` is felt as `L^((1 - c) + c * s / 0.6)` by a spec with interference
    /// sensitivity `s` — fragile configurations amplify a storm, robust ones shrug it
    /// off, and `s = 0.6` feels exactly the nominal factor. Hardware speed stays a
    /// uniform multiplier (a slower machine slows everything equally). With coupling
    /// off this *is* `scaled_span`, taken through the identical arithmetic so existing
    /// goldens stay byte-identical.
    fn scaled_span_for(&self, start: SimTime, base: f64, sensitivity: f64) -> f64 {
        let c = self.spec.load_coupling;
        if c == 0.0 {
            return self.scaled_span(start, base);
        }
        let load = if self.spec.integrate_load {
            let s = start.as_seconds();
            let span = self.speed * base;
            if span > 0.0 {
                self.timeline.integrate_load(s, s + span) / span
            } else {
                self.timeline.load_factor(s)
            }
        } else {
            self.timeline.load_factor(start.as_seconds())
        };
        let exponent = (1.0 - c) + c * sensitivity / REFERENCE_SENSITIVITY;
        self.speed * load.powf(exponent) * base
    }

    /// Moves the inner backend's clock forward to the scenario clock so inner noise
    /// processes are sampled at scenario time. The inner clock never advances on its
    /// own (commits are not delegated), so it can only lag, never lead.
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
    /// to one inner play: scale each observation by the (possibly coupled) load, scale
    /// the wall-clock, then let preemptions strike it. `load` is a batch-hoisted
    /// `Timeline::load_factor(play.start)` — valid only for sampled-at-start scenarios
    /// and only when the play really starts at the hoisted instant; `None` recomputes
    /// per call. Either way the arithmetic is the exact expression the unhoisted path
    /// evaluates, so hoisting is bit-invisible.
    // `a = factor * a` rather than `a *= factor`: the assignments keep the exact
    // operand order of `scaled_span`/`scaled_span_for`, which is what makes the
    // hoisted path's bit-identity self-evident.
    #[allow(clippy::assign_op_pattern)]
    fn apply_scenario_to_play(
        &mut self,
        play: &mut GamePlay,
        specs: &[ExecutionSpec],
        load: Option<f64>,
    ) {
        let start = play.start;
        match load {
            Some(lf) => {
                let c = self.spec.load_coupling;
                if c == 0.0 {
                    for time in play.observed_times.iter_mut() {
                        *time = self.speed * lf * *time;
                    }
                } else {
                    for (time, spec) in play.observed_times.iter_mut().zip(specs) {
                        let exponent = (1.0 - c) + c * spec.sensitivity() / REFERENCE_SENSITIVITY;
                        *time = self.speed * lf.powf(exponent) * *time;
                    }
                }
                let scaled_elapsed = self.speed * lf * play.elapsed;
                play.elapsed = self.preempted_span(start, scaled_elapsed);
            }
            None => {
                for (time, spec) in play.observed_times.iter_mut().zip(specs) {
                    *time = self.scaled_span_for(start, *time, spec.sensitivity());
                }
                let scaled_elapsed = self.scaled_span(start, play.elapsed);
                play.elapsed = self.preempted_span(start, scaled_elapsed);
            }
        }
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
        self.apply_scenario_to_play(&mut play, specs, None);
        play
    }

    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        self.sync_inner_clock();
        let mut plays = self.inner.play_games_batch(games, rules);
        // Uncommitted games never advance the clock, so every play in the batch starts
        // at the same instant and one load-factor lookup serves them all — unless the
        // scenario integrates load over each span (spans differ per play) or an exotic
        // inner backend moved its clock mid-batch (guarded by the start check below).
        let hoisted = if self.spec.integrate_load {
            None
        } else {
            plays
                .first()
                .map(|p| (p.start, self.timeline.load_factor(p.start.as_seconds())))
        };
        for (play, game) in plays.iter_mut().zip(games) {
            let load = match hoisted {
                Some((t, lf)) if t.as_seconds().to_bits() == play.start.as_seconds().to_bits() => {
                    Some(lf)
                }
                _ => None,
            };
            // Preemptions are consumed in play order, exactly as the per-game loop
            // would consume them.
            self.apply_scenario_to_play(play, game.specs, load);
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
        self.scaled_span_for(start, inner, spec.sensitivity())
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

/// A [`BackendProvider`] that applies one scenario to every stream of an inner
/// provider: the factory-side composition point, mirroring how `TraceRecorder` wraps a
/// provider. Campaign cells with per-cell scenarios wrap backends directly instead.
pub struct ScenarioProvider {
    inner: Box<dyn BackendProvider>,
    scenario: ScenarioSpec,
}

impl ScenarioProvider {
    /// Applies `scenario` over every backend `inner` creates.
    pub fn new(inner: Box<dyn BackendProvider>, scenario: ScenarioSpec) -> Self {
        scenario.validate();
        Self { inner, scenario }
    }

    /// The scenario being applied.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.scenario
    }
}

impl BackendProvider for ScenarioProvider {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        let effective = self.scenario.profile.as_ref().unwrap_or(profile);
        let inner = self.inner.backend(stream, vm, effective, seed);
        if self.scenario.is_passthrough() {
            inner
        } else {
            Box::new(ScenarioBackend::new(inner, self.scenario.clone(), seed))
        }
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
    fn integrated_load_charges_each_level_for_its_own_span() {
        // A 100 s operation straddles a 2x load shift at t = 50. The stale
        // sampled-at-start factor charges the whole op at the pre-shift level; the
        // opt-in piecewise integration charges 50 s at 1.0 plus the remaining 50 s of
        // base work at 2.0 = 150 s.
        let shift = ScenarioEvent::LoadShift {
            at: 50.0,
            factor: 2.0,
        };
        // Sensitivity 0 makes the inner observation exactly the base time, so the
        // scenario arithmetic is checked without interference noise in the way.
        let spec = ExecutionSpec::new(100.0, 0.0);

        let mut integrated_spec = ScenarioSpec::new("ramp").with_integrated_load();
        integrated_spec.events.push(shift.clone());
        let mut integrated = wrapped(integrated_spec, 11);
        let mut stale_spec = ScenarioSpec::new("ramp-stale");
        stale_spec.events.push(shift);
        let mut stale = wrapped(stale_spec, 11);

        // Both backends share a seed, so the inner (pre-scenario) observation x is
        // identical; only measurement jitter keeps it from being exactly the 100 s
        // base. The stale factor (sampled at t = 0, before the shift) reports x; the
        // integrated window [0, x) charges 50 s at 1.0 plus the rest at 2.0 = 2x - 50.
        let probe = integrated.observe_single_at(spec, SimTime::ZERO, 0);
        let old = stale.observe_single_at(spec, SimTime::ZERO, 0);
        assert!(
            (old - 100.0).abs() < 6.0,
            "jitter stays within +/-5%: {old}"
        );
        assert!(
            (probe - (2.0 * old - 50.0)).abs() < 1e-9,
            "integrated {probe} vs stale {old}"
        );
        // An observation starting after the shift sits entirely at the new level, so
        // the two treatments agree there.
        let t50 = SimTime::from_seconds(50.0);
        let after = integrated.observe_single_at(spec, t50, 0);
        let after_stale = stale.observe_single_at(spec, t50, 0);
        assert!(
            (after - after_stale).abs() < 1e-9,
            "integrated {after} vs stale {after_stale}"
        );
        assert!(
            after > 1.9 * old,
            "post-shift probes run at the doubled level"
        );

        // Full runs go through the simulator's tick loop, so compare the two
        // scenario treatments of the *same* inner outcome: for a window [0, x)
        // straddling the t = 50 shift, the integral is 2x - 50 where the stale
        // product is x.
        let a = integrated.run_single(spec);
        let b = stale.run_single(spec);
        assert!(
            (a.observed_time - (2.0 * b.observed_time - 50.0)).abs() < 1e-9,
            "integrated {a:?} vs stale {b:?}"
        );
        assert!(
            (a.elapsed - (2.0 * b.elapsed - 50.0)).abs() < 1e-9,
            "integrated {a:?} vs stale {b:?}"
        );
    }

    #[test]
    fn integrated_steady_scenario_stays_exact() {
        // With a constant load factor the integral is factor x base exactly, so the
        // opt-in flag changes nothing on scenarios without mid-span structure.
        let mut flagged = wrapped(ScenarioSpec::new("flat").with_integrated_load(), 9);
        let mut plain = wrapped(ScenarioSpec::new("flat"), 9);
        let spec = ExecutionSpec::new(100.0, 0.4);
        let a = flagged.run_single(spec);
        let b = plain.run_single(spec);
        assert_eq!(a.observed_time.to_bits(), b.observed_time.to_bits());
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
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
        assert_eq!(fleet.relative_speed(), 1.0);
        let mut slow_fork = fleet.fork(1);
        let mut native_fork = fleet.fork(1);
        let spec = ExecutionSpec::new(100.0, 0.2);
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
        // load coupling and integrated load: the hoisted batch path must reproduce the
        // sequential play_game loop bit for bit, including stateful preemption
        // consumption and the shared clock.
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
        let mut integrated = eventful.clone().with_integrated_load();
        integrated.name = "eventful-integrated".into();

        for scenario in [eventful, coupled, integrated] {
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

    #[test]
    fn provider_applies_profile_override_and_skips_passthrough_wrapping() {
        let provider = ScenarioProvider::new(
            Box::new(dg_exec::SimProvider),
            ScenarioSpec::by_name("noisy-cheap").expect("pack scenario"),
        );
        let backend = provider.backend("s", VM, &InterferenceProfile::typical(), 1);
        assert_eq!(
            backend.profile(),
            &InterferenceProfile::Heavy,
            "the scenario's profile override must win"
        );

        let steady = ScenarioProvider::new(Box::new(dg_exec::SimProvider), ScenarioSpec::steady());
        let mut a = steady.backend("s", VM, &InterferenceProfile::typical(), 2);
        let mut b = dg_exec::SimProvider.backend("s", VM, &InterferenceProfile::typical(), 2);
        let spec = ExecutionSpec::new(100.0, 0.4);
        assert_eq!(
            a.run_single(spec).observed_time.to_bits(),
            b.run_single(spec).observed_time.to_bits()
        );
    }
}
