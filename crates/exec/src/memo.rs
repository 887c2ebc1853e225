//! A composable memoizing backend for solo-evaluation-heavy tuners.

use crate::backend::ExecutionBackend;
use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};
use std::collections::HashMap;

/// Bitwise cache key of an [`ExecutionSpec`].
fn spec_key(spec: &ExecutionSpec) -> (u64, u64) {
    (spec.base_time().to_bits(), spec.sensitivity().to_bits())
}

/// Process-wide mirrors of the per-instance hit/miss counts, so a
/// [`MetricsSnapshot`](dg_obs::MetricsSnapshot) sees memoization across every
/// backend instance without holding any of them.
fn memo_counters() -> &'static (dg_obs::Counter, dg_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(dg_obs::Counter, dg_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dg_obs::metrics::counter("exec.memo_hits"),
            dg_obs::metrics::counter("exec.memo_misses"),
        )
    })
}

/// An [`ExecutionBackend`] wrapper that memoizes evaluations, for the
/// exhaustive/oracle/grid-heavy paths that ask the environment about the same
/// configuration over and over.
///
/// Two caches compose here:
///
/// * **Observations** ([`ExecutionBackend::observe_single_at`]) are pure functions of
///   `(spec, start, salt)` on every backend in this crate, so caching them is fully
///   transparent — same results, fewer simulations.
/// * **Solo evaluations** ([`ExecutionBackend::run_single`]) are *not* pure: a live
///   environment observes different interference at different clock times. The solo
///   cache therefore keys on the clock **as well as** the spec (mirroring the
///   observation key): a hit replays the first observation recorded for that exact
///   `(spec, start time)` and charges the same cost/clock advance the original run
///   incurred (through [`ExecutionBackend::commit`], the same code path a live run
///   uses). Because [`run_single`](ExecutionBackend::run_single) itself advances the
///   clock, the default key makes repeat evaluations at *later* times miss — which is
///   exactly right under a load-varying environment (e.g. a `ScenarioBackend` mid
///   regime shift), where replaying a time from a stale load regime would be wrong.
///   Callers that knowingly run against a stationary environment and want the old
///   aggressive behaviour opt in with [`assuming_stationary`](Self::assuming_stationary),
///   which drops the clock from the key — the approximation surrogate-assisted tuners
///   make when they substitute a cheap model for true fitness evaluation.
///
/// Games are never memoized (their outcomes depend on the full player set and the
/// clock) and always reach the inner backend. Forked sub-environments get their own
/// empty caches, because a fork is a different noise realisation.
pub struct MemoBackend {
    inner: Box<dyn ExecutionBackend>,
    /// When set, the solo key's clock component is pinned to zero: repeat evaluations
    /// of a spec hit regardless of when they run.
    stationary: bool,
    solo: HashMap<(u64, u64, u64), (f64, f64)>,
    observations: HashMap<(u64, u64, u64, u64), f64>,
    hits: u64,
    misses: u64,
}

impl MemoBackend {
    /// Wraps `inner` with empty caches. Solo evaluations are keyed by the clock as
    /// well as the spec, so the cache stays correct under time-varying environments.
    pub fn new(inner: Box<dyn ExecutionBackend>) -> Self {
        Self::with_stationary(inner, false)
    }

    /// Wraps `inner` with empty caches, *assuming the environment is stationary*:
    /// solo evaluations are keyed by the spec alone, so a configuration's first
    /// observation answers every repeat no matter the clock. Do not compose this
    /// with load-varying wrappers such as a non-steady `ScenarioBackend` — a hit
    /// would replay a time from a different load regime.
    pub fn assuming_stationary(inner: Box<dyn ExecutionBackend>) -> Self {
        Self::with_stationary(inner, true)
    }

    fn with_stationary(inner: Box<dyn ExecutionBackend>, stationary: bool) -> Self {
        Self {
            inner,
            stationary,
            solo: HashMap::new(),
            observations: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether solo hits ignore the clock (see [`assuming_stationary`](Self::assuming_stationary)).
    pub fn is_stationary(&self) -> bool {
        self.stationary
    }

    /// Number of requests answered from the caches.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of requests that reached the inner backend.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Unwraps the memoizer, discarding the caches.
    pub fn into_inner(self) -> Box<dyn ExecutionBackend> {
        self.inner
    }

    /// The solo cache key: spec bits plus the clock component (pinned to zero under
    /// the stationary assumption).
    fn solo_key(&self, spec: &ExecutionSpec) -> (u64, u64, u64) {
        let (b, s) = spec_key(spec);
        let clock = if self.stationary {
            0
        } else {
            self.inner.clock().as_seconds().to_bits()
        };
        (b, s, clock)
    }
}

impl ExecutionBackend for MemoBackend {
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
        self.inner.clock()
    }

    fn set_clock(&mut self, t: SimTime) {
        self.inner.set_clock(t);
    }

    fn cost(&self) -> &CostTracker {
        self.inner.cost()
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        self.inner.play_game(specs, rules)
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let key = self.solo_key(&spec);
        if let Some(&(observed_time, elapsed)) = self.solo.get(&key) {
            self.hits += 1;
            memo_counters().0.increment();
            let started_at = self.inner.clock();
            // Charge exactly what the original run cost, through the same commit path
            // a live evaluation uses, so budgets and clocks keep advancing.
            self.inner.commit(&GamePlay {
                start: started_at,
                elapsed,
                observed_times: vec![observed_time],
                execution_scores: vec![1.0],
                early_terminated: false,
            });
            return ObservedRun {
                observed_time,
                started_at,
                elapsed,
            };
        }
        self.misses += 1;
        memo_counters().1.increment();
        let run = self.inner.run_single(spec);
        self.solo.insert(key, (run.observed_time, run.elapsed));
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let (b, s) = spec_key(&spec);
        let key = (b, s, start.as_seconds().to_bits(), salt);
        if let Some(&time) = self.observations.get(&key) {
            self.hits += 1;
            memo_counters().0.increment();
            return time;
        }
        self.misses += 1;
        memo_counters().1.increment();
        let time = self.inner.observe_single_at(spec, start, salt);
        self.observations.insert(key, time);
        time
    }

    fn commit(&mut self, play: &GamePlay) {
        self.inner.commit(play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        self.inner.commit_parallel(plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(MemoBackend::with_stationary(
            self.inner.fork(seed),
            self.stationary,
        ))
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::CloudEnvironment;

    fn sim(seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            VmType::M5_8xlarge,
            InterferenceProfile::typical(),
            seed,
        ))
    }

    #[test]
    fn solo_cache_keys_on_the_clock_by_default() {
        let mut exec = MemoBackend::new(sim(1));
        let spec = ExecutionSpec::new(100.0, 0.8);
        let _ = exec.run_single(spec);
        // `run_single` advanced the clock, so the repeat is a *different* start time:
        // a correct memoizer must re-evaluate, not replay the stale observation.
        let _ = exec.run_single(spec);
        assert_eq!(exec.hits(), 0);
        assert_eq!(exec.misses(), 2);
    }

    #[test]
    fn stationary_memo_hits_across_the_clock_and_still_charges() {
        let mut exec = MemoBackend::assuming_stationary(sim(1));
        assert!(exec.is_stationary());
        let spec = ExecutionSpec::new(100.0, 0.8);
        let first = exec.run_single(spec);
        let cost_after_first = exec.cost().core_hours();
        let second = exec.run_single(spec);
        assert_eq!(exec.hits(), 1);
        assert_eq!(exec.misses(), 1);
        assert_eq!(
            first.observed_time.to_bits(),
            second.observed_time.to_bits()
        );
        // The hit charges the same cost again and keeps the clock moving.
        assert!((exec.cost().core_hours() - 2.0 * cost_after_first).abs() < 1e-12);
        assert_eq!(second.started_at.as_seconds(), first.elapsed);
    }

    #[test]
    fn observations_are_transparently_cached() {
        let mut exec = MemoBackend::new(sim(2));
        let spec = ExecutionSpec::new(150.0, 0.5);
        let a = exec.observe_single_at(spec, SimTime::from_seconds(1000.0), 3);
        let b = exec.observe_single_at(spec, SimTime::from_seconds(1000.0), 3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(exec.hits(), 1);
        // A different salt is a different observation.
        let c = exec.observe_single_at(spec, SimTime::from_seconds(1000.0), 4);
        assert_ne!(a.to_bits(), c.to_bits());
        assert_eq!(exec.misses(), 2);
        assert_eq!(exec.cost().core_hours(), 0.0);
    }

    #[test]
    fn games_and_forks_bypass_the_cache() {
        let mut exec = MemoBackend::assuming_stationary(sim(3));
        let specs = [ExecutionSpec::new(80.0, 0.2), ExecutionSpec::new(90.0, 0.9)];
        let play_a = exec.play_game(&specs, &GameRules::default());
        let play_b = exec.play_game(&specs, &GameRules::default());
        // Same clock, same specs, but fresh per-game jitter: games are live.
        assert_ne!(
            play_a.observed_times[0].to_bits(),
            play_b.observed_times[0].to_bits()
        );
        assert_eq!(exec.hits(), 0);

        let mut fork = exec.fork(99);
        let spec = ExecutionSpec::new(80.0, 0.2);
        let _ = exec.run_single(spec);
        // The fork's cache is independent: first evaluation there is a miss.
        let _ = fork.run_single(spec);
        assert_eq!(exec.hits(), 0);
    }
}
