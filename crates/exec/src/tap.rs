//! Observation tap: a transparent decorator that logs every observed execution time
//! crossing the backend seam.
//!
//! Online serving loops ([`dg-serve`]'s drift monitor in particular) need to watch the
//! times a deployment produces *without* owning the backend or changing its numbers.
//! [`TapBackend`] wraps any [`ExecutionBackend`], forwards every call verbatim, and
//! appends each observed time to a shared [`ObservationTap`] the caller holds on to.
//! Because the tap never perturbs delegation — no clock movement, no extra charges, no
//! reordering — a tapped backend is bit-identical to the bare one in every output.
//!
//! [`dg-serve`]: https://docs.rs/dg-serve

use crate::backend::{BackendProvider, ExecutionBackend};
use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};
use std::sync::{Arc, Mutex};

/// Which backend operation produced a tapped observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapSource {
    /// A player's observed time from a co-located game ([`ExecutionBackend::play_game`]).
    Game,
    /// A committed solo evaluation ([`ExecutionBackend::run_single`]).
    Single,
    /// A cost-free probe ([`ExecutionBackend::observe_single_at`]).
    Probe,
}

/// One observed execution time that crossed the backend seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapEvent {
    /// The operation that produced the observation.
    pub source: TapSource,
    /// Simulated start time of the operation, in seconds.
    pub start: f64,
    /// The observed execution time, in seconds.
    pub observed_time: f64,
}

/// A shared, thread-safe sink of [`TapEvent`]s.
///
/// Clones share the same underlying buffer, so the caller keeps one clone and gives
/// another to [`TapBackend`]; forked sub-backends keep feeding the same tap.
#[derive(Debug, Clone, Default)]
pub struct ObservationTap {
    events: Arc<Mutex<Vec<TapEvent>>>,
}

impl ObservationTap {
    /// Creates an empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns every event recorded since the last drain, oldest first.
    pub fn drain(&self) -> Vec<TapEvent> {
        std::mem::take(&mut *self.events.lock().expect("tap lock"))
    }

    /// Number of undrained events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("tap lock").len()
    }

    /// True when no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, source: TapSource, start: SimTime, observed_time: f64) {
        self.events.lock().expect("tap lock").push(TapEvent {
            source,
            start: start.as_seconds(),
            observed_time,
        });
    }
}

/// An [`ExecutionBackend`] decorator that reports every observed time to an
/// [`ObservationTap`] while forwarding all behaviour — clock, cost, noise, forks —
/// unchanged to the inner backend.
pub struct TapBackend {
    inner: Box<dyn ExecutionBackend>,
    tap: ObservationTap,
}

impl TapBackend {
    /// Taps `inner`, reporting observations to (a clone of) `tap`.
    pub fn new(inner: Box<dyn ExecutionBackend>, tap: ObservationTap) -> Self {
        Self { inner, tap }
    }

    /// The tap this backend reports to.
    pub fn tap(&self) -> &ObservationTap {
        &self.tap
    }
}

impl std::fmt::Debug for TapBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapBackend")
            .field("undrained", &self.tap.len())
            .finish()
    }
}

impl ExecutionBackend for TapBackend {
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

    fn players_per_game(&self) -> usize {
        self.inner.players_per_game()
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        let play = self.inner.play_game(specs, rules);
        for time in &play.observed_times {
            self.tap.record(TapSource::Game, play.start, *time);
        }
        play
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let run = self.inner.run_single(spec);
        self.tap
            .record(TapSource::Single, run.started_at, run.observed_time);
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let observed = self.inner.observe_single_at(spec, start, salt);
        self.tap.record(TapSource::Probe, start, observed);
        observed
    }

    fn commit(&mut self, play: &GamePlay) {
        self.inner.commit(play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        self.inner.commit_parallel(plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        // Forked sub-environments keep feeding the same tap, so a serving loop that
        // hands regions to a mini-tournament still sees every observation.
        Box::new(TapBackend::new(self.inner.fork(seed), self.tap.clone()))
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

/// A [`BackendProvider`] whose backends all report to one shared tap.
pub struct TapProvider {
    inner: Box<dyn BackendProvider>,
    tap: ObservationTap,
}

impl TapProvider {
    /// Taps every backend `inner` creates.
    pub fn new(inner: Box<dyn BackendProvider>, tap: ObservationTap) -> Self {
        Self { inner, tap }
    }

    /// The shared tap.
    pub fn tap(&self) -> &ObservationTap {
        &self.tap
    }
}

impl BackendProvider for TapProvider {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(TapBackend::new(
            self.inner.backend(stream, vm, profile, seed),
            self.tap.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::CloudEnvironment;

    const VM: VmType = VmType::M5_8xlarge;

    fn tapped(seed: u64) -> (TapBackend, ObservationTap) {
        let tap = ObservationTap::new();
        let inner = Box::new(CloudEnvironment::new(
            VM,
            InterferenceProfile::typical(),
            seed,
        ));
        (TapBackend::new(inner, tap.clone()), tap)
    }

    #[test]
    fn tapped_backend_is_bit_identical_to_bare() {
        let mut bare = CloudEnvironment::new(VM, InterferenceProfile::typical(), 3);
        let (mut tapped, _tap) = tapped(3);
        let specs = [
            ExecutionSpec::new(100.0, 0.3),
            ExecutionSpec::new(150.0, 0.8),
        ];
        let a = ExecutionBackend::play_game(&mut bare, &specs, &GameRules::default());
        let b = tapped.play_game(&specs, &GameRules::default());
        assert_eq!(a, b);
        bare.commit(&a);
        tapped.commit(&b);
        let ra = ExecutionBackend::run_single(&mut bare, specs[0]);
        let rb = tapped.run_single(specs[0]);
        assert_eq!(ra.observed_time.to_bits(), rb.observed_time.to_bits());
    }

    #[test]
    fn every_observed_time_is_tapped_in_order() {
        let (mut backend, tap) = tapped(4);
        let specs = [
            ExecutionSpec::new(100.0, 0.3),
            ExecutionSpec::new(150.0, 0.8),
        ];
        let play = backend.play_game(&specs, &GameRules::default());
        let run = backend.run_single(specs[0]);
        let probe = backend.observe_single_at(specs[1], SimTime::from_seconds(500.0), 7);
        let events = tap.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].source, TapSource::Game);
        assert_eq!(
            events[0].observed_time.to_bits(),
            play.observed_times[0].to_bits()
        );
        assert_eq!(
            events[1].observed_time.to_bits(),
            play.observed_times[1].to_bits()
        );
        assert_eq!(events[2].source, TapSource::Single);
        assert_eq!(
            events[2].observed_time.to_bits(),
            run.observed_time.to_bits()
        );
        assert_eq!(events[3].source, TapSource::Probe);
        assert_eq!(events[3].start, 500.0);
        assert_eq!(events[3].observed_time.to_bits(), probe.to_bits());
        assert!(tap.is_empty(), "drain empties the tap");
    }

    #[test]
    fn forks_share_the_parent_tap() {
        let (mut backend, tap) = tapped(5);
        let mut fork = backend.fork(99);
        fork.run_single(ExecutionSpec::new(80.0, 0.2));
        assert_eq!(tap.len(), 1, "fork observations land in the shared tap");
    }
}
