//! Observability decorator: a transparent backend wrapper emitting a typed
//! [`ObsEvent`] for every operation that crosses the seam.
//!
//! [`ObsBackend`] forwards every call verbatim — clock, cost, noise, forks, failure
//! latching — and emits `game` / `solo` / `probe` events through the global `dg-obs`
//! bus as a side channel. When observability is inactive (the default) each operation
//! pays one relaxed atomic load and constructs nothing, and either way the wrapped
//! backend is bit-identical to the bare one in every output — the differential battery
//! in `tests/obs_backend.rs` pins that over every backend stack in the crate.

use crate::backend::{BackendProvider, ExecutionBackend};
use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};
use dg_obs::{emit_with, obs_active, ObsEvent};

/// An [`ExecutionBackend`] decorator that reports every game, solo evaluation, and
/// probe to the global `dg-obs` event bus while forwarding all behaviour unchanged.
pub struct ObsBackend {
    inner: Box<dyn ExecutionBackend>,
}

impl ObsBackend {
    /// Instruments `inner`. The wrapper has no state of its own — events flow to
    /// whatever sinks are installed process-wide when they occur.
    pub fn new(inner: Box<dyn ExecutionBackend>) -> Self {
        Self { inner }
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> Box<dyn ExecutionBackend> {
        self.inner
    }

    fn emit_game(play: &GamePlay) {
        emit_with(|| ObsEvent::Game {
            players: play.players(),
            start: play.start.as_seconds(),
            elapsed: play.elapsed,
            early_terminated: play.early_terminated,
        });
    }
}

impl std::fmt::Debug for ObsBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsBackend")
            .field("active", &obs_active())
            .finish()
    }
}

impl ExecutionBackend for ObsBackend {
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
        Self::emit_game(&play);
        play
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let run = self.inner.run_single(spec);
        emit_with(|| ObsEvent::Solo {
            start: run.started_at.as_seconds(),
            observed_time: run.observed_time,
        });
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let observed = self.inner.observe_single_at(spec, start, salt);
        emit_with(|| ObsEvent::Probe {
            start: start.as_seconds(),
            observed_time: observed,
        });
        observed
    }

    fn commit(&mut self, play: &GamePlay) {
        self.inner.commit(play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        self.inner.commit_parallel(plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        // Forked sub-environments stay instrumented; the bus is global, so no state
        // travels with the fork.
        Box::new(ObsBackend::new(self.inner.fork(seed)))
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

/// A [`BackendProvider`] wrapping every backend it creates in an [`ObsBackend`].
pub struct ObsProvider {
    inner: Box<dyn BackendProvider>,
}

impl ObsProvider {
    /// Instruments every backend `inner` creates.
    pub fn new(inner: Box<dyn BackendProvider>) -> Self {
        Self { inner }
    }
}

impl BackendProvider for ObsProvider {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(ObsBackend::new(
            self.inner.backend(stream, vm, profile, seed),
        ))
    }
}
