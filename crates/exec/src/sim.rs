//! The default backend: full resimulation through `dg_cloudsim::CloudEnvironment`.

use crate::backend::{BackendProvider, ExecutionBackend};
use dg_cloudsim::{
    CloudEnvironment, CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile,
    ObservedRun, SimTime, VmType,
};
use dg_obs::Counter;
use std::sync::OnceLock;

/// The registry counter behind [`sim_ops`]: `exec.sim_ops` in the `dg-obs` metrics
/// registry, cached so the per-operation cost stays one atomic add plus a
/// thread-local add.
fn sim_ops_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| dg_obs::metrics::counter("exec.sim_ops"))
}

/// Number of simulator operations (games, solo runs, observations) performed so far
/// **on the current thread** through `CloudEnvironment`'s [`ExecutionBackend`] impl.
///
/// Only calls through the trait count. On a concrete `CloudEnvironment`, method syntax
/// such as `env.run_single(..)` resolves to the inherent method, which does not count;
/// call `ExecutionBackend::run_single(&mut env, ..)` or go through a
/// `dyn ExecutionBackend`.
///
/// Replay backends never touch the simulator, so replaying on this thread (e.g. a
/// single-worker campaign replay, which runs on the caller's thread) leaves the
/// counter unchanged — the property the record/replay tests pin. The reading is
/// per-thread so concurrent tests (or campaign workers) cannot perturb each other;
/// the process-wide total is the `exec.sim_ops` counter in a
/// [`MetricsSnapshot`](dg_obs::MetricsSnapshot).
pub fn sim_ops() -> u64 {
    sim_ops_counter().thread_value()
}

fn count_sim_op() {
    sim_ops_counter().increment();
}

/// The cloud simulator is the default execution backend. Each game, solo run and
/// observation is one simulator operation counted by [`sim_ops`].
impl ExecutionBackend for CloudEnvironment {
    fn vm(&self) -> VmType {
        CloudEnvironment::vm(self)
    }

    fn profile(&self) -> &InterferenceProfile {
        CloudEnvironment::profile(self)
    }

    fn seed(&self) -> u64 {
        CloudEnvironment::seed(self)
    }

    fn clock(&self) -> SimTime {
        CloudEnvironment::clock(self)
    }

    fn set_clock(&mut self, t: SimTime) {
        CloudEnvironment::set_clock(self, t);
    }

    fn cost(&self) -> &CostTracker {
        CloudEnvironment::cost(self)
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        count_sim_op();
        CloudEnvironment::play_game(self, specs, rules)
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        count_sim_op();
        CloudEnvironment::run_single(self, spec)
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        count_sim_op();
        CloudEnvironment::observe_single_at(self, spec, start, salt)
    }

    fn commit(&mut self, play: &GamePlay) {
        CloudEnvironment::commit(self, play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        CloudEnvironment::commit_parallel(self, plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            CloudEnvironment::vm(self),
            CloudEnvironment::profile(self).clone(),
            seed,
        ))
    }
}

/// The default [`BackendProvider`]: every stream gets a fresh [`CloudEnvironment`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProvider;

impl BackendProvider for SimProvider {
    fn backend(
        &self,
        _stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(vm, profile.clone(), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend(seed: u64) -> Box<dyn ExecutionBackend> {
        SimProvider.backend(
            "sim",
            VmType::M5_8xlarge,
            &InterferenceProfile::typical(),
            seed,
        )
    }

    #[test]
    fn games_are_uncommitted_until_commit() {
        let mut exec = backend(1);
        let specs = [
            ExecutionSpec::new(100.0, 0.5),
            ExecutionSpec::new(300.0, 0.5),
        ];
        let play = exec.play_game(&specs, &GameRules::default());
        assert_eq!(play.players(), 2);
        assert_eq!(exec.cost().core_hours(), 0.0);
        exec.commit(&play);
        assert!(exec.cost().core_hours() > 0.0);
        assert_eq!(exec.clock().as_seconds(), play.elapsed);
    }

    #[test]
    fn forks_are_deterministic_sub_environments() {
        let mut exec = backend(3);
        let mut fork_a = exec.fork(99);
        let mut fork_b = exec.fork(99);
        assert_eq!(fork_a.seed(), 99);
        assert_eq!(fork_a.vm(), exec.vm());
        let spec = ExecutionSpec::new(100.0, 0.6);
        let a = fork_a.run_single(spec);
        let b = fork_b.run_single(spec);
        assert_eq!(a.observed_time.to_bits(), b.observed_time.to_bits());
        // Forks do not disturb the parent's accounting.
        assert_eq!(exec.cost().core_hours(), 0.0);
    }

    #[test]
    fn run_single_reports_charged_elapsed() {
        let mut exec = backend(5);
        let run = exec.run_single(ExecutionSpec::new(100.0, 0.3));
        assert!(run.elapsed >= run.observed_time);
        assert_eq!(exec.clock().as_seconds(), run.elapsed);
    }

    #[test]
    fn sim_ops_counter_counts_this_threads_simulation() {
        let before = sim_ops();
        let mut exec = backend(11);
        let _ = exec.run_single(ExecutionSpec::new(50.0, 0.1));
        let _ = exec.observe_single_at(ExecutionSpec::new(50.0, 0.1), SimTime::ZERO, 0);
        assert_eq!(
            sim_ops(),
            before + 2,
            "the counter is thread-local and exact"
        );
    }
}
