//! The [`ExecutionBackend`] trait: everything the tuning stack asks of an execution
//! environment.

use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};

/// One game of a batch passed to [`ExecutionBackend::play_games_batch`]: a borrowed
/// player roster (the batch as a whole shares the caller's spec storage, so building a
/// round-sized batch allocates nothing per game).
#[derive(Debug, Clone, Copy)]
pub struct GameBatchItem<'a> {
    /// The players of this game, in player order.
    pub specs: &'a [ExecutionSpec],
}

/// An execution environment the tuning stack runs against.
///
/// This trait captures the complete surface the engine needs from an environment — play
/// a co-located game, evaluate one configuration solo, observe without charging, charge
/// cost, fork per-region sub-environments, and expose the clock/cost/RNG identity —
/// so every layer above (`darwin-core` tournament phases, the `CloudEvaluator` all
/// baselines sample through, `dg-campaign` cells) is written against `&mut dyn
/// ExecutionBackend` instead of the concrete simulator.
///
/// Implementations in this crate:
///
/// * `dg_cloudsim::CloudEnvironment` — the simulator itself (the default);
/// * [`ProcessBackend`](crate::ProcessBackend) — runs real OS processes as evaluations;
/// * [`RecordingBackend`](crate::RecordingBackend) / [`ReplayBackend`](crate::ReplayBackend)
///   — record every outcome to an [`ExecutionTrace`](crate::ExecutionTrace), then replay
///   it with zero resimulation;
/// * [`ObsBackend`](crate::ObsBackend) — a wrapper reporting every operation to the
///   `dg-obs` event bus.
pub trait ExecutionBackend: Send {
    /// The VM type this backend executes on.
    fn vm(&self) -> VmType;

    /// The interference profile of the node.
    fn profile(&self) -> &InterferenceProfile;

    /// The root seed identifying this backend's noise realisation (forked sub-backends
    /// report the seed they were forked with).
    fn seed(&self) -> u64;

    /// The current simulated wall-clock time.
    fn clock(&self) -> SimTime;

    /// Moves the wall clock to `t` (used to start tuning sessions at different times of
    /// day, as in Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current clock.
    fn set_clock(&mut self, t: SimTime);

    /// Resources consumed so far.
    fn cost(&self) -> &CostTracker;

    /// Default number of players per game on this VM (its vCPU count), the paper's `P`.
    fn players_per_game(&self) -> usize {
        self.vm().vcpus()
    }

    /// Plays one co-located game among `specs` under `rules`, starting at the current
    /// clock. The game's cost is **not** committed; pass the play to
    /// [`commit`](Self::commit) or [`commit_parallel`](Self::commit_parallel).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay;

    /// Plays a round's worth of co-located games as one batch, in batch order, under
    /// the same `rules`, all starting at the current clock. Nothing is committed.
    ///
    /// Semantically this is *exactly* `games.iter().map(|g| self.play_game(g.specs,
    /// rules)).collect()` — the default implementation is that loop, and every override
    /// must stay bit-identical to it in outcomes, cost accounting, clock movement, and
    /// RNG-stream consumption (games are processed in order). The one override in the
    /// workspace is the scenario decorator's, which looks up the round's load once.
    ///
    /// # Panics
    ///
    /// Panics if any game's `specs` is empty.
    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        games
            .iter()
            .map(|game| self.play_game(game.specs, rules))
            .collect()
    }

    /// Evaluates a single configuration alone on the node, committing its cost and
    /// advancing the clock.
    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun;

    /// Observes a single run of `spec` starting at `start`, *without* committing cost
    /// or advancing the clock. The `salt` decorrelates repeated observations at the
    /// same start time.
    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64;

    /// Observes `count` runs of `spec`, spaced `spacing_seconds` apart starting from
    /// the current clock, without committing cost.
    fn observe_repeated(
        &mut self,
        spec: ExecutionSpec,
        count: usize,
        spacing_seconds: f64,
    ) -> Vec<f64> {
        (0..count)
            .map(|i| {
                let start = self.clock() + spacing_seconds * i as f64;
                self.observe_single_at(spec, start, i as u64)
            })
            .collect()
    }

    /// Accounts for a finished game and advances the wall clock by its elapsed time.
    fn commit(&mut self, play: &GamePlay);

    /// Accounts for a batch of games that ran concurrently on identical VMs: every game
    /// is charged in core-hours but the clock advances only by the longest one.
    fn commit_parallel(&mut self, plays: &[GamePlay]);

    /// Creates an independent sub-environment of the same kind — same VM type and
    /// interference profile, noise realisation derived from `seed`. The tournament's
    /// regional phase forks one sub-environment per region, the way the paper runs
    /// regions on separate VMs.
    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend>;

    /// A permanent failure this backend has hit, if any — e.g. a real-process backend
    /// whose command crashed, timed out, or never wrote its completion marker
    /// ([`ProcessBackend`](crate::ProcessBackend)). Once set, evaluations return
    /// `f64::INFINITY` sentinels instead of launching more work, and campaign
    /// executors persist the message in the cell result so a failed cell is recorded
    /// as failed rather than silently dropped. Simulation backends never fail.
    fn failure(&self) -> Option<String> {
        None
    }
}

/// Writes the [`ExecutionBackend`] methods a decorator passes straight through to its
/// `inner` backend, one name per method: `vm`, `profile`, `seed`, `clock`,
/// `set_clock`, `cost`, `play_game`, `commit`, `commit_parallel` and `failure`.
///
/// There is no arm for `play_games_batch`, `observe_repeated` or `fork`: their trait
/// defaults run through the decorator's own `play_game` and `observe_single_at`, and a
/// fork must re-wrap, so forwarding them would let batched games, repeated probes and
/// forked regions bypass the decorator. `players_per_game` keeps its default, which
/// reads the forwarded `vm`.
macro_rules! forward_to_inner {
    ($($method:ident),+ $(,)?) => {
        $(forward_to_inner!(@ $method);)+
    };
    (@ vm) => {
        fn vm(&self) -> ::dg_cloudsim::VmType {
            self.inner.vm()
        }
    };
    (@ profile) => {
        fn profile(&self) -> &::dg_cloudsim::InterferenceProfile {
            self.inner.profile()
        }
    };
    (@ seed) => {
        fn seed(&self) -> u64 {
            self.inner.seed()
        }
    };
    (@ clock) => {
        fn clock(&self) -> ::dg_cloudsim::SimTime {
            self.inner.clock()
        }
    };
    (@ set_clock) => {
        fn set_clock(&mut self, t: ::dg_cloudsim::SimTime) {
            self.inner.set_clock(t);
        }
    };
    (@ cost) => {
        fn cost(&self) -> &::dg_cloudsim::CostTracker {
            self.inner.cost()
        }
    };
    (@ play_game) => {
        fn play_game(
            &mut self,
            specs: &[::dg_cloudsim::ExecutionSpec],
            rules: &::dg_cloudsim::GameRules,
        ) -> ::dg_cloudsim::GamePlay {
            self.inner.play_game(specs, rules)
        }
    };
    (@ commit) => {
        fn commit(&mut self, play: &::dg_cloudsim::GamePlay) {
            self.inner.commit(play);
        }
    };
    (@ commit_parallel) => {
        fn commit_parallel(&mut self, plays: &[::dg_cloudsim::GamePlay]) {
            self.inner.commit_parallel(plays);
        }
    };
    (@ failure) => {
        fn failure(&self) -> Option<String> {
            self.inner.failure()
        }
    };
}
pub(crate) use forward_to_inner;

/// A factory of [`ExecutionBackend`]s, one per independent execution stream.
///
/// Campaign executors create one backend per grid cell; the `stream` label names the
/// cell (e.g. `"cell-17"`) so recording providers can key their traces by it and replay
/// providers can find the matching stream again.
pub trait BackendProvider: Send + Sync {
    /// Creates the backend for the execution stream `stream` on the given VM type,
    /// interference profile, and root seed.
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_match_the_paper() {
        let rules = GameRules::default();
        assert!(rules.early_termination);
        assert_eq!(rules.work_done_deviation, 0.10);
        assert_eq!(rules.min_leader_progress, 0.25);
        let playoff = GameRules::playoff();
        assert!(!playoff.early_termination);
        assert_eq!(playoff.work_done_deviation, rules.work_done_deviation);
    }

    #[test]
    fn game_play_reports_player_count() {
        let play = GamePlay {
            start: SimTime::ZERO,
            elapsed: 10.0,
            observed_times: vec![10.0, 12.0],
            execution_scores: vec![1.0, 0.8],
            early_terminated: false,
        };
        assert_eq!(play.players(), 2);
    }
}
