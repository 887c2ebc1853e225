//! Co-located execution of several configurations on one node ("playing a game").
//!
//! A [`ColocatedRun`] advances a set of [`ExecutionSpec`]s through simulated time under a
//! *shared* interference signal plus a co-location contention term. The caller steps the
//! run, inspects per-player progress (work-done fractions), and may stop it early; the
//! run itself never decides when to terminate. It is the step-by-step reference for the
//! struct-of-arrays game engine behind [`CloudEnvironment::play_game`], which splits each
//! step into packed passes and must match it bit for bit.
//!
//! [`CloudEnvironment::play_game`]: crate::CloudEnvironment::play_game

use crate::interference::InterferenceModel;
use crate::rng::SimRng;
use crate::spec::ExecutionSpec;
use crate::time::SimTime;
use crate::vm::VmType;

/// Strength of the contention added per co-located competitor, relative to full occupancy
/// of the VM (`contention = COEFF * (players - 1) / vcpus`). Crate-visible so the game
/// engine in `cloud.rs` applies the exact same physics.
pub(crate) const CONTENTION_COEFF: f64 = 0.35;

/// Standard deviation of the per-player contention jitter: some players are hurt more by
/// their co-runners than others, which is why DarwinGame re-tests promising players in
/// several games.
pub(crate) const PLAYER_JITTER_STD: f64 = 0.15;

/// Standard deviation of per-player measurement noise on the progress rate.
pub(crate) const MEASUREMENT_NOISE_STD: f64 = 0.003;

/// Progress of one player inside a co-located run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerProgress {
    /// Fraction of total work completed, in `[0, 1]`.
    pub work_done: f64,
    /// Elapsed seconds (from game start) at which the player finished, if it has.
    pub finish_time: Option<f64>,
}

/// An in-flight co-located execution ("game" in DarwinGame terms).
pub struct ColocatedRun {
    vm: VmType,
    start: SimTime,
    elapsed: f64,
    specs: Vec<ExecutionSpec>,
    progress: Vec<f64>,
    finish_times: Vec<Option<f64>>,
    player_jitter: Vec<f64>,
    measurement_noise: Vec<f64>,
    contention: f64,
    overload: f64,
    interference: Box<dyn InterferenceModel>,
}

impl std::fmt::Debug for ColocatedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColocatedRun")
            .field("vm", &self.vm)
            .field("start", &self.start)
            .field("elapsed", &self.elapsed)
            .field("players", &self.specs.len())
            .field("progress", &self.progress)
            .finish()
    }
}

impl ColocatedRun {
    /// Creates a run; used by [`CloudEnvironment::start_colocated`].
    ///
    /// `specs` must already be scaled for the VM's hardware speed.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    ///
    /// [`CloudEnvironment::start_colocated`]: crate::CloudEnvironment::start_colocated
    pub(crate) fn new(
        vm: VmType,
        start: SimTime,
        specs: Vec<ExecutionSpec>,
        interference: Box<dyn InterferenceModel>,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            !specs.is_empty(),
            "a co-located run needs at least one player"
        );
        let players = specs.len();
        let vcpus = vm.vcpus();
        let contention = CONTENTION_COEFF * (players.saturating_sub(1)) as f64 / vcpus as f64;
        // If more players are packed than there are vCPUs, everybody time-shares.
        let overload = if players > vcpus {
            players as f64 / vcpus as f64
        } else {
            1.0
        };
        let player_jitter: Vec<f64> = (0..players)
            .map(|_| rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4))
            .collect();
        let measurement_noise: Vec<f64> = (0..players)
            .map(|_| {
                rng.normal_with(1.0, MEASUREMENT_NOISE_STD)
                    .clamp(0.99, 1.01)
            })
            .collect();
        Self {
            vm,
            start,
            elapsed: 0.0,
            progress: vec![0.0; players],
            finish_times: vec![None; players],
            player_jitter,
            measurement_noise,
            contention,
            overload,
            specs,
            interference,
        }
    }

    /// Number of players in the game.
    pub fn players(&self) -> usize {
        self.specs.len()
    }

    /// The VM the game is running on.
    pub fn vm(&self) -> VmType {
        self.vm
    }

    /// Simulated time at which the game started.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Seconds of simulated time the game has been running.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Work-done fraction of every player, in game order.
    pub fn work_fractions(&self) -> &[f64] {
        &self.progress
    }

    /// Progress snapshot of player `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn player_progress(&self, i: usize) -> PlayerProgress {
        PlayerProgress {
            work_done: self.progress[i],
            finish_time: self.finish_times[i],
        }
    }

    /// Index of the player with the most work done (ties broken by lower index).
    pub fn leader(&self) -> usize {
        let mut best = 0;
        for i in 1..self.progress.len() {
            if self.progress[i] > self.progress[best] {
                best = i;
            }
        }
        best
    }

    /// True when player `i` has completed all of its work.
    pub fn finished(&self, i: usize) -> bool {
        self.finish_times[i].is_some()
    }

    /// True when at least one player has completed its work.
    pub fn any_finished(&self) -> bool {
        self.finish_times.iter().any(Option::is_some)
    }

    /// True when every player has completed its work.
    pub fn all_finished(&self) -> bool {
        self.finish_times.iter().all(Option::is_some)
    }

    /// Advances the game by `dt` seconds of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "step size must be positive");
        let now = self.start + self.elapsed;
        let ambient = self.interference.level(now) * self.vm.interference_factor();
        for i in 0..self.specs.len() {
            if self.finish_times[i].is_some() {
                continue;
            }
            let effective = (ambient + self.contention) * self.player_jitter[i];
            let rate =
                self.specs[i].progress_rate(effective) * self.measurement_noise[i] / self.overload;
            let advanced = self.progress[i] + rate * dt;
            if advanced >= 1.0 {
                // Interpolate the exact finish instant inside this step.
                let remaining = 1.0 - self.progress[i];
                let needed = remaining / rate;
                self.finish_times[i] = Some(self.elapsed + needed);
                self.progress[i] = 1.0;
            } else {
                self.progress[i] = advanced;
            }
        }
        self.elapsed += dt;
    }

    /// Steps the game until every player finishes or `max_seconds` of simulated time have
    /// elapsed, whichever comes first.
    pub fn run_to_completion(&mut self, max_seconds: f64) {
        let dt = self.default_step();
        while !self.all_finished() && self.elapsed < max_seconds {
            self.step(dt);
        }
    }

    /// Steps the game until the fastest player finishes or `max_seconds` elapse.
    pub fn run_until_first_finish(&mut self, max_seconds: f64) {
        let dt = self.default_step();
        while !self.any_finished() && self.elapsed < max_seconds {
            self.step(dt);
        }
    }

    /// A reasonable integration step: 1/200 of the smallest base time, at least 0.25 s.
    pub fn default_step(&self) -> f64 {
        let min_base = self
            .specs
            .iter()
            .map(ExecutionSpec::base_time)
            .fold(f64::INFINITY, f64::min);
        (min_base / 200.0).max(0.25)
    }

    /// Freezes the run into an outcome snapshot.
    pub fn into_outcome(self) -> ColocationOutcome {
        let estimated: Vec<f64> = self
            .progress
            .iter()
            .enumerate()
            .map(|(i, p)| match self.finish_times[i] {
                Some(t) => t,
                // Extrapolate from current progress; players that have done no work get
                // an effectively infinite estimate.
                None if *p > 0.0 => self.elapsed / p,
                None => f64::INFINITY,
            })
            .collect();
        ColocationOutcome {
            vm: self.vm,
            start: self.start,
            elapsed: self.elapsed,
            work_fractions: self.progress,
            finish_times: self.finish_times,
            estimated_times: estimated,
        }
    }
}

/// The result of a finished (or early-terminated) co-located run.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocationOutcome {
    vm: VmType,
    start: SimTime,
    elapsed: f64,
    work_fractions: Vec<f64>,
    finish_times: Vec<Option<f64>>,
    estimated_times: Vec<f64>,
}

impl ColocationOutcome {
    /// Number of players.
    pub fn players(&self) -> usize {
        self.work_fractions.len()
    }

    /// The VM the game ran on.
    pub fn vm(&self) -> VmType {
        self.vm
    }

    /// Simulated start time of the game.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Wall-clock seconds the node was occupied.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Work-done fraction per player at the end of the game.
    pub fn work_fractions(&self) -> &[f64] {
        &self.work_fractions
    }

    /// Completion time (seconds from game start) per player, `None` when the game was
    /// stopped before the player finished.
    pub fn finish_times(&self) -> &[Option<f64>] {
        &self.finish_times
    }

    /// Observed (or extrapolated) execution time per player: the finish time when the
    /// player completed, otherwise `elapsed / work_done`.
    pub fn observed_times(&self) -> &[f64] {
        &self.estimated_times
    }

    /// Index of the winning player: the one with the lowest observed (or extrapolated)
    /// execution time, which is also the player with the most work done whenever the
    /// game was stopped before everyone finished. Ties are broken by lower index.
    pub fn winner(&self) -> usize {
        let mut best = 0;
        for i in 1..self.estimated_times.len() {
            if self.estimated_times[i] < self.estimated_times[best] {
                best = i;
            }
        }
        best
    }

    /// Players ranked from best (fastest / most work done) to worst.
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.estimated_times.len()).collect();
        order.sort_by(|a, b| {
            self.estimated_times[*a]
                .partial_cmp(&self.estimated_times[*b])
                .expect("estimated times are never NaN")
                .then(a.cmp(b))
        });
        order
    }

    /// Execution scores per player: relative progress toward completion compared to the
    /// best player, in `[0, 1]`.
    ///
    /// This is the quantity Fig. 5 of the paper calls the *execution score*: the fraction
    /// of work a player completed relative to the fastest player at the moment the game
    /// ended. When the game is allowed to run past the first finisher, the score falls
    /// back to the ratio of observed/extrapolated execution times, which is the same
    /// quantity evaluated at the winner's finish instant.
    pub fn execution_scores(&self) -> Vec<f64> {
        let best = self
            .estimated_times
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() || best <= 0.0 {
            return vec![0.0; self.work_fractions.len()];
        }
        self.estimated_times
            .iter()
            .map(|t| {
                if t.is_finite() {
                    (best / t).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{ConstantInterference, InterferenceProfile};

    fn quiet_run(specs: Vec<ExecutionSpec>) -> ColocatedRun {
        let mut rng = SimRng::new(1);
        ColocatedRun::new(
            VmType::M5_8xlarge,
            SimTime::ZERO,
            specs,
            Box::new(ConstantInterference::quiet()),
            &mut rng,
        )
    }

    #[test]
    fn single_player_quiet_run_matches_base_time() {
        let mut run = quiet_run(vec![ExecutionSpec::new(100.0, 0.5)]);
        run.run_to_completion(10_000.0);
        let outcome = run.into_outcome();
        let t = outcome.observed_times()[0];
        // Only measurement noise (±5 % clamp) separates the observation from base time.
        assert!((t - 100.0).abs() < 6.0, "observed {t}");
        assert_eq!(outcome.winner(), 0);
    }

    #[test]
    fn faster_config_wins_under_shared_noise() {
        let mut rng = SimRng::new(7);
        let model = InterferenceProfile::typical().build(3);
        let mut run = ColocatedRun::new(
            VmType::M5_8xlarge,
            SimTime::from_seconds(500.0),
            vec![
                ExecutionSpec::new(200.0, 0.6),
                ExecutionSpec::new(400.0, 0.6),
            ],
            model,
            &mut rng,
        );
        run.run_to_completion(100_000.0);
        let outcome = run.into_outcome();
        assert_eq!(outcome.winner(), 0);
        assert!(outcome.observed_times()[0] < outcome.observed_times()[1]);
        let scores = outcome.execution_scores();
        assert_eq!(scores[0], 1.0);
        assert!(scores[1] < 1.0);
    }

    #[test]
    fn progress_is_monotone_and_bounded() {
        let mut run = quiet_run(vec![
            ExecutionSpec::new(50.0, 0.2),
            ExecutionSpec::new(75.0, 0.9),
        ]);
        let mut previous = [0.0, 0.0];
        for _ in 0..500 {
            run.step(1.0);
            for (i, p) in run.work_fractions().iter().enumerate() {
                assert!(*p >= previous[i], "progress must not decrease");
                assert!(*p <= 1.0, "progress must not exceed 1");
                previous[i] = *p;
            }
        }
        assert!(run.all_finished());
    }

    #[test]
    fn early_stop_produces_extrapolated_times() {
        let mut run = quiet_run(vec![
            ExecutionSpec::new(100.0, 0.2),
            ExecutionSpec::new(300.0, 0.2),
        ]);
        // Stop long before anything finishes.
        for _ in 0..20 {
            run.step(1.0);
        }
        assert!(!run.any_finished());
        let outcome = run.into_outcome();
        assert_eq!(outcome.finish_times()[0], None);
        let est = outcome.observed_times();
        assert!(est[0] > 50.0 && est[0] < 200.0, "estimate {est:?}");
        assert!(est[1] > est[0]);
    }

    #[test]
    fn contention_slows_down_crowded_games() {
        // Same spec run alone vs. packed with 31 co-runners: the crowded one must be slower.
        let spec = ExecutionSpec::new(100.0, 1.0);
        let mut alone = quiet_run(vec![spec]);
        alone.run_to_completion(10_000.0);
        let alone_t = alone.into_outcome().observed_times()[0];

        let mut crowded = quiet_run(vec![spec; 32]);
        crowded.run_to_completion(10_000.0);
        let crowded_t = crowded.into_outcome().observed_times()[0];
        assert!(
            crowded_t > alone_t * 1.1,
            "expected contention slowdown, alone={alone_t}, crowded={crowded_t}"
        );
    }

    #[test]
    fn overload_beyond_vcpus_time_shares() {
        let spec = ExecutionSpec::new(100.0, 0.0);
        let mut rng = SimRng::new(1);
        let mut run = ColocatedRun::new(
            VmType::M5Large, // only 2 vCPUs
            SimTime::ZERO,
            vec![spec; 4],
            Box::new(ConstantInterference::quiet()),
            &mut rng,
        );
        run.run_to_completion(10_000.0);
        let outcome = run.into_outcome();
        // 4 players on 2 cores -> roughly 2x slowdown even with zero sensitivity.
        assert!(outcome.observed_times()[0] > 180.0);
    }

    #[test]
    fn ranking_sorted_by_work_done() {
        let mut run = quiet_run(vec![
            ExecutionSpec::new(300.0, 0.1),
            ExecutionSpec::new(100.0, 0.1),
            ExecutionSpec::new(200.0, 0.1),
        ]);
        for _ in 0..50 {
            run.step(1.0);
        }
        let outcome = run.into_outcome();
        assert_eq!(outcome.ranking(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        quiet_run(Vec::new());
    }
}
