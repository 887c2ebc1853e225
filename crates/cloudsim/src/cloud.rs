//! The top-level cloud and dedicated execution environments.

use crate::cost::CostTracker;
use crate::interference::{InterferenceProfile, InterferenceSampler};
use crate::rng::SimRng;
use crate::spec::ExecutionSpec;
use crate::time::SimTime;
use crate::vm::VmType;

/// Safety cap on simulated game length, expressed as a multiple of the slowest player's
/// dedicated execution time. Prevents run-away integration if a pathological spec is fed
/// to the simulator.
pub(crate) const MAX_RUN_MULTIPLIER: f64 = 64.0;

/// Strength of the contention added per co-located competitor, relative to full occupancy
/// of the VM (`contention = COEFF * (players - 1) / vcpus`).
pub(crate) const CONTENTION_COEFF: f64 = 0.35;

/// Standard deviation of the per-player contention jitter: some players are hurt more by
/// their co-runners than others, which is why DarwinGame re-tests promising players in
/// several games.
pub(crate) const PLAYER_JITTER_STD: f64 = 0.15;

/// Standard deviation of per-player measurement noise on the progress rate.
pub(crate) const MEASUREMENT_NOISE_STD: f64 = 0.003;

/// The observation returned by a committed single-configuration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedRun {
    /// Observed execution time in seconds (including interference effects).
    pub observed_time: f64,
    /// Simulated time at which the run started.
    pub started_at: SimTime,
    /// Wall-clock seconds the run occupied (and was charged for) on its node. Slightly
    /// larger than `observed_time` because the simulator integrates in discrete steps
    /// and charges whole steps; this is the exact value the cost tracker saw, which
    /// record/replay execution backends need to reproduce accounting bit for bit.
    pub elapsed: f64,
}

/// How a co-located game is driven.
///
/// These are the game-termination rules of Fig. 5 of the paper: the game runs until the
/// fastest player completes, or — when early termination is enabled and the leader has
/// completed at least `min_leader_progress` of its work — until the work-done gap
/// between the leader and the runner-up exceeds `work_done_deviation`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameRules {
    /// Stop the game early when the leader is far enough ahead (Fig. 5).
    pub early_termination: bool,
    /// Work-done deviation `d` that triggers early termination.
    pub work_done_deviation: f64,
    /// Minimum leader progress before early termination is allowed.
    pub min_leader_progress: f64,
}

impl Default for GameRules {
    fn default() -> Self {
        Self {
            early_termination: true,
            work_done_deviation: 0.10,
            min_leader_progress: 0.25,
        }
    }
}

impl GameRules {
    /// The rules used in the playoffs and final: two-player games that run until the
    /// faster player completes, with no early termination.
    pub fn playoff() -> Self {
        Self {
            early_termination: false,
            ..Self::default()
        }
    }
}

/// The result of one co-located game ([`CloudEnvironment::play_game`]): exactly the
/// observations the tournament layer consumes, with no reference back to the simulator.
///
/// A `GamePlay` is *uncommitted*: playing a game does not charge cost or advance the
/// clock. The tournament phases decide whether a round's games are accounted serially
/// ([`CloudEnvironment::commit`]) or in parallel ([`CloudEnvironment::commit_parallel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GamePlay {
    /// Simulated time at which the game started.
    pub start: SimTime,
    /// Wall-clock seconds the game occupied its node (the quantity committed to the
    /// cost tracker).
    pub elapsed: f64,
    /// Observed (or extrapolated) execution time per player, in player order.
    pub observed_times: Vec<f64>,
    /// Execution score per player (work done relative to the best player, in `[0, 1]`).
    pub execution_scores: Vec<f64>,
    /// Whether the game was stopped by the early-termination rule.
    pub early_terminated: bool,
}

impl GamePlay {
    /// Number of players in the game.
    pub fn players(&self) -> usize {
        self.observed_times.len()
    }
}

/// Reusable per-game buffers for the game engine: one flat `Vec<f64>` per hot
/// per-player quantity (struct-of-arrays), cleared and refilled per game so steady-state
/// games allocate nothing but their returned observation vectors. The rate pass reads
/// the columns by index with no state carried from one player to the next, which is what
/// lets it compile to packed instructions.
#[derive(Debug, Default)]
struct GameScratch {
    /// VM-scaled base time per player (the SoA split of `ExecutionSpec` that the
    /// per-step pass reads as flat columns).
    base: Vec<f64>,
    /// Sensitivity per player.
    sens: Vec<f64>,
    jitter: Vec<f64>,
    noise: Vec<f64>,
    /// Work done per player at the start of the step.
    progress: Vec<f64>,
    /// Work done per player at the end of the step; swapped with `progress` after each
    /// step instead of copied.
    advanced: Vec<f64>,
    /// Finish time per player; NaN = not finished (the stand-in for `Option<f64>`
    /// that keeps the array flat).
    finish: Vec<f64>,
}

/// Steps whose interference level [`AmbientLookahead`] samples at once.
const LOOKAHEAD: usize = 8;

/// The VM-scaled interference level of each step of a run, sampled `LOOKAHEAD` steps
/// ahead.
///
/// The samples are pure functions of time and independent of each other, so sampling a
/// batch lets the processor overlap them instead of waiting on each one (its `cos`
/// above all) at the head of every step, and lets the sampler look the regime and burst
/// components up once per batch (see [`InterferenceSampler`]). The batch's times repeat
/// the exact additions the run's `elapsed += dt` makes, so they never decrease and every
/// step sees the level it would have sampled itself, multiplied by the VM's
/// interference factor in the same place; a run that ends mid-batch only wastes the rest
/// of the batch.
struct AmbientLookahead {
    start_seconds: f64,
    dt: f64,
    interference_factor: f64,
    /// Elapsed seconds of the first step not yet in `levels`.
    elapsed: f64,
    levels: [f64; LOOKAHEAD],
    next: usize,
}

impl AmbientLookahead {
    fn new(start_seconds: f64, dt: f64, interference_factor: f64) -> Self {
        Self {
            start_seconds,
            dt,
            interference_factor,
            elapsed: 0.0,
            levels: [0.0; LOOKAHEAD],
            next: LOOKAHEAD,
        }
    }

    /// The level of the next step: the `k`-th call returns the level at `k - 1`
    /// additions of `dt` from the start.
    #[inline]
    fn next(&mut self, sampler: &InterferenceSampler) -> f64 {
        if self.next == LOOKAHEAD {
            self.refill(sampler);
        }
        self.next += 1;
        self.levels[self.next - 1]
    }

    /// Samples the next `LOOKAHEAD` steps in one sampler call (kept out of line so that
    /// `next` stays small enough to inline into the step loops).
    fn refill(&mut self, sampler: &InterferenceSampler) {
        let mut seconds = [0.0; LOOKAHEAD];
        for t in &mut seconds {
            *t = self.start_seconds + self.elapsed;
            self.elapsed += self.dt;
        }
        sampler.levels_at_seconds(&seconds, &mut self.levels);
        for level in &mut self.levels {
            *level *= self.interference_factor;
        }
        self.next = 0;
    }
}

/// The largest and the second-largest value of `work`, counted with multiplicity (two
/// equal maxima give the pair `(max, max)`); `-inf` stands in for a missing value.
///
/// A branch-free max/min update runs in four independent lanes, which are merged at the
/// end. This equals a sequential scan because the top two of a multiset do not depend
/// on the order its values arrive in, and it is exact as long as no value is NaN.
/// `work` holds progress fractions, which are never NaN or `-0.0`.
fn top_two(work: &[f64]) -> (f64, f64) {
    // Compare-and-select, the shape of the `maxpd`/`minpd` instructions.
    fn max(a: f64, b: f64) -> f64 {
        if a > b {
            a
        } else {
            b
        }
    }
    fn min(a: f64, b: f64) -> f64 {
        if a < b {
            a
        } else {
            b
        }
    }
    // The top two of the union of two multisets, given the top two of each.
    fn merge((best_a, second_a): (f64, f64), (best_b, second_b): (f64, f64)) -> (f64, f64) {
        (
            max(best_a, best_b),
            max(min(best_a, best_b), max(second_a, second_b)),
        )
    }
    let mut best = [f64::NEG_INFINITY; 4];
    let mut second = [f64::NEG_INFINITY; 4];
    let mut chunks = work.chunks_exact(4);
    for chunk in &mut chunks {
        for lane in 0..4 {
            second[lane] = max(second[lane], min(best[lane], chunk[lane]));
            best[lane] = max(best[lane], chunk[lane]);
        }
    }
    for (lane, &x) in chunks.remainder().iter().enumerate() {
        second[lane] = max(second[lane], min(best[lane], x));
        best[lane] = max(best[lane], x);
    }
    merge(
        merge((best[0], second[0]), (best[1], second[1])),
        merge((best[2], second[2]), (best[3], second[3])),
    )
}

/// A shared, interference-prone cloud node on which tuning is performed.
///
/// The environment owns a simulated wall clock, an interference sampler for its node and
/// a cost tracker. All tuners (baselines and DarwinGame) evaluate
/// configurations exclusively through this type, so they are all exposed to the same
/// noise statistics.
pub struct CloudEnvironment {
    vm: VmType,
    profile: InterferenceProfile,
    seed: u64,
    node_seed: u64,
    /// The node's interference signal, `profile.sampler(node_seed)`.
    sampler: InterferenceSampler,
    clock: SimTime,
    cost: CostTracker,
    rng: SimRng,
    scratch: GameScratch,
}

impl std::fmt::Debug for CloudEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudEnvironment")
            .field("vm", &self.vm)
            .field("clock", &self.clock)
            .field("core_hours", &self.cost.core_hours())
            .finish()
    }
}

impl CloudEnvironment {
    /// Creates a cloud environment on the given VM type with the given interference
    /// profile. The `seed` controls both the node's noise realisation and all
    /// per-game jitter, so two environments with the same arguments behave identically.
    pub fn new(vm: VmType, profile: InterferenceProfile, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        let node_seed = rng.derive("node").seed();
        let sampler = profile.sampler(node_seed);
        Self {
            vm,
            profile,
            seed,
            node_seed,
            sampler,
            clock: SimTime::ZERO,
            cost: CostTracker::new(),
            rng: rng.derive("games"),
            scratch: GameScratch::default(),
        }
    }

    /// The VM type this environment simulates.
    pub fn vm(&self) -> VmType {
        self.vm
    }

    /// The interference profile of the node.
    pub fn profile(&self) -> &InterferenceProfile {
        &self.profile
    }

    /// The root seed the environment was constructed with. Two environments on the same
    /// VM type and profile with the same seed behave identically, so the seed is the
    /// identity of the environment's entire noise realisation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current simulated wall-clock time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Moves the wall clock to `t` (used to start tuning sessions at different times of
    /// day, as in Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current clock.
    pub fn set_clock(&mut self, t: SimTime) {
        assert!(
            t.as_seconds() >= self.clock.as_seconds(),
            "the simulated clock cannot move backwards"
        );
        self.clock = t;
    }

    /// Resources consumed so far.
    pub fn cost(&self) -> &CostTracker {
        &self.cost
    }

    /// Default number of players per game on this VM (its vCPU count), the paper's `P`.
    pub fn players_per_game(&self) -> usize {
        self.vm.vcpus()
    }

    /// The ambient interference level at time `t` (before VM scaling); exposed for
    /// calibration tests and plotting.
    pub fn interference_level(&self, t: SimTime) -> f64 {
        self.sampler.level(t)
    }

    /// Accounts for a finished game and advances the wall clock by its elapsed time.
    pub fn commit(&mut self, play: &GamePlay) {
        self.commit_elapsed(play.elapsed);
    }

    /// Charges `elapsed` seconds of the node and advances the clock by them: the
    /// accounting of one game or solo run.
    fn commit_elapsed(&mut self, elapsed: f64) {
        self.cost.charge_serial(self.vm, elapsed);
        self.clock += elapsed;
    }

    /// Accounts for a batch of games that ran concurrently on identical VMs: every game
    /// is charged in core-hours but the clock advances only by the longest one.
    pub fn commit_parallel(&mut self, plays: &[GamePlay]) {
        if plays.is_empty() {
            return;
        }
        let elapsed: Vec<f64> = plays.iter().map(|p| p.elapsed).collect();
        self.cost.charge_parallel(self.vm, &elapsed);
        let max_elapsed = elapsed.iter().copied().fold(0.0_f64, f64::max);
        self.clock += max_elapsed;
    }

    /// Runs a single configuration alone on the node, committing its cost.
    ///
    /// Draws the same two normals from the game RNG stream as a one-player
    /// [`play_game`](Self::play_game), and observes the same time as a one-player game
    /// without early termination.
    pub fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let started_at = self.clock;
        let jitter = self.rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4);
        let noise = self
            .rng
            .normal_with(1.0, MEASUREMENT_NOISE_STD)
            .clamp(0.99, 1.01);
        let (observed_time, elapsed) = self.solo_run(spec, started_at, jitter, noise);
        self.commit_elapsed(elapsed);
        ObservedRun {
            observed_time,
            started_at,
            elapsed,
        }
    }

    /// Plays one co-located game among `specs` under `rules`, starting at the current
    /// clock, over the node's [`InterferenceSampler`] and reusable struct-of-arrays
    /// scratch buffers.
    ///
    /// The physics: each player draws a contention jitter `J` (normal around 1 with
    /// standard deviation 0.15, clamped to `[0.6, 1.4]`), then each player a measurement
    /// noise `N` (0.003, clamped to `[0.99, 1.01]`). The game steps
    /// `dt = max(smallest scaled base time / 200, 0.25)` seconds at a time. In each step a
    /// player advances its work fraction by `dt * N / (base * slowdown * O)`, where the
    /// slowdown is `1 + sensitivity * max(0, (I * f + C) * J)`, `I` is the node's level
    /// at the start of the step, `f` the VM's interference factor,
    /// `C = 0.35 * (players - 1) / vcpus` the co-location contention and
    /// `O = max(1, players / vcpus)` the time-sharing overload. A player that completes
    /// its work inside a step gets the interpolated finish instant. The game stops after
    /// the step in which the first player finishes, once 64 times the slowest unscaled
    /// base time has elapsed, or by the Fig. 5 early-termination rule of [`GameRules`].
    /// A player that did not finish observes `elapsed / work done`.
    ///
    /// Each step is four parts, each exact for the reason given:
    ///
    /// 1. **Rate and advance.** One indexed loop over the flat columns computes each
    ///    player's rate with the reference's expression and writes its advanced progress
    ///    into a second column. No state passes between players except an OR-ed
    ///    "someone reached 1.0" flag, so the loop compiles to packed instructions, and
    ///    packed IEEE arithmetic rounds every lane exactly like the scalar form.
    /// 2. **Finish fix-up**, only on the step where the flag is set. A scalar loop
    ///    recomputes each finisher's rate with the same expression (so the same bits),
    ///    interpolates its finish instant inside the step and clamps its progress to 1.
    /// 3. **Column swap.** The progress and advanced columns trade places, no copy.
    /// 4. **Top-2**, only when early termination applies: the gap reads only the two
    ///    largest work fractions counted with multiplicity, never the leader's index,
    ///    so a branch-free four-lane scan gives the reference's gap (see `top_two`).
    ///
    /// The crate's tests check every output field and the RNG stream it consumes bit
    /// for bit against a textbook loop that steps one player at a time and samples the
    /// interference one component at a time. The game is *uncommitted*: cost and clock
    /// are untouched until the play is passed to [`commit`](Self::commit) or
    /// [`commit_parallel`](Self::commit_parallel).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        assert!(!specs.is_empty(), "a game needs at least one player");
        let players = specs.len();
        let vcpus = self.vm.vcpus();
        let speed = self.vm.speed_factor();
        let interference_factor = self.vm.interference_factor();
        let start = self.clock;
        let start_seconds = start.as_seconds();

        // Per-player hot state as flat struct-of-arrays, refilled in place. The jitter
        // draws for all players come before the noise draws; the scaled specs are split
        // into base/sensitivity columns so the per-step pass is a straight-line loop over
        // flat `f64` arrays.
        let scratch = &mut self.scratch;
        let rng = &mut self.rng;
        scratch.base.clear();
        scratch.sens.clear();
        for spec in specs {
            let scaled = spec.scaled(speed);
            scratch.base.push(scaled.base_time());
            scratch.sens.push(scaled.sensitivity());
        }
        scratch.jitter.clear();
        scratch
            .jitter
            .extend((0..players).map(|_| rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4)));
        scratch.noise.clear();
        scratch.noise.extend((0..players).map(|_| {
            rng.normal_with(1.0, MEASUREMENT_NOISE_STD)
                .clamp(0.99, 1.01)
        }));
        scratch.progress.clear();
        scratch.progress.resize(players, 0.0);
        scratch.advanced.clear();
        scratch.advanced.resize(players, 0.0);
        scratch.finish.clear();
        scratch.finish.resize(players, f64::NAN);

        let contention = CONTENTION_COEFF * (players.saturating_sub(1)) as f64 / vcpus as f64;
        let overload = if players > vcpus {
            players as f64 / vcpus as f64
        } else {
            1.0
        };
        let dt = scratch.base.iter().copied().fold(f64::INFINITY, f64::min) / 200.0;
        let dt = dt.max(0.25);
        let max_seconds = specs
            .iter()
            .map(ExecutionSpec::base_time)
            .fold(0.0_f64, f64::max)
            * MAX_RUN_MULTIPLIER;

        // `x / 1.0 == x` for every f64, so skipping the division when nobody
        // time-shares is exact.
        let overloaded = overload != 1.0;
        let check_early = rules.early_termination && players > 1;
        let mut elapsed = 0.0_f64;
        let mut finished = false;
        let mut early_terminated = false;

        let base = &scratch.base[..players];
        let sens = &scratch.sens[..players];
        let jitter = &scratch.jitter[..players];
        let noise = &scratch.noise[..players];
        let mut progress = &mut scratch.progress[..players];
        let mut advanced = &mut scratch.advanced[..players];
        let finish = &mut scratch.finish[..players];
        // Identical expression shape to `ExecutionSpec::progress_rate` composed with the
        // noise/overload factors of the reference loop.
        let rate = |i: usize, shared: f64| {
            let effective = shared * jitter[i];
            let rate = 1.0 / (base[i] * (1.0 + sens[i] * effective.max(0.0))) * noise[i];
            if overloaded {
                rate / overload
            } else {
                rate
            }
        };
        let mut ambient = AmbientLookahead::new(start_seconds, dt, interference_factor);
        // The loop stops at the step in which the first player finishes, so every
        // player is still running at the head of a step and needs no finished guard.
        while !finished && elapsed < max_seconds {
            let shared = ambient.next(&self.sampler) + contention;
            let mut reached = false;
            for i in 0..players {
                let work = progress[i] + rate(i, shared) * dt;
                advanced[i] = work;
                reached |= work >= 1.0;
            }
            if reached {
                for i in 0..players {
                    if advanced[i] >= 1.0 {
                        // Interpolate the exact finish instant inside this step.
                        finish[i] = elapsed + (1.0 - progress[i]) / rate(i, shared);
                        advanced[i] = 1.0;
                    }
                }
                finished = true;
            }
            std::mem::swap(&mut progress, &mut advanced);
            elapsed += dt;
            if check_early {
                let (best_work, second_work) = top_two(progress);
                if best_work >= rules.min_leader_progress {
                    // The reference path folds the runner-up from 0.0; progress is never
                    // negative, so clamping the second value reproduces it exactly.
                    let runner_up = second_work.max(0.0);
                    let gap = if best_work > 0.0 {
                        (best_work - runner_up) / best_work
                    } else {
                        0.0
                    };
                    if gap >= rules.work_done_deviation {
                        early_terminated = true;
                        break;
                    }
                }
            }
        }

        let mut observed_times = Vec::with_capacity(players);
        for (&finish, &progress) in finish.iter().zip(progress.iter()) {
            observed_times.push(if finish.is_nan() {
                // Extrapolate from current progress; players that have done no work get
                // an effectively infinite estimate.
                if progress > 0.0 {
                    elapsed / progress
                } else {
                    f64::INFINITY
                }
            } else {
                finish
            });
        }
        let best = observed_times.iter().copied().fold(f64::INFINITY, f64::min);
        let execution_scores = if !best.is_finite() || best <= 0.0 {
            vec![0.0; players]
        } else {
            observed_times
                .iter()
                .map(|t| {
                    if t.is_finite() {
                        (best / t).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        };

        GamePlay {
            start,
            elapsed,
            observed_times,
            execution_scores,
            early_terminated,
        }
    }

    /// Runs one player alone to completion (or the run cap) with pre-drawn jitter and
    /// noise; returns `(observed_time, elapsed)`. Shared by the committed
    /// [`run_single`](Self::run_single) and the cost-free
    /// [`observe_single_at`](Self::observe_single_at).
    fn solo_run(&self, spec: ExecutionSpec, start: SimTime, jitter: f64, noise: f64) -> (f64, f64) {
        let scaled = spec.scaled(self.vm.speed_factor());
        let interference_factor = self.vm.interference_factor();
        let start_seconds = start.as_seconds();
        // Same formulas as the co-located engine specialised to one player: zero
        // contention, no overload.
        let contention = CONTENTION_COEFF * 0.0 / self.vm.vcpus() as f64;
        let overload = 1.0;
        let dt = (scaled.base_time() / 200.0).max(0.25);
        let cap = self.run_cap(std::slice::from_ref(&spec));

        let mut elapsed = 0.0_f64;
        let mut progress = 0.0_f64;
        let mut finish = f64::NAN;
        let mut ambient = AmbientLookahead::new(start_seconds, dt, interference_factor);
        while finish.is_nan() && elapsed < cap {
            let effective = (ambient.next(&self.sampler) + contention) * jitter;
            let rate = scaled.progress_rate(effective) * noise / overload;
            let advanced = progress + rate * dt;
            if advanced >= 1.0 {
                let remaining = 1.0 - progress;
                finish = elapsed + remaining / rate;
                progress = 1.0;
            } else {
                progress = advanced;
            }
            elapsed += dt;
        }
        let observed = if finish.is_nan() {
            if progress > 0.0 {
                elapsed / progress
            } else {
                f64::INFINITY
            }
        } else {
            finish
        };
        (observed, elapsed)
    }

    /// Observes a single run of `spec` starting at `start`, *without* committing cost or
    /// advancing the clock.
    ///
    /// This models measuring the performance of an already-tuned application at an
    /// arbitrary later time (the repeated-execution measurements behind Fig. 11 and the
    /// error bars of Fig. 10). The `salt` decorrelates the per-run measurement jitter of
    /// repeated observations at the same start time.
    pub fn observe_single_at(&self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let mut rng = SimRng::new(self.node_seed)
            .derive_index(salt)
            .derive("observe");
        let jitter = rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4);
        let noise = rng
            .normal_with(1.0, MEASUREMENT_NOISE_STD)
            .clamp(0.99, 1.01);
        self.solo_run(spec, start, jitter, noise).0
    }

    /// Observes `count` runs of `spec`, spaced `spacing_seconds` apart starting from the
    /// current clock, without committing cost. Returns the observed execution times.
    pub fn observe_repeated(
        &self,
        spec: ExecutionSpec,
        count: usize,
        spacing_seconds: f64,
    ) -> Vec<f64> {
        (0..count)
            .map(|i| {
                let start = self.clock + spacing_seconds * i as f64;
                self.observe_single_at(spec, start, i as u64)
            })
            .collect()
    }

    fn run_cap(&self, specs: &[ExecutionSpec]) -> f64 {
        let slowest = specs
            .iter()
            .map(ExecutionSpec::base_time)
            .fold(0.0_f64, f64::max);
        slowest * MAX_RUN_MULTIPLIER
    }
}

/// A dedicated, interference-free environment.
///
/// This is the (practically unaffordable) setting in which the paper defines the
/// *optimal* configuration: no co-tenants, no contention, only negligible measurement
/// noise.
#[derive(Debug)]
pub struct DedicatedEnvironment {
    rng: SimRng,
    cost: CostTracker,
    vm: VmType,
}

impl DedicatedEnvironment {
    /// Creates a dedicated environment on the given VM type.
    pub fn new(vm: VmType, seed: u64) -> Self {
        Self {
            rng: SimRng::new(seed).derive("dedicated"),
            cost: CostTracker::new(),
            vm,
        }
    }

    /// The VM type.
    pub fn vm(&self) -> VmType {
        self.vm
    }

    /// The exact dedicated-environment execution time of a configuration (no noise).
    pub fn true_time(&self, spec: ExecutionSpec) -> f64 {
        spec.base_time() * self.vm.speed_factor()
    }

    /// Measures one run with a small (±0.2 %) measurement noise, charging its cost.
    pub fn measure(&mut self, spec: ExecutionSpec) -> f64 {
        let noise = self.rng.normal_with(1.0, 0.002).clamp(0.99, 1.01);
        let time = self.true_time(spec) * noise;
        self.cost.charge_serial(self.vm, time);
        time
    }

    /// Resources consumed by measurements so far.
    pub fn cost(&self) -> &CostTracker {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn env(seed: u64) -> CloudEnvironment {
        CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), seed)
    }

    #[test]
    fn committed_runs_advance_clock_and_cost() {
        let mut cloud = env(1);
        assert_eq!(cloud.clock(), SimTime::ZERO);
        let spec = ExecutionSpec::new(120.0, 0.5);
        let run = cloud.run_single(spec);
        assert!(run.observed_time >= 110.0, "observed {}", run.observed_time);
        assert!(cloud.clock().as_seconds() > 0.0);
        assert!(cloud.cost().core_hours() > 0.0);
    }

    #[test]
    fn observation_does_not_consume_budget() {
        let cloud = env(2);
        let spec = ExecutionSpec::new(100.0, 0.8);
        let t = cloud.observe_single_at(spec, SimTime::from_seconds(1000.0), 0);
        assert!(t >= 95.0);
        assert_eq!(cloud.cost().core_hours(), 0.0);
    }

    #[test]
    fn observations_are_deterministic() {
        let cloud = env(3);
        let spec = ExecutionSpec::new(150.0, 0.9);
        let a = cloud.observe_single_at(spec, SimTime::from_seconds(2500.0), 7);
        let b = cloud.observe_single_at(spec, SimTime::from_seconds(2500.0), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_observations_vary_with_time() {
        let cloud = env(4);
        let spec = ExecutionSpec::new(200.0, 1.0);
        let samples = cloud.observe_repeated(spec, 40, 1800.0);
        let cov = dg_stats::coefficient_of_variation(&samples);
        assert!(
            cov > 1.0,
            "a sensitive config must show variability, cov={cov}"
        );
        // And everything is at least the dedicated time.
        assert!(samples.iter().all(|t| *t >= 190.0));
    }

    #[test]
    fn insensitive_config_is_stable() {
        let cloud = env(5);
        let sensitive = ExecutionSpec::new(200.0, 1.2);
        let robust = ExecutionSpec::new(200.0, 0.05);
        let cov_sensitive =
            dg_stats::coefficient_of_variation(&cloud.observe_repeated(sensitive, 40, 1800.0));
        let cov_robust =
            dg_stats::coefficient_of_variation(&cloud.observe_repeated(robust, 40, 1800.0));
        assert!(
            cov_robust < cov_sensitive,
            "robust={cov_robust} sensitive={cov_sensitive}"
        );
    }

    #[test]
    fn parallel_commit_advances_clock_by_longest() {
        let mut cloud = env(6);
        let specs_a = vec![ExecutionSpec::new(50.0, 0.3); 4];
        let specs_b = vec![ExecutionSpec::new(100.0, 0.3); 4];
        let a = cloud.play_game(&specs_a, &GameRules::playoff());
        let b = cloud.play_game(&specs_b, &GameRules::playoff());
        let longest = a.elapsed.max(b.elapsed);
        cloud.commit_parallel(&[a, b]);
        assert!((cloud.clock().as_seconds() - longest).abs() < 1e-9);
    }

    #[test]
    fn colocated_players_share_noise() {
        // Two identical specs in one game should finish at nearly the same time (only
        // per-player jitter separates them), whereas two sequential single runs at very
        // different clock times can differ a lot more. We only check the first property,
        // which is the one DarwinGame relies on.
        let mut cloud = env(7);
        let spec = ExecutionSpec::new(300.0, 1.0);
        let play = cloud.play_game(&[spec, spec], &GameRules::playoff());
        let times = &play.observed_times;
        let relative_gap = (times[0] - times[1]).abs() / times[0].max(times[1]);
        assert!(relative_gap < 0.25, "gap {relative_gap}");
    }

    #[test]
    fn single_player_quiet_run_matches_base_time() {
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::Dedicated, 1);
        let play = cloud.play_game(&[ExecutionSpec::new(100.0, 0.5)], &GameRules::default());
        let t = play.observed_times[0];
        // Only measurement noise (±1 % clamp) separates the observation from base time.
        assert!((t - 100.0).abs() < 6.0, "observed {t}");
        assert_eq!(play.execution_scores, [1.0]);
    }

    #[test]
    fn faster_config_wins_under_shared_noise() {
        let mut cloud = env(3);
        cloud.set_clock(SimTime::from_seconds(500.0));
        let specs = [
            ExecutionSpec::new(200.0, 0.6),
            ExecutionSpec::new(400.0, 0.6),
        ];
        let play = cloud.play_game(&specs, &GameRules::playoff());
        assert!(play.observed_times[0] < play.observed_times[1]);
        assert_eq!(play.execution_scores[0], 1.0);
        assert!(play.execution_scores[1] < 1.0);
    }

    #[test]
    fn early_stop_produces_extrapolated_times() {
        // A lopsided game stops by the Fig. 5 rule long before anyone finishes, and each
        // player's time is extrapolated from its work done.
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::Dedicated, 1);
        let specs = [
            ExecutionSpec::new(100.0, 0.2),
            ExecutionSpec::new(300.0, 0.2),
        ];
        let play = cloud.play_game(&specs, &GameRules::default());
        assert!(play.early_terminated);
        assert!(play.elapsed < 50.0, "stopped at {}", play.elapsed);
        let est = &play.observed_times;
        assert!(est[0] > 50.0 && est[0] < 200.0, "estimate {est:?}");
        assert!(est[1] > est[0]);
    }

    #[test]
    fn contention_slows_down_crowded_games() {
        // Same spec run alone vs. packed with 31 co-runners: the crowded one must be slower.
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::Dedicated, 1);
        let spec = ExecutionSpec::new(100.0, 1.0);
        let alone_t = cloud
            .play_game(&[spec], &GameRules::playoff())
            .observed_times[0];
        let crowded_t = cloud
            .play_game(&[spec; 32], &GameRules::playoff())
            .observed_times[0];
        assert!(
            crowded_t > alone_t * 1.1,
            "expected contention slowdown, alone={alone_t}, crowded={crowded_t}"
        );
    }

    #[test]
    fn overload_beyond_vcpus_time_shares() {
        // 4 players on m5.large's 2 vCPUs: roughly 2x slowdown even with zero sensitivity.
        let vm = VmType::M5Large;
        let mut cloud = CloudEnvironment::new(vm, InterferenceProfile::Dedicated, 1);
        let play = cloud.play_game(&[ExecutionSpec::new(100.0, 0.0); 4], &GameRules::playoff());
        let scaled_base = 100.0 * vm.speed_factor();
        for t in &play.observed_times {
            assert!(*t > 1.8 * scaled_base, "observed {t}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        env(1).play_game(&[], &GameRules::default());
    }

    #[test]
    fn vm_speed_factor_applies() {
        let mut fast = CloudEnvironment::new(VmType::C5_9xlarge, InterferenceProfile::Dedicated, 1);
        let mut slow = CloudEnvironment::new(VmType::M5Large, InterferenceProfile::Dedicated, 1);
        let spec = ExecutionSpec::new(100.0, 0.0);
        let tf = fast.run_single(spec).observed_time;
        let ts = slow.run_single(spec).observed_time;
        assert!(tf < ts, "c5 ({tf}) should beat m5.large ({ts})");
    }

    #[test]
    fn dedicated_environment_is_nearly_noise_free() {
        let mut dedicated = DedicatedEnvironment::new(VmType::M5_8xlarge, 9);
        let spec = ExecutionSpec::new(400.0, 1.0);
        assert_eq!(dedicated.true_time(spec), 400.0);
        let samples: Vec<f64> = (0..20).map(|_| dedicated.measure(spec)).collect();
        let cov = dg_stats::coefficient_of_variation(&samples);
        assert!(cov < 0.5, "dedicated CoV should be tiny, got {cov}");
        assert!(dedicated.cost().core_hours() > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_cannot_go_backwards() {
        let mut cloud = env(8);
        cloud.set_clock(SimTime::from_seconds(100.0));
        cloud.set_clock(SimTime::from_seconds(50.0));
    }

    /// Plays `specs` at `env`'s clock through the textbook reference loop, drawing
    /// from `env`'s game RNG stream as [`CloudEnvironment::play_game`] does. Also
    /// returns how many players finished.
    fn reference_game(
        env: &mut CloudEnvironment,
        specs: &[ExecutionSpec],
        rules: &GameRules,
    ) -> (GamePlay, usize) {
        let start = env.clock;
        reference::game(
            env.vm,
            &env.profile,
            env.node_seed,
            start,
            specs,
            &mut env.rng,
            rules,
        )
    }

    fn assert_plays_bit_identical(fast: &GamePlay, reference: &GamePlay, label: &str) {
        assert_eq!(fast.start, reference.start, "{label}: start");
        assert_eq!(
            fast.elapsed.to_bits(),
            reference.elapsed.to_bits(),
            "{label}: elapsed"
        );
        assert_eq!(
            fast.early_terminated, reference.early_terminated,
            "{label}: early_terminated"
        );
        assert_eq!(
            fast.observed_times.len(),
            reference.observed_times.len(),
            "{label}: player count"
        );
        for i in 0..fast.observed_times.len() {
            assert_eq!(
                fast.observed_times[i].to_bits(),
                reference.observed_times[i].to_bits(),
                "{label}: observed_times[{i}]"
            );
            assert_eq!(
                fast.execution_scores[i].to_bits(),
                reference.execution_scores[i].to_bits(),
                "{label}: execution_scores[{i}]"
            );
        }
    }

    #[test]
    fn fast_game_is_bit_identical_to_reference() {
        let rules_default = GameRules::default();
        let rules_playoff = GameRules::playoff();
        for vm in VmType::ALL {
            for profile in [
                InterferenceProfile::typical(),
                InterferenceProfile::heavy(),
                InterferenceProfile::Dedicated,
            ] {
                for seed in [1_u64, 77] {
                    let mut fast_env = CloudEnvironment::new(vm, profile.clone(), seed);
                    let mut ref_env = CloudEnvironment::new(vm, profile.clone(), seed);
                    // Several games back to back so the RNG streams must stay aligned,
                    // with varying player counts including a batch-of-one.
                    for (game, players) in [2_usize, 1, 8, 16, 3].into_iter().enumerate() {
                        let specs: Vec<ExecutionSpec> = (0..players)
                            .map(|i| {
                                ExecutionSpec::new(
                                    60.0 + 40.0 * i as f64,
                                    0.1 + 0.15 * (i % 7) as f64,
                                )
                            })
                            .collect();
                        let rules = if game % 2 == 0 {
                            rules_default
                        } else {
                            rules_playoff
                        };
                        let fast = fast_env.play_game(&specs, &rules);
                        let (reference, _) = reference_game(&mut ref_env, &specs, &rules);
                        assert_plays_bit_identical(
                            &fast,
                            &reference,
                            &format!("{vm:?}/{profile:?}/seed={seed}/game={game}"),
                        );
                        // Advance both clocks identically so later games differ in start.
                        fast_env.commit(&fast);
                        ref_env.commit(&reference);
                        assert_eq!(fast_env.clock(), ref_env.clock());
                    }
                }
            }
        }

        // 64 seeded games whose players are drawn from the paper-scale Redis surface,
        // covering the engine's edge cases: duplicate specs, several players finishing
        // in the same step (a tie at the top of the top-2 scan), more players than
        // vCPUs (overload above 1), and base times under 50 s (the step size clamped to
        // 0.25 s).
        let redis = dg_workloads::Workload::full(dg_workloads::Application::Redis);
        let mut draw = SimRng::new(0x64).derive("paper-scale-battery");
        let draw_spec = |draw: &mut SimRng, scale: f64| {
            let id = ((draw.uniform() * redis.size() as f64) as u64).min(redis.size() - 1);
            let spec = redis.spec(id);
            ExecutionSpec::new(spec.base_time() * scale, spec.sensitivity())
        };
        let (mut duplicates, mut same_step, mut overloaded, mut clamped) = (0, 0, 0, 0);
        for case in 0..64_u64 {
            let vm = VmType::ALL[draw.index(VmType::ALL.len())];
            let profile = [
                InterferenceProfile::typical(),
                InterferenceProfile::heavy(),
                InterferenceProfile::Dedicated,
            ][case as usize % 3]
                .clone();
            let players = 2 + draw.index(15);
            let scale = if case % 4 == 3 { 0.1 } else { 1.0 };
            let mut specs: Vec<ExecutionSpec> =
                (0..players).map(|_| draw_spec(&mut draw, scale)).collect();
            match case % 8 {
                // One spec repeated for the whole game: the players only differ by
                // their jitter and noise draws, so several finish in the same step.
                0 | 5 => specs = vec![specs[0]; players],
                // A few duplicates among distinct specs.
                2 | 7 => {
                    for i in (1..players).step_by(2) {
                        specs[i] = specs[i - 1];
                    }
                }
                _ => {}
            }
            let rules = if case % 3 == 1 {
                rules_playoff
            } else {
                rules_default
            };
            let mut fast_env = CloudEnvironment::new(vm, profile.clone(), case);
            let mut ref_env = CloudEnvironment::new(vm, profile.clone(), case);
            let fast = fast_env.play_game(&specs, &rules);
            let (reference, finished) = reference_game(&mut ref_env, &specs, &rules);
            assert_plays_bit_identical(&fast, &reference, &format!("paper-scale case {case}"));

            duplicates += usize::from((1..players).any(|i| specs[..i].contains(&specs[i])));
            same_step += usize::from(finished >= 2);
            overloaded += usize::from(players > vm.vcpus());
            let min_base = specs
                .iter()
                .map(|s| s.base_time() * vm.speed_factor())
                .fold(f64::INFINITY, f64::min);
            clamped += usize::from(min_base < 50.0);
        }
        for (covered, what) in [
            (duplicates, "duplicate specs"),
            (same_step, "players finishing in the same step"),
            (overloaded, "more players than vCPUs"),
            (clamped, "base times under 50 s"),
        ] {
            assert!(covered > 0, "the paper-scale battery never covers {what}");
        }
    }

    #[test]
    fn game_is_bit_identical_to_reference_at_every_width() {
        // Widths 1-33 cover every remainder of the packed rate pass and of the four-lane
        // top-2 scan. Each width plays on every VM (2 to 96 vCPUs, so overload too),
        // the profile cycling with the VM and the rule set with the width; a minimum
        // leader progress of 1.0 lets only a finisher trigger early termination, on
        // the very step it finishes.
        let finisher_rules = GameRules {
            min_leader_progress: 1.0,
            ..GameRules::default()
        };
        let mut draw = SimRng::new(0x21).derive("width-battery");
        let (mut early, mut early_on_finish, mut overloaded_ragged) = (0, 0, 0);
        for players in 1..=33_usize {
            for (v, vm) in VmType::ALL.into_iter().enumerate() {
                let case = players * VmType::ALL.len() + v;
                let profile = [
                    InterferenceProfile::typical(),
                    InterferenceProfile::heavy(),
                    InterferenceProfile::Dedicated,
                ][v % 3]
                    .clone();
                let rules =
                    [GameRules::default(), GameRules::playoff(), finisher_rules][players % 3];
                let specs: Vec<ExecutionSpec> = (0..players)
                    .map(|_| {
                        ExecutionSpec::new(30.0 + 270.0 * draw.uniform(), 1.2 * draw.uniform())
                    })
                    .collect();
                let mut fast_env = CloudEnvironment::new(vm, profile.clone(), case as u64);
                let mut ref_env = CloudEnvironment::new(vm, profile, case as u64);
                let fast = fast_env.play_game(&specs, &rules);
                let (reference, finished) = reference_game(&mut ref_env, &specs, &rules);
                assert_plays_bit_identical(
                    &fast,
                    &reference,
                    &format!("{vm:?} with {players} players, case {case}"),
                );

                early += usize::from(reference.early_terminated);
                early_on_finish += usize::from(reference.early_terminated && finished > 0);
                overloaded_ragged += usize::from(players > vm.vcpus() && players % 4 != 0);
            }
        }
        for (covered, what) in [
            (early, "an early-terminated game"),
            (early_on_finish, "early termination on a finishing step"),
            (
                overloaded_ragged,
                "an overloaded game of a width not a multiple of 4",
            ),
        ] {
            assert!(covered > 0, "the width battery never covers {what}");
        }
    }

    #[test]
    fn top_two_counts_ties_and_every_lane() {
        assert_eq!(top_two(&[0.3]), (0.3, f64::NEG_INFINITY));
        assert_eq!(top_two(&[0.5, 0.5]), (0.5, 0.5));
        for players in 1..=13 {
            for leader in 0..players {
                let mut work = vec![0.1; players];
                work[leader] = 0.9;
                let second = if players > 1 { 0.1 } else { f64::NEG_INFINITY };
                assert_eq!(top_two(&work), (0.9, second), "{players} players");
                if players > 1 {
                    let runner_up = (leader + 1) % players;
                    work[runner_up] = 0.7;
                    assert_eq!(top_two(&work), (0.9, 0.7), "{players} players");
                    work[runner_up] = 0.9;
                    assert_eq!(top_two(&work), (0.9, 0.9), "{players} players");
                }
            }
        }
    }

    #[test]
    fn fast_solo_run_is_bit_identical_to_reference() {
        for seed in [2_u64, 13, 101] {
            let mut fast_env = env(seed);
            let mut ref_env = env(seed);
            for i in 0..6 {
                let spec = ExecutionSpec::new(50.0 + 30.0 * i as f64, 0.2 + 0.1 * i as f64);
                let fast = fast_env.run_single(spec);
                // The same run as a one-player reference game, committed.
                let (reference, _) = reference_game(&mut ref_env, &[spec], &GameRules::playoff());
                ref_env.commit(&reference);
                assert_eq!(
                    fast.observed_time.to_bits(),
                    reference.observed_times[0].to_bits()
                );
                assert_eq!(fast.elapsed.to_bits(), reference.elapsed.to_bits());
                assert_eq!(fast.started_at, reference.start);
                assert_eq!(fast_env.clock(), ref_env.clock());
                assert_eq!(
                    fast_env.cost().core_hours().to_bits(),
                    ref_env.cost().core_hours().to_bits()
                );
            }
        }
    }

    #[test]
    fn fast_observation_is_bit_identical_to_reference() {
        for seed in [3_u64, 29] {
            let cloud = env(seed);
            for salt in 0..5_u64 {
                for i in 0..4 {
                    let spec = ExecutionSpec::new(80.0 + 25.0 * i as f64, 0.3 + 0.2 * i as f64);
                    let start = SimTime::from_seconds(500.0 * (salt + 1) as f64);
                    let fast = cloud.observe_single_at(spec, start, salt);
                    // The same observation as a one-player reference game.
                    let mut ref_rng = SimRng::new(cloud.node_seed)
                        .derive_index(salt)
                        .derive("observe");
                    let (reference, _) = reference::game(
                        cloud.vm,
                        &cloud.profile,
                        cloud.node_seed,
                        start,
                        &[spec],
                        &mut ref_rng,
                        &GameRules::playoff(),
                    );
                    assert_eq!(fast.to_bits(), reference.observed_times[0].to_bits());
                }
            }
        }
    }
}
