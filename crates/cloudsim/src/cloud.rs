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
    /// Wall-clock seconds the run occupied (and was charged for) on its node. A run
    /// that finishes stops at its finish instant, so this equals `observed_time`; a run
    /// cut at the cap of 64 times its base time stops there and observes more. This is
    /// the exact value the cost tracker saw, which record/replay execution backends need
    /// to reproduce accounting bit for bit.
    pub elapsed: f64,
}

/// The paper's work-done deviation `d` (Fig. 5): a game may stop once the leader is
/// this fraction of the work ahead of the runner-up, and a region advances every player
/// within this fraction of its best average execution score.
pub const WORK_DONE_DEVIATION: f64 = 0.10;

/// The fraction of its work the leader must have completed before a game may stop
/// early (Fig. 5).
pub const MIN_LEADER_PROGRESS: f64 = 0.25;

/// How a co-located game is driven.
///
/// These are the game-termination rules of Fig. 5 of the paper: the game runs until the
/// fastest player completes, or — when early termination is enabled and the leader has
/// completed at least `min_leader_progress` of its work — until the work-done gap
/// between the leader and the runner-up exceeds `work_done_deviation`. The default is
/// the paper's rule, [`WORK_DONE_DEVIATION`] and [`MIN_LEADER_PROGRESS`] with early
/// termination on.
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
            work_done_deviation: WORK_DONE_DEVIATION,
            min_leader_progress: MIN_LEADER_PROGRESS,
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
    /// cost tracker): the instant the first player finished, the instant the Fig. 5
    /// rule fired, or the cap, whichever came first. The engine integrates exactly
    /// between the interference's breakpoints (see [`CloudEnvironment::play_game`]), so
    /// a finished game's `elapsed` is its smallest observed time, with no overshoot.
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

/// Nodes of the four-point Gauss–Legendre rule on `[-1, 1]`, ascending:
/// `±sqrt(3/7 ± (2/7) sqrt(6/5))`.
const NODES: [f64; NODE_COUNT] = [
    -0.8611363115940526,
    -0.3399810435848563,
    0.3399810435848563,
    0.8611363115940526,
];

/// The weights of [`NODES`]: `(18 ∓ sqrt(30)) / 36`.
const WEIGHTS: [f64; NODE_COUNT] = [
    0.34785484513745385,
    0.6521451548625461,
    0.6521451548625461,
    0.34785484513745385,
];

/// Interference samples per piece.
const NODE_COUNT: usize = 4;

/// The longest piece, as a multiple of the fastest player's scaled base time, so that
/// no game interpolates its end from nodes far past it.
const MAX_PIECE: f64 = 1.0;

/// Evenly spaced instants per piece at which the work-done gap is checked, once the
/// leader has reached `min_leader_progress`.
const GAP_CHECKS: usize = 4;

/// The latest instant an operation may reach, 2^53 s (about 285 million years): below
/// it, f64 resolves every whole second, so each piece's breakpoint lies past its start.
/// Near 10^19 s the next breakpoint rounds back onto the start and no piece would ever
/// advance.
const MAX_CLOCK_SECONDS: f64 = (1u64 << 53) as f64;

/// `1 / prod(NODES[j] - NODES[m], m != j)`: the denominators of the Lagrange basis.
const BASIS_SCALE: [f64; NODE_COUNT] = [
    1.0 / ((NODES[0] - NODES[1]) * (NODES[0] - NODES[2]) * (NODES[0] - NODES[3])),
    1.0 / ((NODES[1] - NODES[0]) * (NODES[1] - NODES[2]) * (NODES[1] - NODES[3])),
    1.0 / ((NODES[2] - NODES[0]) * (NODES[2] - NODES[1]) * (NODES[2] - NODES[3])),
    1.0 / ((NODES[3] - NODES[0]) * (NODES[3] - NODES[1]) * (NODES[3] - NODES[2])),
];

/// The Lagrange basis of [`NODES`] at `u`: the weights that interpolate values at the
/// nodes to `u`.
fn basis(u: f64) -> [f64; NODE_COUNT] {
    let d = NODES.map(|x| u - x);
    [
        BASIS_SCALE[0] * d[1] * d[2] * d[3],
        BASIS_SCALE[1] * d[0] * d[2] * d[3],
        BASIS_SCALE[2] * d[0] * d[1] * d[3],
        BASIS_SCALE[3] * d[0] * d[1] * d[2],
    ]
}

/// The integrals of the [`basis`] from -1 to `u`: the weights that integrate the
/// interpolant of values at the nodes over `[-1, u]`. Each basis polynomial is a cubic,
/// so the two-point Gauss–Legendre rule on `[-1, u]` is exact.
fn basis_integral(u: f64) -> [f64; NODE_COUNT] {
    let half = (u + 1.0) / 2.0;
    let (middle, offset) = ((u - 1.0) / 2.0, half / 3.0_f64.sqrt());
    let (left, right) = (basis(middle - offset), basis(middle + offset));
    std::array::from_fn(|j| half * (left[j] + right[j]))
}

/// The Fig. 5 work-done gap between the leader's and the runner-up's work: the
/// runner-up's shortfall relative to the leader.
fn gap(leader: f64, runner_up: f64) -> f64 {
    if leader > 0.0 {
        (leader - runner_up.max(0.0)) / leader
    } else {
        0.0
    }
}

fn dot(a: &[f64; NODE_COUNT], b: &[f64; NODE_COUNT]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// Writes every player's work done at one instant of the current piece of half-length
/// `h` into `out`: `progress + h * dot(rates, weights)`, where `weights` integrate the
/// nodes up to the instant ([`basis_integral`]). It is one straight pass down the
/// node-major `rates` columns, and each player's sum runs over the nodes in [`dot`]'s
/// order, so every player's work has `dot`'s bits.
fn work_at(
    progress: &[f64],
    rates: &[Vec<f64>; NODE_COUNT],
    h: f64,
    weights: &[f64; NODE_COUNT],
    out: &mut [f64],
) {
    let players = out.len();
    let progress = &progress[..players];
    let [r0, r1, r2, r3] = rates.each_ref().map(|column| &column[..players]);
    for i in 0..players {
        let sum = r0[i] * weights[0] + r1[i] * weights[1] + r2[i] * weights[2] + r3[i] * weights[3];
        out[i] = progress[i] + h * sum;
    }
}

/// The leader and the runner-up among `contenders` by `work`, as `(index, work)`,
/// counted with multiplicity (two equal leaders give the pair): the leader is the first
/// contender with the most work, and the runner-up the first with the most among the
/// others. Each contender updates both places through selects on two strict `>`
/// comparisons, so a tie keeps the earlier contender. With fewer than two contenders, a
/// missing place is `(usize::MAX, -inf)`.
fn top_two(work: &[f64], contenders: &[usize]) -> ((usize, f64), (usize, f64)) {
    let (mut leader, mut leader_work) = (usize::MAX, f64::NEG_INFINITY);
    let (mut runner_up, mut runner_up_work) = (usize::MAX, f64::NEG_INFINITY);
    for &i in contenders {
        let w = work[i];
        let (leads, runs_up) = (w > leader_work, w > runner_up_work);
        // The runner-up if `w` does not lead: `w` if it beats the runner-up.
        let (next, next_work) = if runs_up {
            (i, w)
        } else {
            (runner_up, runner_up_work)
        };
        // A new leader hands the old one down to runner-up.
        (runner_up, runner_up_work) = if leads {
            (leader, leader_work)
        } else {
            (next, next_work)
        };
        (leader, leader_work) = if leads { (i, w) } else { (leader, leader_work) };
    }
    ((leader, leader_work), (runner_up, runner_up_work))
}

/// The root in `[lo, hi]` of `f(u) = c + h * q · basis_integral(u)`, whose slope is
/// `h * q · basis(u)`, given `f(lo) < 0 <= f(hi)` and both values: Newton steps from
/// the secant's root, kept inside the shrinking bracket by bisection. Newton converges
/// quadratically, so once a step is under `1e-7`, what is left is far below the
/// rounding of an instant.
fn root(
    c: f64,
    h: f64,
    q: &[f64; NODE_COUNT],
    (mut lo, f_lo): (f64, f64),
    (mut hi, f_hi): (f64, f64),
) -> f64 {
    let mut u = if f_hi > f_lo {
        (lo - f_lo * (hi - lo) / (f_hi - f_lo)).clamp(lo, hi)
    } else {
        hi
    };
    for _ in 0..64 {
        let value = c + h * dot(q, &basis_integral(u));
        if value < 0.0 {
            lo = u;
        } else {
            hi = u;
        }
        let step = value / (h * dot(q, &basis(u)));
        let next = u - step;
        if !(next > lo && next < hi) {
            u = lo + (hi - lo) / 2.0;
            if lo == u || u == hi {
                return u;
            }
        } else if step.abs() <= 1e-7 {
            return next;
        } else {
            u = next;
        }
    }
    u
}

/// Reusable per-game buffers for the game engine, one flat column per per-player
/// quantity, cleared and refilled per game, so steady-state games allocate nothing
/// but their returned observation vectors.
#[derive(Debug, Default)]
struct GameScratch {
    /// Per player, the rate without interference: `N / (O * base)`.
    scale: Vec<f64>,
    /// Per player, the slowdown per unit of shared interference: `sensitivity * J`.
    weight: Vec<f64>,
    /// Work done per player at the start of the piece.
    progress: Vec<f64>,
    /// The players' rates at the piece's nodes, one column per node: `rates[j][i]` is
    /// player `i`'s rate at node `j`, so every player's work at an instant is one
    /// straight pass down the columns ([`work_at`]).
    rates: [Vec<f64>; NODE_COUNT],
    /// Work done per player at the end of the piece.
    end: Vec<f64>,
    /// Work done per player at the instant the piece stops at (its end, a finish or
    /// the Fig. 5 rule's instant).
    work: Vec<f64>,
    /// Work done per player at an early-termination check inside the piece.
    check: Vec<f64>,
    /// Observed time per player, once the game is over.
    observed: Vec<f64>,
    /// The players that can lead or run up inside the current piece.
    contenders: Vec<usize>,
}

impl GameScratch {
    /// Plays `specs` on `vm` from `start` under `rules`, as
    /// [`CloudEnvironment::play_game`] describes, drawing each player's jitter and then
    /// each player's noise from `rng`. Leaves the observed times in `observed` and
    /// returns `(elapsed, early_terminated)`.
    fn play(
        &mut self,
        sampler: &InterferenceSampler,
        vm: VmType,
        start: SimTime,
        specs: &[ExecutionSpec],
        rng: &mut SimRng,
        rules: &GameRules,
    ) -> (f64, bool) {
        let players = specs.len();
        let vcpus = vm.vcpus();
        let contention = CONTENTION_COEFF * (players - 1) as f64 / vcpus as f64;
        let overload = if players > vcpus {
            players as f64 / vcpus as f64
        } else {
            1.0
        };
        // The scaled specs, then every player's jitter, then every player's noise.
        self.scale.clear();
        self.weight.clear();
        for spec in specs {
            let scaled = spec.scaled(vm.speed_factor());
            self.scale.push(scaled.base_time());
            self.weight.push(scaled.sensitivity());
        }
        let fastest = self.scale.iter().copied().fold(f64::INFINITY, f64::min);
        for weight in &mut self.weight {
            *weight *= rng.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4);
        }
        for scale in &mut self.scale {
            let noise = rng
                .normal_with(1.0, MEASUREMENT_NOISE_STD)
                .clamp(0.99, 1.01);
            *scale = noise / (overload * *scale);
        }
        for column in [
            &mut self.progress,
            &mut self.end,
            &mut self.work,
            &mut self.check,
        ]
        .into_iter()
        .chain(&mut self.rates)
        {
            column.clear();
            column.resize(players, 0.0);
        }

        let interference_factor = vm.interference_factor();
        let cap = specs
            .iter()
            .map(ExecutionSpec::base_time)
            .fold(0.0_f64, f64::max)
            * MAX_RUN_MULTIPLIER;
        // No piece is shorter than a billionth of the cap, so none rounds away.
        let max_piece = (fastest * MAX_PIECE).max(cap * 1e-9);
        let start_seconds = start.as_seconds();
        assert!(
            start_seconds + cap < MAX_CLOCK_SECONDS,
            "the engine cannot run an operation that starts at {start_seconds:e} s: it could \
             run past 2^53 s, where the clock no longer advances"
        );
        let check_early = rules.early_termination && players > 1;

        let mut a = 0.0_f64;
        loop {
            // The piece `[a, b]`, mapped to `u` in `[-1, 1]` by `t = a + h * (1 + u)`.
            let mut breakpoint = sampler.next_breakpoint(start_seconds + a);
            while breakpoint - start_seconds <= a {
                // A breakpoint that rounds onto the piece's start starts no piece.
                breakpoint = sampler.next_breakpoint(breakpoint);
            }
            let b = (breakpoint - start_seconds).min(a + max_piece).min(cap);
            let h = (b - a) / 2.0;
            let seconds = NODES.map(|x| start_seconds + a + h * (1.0 + x));
            let mut levels = [0.0; NODE_COUNT];
            sampler.levels_at_seconds(&seconds, &mut levels);
            let shared = levels.map(|level| (level * interference_factor + contention).max(0.0));
            // Each player's rates at the nodes go into the columns, and its work at the
            // piece's end is summed from them while they are at hand.
            let [r0, r1, r2, r3] = self.rates.each_mut().map(|column| &mut column[..players]);
            let (scale, weight) = (&self.scale[..players], &self.weight[..players]);
            let (progress, end) = (&self.progress[..players], &mut self.end[..players]);
            for i in 0..players {
                let (scale, weight) = (scale[i], weight[i]);
                let rates = shared.map(|shared| scale / (1.0 + weight * shared));
                [r0[i], r1[i], r2[i], r3[i]] = rates;
                end[i] = progress[i] + h * dot(&WEIGHTS, &rates);
            }

            // The first finish in the piece, if any.
            let finish = self.first_crossing(1.0, h, 1.0, &self.end);
            let mut finisher = finish.map(|(i, _)| i);
            let mut stop = finish.map_or(1.0, |(_, u)| u);
            self.fill_work(h, stop, finisher);

            let mut early_terminated = false;
            if check_early {
                if let Some(u) = self.early_stop(h, stop, rules) {
                    early_terminated = true;
                    if u < stop {
                        stop = u;
                        finisher = None;
                        self.fill_work(h, stop, None);
                    }
                }
            }

            let elapsed = if stop == 1.0 { b } else { a + h * (1.0 + stop) };
            if finisher.is_some() || early_terminated || b >= cap {
                self.observed.clear();
                for &work in &self.work {
                    self.observed.push(if work >= 1.0 {
                        elapsed
                    } else if work > 0.0 {
                        elapsed / work
                    } else {
                        f64::INFINITY
                    });
                }
                return (elapsed, early_terminated);
            }
            std::mem::swap(&mut self.progress, &mut self.end);
            a = b;
        }
    }

    /// The first player whose work reaches `target` by `hi` in the current piece of
    /// half-length `h`, and the `u` at which it does, given every player's work
    /// `reached` at `hi`. The leader at `hi` is solved for first; another player can
    /// only cross earlier if it has reached `target` by then.
    fn first_crossing(
        &self,
        target: f64,
        h: f64,
        hi: f64,
        reached: &[f64],
    ) -> Option<(usize, f64)> {
        let mut leader = 0;
        for (i, &work) in reached.iter().enumerate() {
            if work > reached[leader] {
                leader = i;
            }
        }
        if reached[leader] < target {
            return None;
        }
        let solve = |i: usize, hi: f64, at_hi: f64| {
            let c = self.progress[i] - target;
            root(c, h, &self.rates_of(i), (-1.0, c), (hi, at_hi - target))
        };
        let mut first = (leader, solve(leader, hi, reached[leader]));
        let mut weights = basis_integral(first.1);
        for (i, &work) in reached.iter().enumerate() {
            if i != leader && work >= target {
                let at_first = self.progress[i] + h * dot(&self.rates_of(i), &weights);
                if at_first >= target {
                    first = (i, solve(i, first.1, at_first));
                    weights = basis_integral(first.1);
                }
            }
        }
        Some(first)
    }

    /// Player `i`'s rates at the piece's nodes.
    fn rates_of(&self, i: usize) -> [f64; NODE_COUNT] {
        std::array::from_fn(|j| self.rates[j][i])
    }

    /// Player `i`'s work done at `u` of the current piece of half-length `h`.
    fn progress_at(&self, i: usize, h: f64, u: f64) -> f64 {
        self.progress[i] + h * dot(&self.rates_of(i), &basis_integral(u))
    }

    /// Fills `work` with every player's work done at `u`: `end` at the piece's end, and
    /// exactly 1 for every player whose work reaches the `finisher`'s.
    fn fill_work(&mut self, h: f64, u: f64, finisher: Option<usize>) {
        if u == 1.0 {
            self.work.copy_from_slice(&self.end);
        } else {
            work_at(
                &self.progress,
                &self.rates,
                h,
                &basis_integral(u),
                &mut self.work,
            );
        }
        if let Some(finisher) = finisher {
            let done = self.work[finisher];
            for work in &mut self.work {
                if *work >= done {
                    *work = 1.0;
                }
            }
        }
    }

    /// The first `u` in the current piece, up to `stop`, at which the Fig. 5 rule ends
    /// the game, given `work` at `stop`; `None` when it does not fire.
    ///
    /// The leader's work never decreases, so nothing fires before the first instant
    /// `from` at which some player reaches `min_leader_progress`, which the players'
    /// crossings give exactly. The gap is checked there and at [`GAP_CHECKS`] instants
    /// up to `stop`; at the first check where it has opened, the instant at which the
    /// leader's and the runner-up's work cross the gap's threshold is solved for. Work
    /// never decreases, so a player whose work at `stop` is below the runner-up's at
    /// `from` is out of the top two up to `stop`, and the later checks skip it. Each
    /// check is one [`top_two_at`](Self::top_two_at): at an interior instant it
    /// evaluates every player's work, the skipped ones too, in one straight pass down
    /// the rate columns, and then scans only the contenders.
    fn early_stop(&mut self, h: f64, stop: f64, rules: &GameRules) -> Option<f64> {
        let threshold = rules.min_leader_progress;
        let players = self.work.len();
        if self.work.iter().all(|&work| work < threshold) {
            return None;
        }
        self.contenders.clear();
        self.contenders.extend(0..players);
        let (from, runner_up) = if self.progress.iter().any(|&work| work >= threshold) {
            let (_, runner_up) = self.top_two_at(h, -1.0, stop);
            (-1.0, runner_up.1)
        } else {
            let from = if threshold >= 1.0 {
                // Only a finisher reaches it, at `stop`.
                stop
            } else {
                self.first_crossing(threshold, h, stop, &self.work)
                    .expect("the leader reaches the threshold by `stop`")
                    .1
            };
            let (leader, runner_up) = self.top_two_at(h, from, stop);
            if gap(leader.1, runner_up.1) >= rules.work_done_deviation {
                return Some(from);
            }
            (from, runner_up.1)
        };
        let work = &self.work;
        self.contenders.retain(|&i| work[i] >= runner_up);

        let mut previous = from;
        for check in 1..=GAP_CHECKS {
            let u = if check == GAP_CHECKS {
                stop
            } else {
                from + (stop - from) * check as f64 / GAP_CHECKS as f64
            };
            let (leader, runner_up) = self.top_two_at(h, u, stop);
            if gap(leader.1, runner_up.1) >= rules.work_done_deviation {
                // Solve `(1 - d) * leader's work - runner-up's work = 0` on
                // `[previous, u]`.
                let keep = 1.0 - rules.work_done_deviation;
                let (l, r) = (leader.0, runner_up.0);
                let c = keep * self.progress[l] - self.progress[r];
                let q = std::array::from_fn(|j| keep * self.rates[j][l] - self.rates[j][r]);
                let at = |u: f64| keep * self.progress_at(l, h, u) - self.progress_at(r, h, u);
                let (at_previous, at_u) = (at(previous), keep * leader.1 - runner_up.1);
                return Some(root(c, h, &q, (previous, at_previous), (u, at_u)));
            }
            previous = u;
        }
        None
    }

    /// The [`top_two`] contenders at `u` of the current piece of half-length `h`. Their
    /// work is read from `work` at `stop` and from `progress` at -1; at any other
    /// instant, every player's work is first evaluated into `check` in one [`work_at`]
    /// pass, which gives each the bits `progress_at` would. Needs two contenders.
    fn top_two_at(&mut self, h: f64, u: f64, stop: f64) -> ((usize, f64), (usize, f64)) {
        let work = if u == stop {
            &self.work
        } else if u == -1.0 {
            &self.progress
        } else {
            work_at(
                &self.progress,
                &self.rates,
                h,
                &basis_integral(u),
                &mut self.check,
            );
            &self.check
        };
        top_two(work, &self.contenders)
    }
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

    /// Runs a single configuration alone on the node, committing its cost: a
    /// one-player [`play_game`](Self::play_game) under [`GameRules::playoff`], drawing
    /// the same two normals from the game RNG stream.
    pub fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let started_at = self.clock;
        let (elapsed, _) = self.scratch.play(
            &self.sampler,
            self.vm,
            started_at,
            std::slice::from_ref(&spec),
            &mut self.rng,
            &GameRules::playoff(),
        );
        self.commit_elapsed(elapsed);
        ObservedRun {
            observed_time: self.scratch.observed[0],
            started_at,
            elapsed,
        }
    }

    /// Plays one co-located game among `specs` under `rules`, starting at the current
    /// clock, over the node's [`InterferenceSampler`].
    ///
    /// The physics: each player draws a contention jitter `J` (normal around 1 with
    /// standard deviation 0.15, clamped to `[0.6, 1.4]`), then each player a measurement
    /// noise `N` (0.003, clamped to `[0.99, 1.01]`). A player's work fraction grows at
    /// the rate `N / (base * slowdown * O)`, where the slowdown is
    /// `1 + sensitivity * max(0, (I * f + C) * J)`, `I` is the node's level at that
    /// instant, `f` the VM's interference factor, `C = 0.35 * (players - 1) / vcpus` the
    /// co-location contention and `O = max(1, players / vcpus)` the time-sharing
    /// overload. The game stops at the instant the first player's work reaches 1, once
    /// 64 times the slowest unscaled base time has elapsed, or at the instant the Fig. 5
    /// early-termination rule of [`GameRules`] fires. A player that finished observes
    /// that instant, which is also `elapsed`; every other player observes
    /// `elapsed / work done`.
    ///
    /// **Integration.** The level is smooth between its breakpoints (value-noise cells,
    /// regime and burst epochs, and burst edges; see [`InterferenceSampler`]), so the
    /// game is integrated piece by piece between them, no piece longer than the fastest
    /// player's scaled base time. Each piece samples the level once at the four
    /// Gauss–Legendre nodes, and every player's rate at those four levels; the four-point
    /// rule gives each player's work at the piece's end. Inside a piece, work is the
    /// integral of the cubic that interpolates the four rates, so a finish instant is a
    /// root of that integral, found by safeguarded Newton steps, and no instant samples
    /// the level again. Early termination needs the leader at `min_leader_progress`,
    /// whose first crossing is solved for exactly; from there the gap is checked at that
    /// instant and at four instants per piece, and where it has opened, the instant the
    /// leader's and the runner-up's work cross the threshold is solved for. A game that
    /// ends with a finisher and the rule met at that instant is both.
    ///
    /// **Error budget.** The crate's tests compare the engine with a fixed-step
    /// reference 64 times finer than the old 200-step rule. On 7,200 games and 20,000
    /// solo runs, the observed-time error must stay at most 0.05% at p99 and 1% at most,
    /// winner and early-termination flips in at most 0.04% of games, and the `elapsed`
    /// error at p99 no larger than the old rule's (see `budget.rs`). It measured
    /// 0.0036% at p99 and 0.015% at most, with no flips, where the old rule measured
    /// 0.21% and 0.91%. The game is *uncommitted*: cost and clock are untouched until
    /// the play is passed to [`commit`](Self::commit) or
    /// [`commit_parallel`](Self::commit_parallel).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        assert!(!specs.is_empty(), "a game needs at least one player");
        let start = self.clock;
        let (elapsed, early_terminated) =
            self.scratch
                .play(&self.sampler, self.vm, start, specs, &mut self.rng, rules);
        let observed_times = self.scratch.observed.clone();
        let best = observed_times.iter().copied().fold(f64::INFINITY, f64::min);
        let execution_scores = if !best.is_finite() || best <= 0.0 {
            vec![0.0; observed_times.len()]
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

    /// Observes a single run of `spec` starting at `start`, *without* committing cost or
    /// advancing the clock: a one-player playoff game, like
    /// [`run_single`](Self::run_single), whose draws come from a stream of their own.
    ///
    /// This models measuring the performance of an already-tuned application at an
    /// arbitrary later time (the repeated-execution measurements behind Fig. 11 and the
    /// error bars of Fig. 10). The `salt` decorrelates the per-run measurement jitter of
    /// repeated observations at the same start time.
    pub fn observe_single_at(&self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let mut rng = SimRng::new(self.node_seed)
            .derive_index(salt)
            .derive("observe");
        let mut scratch = GameScratch::default();
        scratch.play(
            &self.sampler,
            self.vm,
            start,
            std::slice::from_ref(&spec),
            &mut rng,
            &GameRules::playoff(),
        );
        scratch.observed[0]
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
}

#[cfg(test)]
impl CloudEnvironment {
    /// Plays `specs` at the clock through the fixed-step reference at step `divisor`
    /// (see `reference::game`), drawing from the game RNG stream as
    /// [`play_game`](Self::play_game) does. Also returns how many players finished.
    pub(crate) fn reference_game(
        &mut self,
        specs: &[ExecutionSpec],
        rules: &GameRules,
        divisor: f64,
    ) -> (GamePlay, usize) {
        crate::reference::game(
            self.vm,
            &self.profile,
            self.node_seed,
            self.clock,
            specs,
            &mut self.rng,
            rules,
            divisor,
        )
    }

    /// [`observe_single_at`](Self::observe_single_at) through the fixed-step reference
    /// at step `divisor`: the same draws, as a one-player playoff game.
    pub(crate) fn reference_probe(
        &self,
        spec: ExecutionSpec,
        start: SimTime,
        salt: u64,
        divisor: f64,
    ) -> f64 {
        let mut rng = SimRng::new(self.node_seed)
            .derive_index(salt)
            .derive("observe");
        let (play, _) = crate::reference::game(
            self.vm,
            &self.profile,
            self.node_seed,
            start,
            &[spec],
            &mut rng,
            &GameRules::playoff(),
            divisor,
        );
        play.observed_times[0]
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

    /// The fixed-step reference's divisor in the engine batteries: 4 times finer than
    /// the old 200-step rule, so that the batteries' debug runtime stays within a few
    /// times the old bit-identity batteries'.
    const FINE_DIVISOR: f64 = 800.0;

    /// Relative tolerance of an observed time against the reference at
    /// [`FINE_DIVISOR`]: 0.2%, a fifth of the ±1% measurement-noise clamp. The
    /// reference reads the level at each step's start, so its own error is first order
    /// in the step. Its worst case in these batteries, 0.13%, is a 21 s game that a
    /// burst starts 3 s into; the reference converges onto the engine there as its
    /// divisor grows.
    const OBSERVED_TOLERANCE: f64 = 2e-3;

    /// `|got - want| / want`.
    fn relative(got: f64, want: f64) -> f64 {
        (got - want).abs() / want
    }

    /// Checks an engine play against the fine reference's play of the same draws:
    /// every observed time and execution score within [`OBSERVED_TOLERANCE`], the same
    /// early-termination verdict, and `elapsed` within one reference step plus the
    /// tolerance, because the reference stops only at the end of a step.
    fn assert_play_matches(
        vm: VmType,
        specs: &[ExecutionSpec],
        got: &GamePlay,
        want: &GamePlay,
        label: &str,
    ) {
        assert_eq!(got.start, want.start, "{label}: start");
        assert_eq!(
            got.early_terminated, want.early_terminated,
            "{label}: early_terminated"
        );
        assert_eq!(got.players(), want.players(), "{label}: player count");
        for i in 0..got.players() {
            let (g, w) = (got.observed_times[i], want.observed_times[i]);
            assert!(
                relative(g, w) <= OBSERVED_TOLERANCE,
                "{label}: observed_times[{i}] {g} against {w}"
            );
            let (g, w) = (got.execution_scores[i], want.execution_scores[i]);
            assert!(
                (g - w).abs() <= 2.0 * OBSERVED_TOLERANCE,
                "{label}: execution_scores[{i}] {g} against {w}"
            );
        }
        let fastest = specs
            .iter()
            .map(|s| s.base_time() * vm.speed_factor())
            .fold(f64::INFINITY, f64::min);
        let step = fastest.max(50.0) / FINE_DIVISOR;
        assert!(
            (got.elapsed - want.elapsed).abs() <= step + OBSERVED_TOLERANCE * want.elapsed,
            "{label}: elapsed {} against {}",
            got.elapsed,
            want.elapsed
        );
    }

    #[test]
    fn game_matches_fine_reference() {
        // Five games back to back on every VM under three profiles, so that the engine
        // and the reference must consume the game RNG stream alike.
        for vm in VmType::ALL {
            for profile in [
                InterferenceProfile::typical(),
                InterferenceProfile::heavy(),
                InterferenceProfile::Dedicated,
            ] {
                let mut engine_env = CloudEnvironment::new(vm, profile.clone(), 77);
                let mut ref_env = CloudEnvironment::new(vm, profile.clone(), 77);
                for (game, players) in [2_usize, 1, 8, 16, 3].into_iter().enumerate() {
                    let specs: Vec<ExecutionSpec> = (0..players)
                        .map(|i| {
                            ExecutionSpec::new(60.0 + 40.0 * i as f64, 0.1 + 0.15 * (i % 7) as f64)
                        })
                        .collect();
                    let rules = if game % 2 == 0 {
                        GameRules::default()
                    } else {
                        GameRules::playoff()
                    };
                    let got = engine_env.play_game(&specs, &rules);
                    let (want, _) = ref_env.reference_game(&specs, &rules, FINE_DIVISOR);
                    assert_play_matches(
                        vm,
                        &specs,
                        &got,
                        &want,
                        &format!("{vm:?}/{profile:?}/game={game}"),
                    );
                    // Both clocks advance by the engine's play, so later games start alike.
                    engine_env.commit(&got);
                    ref_env.commit(&got);
                }
            }
        }

        // 64 seeded games whose players are drawn from the paper-scale Redis surface,
        // covering duplicate specs, players finishing close together, more players than
        // vCPUs (overload above 1), and base times under 50 s (the reference's step
        // clamped to its floor); then one built close finish per VM.
        let redis = dg_workloads::Workload::full(dg_workloads::Application::Redis);
        let mut draw = SimRng::new(0x64).derive("paper-scale-battery");
        let draw_spec = |draw: &mut SimRng, scale: f64| {
            let id = ((draw.uniform() * redis.size() as f64) as u64).min(redis.size() - 1);
            let spec = redis.spec(id);
            ExecutionSpec::new(spec.base_time() * scale, spec.sensitivity())
        };
        let (mut duplicates, mut close_finish, mut overloaded, mut clamped) = (0, 0, 0, 0);
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
                // their jitter and noise draws, so several finish close together.
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
                GameRules::playoff()
            } else {
                GameRules::default()
            };
            let got = CloudEnvironment::new(vm, profile.clone(), case).play_game(&specs, &rules);
            let (want, finished) = CloudEnvironment::new(vm, profile, case).reference_game(
                &specs,
                &rules,
                FINE_DIVISOR,
            );
            assert_play_matches(vm, &specs, &got, &want, &format!("paper-scale case {case}"));

            duplicates += usize::from((1..players).any(|i| specs[..i].contains(&specs[i])));
            close_finish += usize::from(finished >= 2);
            overloaded += usize::from(players > vm.vcpus());
            let min_base = specs
                .iter()
                .map(|s| s.base_time() * vm.speed_factor())
                .fold(f64::INFINITY, f64::min);
            clamped += usize::from(min_base < 50.0);
        }
        // Players finishing at the same instant, by construction on every VM: a surface
        // spec, and a second player whose base time and sensitivity cancel this game's
        // draws, `base * N_b / N_a` and `sensitivity * J_a / J_b`, so the two progress at
        // the same rate through the whole interference signal and finish together.
        for (v, vm) in VmType::ALL.into_iter().enumerate() {
            let profile = [
                InterferenceProfile::typical(),
                InterferenceProfile::heavy(),
                InterferenceProfile::Dedicated,
            ][v % 3]
                .clone();
            let seed = 0xc105e + v as u64;
            let mut env = CloudEnvironment::new(vm, profile.clone(), seed);
            let mut draws = env.rng.clone();
            let jitter: [f64; 2] =
                std::array::from_fn(|_| draws.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4));
            let noise: [f64; 2] = std::array::from_fn(|_| {
                draws
                    .normal_with(1.0, MEASUREMENT_NOISE_STD)
                    .clamp(0.99, 1.01)
            });
            let lead = draw_spec(&mut draw, 1.0);
            let specs = [
                lead,
                ExecutionSpec::new(
                    lead.base_time() * noise[1] / noise[0],
                    lead.sensitivity() * jitter[0] / jitter[1],
                ),
            ];
            let rules = GameRules::playoff();
            let got = env.play_game(&specs, &rules);
            let (want, finished) = CloudEnvironment::new(vm, profile, seed).reference_game(
                &specs,
                &rules,
                FINE_DIVISOR,
            );
            let label = format!("close finish on {vm:?}");
            assert_play_matches(vm, &specs, &got, &want, &label);
            assert_eq!(finished, 2, "{label}: both players must finish in one step");
            close_finish += 1;
        }
        for (covered, what) in [
            (duplicates, "duplicate specs"),
            (
                close_finish,
                "players finishing in one reference step, drawn or built",
            ),
            (overloaded, "more players than vCPUs"),
            (clamped, "base times under 50 s"),
        ] {
            assert!(covered > 0, "the paper-scale battery never covers {what}");
        }
    }

    #[test]
    fn game_matches_fine_reference_at_every_width() {
        // Widths 1-33 on every VM (2 to 96 vCPUs, so overload too), the profile cycling
        // with the VM and the rule set with the width; a minimum leader progress of 1.0
        // lets only a finisher trigger early termination, at the instant it finishes.
        let finisher_rules = GameRules {
            min_leader_progress: 1.0,
            ..GameRules::default()
        };
        let mut draw = SimRng::new(0x21).derive("width-battery");
        let (mut early, mut early_on_finish, mut overloaded) = (0, 0, 0);
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
                let got = CloudEnvironment::new(vm, profile.clone(), case as u64)
                    .play_game(&specs, &rules);
                let (want, finished) = CloudEnvironment::new(vm, profile, case as u64)
                    .reference_game(&specs, &rules, FINE_DIVISOR);
                assert_play_matches(
                    vm,
                    &specs,
                    &got,
                    &want,
                    &format!("{vm:?} with {players} players, case {case}"),
                );

                early += usize::from(want.early_terminated);
                early_on_finish += usize::from(want.early_terminated && finished > 0);
                overloaded += usize::from(players > vm.vcpus());
            }
        }
        for (covered, what) in [
            (early, "an early-terminated game"),
            (early_on_finish, "early termination on a finish"),
            (overloaded, "an overloaded game"),
        ] {
            assert!(covered > 0, "the width battery never covers {what}");
        }
    }

    #[test]
    fn solo_run_matches_fine_reference() {
        for seed in [2_u64, 13, 101] {
            let mut engine_env = env(seed);
            let mut ref_env = env(seed);
            for i in 0..6 {
                let spec = ExecutionSpec::new(50.0 + 30.0 * i as f64, 0.2 + 0.1 * i as f64);
                let got = engine_env.run_single(spec);
                // The same run as a one-player reference game.
                let (want, _) =
                    ref_env.reference_game(&[spec], &GameRules::playoff(), FINE_DIVISOR);
                assert!(
                    relative(got.observed_time, want.observed_times[0]) <= OBSERVED_TOLERANCE,
                    "seed {seed} run {i}: {} against {}",
                    got.observed_time,
                    want.observed_times[0]
                );
                assert_eq!(got.started_at, want.start);
                // A finished solo run ends at its finish: it occupies the node exactly
                // for its observed time, and is charged for it.
                assert_eq!(got.elapsed, got.observed_time);
                ref_env.commit_elapsed(got.elapsed);
                assert_eq!(engine_env.clock(), ref_env.clock());
                assert_eq!(
                    engine_env.cost().core_hours().to_bits(),
                    ref_env.cost().core_hours().to_bits()
                );
            }
        }
    }

    #[test]
    fn probe_matches_fine_reference() {
        for seed in [3_u64, 29] {
            let cloud = env(seed);
            for salt in 0..5_u64 {
                for i in 0..4 {
                    let spec = ExecutionSpec::new(80.0 + 25.0 * i as f64, 0.3 + 0.2 * i as f64);
                    let start = SimTime::from_seconds(500.0 * (salt + 1) as f64);
                    let got = cloud.observe_single_at(spec, start, salt);
                    let want = cloud.reference_probe(spec, start, salt, FINE_DIVISOR);
                    assert!(
                        relative(got, want) <= OBSERVED_TOLERANCE,
                        "seed {seed} salt {salt} spec {i}: {got} against {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_interference_observes_inverse_rates() {
        // Under a constant level every rate is constant, so each player observes
        // `1 / r` to rounding (tolerance 1e-12, relative), whether it finished or was
        // extrapolated from its work, and whether the game ended early or not.
        let level = 0.4;
        for vm in [VmType::M5Large, VmType::M5_8xlarge] {
            for players in [1_usize, 2, 3, 5, 16] {
                for rules in [GameRules::default(), GameRules::playoff()] {
                    let mut cloud =
                        CloudEnvironment::new(vm, InterferenceProfile::Constant(level), 5);
                    let specs: Vec<ExecutionSpec> = (0..players)
                        .map(|i| ExecutionSpec::new(90.0 + 35.0 * i as f64, 0.2 * i as f64))
                        .collect();
                    let mut draws = cloud.rng.clone();
                    let jitter: Vec<f64> = (0..players)
                        .map(|_| draws.normal_with(1.0, PLAYER_JITTER_STD).clamp(0.6, 1.4))
                        .collect();
                    let noise: Vec<f64> = (0..players)
                        .map(|_| {
                            draws
                                .normal_with(1.0, MEASUREMENT_NOISE_STD)
                                .clamp(0.99, 1.01)
                        })
                        .collect();
                    let contention = CONTENTION_COEFF * (players - 1) as f64 / vm.vcpus() as f64;
                    let overload = (players as f64 / vm.vcpus() as f64).max(1.0);
                    let play = if players == 1 && !rules.early_termination {
                        let run = cloud.run_single(specs[0]);
                        vec![run.observed_time]
                    } else {
                        cloud.play_game(&specs, &rules).observed_times
                    };
                    for (i, spec) in specs.iter().enumerate() {
                        let effective = (level * vm.interference_factor() + contention) * jitter[i];
                        let rate = spec.scaled(vm.speed_factor()).progress_rate(effective)
                            * noise[i]
                            / overload;
                        assert!(
                            relative(play[i], 1.0 / rate) <= 1e-12,
                            "{vm:?}, {players} players, player {i}: {} against {}",
                            play[i],
                            1.0 / rate
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_finished_game_ends_at_its_first_finish() {
        // In a game that neither ends early nor reaches the cap, `elapsed` is exactly
        // the smallest observed time: the finisher's instant.
        let mut draw = SimRng::new(0xe1).derive("finish-battery");
        let mut finished = 0;
        for case in 0..200_u64 {
            let vm = VmType::ALL[draw.index(VmType::ALL.len())];
            let profile = [InterferenceProfile::typical(), InterferenceProfile::heavy()]
                [case as usize % 2]
                .clone();
            let mut cloud = CloudEnvironment::new(vm, profile, case);
            cloud.set_clock(SimTime::from_seconds(86_400.0 * draw.uniform()));
            let specs: Vec<ExecutionSpec> = (0..1 + draw.index(16))
                .map(|_| ExecutionSpec::new(30.0 + 270.0 * draw.uniform(), 1.2 * draw.uniform()))
                .collect();
            let rules = [GameRules::default(), GameRules::playoff()][case as usize % 2];
            let play = cloud.play_game(&specs, &rules);
            if play.early_terminated {
                continue;
            }
            let first = play
                .observed_times
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(play.elapsed, first, "case {case}");
            finished += 1;
        }
        assert!(finished > 100, "only {finished} games finished");
    }

    #[test]
    fn solo_time_never_decreases_with_base_time_or_sensitivity() {
        // For fixed draws, the level, the contention and the jitter are never negative,
        // so a run's observed time never decreases as its base time or its sensitivity
        // grows (exactly: no tolerance). Base times 230-260 s in 0.01 s steps,
        // sensitivities 0.05, 0.4 and 1.1, 8 node seeds and 4 start times.
        let sensitivities = [0.05, 0.4, 1.1];
        for seed in 0..8_u64 {
            let cloud = env(seed);
            for s in 0..4 {
                let start = SimTime::from_seconds(3_600.0 * s as f64 + 1_234.5);
                let mut previous = [0.0; 3];
                for step in 0..=3_000 {
                    let base = 230.0 + 0.01 * step as f64;
                    let times = sensitivities.map(|sensitivity| {
                        cloud.observe_single_at(ExecutionSpec::new(base, sensitivity), start, s)
                    });
                    for k in 0..3 {
                        assert!(
                            times[k] >= previous[k],
                            "seed {seed} start {s}: base {base} sensitivity {} observes {} after {}",
                            sensitivities[k],
                            times[k],
                            previous[k]
                        );
                        if k > 0 {
                            assert!(
                                times[k] >= times[k - 1],
                                "seed {seed} start {s}: base {base} sensitivity {} observes {} \
                                 below sensitivity {}'s {}",
                                sensitivities[k],
                                times[k],
                                sensitivities[k - 1],
                                times[k - 1]
                            );
                        }
                    }
                    previous = times;
                }
            }
        }
    }

    /// The top-two scan as it was before the rates became node-major columns: each
    /// contender's work is evaluated on its own, by `dot` over its row of rates (read
    /// from `work` at `stop` and from `progress` at -1), and the leader and the
    /// runner-up are updated through branches.
    fn top_two_by_rows(
        progress: &[f64],
        rows: &[[f64; NODE_COUNT]],
        work: &[f64],
        contenders: &[usize],
        (h, u, stop): (f64, f64, f64),
    ) -> ((usize, f64), (usize, f64)) {
        let weights = (u != stop && u != -1.0).then(|| basis_integral(u));
        let mut leader = (usize::MAX, f64::NEG_INFINITY);
        let mut runner_up = (usize::MAX, f64::NEG_INFINITY);
        for &i in contenders {
            let work = match &weights {
                Some(weights) => progress[i] + h * dot(&rows[i], weights),
                None if u == stop => work[i],
                None => progress[i],
            };
            if work > leader.1 {
                runner_up = leader;
                leader = (i, work);
            } else if work > runner_up.1 {
                runner_up = (i, work);
            }
        }
        (leader, runner_up)
    }

    #[test]
    fn top_two_scan_matches_the_branchy_scan_over_rows() {
        // 3,300 random scratch states, 100 at each width 1-33. Each player's progress
        // and four rates are drawn, or copied from an earlier player (30%), so copies
        // tie on all three paths; every third state copies every player from the first,
        // so all work is equal. Each state is scanned over every player, a random
        // subset and one player, at the piece's start (-1), at `stop` (the piece's end
        // half the time) and at two interior instants, and both places must match the
        // reference's index and work bits.
        let mut draw = SimRng::new(0x7e2).derive("top-two-battery");
        let (mut equal_leaders, mut equal_runners_up, mut all_equal) = (0, 0, 0);
        for case in 0..3_300_usize {
            let players = 1 + case % 33;
            let copy_all = case % 3 == 0;
            let mut progress: Vec<f64> = Vec::new();
            let mut rows: Vec<[f64; NODE_COUNT]> = Vec::new();
            for i in 0..players {
                if i > 0 && (copy_all || draw.chance(0.3)) {
                    let from = if copy_all { 0 } else { draw.index(i) };
                    progress.push(progress[from]);
                    rows.push(rows[from]);
                } else {
                    progress.push(0.9 * draw.uniform());
                    rows.push(std::array::from_fn(|_| (1.0 + draw.uniform()) / 300.0));
                }
            }
            let h = 0.5 + 40.0 * draw.uniform();
            let stop = if draw.chance(0.5) {
                1.0
            } else {
                -1.0 + 2.0 * draw.uniform()
            };
            let at_stop = if stop == 1.0 {
                WEIGHTS
            } else {
                basis_integral(stop)
            };
            let work: Vec<f64> = (0..players)
                .map(|i| progress[i] + h * dot(&rows[i], &at_stop))
                .collect();
            let mut scratch = GameScratch {
                progress: progress.clone(),
                rates: std::array::from_fn(|j| rows.iter().map(|row| row[j]).collect()),
                work: work.clone(),
                check: vec![0.0; players],
                ..GameScratch::default()
            };
            for subset in 0..3 {
                scratch.contenders = match subset {
                    0 => (0..players).collect(),
                    1 => (0..players).filter(|_| draw.chance(0.6)).collect(),
                    _ => vec![draw.index(players)],
                };
                let interior = [0.25, 0.75].map(|f| -1.0 + (stop + 1.0) * f * draw.uniform());
                for u in [-1.0, stop, interior[0], interior[1]] {
                    let got = scratch.top_two_at(h, u, stop);
                    let want =
                        top_two_by_rows(&progress, &rows, &work, &scratch.contenders, (h, u, stop));
                    let bits = |((l, lw), (r, rw)): ((usize, f64), (usize, f64))| {
                        (l, lw.to_bits(), r, rw.to_bits())
                    };
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "case {case}: {players} players, contenders {:?}, u {u}, stop {stop}",
                        scratch.contenders
                    );
                    let ((leader, leader_work), (runner_up, runner_up_work)) = want;
                    if scratch.contenders.len() < 2 {
                        continue;
                    }
                    let at = |i: usize| {
                        top_two_by_rows(&progress, &rows, &work, &[i], (h, u, stop))
                            .0
                             .1
                    };
                    equal_leaders += usize::from(leader_work == runner_up_work);
                    equal_runners_up += usize::from(
                        scratch
                            .contenders
                            .iter()
                            .any(|&i| i != leader && i != runner_up && at(i) == runner_up_work),
                    );
                    all_equal +=
                        usize::from(scratch.contenders.iter().all(|&i| at(i) == leader_work));
                }
            }
        }
        for (covered, what) in [
            (equal_leaders, "two equal leaders"),
            (
                equal_runners_up,
                "a third contender tied with the runner-up",
            ),
            (all_equal, "all-equal work"),
        ] {
            assert!(
                covered > 100,
                "the top-two battery covers {what} only {covered} times"
            );
        }
    }

    #[test]
    fn quadrature_is_exact_to_its_degree() {
        // Four-point Gauss–Legendre integrates degree 7 exactly; the basis interpolates
        // the nodes; the basis integrals reach the weights at 1 (tolerance 1e-14).
        for degree in 0..8_i32 {
            let exact = if degree % 2 == 0 {
                2.0 / (degree + 1) as f64
            } else {
                0.0
            };
            let rule: f64 = NODES
                .iter()
                .zip(&WEIGHTS)
                .map(|(x, w)| w * x.powi(degree))
                .sum();
            assert!((rule - exact).abs() < 1e-14, "degree {degree}: {rule}");
        }
        for (j, &x) in NODES.iter().enumerate() {
            let at_node = basis(x);
            for (m, value) in at_node.iter().enumerate() {
                let want = if m == j { 1.0 } else { 0.0 };
                assert!(
                    (value - want).abs() < 1e-14,
                    "basis {m} at node {j}: {value}"
                );
            }
        }
        let (at_start, at_end) = (basis_integral(-1.0), basis_integral(1.0));
        for j in 0..NODE_COUNT {
            assert!(at_start[j].abs() < 1e-14);
            assert!(
                (at_end[j] - WEIGHTS[j]).abs() < 1e-14,
                "weight {j}: {}",
                at_end[j]
            );
        }
    }
}
