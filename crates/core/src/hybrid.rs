//! Integration of DarwinGame with existing tuners (Sec. 3.6).
//!
//! The search space is divided into coarse *subspaces*. An outer search strategy — the
//! "existing tuner's optimisation logic" — decides which subspace to look at next,
//! treating each subspace as a single point whose value is the performance of the
//! configuration DarwinGame's tournament finds inside it. The tournament result is both a
//! better and a *more stable* estimate of a subspace's potential than a single noisy
//! sample, which is where the improvement of Fig. 13/14 comes from.

use crate::config::TournamentConfig;
use crate::tournament::DarwinGame;
use dg_cloudsim::SimRng;
use dg_exec::ExecutionBackend;
use dg_tuners::{GaussianProcess, SampleRecord, Tuner, TuningBudget, TuningOutcome};
use dg_workloads::Workload;

/// The outer-loop logic of an existing tuner, operating at subspace granularity.
pub trait SubspaceStrategy {
    /// A short name used to build the hybrid tuner's display name.
    fn name(&self) -> &'static str;

    /// Chooses the next subspace to explore, given `(subspace, observed champion time)`
    /// pairs for every subspace explored so far. Must return an index in
    /// `[0, total_subspaces)`; strategies should avoid repeating explored subspaces.
    fn next_subspace(
        &mut self,
        history: &[(usize, f64)],
        total_subspaces: usize,
        rng: &mut SimRng,
    ) -> usize;
}

fn unexplored(history: &[(usize, f64)], total: usize) -> Vec<usize> {
    (0..total)
        .filter(|s| !history.iter().any(|(seen, _)| seen == s))
        .collect()
}

/// BLISS-style outer loop: a Gaussian process over the (normalised) subspace index picks
/// the unexplored subspace with the highest expected improvement.
#[derive(Debug, Clone, Default)]
pub struct BlissSubspaceStrategy;

impl SubspaceStrategy for BlissSubspaceStrategy {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn next_subspace(
        &mut self,
        history: &[(usize, f64)],
        total_subspaces: usize,
        rng: &mut SimRng,
    ) -> usize {
        let candidates = unexplored(history, total_subspaces);
        if candidates.is_empty() {
            return rng.index(total_subspaces);
        }
        if history.len() < 2 {
            return candidates[rng.index(candidates.len())];
        }
        let normalise = |s: usize| vec![s as f64 / (total_subspaces.max(2) - 1) as f64];
        let inputs: Vec<Vec<f64>> = history.iter().map(|(s, _)| normalise(*s)).collect();
        let targets: Vec<f64> = history.iter().map(|(_, t)| *t).collect();
        let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let mut gp = GaussianProcess::new(0.25, 1e-3);
        gp.fit(&inputs, &targets);
        // The pick is the last of tied maxima: the first of the reversed candidates.
        let points: Vec<Vec<f64>> = candidates.iter().rev().map(|s| normalise(*s)).collect();
        let (pick, ..) = gp.best_expected_improvement(&points, best);
        candidates[candidates.len() - 1 - pick]
    }
}

/// ActiveHarmony-style outer loop: local (neighbourhood) search around the best subspace
/// found so far, falling back to random unexplored subspaces.
#[derive(Debug, Clone, Default)]
pub struct HarmonySubspaceStrategy;

impl SubspaceStrategy for HarmonySubspaceStrategy {
    fn name(&self) -> &'static str {
        "ActiveHarmony"
    }

    fn next_subspace(
        &mut self,
        history: &[(usize, f64)],
        total_subspaces: usize,
        rng: &mut SimRng,
    ) -> usize {
        let candidates = unexplored(history, total_subspaces);
        if candidates.is_empty() {
            return rng.index(total_subspaces);
        }
        let best = history
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are not NaN"));
        if let Some((best_subspace, _)) = best {
            // Prefer the nearest unexplored neighbour of the incumbent subspace.
            if let Some(neighbour) = candidates
                .iter()
                .min_by_key(|c| (**c as isize - *best_subspace as isize).unsigned_abs())
            {
                return *neighbour;
            }
        }
        candidates[rng.index(candidates.len())]
    }
}

/// DarwinGame integrated with an existing tuner's outer search logic.
#[derive(Debug, Clone)]
pub struct HybridDarwinGame<S: SubspaceStrategy> {
    name: String,
    strategy: S,
    subspaces: usize,
    explorations: usize,
    tournament: TournamentConfig,
}

impl HybridDarwinGame<BlissSubspaceStrategy> {
    /// BLISS + DarwinGame (Fig. 13/14).
    pub fn bliss(seed: u64) -> Self {
        Self::with_strategy(BlissSubspaceStrategy, seed)
    }
}

impl HybridDarwinGame<HarmonySubspaceStrategy> {
    /// ActiveHarmony + DarwinGame (Fig. 13/14).
    pub fn active_harmony(seed: u64) -> Self {
        Self::with_strategy(HarmonySubspaceStrategy, seed)
    }
}

impl<S: SubspaceStrategy> HybridDarwinGame<S> {
    /// Builds a hybrid tuner around an arbitrary outer-loop strategy.
    pub fn with_strategy(strategy: S, seed: u64) -> Self {
        let mut tournament = TournamentConfig {
            seed,
            // Inside one subspace a much smaller regional phase suffices; this is what
            // makes the hybrid cheaper than the stand-alone tournament (Fig. 14), while
            // still sampling each subspace densely enough to surface its robust
            // near-optimal configurations.
            regions: 24,
            parallel_regions: false,
            ..TournamentConfig::default()
        };
        tournament.players_per_game = Some(16);
        tournament.max_regional_rounds = 6;
        Self {
            name: format!("{}+DarwinGame", strategy.name()),
            strategy,
            subspaces: 16,
            explorations: 6,
            tournament,
        }
    }

    /// Sets how many subspaces the search space is divided into.
    ///
    /// # Panics
    ///
    /// Panics if `subspaces == 0`.
    pub fn with_subspaces(mut self, subspaces: usize) -> Self {
        assert!(subspaces > 0, "at least one subspace is required");
        self.subspaces = subspaces;
        self
    }

    /// Sets how many subspaces the outer loop explores.
    ///
    /// # Panics
    ///
    /// Panics if `explorations == 0`.
    pub fn with_explorations(mut self, explorations: usize) -> Self {
        assert!(explorations > 0, "at least one exploration is required");
        self.explorations = explorations;
        self
    }
}

impl<S: SubspaceStrategy> Tuner for HybridDarwinGame<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        _budget: TuningBudget,
    ) -> TuningOutcome {
        let partition = workload.subspaces(self.subspaces);
        let mut rng = SimRng::new(self.tournament.seed).derive("hybrid");
        let mut history: Vec<(usize, f64)> = Vec::new();
        let mut samples = Vec::new();
        let mut best: Option<(u64, f64)> = None;
        let mut core_hours = 0.0;
        let mut wall_clock = 0.0;
        let mut games = 0usize;

        let explorations = self.explorations.min(partition.parts());
        for exploration in 0..explorations {
            let subspace = self
                .strategy
                .next_subspace(&history, partition.parts(), &mut rng)
                .min(partition.parts() - 1);
            let range = partition.range(subspace);
            let mut tournament = self.tournament;
            tournament.search_range = Some((range.start, range.end));
            tournament.seed = dg_cloudsim::mix(self.tournament.seed, exploration as u64);
            let report = DarwinGame::new(tournament).run(workload, exec);

            history.push((subspace, report.champion_observed_time));
            samples.push(SampleRecord {
                config: report.champion,
                observed_time: report.champion_observed_time,
            });
            core_hours += report.core_hours;
            wall_clock += report.wall_clock_seconds;
            games += report.games_played;
            if best.map_or(true, |(_, t)| report.champion_observed_time < t) {
                best = Some((report.champion, report.champion_observed_time));
            }
        }

        let (chosen, believed_time) = best.expect("at least one subspace is explored");
        TuningOutcome {
            tuner: self.name.clone(),
            chosen,
            believed_time,
            samples: games,
            core_hours,
            wall_clock_seconds: wall_clock,
            history: samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    fn cloud(seed: u64) -> CloudEnvironment {
        CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), seed)
    }

    #[test]
    fn bliss_hybrid_finds_a_fast_configuration() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut env = cloud(3);
        let mut tuner = HybridDarwinGame::bliss(7)
            .with_subspaces(8)
            .with_explorations(4);
        let outcome = tuner.tune(&workload, &mut env, TuningBudget::default());
        assert_eq!(outcome.tuner, "BLISS+DarwinGame");
        let surface = workload.application().surface_config();
        assert!(
            workload.base_time(outcome.chosen) < (surface.best_time + surface.worst_time) / 2.0
        );
        assert!(outcome.core_hours > 0.0);
        assert_eq!(outcome.history.len(), 4);
    }

    #[test]
    fn harmony_hybrid_explores_distinct_subspaces() {
        let workload = Workload::scaled(Application::Ffmpeg, 8_000);
        let mut env = cloud(5);
        let mut tuner = HybridDarwinGame::active_harmony(11)
            .with_subspaces(6)
            .with_explorations(6);
        let outcome = tuner.tune(&workload, &mut env, TuningBudget::default());
        assert_eq!(outcome.tuner, "ActiveHarmony+DarwinGame");
        // Exploring 6 subspaces of 6 must touch champions from 6 tournaments.
        assert_eq!(outcome.history.len(), 6);
    }

    #[test]
    fn strategies_avoid_repeating_subspaces() {
        let mut rng = SimRng::new(1);
        let mut bliss = BlissSubspaceStrategy;
        let mut history: Vec<(usize, f64)> = Vec::new();
        for _ in 0..8 {
            let s = bliss.next_subspace(&history, 8, &mut rng);
            assert!(!history.iter().any(|(seen, _)| *seen == s));
            history.push((s, 300.0 + s as f64));
        }
        // The picks themselves are pinned, so a change to the GP's arithmetic or to the
        // tie rule shows here.
        let picks: Vec<usize> = history.iter().map(|(s, _)| *s).collect();
        assert_eq!(picks, [6, 5, 4, 3, 2, 1, 0, 7]);

        let mut harmony = HarmonySubspaceStrategy;
        let mut history: Vec<(usize, f64)> = Vec::new();
        for _ in 0..8 {
            let s = harmony.next_subspace(&history, 8, &mut rng);
            assert!(!history.iter().any(|(seen, _)| *seen == s));
            history.push((s, 300.0 - s as f64));
        }
    }

    #[test]
    fn bliss_strategy_picks_the_last_of_tied_subspaces() {
        // Subspace 0 is far better than the rest, so neither unexplored subspace, 3 or
        // 5, has any expected improvement: both score exactly 0, and the later one wins.
        let history = [
            (0, 100.0),
            (1, 1000.0),
            (2, 1000.0),
            (4, 1000.0),
            (6, 1000.0),
        ];
        let inputs: Vec<Vec<f64>> = history.iter().map(|(s, _)| vec![*s as f64 / 6.0]).collect();
        let targets: Vec<f64> = history.iter().map(|(_, t)| *t).collect();
        let mut gp = GaussianProcess::new(0.25, 1e-3);
        gp.fit(&inputs, &targets);
        for s in [3.0, 5.0] {
            assert_eq!(gp.best_expected_improvement(&[[s / 6.0]], 100.0).1, 0.0);
        }
        let mut rng = SimRng::new(3);
        let next = BlissSubspaceStrategy.next_subspace(&history, 7, &mut rng);
        assert_eq!(next, 5);
    }

    #[test]
    fn harmony_strategy_prefers_neighbours_of_the_best_subspace() {
        let mut rng = SimRng::new(2);
        let mut harmony = HarmonySubspaceStrategy;
        // Subspace 4 is clearly the best so far; its neighbours should be explored next.
        let history = vec![(0, 500.0), (4, 250.0), (9, 480.0)];
        let next = harmony.next_subspace(&history, 10, &mut rng);
        assert!(
            next == 3 || next == 5,
            "expected a neighbour of 4, got {next}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one subspace")]
    fn zero_subspaces_rejected() {
        let _ = HybridDarwinGame::bliss(1).with_subspaces(0);
    }
}
