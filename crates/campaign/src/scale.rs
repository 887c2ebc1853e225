//! Experiment scale parameters.

/// Whether the `DG_SMOKE` environment variable asks for the CI-sized run: set,
/// non-empty and not `0`. It is the one smoke switch every bench and example with a
/// reduced size reads.
pub fn smoke_requested() -> bool {
    std::env::var("DG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// How large the reproduced experiments are.
///
/// The paper's experiments use multi-million-point search spaces, 10,000 regions, and
/// real hours of cloud time. The reproduction preserves the *relative* proportions that
/// matter — DarwinGame's sampling coverage is orders of magnitude higher than the
/// baselines', while its per-sample cost is far lower thanks to co-location and early
/// termination — at a size that runs in minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Upper bound on the search-space size used for each application.
    pub space_size: u64,
    /// Number of regions in DarwinGame's regional phase.
    pub regions: usize,
    /// Players per game in the regional and global phases.
    pub players_per_game: usize,
    /// Evaluation budget of the model-based baselines (BLISS, OpenTuner, ActiveHarmony,
    /// RandomSearch).
    pub baseline_budget: usize,
    /// Evaluation budget of the exhaustive-search baseline (covers the whole space when
    /// the space is smaller than this).
    pub exhaustive_budget: usize,
    /// Number of repeated cloud executions used to measure the mean execution time and
    /// coefficient of variation of a chosen configuration.
    pub evaluation_runs: usize,
    /// Seconds of simulated time between those repeated executions.
    pub evaluation_spacing: f64,
    /// Number of times tuning is repeated (with different seeds) when an experiment
    /// reports a range or stability statistic. Only the hand-rolled harness loops in
    /// `dg-bench` read this; campaigns replicate through their *seed axis* instead
    /// (`CampaignSpec::seeds`), and the campaign executor ignores this field.
    pub tuning_repeats: usize,
}

impl ExperimentScale {
    /// The scale used by the committed benchmark outputs (minutes of runtime).
    pub fn default_scale() -> Self {
        Self {
            space_size: 160_000,
            regions: 256,
            players_per_game: 16,
            baseline_budget: 200,
            exhaustive_budget: 20_000,
            evaluation_runs: 60,
            evaluation_spacing: 1_800.0,
            tuning_repeats: 5,
        }
    }

    /// A tiny scale used by unit/integration tests of the harness itself (seconds).
    pub fn smoke() -> Self {
        Self {
            space_size: 6_000,
            regions: 16,
            players_per_game: 8,
            baseline_budget: 40,
            exhaustive_budget: 400,
            evaluation_runs: 15,
            evaluation_spacing: 1_800.0,
            tuning_repeats: 2,
        }
    }

    /// Validates the scale.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero (or non-positive for the spacing).
    pub fn validate(&self) {
        assert!(self.space_size > 0, "space_size must be positive");
        assert!(self.regions > 0, "regions must be positive");
        assert!(
            self.players_per_game >= 2,
            "players_per_game must be at least 2"
        );
        assert!(self.baseline_budget > 0, "baseline_budget must be positive");
        assert!(
            self.exhaustive_budget > 0,
            "exhaustive_budget must be positive"
        );
        assert!(self.evaluation_runs > 0, "evaluation_runs must be positive");
        assert!(
            self.evaluation_spacing > 0.0,
            "evaluation_spacing must be positive"
        );
        assert!(self.tuning_repeats > 0, "tuning_repeats must be positive");
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_valid() {
        ExperimentScale::default_scale().validate();
        ExperimentScale::smoke().validate();
    }

    #[test]
    fn smoke_is_smaller_than_default() {
        let smoke = ExperimentScale::smoke();
        let default = ExperimentScale::default_scale();
        assert!(smoke.space_size < default.space_size);
        assert!(smoke.regions < default.regions);
        assert!(smoke.baseline_budget < default.baseline_budget);
    }
}
