//! A BLISS-style tuner: a pool of lightweight Bayesian-optimisation models.

use crate::activeharmony::{config_to_vector, vector_to_config};
use crate::evaluator::{CloudEvaluator, TuningBudget};
use crate::gp::GaussianProcess;
use crate::outcome::TuningOutcome;
use crate::tuner::Tuner;
use dg_cloudsim::SimRng;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};

/// Number of candidate configurations scored by the acquisition function per iteration.
const CANDIDATE_POOL: usize = 192;

/// Maximum number of (most recent) observations each model is fit to, bounding the
/// cubic-cost Cholesky factorisation.
const FIT_WINDOW: usize = 120;

/// BLISS [Roy et al., PLDI'21]: instead of one heavyweight Bayesian-optimisation model,
/// keep a pool of cheap models (here: Gaussian processes with different length scales)
/// and probabilistically pick which model drives each sampling decision, favouring the
/// models whose recent predictions were most accurate.
#[derive(Debug, Clone)]
pub struct Bliss {
    seed: u64,
}

/// RBF length scales of the model pool, one Gaussian process each.
const LENGTH_SCALES: [f64; 4] = [0.08, 0.18, 0.35, 0.7];

impl Bliss {
    /// Creates a BLISS-style tuner with the default model pool.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

struct ModelSlot {
    gp: GaussianProcess,
    /// Recent absolute prediction errors (seconds); lower means more trustworthy.
    errors: Vec<f64>,
}

impl ModelSlot {
    fn weight(&self) -> f64 {
        if self.errors.is_empty() {
            return 1.0;
        }
        let mean_error = self.errors.iter().sum::<f64>() / self.errors.len() as f64;
        1.0 / (1.0 + mean_error)
    }

    fn record_error(&mut self, error: f64) {
        self.errors.push(error);
        if self.errors.len() > 12 {
            self.errors.remove(0);
        }
    }
}

impl Tuner for Bliss {
    fn name(&self) -> &str {
        "BLISS"
    }

    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> TuningOutcome {
        let mut rng = SimRng::new(self.seed).derive("bliss");
        let mut evaluator = CloudEvaluator::new(workload, exec, budget);
        let size = workload.size();

        let mut models: Vec<ModelSlot> = LENGTH_SCALES
            .iter()
            .map(|ls| ModelSlot {
                gp: GaussianProcess::new(*ls, 1e-3),
                errors: Vec::new(),
            })
            .collect();

        // Warm-up with random samples (BLISS seeds its models the same way).
        let warmup = (budget.max_evaluations / 8).clamp(4, 24);
        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut targets: Vec<f64> = Vec::new();
        for _ in 0..warmup {
            if evaluator.exhausted() {
                break;
            }
            let id = ((rng.uniform() * size as f64) as u64).min(size - 1);
            let observed = evaluator.evaluate(id);
            let mut vector = Vec::new();
            config_to_vector(workload, id, &mut vector);
            inputs.push(vector);
            targets.push(observed);
        }

        // The candidates of a step and their vectors. The vectors are rewritten in place
        // at every step; only the chosen one moves out, into the observations.
        let mut candidates: Vec<ConfigId> = Vec::with_capacity(CANDIDATE_POOL + 1);
        let mut vectors: Vec<Vec<f64>> = vec![Vec::new(); CANDIDATE_POOL + 1];
        while !evaluator.exhausted() {
            let window_start = targets.len().saturating_sub(FIT_WINDOW);
            let window_targets = &targets[window_start..];
            if window_targets.is_empty() {
                break;
            }

            // Probabilistically select a model, weighted by recent accuracy, and fit it
            // on the most recent window of observations. Only the selected model is fit:
            // fitting draws no randomness, and each model is refit before its next use.
            let weights: Vec<f64> = models.iter().map(ModelSlot::weight).collect();
            let model = &mut models[rng.weighted_index(&weights)];
            model.gp.fit(&inputs[window_start..], window_targets);

            // Draw a candidate pool, plus a local perturbation of the incumbent, which
            // keeps the search from ignoring the neighbourhood of the best-known
            // configuration.
            candidates.clear();
            for vector in &mut vectors[..CANDIDATE_POOL] {
                let candidate = ((rng.uniform() * size as f64) as u64).min(size - 1);
                candidates.push(candidate);
                config_to_vector(workload, candidate, vector);
            }
            if let Some(best) = evaluator.best() {
                let vector = &mut vectors[CANDIDATE_POOL];
                config_to_vector(workload, best.config, vector);
                if !vector.is_empty() {
                    let dim = rng.index(vector.len());
                    vector[dim] = (vector[dim] + rng.normal_with(0.0, 0.2)).clamp(0.0, 1.0);
                }
                candidates.push(vector_to_config(workload, vector));
            }

            // Pick the candidate with the highest expected improvement; the first of tied
            // maxima wins.
            let best_observed = window_targets.iter().copied().fold(f64::INFINITY, f64::min);
            let (pick, _, mean) = model
                .gp
                .best_expected_improvement(&vectors[..candidates.len()], best_observed);

            // A random candidate's vector is already its configuration's, so the pick
            // comes with its prediction. The perturbed incumbent snaps to a configuration
            // whose vector differs, and is encoded and predicted anew.
            let chosen_candidate = candidates[pick];
            let predicted = if pick < CANDIDATE_POOL {
                mean
            } else {
                config_to_vector(workload, chosen_candidate, &mut vectors[pick]);
                model.gp.predict(&vectors[pick]).0
            };
            let vector = std::mem::take(&mut vectors[pick]);
            let observed = evaluator.evaluate(chosen_candidate);
            if observed.is_finite() {
                model.record_error((observed - predicted).abs());
                inputs.push(vector);
                targets.push(observed);
            }
        }

        let chosen = evaluator.best().map(|s| s.config).unwrap_or(0);
        evaluator.finish(self.name(), chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    #[test]
    fn consumes_budget_and_returns_best_observation() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 37);
        let outcome = Bliss::new(2).tune(&workload, &mut cloud, TuningBudget::evaluations(60));
        assert_eq!(outcome.samples, 60);
        assert_eq!(outcome.chosen, outcome.best_observed().unwrap().config);
    }

    #[test]
    fn beats_random_search_on_average_base_time() {
        // BLISS should usually find a configuration with a lower *dedicated* time than
        // pure random search given the same budget. Averaged over a few seeds to avoid
        // flakiness from the noisy environment.
        let workload = Workload::scaled(Application::Redis, 20_000);
        let budget = TuningBudget::evaluations(70);
        let mut bliss_total = 0.0;
        let mut random_total = 0.0;
        for seed in 0..3u64 {
            let mut cloud_a = CloudEnvironment::new(
                VmType::M5_8xlarge,
                InterferenceProfile::typical(),
                100 + seed,
            );
            let mut cloud_b = CloudEnvironment::new(
                VmType::M5_8xlarge,
                InterferenceProfile::typical(),
                100 + seed,
            );
            let bliss = Bliss::new(seed).tune(&workload, &mut cloud_a, budget);
            let random = crate::RandomSearch::new(seed).tune(&workload, &mut cloud_b, budget);
            bliss_total += workload.base_time(bliss.chosen);
            random_total += workload.base_time(random.chosen);
        }
        assert!(
            bliss_total <= random_total * 1.1,
            "BLISS ({bliss_total}) should be competitive with random ({random_total})"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let workload = Workload::scaled(Application::Gromacs, 5_000);
        let run = || {
            let mut cloud =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 41);
            Bliss::new(9)
                .tune(&workload, &mut cloud, TuningBudget::evaluations(40))
                .chosen
        };
        assert_eq!(run(), run());
    }
}
