//! Exhaustive search in the noisy cloud.

use crate::evaluator::{CloudEvaluator, TuningBudget};
use crate::outcome::TuningOutcome;
use crate::tuner::Tuner;
use dg_exec::ExecutionBackend;
use dg_workloads::Workload;

/// Exhaustive search: evaluate every configuration once, in the cloud, and keep the best
/// observation.
///
/// This is the brute-force strategy defined in Sec. 2 of the paper. Because every
/// configuration is observed exactly once under whatever interference happened to be
/// present, the winner is frequently a configuration that got lucky rather than the
/// configuration that is genuinely fastest — which is why even exhaustive search falls
/// short of the dedicated-environment optimum.
///
/// When the search space is larger than the evaluation budget, an evenly strided subset
/// of `budget.max_evaluations` configurations is evaluated instead (the full sweep on the
/// paper's 7.8M-point spaces is infeasible for anyone, including the paper, whose
/// exhaustive baseline is similarly bounded).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveSearch;

impl ExhaustiveSearch {
    /// Creates the exhaustive-search baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Tuner for ExhaustiveSearch {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> TuningOutcome {
        let size = workload.size();
        let mut evaluator = CloudEvaluator::new(workload, exec, budget);
        let evaluations = (budget.max_evaluations as u64).min(size);
        // Evenly strided coverage of the index space; stride >= 1.
        let stride = (size / evaluations).max(1);
        let mut id = 0u64;
        while id < size && !evaluator.exhausted() {
            evaluator.evaluate(id);
            id += stride;
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
    fn covers_entire_small_space() {
        let workload = Workload::scaled(Application::Redis, 64);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 2);
        let size = workload.size() as usize;
        let outcome = ExhaustiveSearch::new().tune(
            &workload,
            &mut cloud,
            TuningBudget::evaluations(size + 10),
        );
        assert_eq!(outcome.samples, size);
        let mut configs: Vec<_> = outcome.history.iter().map(|s| s.config).collect();
        configs.sort_unstable();
        configs.dedup();
        assert_eq!(configs.len(), size);
    }

    #[test]
    fn strides_when_space_exceeds_budget() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 2);
        let outcome =
            ExhaustiveSearch::new().tune(&workload, &mut cloud, TuningBudget::evaluations(50));
        assert!(outcome.samples <= 50);
        let mut configs: Vec<_> = outcome.history.iter().map(|s| s.config).collect();
        configs.sort_unstable();
        configs.dedup();
        assert!(configs.len() > 40);
    }

    #[test]
    fn chosen_config_is_best_observed() {
        let workload = Workload::scaled(Application::Lammps, 500);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 4);
        let outcome =
            ExhaustiveSearch::new().tune(&workload, &mut cloud, TuningBudget::evaluations(200));
        assert_eq!(outcome.chosen, outcome.best_observed().unwrap().config);
    }
}
