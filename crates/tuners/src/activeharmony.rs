//! An ActiveHarmony-style tuner: rank-order simplex search with restarts.

use crate::evaluator::{CloudEvaluator, TuningBudget};
use crate::outcome::TuningOutcome;
use crate::simplex::nelder_mead;
use crate::tuner::Tuner;
use dg_cloudsim::SimRng;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};

/// ActiveHarmony [Hollingsworth & Tiwari]: a server-directed simplex search over the
/// parameter space.
///
/// Parameters are relaxed to the unit hypercube (one axis per free parameter); the
/// simplex proposes continuous points that are rounded to the nearest discrete level for
/// evaluation. When a simplex converges before the sampling budget is exhausted, the
/// search restarts from a fresh random simplex, mirroring ActiveHarmony's restart
/// behaviour on plateaus.
#[derive(Debug, Clone)]
pub struct ActiveHarmony {
    seed: u64,
}

impl ActiveHarmony {
    /// Creates an ActiveHarmony-style tuner with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

/// Converts a point in the unit hypercube to a configuration id.
pub(crate) fn vector_to_config(workload: &Workload, vector: &[f64]) -> ConfigId {
    let space = workload.space();
    let point: Vec<usize> = space
        .parameters()
        .iter()
        .zip(vector.iter())
        .map(|(parameter, value)| {
            let levels = parameter.level_count();
            ((value.clamp(0.0, 1.0) * (levels - 1) as f64).round() as usize).min(levels - 1)
        })
        .collect();
    space.index_of(&point)
}

/// Writes the unit-hypercube representation of configuration `id` to `vector`: each
/// parameter's level over its largest level. A pinned parameter is 0, and its level is
/// not decoded: dividing the rest of the index by its one level would not change it.
///
/// # Panics
///
/// Panics if `id` is outside the workload's space.
pub(crate) fn config_to_vector(workload: &Workload, id: ConfigId, vector: &mut Vec<f64>) {
    let parameters = workload.space().parameters();
    vector.clear();
    vector.reserve_exact(parameters.len());
    let mut rest = id;
    for parameter in parameters {
        let levels = parameter.level_count() as u64;
        vector.push(if levels > 1 {
            let level = rest % levels;
            rest /= levels;
            level as f64 / (levels - 1) as f64
        } else {
            0.0
        });
    }
    assert_eq!(rest, 0, "configuration index out of range");
}

impl Tuner for ActiveHarmony {
    fn name(&self) -> &str {
        "ActiveHarmony"
    }

    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> TuningOutcome {
        let mut rng = SimRng::new(self.seed).derive("active-harmony");
        let dims = workload.space().dimensions();
        let mut evaluator = CloudEvaluator::new(workload, exec, budget);

        while !evaluator.exhausted() {
            // Fresh random simplex for this restart.
            let vertices: Vec<Vec<f64>> = (0..dims + 1)
                .map(|_| (0..dims).map(|_| rng.uniform()).collect())
                .collect();
            let per_restart = evaluator.remaining().min(budget.max_evaluations / 2).max(1);
            nelder_mead(dims, vertices, per_restart, |point| {
                let id = vector_to_config(workload, point);
                evaluator.evaluate(id)
            });
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
    fn vector_config_round_trip() {
        let workload = Workload::scaled(Application::Redis, 5_000);
        let mut vector = Vec::new();
        for id in [0u64, 7, 101, workload.size() - 1] {
            config_to_vector(&workload, id, &mut vector);
            assert_eq!(vector_to_config(&workload, &vector), id);
        }
    }

    #[test]
    fn finds_better_than_median_configuration() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 13);
        let outcome =
            ActiveHarmony::new(1).tune(&workload, &mut cloud, TuningBudget::evaluations(120));
        // The chosen configuration should at least beat the surface's midpoint time.
        let config = workload.application().surface_config();
        let midpoint = (config.best_time + config.worst_time) / 2.0;
        assert!(
            workload.base_time(outcome.chosen) < midpoint,
            "ActiveHarmony should beat the midpoint"
        );
        assert!(outcome.samples <= 120);
    }

    #[test]
    fn is_deterministic_for_fixed_seeds() {
        let workload = Workload::scaled(Application::Gromacs, 5_000);
        let run = || {
            let mut cloud =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 21);
            ActiveHarmony::new(3)
                .tune(&workload, &mut cloud, TuningBudget::evaluations(60))
                .chosen
        };
        assert_eq!(run(), run());
    }
}
