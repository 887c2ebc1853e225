//! The shared evaluation harness every baseline tuner samples through.

use crate::outcome::{SampleRecord, TuningOutcome};
use dg_cloudsim::CostSnapshot;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};

/// A sampling budget for a tuning session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningBudget {
    /// Maximum number of configuration evaluations the tuner may perform.
    pub max_evaluations: usize,
}

impl TuningBudget {
    /// Creates a budget of `max_evaluations` samples.
    ///
    /// # Panics
    ///
    /// Panics if `max_evaluations == 0`.
    pub fn evaluations(max_evaluations: usize) -> Self {
        assert!(
            max_evaluations > 0,
            "budget must allow at least one evaluation"
        );
        Self { max_evaluations }
    }
}

impl Default for TuningBudget {
    /// 200 evaluations: roughly the sample count existing tuners use in the paper's
    /// experiments before their outcome stops improving.
    fn default() -> Self {
        Self {
            max_evaluations: 200,
        }
    }
}

/// Counts samples, records history, and charges the execution backend on behalf of a
/// baseline tuner.
///
/// Baseline tuners evaluate one configuration at a time, alone on the node — exactly how
/// OpenTuner/ActiveHarmony/BLISS operate when pointed at a cloud VM. (DarwinGame, in the
/// `darwin-core` crate, instead plays co-located games and does not use this type.)
pub struct CloudEvaluator<'a> {
    workload: &'a Workload,
    exec: &'a mut dyn ExecutionBackend,
    budget: TuningBudget,
    history: Vec<SampleRecord>,
    cost_at_start: CostSnapshot,
}

impl<'a> CloudEvaluator<'a> {
    /// Creates an evaluator bound to a workload, an execution backend, and a budget.
    pub fn new(
        workload: &'a Workload,
        exec: &'a mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> Self {
        let cost_at_start = exec.cost().snapshot();
        Self {
            workload,
            exec,
            budget,
            history: Vec::new(),
            cost_at_start,
        }
    }

    /// The workload under tuning.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Remaining evaluations in the budget.
    pub fn remaining(&self) -> usize {
        self.budget
            .max_evaluations
            .saturating_sub(self.history.len())
    }

    /// True once the budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Evaluates configuration `id` once in the noisy cloud, alone on the node.
    ///
    /// Returns the observed execution time. If the budget is already exhausted the
    /// configuration is *not* run and the last known observation (or `f64::INFINITY`)
    /// is returned, so tuner loops can simply keep asking until [`exhausted`] is true.
    ///
    /// [`exhausted`]: Self::exhausted
    pub fn evaluate(&mut self, id: ConfigId) -> f64 {
        if self.exhausted() {
            return self
                .history
                .iter()
                .rev()
                .find(|s| s.config == id)
                .map(|s| s.observed_time)
                .unwrap_or(f64::INFINITY);
        }
        let observed = self.exec.run_single(self.workload.spec(id)).observed_time;
        self.history.push(SampleRecord {
            config: id,
            observed_time: observed,
        });
        observed
    }

    /// The best sample taken so far, if any.
    pub fn best(&self) -> Option<SampleRecord> {
        self.history.iter().copied().min_by(|a, b| {
            a.observed_time
                .partial_cmp(&b.observed_time)
                .expect("no NaN")
        })
    }

    /// The recorded history so far.
    pub fn history(&self) -> &[SampleRecord] {
        &self.history
    }

    /// Finalises the session: the tuner declares its chosen configuration and the
    /// evaluator wraps it together with the resource usage delta.
    pub fn finish(self, tuner: &str, chosen: ConfigId) -> TuningOutcome {
        let believed_time = self
            .history
            .iter()
            .filter(|s| s.config == chosen)
            .map(|s| s.observed_time)
            .fold(f64::INFINITY, f64::min);
        let believed_time = if believed_time.is_finite() {
            believed_time
        } else {
            // The tuner picked a configuration it never sampled (should not happen for
            // the baselines, but stay total).
            self.best().map(|s| s.observed_time).unwrap_or(0.0)
        };
        let spent = self.cost_at_start.delta(self.exec.cost());
        TuningOutcome {
            tuner: tuner.to_string(),
            chosen,
            believed_time,
            samples: self.history.len(),
            core_hours: spent.core_hours,
            wall_clock_seconds: spent.wall_clock_seconds,
            history: self.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    fn setup() -> (Workload, CloudEnvironment) {
        (
            Workload::scaled(Application::Redis, 5_000),
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 7),
        )
    }

    #[test]
    fn evaluation_consumes_budget_and_charges_cost() {
        let (workload, mut cloud) = setup();
        let mut evaluator =
            CloudEvaluator::new(&workload, &mut cloud, TuningBudget::evaluations(3));
        assert_eq!(evaluator.remaining(), 3);
        evaluator.evaluate(0);
        evaluator.evaluate(1);
        assert_eq!(evaluator.history().len(), 2);
        assert_eq!(evaluator.remaining(), 1);
        let outcome = evaluator.finish("test", 1);
        assert_eq!(outcome.samples, 2);
        assert!(outcome.core_hours > 0.0);
        assert!(outcome.wall_clock_seconds > 0.0);
    }

    #[test]
    fn exhausted_budget_stops_running() {
        let (workload, mut cloud) = setup();
        let mut evaluator =
            CloudEvaluator::new(&workload, &mut cloud, TuningBudget::evaluations(1));
        let first = evaluator.evaluate(5);
        assert!(first.is_finite());
        assert!(evaluator.exhausted());
        // Second evaluation of an unseen config returns infinity and takes no sample.
        let second = evaluator.evaluate(6);
        assert!(second.is_infinite());
        assert_eq!(evaluator.history().len(), 1);
        // Re-asking about the already-seen config returns the recorded value.
        let again = evaluator.evaluate(5);
        assert_eq!(again, first);
    }

    #[test]
    fn believed_time_is_best_observation_of_chosen() {
        let (workload, mut cloud) = setup();
        let mut evaluator =
            CloudEvaluator::new(&workload, &mut cloud, TuningBudget::evaluations(4));
        evaluator.evaluate(10);
        evaluator.evaluate(10);
        evaluator.evaluate(20);
        let history: Vec<f64> = evaluator
            .history()
            .iter()
            .filter(|s| s.config == 10)
            .map(|s| s.observed_time)
            .collect();
        let outcome = evaluator.finish("test", 10);
        assert_eq!(
            outcome.believed_time,
            history.iter().copied().fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    #[should_panic(expected = "at least one evaluation")]
    fn zero_budget_rejected() {
        TuningBudget::evaluations(0);
    }
}
