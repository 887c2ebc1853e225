//! The common interface implemented by every baseline tuner.

use crate::evaluator::TuningBudget;
use crate::outcome::TuningOutcome;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};

/// An application performance tuner.
///
/// A tuner navigates the workload's search space by evaluating configurations through
/// the provided [`ExecutionBackend`] and finally selects the configuration it believes
/// is fastest. Implementations differ only in how they choose which configurations to
/// evaluate; they all observe the same noisy execution times. Because tuners only see
/// the backend trait, the same tuner runs unchanged against the cloud simulator, a
/// recorded trace, or a real-process backend.
pub trait Tuner {
    /// The tuner's display name, as used in the paper's figures.
    fn name(&self) -> &str;

    /// Runs one tuning session and returns the selected configuration plus bookkeeping.
    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> TuningOutcome;

    /// Seeds the next [`tune`](Self::tune) call with known-good configurations — the
    /// incumbent champion and hall-of-fame of an online retuning loop. Tuners that
    /// support warm starting evaluate the hints before exploring; the default ignores
    /// them, so every tuner remains a valid (cold-start) retuning candidate.
    fn warm_start(&mut self, hints: &[ConfigId]) {
        let _ = hints;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::CloudEvaluator;

    /// A trivial tuner used to exercise the trait object path.
    struct FirstConfigTuner;

    impl Tuner for FirstConfigTuner {
        fn name(&self) -> &str {
            "first-config"
        }

        fn tune(
            &mut self,
            workload: &Workload,
            exec: &mut dyn ExecutionBackend,
            budget: TuningBudget,
        ) -> TuningOutcome {
            let mut evaluator = CloudEvaluator::new(workload, exec, budget);
            evaluator.evaluate(0);
            evaluator.finish(self.name(), 0)
        }
    }

    #[test]
    fn trait_objects_work() {
        use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
        use dg_workloads::Application;

        let workload = Workload::scaled(Application::Redis, 2_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
        let mut tuner: Box<dyn Tuner> = Box::new(FirstConfigTuner);
        let outcome = tuner.tune(&workload, &mut cloud, TuningBudget::evaluations(5));
        assert_eq!(outcome.tuner, "first-config");
        assert_eq!(outcome.chosen, 0);
        assert_eq!(outcome.samples, 1);
    }
}
