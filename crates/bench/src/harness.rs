//! The experiment harness shared by every figure/table benchmark.

use dg_campaign::ExperimentScale;
use dg_cloudsim::{CloudEnvironment, InterferenceProfile, SimTime, VmType};
use dg_tuners::{OracleTuner, Tuner, TuningBudget, TuningOutcome};
use dg_workloads::{Application, ConfigId, Workload};

/// The outcome of one tuning session, re-measured the way the paper's figures report it:
/// the chosen configuration is executed repeatedly in the cloud at later times, and its
/// mean execution time and coefficient of variation are recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedChoice {
    /// The tuner that produced the choice.
    pub tuner: String,
    /// The chosen configuration.
    pub chosen: ConfigId,
    /// Mean execution time of the chosen configuration over repeated cloud runs (s).
    pub mean_time: f64,
    /// Coefficient of variation of those runs (%).
    pub cov_percent: f64,
    /// Core-hours spent tuning.
    pub core_hours: f64,
    /// Wall-clock seconds spent tuning.
    pub wall_clock_seconds: f64,
}

/// Builds the standard (reduced-scale) workload for an application.
pub fn standard_workload(app: Application, scale: &ExperimentScale) -> Workload {
    Workload::scaled(app, scale.space_size)
}

/// The dedicated-environment optimum execution time for an application at this scale —
/// the "Optimal" bar of Fig. 3/10/15.
pub fn oracle_reference(workload: &Workload, vm: VmType) -> f64 {
    OracleTuner::new().optimal_time(workload, vm)
}

/// Measures the chosen configuration with repeated later executions in the same cloud.
fn evaluate_choice(
    workload: &Workload,
    cloud: &CloudEnvironment,
    outcome: &TuningOutcome,
    scale: &ExperimentScale,
) -> EvaluatedChoice {
    let runs = cloud.observe_repeated(
        workload.spec(outcome.chosen),
        scale.evaluation_runs,
        scale.evaluation_spacing,
    );
    EvaluatedChoice {
        tuner: outcome.tuner.clone(),
        chosen: outcome.chosen,
        mean_time: dg_stats::mean(&runs),
        cov_percent: dg_stats::coefficient_of_variation(&runs),
        core_hours: outcome.core_hours,
        wall_clock_seconds: outcome.wall_clock_seconds,
    }
}

/// Runs one tuning session on a fresh m5.8xlarge cloud environment and evaluates its
/// choice: any tuner, DarwinGame and the hybrids included. Exhaustive search gets the
/// scale's exhaustive budget and every other tuner its baseline budget, which
/// DarwinGame and the hybrids ignore (their tournaments size their own effort).
///
/// `start_time` lets Fig. 3 tune at different times of day; pass 0 for the default.
pub fn run_session(
    tuner: &mut dyn Tuner,
    app: Application,
    scale: &ExperimentScale,
    env_seed: u64,
    start_time: f64,
) -> EvaluatedChoice {
    let workload = standard_workload(app, scale);
    let mut cloud =
        CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), env_seed);
    if start_time > 0.0 {
        cloud.set_clock(SimTime::from_seconds(start_time));
    }
    let budget = if tuner.name() == "Exhaustive" {
        TuningBudget::evaluations(scale.exhaustive_budget)
    } else {
        TuningBudget::evaluations(scale.baseline_budget)
    };
    let outcome = tuner.tune(&workload, &mut cloud, budget);
    evaluate_choice(&workload, &cloud, &outcome, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_tuners::RandomSearch;

    #[test]
    fn smoke_scale_baseline_and_darwin_round_trip() {
        let scale = ExperimentScale::smoke();
        let mut random = RandomSearch::new(1);
        let baseline = run_session(&mut random, Application::Redis, &scale, 5, 0.0);
        assert!(baseline.mean_time > 0.0);
        assert!(baseline.core_hours > 0.0);

        let mut tuner = dg_campaign::standard_registry(&scale)
            .build("DarwinGame", 2, VmType::M5_8xlarge)
            .expect("DarwinGame is registered");
        let darwin = run_session(tuner.as_mut(), Application::Redis, &scale, 6, 0.0);
        assert_eq!(darwin.tuner, "DarwinGame");
        assert!(darwin.mean_time > 0.0);
        assert!(darwin.cov_percent >= 0.0);
    }

    #[test]
    fn oracle_reference_is_lower_bound_for_choices() {
        let scale = ExperimentScale::smoke();
        let workload = standard_workload(Application::Ffmpeg, &scale);
        let oracle = oracle_reference(&workload, VmType::M5_8xlarge);
        let mut random = RandomSearch::new(3);
        let choice = run_session(&mut random, Application::Ffmpeg, &scale, 9, 0.0);
        assert!(choice.mean_time >= oracle * 0.98);
    }
}
