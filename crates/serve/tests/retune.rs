//! Integration battery for the online retuning loop: differential properties
//! (steady environments never trigger a retune, planted shifts always do, within a
//! bounded number of samples) and the determinism contracts (record→replay and
//! 1-vs-N-worker byte-identity of whole retune sessions).

use dg_campaign::DEPLOY_SPACING_SECONDS;
use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
use dg_exec::ExecutionBackend;
use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};
use dg_serve::{RetuneEvent, RetuneLoop, RetunePolicy, RetuneSpec, RetuneSweep, ServeMode};
use dg_tuners::TunerRegistry;
use dg_workloads::{Application, Workload};
use proptest::prelude::*;

const VM: VmType = VmType::M5_8xlarge;

fn policy() -> RetunePolicy {
    RetunePolicy {
        initial_budget: 8,
        max_retunes: 2,
        deploy_steps: 72,
    }
}

fn serve_under(
    scenario: Option<ScenarioSpec>,
    env_seed: u64,
    loop_seed: u64,
) -> dg_serve::RetuneSession {
    let workload = Workload::scaled(Application::Redis, 500);
    let registry = TunerRegistry::baselines();
    let policy = policy();
    let mut exec: Box<dyn ExecutionBackend> = Box::new(CloudEnvironment::new(
        VM,
        InterferenceProfile::typical(),
        env_seed,
    ));
    if let Some(scenario) = scenario {
        exec = Box::new(ScenarioBackend::new(exec, scenario, env_seed));
    }
    RetuneLoop::new(&workload, &registry, "RandomSearch", &policy, loop_seed)
        .serve(exec.as_mut(), ServeMode::Adaptive)
}

proptest! {
    /// Differential false-positive bound: under a steady environment (stationary
    /// interference, no scenario events) the monitor must never confirm a drift, so
    /// the loop never spends a single retune evaluation — for any seeds.
    #[test]
    fn steady_environments_never_trigger_a_retune(env_seed in 0u64..1_000, loop_seed in 0u64..1_000) {
        let session = serve_under(None, env_seed, loop_seed);
        prop_assert_eq!(session.detections, 0, "steady must never fire");
        prop_assert_eq!(session.retunes, 0);
        prop_assert_eq!(session.switches, 0);
        prop_assert_eq!(session.initial_champion, session.final_champion);
    }

    /// Differential true-positive bound: a planted 2.2x load shift after calibration
    /// is always detected, and within a bounded number of deployment samples.
    #[test]
    fn planted_load_shifts_are_detected_within_bounded_samples(env_seed in 0u64..1_000, loop_seed in 0u64..1_000) {
        // Past the default 32-sample calibration window, so the detector is armed
        // when the regime turns.
        let shift_step = 40usize;
        let mut scenario = ScenarioSpec::new("planted-shift");
        scenario.events.push(ScenarioEvent::LoadShift {
            at: shift_step as f64 * DEPLOY_SPACING_SECONDS,
            factor: 2.2,
        });
        let session = serve_under(Some(scenario), env_seed, loop_seed);
        prop_assert!(session.detections >= 1, "the shift must be detected");
        let detected_at = session.events.iter().find_map(|e| match e {
            RetuneEvent::Detection { step, .. } => Some(*step),
            _ => None,
        }).expect("at least one detection event");
        prop_assert!(
            detected_at >= shift_step,
            "detection at step {} cannot precede the shift at step {}",
            detected_at,
            shift_step
        );
        prop_assert!(
            detected_at < shift_step + 16,
            "detection at step {} must closely follow the shift at step {}",
            detected_at,
            shift_step
        );
    }
}

fn gauntlet_spec() -> RetuneSpec {
    let mut spec = RetuneSpec::gauntlet("retune-it", 2);
    spec.space_size = 500;
    spec.policy = policy();
    spec
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let sweep = RetuneSweep::new(gauntlet_spec());
    let serial = sweep.run_with_workers(1);
    let parallel = sweep.run_with_workers(4);
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn recorded_retune_sessions_replay_byte_identically() {
    let sweep = RetuneSweep::new(gauntlet_spec());
    let (live, trace) = sweep.record_with_workers(2);
    let replayed = sweep
        .replay_with_workers(trace, 1)
        .expect("own trace replays");
    assert_eq!(live.to_json(), replayed.to_json());
}

#[test]
fn both_legs_share_the_same_regret_baseline() {
    // The adaptive and fixed legs probe the oracle at identical times with identical
    // salts on same-seeded environments; the sweep relies on that pairing when it
    // reports a single reference_time per cell. Run the two legs by hand and check.
    let workload = Workload::scaled(Application::Redis, 500);
    let registry = TunerRegistry::baselines();
    let policy = policy();
    let serve = RetuneLoop::new(&workload, &registry, "RandomSearch", &policy, 3);
    let mut a: Box<dyn ExecutionBackend> =
        Box::new(CloudEnvironment::new(VM, InterferenceProfile::typical(), 9));
    let mut b: Box<dyn ExecutionBackend> =
        Box::new(CloudEnvironment::new(VM, InterferenceProfile::typical(), 9));
    let adaptive = serve.serve(a.as_mut(), ServeMode::Adaptive);
    let fixed = serve.serve(
        b.as_mut(),
        ServeMode::TuneOnce {
            evaluations: adaptive.evaluations,
        },
    );
    assert_eq!(
        adaptive.reference_time.to_bits(),
        fixed.reference_time.to_bits()
    );
}

#[test]
fn steady_gauntlet_column_reports_zero_retunes() {
    let report = RetuneSweep::new(gauntlet_spec()).run_with_workers(2);
    let steady = report.scenario("steady").expect("steady column");
    assert_eq!(steady.retunes, 0, "steady cells must never retune");
    assert_eq!(steady.detections, 0, "steady cells must never detect drift");
}
