//! The online retuning loop: deploy a champion, watch it, re-tournament on drift.
//!
//! [`RetuneLoop::serve`] implements the serving protocol the retune sweeps measure:
//!
//! 1. **Initial tune** — a tuning session on a forked sub-environment picks the first
//!    champion (the fixed leg spends its whole budget here and stops; the sweep hands
//!    it exactly the evaluations the adaptive leg ended up spending, so the two legs
//!    differ only in *when* the budget is spent).
//! 2. **Deployment** — the champion is observed at a fixed cadence over the serving
//!    horizon via cost-free probes; every observation feeds the [`ChampionMonitor`],
//!    and the oracle configuration is probed at the same instants (same measurement
//!    noise) as the regret baseline.
//! 3. **Retune** — when the monitor confirms a regime change, a *mini-tournament*
//!    runs on a fork whose clock is advanced to the detection time, warm-started
//!    with the incumbent and a bounded hall of fame of former champions.
//! 4. **Acceptance gate** — the mini-tournament's candidate replaces the incumbent
//!    only if paired cost-free probes (identical times and noise draws for both
//!    configurations) show it faster by at least [`ACCEPT_MARGIN`]. The gate is a
//!    ratchet: tuning-time flukes cannot make the deployment worse, because the
//!    comparison is load-controlled in a way single-leg tuning observations are not.
//!
//! After every retune the monitor resets, so the (possibly new) champion's behaviour
//! under the *current* regime becomes the new reference.

use crate::monitor::ChampionMonitor;
use dg_campaign::{
    RetunePolicy, ACCEPT_MARGIN, CONFIRM_SAMPLES, CONFIRM_STRIDE_STEPS, DEPLOY_SPACING_SECONDS,
    HALL_OF_FAME, RETUNE_BUDGET,
};
use dg_cloudsim::{mix, SimTime};
use dg_exec::ExecutionBackend;
use dg_obs::{emit_with, ObsEvent};
use dg_stats::DriftDirection;
use dg_tuners::{TunerRegistry, TuningBudget};
use dg_workloads::{ConfigId, Workload};

/// Which leg of the retune comparison to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// The full loop: initial tune, monitoring, and live re-tournaments.
    Adaptive,
    /// The paper's protocol: one tuning session spending `evaluations` up front, then
    /// the champion is never touched again. Pass the adaptive leg's realized
    /// [`RetuneSession::evaluations`] for an exact same-total-budget comparison — the
    /// only difference left is then *when* the budget is spent, not how much.
    TuneOnce {
        /// Total evaluation budget of the single up-front tuning session.
        evaluations: usize,
    },
}

/// One deployment observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step ordinal.
    pub step: usize,
    /// Simulated start time of the observation, seconds.
    pub at: f64,
    /// Observed execution time of the deployed champion, seconds.
    pub observed: f64,
    /// Observed execution time of the oracle configuration at the same instant,
    /// seconds.
    pub reference: f64,
    /// The champion deployed at this step.
    pub champion: ConfigId,
}

/// Something the loop did beyond plain observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetuneEvent {
    /// The monitor confirmed a regime change.
    Detection {
        /// Step at which the detection fired.
        step: usize,
        /// Simulated time of the detection, seconds.
        at: f64,
        /// Direction of the confirmed drift.
        direction: DriftDirection,
    },
    /// A mini-tournament ran.
    Retune {
        /// Step at which the tournament ran.
        step: usize,
        /// The configuration the paired-probe selection favoured.
        candidate: ConfigId,
        /// Whether the gate accepted the candidate over the incumbent.
        accepted: bool,
    },
    /// A cost-free reselection among the incumbent and the hall of fame ran instead
    /// of (or before) spending tournament budget.
    Reselect {
        /// Step at which the reselection ran.
        step: usize,
        /// The configuration the paired probes favoured.
        candidate: ConfigId,
        /// Whether the candidate replaced the incumbent.
        accepted: bool,
    },
}

/// The complete record of one serving session.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneSession {
    /// Champion selected by the initial tuning session.
    pub initial_champion: ConfigId,
    /// Champion deployed when the horizon ended.
    pub final_champion: ConfigId,
    /// Every deployment observation, in order.
    pub steps: Vec<StepRecord>,
    /// Detections and retunes, in order.
    pub events: Vec<RetuneEvent>,
    /// Regime changes the monitor confirmed.
    pub detections: usize,
    /// Mini-tournaments actually run.
    pub retunes: usize,
    /// Candidate champions accepted by the paired-probe gate.
    pub switches: usize,
    /// Total observed execution time of the deployed champions, seconds.
    pub deployed_time: f64,
    /// Total observed execution time of the oracle configuration over the same
    /// schedule, seconds.
    pub reference_time: f64,
    /// Configuration evaluations spent (initial session plus mini-tournaments;
    /// cost-free probes are not evaluations).
    pub evaluations: usize,
    /// Core-hours consumed by tuning.
    pub core_hours: f64,
}

impl RetuneSession {
    /// Cumulative regret: deployed time minus the oracle baseline, seconds.
    pub fn regret(&self) -> f64 {
        self.deployed_time - self.reference_time
    }
}

/// The online retuning loop for one workload on one execution backend.
pub struct RetuneLoop<'a> {
    workload: &'a Workload,
    registry: &'a TunerRegistry,
    tuner: &'a str,
    policy: &'a RetunePolicy,
    seed: u64,
}

impl<'a> RetuneLoop<'a> {
    /// Creates a loop. `seed` keys every sub-stream the loop derives (tuner seeds,
    /// fork seeds), so two loops with the same seed on same-seeded backends are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid or `tuner` is not in the registry.
    pub fn new(
        workload: &'a Workload,
        registry: &'a TunerRegistry,
        tuner: &'a str,
        policy: &'a RetunePolicy,
        seed: u64,
    ) -> Self {
        policy.validate();
        assert!(
            registry.contains(tuner),
            "tuner {tuner:?} is not registered"
        );
        Self {
            workload,
            registry,
            tuner,
            policy,
            seed,
        }
    }

    /// Runs one serving session over `exec`'s environment and returns its record.
    ///
    /// The deployment probes are cost-free and never advance `exec`'s clock; all
    /// tuning happens on forks, so `exec` is left positioned where it started.
    pub fn serve(&self, exec: &mut dyn ExecutionBackend, mode: ServeMode) -> RetuneSession {
        let policy = self.policy;
        let (initial_budget, allowed_retunes) = match mode {
            ServeMode::Adaptive => (policy.initial_budget, policy.max_retunes),
            ServeMode::TuneOnce { evaluations } => (evaluations, 0),
        };
        let reference = self.workload.oracle_index(1_024);
        let vm = exec.vm();

        // Initial tuning session on a fork: deployment time stays untouched.
        let mut arena = exec.fork(mix(self.seed, 1));
        let mut tuner = self
            .registry
            .build(self.tuner, mix(self.seed, 2), vm)
            .expect("tuner checked at construction");
        let outcome = tuner.tune(
            self.workload,
            arena.as_mut(),
            TuningBudget::evaluations(initial_budget),
        );
        let mut champion = outcome.chosen;
        let initial_champion = champion;
        let mut evaluations = outcome.samples;
        let mut core_hours = outcome.core_hours;
        drop(arena);

        let mut monitor = ChampionMonitor::new();
        let mut hall_of_fame: Vec<ConfigId> = Vec::new();
        let mut steps = Vec::with_capacity(policy.deploy_steps);
        let mut events = Vec::new();
        let (mut detections, mut retunes, mut switches) = (0usize, 0usize, 0usize);
        let (mut deployed_time, mut reference_time) = (0.0f64, 0.0f64);

        for step in 0..policy.deploy_steps {
            let at = step as f64 * DEPLOY_SPACING_SECONDS;
            let start = SimTime::from_seconds(at);
            // Same start and salt for both probes: the measurement-noise draws are
            // identical, so the regret increment isolates the configuration gap.
            let observed = exec.observe_single_at(self.workload.spec(champion), start, step as u64);
            let oracle = exec.observe_single_at(self.workload.spec(reference), start, step as u64);
            deployed_time += observed;
            reference_time += oracle;
            steps.push(StepRecord {
                step,
                at,
                observed,
                reference: oracle,
                champion,
            });

            let Some(direction) = monitor.push(observed) else {
                continue;
            };
            detections += 1;
            emit_with(|| ObsEvent::RetuneDetection {
                step,
                at,
                direction: match direction {
                    DriftDirection::Up => "up".into(),
                    DriftDirection::Down => "down".into(),
                },
            });
            events.push(RetuneEvent::Detection {
                step,
                at,
                direction,
            });

            // First, a cost-free reselection: former champions in the hall of fame
            // may already fit the new regime (a cyclic load turning back). Paired
            // probes spend no evaluation budget, so trying them never hurts parity.
            let freebies: Vec<ConfigId> = hall_of_fame
                .iter()
                .copied()
                .filter(|h| *h != champion)
                .collect();
            if !freebies.is_empty() {
                if let Some(candidate) = self.paired_winner(exec, &freebies, champion, at) {
                    emit_with(|| ObsEvent::Retune {
                        step,
                        kind: "reselect".into(),
                        accepted: true,
                    });
                    events.push(RetuneEvent::Reselect {
                        step,
                        candidate,
                        accepted: true,
                    });
                    switches += 1;
                    hall_of_fame.retain(|h| *h != champion);
                    hall_of_fame.insert(0, champion);
                    hall_of_fame.truncate(HALL_OF_FAME);
                    champion = candidate;
                    monitor.reset();
                    continue;
                }
            }
            if retunes >= allowed_retunes {
                monitor.reset();
                continue;
            }
            retunes += 1;

            // Mini-tournament at the detection time: the fork's clock is advanced so
            // the tournament evaluates configurations under the *current* regime.
            let mut arena = exec.fork(mix(self.seed, 1_000 + retunes as u64));
            arena.set_clock(start);
            let mut hints = vec![champion];
            hints.extend(hall_of_fame.iter().copied().filter(|h| *h != champion));
            let mut tuner = self
                .registry
                .build_warm(
                    self.tuner,
                    mix(self.seed, 2_000 + retunes as u64),
                    vm,
                    &hints,
                )
                .expect("tuner checked at construction");
            let outcome = tuner.tune(
                self.workload,
                arena.as_mut(),
                TuningBudget::evaluations(RETUNE_BUDGET),
            );
            evaluations += outcome.samples;
            core_hours += outcome.core_hours;

            // The tournament's single noisy believed-best is not trusted directly:
            // its top evaluated configurations all face the paired wide-window gate,
            // and whichever wins there (if any) replaces the incumbent.
            let candidates = top_candidates(&outcome, champion, TOURNAMENT_TOP_K);
            let winner = self.paired_winner(exec, &candidates, champion, at);
            emit_with(|| ObsEvent::Retune {
                step,
                kind: "retune".into(),
                accepted: winner.is_some(),
            });
            events.push(RetuneEvent::Retune {
                step,
                candidate: winner.unwrap_or(outcome.chosen),
                accepted: winner.is_some(),
            });
            if let Some(candidate) = winner {
                switches += 1;
                hall_of_fame.retain(|h| *h != champion);
                hall_of_fame.insert(0, champion);
                hall_of_fame.truncate(HALL_OF_FAME);
                champion = candidate;
            }
            // Whatever was decided, the current regime becomes the new reference.
            monitor.reset();
        }

        RetuneSession {
            initial_champion,
            final_champion: champion,
            steps,
            events,
            detections,
            retunes,
            switches,
            deployed_time,
            reference_time,
            evaluations,
            core_hours,
        }
    }

    /// The paired acceptance gate: probes every candidate and the incumbent at the
    /// same upcoming instants with the same salts (identical noise draws), and
    /// returns the best candidate — only if it beats the incumbent by
    /// [`ACCEPT_MARGIN`]. Probes are cost-free, so the gate spends no evaluation budget.
    ///
    /// Probes spread across `CONFIRM_SAMPLES * CONFIRM_STRIDE_STEPS` steps of future
    /// schedule: the window spans whatever mix of regimes the coming hours hold (a
    /// storm tail plus the quiet after it, the turn of a diurnal cycle), so a
    /// candidate must win across that mix — not just at the instant the detector
    /// fired.
    fn paired_winner(
        &self,
        exec: &mut dyn ExecutionBackend,
        candidates: &[ConfigId],
        incumbent: ConfigId,
        at: f64,
    ) -> Option<ConfigId> {
        let stride = DEPLOY_SPACING_SECONDS * CONFIRM_STRIDE_STEPS as f64;
        let total = |exec: &mut dyn ExecutionBackend, config: ConfigId| -> f64 {
            (0..CONFIRM_SAMPLES)
                .map(|probe| {
                    let t = SimTime::from_seconds(at + stride * (probe + 1) as f64);
                    exec.observe_single_at(self.workload.spec(config), t, probe as u64)
                })
                .sum()
        };
        let incumbent_total = total(exec, incumbent);
        let best = candidates
            .iter()
            .map(|&c| (c, total(exec, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))?;
        (best.1 < incumbent_total * (1.0 - ACCEPT_MARGIN)).then_some(best.0)
    }
}

/// Upper bound on tournament candidates offered to the paired gate.
const TOURNAMENT_TOP_K: usize = 3;

/// The tournament's strongest distinct configurations by observed time (the believed
/// best first), excluding the incumbent.
fn top_candidates(
    outcome: &dg_tuners::TuningOutcome,
    incumbent: ConfigId,
    k: usize,
) -> Vec<ConfigId> {
    let mut ranked: Vec<(ConfigId, f64)> = Vec::new();
    for record in &outcome.history {
        if record.config == incumbent {
            continue;
        }
        match ranked.iter_mut().find(|(c, _)| *c == record.config) {
            Some(entry) => entry.1 = entry.1.min(record.observed_time),
            None => ranked.push((record.config, record.observed_time)),
        }
    }
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut out: Vec<ConfigId> = Vec::with_capacity(k);
    if outcome.chosen != incumbent {
        out.push(outcome.chosen);
    }
    for (config, _) in ranked {
        if out.len() >= k {
            break;
        }
        if !out.contains(&config) {
            out.push(config);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_campaign::standard_registry;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};
    use dg_stats::DRIFT_WARMUP;
    use dg_workloads::Application;

    const VM: VmType = VmType::M5_8xlarge;

    fn smoke_policy() -> RetunePolicy {
        RetunePolicy {
            initial_budget: 10,
            max_retunes: 2,
            deploy_steps: 56,
        }
    }

    fn backend(seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            VM,
            InterferenceProfile::typical(),
            seed,
        ))
    }

    #[test]
    fn serve_is_deterministic_and_leaves_the_backend_clock_alone() {
        let workload = Workload::scaled(Application::Redis, 2_000);
        let registry = standard_registry(&dg_campaign::ExperimentScale::smoke());
        let policy = smoke_policy();
        let run = || {
            let mut exec = backend(7);
            let before = exec.clock();
            let session = RetuneLoop::new(&workload, &registry, "RandomSearch", &policy, 11)
                .serve(exec.as_mut(), ServeMode::Adaptive);
            assert_eq!(
                exec.clock(),
                before,
                "probes and forks must not move the clock"
            );
            session
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.steps.len(), policy.deploy_steps);
        assert!(a.evaluations >= policy.initial_budget);
        assert!(a.deployed_time > 0.0 && a.reference_time > 0.0);
    }

    #[test]
    fn tune_once_spends_exactly_the_requested_budget_and_never_retunes() {
        let workload = Workload::scaled(Application::Redis, 2_000);
        let registry = standard_registry(&dg_campaign::ExperimentScale::smoke());
        let policy = smoke_policy();
        let mut exec = backend(3);
        let session = RetuneLoop::new(&workload, &registry, "RandomSearch", &policy, 5)
            .serve(exec.as_mut(), ServeMode::TuneOnce { evaluations: 22 });
        assert_eq!(session.retunes, 0);
        assert_eq!(session.switches, 0);
        assert_eq!(session.initial_champion, session.final_champion);
        assert_eq!(session.evaluations, 22);
    }

    #[test]
    fn a_planted_load_shift_is_detected_and_retuned() {
        let workload = Workload::scaled(Application::Redis, 2_000);
        let registry = standard_registry(&dg_campaign::ExperimentScale::smoke());
        let policy = RetunePolicy {
            deploy_steps: 72,
            ..smoke_policy()
        };
        // A 2.2x load shift lands twelve steps after calibration completes.
        let shift_step = DRIFT_WARMUP as usize + 12;
        let mut spec = ScenarioSpec::new("planted-shift");
        spec.events.push(ScenarioEvent::LoadShift {
            at: shift_step as f64 * DEPLOY_SPACING_SECONDS,
            factor: 2.2,
        });
        let mut exec: Box<dyn ExecutionBackend> =
            Box::new(ScenarioBackend::new(backend(9), spec, 9));
        let session = RetuneLoop::new(&workload, &registry, "RandomSearch", &policy, 21)
            .serve(exec.as_mut(), ServeMode::Adaptive);
        assert!(session.detections >= 1, "the shift must be detected");
        assert!(session.retunes >= 1, "a detection must trigger a retune");
        let detection_step = session
            .events
            .iter()
            .find_map(|e| match e {
                RetuneEvent::Detection { step, .. } => Some(*step),
                _ => None,
            })
            .expect("at least one detection");
        assert!(
            (shift_step..shift_step + 20).contains(&detection_step),
            "detection at step {detection_step} should closely follow the shift at step \
             {shift_step}"
        );
    }
}
