//! The retune sweep driver: runs a [`RetuneSpec`] grid across worker threads.
//!
//! Runs on `dg-exec`'s worker pool ([`run_ordered`]): cells are independent (every
//! RNG stream derives from [`RetuneSpec::cell_seed`]), workers pull cells from a shared
//! cursor, and results are assembled in stable grid order — so the
//! [`RetuneReport`] is byte-identical no matter how many workers ran. Each cell's two
//! legs draw their backends from a [`BackendProvider`] under distinct stream keys,
//! which is what makes whole sweeps recordable and replayable through `dg-exec`'s
//! trace machinery.

use crate::retune::{RetuneLoop, ServeMode};
use dg_campaign::{RetuneCellCoord, RetuneCellResult, RetuneReport, RetuneSpec};
use dg_cloudsim::InterferenceProfile;
use dg_exec::{
    default_workers, run_ordered, BackendProvider, ExecutionTrace, SimProvider, TraceError,
    TraceRecorder, TraceReplayer,
};
use dg_scenario::ScenarioBackend;
use dg_tuners::TunerRegistry;
use dg_workloads::Workload;
use std::sync::Arc;

/// A retune sweep ready to run: a validated spec plus the registry resolving its
/// tuner.
pub struct RetuneSweep {
    spec: RetuneSpec,
    registry: TunerRegistry,
}

impl std::fmt::Debug for RetuneSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetuneSweep")
            .field("spec", &self.spec.name)
            .field("grid_cells", &self.spec.grid_size())
            .finish()
    }
}

impl RetuneSweep {
    /// Creates a sweep over the `dg-tuners` baselines.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or names a tuner the baselines lack; use
    /// [`with_registry`](Self::with_registry) for custom tuners (DarwinGame variants
    /// in particular).
    pub fn new(spec: RetuneSpec) -> Self {
        Self::with_registry(spec, TunerRegistry::baselines())
    }

    /// Creates a sweep over a custom registry.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or its tuner is not in the registry.
    pub fn with_registry(spec: RetuneSpec, registry: TunerRegistry) -> Self {
        spec.validate();
        assert!(
            registry.contains(&spec.tuner),
            "tuner {:?} is not in the registry (registered: {:?})",
            spec.tuner,
            registry.names()
        );
        Self { spec, registry }
    }

    /// The sweep's spec.
    pub fn spec(&self) -> &RetuneSpec {
        &self.spec
    }

    /// Runs the sweep on one worker per available CPU.
    pub fn run(&self) -> RetuneReport {
        self.run_with_workers(default_workers())
    }

    /// Runs the sweep on exactly `workers` worker threads. The report is byte-for-byte
    /// identical (in its JSON form) for every `workers` value.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_with_workers(&self, workers: usize) -> RetuneReport {
        self.run_with_provider(&SimProvider, workers)
    }

    /// Runs the sweep with every backend supplied by `provider` — the seam
    /// record/replay and future real-process backends plug into.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_with_provider(
        &self,
        provider: &dyn BackendProvider,
        workers: usize,
    ) -> RetuneReport {
        let completed = run_ordered(&self.spec.cells(), workers, |_, cell| {
            run_cell(provider, &self.spec, &self.registry, cell)
        });
        RetuneReport::from_cells(&self.spec, completed)
    }

    /// Runs the sweep while recording every backend outcome, returning the report plus
    /// an [`ExecutionTrace`] that [`replay`](Self::replay) turns back into the
    /// byte-identical report with zero resimulation.
    pub fn record(&self) -> (RetuneReport, ExecutionTrace) {
        self.record_with_workers(default_workers())
    }

    /// [`record`](Self::record) on exactly `workers` worker threads.
    pub fn record_with_workers(&self, workers: usize) -> (RetuneReport, ExecutionTrace) {
        let recorder = TraceRecorder::new(
            Box::new(SimProvider),
            self.spec.name.clone(),
            self.spec.fingerprint(),
        );
        let report = self.run_with_provider(&recorder, workers);
        (report, recorder.finish())
    }

    /// Replays a recorded sweep: every backend outcome is answered from `trace`
    /// instead of the simulator. The report is byte-identical to the recorded run.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the trace does not belong to this sweep: a
    /// different spec fingerprint, a different sweep name, or a leg stream that is
    /// missing or whose header (VM, profile, seed) disagrees with its cell.
    pub fn replay(
        &self,
        trace: impl Into<Arc<ExecutionTrace>>,
    ) -> Result<RetuneReport, TraceError> {
        self.replay_with_workers(trace, default_workers())
    }

    /// [`replay`](Self::replay) on exactly `workers` worker threads.
    pub fn replay_with_workers(
        &self,
        trace: impl Into<Arc<ExecutionTrace>>,
        workers: usize,
    ) -> Result<RetuneReport, TraceError> {
        let trace: Arc<ExecutionTrace> = trace.into();
        trace.check_origin(&self.spec.name, self.spec.fingerprint())?;
        for cell in self.spec.cells() {
            let (seed, profile) = cell_environment(&self.spec, &cell);
            for leg in ["adaptive", "fixed"] {
                trace.check_stream(&leg_stream(&cell, leg), self.spec.vm, profile, seed)?;
            }
        }
        let replayer = TraceReplayer::new(trace);
        Ok(self.run_with_provider(&replayer, workers))
    }
}

/// The trace-stream key of one leg of one cell, shared by recording and replaying.
fn leg_stream(cell: &RetuneCellCoord, leg: &str) -> String {
    format!("retune-{}-{leg}", cell.index)
}

/// A cell's environment seed and effective interference profile (the scenario may
/// override the spec's): what both legs' root backends are opened with, what trace
/// stream headers record, and what replay checks them against.
fn cell_environment<'a>(
    spec: &'a RetuneSpec,
    cell: &'a RetuneCellCoord,
) -> (u64, &'a InterferenceProfile) {
    let env_seed = spec
        .cell_rng(cell.index)
        .derive("env")
        .derive_index(cell.seed)
        .seed();
    (
        env_seed,
        cell.scenario.profile.as_ref().unwrap_or(&spec.profile),
    )
}

/// Runs one cell: both legs over same-seeded environments, so the regret difference
/// is a paired comparison.
fn run_cell(
    provider: &dyn BackendProvider,
    spec: &RetuneSpec,
    registry: &TunerRegistry,
    cell: &RetuneCellCoord,
) -> RetuneCellResult {
    let (env_seed, profile) = cell_environment(spec, cell);
    let loop_seed = spec
        .cell_rng(cell.index)
        .derive("loop")
        .derive_index(cell.seed)
        .seed();

    let workload = Workload::scaled(spec.application, spec.space_size);
    let leg_backend = |leg: &str| {
        let mut exec = provider.backend(&leg_stream(cell, leg), spec.vm, profile, env_seed);
        if !cell.scenario.is_passthrough() {
            // The scenario wraps *outside* the provider's backend, exactly like the
            // campaign executor: recording captures raw inner outcomes and replay
            // re-applies the same deterministic timeline.
            exec = Box::new(ScenarioBackend::new(exec, cell.scenario.clone(), env_seed));
        }
        exec
    };

    let serve = RetuneLoop::new(&workload, registry, &spec.tuner, &spec.policy, loop_seed);
    let mut adaptive_exec = leg_backend("adaptive");
    let adaptive = serve.serve(adaptive_exec.as_mut(), ServeMode::Adaptive);
    // Exact budget parity: the fixed leg spends up front precisely the evaluations
    // the adaptive leg ended up spending, so the comparison isolates *when* the
    // budget is spent. A cell whose monitor never fired runs the identical tuning
    // session on both legs and scores a regret tie.
    let mut fixed_exec = leg_backend("fixed");
    let fixed = serve.serve(
        fixed_exec.as_mut(),
        ServeMode::TuneOnce {
            evaluations: adaptive.evaluations,
        },
    );
    // Both legs probe the oracle at identical times with identical salts on
    // same-seeded environments, so their regret baselines are bitwise equal.
    debug_assert_eq!(
        adaptive.reference_time.to_bits(),
        fixed.reference_time.to_bits()
    );

    RetuneCellResult {
        scenario: cell.scenario.name.clone(),
        seed: cell.seed,
        adaptive_initial: adaptive.initial_champion,
        adaptive_final: adaptive.final_champion,
        fixed_champion: fixed.final_champion,
        detections: adaptive.detections,
        retunes: adaptive.retunes,
        switches: adaptive.switches,
        adaptive_time: adaptive.deployed_time,
        fixed_time: fixed.deployed_time,
        reference_time: adaptive.reference_time,
        adaptive_evals: adaptive.evaluations,
        fixed_evals: fixed.evaluations,
        core_hours: adaptive.core_hours + fixed.core_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> RetuneSpec {
        let mut spec = RetuneSpec::new("sweep-smoke");
        spec.space_size = 500;
        spec.seeds = vec![0, 1];
        spec.policy.initial_budget = 8;
        spec.policy.max_retunes = 2;
        spec.policy.deploy_steps = 40;
        spec
    }

    #[test]
    fn sweep_completes_every_cell_in_grid_order() {
        let report = RetuneSweep::new(smoke_spec()).run_with_workers(1);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].seed, 0);
        assert_eq!(report.cells[1].seed, 1);
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].cells, 2);
        assert!(report.cells.iter().all(|c| c.core_hours > 0.0));
        assert!(
            report
                .cells
                .iter()
                .all(|c| c.fixed_evals == c.adaptive_evals),
            "the fixed leg must spend exactly the adaptive leg's realized budget"
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_tuner_rejected_at_construction() {
        let mut spec = smoke_spec();
        spec.tuner = "NoSuchTuner".into();
        let _ = RetuneSweep::new(spec);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = RetuneSweep::new(smoke_spec()).run_with_workers(0);
    }

    #[test]
    fn replay_rejects_a_stream_recorded_with_another_seed() {
        let sweep = RetuneSweep::new(smoke_spec());
        let (_, trace) = sweep.record_with_workers(1);
        let stream = trace.stream("retune-1-fixed").expect("the leg is recorded");
        let header = |seed: u64| {
            format!(
                "{{\"key\":\"retune-1-fixed\",\"vm\":\"{}\",\"profile\":\"{}\",\"seed\":{seed},",
                stream.vm, stream.profile
            )
        };
        let json = trace.to_json();
        let seed = stream.seed;
        assert_eq!(json.matches(&header(seed)).count(), 1);
        let edited = ExecutionTrace::from_json(&json.replacen(&header(seed), &header(seed ^ 1), 1))
            .expect("the edited trace still parses");
        assert_eq!(
            sweep.replay_with_workers(edited, 1),
            Err(TraceError::StreamMismatch {
                stream: "retune-1-fixed".into(),
                field: "seed",
                recorded: (seed ^ 1).to_string(),
                requested: seed.to_string(),
            })
        );
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let sweep = RetuneSweep::new(smoke_spec());
        let mut other = smoke_spec();
        other.base_seed ^= 1;
        let (_, trace) = RetuneSweep::new(other).record_with_workers(1);
        assert!(matches!(
            sweep.replay_with_workers(trace, 1),
            Err(TraceError::FingerprintMismatch { .. })
        ));
    }
}
