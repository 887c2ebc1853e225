//! The parallel campaign executor.
//!
//! Cells are independent by construction — each derives every RNG stream from its own
//! [`CampaignSpec::cell_seed`] — so the executor fans them out with `dg-exec`'s
//! [`run_ordered`]: a shared cursor (work stealing degenerates to "take the next
//! unstarted cell", which is optimal when cells are independent and of similar cost)
//! and results assembled in stable grid order. Every run executes every cell, so the
//! [`CampaignReport`] is byte-for-byte identical no matter how many workers ran or in
//! which order cells completed.

use crate::lab::{CampaignLab, LabError, LabOutcome};
use crate::report::{CampaignReport, CellResult};
use crate::scale::ExperimentScale;
use crate::shard::{ShardPlan, ShardReport};
use crate::spec::{profile_label, CampaignSpec, CellCoord};
use darwin_core::{AblationConfig, DarwinGame, TournamentConfig};
use dg_cloudsim::InterferenceProfile;
use dg_exec::{
    default_workers, run_ordered, BackendProvider, ExecutionTrace, SimProvider, TraceError,
    TraceRecorder, TraceReplayer,
};
use dg_obs::{emit_with, ObsEvent};
use dg_scenario::ScenarioBackend;
use dg_tuners::{TunerRegistry, TuningBudget};
use dg_workloads::Workload;
use std::sync::{Arc, Mutex};

/// A registry with everything the standard experiments sweep over: the `dg-tuners`
/// baselines plus `"DarwinGame"` configured from `scale` (regions, players per game
/// clamped to the cell's VM).
///
/// The registered DarwinGame runs its regional phase serially: the campaign executor
/// already saturates the host across cells, so nested per-region threads would only
/// oversubscribe it.
pub fn standard_registry(scale: &ExperimentScale) -> TunerRegistry {
    let mut registry = TunerRegistry::baselines();
    register_darwin_variant(&mut registry, "DarwinGame", scale, AblationConfig::full());
    registry
}

/// Registers a DarwinGame variant with the given ablation switches under `name`.
/// Used by the ablation campaigns (Fig. 16), where each variant is one tuner-axis entry.
pub fn register_darwin_variant(
    registry: &mut TunerRegistry,
    name: impl Into<String>,
    scale: &ExperimentScale,
    ablation: AblationConfig,
) {
    let scale = *scale;
    registry.register(name, move |seed, vm| {
        let mut config = TournamentConfig::scaled(scale.regions, seed);
        config.players_per_game = Some(scale.players_per_game.min(vm.vcpus()).max(2));
        config.parallel_regions = false;
        config.ablation = ablation;
        Box::new(DarwinGame::new(config))
    });
}

/// The per-cell completion callback [`Campaign::execute`] drives: the finished cell
/// plus its claim sequence (its 0-based position in schedule order).
type CellCallback<'a> = &'a (dyn Fn(&CellResult, u64) + Sync);

/// A campaign ready to run: a validated spec plus the tuner registry resolving its
/// tuner axis.
pub struct Campaign {
    spec: CampaignSpec,
    registry: TunerRegistry,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec.name)
            .field("grid_cells", &self.spec.grid_size())
            .finish()
    }
}

impl Campaign {
    /// Creates a campaign over the [`standard_registry`] for the spec's scale.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or names a tuner the standard registry lacks.
    pub fn new(spec: CampaignSpec) -> Self {
        let registry = standard_registry(&spec.scale);
        Self::with_registry(spec, registry)
    }

    /// Creates a campaign over a custom registry (ablation variants, hybrid tuners,
    /// user-registered factories).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or names a tuner the registry lacks.
    pub fn with_registry(spec: CampaignSpec, registry: TunerRegistry) -> Self {
        spec.validate();
        for tuner in &spec.tuners {
            assert!(
                registry.contains(tuner),
                "tuner {tuner:?} is not in the registry (registered: {:?})",
                registry.names()
            );
        }
        Self { spec, registry }
    }

    /// The campaign's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Runs the campaign on one worker per available CPU.
    pub fn run(&self) -> CampaignReport {
        self.run_with_workers(default_workers())
    }

    /// Runs the campaign while recording every backend outcome, returning the report
    /// plus an [`ExecutionTrace`] that [`replay`](Self::replay) can turn back into the
    /// byte-identical report with zero resimulation.
    pub fn record(&self) -> (CampaignReport, ExecutionTrace) {
        self.record_with_workers(default_workers())
    }

    /// [`record`](Self::record) on exactly `workers` worker threads.
    pub fn record_with_workers(&self, workers: usize) -> (CampaignReport, ExecutionTrace) {
        let recorder = TraceRecorder::new(
            Box::new(SimProvider),
            self.spec.name.clone(),
            self.spec.fingerprint(),
        );
        let report = self.run_with_provider(&recorder, workers);
        (report, recorder.finish())
    }

    /// Replays a recorded campaign: every cell's outcomes are answered from `trace`
    /// instead of the simulator, which turns repeated sweeps into near-instant
    /// replays. The report is byte-identical to the recorded (live) run.
    ///
    /// # Errors
    ///
    /// Returns a typed [`TraceError`] when the trace does not belong to this campaign:
    /// a different spec fingerprint, a different campaign name, or a cell stream that
    /// is missing or whose header (VM, profile, seed) disagrees with its cell.
    pub fn replay(
        &self,
        trace: impl Into<Arc<ExecutionTrace>>,
    ) -> Result<CampaignReport, TraceError> {
        self.replay_with_workers(trace, default_workers())
    }

    /// [`replay`](Self::replay) on exactly `workers` worker threads.
    ///
    /// Accepts the trace by value or as an `Arc` — repeated replays of one parsed
    /// trace should pass `Arc` clones so nothing is deep-copied per replay.
    pub fn replay_with_workers(
        &self,
        trace: impl Into<Arc<ExecutionTrace>>,
        workers: usize,
    ) -> Result<CampaignReport, TraceError> {
        let trace: Arc<ExecutionTrace> = trace.into();
        trace.check_origin(&self.spec.name, self.spec.fingerprint())?;
        // Every cell must have a stream recorded from its own environment: a gap or a
        // disagreeing header means the trace is truncated, foreign or edited.
        for cell in self.spec.cells() {
            let (seed, profile) = cell_environment(&self.spec, &cell);
            trace.check_stream(&cell_stream(&cell), cell.vm, profile, seed)?;
        }
        Ok(self.run_with_provider(&TraceReplayer::new(trace), workers))
    }

    /// Runs the campaign on exactly `workers` worker threads.
    ///
    /// The report is identical (byte-for-byte in its JSON form) for every `workers`
    /// value; only host wall-clock time changes.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_with_workers(&self, workers: usize) -> CampaignReport {
        self.run_with_provider(&SimProvider, workers)
    }

    /// Runs the campaign with every cell's backend supplied by `provider` — the
    /// extension point that record/replay, real processes (`ProcessProvider`) and
    /// instrumentation (`ObsProvider`) plug into. The cell's scenario then wraps that
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_with_provider(
        &self,
        provider: &dyn BackendProvider,
        workers: usize,
    ) -> CampaignReport {
        let completed = self.execute(provider, &self.spec.cells(), workers, None);
        CampaignReport::from_cells(self.spec.name.clone(), self.spec.grid_size(), completed)
    }

    /// Runs one shard of a sharded campaign on one worker per available CPU.
    ///
    /// See [`run_shard_with_workers`](Self::run_shard_with_workers).
    pub fn run_shard(&self, plan: &ShardPlan, shard: usize) -> ShardReport {
        self.run_shard_with_workers(plan, shard, default_workers())
    }

    /// Runs exactly the cells `plan` assigns to `shard`, on `workers` threads, and
    /// returns the [`ShardReport`] the merging process consumes.
    ///
    /// Each cell derives every RNG stream from its stable grid index, so the per-cell
    /// results are identical to what a whole-campaign run would have produced for the
    /// same indices — [`CampaignReport::merge`] exploits that to reassemble a report
    /// that is byte-identical to the single-host one.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, if `shard` is out of range, or if `plan` was built
    /// from a spec with a different [`fingerprint`](CampaignSpec::fingerprint) than
    /// this campaign's.
    pub fn run_shard_with_workers(
        &self,
        plan: &ShardPlan,
        shard: usize,
        workers: usize,
    ) -> ShardReport {
        assert_eq!(
            plan.fingerprint(),
            self.spec.fingerprint(),
            "shard plan was built from a different campaign spec"
        );
        let all = self.spec.cells();
        let indices = plan.indices(shard);
        let cells: Vec<CellCoord> = indices.iter().map(|i| all[*i].clone()).collect();
        let completed = self.execute(&SimProvider, &cells, workers, None);
        ShardReport {
            campaign: self.spec.name.clone(),
            fingerprint: plan.fingerprint(),
            shard,
            shard_count: plan.shard_count(),
            strategy: plan.strategy().name().to_string(),
            grid_cells: self.spec.grid_size(),
            assigned: indices.to_vec(),
            cells: completed,
        }
    }

    /// Runs one **lab session**: loads the completed cells already in `lab`, executes
    /// only the missing ones (at most `max_new_cells` of them, all when `None`) with
    /// backends from `provider`, and flushes each cell to disk the moment it
    /// completes — a killed session loses only the cells in flight.
    ///
    /// Completed cells are *never* re-run: a real-process provider launches zero
    /// processes for them on resume. When the session leaves the lab complete, the
    /// returned [`LabOutcome::report`] is the merged [`CampaignReport`], byte-identical
    /// (in its JSON form) to an uninterrupted single-session run — or to any other
    /// kill/resume schedule.
    ///
    /// # Errors
    ///
    /// Returns a [`LabError`] when the lab cannot be read, a cell fails to flush, or
    /// the completed cells fail to merge.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `lab` was opened for a spec with a different
    /// [`fingerprint`](CampaignSpec::fingerprint).
    pub fn run_lab_session(
        &self,
        lab: &CampaignLab,
        provider: &dyn BackendProvider,
        workers: usize,
        max_new_cells: Option<usize>,
    ) -> Result<LabOutcome, LabError> {
        assert_eq!(
            lab.fingerprint(),
            self.spec.fingerprint(),
            "lab was opened for a different campaign spec"
        );
        let (on_disk, discarded_cells) = lab.load_cells()?;
        let all = self.spec.cells();
        let mut missing: Vec<CellCoord> = all
            .iter()
            .filter(|cell| !on_disk.contains_key(&cell.index))
            .cloned()
            .collect();
        if let Some(cap) = max_new_cells {
            missing.truncate(cap);
        }
        let loaded_cells = on_disk.len();
        let fresh_cells = missing.len();
        emit_with(|| ObsEvent::LabSession {
            campaign: self.spec.name.clone(),
            loaded: loaded_cells,
            fresh: fresh_cells,
            discarded: discarded_cells,
        });
        if !missing.is_empty() {
            // Workers flush from their own threads; only the first flush error is
            // kept (later ones are almost certainly the same full disk).
            let flush_error: Mutex<Option<LabError>> = Mutex::new(None);
            let flush = |result: &CellResult, _cell_seq: u64| {
                if let Err(error) = lab.flush_cell(result) {
                    let mut slot = flush_error.lock().expect("flush error lock poisoned");
                    if slot.is_none() {
                        *slot = Some(error);
                    }
                }
            };
            self.execute(provider, &missing, workers, Some(&flush));
            if let Some(error) = flush_error.into_inner().expect("flush error lock poisoned") {
                return Err(error);
            }
        }
        // Re-read from disk rather than trusting in-memory results: the files are the
        // source of truth a resumed session will see.
        let report = lab.merge_if_complete()?;
        Ok(LabOutcome {
            report,
            loaded_cells,
            fresh_cells,
            discarded_cells,
        })
    }

    /// Runs `cells` (any subset of the grid, in any order) on [`run_ordered`] and
    /// returns their results in the same order as `cells`. `on_cell` is invoked on the
    /// worker thread as soon as each cell completes — the campaign lab uses it to flush
    /// results to disk before the run finishes, so an interrupted run loses at most the
    /// cells in flight.
    ///
    /// The callback's second argument is the cell's **claim sequence**: its 0-based
    /// position in schedule order. Completion (and therefore callback) order is racy
    /// across workers, but the claim sequence is identical for every worker count, so a
    /// progress stream sorted by it reproduces the single-worker sequence exactly. The
    /// executor also emits `campaign_start` / `cell_start` / `cell_finish` /
    /// `campaign_finish` events through `dg-obs` (a no-op unless a sink is installed),
    /// stamping cell events with the same claim sequence.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    fn execute(
        &self,
        provider: &dyn BackendProvider,
        cells: &[CellCoord],
        workers: usize,
        on_cell: Option<CellCallback<'_>>,
    ) -> Vec<CellResult> {
        emit_with(|| ObsEvent::CampaignStart {
            campaign: self.spec.name.clone(),
            cells: cells.len(),
            total_cost: cells
                .iter()
                .map(|cell| self.spec.budget_for(&cell.tuner) as f64)
                .sum(),
        });
        let completed = run_ordered(cells, workers, |i, cell| {
            let cell_seq = i as u64;
            emit_with(|| ObsEvent::CellStart {
                campaign: self.spec.name.clone(),
                cell_seq,
                index: cell.index,
                tuner: cell.tuner.clone(),
                vm: cell.vm.name().to_string(),
                est_cost: self.spec.budget_for(&cell.tuner) as f64,
            });
            let result = run_cell(provider, &self.spec, &self.registry, cell);
            emit_with(|| ObsEvent::CellFinish {
                campaign: self.spec.name.clone(),
                cell_seq,
                index: result.index,
                core_hours: result.core_hours,
                mean_time: result.mean_time,
                failed: result.failure.is_some(),
            });
            if let Some(callback) = on_cell {
                callback(&result, cell_seq);
            }
            result
        });
        emit_with(|| ObsEvent::CampaignFinish {
            campaign: self.spec.name.clone(),
            completed: completed.len(),
        });
        completed
    }
}

/// The trace-stream key of a campaign cell, shared by recording and replaying.
fn cell_stream(cell: &CellCoord) -> String {
    format!("cell-{}", cell.index)
}

/// A cell's environment seed and effective interference profile (the scenario may
/// override the cell's): what its root backend is opened with, what trace stream
/// headers record, and what replay checks them against.
fn cell_environment<'a>(
    spec: &CampaignSpec,
    cell: &'a CellCoord,
) -> (u64, &'a InterferenceProfile) {
    // The seed-axis value folds into the sub-stream so replicates differ even if two
    // grid positions were ever given the same index-derived root.
    let env_seed = spec
        .cell_rng(cell.seed_index)
        .derive("env")
        .derive_index(cell.seed)
        .seed();
    (
        env_seed,
        cell.scenario.profile.as_ref().unwrap_or(&cell.profile),
    )
}

/// Runs a single campaign cell: build the workload and a fresh execution backend from
/// the provider, tune, then re-measure the chosen configuration with repeated later
/// executions.
fn run_cell(
    provider: &dyn BackendProvider,
    spec: &CampaignSpec,
    registry: &TunerRegistry,
    cell: &CellCoord,
) -> CellResult {
    // `seed_index` equals `index` unless the spec pairs tuners, in which case cells
    // differing only in tuner share it (and therefore the environment's noise).
    let (env_seed, profile) = cell_environment(spec, cell);
    let tuner_seed = spec
        .cell_rng(cell.seed_index)
        .derive("tuner")
        .derive_index(cell.seed)
        .seed();

    // Cells share one cached workload per (application, size): the surface is a pure
    // function of those arguments and regenerating it per cell is a fixed tax on every
    // grid cell.
    let workload = Workload::scaled_cached(cell.application, spec.scale.space_size);
    let mut exec = provider.backend(&cell_stream(cell), cell.vm, profile, env_seed);
    if !cell.scenario.is_passthrough() {
        // The scenario wraps *outside* the provider's backend, so recording captures
        // raw inner outcomes and replay re-applies the same deterministic timeline —
        // record→replay stays byte-identical with zero resimulation. Pass-through
        // scenarios run unwrapped, bit-identical to pre-scenario campaigns.
        exec = Box::new(ScenarioBackend::new(exec, cell.scenario.clone(), env_seed));
    }
    let mut tuner = registry
        .build(&cell.tuner, tuner_seed, cell.vm)
        .expect("tuner axis validated at construction");
    let budget = TuningBudget::evaluations(spec.budget_for(&cell.tuner));
    let outcome = tuner.tune(&workload, exec.as_mut(), budget);

    let runs = exec.observe_repeated(
        workload.spec(outcome.chosen),
        spec.scale.evaluation_runs,
        spec.scale.evaluation_spacing,
    );
    CellResult {
        index: cell.index,
        tuner: cell.tuner.clone(),
        application: cell.application.name().to_string(),
        vm: cell.vm.name().to_string(),
        profile: profile_label(&cell.profile),
        scenario: cell.scenario.name.clone(),
        seed: cell.seed,
        chosen: outcome.chosen,
        mean_time: dg_stats::mean(&runs),
        cov_percent: dg_stats::coefficient_of_variation(&runs),
        samples: outcome.samples,
        core_hours: outcome.core_hours,
        wall_clock_seconds: outcome.wall_clock_seconds,
        // Real-process backends latch the first evaluation error here; simulation
        // backends always report None.
        failure: exec.failure(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::single("executor-smoke", "RandomSearch", 2);
        spec.scale = ExperimentScale::smoke();
        spec.base_seed = 11;
        spec
    }

    #[test]
    fn single_tuner_campaign_completes_every_cell() {
        let report = Campaign::new(smoke_spec()).run_with_workers(1);
        assert_eq!(report.completed_cells(), 2);
        assert_eq!(report.groups.len(), 1);
        assert!(report.total_core_hours > 0.0);
        assert!(report.cells.iter().all(|c| c.mean_time > 0.0));
    }

    #[test]
    fn cells_arrive_in_grid_order_regardless_of_workers() {
        let report = Campaign::new(smoke_spec()).run_with_workers(2);
        let indices: Vec<usize> = report.cells.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn darwin_game_runs_as_a_campaign_tuner() {
        let mut spec = smoke_spec();
        spec.tuners = vec!["DarwinGame".into()];
        spec.seeds = vec![0];
        let report = Campaign::new(spec).run_with_workers(1);
        assert_eq!(report.completed_cells(), 1);
        assert_eq!(report.cells[0].tuner, "DarwinGame");
        assert!(report.cells[0].samples > 0);
    }

    #[test]
    fn paired_tuners_see_identical_noise() {
        use dg_tuners::RandomSearch;
        // Two names for the same underlying tuner: with pairing, their cells share
        // every RNG stream, so the results must be identical apart from the label.
        let mut spec = smoke_spec();
        spec.tuners = vec!["A".into(), "B".into()];
        spec.seeds = vec![0];
        spec.paired_tuners = true;
        let mut registry = TunerRegistry::new();
        registry.register("A", |seed, _vm| Box::new(RandomSearch::new(seed)));
        registry.register("B", |seed, _vm| Box::new(RandomSearch::new(seed)));
        let report = Campaign::with_registry(spec, registry).run_with_workers(1);
        assert_eq!(report.cells[0].chosen, report.cells[1].chosen);
        assert_eq!(
            report.cells[0].mean_time.to_bits(),
            report.cells[1].mean_time.to_bits()
        );
        assert_eq!(report.cells[0].tuner, "A");
        assert_eq!(report.cells[1].tuner, "B");
    }

    #[test]
    fn shard_runs_cover_the_whole_grid() {
        use crate::shard::{ShardPlan, ShardStrategy};
        let campaign = Campaign::new(smoke_spec());
        let plan = ShardPlan::new(campaign.spec(), 2, ShardStrategy::Strided);
        let a = campaign.run_shard_with_workers(&plan, 0, 1);
        let b = campaign.run_shard_with_workers(&plan, 1, 1);
        assert_eq!(a.cells.len() + b.cells.len(), 2);
        let merged = CampaignReport::merge(vec![b, a]).expect("shards merge");
        let whole = campaign.run_with_workers(1);
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    #[should_panic(expected = "different campaign spec")]
    fn shard_plan_from_another_spec_rejected() {
        use crate::shard::{ShardPlan, ShardStrategy};
        let campaign = Campaign::new(smoke_spec());
        let mut other = smoke_spec();
        other.base_seed = 99;
        let plan = ShardPlan::new(&other, 2, ShardStrategy::Contiguous);
        let _ = campaign.run_shard_with_workers(&plan, 0, 1);
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_tuner_rejected_at_construction() {
        let mut spec = smoke_spec();
        spec.tuners = vec!["NoSuchTuner".into()];
        let _ = Campaign::new(spec);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Campaign::new(smoke_spec()).run_with_workers(0);
    }
}
