//! Live progress metering over the campaign executor's observability events.
//!
//! The executor emits `campaign_start` / `cell_start` / `cell_finish` /
//! `campaign_finish` events through `dg-obs` (see `Campaign::execute`), each cell
//! event stamped with its deterministic **claim sequence** — the cell's 0-based
//! position in schedule order, identical for every worker count. A
//! [`ProgressMeter`] folds that stream into completion state and an ETA:
//!
//! * the *deterministic* coordinates — cells completed, estimated cost completed,
//!   total cost — derive purely from the events and the spec's per-cell budget
//!   estimates (the same quantities [`ShardPlan`](crate::ShardPlan) balances
//!   shards on), so they are identical across runs and worker counts;
//! * the *wall-clock* ETA extrapolates the observed completion rate, so it is
//!   display-only and never belongs in a canonical artifact.
//!
//! `examples/campaign_progress.rs` wires a meter to an event sink for a live
//! progress display and replays the recorded JSONL to prove 1-vs-N-worker
//! sequence equality.

use crate::spec::CampaignSpec;
use dg_obs::ObsEvent;
use std::collections::HashMap;
use std::time::Instant;

/// The per-cell cost estimates a progress stream prices cells with: each cell's
/// tuner evaluation budget, exactly as [`ShardPlan::new`](crate::ShardPlan::new)
/// costs cells when balancing shards. Indexed like [`CampaignSpec::cells`].
pub fn cell_cost_estimates(spec: &CampaignSpec) -> Vec<f64> {
    spec.cells()
        .iter()
        .map(|cell| spec.budget_for(&cell.tuner) as f64)
        .collect()
}

/// A progress update produced by [`ProgressMeter::observe`] after a cell finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressUpdate {
    /// The finished cell's stable grid index.
    pub index: usize,
    /// Whether the cell's backend latched a failure.
    pub failed: bool,
    /// Cells finished so far (including this one).
    pub completed_cells: usize,
    /// Cells the run scheduled.
    pub total_cells: usize,
    /// Estimated cost finished so far, in budgeted evaluations.
    pub completed_cost: f64,
    /// Total estimated cost of the scheduled cells.
    pub total_cost: f64,
    /// `completed_cost / total_cost` in `[0, 1]` (1.0 when the total is zero).
    pub fraction: f64,
    /// Wall-clock seconds remaining, extrapolated from the observed completion
    /// rate. `None` until the first cell finishes. Display-only: wall-clock derived,
    /// so never part of a canonical artifact.
    pub eta_seconds: Option<f64>,
}

/// Folds the executor's observability events into live completion state.
///
/// Feed it every event a sink receives (it ignores the ones it does not care
/// about); each `cell_finish` yields a [`ProgressUpdate`].
#[derive(Debug)]
pub struct ProgressMeter {
    total_cells: usize,
    total_cost: f64,
    completed_cells: usize,
    completed_cost: f64,
    failed_cells: usize,
    /// Estimated cost of in-flight cells, keyed by claim sequence (`cell_start`
    /// carries the estimate; `cell_finish` settles it).
    in_flight: HashMap<u64, f64>,
    started: Instant,
}

impl ProgressMeter {
    /// A meter for a whole-grid run of `spec`, pricing cells with
    /// [`cell_cost_estimates`].
    pub fn for_spec(spec: &CampaignSpec) -> Self {
        let costs = cell_cost_estimates(spec);
        Self::with_totals(costs.len(), costs.iter().sum())
    }

    /// A meter with explicit totals (e.g. one shard's cell subset).
    pub fn with_totals(total_cells: usize, total_cost: f64) -> Self {
        Self {
            total_cells,
            total_cost,
            completed_cells: 0,
            completed_cost: 0.0,
            failed_cells: 0,
            in_flight: HashMap::new(),
            started: Instant::now(),
        }
    }

    /// Cells finished so far.
    pub fn completed_cells(&self) -> usize {
        self.completed_cells
    }

    /// Cells that finished with a latched backend failure.
    pub fn failed_cells(&self) -> usize {
        self.failed_cells
    }

    /// Cells started but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Feeds one event; returns an update when it was a `cell_finish`.
    ///
    /// A `campaign_start` event re-anchors the totals (and the wall clock) to the
    /// run that actually started, which is how a meter built with placeholder
    /// totals locks onto a shard's subset.
    pub fn observe(&mut self, event: &ObsEvent) -> Option<ProgressUpdate> {
        match event {
            ObsEvent::CampaignStart {
                cells, total_cost, ..
            } => {
                self.total_cells = *cells;
                self.total_cost = *total_cost;
                self.started = Instant::now();
                None
            }
            ObsEvent::CellStart {
                cell_seq, est_cost, ..
            } => {
                self.in_flight.insert(*cell_seq, *est_cost);
                None
            }
            ObsEvent::CellFinish {
                cell_seq,
                index,
                failed,
                ..
            } => {
                let est_cost = self.in_flight.remove(cell_seq).unwrap_or(0.0);
                self.completed_cells += 1;
                self.completed_cost += est_cost;
                if *failed {
                    self.failed_cells += 1;
                }
                let fraction = if self.total_cost > 0.0 {
                    (self.completed_cost / self.total_cost).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let eta_seconds = if self.completed_cost > 0.0 {
                    let elapsed = self.started.elapsed().as_secs_f64();
                    let remaining = (self.total_cost - self.completed_cost).max(0.0);
                    Some(elapsed * remaining / self.completed_cost)
                } else {
                    None
                };
                Some(ProgressUpdate {
                    index: *index,
                    failed: *failed,
                    completed_cells: self.completed_cells,
                    total_cells: self.total_cells,
                    completed_cost: self.completed_cost,
                    total_cost: self.total_cost,
                    fraction,
                    eta_seconds,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn spec() -> CampaignSpec {
        let mut spec = CampaignSpec::single("progress-test", "RandomSearch", 2);
        spec.scale = ExperimentScale::smoke();
        spec
    }

    #[test]
    fn cost_estimates_match_the_shard_plan_inputs() {
        let spec = spec();
        let costs = cell_cost_estimates(&spec);
        assert_eq!(costs.len(), spec.cells().len());
        for (cell, cost) in spec.cells().iter().zip(&costs) {
            assert_eq!(*cost, spec.budget_for(&cell.tuner) as f64);
        }
    }

    #[test]
    fn meter_tracks_cost_completion_and_failures() {
        let spec = spec();
        let mut meter = ProgressMeter::for_spec(&spec);
        let costs = cell_cost_estimates(&spec);
        assert_eq!(meter.completed_cells(), 0);
        meter.observe(&ObsEvent::CampaignStart {
            campaign: "progress-test".into(),
            cells: 2,
            total_cost: costs.iter().sum(),
        });
        meter.observe(&ObsEvent::CellStart {
            campaign: "progress-test".into(),
            cell_seq: 0,
            index: 0,
            tuner: "RandomSearch".into(),
            vm: "m5.8xlarge".into(),
            est_cost: costs[0],
        });
        assert_eq!(meter.in_flight(), 1);
        let update = meter
            .observe(&ObsEvent::CellFinish {
                campaign: "progress-test".into(),
                cell_seq: 0,
                index: 0,
                core_hours: 0.5,
                mean_time: 100.0,
                failed: true,
            })
            .expect("finish yields an update");
        assert_eq!(update.completed_cells, 1);
        assert_eq!(update.total_cells, 2);
        assert_eq!(update.completed_cost, costs[0]);
        assert!((update.fraction - 0.5).abs() < 1e-12);
        assert!(update.failed);
        assert!(update.eta_seconds.is_some());
        assert_eq!(meter.failed_cells(), 1);
        assert_eq!(meter.in_flight(), 0);
    }

    #[test]
    fn non_cell_events_are_ignored() {
        let mut meter = ProgressMeter::with_totals(1, 1.0);
        assert!(meter
            .observe(&ObsEvent::Round {
                phase: "regional",
                round: 0,
                games: 4,
            })
            .is_none());
        assert_eq!(meter.completed_cells(), 0);
    }
}
