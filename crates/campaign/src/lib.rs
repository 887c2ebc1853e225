//! Parallel experiment campaigns for the DarwinGame reproduction.
//!
//! The paper's evaluation is not one tournament but thousands: sweeps over tuners,
//! applications, VM types, interference profiles, cloud scenarios, and seeds
//! (Figs. 10–16, Table 1). This crate turns "run one tuning session" into "run a
//! campaign":
//!
//! * [`CampaignSpec`] declares the cross-product grid and the per-cell experiment
//!   scale; its scenario axis (`dg-scenario`'s [`ScenarioSpec`]) sweeps the same grid
//!   across dynamic cloud regimes — preemptions, diurnal load, regime shifts,
//!   heterogeneous fleets — with the default `steady` scenario reproducing
//!   scenario-less campaigns byte-identically;
//! * [`Campaign`] runs every cell of the grid across worker threads on
//!   [`run_ordered`] (`dg-exec`'s shared-cursor work-stealing pool over
//!   `std::thread::scope`, which `dg-serve`'s retune sweep and the regional phase
//!   share) while keeping results
//!   **deterministic**: every cell derives its RNG streams from
//!   [`CampaignSpec::cell_seed`] (built on [`dg_cloudsim::mix`]) and results are
//!   collected in stable grid order, so the report is byte-identical whether it ran on
//!   one worker or thirty-two;
//! * results stream into `dg-stats` online accumulators per `(tuner, application, vm,
//!   profile)` group and land in a [`CampaignReport`] with canonical JSON emission
//!   ([`CampaignReport::to_json`]) and a compact text summary
//!   ([`CampaignReport::summary_table`]);
//! * campaigns also shard across OS processes or hosts: a [`ShardPlan`] deterministically
//!   partitions the cell index space, [`Campaign::run_shard`] produces a [`ShardReport`]
//!   (canonical JSON in both directions), and [`CampaignReport::merge`] reassembles the
//!   shards into a report byte-identical to a single-host run (see the [`shard`
//!   module](crate::ShardPlan) docs);
//! * campaigns resume: a [`CampaignLab`] is a persistent directory that flushes every
//!   completed cell as a single-cell [`ShardReport`] the moment it finishes, so a
//!   killed run ([`Campaign::run_lab_session`]) resumes by skipping completed cells —
//!   real-process backends launch zero processes for them — and the final merged
//!   report is byte-identical to an uninterrupted run.
//!
//! # Quick example
//!
//! ```
//! use dg_campaign::{Campaign, CampaignSpec, ExperimentScale};
//!
//! let mut spec = CampaignSpec::single("demo", "RandomSearch", 2);
//! spec.scale = ExperimentScale::smoke();
//! let report = Campaign::new(spec).run_with_workers(2);
//! assert_eq!(report.completed_cells(), 2);
//! assert!(report.to_json().contains("\"tuner\":\"RandomSearch\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod lab;
mod progress;
mod report;
mod retune;
mod scale;
mod shard;
mod spec;

// The worker pool lives in `dg-exec`, below both of its users here and in
// `darwin-core`; re-exported so `dg_campaign::run_ordered` keeps working.
pub use dg_exec::{default_workers, run_ordered, BackendProvider, ExecutionTrace, TraceError};
pub use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};
pub use executor::{register_darwin_variant, standard_registry, Campaign};
pub use lab::{CampaignLab, LabError, LabOutcome};
pub use progress::{cell_cost_estimates, ProgressMeter, ProgressUpdate};
pub use report::{CampaignReport, CellResult, GroupSummary};
pub use retune::{
    RetuneCellCoord, RetuneCellResult, RetunePolicy, RetuneReport, RetuneScenarioSummary,
    RetuneSpec, ACCEPT_MARGIN, CONFIRM_SAMPLES, CONFIRM_STRIDE_STEPS, DEPLOY_SPACING_SECONDS,
    HALL_OF_FAME, MONITOR_ALPHA, RETUNE_BUDGET, TRANSIENT_SIGMA,
};
pub use scale::{smoke_requested, ExperimentScale};
pub use shard::{MergeError, ShardParseError, ShardPlan, ShardReport, ShardStrategy};
pub use spec::{profile_label, CampaignSpec, CellCoord};
