//! Umbrella crate for the DarwinGame reproduction.
//!
//! This crate simply re-exports the workspace members so that the examples and
//! integration tests (and downstream users who want everything at once) can depend on a
//! single crate:
//!
//! * [`cloudsim`] — the simulated, interference-prone cloud ([`dg_cloudsim`]).
//! * [`workloads`] — parameter spaces and synthetic performance surfaces
//!   ([`dg_workloads`]).
//! * [`tuners`] — baseline tuners: Oracle, Exhaustive, Random, ActiveHarmony, OpenTuner,
//!   BLISS, NTBEA ([`dg_tuners`]).
//! * [`darwin`] — the DarwinGame tournament tuner and hybrid integration
//!   ([`darwin_core`]).
//! * [`exec`] — the [`dg_exec::ExecutionBackend`] trait with simulation, real-process,
//!   record/replay and observability backends ([`dg_exec`]).
//! * [`scenario`] — the composable cloud-scenario engine: declarative event timelines
//!   (preemptions, diurnal load, regime shifts, fleets) over any backend
//!   ([`dg_scenario`]).
//! * [`stats`] — shared statistics helpers ([`dg_stats`]).
//! * [`campaign`] — the parallel experiment-campaign runner ([`dg_campaign`]).
//! * [`serve`] — online continuous retuning: champion drift detection and live
//!   re-tournaments against the tune-once protocol ([`dg_serve`]).
//! * [`obs`] — structured tracing, unified metrics, and live progress streaming
//!   across the whole stack ([`dg_obs`]).
//!
//! # Quick example
//!
//! ```
//! use darwingame::prelude::*;
//!
//! let workload = Workload::scaled(Application::Redis, 2_000);
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
//! let mut config = TournamentConfig::scaled(6, 3);
//! config.players_per_game = Some(8);
//! let report = DarwinGame::new(config).run(&workload, &mut cloud);
//! assert!(report.champion < workload.size());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use darwin_core as darwin;
pub use dg_campaign as campaign;
pub use dg_cloudsim as cloudsim;
pub use dg_exec as exec;
pub use dg_obs as obs;
pub use dg_scenario as scenario;
pub use dg_serve as serve;
pub use dg_stats as stats;
pub use dg_tuners as tuners;
pub use dg_workloads as workloads;

/// The README, whose Rust blocks run as this crate's doctests so they cannot drift
/// from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used types, re-exported flat for examples and quick experiments.
pub mod prelude {
    pub use darwin_core::{
        AblationConfig, DarwinGame, HybridDarwinGame, TournamentConfig, TournamentReport,
    };
    pub use dg_campaign::{
        cell_cost_estimates, default_workers, register_darwin_variant, smoke_requested,
        standard_registry, Campaign, CampaignLab, CampaignReport, CampaignSpec, ExperimentScale,
        LabError, LabOutcome, MergeError, ProgressMeter, ProgressUpdate, ShardPlan, ShardReport,
        ShardStrategy,
    };
    pub use dg_cloudsim::{
        CloudEnvironment, DedicatedEnvironment, ExecutionSpec, InterferenceProfile, SimRng,
        SimTime, VmType,
    };
    pub use dg_exec::{
        process_launches, BackendProvider, CommandTemplate, ExecutionBackend, ExecutionTrace,
        GameRules, ProcessBackend, ProcessError, ProcessProvider, TimingSource, TraceRecorder,
        TraceReplayer,
    };
    pub use dg_obs::{
        emit, emit_with, install_sink, remove_sink, EventSink, JsonlSink, MetricsSnapshot,
        ObsEvent, ObsRecord, RingSink, SinkId, Span,
    };
    pub use dg_scenario::{ScenarioBackend, ScenarioEvent, ScenarioSpec};
    pub use dg_serve::{
        ChampionMonitor, RetuneLoop, RetunePolicy, RetuneReport, RetuneScenarioSummary, RetuneSpec,
        RetuneSweep, ServeMode,
    };
    pub use dg_stats::{coefficient_of_variation, mean, DriftDetector, EmpiricalCdf, Summary};
    pub use dg_tuners::{
        ActiveHarmony, Bliss, ExhaustiveSearch, Ntbea, OpenTuner, OracleTuner, RandomSearch, Tuner,
        TunerRegistry, TuningBudget, TuningOutcome,
    };
    pub use dg_workloads::{Application, ParameterSpace, Workload};
}
