//! Execution backends: the seam between the tuning engine and *how* configurations run.
//!
//! Every layer of the DarwinGame reproduction — the four tournament phases in
//! `darwin-core`, the `CloudEvaluator` all baseline tuners sample through, and the
//! `dg-campaign` cell executor — asks its environment for the same handful of
//! operations: play a co-located game, evaluate one configuration solo, observe without
//! charging, charge cost, fork per-region sub-environments. This crate captures that
//! surface as the [`ExecutionBackend`] trait and ships these implementations:
//!
//! * `dg_cloudsim::CloudEnvironment` — the simulator itself, which resimulates
//!   everything (the default, handed out by [`SimProvider`]);
//! * [`ProcessBackend`] — runs actual OS processes as evaluations: command templates
//!   rendered per configuration, per-job stdout/stderr capture, `SUCCESS`/`FAIL`
//!   completion markers, timeouts, and typed [`ProcessError`]s latched into the
//!   backend's [`failure`](ExecutionBackend::failure) instead of panics;
//! * [`TraceRecorder`] / [`TraceReplayer`] — record every outcome into an
//!   [`ExecutionTrace`] (canonical JSON), then replay a whole campaign byte-identical
//!   to the live run with **zero** resimulation (and zero process launches);
//! * [`MemoBackend`] — a composable wrapper memoizing solo evaluations and
//!   observations for exhaustive/oracle/grid-heavy paths;
//! * [`SurrogateBackend`] — a composable wrapper fitting an online n-tuple model of
//!   configuration → outcome and serving confident repeat evaluations from it,
//!   cost-free, behind a tunable fraction and confidence gate.
//!
//! The [`BackendProvider`] trait is the factory side: campaign executors create one
//! backend per grid cell through a provider, which is what makes recording and
//! replaying whole campaigns a drop-in swap.
//!
//! # Quick example
//!
//! ```
//! use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, VmType};
//! use dg_exec::{ExecutionBackend, GameRules};
//!
//! let mut exec: Box<dyn ExecutionBackend> = Box::new(CloudEnvironment::new(
//!     VmType::M5_8xlarge,
//!     InterferenceProfile::typical(),
//!     42,
//! ));
//! let fast = ExecutionSpec::new(230.0, 0.8);
//! let slow = ExecutionSpec::new(600.0, 0.2);
//! let play = exec.play_game(&[fast, slow], &GameRules::default());
//! assert!(play.observed_times[0] < play.observed_times[1]);
//! exec.commit(&play);
//! assert!(exec.cost().core_hours() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod memo;
mod obs;
mod process;
mod sim;
mod surrogate;
mod trace;

/// The canonical JSON writer/parser, re-exported from `dg-obs` (where it moved so
/// observability exports share the discipline). The long-standing `dg_exec::json`
/// path keeps working.
pub use dg_obs::json;

pub use backend::{BackendProvider, ExecutionBackend, GameBatchItem};
// The game types live with the simulator that produces them; re-exported so the stack
// above names them through the execution seam.
pub use dg_cloudsim::{GamePlay, GameRules};
pub use memo::MemoBackend;
pub use obs::{ObsBackend, ObsProvider};
pub use process::{
    process_launches, CommandTemplate, ProcessBackend, ProcessError, ProcessProvider, TimingSource,
};
pub use sim::{sim_ops, SimProvider};
pub use surrogate::{SurrogateBackend, SurrogateConfig, SurrogateProvider, SurrogateStats};
pub use trace::{
    profile_label, ExecutionTrace, RecordingBackend, ReplayBackend, TraceError, TraceEvent,
    TraceRecorder, TraceReplayer, TraceStream,
};
