//! Online continuous retuning for the DarwinGame reproduction.
//!
//! The paper tunes an application once and deploys the champion; this crate asks what
//! happens *after* deployment, when the cloud keeps changing. It provides:
//!
//! * [`ChampionMonitor`] — a recency-weighted watch on a deployed champion's observed
//!   execution times: an EWMA belief that must leave the reference band, a transient
//!   filter that drops lone spikes but passes sustained deviations, and `dg-stats`'
//!   CUSUM [`DriftDetector`](dg_stats::DriftDetector) deciding when the regime
//!   actually changed;
//! * [`RetuneLoop`] — the serving protocol: deploy, observe at a fixed cadence, and
//!   on confirmed drift run an incremental mini-tournament (warm-started from the
//!   incumbent and a bounded hall of fame) whose candidate must beat the incumbent in
//!   *paired* cost-free probes before it takes over;
//! * [`RetuneSweep`] — the grid driver measuring adaptive serving against the
//!   paper's tune-once protocol at evaluation parity. It runs its cells on
//!   `dg-exec`'s worker pool ([`dg_exec::run_ordered`]) and produces
//!   `dg-campaign`'s [`RetuneReport`] (canonical JSON, byte-identical across worker
//!   counts, and recordable/replayable through `dg-exec` traces).
//!
//! # Quick example
//!
//! ```
//! use dg_serve::{RetuneSpec, RetuneSweep};
//!
//! let mut spec = RetuneSpec::new("demo");
//! spec.space_size = 500;
//! spec.policy.initial_budget = 6;
//! spec.policy.deploy_steps = 20;
//! let report = RetuneSweep::new(spec).run_with_workers(2);
//! assert_eq!(report.cells.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod retune;
mod sweep;

pub use dg_campaign::{
    RetuneCellCoord, RetuneCellResult, RetunePolicy, RetuneReport, RetuneScenarioSummary,
    RetuneSpec,
};
pub use monitor::ChampionMonitor;
pub use retune::{RetuneEvent, RetuneLoop, RetuneSession, ServeMode, StepRecord};
pub use sweep::RetuneSweep;
