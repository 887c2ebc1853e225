//! A composable cloud-scenario engine with dynamic event timelines.
//!
//! The simulator's `InterferenceProfile`s capture *stationary* noise; real clouds are
//! not stationary. TUNA shows tuners diverge hardest under unstable regimes (co-tenant
//! churn, regime shifts mid-run), and ExpoCloud shows preemptions and heterogeneous
//! fleets dominate real exploration cost. This crate makes such regimes a first-class,
//! enumerable, campaign-sweepable axis:
//!
//! * [`ScenarioSpec`] — a declarative scenario: an optional base-profile override, a
//!   VM fleet for forked sub-environments, and a deterministic [`ScenarioEvent`]
//!   timeline (spot preemption/restart, co-tenant arrival/departure, diurnal load
//!   curves, mid-run regime escalation, transient slowdown storms, price changes).
//!   Canonical-JSON serializable with a stable [`ScenarioSpec::fingerprint`], like
//!   `CampaignSpec`.
//! * [`Timeline`] — the per-seed realisation: generator events expand through the
//!   simulator's seeded hash streams, so the same backend sees the same incidents
//!   every run and different backends see independent ones.
//! * [`ScenarioBackend`] — wraps any [`ExecutionBackend`](dg_exec::ExecutionBackend)
//!   and applies the timeline as the clock advances, so tournaments, all baseline
//!   tuners, record/replay traces, and sharded campaigns get scenarios for free through
//!   the existing seam. Campaign cells wrap each backend their provider creates, after
//!   applying the scenario's profile override; pass-through scenarios
//!   ([`ScenarioSpec::steady`]) run unwrapped and stay bit-identical. There is one
//!   load model: each operation is scaled by the load level at its start.
//! * [`ScenarioSpec::pack`] — the built-in named scenarios (`steady`, `diurnal`,
//!   `bursty-neighbor`, `regime-shift`, `preemption-heavy`, `hetero-fleet`,
//!   `noisy-cheap`, `quiet-expensive`), with [`delayed`](ScenarioSpec::delayed) and
//!   [`with_load_coupling`](ScenarioSpec::with_load_coupling) for their variants.
//!
//! # Quick example
//!
//! ```
//! use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, VmType};
//! use dg_exec::ExecutionBackend;
//! use dg_scenario::{ScenarioBackend, ScenarioSpec};
//!
//! let inner = Box::new(CloudEnvironment::new(
//!     VmType::M5_8xlarge,
//!     InterferenceProfile::typical(),
//!     42,
//! ));
//! let scenario = ScenarioSpec::by_name("regime-shift").unwrap();
//! let mut exec = ScenarioBackend::new(inner, scenario, 42);
//! let run = exec.run_single(ExecutionSpec::new(230.0, 0.8));
//! assert!(run.observed_time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod spec;
mod timeline;

pub use backend::ScenarioBackend;
pub use spec::{ScenarioEvent, ScenarioSpec};
pub use timeline::Timeline;
