//! Observability for the DarwinGame stack: structured tracing, unified metrics, and
//! progress streaming.
//!
//! The tuning stack is deterministic by construction — campaign reports are
//! byte-identical across worker counts, record/replay, and shard merges — so its
//! observability layer has one hard rule: **instrumentation is a pure side channel**.
//! Nothing in this crate feeds back into results; the differential batteries in
//! `dg-campaign` and `dg-exec` pin that instrumented and bare runs produce
//! byte-identical reports, and the `obs_overhead` bench pins the cost (<2%
//! instrumented, one relaxed atomic load while no sink is installed).
//!
//! Three layers:
//!
//! * **Tracing** — typed [`ObsEvent`]s flow through a global bus ([`emit_with`]) to
//!   pluggable [`EventSink`]s ([`JsonlSink`], [`RingSink`]); [`Span`] guards pair
//!   start/end events by monotone sequence id. Events flow exactly while at least one
//!   sink is installed ([`obs_active`]); with none, nothing is built.
//! * **Metrics** — named [`Counter`]s / [`Gauge`]s / [`Histogram`]s in a process-wide
//!   registry with one canonical-JSON [`MetricsSnapshot`] export. The scattered
//!   counters that predate this crate (`sim_ops()`, `process_launches()`) are now thin
//!   shims over registry counters.
//! * **Canonical JSON** — the hand-rolled writer/parser every wire format in the
//!   workspace shares lives here as [`json`] (it moved down from `dg-exec`, which
//!   re-exports it).
//!
//! # Quick example
//!
//! ```
//! use dg_obs::{install_sink, remove_sink, RingSink, ObsEvent};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingSink::new(64));
//! let id = install_sink(ring.clone());
//! dg_obs::emit_with(|| ObsEvent::Round { phase: "regional", round: 0, games: 8 });
//! remove_sink(id);
//! let records = ring.drain();
//! assert_eq!(records.len(), 1);
//! assert!(records[0].to_json().contains("\"type\":\"round\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
pub mod metrics;
mod sink;
mod span;

pub use event::{ObsEvent, ObsRecord};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use sink::{
    emit, emit_with, install_sink, obs_active, remove_sink, sink_count, EventSink, JsonlSink,
    RingSink, SinkId,
};
pub use span::Span;

/// Serializes tests that change the global sink set, so parallel test threads in one
/// binary cannot perturb each other's observations.
#[cfg(test)]
pub(crate) fn test_sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
