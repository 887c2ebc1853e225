//! Shared harness for the benchmark binaries that regenerate the paper's tables and
//! figures.
//!
//! Every `benches/figXX_*.rs` target uses the helpers here so that all experiments agree
//! on workload scale, tuner budgets, measurement protocol, and output format. The scale
//! is reduced relative to the paper (see [`ExperimentScale`]): search spaces of a few
//! hundred thousand points instead of millions, and a few hundred regions instead of
//! 10,000, preserving the relative coverage of DarwinGame versus the baselines. The
//! paper's own scale is the `paper_scale` workload of the repository benchmark in
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod sweeps;

pub use sweeps::fig15_sweep_spec;

pub use harness::{oracle_reference, run_session, standard_workload, EvaluatedChoice};
// The scale type moved into `dg-campaign` (campaigns size their cells with it); the
// re-export keeps the long-standing `dg_bench::ExperimentScale` path working.
pub use dg_campaign::ExperimentScale;
