//! Descriptive statistics and reporting helpers for the DarwinGame reproduction.
//!
//! The DarwinGame paper reports its results almost exclusively through a handful of
//! statistics: means, coefficients of variation, empirical CDFs, and percentage
//! differences between solutions. This crate collects those primitives so that the
//! simulator ([`dg_cloudsim`]), the tuners, and the benchmark harnesses all compute them
//! in exactly the same way.
//!
//! # Quick example
//!
//! ```
//! use dg_stats::{Summary, EmpiricalCdf};
//!
//! let samples = vec![230.0, 240.0, 260.0, 300.0, 792.0];
//! let summary = Summary::from_slice(&samples);
//! assert!(summary.mean() > 300.0);
//! assert!(summary.coefficient_of_variation() > 0.0);
//!
//! let cdf = EmpiricalCdf::from_samples(&samples);
//! assert_eq!(cdf.quantile(0.0), 230.0);
//! assert_eq!(cdf.quantile(1.0), 792.0);
//! ```
//!
//! [`dg_cloudsim`]: https://docs.rs/dg-cloudsim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod descriptive;
mod drift;
mod online;
mod table;

pub use cdf::EmpiricalCdf;
pub use descriptive::{
    coefficient_of_variation, geometric_mean, mean, median, percent_change, percentile,
    population_variance, sample_variance, std_dev, Summary,
};
pub use drift::{
    DriftDetector, DriftDirection, Ewma, DRIFT_CLAMP_Z, DRIFT_DELTA, DRIFT_LAMBDA,
    DRIFT_MIN_REL_STD, DRIFT_WARMUP,
};
pub use online::OnlineStats;
pub use table::{format_row, Alignment, Column, Table};
