//! Tunable workloads: parameter spaces and synthetic performance surfaces for the four
//! applications evaluated in the DarwinGame paper (Redis, GROMACS, FFmpeg, LAMMPS).
//!
//! The real applications are replaced by procedurally generated performance surfaces
//! whose statistics match the paper's motivation experiments (execution-time spread,
//! sensitivity/performance correlation, rare fast-and-robust configurations). See
//! `DESIGN.md` at the repository root for the full substitution argument.
//!
//! # Quick example
//!
//! ```
//! use dg_workloads::{Application, Workload};
//! use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
//!
//! // A reduced-scale Redis workload (10k configurations instead of 7.8M).
//! let workload = Workload::scaled(Application::Redis, 10_000);
//!
//! // Evaluate one configuration in a noisy cloud environment.
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
//! let observed = cloud.run_single(workload.spec(42)).observed_time;
//! assert!(observed >= 230.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod param;
mod partition;
mod surface;
mod workload;

pub use app::{
    Application, FFMPEG_PARAMETERS, GROMACS_PARAMETERS, LAMMPS_PARAMETERS, REDIS_PARAMETERS,
    SYSTEM_LEVEL_PARAMETERS,
};
pub use param::{ConfigId, ConfigPoint, Parameter, ParameterSpace};
pub use partition::IndexPartition;
pub use surface::{SurfaceConfig, SyntheticSurface};
pub use workload::Workload;
