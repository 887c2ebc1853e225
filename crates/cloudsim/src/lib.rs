//! A simulated, interference-prone cloud execution environment.
//!
//! The DarwinGame paper tunes real applications on AWS virtual machines whose performance
//! is perturbed by uncontrollable background tenants. This crate replaces that platform
//! with a deterministic simulator that preserves the properties the tuners actually react
//! to:
//!
//! * **Time-varying interference.** A composite noise process (smooth value noise +
//!   Markov-style regimes + occasional bursts) produces an interference level for every
//!   instant of simulated time. Tuning at different wall-clock times therefore observes
//!   different noise, exactly the effect behind Fig. 3 of the paper.
//! * **Per-configuration sensitivity.** Each execution carries an interference
//!   *sensitivity*; the observed slowdown is `1 + sensitivity * effective_interference`,
//!   so highly optimised configurations can be more fragile than slower ones (Fig. 2).
//! * **Co-location.** The players of one game ([`CloudEnvironment::play_game`]) share
//!   the *same* interference samples and additionally contend with each other, which is
//!   the physical mechanism DarwinGame exploits to rank configurations relatively. The
//!   game engine steps flat per-player arrays: a packed rate-and-advance pass, a finish
//!   fix-up only on the step someone finishes, and a four-lane top-2 scan for early
//!   termination, with interference sampled eight steps per sampler call. A
//!   [`ColocatedRun`] steps the same physics one call at a time and is the reference
//!   the engine is tested against bit for bit.
//! * **Cost accounting.** Every run is charged in core-hours
//!   (`vCPUs × wall-clock`), the resource metric of Fig. 12 and Fig. 14.
//!
//! # Quick example
//!
//! ```
//! use dg_cloudsim::{CloudEnvironment, ExecutionSpec, InterferenceProfile, VmType};
//!
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 42);
//! let fast = ExecutionSpec::new(230.0, 0.8);
//! let slow = ExecutionSpec::new(600.0, 0.2);
//!
//! // A co-located "game": both specs see identical background noise.
//! let outcome = cloud.run_colocated_to_completion(&[fast, slow]);
//! assert!(outcome.observed_times()[0] < outcome.observed_times()[1]);
//! assert!(cloud.cost().core_hours() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cloud;
mod colocation;
mod cost;
mod interference;
mod record;
mod rng;
mod spec;
mod time;
mod vm;

pub use cloud::{CloudEnvironment, DedicatedEnvironment, GamePlay, GameRules, ObservedRun};
pub use colocation::{ColocatedRun, ColocationOutcome, PlayerProgress};
pub use cost::{CoreHours, CostDelta, CostSnapshot, CostTracker};
pub use interference::{
    BurstNoise, CompositeInterference, ConstantInterference, InterferenceModel,
    InterferenceProfile, InterferenceSampler, RegimeNoise, ValueNoise,
};
pub use record::{RunKind, RunLog, RunRecord};
pub use rng::{hash_unit, mix, SimRng};
pub use spec::ExecutionSpec;
pub use time::SimTime;
pub use vm::VmType;
