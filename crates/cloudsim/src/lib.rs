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
//!   game engine integrates time exactly between the interference's breakpoints: four
//!   shared samples per piece, every player's work from them, and a game that stops at
//!   the instant of its first finish or of the Fig. 5 early-termination rule. Solo runs
//!   and probes are one-player games. The crate's tests check the engine against a
//!   fine fixed-step textbook loop within a stated error budget.
//! * **Cost accounting.** Every run is charged in core-hours
//!   (`vCPUs × wall-clock`), the resource metric of Fig. 12 and Fig. 14.
//!
//! # Quick example
//!
//! ```
//! use dg_cloudsim::{CloudEnvironment, ExecutionSpec, GameRules, InterferenceProfile, VmType};
//!
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 42);
//! let fast = ExecutionSpec::new(230.0, 0.8);
//! let slow = ExecutionSpec::new(600.0, 0.2);
//!
//! // A co-located "game": both specs see identical background noise.
//! let play = cloud.play_game(&[fast, slow], &GameRules::playoff());
//! assert!(play.observed_times[0] < play.observed_times[1]);
//! assert_eq!(cloud.cost().core_hours(), 0.0);
//!
//! // Playing is free; committing charges the game and advances the clock.
//! cloud.commit(&play);
//! assert!(cloud.cost().core_hours() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod budget;
mod cloud;
mod cost;
mod interference;
#[cfg(test)]
mod reference;
mod rng;
mod spec;
mod time;
mod vm;

pub use cloud::{
    CloudEnvironment, DedicatedEnvironment, GamePlay, GameRules, ObservedRun, MIN_LEADER_PROGRESS,
    WORK_DONE_DEVIATION,
};
pub use cost::{CoreHours, CostDelta, CostSnapshot, CostTracker};
pub use interference::{InterferenceProfile, InterferenceSampler};
pub use rng::{hash_unit, mix, SimRng};
pub use spec::ExecutionSpec;
pub use time::SimTime;
pub use vm::VmType;
