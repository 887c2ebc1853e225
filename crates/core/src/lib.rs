//! DarwinGame: tournament-based performance tuning for noisy, interference-prone cloud
//! environments.
//!
//! This crate implements the paper's primary contribution. Instead of trusting individual
//! noisy measurements, DarwinGame **co-locates multiple copies of the application with
//! different tuning configurations on the same node** so that all competitors experience
//! the same background interference, and ranks them relatively by the work each completes
//! ("playing games"). Games are organised into a four-phase tournament:
//!
//! 1. **Regional phase** (Swiss style): the search space is divided into regions;
//!    multi-player games with early termination quickly surface each region's most
//!    promising configurations.
//! 2. **Global phase** (double elimination): regional winners are re-tested in diverse
//!    groups and judged on execution *and* consistency scores; losers drop to a loser
//!    bracket instead of being eliminated.
//! 3. **Playoffs** (barrage) and 4. **Final**: two-player games without early termination
//!    decide the champion.
//!
//! Every game follows Fig. 5's termination rule, `dg_exec::GameRules::default()`, whose
//! work-done deviation (d = 10%) and leader threshold (25%) are `dg-cloudsim` constants;
//! the regional phase advances every player within the same d of its region's best.
//! Each game is ranked one way, and the games outside a batched round are all played
//! and recorded by one helper. Regions run on `dg-exec`'s ordered worker pool.
//!
//! The champion is the tuning configuration DarwinGame recommends: fast *and* stable
//! under interference. [`HybridDarwinGame`] additionally integrates the tournament with
//! an existing tuner's outer search loop (BLISS or ActiveHarmony style), one subspace at
//! a time.
//!
//! # Quick example
//!
//! ```
//! use darwin_core::{DarwinGame, TournamentConfig};
//! use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
//! use dg_workloads::{Application, Workload};
//!
//! // Reduced-scale Redis workload and a small tournament so the example runs quickly.
//! let workload = Workload::scaled(Application::Redis, 4_000);
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 7);
//! let mut config = TournamentConfig::scaled(8, 1);
//! config.players_per_game = Some(8);
//!
//! let report = DarwinGame::new(config).run(&workload, &mut cloud);
//! println!("champion: {}", workload.space().describe(report.champion));
//! assert!(report.games_played > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod game;
mod global;
mod hybrid;
mod player;
mod playoffs;
mod regional;
mod report;
mod score;
mod tournament;

pub use config::{AblationConfig, TournamentConfig};
pub use global::{run_global_phase, GlobalOutcome};
pub use hybrid::{
    BlissSubspaceStrategy, HarmonySubspaceStrategy, HybridDarwinGame, SubspaceStrategy,
};
pub use player::Player;
pub use playoffs::{run_playoffs, PlayoffOutcome};
pub use regional::{run_region, run_regional_phase, RegionalOutcome};
pub use report::{PhaseSummary, TournamentReport};
pub use score::ScoreBoard;
pub use tournament::DarwinGame;
