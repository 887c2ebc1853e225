//! The `retune` sweep mode: specs and reports for online continuous retuning.
//!
//! A retune sweep measures what the paper's tune-once protocol leaves on the table
//! when the cloud keeps changing after deployment. Each cell of the grid — one
//! `(scenario, seed)` pair — deploys a champion twice over the same simulated horizon:
//!
//! * the **adaptive** leg runs `dg-serve`'s retuning loop (drift monitor plus live
//!   mini-tournaments seeded from the incumbent and a hall of fame), and
//! * the **fixed** leg tunes once, up front, with *exactly the evaluations the
//!   adaptive leg ended up spending* — and never touches the champion again. The only
//!   difference between the legs is *when* the budget is spent, so a cell whose
//!   monitor never fires is a regret tie by construction.
//!
//! Both legs observe the same environment noise (paired seeds), so the difference in
//! **cumulative regret** — deployed time minus the time the dedicated-environment
//! oracle configuration would have taken over the same schedule — isolates the value
//! of retuning. This module holds the declarative spec and the canonical-JSON report;
//! the loop itself lives in `dg-serve`, which depends on this crate.

use crate::shard::HexFingerprint;
use crate::spec::profile_label;
use dg_cloudsim::{mix, InterferenceProfile, SimRng, VmType};
use dg_exec::json::{self, fnv1a, Object, ToJson};
use dg_scenario::{ScenarioEvent, ScenarioSpec};
use dg_stats::{DRIFT_DELTA, DRIFT_LAMBDA, DRIFT_MIN_REL_STD, DRIFT_WARMUP};
use dg_workloads::Application;

/// Evaluation budget of each incremental mini-tournament.
pub const RETUNE_BUDGET: usize = 4;

/// Number of paired cost-free probes that decide whether a candidate actually beats
/// the incumbent.
pub const CONFIRM_SAMPLES: usize = 6;

/// Deployment steps between consecutive acceptance probes. The probe window spans
/// `CONFIRM_SAMPLES * CONFIRM_STRIDE_STEPS` steps of future schedule, so a candidate
/// must beat the incumbent across the regimes of the coming hours, not just at the
/// instant the detector fired. Too narrow a window accepts phase-specialists that rot
/// when a cyclic load turns.
pub const CONFIRM_STRIDE_STEPS: usize = 4;

/// Relative improvement a candidate's paired total must show before the loop switches
/// champions (the ratchet: switch only on clear evidence).
pub const ACCEPT_MARGIN: f64 = 0.02;

/// Simulated seconds between consecutive deployment observations.
pub const DEPLOY_SPACING_SECONDS: f64 = 240.0;

/// Maximum number of former champions kept as warm-start hints.
pub const HALL_OF_FAME: usize = 4;

/// Recency weight of the champion monitor's EWMA belief.
pub const MONITOR_ALPHA: f64 = 0.2;

/// Deviations beyond this many reference standard deviations are held back one
/// sample by the monitor: a lone spike is dropped as a transient, a sustained one
/// feeds through.
pub const TRANSIENT_SIGMA: f64 = 4.0;

/// The hit count of the monitor's retired confidence gate, which fingerprints still
/// encode. The gate could never hold a detection back: the detector fires only after
/// `DRIFT_WARMUP` samples, and the monitor's EWMA absorbs every one of them.
const RETIRED_MIN_HITS: u32 = 8;

/// The settable part of the online retuning loop's policy: the initial session's
/// budget, the retune cap and the deployment horizon. Everything else the loop, its
/// monitor and its detector read is a constant ([`RETUNE_BUDGET`],
/// [`CONFIRM_SAMPLES`], [`CONFIRM_STRIDE_STEPS`], [`ACCEPT_MARGIN`],
/// [`DEPLOY_SPACING_SECONDS`], [`HALL_OF_FAME`], [`MONITOR_ALPHA`],
/// [`TRANSIENT_SIGMA`] and `dg_stats`' `DRIFT_*` thresholds).
///
/// The defaults are sized for the standard gauntlet ([`RetuneSpec::gauntlet`]): a
/// deployment horizon long enough to cover every event in the scenario pack and
/// small incremental tournaments that keep the total evaluation budget modest.
#[derive(Debug, Clone, PartialEq)]
pub struct RetunePolicy {
    /// Evaluation budget of the initial tuning session.
    pub initial_budget: usize,
    /// Maximum number of mini-tournaments the adaptive leg may run.
    /// [`RetuneSpec::fixed_budget`] is the resulting worst-case per-leg spend.
    pub max_retunes: usize,
    /// Number of deployment observations per leg.
    pub deploy_steps: usize,
}

impl Default for RetunePolicy {
    fn default() -> Self {
        Self {
            initial_budget: 32,
            max_retunes: 4,
            deploy_steps: 128,
        }
    }
}

impl RetunePolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics when the initial budget or the deployment horizon is zero.
    pub fn validate(&self) {
        assert!(self.initial_budget > 0, "initial_budget must be positive");
        assert!(self.deploy_steps > 0, "deploy_steps must be positive");
    }

    /// Encodes the loop's 16 settings in the fixed order fingerprints use: the three
    /// settable values, the loop's and the monitor's constants, the retired gate's hit
    /// count and the detector's thresholds but `DRIFT_CLAMP_Z`.
    fn encode(&self, push: &mut dyn FnMut(&str)) {
        push(&format!(
            "|policy:{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.initial_budget,
            RETUNE_BUDGET,
            self.max_retunes,
            CONFIRM_SAMPLES,
            CONFIRM_STRIDE_STEPS,
            ACCEPT_MARGIN.to_bits(),
            self.deploy_steps,
            DEPLOY_SPACING_SECONDS.to_bits(),
            HALL_OF_FAME,
            MONITOR_ALPHA.to_bits(),
            RETIRED_MIN_HITS,
            TRANSIENT_SIGMA.to_bits(),
            DRIFT_WARMUP,
            DRIFT_DELTA.to_bits(),
            DRIFT_LAMBDA.to_bits(),
            DRIFT_MIN_REL_STD.to_bits(),
        ));
    }
}

/// One cell of a retune sweep: a single `(scenario, seed)` pair, in stable grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneCellCoord {
    /// Position in the grid (scenarios outermost, seeds innermost).
    pub index: usize,
    /// The cloud scenario both legs run under.
    pub scenario: ScenarioSpec,
    /// Seed-axis value (the replicate identifier, not the raw RNG seed).
    pub seed: u64,
}

/// Declarative description of one retune sweep: a scenario axis crossed with a seed
/// axis, one workload/tuner/environment, and the loop policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneSpec {
    /// Sweep name, echoed into the report.
    pub name: String,
    /// Registry name of the tuner running both the initial session and every
    /// mini-tournament (warm-started ones benefit most; see `Tuner::warm_start`).
    pub tuner: String,
    /// Application workload.
    pub application: Application,
    /// Configuration-space size the workload is scaled to.
    pub space_size: u64,
    /// VM type of the deployment environment.
    pub vm: VmType,
    /// Interference profile of the deployment environment.
    pub profile: InterferenceProfile,
    /// Scenario axis: each entry is one column of the gauntlet.
    pub scenarios: Vec<ScenarioSpec>,
    /// Seed axis: one replicate per value.
    pub seeds: Vec<u64>,
    /// Base seed all cell seeds are derived from.
    pub base_seed: u64,
    /// The loop's settable policy.
    pub policy: RetunePolicy,
}

impl RetuneSpec {
    /// Creates a spec with the default policy, a single steady scenario, and one seed.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tuner: "RandomSearch".into(),
            application: Application::Redis,
            space_size: 2_000,
            vm: VmType::M5_8xlarge,
            profile: InterferenceProfile::typical(),
            scenarios: vec![ScenarioSpec::steady()],
            seeds: vec![0],
            base_seed: 0x0da7,
            policy: RetunePolicy::default(),
        }
    }

    /// The standard retune gauntlet: `steady` (the control column — the loop must
    /// never fire there) plus the three dynamic scenarios of the scenario pack, with
    /// `replicates` seeds each. The dynamic columns run with full
    /// [`ScenarioSpec::load_coupling`]: load bites through each configuration's
    /// interference sensitivity, so regime changes genuinely reorder the
    /// configuration space — the situation where retuning can beat tune-once at all,
    /// rather than merely re-measuring a uniformly slower world.
    pub fn gauntlet(name: impl Into<String>, replicates: u64) -> Self {
        let dynamic = |scenario: &str| {
            ScenarioSpec::by_name(scenario)
                .expect("pack scenario")
                .with_load_coupling(1.0)
        };
        // The gauntlet's bursty column arrives two hours into the run with sustained
        // bursts: a neighbour present from t=0 is visible to the initial tuning
        // session (which would correctly pick a storm-robust champion, leaving
        // nothing to detect) — drift means the regime the champion was tuned for
        // goes away later. Bursts are stretched to 1800 s so one spans enough
        // monitor samples to be distinguishable from a stationary interference
        // wave, which the monitor is tuned to sit out.
        let mut bursty = dynamic("bursty-neighbor").delayed(7_200.0);
        for event in &mut bursty.events {
            if let ScenarioEvent::StormFront { duration, .. } = event {
                *duration = 1_800.0;
            }
        }
        let mut spec = Self::new(name);
        spec.scenarios = vec![
            ScenarioSpec::steady(),
            dynamic("regime-shift"),
            dynamic("diurnal"),
            bursty,
        ];
        spec.seeds = (0..replicates).collect();
        spec
    }

    /// The gauntlet the `retune_regret` bench and the `retune_gauntlet` example run,
    /// each under its own name, at base seed `0x5e21`: 12 replicates, or with `smoke`
    /// the CI-sized grid of 6 replicates on a 500-configuration space, with a
    /// 16-evaluation initial session, at most 3 retunes and a 96-step horizon.
    pub fn regret_gauntlet(name: impl Into<String>, smoke: bool) -> Self {
        let mut spec = Self::gauntlet(name, if smoke { 6 } else { 12 });
        if smoke {
            spec.space_size = 500;
            spec.policy = RetunePolicy {
                initial_budget: 16,
                max_retunes: 3,
                deploy_steps: 96,
            };
        }
        spec.base_seed = 0x5e21;
        spec
    }

    /// Worst-case per-leg evaluation budget: the initial session plus everything the
    /// adaptive leg's mini-tournaments could possibly spend. Each cell's fixed leg
    /// spends the adaptive leg's *realized* evaluations, which this value bounds.
    pub fn fixed_budget(&self) -> usize {
        self.policy.initial_budget + self.policy.max_retunes * RETUNE_BUDGET
    }

    /// Size of the sweep grid.
    pub fn grid_size(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// The scheduled cells, scenarios outermost and seeds innermost.
    pub fn cells(&self) -> Vec<RetuneCellCoord> {
        let mut cells = Vec::with_capacity(self.grid_size());
        let mut index = 0usize;
        for scenario in &self.scenarios {
            for seed in &self.seeds {
                cells.push(RetuneCellCoord {
                    index,
                    scenario: scenario.clone(),
                    seed: *seed,
                });
                index += 1;
            }
        }
        cells
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if an axis is empty, a scenario is invalid or duplicated, the space is
    /// empty, or the policy is invalid.
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "retune sweep needs a name");
        assert!(!self.tuner.is_empty(), "retune sweep needs a tuner");
        assert!(self.space_size > 0, "space_size must be positive");
        assert!(
            !self.scenarios.is_empty(),
            "retune sweep needs at least one scenario"
        );
        for scenario in &self.scenarios {
            scenario.validate();
        }
        {
            let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            assert!(
                names.windows(2).all(|w| w[0] != w[1]),
                "scenario names must be unique within a sweep (they key cells and groups)"
            );
        }
        assert!(
            !self.seeds.is_empty(),
            "retune sweep needs at least one seed"
        );
        self.policy.validate();
    }

    /// A stable 64-bit fingerprint of the spec, FNV-1a over a canonical textual
    /// encoding — the same discipline as `CampaignSpec::fingerprint`. Reports carry
    /// it so replays and shards can refuse mismatched grids.
    pub fn fingerprint(&self) -> u64 {
        let mut encoded = String::with_capacity(256);
        let mut push = |part: &str| {
            // Length-prefix every part so concatenations can never collide across
            // field boundaries.
            encoded.push_str(&format!("{}:{part};", part.len()));
        };
        push("retune");
        push(&self.name);
        push(&self.tuner);
        push(self.application.name());
        push(&format!("|space:{}", self.space_size));
        push(self.vm.name());
        push(&profile_label(&self.profile));
        push("|scenarios");
        for scenario in &self.scenarios {
            push(&format!("{:016x}", scenario.fingerprint()));
        }
        push("|seeds");
        for seed in &self.seeds {
            push(&format!("{seed}"));
        }
        push(&format!("|base_seed:{}", self.base_seed));
        self.policy.encode(&mut push);
        fnv1a(&encoded)
    }

    /// The deterministic root seed of cell `index`, derived with the simulator's
    /// [`mix`] so retune sweeps share the campaign seeding discipline.
    pub fn cell_seed(&self, index: usize) -> u64 {
        mix(self.base_seed, index as u64)
    }

    /// The root RNG of cell `index`; the sweep derives the environment and loop
    /// sub-streams from it by label.
    pub fn cell_rng(&self, index: usize) -> SimRng {
        SimRng::new(self.cell_seed(index))
    }
}

/// The measured outcome of one retune cell: both legs over the same horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneCellResult {
    /// Scenario name (group key).
    pub scenario: String,
    /// Seed-axis value.
    pub seed: u64,
    /// The adaptive leg's initial champion (before any retune).
    pub adaptive_initial: u64,
    /// The adaptive leg's champion at the end of the horizon.
    pub adaptive_final: u64,
    /// The fixed leg's only champion.
    pub fixed_champion: u64,
    /// Drift detections raised by the monitor (adaptive leg).
    pub detections: usize,
    /// Mini-tournaments actually run (adaptive leg).
    pub retunes: usize,
    /// Champion switches accepted by the paired-probe gate (adaptive leg).
    pub switches: usize,
    /// Total deployed execution time of the adaptive leg, seconds.
    pub adaptive_time: f64,
    /// Total deployed execution time of the fixed leg, seconds.
    pub fixed_time: f64,
    /// Total execution time of the oracle configuration over the same schedule,
    /// seconds (the regret baseline, shared by both legs).
    pub reference_time: f64,
    /// Evaluations the adaptive leg actually spent (initial plus retunes).
    pub adaptive_evals: usize,
    /// Evaluations the fixed leg spent.
    pub fixed_evals: usize,
    /// Core-hours consumed by all tuning in the cell (both legs).
    pub core_hours: f64,
}

impl RetuneCellResult {
    /// Cumulative regret of the adaptive leg, seconds.
    pub fn adaptive_regret(&self) -> f64 {
        self.adaptive_time - self.reference_time
    }

    /// Cumulative regret of the fixed leg, seconds.
    pub fn fixed_regret(&self) -> f64 {
        self.fixed_time - self.reference_time
    }
}

impl ToJson for RetuneCellResult {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("scenario", &self.scenario)
                .field("seed", &self.seed)
                .field("adaptive_initial", &self.adaptive_initial)
                .field("adaptive_final", &self.adaptive_final)
                .field("fixed_champion", &self.fixed_champion)
                .field("detections", &self.detections)
                .field("retunes", &self.retunes)
                .field("switches", &self.switches)
                .field("adaptive_time", &self.adaptive_time)
                .field("fixed_time", &self.fixed_time)
                .field("reference_time", &self.reference_time)
                .field("adaptive_regret", &self.adaptive_regret())
                .field("fixed_regret", &self.fixed_regret())
                .field("adaptive_evals", &self.adaptive_evals)
                .field("fixed_evals", &self.fixed_evals)
                .field("core_hours", &self.core_hours);
        });
    }
}

/// Per-scenario aggregate of a retune sweep, summed over its seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Number of cells aggregated.
    pub cells: usize,
    /// Summed adaptive regret, seconds.
    pub adaptive_regret: f64,
    /// Summed fixed regret, seconds.
    pub fixed_regret: f64,
    /// Summed drift detections.
    pub detections: usize,
    /// Summed mini-tournaments.
    pub retunes: usize,
    /// Summed accepted switches.
    pub switches: usize,
}

impl RetuneScenarioSummary {
    /// Percentage of the fixed leg's regret the adaptive leg avoided (positive means
    /// retuning won). Zero when the fixed regret is non-positive or non-finite —
    /// a degenerate baseline has no meaningful percentage.
    pub fn regret_reduction_percent(&self) -> f64 {
        if !self.fixed_regret.is_finite() || self.fixed_regret <= 0.0 {
            return 0.0;
        }
        100.0 * (self.fixed_regret - self.adaptive_regret) / self.fixed_regret
    }
}

/// Also the per-scenario rows of `BENCH_retune.json`.
impl ToJson for RetuneScenarioSummary {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("scenario", &self.scenario)
                .field("cells", &self.cells)
                .field("adaptive_regret", &self.adaptive_regret)
                .field("fixed_regret", &self.fixed_regret)
                .field("regret_reduction_percent", &self.regret_reduction_percent())
                .field("detections", &self.detections)
                .field("retunes", &self.retunes)
                .field("switches", &self.switches);
        });
    }
}

/// The complete result of one retune sweep: cells in stable grid order plus
/// per-scenario aggregates, with canonical JSON emission.
///
/// Like `CampaignReport`, the report records nothing host- or schedule-dependent, so
/// two runs of the same spec are byte-identical regardless of worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneReport {
    /// Sweep name, copied from the spec.
    pub campaign: String,
    /// Fingerprint of the producing spec ([`RetuneSpec::fingerprint`]).
    pub fingerprint: u64,
    /// Per-cell results, in grid order.
    pub cells: Vec<RetuneCellResult>,
    /// Per-scenario aggregates, in scenario-axis order.
    pub scenarios: Vec<RetuneScenarioSummary>,
}

impl RetuneReport {
    /// Assembles a report from per-cell results. `cells` must be in grid order
    /// (the sweep guarantees this); scenario aggregates follow the spec's axis order.
    pub fn from_cells(spec: &RetuneSpec, cells: Vec<RetuneCellResult>) -> Self {
        let mut scenarios = Vec::with_capacity(spec.scenarios.len());
        for scenario in &spec.scenarios {
            let mut summary = RetuneScenarioSummary {
                scenario: scenario.name.clone(),
                cells: 0,
                adaptive_regret: 0.0,
                fixed_regret: 0.0,
                detections: 0,
                retunes: 0,
                switches: 0,
            };
            for cell in cells.iter().filter(|c| c.scenario == scenario.name) {
                summary.cells += 1;
                summary.adaptive_regret += cell.adaptive_regret();
                summary.fixed_regret += cell.fixed_regret();
                summary.detections += cell.detections;
                summary.retunes += cell.retunes;
                summary.switches += cell.switches;
            }
            scenarios.push(summary);
        }
        Self {
            campaign: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            cells,
            scenarios,
        }
    }

    /// The aggregate for `scenario`, if present.
    pub fn scenario(&self, scenario: &str) -> Option<&RetuneScenarioSummary> {
        self.scenarios.iter().find(|s| s.scenario == scenario)
    }

    /// Canonical JSON: fixed key order, no whitespace, shortest-round-trip floats;
    /// the fingerprint is rendered as a fixed-width hex string so it survives JSON
    /// consumers that read all numbers as `f64`.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("campaign", &self.campaign)
                .field("fingerprint", &HexFingerprint(self.fingerprint))
                .field("cells", &self.cells)
                .field("scenarios", &self.scenarios);
        })
    }

    /// A compact, aligned text summary of the per-scenario aggregates.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>6} {:>14} {:>14} {:>9} {:>8} {:>8} {:>8}\n",
            "scenario", "cells", "adaptive", "tune-once", "saved%", "detect", "retunes", "switch"
        ));
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<18} {:>6} {:>14.1} {:>14.1} {:>9.1} {:>8} {:>8} {:>8}\n",
                s.scenario,
                s.cells,
                s.adaptive_regret,
                s.fixed_regret,
                s.regret_reduction_percent(),
                s.detections,
                s.retunes,
                s.switches
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, seed: u64, adaptive: f64, fixed: f64) -> RetuneCellResult {
        RetuneCellResult {
            scenario: scenario.into(),
            seed,
            adaptive_initial: 3,
            adaptive_final: 9,
            fixed_champion: 4,
            detections: 2,
            retunes: 1,
            switches: 1,
            adaptive_time: adaptive,
            fixed_time: fixed,
            reference_time: 100.0,
            adaptive_evals: 32,
            fixed_evals: 56,
            core_hours: 1.25,
        }
    }

    #[test]
    fn gauntlet_covers_steady_and_the_dynamic_pack() {
        let spec = RetuneSpec::gauntlet("g", 3);
        let names: Vec<&str> = spec.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["steady", "regime-shift", "diurnal", "bursty-neighbor"]
        );
        assert_eq!(spec.grid_size(), 12);
        spec.validate();

        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].scenario.name, "steady");
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[2].seed, 2);
        assert_eq!(cells[3].scenario.name, "regime-shift");
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn fixed_budget_is_evaluation_parity() {
        let spec = RetuneSpec::new("p");
        assert_eq!(
            spec.fixed_budget(),
            spec.policy.initial_budget + spec.policy.max_retunes * RETUNE_BUDGET
        );
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let spec = RetuneSpec::gauntlet("g", 2);
        let seeds: Vec<u64> = (0..spec.grid_size()).map(|i| spec.cell_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(spec.cell_seed(1), mix(spec.base_seed, 1));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let spec = RetuneSpec::gauntlet("g", 2);
        assert_eq!(
            spec.fingerprint(),
            RetuneSpec::gauntlet("g", 2).fingerprint()
        );

        let mut renamed = RetuneSpec::gauntlet("g", 2);
        renamed.name = "other".into();
        assert_ne!(spec.fingerprint(), renamed.fingerprint());

        let mut retuned = RetuneSpec::gauntlet("g", 2);
        retuned.policy.deploy_steps += 1;
        assert_ne!(spec.fingerprint(), retuned.fingerprint());

        let mut reseeded = RetuneSpec::gauntlet("g", 2);
        reseeded.base_seed ^= 1;
        assert_ne!(spec.fingerprint(), reseeded.fingerprint());

        let mut narrowed = RetuneSpec::gauntlet("g", 2);
        narrowed.scenarios.pop();
        assert_ne!(spec.fingerprint(), narrowed.fingerprint());
    }

    #[test]
    fn regret_is_deployed_minus_reference() {
        let c = cell("diurnal", 0, 180.0, 240.0);
        assert_eq!(c.adaptive_regret(), 80.0);
        assert_eq!(c.fixed_regret(), 140.0);
    }

    #[test]
    fn report_groups_by_scenario_in_axis_order() {
        let mut spec = RetuneSpec::gauntlet("g", 2);
        spec.seeds = vec![0, 1];
        let cells = vec![
            cell("steady", 0, 110.0, 110.0),
            cell("steady", 1, 112.0, 112.0),
            cell("regime-shift", 0, 150.0, 190.0),
            cell("regime-shift", 1, 160.0, 200.0),
            cell("diurnal", 0, 140.0, 180.0),
            cell("diurnal", 1, 150.0, 170.0),
            cell("bursty-neighbor", 0, 130.0, 150.0),
            cell("bursty-neighbor", 1, 135.0, 165.0),
        ];
        let report = RetuneReport::from_cells(&spec, cells);
        assert_eq!(report.campaign, "g");
        assert_eq!(report.fingerprint, spec.fingerprint());
        assert_eq!(report.scenarios.len(), 4);
        assert_eq!(report.scenarios[0].scenario, "steady");
        let shift = report.scenario("regime-shift").unwrap();
        assert_eq!(shift.cells, 2);
        assert_eq!(shift.adaptive_regret, 50.0 + 60.0);
        assert_eq!(shift.fixed_regret, 90.0 + 100.0);
        assert!(shift.regret_reduction_percent() > 0.0);

        let table = report.summary_table();
        assert!(table.contains("regime-shift"));
        assert!(table.contains("tune-once"));
    }

    #[test]
    fn reduction_percent_is_guarded_against_degenerate_baselines() {
        let summary = RetuneScenarioSummary {
            scenario: "steady".into(),
            cells: 1,
            adaptive_regret: 5.0,
            fixed_regret: 0.0,
            detections: 0,
            retunes: 0,
            switches: 0,
        };
        assert_eq!(summary.regret_reduction_percent(), 0.0);
    }

    #[test]
    fn report_json_is_canonical_and_parseable() {
        let spec = RetuneSpec::new("j");
        let report = RetuneReport::from_cells(&spec, vec![cell("steady", 0, 120.5, 130.25)]);
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "emission is deterministic");
        let parsed = dg_exec::json::parse(&json).expect("canonical JSON parses");
        assert_eq!(parsed.get("campaign").and_then(|v| v.as_str()), Some("j"));
        assert_eq!(
            parsed.get("fingerprint").and_then(|v| v.as_str()),
            Some(format!("{:016x}", spec.fingerprint()).as_str())
        );
        let cells = parsed.get("cells").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0]
                .get("adaptive_regret")
                .and_then(|v| v.number_token()),
            Some("20.5")
        );
        let scenarios = parsed.get("scenarios").and_then(|v| v.as_array()).unwrap();
        assert_eq!(scenarios.len(), 1);
    }

    #[test]
    #[should_panic(expected = "initial_budget")]
    fn invalid_policy_is_rejected() {
        let mut spec = RetuneSpec::new("bad");
        spec.policy.initial_budget = 0;
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "unique within a sweep")]
    fn duplicate_scenarios_are_rejected() {
        let mut spec = RetuneSpec::new("dup");
        spec.scenarios = vec![ScenarioSpec::steady(), ScenarioSpec::steady()];
        spec.validate();
    }
}
