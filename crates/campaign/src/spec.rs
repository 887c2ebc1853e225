//! Campaign specifications: the cross-product grid of one experiment sweep.

use crate::scale::ExperimentScale;
use dg_cloudsim::{mix, InterferenceProfile, SimRng, VmType};
use dg_scenario::ScenarioSpec;
use dg_workloads::Application;

/// A short, human-readable label for an interference profile, used in cell results,
/// group keys, trace stream headers, and JSON output (re-exported from `dg-exec`, which
/// uses the same labels to validate traces at replay).
pub use dg_exec::profile_label;

/// One cell of a campaign grid: a single `(tuner, application, vm, profile, seed)`
/// combination, in stable grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCoord {
    /// Position in the full grid (stable regardless of execution order).
    pub index: usize,
    /// Index the cell's RNG streams are derived from. Equal to `index` unless the spec
    /// pairs tuners ([`CampaignSpec::paired_tuners`]), in which case cells that differ
    /// only in their tuner share a `seed_index` (and therefore environment noise).
    pub seed_index: usize,
    /// Registry name of the tuner to run.
    pub tuner: String,
    /// Application workload.
    pub application: Application,
    /// VM type of the cell's cloud environment.
    pub vm: VmType,
    /// Interference profile of the cell's cloud environment.
    pub profile: InterferenceProfile,
    /// Cloud scenario the cell runs under (`steady` executes unwrapped, exactly as
    /// before the scenario axis existed).
    pub scenario: ScenarioSpec,
    /// Seed-axis value (the replicate identifier, *not* the raw RNG seed).
    pub seed: u64,
}

/// Declarative description of an experiment campaign: the cross product of a tuner axis,
/// an application axis, a VM axis, an interference-profile axis, a cloud-scenario axis,
/// and a seed axis, plus the per-cell experiment scale.
///
/// Cells are enumerated in a stable nested order — tuners outermost, then applications,
/// VM types, profiles, scenarios, and seeds innermost — and each cell derives its RNG
/// streams from
/// [`cell_seed`](Self::cell_seed), so each cell's result depends only on the spec, never
/// on worker count or completion order. Every run executes every cell, so whole-campaign
/// reports are identical across worker counts too.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name, echoed into the report.
    pub name: String,
    /// Tuner axis: registry names (see `dg_tuners::TunerRegistry`).
    pub tuners: Vec<String>,
    /// Application axis.
    pub applications: Vec<Application>,
    /// VM-type axis.
    pub vm_types: Vec<VmType>,
    /// Interference-profile axis.
    pub profiles: Vec<InterferenceProfile>,
    /// Cloud-scenario axis (see `dg_scenario::ScenarioSpec`). Defaults to the single
    /// pass-through [`ScenarioSpec::steady`], which reproduces scenario-less campaigns
    /// byte-identically; widen it (e.g. to [`ScenarioSpec::pack`]) to sweep tuners
    /// across dynamic cloud regimes.
    pub scenarios: Vec<ScenarioSpec>,
    /// Seed axis: one replicate per value.
    pub seeds: Vec<u64>,
    /// Per-cell experiment scale (workload size, tournament regions, budgets,
    /// measurement protocol).
    pub scale: ExperimentScale,
    /// Base seed all cell seeds are derived from.
    pub base_seed: u64,
    /// When true, cells that differ only in their tuner-axis entry share the same
    /// environment and tuner RNG seeds, turning every tuner comparison into a *paired*
    /// one (identical noise realisations — the design the Fig. 16 ablation sweep
    /// needs). When false (the default), every cell is seeded independently, the way
    /// different tenants would each see their own noise.
    pub paired_tuners: bool,
}

impl CampaignSpec {
    /// Creates a spec with empty axes and the default experiment scale.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tuners: Vec::new(),
            applications: Vec::new(),
            vm_types: Vec::new(),
            profiles: Vec::new(),
            scenarios: vec![ScenarioSpec::steady()],
            seeds: Vec::new(),
            scale: ExperimentScale::default_scale(),
            base_seed: 0x0da2,
            paired_tuners: false,
        }
    }

    /// A single-axis default: one tuner, Redis, the paper's main VM, the typical
    /// profile, and `replicates` seeds `0..replicates`. A convenient starting point that
    /// callers then widen along the axes they sweep.
    pub fn single(name: impl Into<String>, tuner: impl Into<String>, replicates: u64) -> Self {
        let mut spec = Self::new(name);
        spec.tuners = vec![tuner.into()];
        spec.applications = vec![Application::Redis];
        spec.vm_types = vec![VmType::M5_8xlarge];
        spec.profiles = vec![InterferenceProfile::typical()];
        spec.seeds = (0..replicates).collect();
        spec
    }

    /// Size of the cross-product grid: the number of cells every run executes.
    pub fn grid_size(&self) -> usize {
        self.tuners.len()
            * self.applications.len()
            * self.vm_types.len()
            * self.profiles.len()
            * self.scenarios.len()
            * self.seeds.len()
    }

    /// True when the scenario axis is the implicit default — exactly one pass-through
    /// [`ScenarioSpec::steady`]. Default-axis specs fingerprint and serialize exactly
    /// as they did before the axis existed, so pre-scenario reports stay byte-identical.
    pub fn has_default_scenarios(&self) -> bool {
        self.scenarios.len() == 1 && self.scenarios[0] == ScenarioSpec::steady()
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty or the scale is invalid.
    pub fn validate(&self) {
        assert!(!self.tuners.is_empty(), "campaign needs at least one tuner");
        assert!(
            !self.applications.is_empty(),
            "campaign needs at least one application"
        );
        assert!(
            !self.vm_types.is_empty(),
            "campaign needs at least one VM type"
        );
        assert!(
            !self.profiles.is_empty(),
            "campaign needs at least one interference profile"
        );
        assert!(
            !self.scenarios.is_empty(),
            "campaign needs at least one scenario"
        );
        for scenario in &self.scenarios {
            scenario.validate();
        }
        {
            let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            assert!(
                names.windows(2).all(|w| w[0] != w[1]),
                "scenario names must be unique within a campaign (they key cells and groups)"
            );
        }
        assert!(!self.seeds.is_empty(), "campaign needs at least one seed");
        self.scale.validate();
    }

    /// The cells of the grid in stable nested order.
    pub fn cells(&self) -> Vec<CellCoord> {
        // With paired tuners, the tuner axis (outermost) is excluded from seed
        // derivation: cells at the same position within each tuner's sub-grid share
        // their seed index.
        let cells_per_tuner = self.grid_size() / self.tuners.len().max(1);
        let mut cells = Vec::with_capacity(self.grid_size());
        let mut index = 0usize;
        for tuner in &self.tuners {
            for app in &self.applications {
                for vm in &self.vm_types {
                    for profile in &self.profiles {
                        for scenario in &self.scenarios {
                            for seed in &self.seeds {
                                cells.push(CellCoord {
                                    index,
                                    seed_index: if self.paired_tuners {
                                        index % cells_per_tuner.max(1)
                                    } else {
                                        index
                                    },
                                    tuner: tuner.clone(),
                                    application: *app,
                                    vm: *vm,
                                    profile: profile.clone(),
                                    scenario: scenario.clone(),
                                    seed: *seed,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// A stable 64-bit fingerprint of the spec: FNV-1a over a canonical textual
    /// encoding of every field (axes in order, scale, seeds, pairing).
    ///
    /// Shard reports carry the fingerprint of the spec they were produced from, and
    /// [`CampaignReport::merge`](crate::CampaignReport::merge) refuses to combine
    /// reports whose fingerprints disagree — merging cells from different grids would
    /// silently corrupt the result. The encoding is independent of process, host, and
    /// run, so fingerprints are comparable across OS processes and machines.
    pub fn fingerprint(&self) -> u64 {
        let mut encoded = String::with_capacity(256);
        let mut push = |part: &str| {
            // Length-prefix every part so concatenations can never collide across
            // field boundaries ("ab"+"c" vs "a"+"bc").
            encoded.push_str(&format!("{}:{part};", part.len()));
        };
        push(&self.name);
        for tuner in &self.tuners {
            push(tuner);
        }
        push("|apps");
        for app in &self.applications {
            push(app.name());
        }
        push("|vms");
        for vm in &self.vm_types {
            push(vm.name());
        }
        push("|profiles");
        for profile in &self.profiles {
            push(&profile_label(profile));
        }
        // The default single-steady axis is omitted so default-axis specs fingerprint
        // exactly as they did before the scenario axis existed (shard reports and
        // traces recorded pre-axis stay mergeable/replayable).
        if !self.has_default_scenarios() {
            push("|scenarios");
            for scenario in &self.scenarios {
                push(&format!("{:016x}", scenario.fingerprint()));
            }
        }
        push("|seeds");
        for seed in &self.seeds {
            push(&format!("{seed}"));
        }
        push("|scale");
        push(&format!(
            "{},{},{},{},{},{},{},{}",
            self.scale.space_size,
            self.scale.regions,
            self.scale.players_per_game,
            self.scale.baseline_budget,
            self.scale.exhaustive_budget,
            self.scale.evaluation_runs,
            self.scale.evaluation_spacing.to_bits(),
            self.scale.tuning_repeats,
        ));
        push(&format!("|base_seed:{}", self.base_seed));
        // Two constant segments from when specs could cap a run; they keep the
        // fingerprints of existing specs, and so their shard reports, traces and labs.
        push("|max_cells:None");
        push("|max_core_hours:None");
        push(&format!("|paired:{}", self.paired_tuners));

        dg_exec::json::fnv1a(&encoded)
    }

    /// The deterministic root seed of cell `index`, derived with the simulator's
    /// [`mix`] so campaigns and single tournaments share one seeding discipline.
    pub fn cell_seed(&self, index: usize) -> u64 {
        mix(self.base_seed, index as u64)
    }

    /// The root RNG of cell `index`; the executor derives the environment and tuner
    /// sub-streams from it by label.
    pub fn cell_rng(&self, index: usize) -> SimRng {
        SimRng::new(self.cell_seed(index))
    }

    /// The evaluation budget for `tuner`: the exhaustive budget for the exhaustive
    /// search, the baseline budget for every other tuner.
    pub fn budget_for(&self, tuner: &str) -> usize {
        if tuner == "Exhaustive" {
            self.scale.exhaustive_budget
        } else {
            self.scale.baseline_budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> CampaignSpec {
        let mut spec = CampaignSpec::single("test", "RandomSearch", 2);
        spec.tuners = vec!["RandomSearch".into(), "BLISS".into()];
        spec.scale = ExperimentScale::smoke();
        spec
    }

    #[test]
    fn grid_is_the_cross_product_in_stable_order() {
        let spec = two_by_two();
        assert_eq!(spec.grid_size(), 4);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].tuner, "RandomSearch");
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].tuner, "RandomSearch");
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[2].tuner, "BLISS");
        assert_eq!(cells[3].tuner, "BLISS");
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let spec = two_by_two();
        let seeds: Vec<u64> = (0..4).map(|i| spec.cell_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "cell seeds must be distinct");
        assert_eq!(spec.cell_seed(2), spec.cell_seed(2));
        assert_eq!(spec.cell_seed(0), mix(spec.base_seed, 0));
    }

    #[test]
    fn paired_tuners_share_seed_indices_across_the_tuner_axis() {
        let mut spec = two_by_two();
        spec.paired_tuners = true;
        let cells = spec.cells();
        // 2 tuners x 2 seeds: positions 0/1 belong to the first tuner, 2/3 to the
        // second; pairing maps the second tuner's cells onto the first tuner's seeds.
        assert_eq!(cells[0].seed_index, 0);
        assert_eq!(cells[1].seed_index, 1);
        assert_eq!(cells[2].seed_index, 0);
        assert_eq!(cells[3].seed_index, 1);

        spec.paired_tuners = false;
        let unpaired = spec.cells();
        assert_eq!(unpaired[2].seed_index, 2);
        assert_eq!(unpaired[3].seed_index, 3);
    }

    #[test]
    fn exhaustive_search_gets_the_exhaustive_budget() {
        let spec = two_by_two();
        assert_ne!(spec.scale.exhaustive_budget, spec.scale.baseline_budget);
        assert_eq!(spec.budget_for("Exhaustive"), spec.scale.exhaustive_budget);
        for tuner in ["RandomSearch", "BLISS", "DarwinGame"] {
            assert_eq!(
                spec.budget_for(tuner),
                spec.scale.baseline_budget,
                "{tuner}"
            );
        }
    }

    #[test]
    fn profile_labels_are_compact() {
        assert_eq!(profile_label(&InterferenceProfile::typical()), "typical");
        assert_eq!(profile_label(&InterferenceProfile::heavy()), "heavy");
        assert_eq!(profile_label(&InterferenceProfile::Dedicated), "dedicated");
        assert_eq!(
            profile_label(&InterferenceProfile::Constant(0.5)),
            "constant(0.5)"
        );
    }

    #[test]
    fn distinct_custom_profiles_get_distinct_labels() {
        let a = InterferenceProfile::Custom {
            base: 0.05,
            value_amplitude: 0.25,
            regime_scale: 1.0,
            burst_magnitude: 0.9,
        };
        let b = InterferenceProfile::Custom {
            base: 0.15,
            value_amplitude: 0.25,
            regime_scale: 1.0,
            burst_magnitude: 0.9,
        };
        assert_ne!(
            profile_label(&a),
            profile_label(&b),
            "group keys must distinguish different custom profiles"
        );
        assert_eq!(profile_label(&a), "custom(0.05,0.25,1,0.9)");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let spec = two_by_two();
        assert_eq!(spec.fingerprint(), two_by_two().fingerprint());

        let mut renamed = two_by_two();
        renamed.name = "other".into();
        assert_ne!(spec.fingerprint(), renamed.fingerprint());

        let mut reseeded = two_by_two();
        reseeded.base_seed ^= 1;
        assert_ne!(spec.fingerprint(), reseeded.fingerprint());

        let mut rescaled = two_by_two();
        rescaled.scale.baseline_budget += 1;
        assert_ne!(spec.fingerprint(), rescaled.fingerprint());

        let mut paired = two_by_two();
        paired.paired_tuners = true;
        assert_ne!(spec.fingerprint(), paired.fingerprint());
    }

    #[test]
    fn scenario_axis_multiplies_the_grid_between_profiles_and_seeds() {
        use dg_scenario::ScenarioSpec;
        let mut spec = two_by_two();
        assert!(spec.has_default_scenarios());
        spec.scenarios = vec![
            ScenarioSpec::steady(),
            ScenarioSpec::by_name("regime-shift").unwrap(),
        ];
        assert!(!spec.has_default_scenarios());
        assert_eq!(spec.grid_size(), 8);
        let cells = spec.cells();
        // Scenario is the second-innermost axis: seeds cycle fastest.
        assert_eq!(cells[0].scenario.name, "steady");
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].scenario.name, "steady");
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[2].scenario.name, "regime-shift");
        assert_eq!(cells[2].seed, 0);
        spec.validate();
    }

    #[test]
    fn scenario_axis_changes_the_fingerprint() {
        use dg_scenario::ScenarioSpec;
        let spec = two_by_two();
        let mut swept = two_by_two();
        swept.scenarios = vec![
            ScenarioSpec::steady(),
            ScenarioSpec::by_name("diurnal").unwrap(),
        ];
        assert_ne!(spec.fingerprint(), swept.fingerprint());

        let mut renamed_steady = two_by_two();
        renamed_steady.scenarios = vec![ScenarioSpec::new("calm")];
        assert_ne!(
            spec.fingerprint(),
            renamed_steady.fingerprint(),
            "only the canonical steady scenario is fingerprint-neutral"
        );
    }

    #[test]
    #[should_panic(expected = "unique within a campaign")]
    fn duplicate_scenario_names_rejected() {
        use dg_scenario::ScenarioSpec;
        let mut spec = two_by_two();
        spec.scenarios = vec![ScenarioSpec::steady(), ScenarioSpec::steady()];
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "at least one tuner")]
    fn empty_tuner_axis_rejected() {
        let mut spec = two_by_two();
        spec.tuners.clear();
        spec.validate();
    }
}
