//! A tunable workload: application + parameter space + performance surface.

use crate::app::Application;
use crate::param::{ConfigId, ParameterSpace};
use crate::partition::IndexPartition;
use crate::surface::{SurfaceConfig, SyntheticSurface};
use dg_cloudsim::{ExecutionSpec, SimRng};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Everything a tuner needs to know about one application under tuning.
///
/// A `Workload` owns the parameter space (Table 1) and the synthetic performance
/// surface that stands in for the real application. All tuners — the baselines and
/// DarwinGame — evaluate configurations only through [`Workload::spec`], so they
/// compete on identical footing.
///
/// ```
/// use dg_workloads::{Application, Workload};
///
/// let workload = Workload::scaled(Application::Redis, 10_000);
/// let spec = workload.spec(0);
/// assert!(spec.base_time() >= 230.0);
/// assert!(workload.size() <= 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    app: Application,
    surface: SyntheticSurface,
}

impl Workload {
    /// Creates the full-scale workload for an application (Table 1 sized space).
    pub fn full(app: Application) -> Self {
        let space = app.parameter_space();
        Self::from_parts(app, space, app.surface_config(), app.surface_seed())
    }

    /// Creates a reduced-scale workload whose search space has at most `max_size`
    /// configurations. The surface statistics (time spread, sensitivity structure) are
    /// unchanged; only the space is smaller, so experiments finish quickly.
    pub fn scaled(app: Application, max_size: u64) -> Self {
        let space = app.scaled_parameter_space(max_size);
        Self::from_parts(app, space, app.surface_config(), app.surface_seed())
    }

    /// [`scaled`](Self::scaled) through a process-wide cache keyed by `(app, max_size)`.
    ///
    /// A scaled workload is a pure function of its arguments, but generating the
    /// synthetic surface (empirical-CDF sampling and its tables) costs hundreds of
    /// microseconds — a real tax when a campaign builds the identical workload for every
    /// grid cell. The cached copies share one set of surface tables.
    pub fn scaled_cached(app: Application, max_size: u64) -> Self {
        static CACHE: OnceLock<Mutex<HashMap<(Application, u64), Workload>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut cache = cache.lock().expect("workload cache poisoned");
        cache
            .entry((app, max_size))
            .or_insert_with(|| Self::scaled(app, max_size))
            .clone()
    }

    /// Creates a workload with explicit surface knobs and seed (used by calibration
    /// tests and ablation studies).
    pub fn custom(
        app: Application,
        space: ParameterSpace,
        config: SurfaceConfig,
        seed: u64,
    ) -> Self {
        Self::from_parts(app, space, config, seed)
    }

    fn from_parts(
        app: Application,
        space: ParameterSpace,
        config: SurfaceConfig,
        seed: u64,
    ) -> Self {
        Self {
            app,
            surface: SyntheticSurface::generate(space, config, seed),
        }
    }

    /// The application this workload models.
    pub fn application(&self) -> Application {
        self.app
    }

    /// The tuning search space.
    pub fn space(&self) -> &ParameterSpace {
        self.surface.space()
    }

    /// The underlying synthetic performance surface.
    pub fn surface(&self) -> &SyntheticSurface {
        &self.surface
    }

    /// Number of configurations in the search space.
    pub fn size(&self) -> u64 {
        self.space().size()
    }

    /// Dedicated-environment execution time of configuration `id`.
    pub fn base_time(&self, id: ConfigId) -> f64 {
        self.surface.base_time(id)
    }

    /// Interference sensitivity of configuration `id`.
    pub fn sensitivity(&self, id: ConfigId) -> f64 {
        self.surface.sensitivity(id)
    }

    /// The execution spec handed to the cloud simulator for configuration `id`,
    /// computed from the surface's compiled tables on every call (about 85 ns) and
    /// bit-identical to `ExecutionSpec::new(self.base_time(id), self.sensitivity(id))`.
    /// The regional phase caches each candidate's spec per region.
    pub fn spec(&self, id: ConfigId) -> ExecutionSpec {
        self.surface.spec(id)
    }

    /// Partitions the search space into `n_r` regions for the regional phase.
    pub fn regions(&self, n_r: usize) -> IndexPartition {
        IndexPartition::new(self.size(), n_r)
    }

    /// Partitions the search space into `n_s` subspaces for hybrid integration with an
    /// existing tuner (Sec. 3.6).
    pub fn subspaces(&self, n_s: usize) -> IndexPartition {
        IndexPartition::new(self.size(), n_s)
    }

    /// The configuration the paper calls *optimal*: the one with the minimum execution
    /// time in a dedicated, interference-free environment.
    ///
    /// Determining it exactly would require evaluating every configuration; instead we
    /// take the best of the surface's planted optimum and a deterministic sample of
    /// `sample_budget` configurations, which is indistinguishable in practice because the
    /// planted optimum is the true minimum by construction.
    pub fn oracle_index(&self, sample_budget: usize) -> ConfigId {
        let mut best = self.surface.planted_optimum();
        let mut best_time = self.base_time(best);
        let mut rng = SimRng::new(self.surface.seed()).derive("oracle-scan");
        let size = self.size();
        for _ in 0..sample_budget {
            let id = (rng.uniform() * size as f64) as u64;
            let id = id.min(size - 1);
            let t = self.base_time(id);
            if t < best_time {
                best_time = t;
                best = id;
            }
        }
        best
    }

    /// Dedicated-environment execution time of the oracle configuration.
    pub fn oracle_time(&self, sample_budget: usize) -> f64 {
        self.base_time(self.oracle_index(sample_budget))
    }

    /// Draws `count` uniformly random configuration ids (with replacement); a convenience
    /// for motivation experiments such as Fig. 1 and Fig. 2.
    pub fn random_configs(&self, count: usize, rng: &mut SimRng) -> Vec<ConfigId> {
        let size = self.size();
        (0..count)
            .map(|_| ((rng.uniform() * size as f64) as u64).min(size - 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_workload_has_bounded_size() {
        let w = Workload::scaled(Application::Redis, 20_000);
        assert!(w.size() <= 20_000);
        assert!(w.size() > 1_000);
        assert_eq!(w.application(), Application::Redis);
    }

    #[test]
    fn full_workload_matches_paper_scale() {
        let w = Workload::full(Application::Gromacs);
        assert!(w.size() > 500_000);
        assert!(w.size() <= Application::Gromacs.paper_search_space_size());
    }

    #[test]
    fn specs_are_deterministic_across_instances() {
        let a = Workload::scaled(Application::Ffmpeg, 10_000);
        let b = Workload::scaled(Application::Ffmpeg, 10_000);
        for id in [0u64, 5, 99, 1234] {
            let id = id.min(a.size() - 1);
            assert_eq!(a.base_time(id), b.base_time(id));
            assert_eq!(a.sensitivity(id), b.sensitivity(id));
        }
    }

    #[test]
    fn spec_equals_its_components_bit_for_bit() {
        // A space under the retired memo's 2^20 cap and a full Table 1 space.
        for w in [
            Workload::scaled(Application::Redis, 60_000),
            Workload::full(Application::Redis),
        ] {
            for i in 0..4_096 {
                let id = i * (w.size() / 4_096);
                let spec = w.spec(id);
                let label = format!("{} id {id}", w.size());
                assert_eq!(
                    spec.base_time().to_bits(),
                    w.base_time(id).to_bits(),
                    "{label}"
                );
                assert_eq!(
                    spec.sensitivity().to_bits(),
                    w.sensitivity(id).to_bits(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn oracle_is_at_least_as_good_as_random_samples() {
        let w = Workload::scaled(Application::Lammps, 10_000);
        let oracle_time = w.oracle_time(2_000);
        let mut rng = SimRng::new(77);
        for id in w.random_configs(2_000, &mut rng) {
            assert!(w.base_time(id) >= oracle_time - 1e-9);
        }
    }

    #[test]
    fn oracle_time_is_near_configured_best() {
        for app in Application::ALL {
            let w = Workload::scaled(app, 20_000);
            let oracle = w.oracle_time(1_000);
            let best = app.surface_config().best_time;
            assert!(
                oracle < best * 1.1,
                "{app}: oracle {oracle} too far above configured best {best}"
            );
        }
    }

    #[test]
    fn regions_cover_space() {
        let w = Workload::scaled(Application::Redis, 10_000);
        let regions = w.regions(100);
        assert_eq!(regions.total(), w.size());
        assert_eq!(regions.parts(), 100);
    }

    #[test]
    fn random_configs_are_in_range() {
        let w = Workload::scaled(Application::Redis, 5_000);
        let mut rng = SimRng::new(3);
        for id in w.random_configs(500, &mut rng) {
            assert!(id < w.size());
        }
    }
}
