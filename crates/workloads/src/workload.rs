//! A tunable workload: application + parameter space + performance surface.

use crate::app::Application;
use crate::param::{ConfigId, ParameterSpace};
use crate::partition::IndexPartition;
use crate::progress::WorkUnit;
use crate::surface::{PerformanceSurface, SurfaceConfig, SyntheticSurface};
use dg_cloudsim::{ExecutionSpec, SimRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Largest search-space size for which a workload pre-allocates a spec memo table
/// (two `u64` slots per configuration — 16 MiB at the cap). Spaces above the cap, such
/// as the full Table 1 spaces, recompute a spec on every lookup: about 150 nanoseconds
/// of allocation-free reads of the surface's compiled tables. The tournament's regional
/// phase caches specs per region, so there each candidate's spec is computed once.
const SPEC_MEMO_MAX_CONFIGS: u64 = 1 << 20;

/// A lock-free memo of fully computed [`ExecutionSpec`]s, keyed by configuration id.
///
/// Surface evaluation (`SyntheticSurface::spec`) is a pure function of the id but costs
/// over a hundred nanoseconds — a decode, a CDF bucket search, table reads and three
/// hashes — and tuners fetch the same configuration's spec many times. The memo stores the two
/// components as raw bit patterns in atomic slots: `base_time` is strictly positive, so
/// a zero bit pattern doubles as the "empty" marker. Writers publish the sensitivity
/// first and release the base-time bits last; racing writers store identical bits
/// (purity), so the memo is deterministic and bit-transparent.
#[derive(Debug)]
struct SpecMemo {
    base_bits: Box<[AtomicU64]>,
    sens_bits: Box<[AtomicU64]>,
}

impl SpecMemo {
    fn new(size: u64) -> Option<Arc<Self>> {
        if size == 0 || size > SPEC_MEMO_MAX_CONFIGS {
            return None;
        }
        let zeros = |n: usize| -> Box<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        Some(Arc::new(Self {
            base_bits: zeros(size as usize),
            sens_bits: zeros(size as usize),
        }))
    }

    fn get(&self, id: ConfigId) -> Option<ExecutionSpec> {
        let base = self.base_bits[id as usize].load(Ordering::Acquire);
        if base == 0 {
            return None;
        }
        let sens = self.sens_bits[id as usize].load(Ordering::Relaxed);
        Some(ExecutionSpec::new(
            f64::from_bits(base),
            f64::from_bits(sens),
        ))
    }

    fn put(&self, id: ConfigId, spec: ExecutionSpec) {
        self.sens_bits[id as usize].store(spec.sensitivity().to_bits(), Ordering::Relaxed);
        self.base_bits[id as usize].store(spec.base_time().to_bits(), Ordering::Release);
    }
}

/// Everything a tuner needs to know about one application under tuning.
///
/// A `Workload` owns the parameter space (Table 1), the synthetic performance surface
/// that stands in for the real application, and the work unit used for progress
/// reporting. All tuners — the baselines and DarwinGame — evaluate configurations only
/// through [`Workload::spec`], so they compete on identical footing.
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
    work_unit: WorkUnit,
    /// Shared spec memo (present for spaces up to [`SPEC_MEMO_MAX_CONFIGS`]); clones
    /// share the same table, so campaign cells over one workload pool their lookups.
    spec_memo: Option<Arc<SpecMemo>>,
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
    /// synthetic surface (empirical-CDF sampling and its tables) and the spec memo costs
    /// hundreds of microseconds — a real tax when a campaign builds the identical
    /// workload for every grid cell. The cached copies share one spec memo and one set of
    /// surface tables, so repeated spec lookups pool across cells and workers.
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
        let surface = SyntheticSurface::generate(space, config, seed);
        let spec_memo = SpecMemo::new(surface.space().size());
        Self {
            app,
            surface,
            work_unit: WorkUnit::for_application(app),
            spec_memo,
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

    /// The work unit in which progress is reported.
    pub fn work_unit(&self) -> WorkUnit {
        self.work_unit
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

    /// The execution spec handed to the cloud simulator for configuration `id`.
    ///
    /// Memoized per configuration in spaces of up to 2^20 configurations (specs are
    /// pure functions of the id) and computed with a single normalised-time evaluation.
    /// Bit-identical to `ExecutionSpec::new(self.base_time(id), self.sensitivity(id))`,
    /// whether the memo is cold or warm.
    pub fn spec(&self, id: ConfigId) -> ExecutionSpec {
        if let Some(memo) = &self.spec_memo {
            if let Some(spec) = memo.get(id) {
                return spec;
            }
            let spec = self.surface.spec(id);
            memo.put(id, spec);
            return spec;
        }
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
    fn spec_equals_its_components_bit_for_bit_with_the_memo_cold_and_warm() {
        let check = |w: &Workload, pass: &str| {
            for i in 0..4_096 {
                let id = i * (w.size() / 4_096);
                let spec = w.spec(id);
                let label = format!("{} id {id} ({pass})", w.size());
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
        };
        let memoized = Workload::scaled(Application::Redis, 60_000);
        assert!(memoized.spec_memo.is_some());
        check(&memoized, "cold memo");
        check(&memoized, "warm memo");
        // The paper-scale space is past the memo cap, so every lookup recomputes.
        let full = Workload::full(Application::Redis);
        assert!(full.spec_memo.is_none());
        check(&full, "no memo");
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
