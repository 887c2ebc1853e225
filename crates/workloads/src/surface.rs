//! Synthetic performance surfaces.
//!
//! The paper measures real applications; we cannot. What the tuners actually consume,
//! however, is only the mapping *configuration → (dedicated execution time, interference
//! sensitivity)*. [`SyntheticSurface`] generates that mapping procedurally with the
//! statistical properties reported in Sec. 2 of the paper:
//!
//! * execution times spread over roughly `best..worst` with the vast majority of
//!   configurations at least 2× slower than the best (Fig. 1 left);
//! * faster configurations tend to be *more* sensitive to interference (Fig. 2);
//! * a small fraction of configurations are both fast and robust — the "blue marker"
//!   configurations a good cloud tuner should find.
//!
//! The surface is a pure function of its seed: every configuration index always maps to
//! the same execution characteristics, no matter who asks or in which order.
//!
//! # Compiled tables
//!
//! [`SyntheticSurface::generate`] draws the surface's model (optimal levels, per-level
//! penalties, pairwise interactions) and compiles it into tables, which are the only
//! evaluation path: [`SyntheticSurface::spec`], `base_time`, `sensitivity`,
//! [`SyntheticSurface::normalized_time`] and the build of the empirical CDF itself.
//! Each table returns the bits of the arithmetic it replaces:
//!
//! * **Decode.** Each free dimension divides by its level count through a multiply-high
//!   reciprocal `ceil(2^128 / radix)`, which is exact for every `u64` numerator (see
//!   `Divisor`). The low half of the free dimensions decodes `id % P` and the high half
//!   `id / P`, `P` being the low half's level-count product, as two independent chains:
//!   `id = (id / P) * P + id % P` with `id % P < P`, so the digits are those of `id`.
//! * **Per-level terms.** `weight * penalty` for every level: the same product the sum
//!   adds, computed once.
//! * **Interaction terms.** `weight * hash_unit` for every level pair of each
//!   interacting pair, and `+0.0` for the pair of optimal levels, which the sum skips:
//!   the sum starts at `+0.0` and adds only non-negative terms, so adding `+0.0` leaves
//!   its bits alone.
//! * **CDF index.** 4,096 buckets over the sorted CDF sample. The bucket count is a
//!   power of two, so `raw * 4096` is exact and bucket `b` holds exactly the samples in
//!   `[b / 4096, (b + 1) / 4096)`. Every sample below the bucket is below `raw` and
//!   every sample above it is not, so the count below `raw` inside the bucket plus the
//!   bucket's start is the whole sample's `partition_point`.
//! * **Shape.** The CDF value is `k / 4096` for an integer `k` in `0..=4096`, so the
//!   4,097 shaped values `(k / 4096)^exponent` are computed once with the same `powf`.
//! * **Hash seeds.** The cluster, sensitivity-noise and robustness draws hash the id
//!   with a seed mixed from the surface seed; the three seeds are mixed once.
//!
//! The tables are built once per surface and shared by its clones.

use crate::param::{ConfigId, ParameterSpace};
use dg_cloudsim::{ExecutionSpec, SimRng};
use std::sync::Arc;

/// Tuning knobs for [`SyntheticSurface`] generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceConfig {
    /// Execution time of the best configuration in a dedicated environment (seconds).
    pub best_time: f64,
    /// Execution time of the worst configuration in a dedicated environment (seconds).
    pub worst_time: f64,
    /// Target fraction of configurations whose execution time is below `2 * best_time`.
    pub fast_fraction: f64,
    /// Fraction of configurations belonging to the *near-optimal cluster*: well-tuned
    /// configurations whose execution time lands within roughly 15 % of the spread above
    /// the best. Real tuning spaces have such clusters (several parameter combinations
    /// achieve close-to-best behaviour); without them the optimum would be an isolated
    /// needle that no tuner — including the paper's — could approach.
    pub cluster_fraction: f64,
    /// Sensitivity assigned to the fastest configurations (before noise/robust rebates).
    pub max_sensitivity: f64,
    /// Sensitivity assigned to the slowest configurations.
    pub min_sensitivity: f64,
    /// Fraction of configurations that are "robust": their sensitivity is slashed,
    /// creating the rare fast-and-stable configurations of Fig. 2. Fast configurations
    /// (the best ~30 % of the time range) receive a higher robust probability, modelling
    /// the small population of well-tuned *and* stable configurations the paper's Fig. 2
    /// highlights in blue.
    pub robust_fraction: f64,
}

impl Default for SurfaceConfig {
    fn default() -> Self {
        Self {
            best_time: 230.0,
            worst_time: 792.0,
            fast_fraction: 0.04,
            cluster_fraction: 0.003,
            max_sensitivity: 1.1,
            min_sensitivity: 0.15,
            robust_fraction: 0.02,
        }
    }
}

impl SurfaceConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any bound is inconsistent (non-positive times, `worst <= best`,
    /// fractions outside `(0, 1)`, or inverted sensitivities).
    pub fn validate(&self) {
        assert!(self.best_time > 0.0, "best_time must be positive");
        assert!(
            self.worst_time > self.best_time,
            "worst_time must exceed best_time"
        );
        assert!(
            self.fast_fraction > 0.0 && self.fast_fraction < 1.0,
            "fast_fraction must be in (0, 1)"
        );
        assert!(
            self.cluster_fraction >= 0.0 && self.cluster_fraction < 0.5,
            "cluster_fraction must be in [0, 0.5)"
        );
        assert!(
            self.robust_fraction >= 0.0 && self.robust_fraction < 1.0,
            "robust_fraction must be in [0, 1)"
        );
        assert!(
            self.max_sensitivity >= self.min_sensitivity && self.min_sensitivity >= 0.0,
            "sensitivities must satisfy 0 <= min <= max"
        );
    }
}

/// A procedurally generated, deterministic performance surface.
#[derive(Debug, Clone)]
pub struct SyntheticSurface {
    space: ParameterSpace,
    config: SurfaceConfig,
    seed: u64,
    /// Per-dimension optimal level.
    optimal_levels: Vec<usize>,
    /// The compiled evaluation tables, built once and shared by clones.
    tables: Arc<Tables>,
}

/// What [`SyntheticSurface::generate`] draws from the seed, before compiling it.
struct Model {
    /// Per-dimension optimal level.
    optimal_levels: Vec<usize>,
    /// The free (multi-level) dimensions in dimension order. Pinned dimensions carry
    /// weight 0 and one level, so they never enter the raw penalty.
    free: Vec<FreeDimension>,
    /// Pairwise interactions between free dimensions.
    interactions: Vec<Interaction>,
}

/// One free dimension of the raw penalty.
struct FreeDimension {
    /// Level count: the dimension's digit base in the mixed-radix configuration index.
    radix: u64,
    /// Weight of the dimension's penalty (the weights sum to 1 over free dimensions).
    weight: f64,
    /// Penalty per level.
    penalties: Vec<f64>,
}

/// A pair of interacting free dimensions, addressed by their position in
/// [`Model::free`].
struct Interaction {
    a: usize,
    b: usize,
    optimal_a: usize,
    optimal_b: usize,
    weight: f64,
    /// Hash seed of the pair, derived from the surface seed and the two dimension
    /// indices of the full space.
    seed: u64,
}

/// Number of random configurations sampled to build the empirical raw-penalty CDF.
const CDF_SAMPLES: usize = 4096;

/// Buckets of the CDF sample's index. A power of two, so `raw * CDF_BUCKETS` is exact.
const CDF_BUCKETS: usize = 4096;

/// Relative strength of pairwise interactions versus per-dimension penalties.
const INTERACTION_SHARE: f64 = 0.2;

/// Most free dimensions a space can have: each has at least two levels and the size
/// fits in a `u64`.
const MAX_FREE_DIMENSIONS: usize = 64;

impl Model {
    /// Draws optimal levels, penalties and interactions for `space` from `seed`.
    fn draw(space: &ParameterSpace, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).derive("surface");

        // Per-dimension optimal levels; weights and penalty tables for free dimensions.
        // A pinned dimension has weight 0 and a single level, so it would only ever add
        // exactly +0.0 to a raw penalty and is left out of it.
        let mut optimal_levels = Vec::with_capacity(space.dimensions());
        let mut free_dims = Vec::new();
        let mut free: Vec<FreeDimension> = Vec::new();
        for (d, parameter) in space.parameters().iter().enumerate() {
            let levels = parameter.level_count();
            if levels == 1 {
                optimal_levels.push(0);
                continue;
            }
            let raw_weight = rng.uniform_range(0.4, 1.0);
            let optimal = rng.index(levels);
            optimal_levels.push(optimal);
            let penalties: Vec<f64> = (0..levels)
                .map(|level| {
                    if level == optimal {
                        0.0
                    } else {
                        let distance =
                            (level as f64 - optimal as f64).abs() / (levels - 1).max(1) as f64;
                        let noise = rng.uniform_range(0.0, 1.0);
                        (0.45 * distance + 0.55 * noise).clamp(0.05, 1.0)
                    }
                })
                .collect();
            free_dims.push(d);
            free.push(FreeDimension {
                radix: levels as u64,
                weight: raw_weight,
                penalties,
            });
        }
        let weight_sum: f64 = free.iter().map(|dim| dim.weight).sum();
        if weight_sum > 0.0 {
            for dim in &mut free {
                dim.weight /= weight_sum;
            }
        }

        // A handful of pairwise interactions between free dimensions.
        let mut interactions = Vec::new();
        if free_dims.len() >= 2 {
            let pair_count = free_dims.len().min(6);
            for _ in 0..pair_count {
                let a = free_dims[rng.index(free_dims.len())];
                let mut b = free_dims[rng.index(free_dims.len())];
                if a == b {
                    b = free_dims
                        [(free_dims.iter().position(|d| *d == a).unwrap() + 1) % free_dims.len()];
                }
                if a != b {
                    interactions.push((a, b, rng.uniform_range(0.5, 1.0)));
                }
            }
            let total: f64 = interactions.iter().map(|(_, _, w)| w).sum();
            if total > 0.0 {
                for entry in &mut interactions {
                    entry.2 /= total;
                }
            }
        }

        let position = |d: usize| {
            free_dims
                .iter()
                .position(|free| *free == d)
                .expect("interactions pair free dimensions")
        };
        let interactions = interactions
            .into_iter()
            .map(|(a, b, weight)| Interaction {
                a: position(a),
                b: position(b),
                optimal_a: optimal_levels[a],
                optimal_b: optimal_levels[b],
                weight,
                seed: dg_cloudsim::mix(seed, (a as u64) << 32 | b as u64),
            })
            .collect();
        Self {
            optimal_levels,
            free,
            interactions,
        }
    }
}

/// Exact division of a `u64` by a level count (or a product of level counts), through a
/// multiply-high reciprocal.
///
/// With `c = ceil(2^128 / radix)`, `floor(c * n / 2^128) == n / radix` for every `u64`
/// numerator `n` (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019): `c * n / 2^128` exceeds `n / radix` by less than `n / 2^128 < 1 / radix`,
/// while `n / radix` sits at least `1 / radix` below the next integer.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    radix: u64,
    /// The high and low 64 bits of `ceil(2^128 / radix)`.
    reciprocal: (u64, u64),
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `radix < 2`.
    fn new(radix: u64) -> Self {
        assert!(radix >= 2, "a divisor is at least 2");
        // ceil(2^128 / radix) == floor((2^128 - 1) / radix) + 1, which fits for
        // radix >= 2.
        let reciprocal = u128::MAX / u128::from(radix) + 1;
        Self {
            radix,
            reciprocal: ((reciprocal >> 64) as u64, reciprocal as u64),
        }
    }

    /// `(n / radix, n % radix)`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        let (high, low) = self.reciprocal;
        let n128 = u128::from(n);
        // The top 64 bits of the 192-bit product `reciprocal * n`. `high <= 2^63`, so the
        // sum stays below 2^128.
        let quotient = ((u128::from(high) * n128 + ((u128::from(low) * n128) >> 64)) >> 64) as u64;
        (quotient, n - quotient * self.radix)
    }
}

/// One free dimension of the compiled decode.
#[derive(Debug)]
struct DimensionTable {
    divisor: Divisor,
    /// Start of the dimension's `weight * penalty` terms in [`Tables::level_terms`].
    offset: usize,
}

/// One interaction of the compiled decode.
#[derive(Debug)]
struct PairTable {
    /// Positions of the pair's dimensions in [`Tables::free`].
    a: usize,
    b: usize,
    /// Level count of dimension `b`: the row length of the pair's terms.
    stride: usize,
    /// Start of the pair's `weight * hash_unit` terms in [`Tables::pair_terms`].
    offset: usize,
}

/// A surface compiled into tables, the only evaluation path (see the module docs for
/// why each table returns the same bits as the computation it replaces).
#[derive(Debug)]
struct Tables {
    /// `space.size()`, which is a product over every parameter.
    size: u64,
    /// The free dimensions in dimension order.
    free: Vec<DimensionTable>,
    /// How many of the free dimensions decode from the low part of an id.
    low_dims: usize,
    /// Splits an id into its low part (the remainder), whose digits are those of
    /// `free[..low_dims]`, and its high part (the quotient), whose digits are those of the
    /// other free dimensions; `None` with fewer than two free dimensions.
    split: Option<Divisor>,
    /// `weight * penalty` for every level of every free dimension.
    level_terms: Vec<f64>,
    pairs: Vec<PairTable>,
    /// `weight * hash_unit(seed, la << 32 | lb)` for every level pair `(la, lb)` of every
    /// interaction, row by row, and `+0.0` for the pair of optimal levels.
    pair_terms: Vec<f64>,
    /// Sorted sample of raw penalty values used as an empirical CDF for shaping.
    quantiles: Vec<f64>,
    /// `buckets[b]`: the number of quantiles below `b / CDF_BUCKETS`, for
    /// `b` in `0..=CDF_BUCKETS + 1`.
    buckets: Vec<u32>,
    /// `(k / CDF_SAMPLES)^exponent` for `k` in `0..=CDF_SAMPLES`, with the exponent
    /// that hits the configured `fast_fraction`.
    shaped: Vec<f64>,
    /// The cluster, sensitivity-noise and robustness hash seeds.
    cluster_seed: u64,
    noise_seed: u64,
    robust_seed: u64,
}

impl Tables {
    /// Compiles a drawn model, then samples and indexes the raw-penalty CDF through the
    /// compiled decode.
    fn compile(model: &Model, size: u64, config: &SurfaceConfig, seed: u64) -> Self {
        let mut level_terms = Vec::new();
        let free = model
            .free
            .iter()
            .map(|dim| {
                assert!(dim.radix <= 1 << 32, "levels are decoded into u32 slots");
                let offset = level_terms.len();
                level_terms.extend(dim.penalties.iter().map(|penalty| dim.weight * penalty));
                DimensionTable {
                    divisor: Divisor::new(dim.radix),
                    offset,
                }
            })
            .collect();
        let mut pair_terms = Vec::new();
        let pairs = model
            .interactions
            .iter()
            .map(|pair| {
                let offset = pair_terms.len();
                let (radix_a, radix_b) = (model.free[pair.a].radix, model.free[pair.b].radix);
                for la in 0..radix_a {
                    pair_terms.extend((0..radix_b).map(|lb| {
                        if (la, lb) == (pair.optimal_a as u64, pair.optimal_b as u64) {
                            0.0
                        } else {
                            pair.weight * dg_cloudsim::hash_unit(pair.seed, la << 32 | lb)
                        }
                    }));
                }
                PairTable {
                    a: pair.a,
                    b: pair.b,
                    stride: radix_b as usize,
                    offset,
                }
            })
            .collect();
        let low_dims = model.free.len() / 2;
        let low_size = model.free[..low_dims].iter().map(|dim| dim.radix).product();
        let mut tables = Self {
            size,
            free,
            low_dims,
            split: (low_dims > 0).then(|| Divisor::new(low_size)),
            level_terms,
            pairs,
            pair_terms,
            quantiles: Vec::new(),
            buckets: Vec::new(),
            shaped: Vec::new(),
            cluster_seed: dg_cloudsim::mix(seed, 0xc105),
            noise_seed: dg_cloudsim::mix(seed, 0x5e75),
            robust_seed: dg_cloudsim::mix(seed, 0x40b5),
        };

        // The empirical CDF of raw penalties. Raw penalties are never NaN or -0.0, so
        // equal keys have equal bits and the unstable total-order sort is exact.
        let mut sampler = SimRng::new(seed).derive("surface-cdf");
        let mut quantiles: Vec<f64> = (0..CDF_SAMPLES)
            .map(|_| {
                let id = (sampler.uniform() * size as f64) as u64;
                tables.raw_penalty(id.min(size - 1))
            })
            .collect();
        quantiles.sort_unstable_by(f64::total_cmp);
        // One merge of the sorted sample with the increasing bucket edges.
        let mut below = 0;
        tables.buckets = (0..=CDF_BUCKETS + 1)
            .map(|b| {
                let edge = b as f64 / CDF_BUCKETS as f64;
                while below < quantiles.len() && quantiles[below] < edge {
                    below += 1;
                }
                below as u32
            })
            .collect();
        tables.quantiles = quantiles;

        // The exponent applied to the CDF value to achieve the configured fast_fraction:
        // we want P(U^beta < threshold) == fast_fraction, with U uniform via the CDF.
        let threshold =
            (config.best_time / (config.worst_time - config.best_time)).clamp(0.01, 0.99);
        let exponent = (threshold.ln() / config.fast_fraction.ln()).clamp(0.05, 1.0);
        tables.shaped = (0..=CDF_SAMPLES)
            .map(|k| (k as f64 / CDF_SAMPLES as f64).powf(exponent))
            .collect();
        tables
    }

    /// Raw (unshaped) penalty of a configuration, in `[0, 1]`.
    ///
    /// Decodes the free dimensions of `id` (mixed radix, least significant first, as
    /// [`ParameterSpace::point_of`] does) into a stack array, then sums the per-dimension
    /// terms in dimension order and adds one term per interaction. Skipping the pinned
    /// dimensions leaves every partial sum bit-identical, because each would add exactly
    /// `+0.0`. The decode runs as two independent chains of divisions, one over the low
    /// part of the id and one over the high part, so their latencies overlap.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the space.
    fn raw_penalty(&self, id: ConfigId) -> f64 {
        assert!(id < self.size, "configuration index out of range");
        // `u32` levels keep the zeroed array small enough to clear inline.
        let mut levels = [0u32; MAX_FREE_DIMENSIONS];
        let (mut high, mut low) = self.split.map_or((id, 0), |split| split.div_rem(id));
        let (low_dims, high_dims) = self.free.split_at(self.low_dims);
        for (k, high_dim) in high_dims.iter().enumerate() {
            if let Some(low_dim) = low_dims.get(k) {
                let (quotient, remainder) = low_dim.divisor.div_rem(low);
                (low, levels[k]) = (quotient, remainder as u32);
            }
            let (quotient, remainder) = high_dim.divisor.div_rem(high);
            (high, levels[self.low_dims + k]) = (quotient, remainder as u32);
        }
        let mut per_dimension = 0.0;
        for (level, dim) in levels.iter().zip(&self.free) {
            per_dimension += self.level_terms[dim.offset + *level as usize];
        }
        let mut interaction = 0.0;
        for pair in &self.pairs {
            let (la, lb) = (levels[pair.a] as usize, levels[pair.b] as usize);
            interaction += self.pair_terms[pair.offset + la * pair.stride + lb];
        }
        ((1.0 - INTERACTION_SHARE) * per_dimension + INTERACTION_SHARE * interaction)
            .clamp(0.0, 1.0)
    }

    /// The number of sampled penalties *strictly below* `raw`: the sample's
    /// `partition_point`, searched inside `raw`'s bucket only.
    fn cdf_position(&self, raw: f64) -> usize {
        let bucket = (raw * CDF_BUCKETS as f64) as usize;
        let (start, end) = (
            self.buckets[bucket] as usize,
            self.buckets[bucket + 1] as usize,
        );
        start + self.quantiles[start..end].partition_point(|q| *q < raw)
    }
}

impl SyntheticSurface {
    /// Generates a surface over `space` from a seed and generation knobs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`SurfaceConfig::validate`]).
    pub fn generate(space: ParameterSpace, config: SurfaceConfig, seed: u64) -> Self {
        config.validate();
        let model = Model::draw(&space, seed);
        let tables = Tables::compile(&model, space.size(), &config, seed);
        Self {
            space,
            config,
            seed,
            optimal_levels: model.optimal_levels,
            tables: Arc::new(tables),
        }
    }

    /// The generation knobs this surface was built from.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// The seed this surface was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration index of the planted global optimum (every dimension at its
    /// optimal level). Its execution time equals `best_time` up to shaping error.
    pub fn planted_optimum(&self) -> ConfigId {
        self.space.index_of(&self.optimal_levels)
    }

    /// Normalised execution time in `[0, 1]` (0 = best, 1 = worst).
    ///
    /// The shaped empirical-CDF value of the raw penalty: the fraction of sampled
    /// penalties *strictly below* it, raised to the shape exponent. The strict
    /// inequality matters at the bottom end: the planted optimum (raw penalty 0) must map
    /// to 0 — and therefore to exactly `best_time` — even when the quantile sample
    /// happens to contain zero-penalty configurations, otherwise the shaping exponent
    /// amplifies the tie fraction into a spurious premium on the optimum.
    pub fn normalized_time(&self, id: ConfigId) -> f64 {
        let tables = &*self.tables;
        let mut normalized = tables.shaped[tables.cdf_position(tables.raw_penalty(id))];
        // Members of the near-optimal cluster are pulled close to (but not onto) the
        // best time: they pay a small premium over the absolute optimum, which is what
        // makes them invisible to tuners that chase the single lowest noisy observation.
        let cluster_draw = dg_cloudsim::hash_unit(tables.cluster_seed, id);
        if cluster_draw < self.config.cluster_fraction {
            normalized = 0.04 + 0.08 * normalized;
        }
        normalized
    }

    /// Execution time at a given normalised position (the shared tail of
    /// [`SyntheticSurface::base_time`]).
    fn time_from_normalized(&self, normalized: f64) -> f64 {
        self.config.best_time + (self.config.worst_time - self.config.best_time) * normalized
    }

    /// Sensitivity at a given normalised position (the shared tail of
    /// [`SyntheticSurface::sensitivity`]).
    fn sensitivity_from_normalized(&self, id: ConfigId, normalized: f64) -> f64 {
        let base = self.config.max_sensitivity
            - (self.config.max_sensitivity - self.config.min_sensitivity) * normalized;
        // Multiplicative noise decorrelates sensitivity from pure speed.
        let noise = 0.7 + 0.6 * dg_cloudsim::hash_unit(self.tables.noise_seed, id);
        let mut sensitivity = base * noise;
        // A small fraction of configurations are intrinsically robust; the fast part of
        // the range is given a higher robust probability (the Fig. 2 "blue" population),
        // because that is the population a cloud-aware tuner is supposed to find.
        let robust_draw = dg_cloudsim::hash_unit(self.tables.robust_seed, id);
        // The very fastest configurations are never robust: a maximally optimised
        // configuration pushes the system against its resource limits (Sec. 2 of the
        // paper), so robustness only appears at a small premium above the optimum.
        let robust_probability = if normalized < 0.035 {
            0.0
        } else if normalized < 0.3 {
            self.config.robust_fraction * 5.0
        } else {
            self.config.robust_fraction
        };
        if robust_draw < robust_probability {
            sensitivity *= 0.03;
        }
        sensitivity.clamp(0.015, 1.4)
    }
}

impl SyntheticSurface {
    /// The parameter space this surface is defined over.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Dedicated-environment execution time (seconds) of configuration `id`.
    pub fn base_time(&self, id: ConfigId) -> f64 {
        self.time_from_normalized(self.normalized_time(id))
    }

    /// Interference sensitivity of configuration `id`.
    pub fn sensitivity(&self, id: ConfigId) -> f64 {
        self.sensitivity_from_normalized(id, self.normalized_time(id))
    }

    /// The execution spec handed to the cloud simulator for configuration `id`:
    /// bit-identical to `ExecutionSpec::new(self.base_time(id), self.sensitivity(id))`,
    /// with `normalized_time` evaluated once for both components.
    pub fn spec(&self, id: ConfigId) -> ExecutionSpec {
        let normalized = self.normalized_time(id);
        ExecutionSpec::new(
            self.time_from_normalized(normalized),
            self.sensitivity_from_normalized(id, normalized),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::param::Parameter;

    fn test_space() -> ParameterSpace {
        ParameterSpace::new(
            (0..12)
                .map(|i| Parameter::with_level_count(format!("p{i}"), 3 + i % 3))
                .collect(),
        )
    }

    fn test_surface(seed: u64) -> SyntheticSurface {
        SyntheticSurface::generate(test_space(), SurfaceConfig::default(), seed)
    }

    #[test]
    fn times_stay_within_configured_bounds() {
        let surface = test_surface(1);
        let mut rng = SimRng::new(2);
        let size = surface.space().size();
        for _ in 0..2000 {
            let id = (rng.uniform() * size as f64) as u64;
            let t = surface.base_time(id);
            assert!(t >= surface.config().best_time - 1e-9);
            assert!(t <= surface.config().worst_time + 1e-9);
        }
    }

    #[test]
    fn surface_is_deterministic() {
        let a = test_surface(7);
        let b = test_surface(7);
        for id in [0u64, 17, 999, 12_345] {
            assert_eq!(a.base_time(id), b.base_time(id));
            assert_eq!(a.sensitivity(id), b.sensitivity(id));
        }
    }

    #[test]
    fn different_seeds_give_different_surfaces() {
        let a = test_surface(1);
        let b = test_surface(2);
        let differs = (0..100u64).any(|id| (a.base_time(id) - b.base_time(id)).abs() > 1e-9);
        assert!(differs);
    }

    #[test]
    fn planted_optimum_is_fast() {
        let surface = test_surface(3);
        let optimum = surface.planted_optimum();
        let t = surface.base_time(optimum);
        assert!(
            t < surface.config().best_time * 1.05,
            "planted optimum should be near best_time, got {t}"
        );
        // And it should beat a large random sample.
        let mut rng = SimRng::new(9);
        let size = surface.space().size();
        for _ in 0..2000 {
            let id = (rng.uniform() * size as f64) as u64;
            assert!(surface.base_time(id) >= t - 1e-9);
        }
    }

    #[test]
    fn most_configurations_are_at_least_twice_the_best() {
        // Fig. 1 (left): more than 93 % of configurations take at least 2x the best time.
        let surface = test_surface(4);
        let mut rng = SimRng::new(11);
        let size = surface.space().size();
        let threshold = 2.0 * surface.config().best_time;
        let samples = 4000;
        let hits = (0..samples)
            .filter(|_| {
                let id = (rng.uniform() * size as f64) as u64;
                surface.base_time(id.min(size - 1)) < threshold
            })
            .count();
        let fast = hits as f64 / samples as f64;
        assert!(
            fast < 0.12,
            "too many fast configurations for a paper-shaped surface: {fast}"
        );
        assert!(fast > 0.0, "some fast configurations must exist");
    }

    #[test]
    fn faster_configurations_are_more_sensitive_on_average() {
        let surface = test_surface(5);
        let mut rng = SimRng::new(12);
        let size = surface.space().size();
        let mut fast_sens = Vec::new();
        let mut slow_sens = Vec::new();
        for _ in 0..6000 {
            let id = (rng.uniform() * size as f64) as u64;
            let normalized = surface.normalized_time(id);
            if normalized < 0.3 {
                fast_sens.push(surface.sensitivity(id));
            } else if normalized > 0.7 {
                slow_sens.push(surface.sensitivity(id));
            }
        }
        assert!(!fast_sens.is_empty() && !slow_sens.is_empty());
        assert!(
            dg_stats::mean(&fast_sens) > dg_stats::mean(&slow_sens),
            "fast configs should be more interference-sensitive on average"
        );
    }

    #[test]
    fn robust_fast_configurations_exist_but_are_rare() {
        let surface = test_surface(6);
        let mut rng = SimRng::new(13);
        let size = surface.space().size();
        let mut robust_fast = 0usize;
        let samples = 20_000usize;
        for _ in 0..samples {
            let id = (rng.uniform() * size as f64) as u64;
            let fast = surface.base_time(id) < surface.config().best_time * 1.6;
            let robust = surface.sensitivity(id) < 0.2;
            if fast && robust {
                robust_fast += 1;
            }
        }
        let fraction = robust_fast as f64 / samples as f64;
        assert!(fraction > 0.0, "sweet-spot configurations must exist");
        assert!(
            fraction < 0.05,
            "sweet-spot configurations must be rare, got {fraction}"
        );
    }

    #[test]
    fn sensitivity_is_bounded() {
        let surface = test_surface(8);
        for id in 0..2000u64 {
            let s = surface.sensitivity(id);
            assert!((0.015..=1.4).contains(&s));
        }
    }

    #[test]
    fn spec_combines_time_and_sensitivity() {
        let surface = test_surface(9);
        let spec = surface.spec(42);
        assert_eq!(spec.base_time(), surface.base_time(42));
        assert_eq!(spec.sensitivity(), surface.sensitivity(42));
    }

    /// The surface as it was evaluated before it was compiled into tables: every
    /// dimension decoded with [`ParameterSpace::point_of`] and summed, pinned ones with
    /// weight 0 and a single 0.0 penalty, each pair hashed and its seed mixed per call,
    /// the CDF searched over the whole sample with `partition_point`, the shape's `powf`
    /// and the draws' seeds computed per call.
    struct ReferencePenalty<'a> {
        surface: &'a SyntheticSurface,
        weights: Vec<f64>,
        penalties: Vec<Vec<f64>>,
        interactions: Vec<(usize, usize, f64)>,
        quantiles: Vec<f64>,
    }

    impl<'a> ReferencePenalty<'a> {
        fn new(surface: &'a SyntheticSurface) -> Self {
            let model = Model::draw(surface.space(), surface.seed());
            let parameters = surface.space().parameters();
            let free_dims: Vec<usize> = (0..parameters.len())
                .filter(|d| !parameters[*d].is_pinned())
                .collect();
            let mut weights = vec![0.0; parameters.len()];
            let mut penalties = vec![vec![0.0]; parameters.len()];
            for (d, dim) in free_dims.iter().zip(&model.free) {
                weights[*d] = dim.weight;
                penalties[*d] = dim.penalties.clone();
            }
            let interactions = model
                .interactions
                .iter()
                .map(|pair| (free_dims[pair.a], free_dims[pair.b], pair.weight))
                .collect();
            let mut reference = Self {
                surface,
                weights,
                penalties,
                interactions,
                quantiles: Vec::new(),
            };
            reference.quantiles = reference.sample_quantiles();
            reference
        }

        fn raw_penalty(&self, id: ConfigId) -> f64 {
            let point = self.surface.space().point_of(id);
            let mut per_dimension = 0.0;
            for (d, level) in point.iter().enumerate() {
                per_dimension += self.weights[d] * self.penalties[d][*level];
            }
            let mut interaction = 0.0;
            for (a, b, weight) in &self.interactions {
                let (la, lb) = (point[*a], point[*b]);
                if la == self.surface.optimal_levels[*a] && lb == self.surface.optimal_levels[*b] {
                    continue;
                }
                let pair_seed = dg_cloudsim::mix(self.surface.seed, (*a as u64) << 32 | *b as u64);
                let h = dg_cloudsim::hash_unit(pair_seed, (la as u64) << 32 | lb as u64);
                interaction += weight * h;
            }
            ((1.0 - INTERACTION_SHARE) * per_dimension + INTERACTION_SHARE * interaction)
                .clamp(0.0, 1.0)
        }

        /// The empirical-CDF sample, drawn as [`SyntheticSurface::generate`] draws it
        /// and sorted with a stable sort by `partial_cmp`.
        fn sample_quantiles(&self) -> Vec<f64> {
            let size = self.surface.space().size();
            let mut sampler = SimRng::new(self.surface.seed).derive("surface-cdf");
            let mut samples: Vec<f64> = (0..CDF_SAMPLES)
                .map(|_| {
                    let id = (sampler.uniform() * size as f64) as u64;
                    self.raw_penalty(id.min(size - 1))
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            samples
        }

        /// `[normalized_time, base_time, sensitivity]` of `id`.
        fn evaluate(&self, id: ConfigId) -> [f64; 3] {
            let config = self.surface.config();
            let seed = self.surface.seed;
            let raw = self.raw_penalty(id);
            let position = self.quantiles.partition_point(|q| *q < raw);
            let u = position as f64 / self.quantiles.len() as f64;
            let threshold =
                (config.best_time / (config.worst_time - config.best_time)).clamp(0.01, 0.99);
            let exponent = (threshold.ln() / config.fast_fraction.ln()).clamp(0.05, 1.0);
            let mut normalized = u.powf(exponent);
            if dg_cloudsim::hash_unit(dg_cloudsim::mix(seed, 0xc105), id) < config.cluster_fraction
            {
                normalized = 0.04 + 0.08 * normalized;
            }
            let base_time = config.best_time + (config.worst_time - config.best_time) * normalized;

            let base = config.max_sensitivity
                - (config.max_sensitivity - config.min_sensitivity) * normalized;
            let noise = 0.7 + 0.6 * dg_cloudsim::hash_unit(dg_cloudsim::mix(seed, 0x5e75), id);
            let mut sensitivity = base * noise;
            let robust_draw = dg_cloudsim::hash_unit(dg_cloudsim::mix(seed, 0x40b5), id);
            let robust_probability = if normalized < 0.035 {
                0.0
            } else if normalized < 0.3 {
                config.robust_fraction * 5.0
            } else {
                config.robust_fraction
            };
            if robust_draw < robust_probability {
                sensitivity *= 0.03;
            }
            [normalized, base_time, sensitivity.clamp(0.015, 1.4)]
        }

        /// Asserts the surface's normalised time, base time, sensitivity and spec of
        /// `id` equal the reference's, bit for bit.
        fn assert_matches(&self, id: ConfigId, label: &str) {
            let [normalized, base_time, sensitivity] = self.evaluate(id);
            let surface = self.surface;
            let spec = surface.spec(id);
            let pairs = [
                ("normalized time", surface.normalized_time(id), normalized),
                ("base time", surface.base_time(id), base_time),
                ("sensitivity", surface.sensitivity(id), sensitivity),
                ("spec base time", spec.base_time(), base_time),
                ("spec sensitivity", spec.sensitivity(), sensitivity),
            ];
            for (what, got, want) in pairs {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: {what} of {id}");
            }
        }
    }

    /// Asserts the decode equals the reference, bit for bit, on every id of small
    /// spaces and on an even sample plus both ends of large ones.
    fn assert_decode_matches_reference(surface: &SyntheticSurface, label: &str) {
        let reference = ReferencePenalty::new(surface);
        let size = surface.space().size();
        let n = size.min(8192);
        for id in (0..n).map(|i| i * size / n).chain([size - 1]) {
            assert_eq!(
                surface.tables.raw_penalty(id).to_bits(),
                reference.raw_penalty(id).to_bits(),
                "{label}: raw penalty of {id}"
            );
        }
        let quantiles = &reference.quantiles;
        assert_eq!(quantiles.len(), surface.tables.quantiles.len(), "{label}");
        for (q, r) in surface.tables.quantiles.iter().zip(quantiles) {
            assert_eq!(q.to_bits(), r.to_bits(), "{label}: CDF quantile");
        }
        let optimum = surface.planted_optimum();
        assert_eq!(optimum, surface.space().index_of(&surface.optimal_levels));
        assert_eq!(
            surface.tables.raw_penalty(optimum),
            0.0,
            "{label}: planted optimum"
        );
    }

    fn digest(values: impl Iterator<Item = u64>) -> u64 {
        values.fold(0, dg_cloudsim::mix)
    }

    #[test]
    fn decode_is_bit_identical_to_point_of_reference() {
        // (application, size cap, planted optimum, digest of the CDF quantiles, digest
        // of the specs of 4,096 evenly spaced ids), as generated before the decode
        // skipped pinned dimensions. `u64::MAX` is the full Table 1 space.
        let pinned: [(Application, u64, ConfigId, u64, u64); 12] = [
            (
                Application::Redis,
                5_000,
                3470,
                0xd99772ea889ac4d5,
                0x8fe7af081852d2e0,
            ),
            (
                Application::Redis,
                55_296,
                24206,
                0xe89b3a236586d33c,
                0xc691966b42eff37d,
            ),
            (
                Application::Redis,
                u64::MAX,
                1517198,
                0x8de5995e0d2c1cc8,
                0xdf5148c68b0312a8,
            ),
            (
                Application::Gromacs,
                5_000,
                2961,
                0x5d127da645a3625e,
                0x127d47c762c2b1c6,
            ),
            (
                Application::Gromacs,
                55_296,
                32913,
                0xe47b46bde2a8f410,
                0xa63d745e168c8770,
            ),
            (
                Application::Gromacs,
                u64::MAX,
                2521233,
                0x8b2957b79a7f727d,
                0xe426c3bc86916045,
            ),
            (
                Application::Ffmpeg,
                5_000,
                848,
                0x2de9ca516a82433e,
                0x88a9a64abe0c8609,
            ),
            (
                Application::Ffmpeg,
                55_296,
                12368,
                0x9341cd150e5d0d21,
                0xf4c4470a89a20a9c,
            ),
            (
                Application::Ffmpeg,
                u64::MAX,
                1339472,
                0x365364222af55015,
                0x0c4a31955c8f9d3e,
            ),
            (
                Application::Lammps,
                5_000,
                837,
                0xf8c1262a08738d9a,
                0x7f633681b0e5e6b7,
            ),
            (
                Application::Lammps,
                55_296,
                10053,
                0x6d487f0b505413f5,
                0x16353313a3bf8124,
            ),
            (
                Application::Lammps,
                u64::MAX,
                2498373,
                0x3fe235031faec7b0,
                0x1ec1524e573c7503,
            ),
        ];
        for (app, cap, optimum, quantiles, specs) in pinned {
            let space = if cap == u64::MAX {
                app.parameter_space()
            } else {
                app.scaled_parameter_space(cap)
            };
            let surface =
                SyntheticSurface::generate(space, app.surface_config(), app.surface_seed());
            let label = format!("{app}/{cap}");
            assert_decode_matches_reference(&surface, &label);
            assert_eq!(
                surface.planted_optimum(),
                optimum,
                "{label}: planted optimum"
            );
            let quantile_digest = digest(surface.tables.quantiles.iter().map(|q| q.to_bits()));
            assert_eq!(quantile_digest, quantiles, "{label}: CDF quantiles");
            let size = surface.space().size();
            let spec_digest = digest((0..4096).map(|i| i * size / 4096).flat_map(|id| {
                let spec = surface.spec(id);
                [spec.base_time().to_bits(), spec.sensitivity().to_bits()]
            }));
            assert_eq!(spec_digest, specs, "{label}: specs");
        }
    }

    #[test]
    fn decode_handles_pinned_dimensions_between_free_ones() {
        // Table 1 spaces only pin trailing dimensions; here pinned ones sit between
        // free ones, at both ends, and in a run. The smaller spaces have no, one, two and
        // three free dimensions, so the low and high decode chains are empty, single or
        // of unequal length.
        let spaces: [(&[usize], usize); 5] = [
            (&[1, 3, 1, 4, 1, 1, 2, 5, 1, 3, 1], 5),
            (&[1, 1], 0),
            (&[1, 7, 1], 1),
            (&[2, 1, 5], 2),
            (&[3, 2, 1, 4], 3),
        ];
        for (levels, free) in spaces {
            let space = ParameterSpace::new(
                levels
                    .iter()
                    .enumerate()
                    .map(|(i, n)| Parameter::with_level_count(format!("p{i}"), *n))
                    .collect(),
            );
            let size = space.size();
            for seed in [1, 2, 3, 0x4ed1] {
                let surface =
                    SyntheticSurface::generate(space.clone(), SurfaceConfig::default(), seed);
                assert_eq!(surface.tables.free.len(), free);
                let label = format!("{levels:?}/{seed}");
                assert_decode_matches_reference(&surface, &label);
                let reference = ReferencePenalty::new(&surface);
                for id in 0..size {
                    reference.assert_matches(id, &label);
                }
            }
        }
    }

    #[test]
    fn divisor_matches_division_and_remainder() {
        let mut rng = SimRng::new(0xd1f);
        for radix in 2..=64u64 {
            let divisor = Divisor::new(radix);
            let edges = [
                0,
                radix - 1,
                radix,
                (1 << 32) - 1,
                1 << 32,
                (1 << 32) + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            // Random numerators of every magnitude.
            let random: Vec<u64> = (0..2_000).map(|i| rng.next_u64() >> (i % 64)).collect();
            for n in edges.into_iter().chain(random) {
                assert_eq!(divisor.div_rem(n), (n / radix, n % radix), "{n} / {radix}");
            }
        }
    }

    /// The four applications' surfaces over a space capped at `cap` (`u64::MAX` is the
    /// full Table 1 space).
    fn application_surfaces(cap: u64) -> impl Iterator<Item = (String, SyntheticSurface)> {
        Application::ALL.into_iter().map(move |app| {
            let space = if cap == u64::MAX {
                app.parameter_space()
            } else {
                app.scaled_parameter_space(cap)
            };
            let surface =
                SyntheticSurface::generate(space, app.surface_config(), app.surface_seed());
            (format!("{app}/{cap}"), surface)
        })
    }

    #[test]
    fn compiled_surface_is_bit_identical_to_the_textbook_spec() {
        // Every id of the two scaled spaces campaigns use, then 2^16 evenly spaced ids
        // plus both ends of each full space.
        for cap in [5_000, 55_296] {
            for (label, surface) in application_surfaces(cap) {
                let reference = ReferencePenalty::new(&surface);
                for id in 0..surface.space().size() {
                    reference.assert_matches(id, &label);
                }
            }
        }
        for (label, surface) in application_surfaces(u64::MAX) {
            let reference = ReferencePenalty::new(&surface);
            let size = surface.space().size();
            let stride = (0..1 << 16).map(|i| (i * size) >> 16);
            for id in stride.chain([1, size - 2, size - 1]) {
                reference.assert_matches(id, &label);
            }
        }
    }

    #[test]
    #[ignore = "evaluates all 15.9M full-space ids twice; about 10 s in release"]
    fn compiled_surface_matches_the_textbook_spec_on_every_full_space_id() {
        for (label, surface) in application_surfaces(u64::MAX) {
            let reference = ReferencePenalty::new(&surface);
            for id in 0..surface.space().size() {
                let [normalized, base_time, sensitivity] = reference.evaluate(id);
                let spec = surface.spec(id);
                assert_eq!(
                    surface.normalized_time(id).to_bits(),
                    normalized.to_bits(),
                    "{label}: normalized time of {id}"
                );
                assert_eq!(
                    spec.base_time().to_bits(),
                    base_time.to_bits(),
                    "{label}: base time of {id}"
                );
                assert_eq!(
                    spec.sensitivity().to_bits(),
                    sensitivity.to_bits(),
                    "{label}: sensitivity of {id}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "worst_time must exceed best_time")]
    fn invalid_config_rejected() {
        let config = SurfaceConfig {
            best_time: 100.0,
            worst_time: 100.0,
            ..SurfaceConfig::default()
        };
        SyntheticSurface::generate(test_space(), config, 1);
    }
}
