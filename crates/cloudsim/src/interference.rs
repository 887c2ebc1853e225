//! Background interference (noisy-neighbour) models.
//!
//! The level of interference in a production cloud cannot be controlled by the tenant; it
//! fluctuates on several time scales. We model it as a non-negative, time-correlated
//! signal `I(t)` that multiplies a configuration's sensitivity to produce its slowdown
//! (see [`crate::ExecutionSpec`]). All models allow *random access* in time — `level(t)`
//! is a pure function of `(seed, t)` — so repeated evaluation, parallel games, and
//! re-running experiments at a chosen start time are all deterministic.
//!
//! The composite profile used by most experiments ([`InterferenceProfile::typical`])
//! combines:
//!
//! * [`ValueNoise`] — smooth short-term fluctuation (minutes),
//! * [`RegimeNoise`] — piecewise-constant regime shifts (tens of minutes) imitating
//!   tenants arriving and departing,
//! * [`BurstNoise`] — rare, high spikes imitating bursty co-tenants.

use crate::rng::{hash_unit, mix};
use crate::time::SimTime;
use std::cell::Cell;

/// A time-varying, non-negative interference level.
///
/// Implementations must be deterministic functions of their seed and the queried time.
pub trait InterferenceModel: Send + Sync {
    /// Interference level at simulated time `t`; always `>= 0`.
    fn level(&self, t: SimTime) -> f64;

    /// Long-run mean level, used for calibration and reporting.
    fn mean_level(&self) -> f64;
}

/// A constant interference level, mostly useful in tests and as a "dedicated node" stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantInterference {
    level: f64,
}

impl ConstantInterference {
    /// Creates a constant-level model.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or not finite.
    pub fn new(level: f64) -> Self {
        assert!(
            level.is_finite() && level >= 0.0,
            "interference level must be finite and non-negative"
        );
        Self { level }
    }

    /// A completely quiet environment.
    pub fn quiet() -> Self {
        Self::new(0.0)
    }
}

impl InterferenceModel for ConstantInterference {
    fn level(&self, _t: SimTime) -> f64 {
        self.level
    }

    fn mean_level(&self) -> f64 {
        self.level
    }
}

/// Smooth value noise: anchor points every `period` seconds with cosine interpolation.
///
/// Produces short-term correlated fluctuations in `[0, amplitude]` with mean
/// `amplitude / 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueNoise {
    seed: u64,
    period: f64,
    amplitude: f64,
}

impl ValueNoise {
    /// Creates a value-noise process.
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0` or `amplitude < 0`.
    pub fn new(seed: u64, period: f64, amplitude: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        Self {
            seed,
            period,
            amplitude,
        }
    }
}

impl InterferenceModel for ValueNoise {
    fn level(&self, t: SimTime) -> f64 {
        let x = t.as_seconds() / self.period;
        let i0 = x.floor() as u64;
        let i1 = i0 + 1;
        let frac = x - x.floor();
        let a = hash_unit(self.seed, i0);
        let b = hash_unit(self.seed, i1);
        // Cosine interpolation keeps the signal smooth without overshoot.
        let w = (1.0 - (std::f64::consts::PI * frac).cos()) / 2.0;
        self.amplitude * (a * (1.0 - w) + b * w)
    }

    fn mean_level(&self) -> f64 {
        self.amplitude / 2.0
    }
}

/// Piecewise-constant regime noise: every `period` seconds a new regime is drawn from
/// `levels` with the given `weights`, imitating co-tenant arrival/departure.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeNoise {
    seed: u64,
    period: f64,
    levels: Vec<f64>,
    weights: Vec<f64>,
}

impl RegimeNoise {
    /// Creates a regime-switching process.
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0`, the levels/weights are empty or of mismatched length, or
    /// any weight is negative.
    pub fn new(seed: u64, period: f64, levels: Vec<f64>, weights: Vec<f64>) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!(!levels.is_empty(), "at least one regime level required");
        assert_eq!(
            levels.len(),
            weights.len(),
            "levels/weights length mismatch"
        );
        assert!(
            weights.iter().all(|w| *w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
            "weights must be non-negative with a positive sum"
        );
        Self {
            seed,
            period,
            levels,
            weights,
        }
    }

    fn regime_at(&self, epoch: u64) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let mut target = hash_unit(mix(self.seed, 0x5eed), epoch) * total;
        for (level, weight) in self.levels.iter().zip(self.weights.iter()) {
            if target < *weight {
                return *level;
            }
            target -= *weight;
        }
        *self.levels.last().expect("levels is non-empty")
    }
}

impl InterferenceModel for RegimeNoise {
    fn level(&self, t: SimTime) -> f64 {
        let epoch = (t.as_seconds() / self.period).floor() as u64;
        self.regime_at(epoch)
    }

    fn mean_level(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.levels
            .iter()
            .zip(self.weights.iter())
            .map(|(l, w)| l * w / total)
            .sum()
    }
}

/// Rare bursts: within each `period`-second window, with probability `probability` the
/// window contains a burst of the given `magnitude` covering a fraction `duty` of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstNoise {
    seed: u64,
    period: f64,
    probability: f64,
    magnitude: f64,
    duty: f64,
}

impl BurstNoise {
    /// Creates a burst process.
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0`, `probability`/`duty` are outside `[0, 1]`, or
    /// `magnitude < 0`.
    pub fn new(seed: u64, period: f64, probability: f64, magnitude: f64, duty: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!((0.0..=1.0).contains(&probability), "probability in [0,1]");
        assert!((0.0..=1.0).contains(&duty), "duty cycle in [0,1]");
        assert!(magnitude >= 0.0, "magnitude must be non-negative");
        Self {
            seed,
            period,
            probability,
            magnitude,
            duty,
        }
    }
}

impl InterferenceModel for BurstNoise {
    fn level(&self, t: SimTime) -> f64 {
        let x = t.as_seconds() / self.period;
        let epoch = x.floor() as u64;
        let frac = x - x.floor();
        let has_burst = hash_unit(mix(self.seed, 0xb00f), epoch) < self.probability;
        if !has_burst {
            return 0.0;
        }
        // The burst occupies a contiguous window starting at a pseudo-random offset.
        let start = hash_unit(mix(self.seed, 0xcafe), epoch) * (1.0 - self.duty);
        if frac >= start && frac < start + self.duty {
            self.magnitude
        } else {
            0.0
        }
    }

    fn mean_level(&self) -> f64 {
        self.probability * self.duty * self.magnitude
    }
}

/// Sum of component interference models.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeInterference {
    base: f64,
    value: ValueNoise,
    regime: RegimeNoise,
    burst: BurstNoise,
}

impl CompositeInterference {
    /// Creates a composite of base level + value noise + regime noise + bursts.
    pub fn new(base: f64, value: ValueNoise, regime: RegimeNoise, burst: BurstNoise) -> Self {
        assert!(base >= 0.0, "base level must be non-negative");
        Self {
            base,
            value,
            regime,
            burst,
        }
    }
}

impl InterferenceModel for CompositeInterference {
    fn level(&self, t: SimTime) -> f64 {
        self.base + self.value.level(t) + self.regime.level(t) + self.burst.level(t)
    }

    fn mean_level(&self) -> f64 {
        self.base + self.value.mean_level() + self.regime.mean_level() + self.burst.mean_level()
    }
}

/// A named, seedable recipe for building the interference model of a node.
///
/// Profiles are the value the rest of the system passes around (they are `Copy`-free but
/// cheap to clone); the concrete model is instantiated per node so that two different VMs
/// observe different — but individually reproducible — noise.
#[derive(Debug, Clone, PartialEq)]
pub enum InterferenceProfile {
    /// No interference at all (a dedicated node).
    Dedicated,
    /// A constant interference level.
    Constant(f64),
    /// The default shared-cloud profile used in the paper-shaped experiments.
    Typical,
    /// A heavier profile for small VM sizes / stress tests.
    Heavy,
    /// Fully custom composite parameters: `(base, value_amplitude, regime_levels_scale, burst_magnitude)`.
    Custom {
        /// Constant base load.
        base: f64,
        /// Amplitude of the smooth value noise component.
        value_amplitude: f64,
        /// Scale multiplier applied to the regime levels.
        regime_scale: f64,
        /// Magnitude of burst spikes.
        burst_magnitude: f64,
    },
}

impl InterferenceProfile {
    /// The default shared-cloud profile (mean level ≈ 0.27, bursts to ≈ 1.2).
    pub fn typical() -> Self {
        InterferenceProfile::Typical
    }

    /// A heavier profile: roughly twice the mean interference of [`typical`](Self::typical).
    pub fn heavy() -> Self {
        InterferenceProfile::Heavy
    }

    /// Instantiates the concrete model for a node identified by `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn InterferenceModel> {
        match self {
            InterferenceProfile::Dedicated => Box::new(ConstantInterference::quiet()),
            InterferenceProfile::Constant(level) => Box::new(ConstantInterference::new(*level)),
            InterferenceProfile::Typical => Box::new(build_composite(seed, 0.05, 0.25, 1.0, 0.9)),
            InterferenceProfile::Heavy => Box::new(build_composite(seed, 0.15, 0.45, 2.0, 1.4)),
            InterferenceProfile::Custom {
                base,
                value_amplitude,
                regime_scale,
                burst_magnitude,
            } => Box::new(build_composite(
                seed,
                *base,
                *value_amplitude,
                *regime_scale,
                *burst_magnitude,
            )),
        }
    }

    /// Long-run mean level of the profile (for calibration and documentation).
    ///
    /// # Sampling contract
    ///
    /// The `seed` selects a concrete noise *realisation*, but every model's
    /// [`InterferenceModel::mean_level`] is an analytic expectation that is independent
    /// of the realisation — so this function returns the same value for every seed.
    /// The parameter exists because composite profiles are only instantiated per node
    /// (see [`build`](Self::build)); the seedless `Dedicated`/`Constant` cases answer
    /// directly without boxing a model at all.
    pub fn mean_level(&self, seed: u64) -> f64 {
        match self {
            InterferenceProfile::Dedicated => 0.0,
            InterferenceProfile::Constant(level) => *level,
            _ => self.build(seed).mean_level(),
        }
    }
}

/// A flattened, memoizing interference sampler for the simulator hot loop.
///
/// [`InterferenceProfile::build`] returns a boxed [`InterferenceModel`]; calling
/// `level(t)` on it pays dynamic dispatch and, for the composite profiles, recomputes
/// every component hash even though the regime/burst epochs only change every few
/// hundred simulated seconds. `InterferenceSampler` is the same signal evaluated
/// without the box: component parameters are flattened into one struct, pure
/// derived values (mixed seeds, the regime weight total) are precomputed once, and
/// the per-epoch hashes are memoized in [`Cell`]s keyed by the epoch index.
///
/// The sampler is **bit-identical** to the boxed model: for every profile, seed and
/// time, `sampler.level(t).to_bits() == profile.build(seed).level(t).to_bits()`.
/// Memoization only caches values that are pure functions of `(seed, epoch)` and the
/// arithmetic expressions mirror the component models exactly, so no floating-point
/// operation is reordered.
#[derive(Debug, Clone)]
pub struct InterferenceSampler {
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Constant(f64),
    Composite(Box<CompositeSampler>),
}

#[derive(Debug, Clone)]
struct CompositeSampler {
    base: f64,
    // Value-noise component (anchor hashes cached per cell index).
    value_seed: u64,
    value_period: f64,
    value_amplitude: f64,
    value_cache: Cell<Option<(u64, f64, f64)>>,
    // Regime component (level cached per epoch; weight total precomputed in the
    // exact summation order `weights.iter().sum()` uses).
    regime_seed: u64,
    regime_period: f64,
    regime_levels: Vec<f64>,
    regime_weights: Vec<f64>,
    regime_total: f64,
    regime_cache: Cell<Option<(u64, f64)>>,
    // Burst component (burst placement cached per epoch).
    burst_occupancy_seed: u64,
    burst_start_seed: u64,
    burst_period: f64,
    burst_probability: f64,
    burst_magnitude: f64,
    burst_duty: f64,
    burst_cache: Cell<Option<(u64, bool, f64)>>,
}

impl CompositeSampler {
    fn from_model(model: &CompositeInterference) -> Self {
        Self {
            base: model.base,
            value_seed: model.value.seed,
            value_period: model.value.period,
            value_amplitude: model.value.amplitude,
            value_cache: Cell::new(None),
            regime_seed: mix(model.regime.seed, 0x5eed),
            regime_period: model.regime.period,
            regime_levels: model.regime.levels.clone(),
            regime_weights: model.regime.weights.clone(),
            regime_total: model.regime.weights.iter().sum(),
            regime_cache: Cell::new(None),
            burst_occupancy_seed: mix(model.burst.seed, 0xb00f),
            burst_start_seed: mix(model.burst.seed, 0xcafe),
            burst_period: model.burst.period,
            burst_probability: model.burst.probability,
            burst_magnitude: model.burst.magnitude,
            burst_duty: model.burst.duty,
            burst_cache: Cell::new(None),
        }
    }

    fn level(&self, seconds: f64) -> f64 {
        let regime_floor = (seconds / self.regime_period).floor();
        let burst_floor = (seconds / self.burst_period).floor();
        self.level_in(
            seconds,
            (seconds / self.value_period).floor(),
            self.regime_in(regime_floor as u64),
            burst_floor,
            self.burst_in(burst_floor as u64),
        )
    }

    /// [`level`](Self::level) at each of `seconds`, which must not decrease.
    ///
    /// `floor(t / period)` never decreases as `t` grows (IEEE division by a positive
    /// constant and `floor` are both monotone), so when the first and the last time
    /// have the same floor, every time between them has it too. A batch within one
    /// regime epoch and one burst epoch therefore reads the regime level and the burst
    /// placement once, and a batch within one value-noise cell skips the per-sample
    /// `floor` of its cell. A batch that crosses a regime or burst epoch falls back to
    /// one `level` per time. The value noise's `cos`, the burst window test and the sum
    /// stay per sample, in [`level_in`](Self::level_in).
    fn levels<const N: usize>(&self, seconds: &[f64; N], levels: &mut [f64; N]) {
        let (first, last) = (seconds[0], seconds[N - 1]);
        let regime_floor = (first / self.regime_period).floor();
        let burst_floor = (first / self.burst_period).floor();
        if regime_floor != (last / self.regime_period).floor()
            || burst_floor != (last / self.burst_period).floor()
        {
            for (level, &t) in levels.iter_mut().zip(seconds) {
                *level = self.level(t);
            }
            return;
        }
        let regime = self.regime_in(regime_floor as u64);
        let burst = self.burst_in(burst_floor as u64);
        let value_floor = (first / self.value_period).floor();
        let one_cell = value_floor == (last / self.value_period).floor();
        for (level, &t) in levels.iter_mut().zip(seconds) {
            *level = if one_cell {
                self.level_in(t, value_floor, regime, burst_floor, burst)
            } else {
                self.level_in(
                    t,
                    (t / self.value_period).floor(),
                    regime,
                    burst_floor,
                    burst,
                )
            };
        }
    }

    /// The level at `seconds`, given the floors of `seconds / period` for the value
    /// noise and the bursts, the regime level, and the burst epoch's placement:
    /// identical expressions to the component models, summed in the order of
    /// `CompositeInterference::level`.
    #[inline]
    fn level_in(
        &self,
        seconds: f64,
        value_floor: f64,
        regime: f64,
        burst_floor: f64,
        (has_burst, start): (bool, f64),
    ) -> f64 {
        // Value noise: `ValueNoise::level`, with the two anchor hashes (pure functions
        // of the cell index) memoized per cell.
        let x = seconds / self.value_period;
        let i0 = value_floor as u64;
        let frac = x - value_floor;
        let (a, b) = match self.value_cache.get() {
            Some((cached, a, b)) if cached == i0 => (a, b),
            _ => {
                let a = hash_unit(self.value_seed, i0);
                let b = hash_unit(self.value_seed, i0 + 1);
                self.value_cache.set(Some((i0, a, b)));
                (a, b)
            }
        };
        let w = (1.0 - (std::f64::consts::PI * frac).cos()) / 2.0;
        let value = self.value_amplitude * (a * (1.0 - w) + b * w);

        // Bursts: only the window membership test runs per sample, exactly as in
        // `BurstNoise::level`.
        let burst = if has_burst
            && self.in_burst_window(start, seconds / self.burst_period - burst_floor)
        {
            self.burst_magnitude
        } else {
            0.0
        };

        self.base + value + regime + burst
    }

    /// Whether `frac` of a burst epoch lies in the burst window that starts at `start`.
    #[inline]
    fn in_burst_window(&self, start: f64, frac: f64) -> bool {
        frac >= start && frac < start + self.burst_duty
    }

    /// The regime level of `epoch`: constant within an epoch, so the whole weighted walk
    /// of `RegimeNoise::regime_at` is memoized per epoch.
    #[inline]
    fn regime_in(&self, epoch: u64) -> f64 {
        match self.regime_cache.get() {
            Some((cached, level)) if cached == epoch => level,
            _ => {
                let mut target = hash_unit(self.regime_seed, epoch) * self.regime_total;
                let mut chosen = *self
                    .regime_levels
                    .last()
                    .expect("regime levels are non-empty");
                for (level, weight) in self.regime_levels.iter().zip(self.regime_weights.iter()) {
                    if target < *weight {
                        chosen = *level;
                        break;
                    }
                    target -= *weight;
                }
                self.regime_cache.set(Some((epoch, chosen)));
                chosen
            }
        }
    }

    /// Whether burst `epoch` has a burst, and the start of its window as a fraction of
    /// the epoch: per-epoch draws, memoized.
    #[inline]
    fn burst_in(&self, epoch: u64) -> (bool, f64) {
        match self.burst_cache.get() {
            Some((cached, has, start)) if cached == epoch => (has, start),
            _ => {
                let has = hash_unit(self.burst_occupancy_seed, epoch) < self.burst_probability;
                let start = if has {
                    hash_unit(self.burst_start_seed, epoch) * (1.0 - self.burst_duty)
                } else {
                    0.0
                };
                self.burst_cache.set(Some((epoch, has, start)));
                (has, start)
            }
        }
    }
}

impl InterferenceSampler {
    /// Interference level at simulated time `t`; bit-identical to the boxed model.
    #[inline]
    pub fn level(&self, t: SimTime) -> f64 {
        self.level_at_seconds(t.as_seconds())
    }

    /// Interference level at `seconds` of simulated time (hot-loop entry point that
    /// skips the `SimTime` wrapper).
    #[inline]
    pub fn level_at_seconds(&self, seconds: f64) -> f64 {
        match &self.kind {
            SamplerKind::Constant(level) => *level,
            SamplerKind::Composite(composite) => composite.level(seconds),
        }
    }

    /// The level at each of `seconds`, which must not decrease: bit-identical to one
    /// [`level_at_seconds`](Self::level_at_seconds) call per time. For the composite
    /// profiles, a batch within one regime epoch and one burst epoch looks those
    /// components up once instead of once per time.
    #[inline]
    pub(crate) fn levels_at_seconds<const N: usize>(
        &self,
        seconds: &[f64; N],
        levels: &mut [f64; N],
    ) {
        match &self.kind {
            SamplerKind::Constant(level) => *levels = [*level; N],
            SamplerKind::Composite(composite) => composite.levels(seconds, levels),
        }
    }
}

impl InterferenceProfile {
    /// Instantiates the flattened, memoizing sampler for a node identified by `seed`.
    ///
    /// Bit-identical to `self.build(seed).level(t)` for every `t`; see
    /// [`InterferenceSampler`].
    pub fn sampler(&self, seed: u64) -> InterferenceSampler {
        let kind = match self {
            InterferenceProfile::Dedicated => SamplerKind::Constant(0.0),
            InterferenceProfile::Constant(level) => {
                SamplerKind::Constant(ConstantInterference::new(*level).level)
            }
            InterferenceProfile::Typical => SamplerKind::Composite(Box::new(
                CompositeSampler::from_model(&build_composite(seed, 0.05, 0.25, 1.0, 0.9)),
            )),
            InterferenceProfile::Heavy => SamplerKind::Composite(Box::new(
                CompositeSampler::from_model(&build_composite(seed, 0.15, 0.45, 2.0, 1.4)),
            )),
            InterferenceProfile::Custom {
                base,
                value_amplitude,
                regime_scale,
                burst_magnitude,
            } => SamplerKind::Composite(Box::new(CompositeSampler::from_model(&build_composite(
                seed,
                *base,
                *value_amplitude,
                *regime_scale,
                *burst_magnitude,
            )))),
        };
        InterferenceSampler { kind }
    }
}

fn build_composite(
    seed: u64,
    base: f64,
    value_amplitude: f64,
    regime_scale: f64,
    burst_magnitude: f64,
) -> CompositeInterference {
    let value = ValueNoise::new(mix(seed, 1), 480.0, value_amplitude);
    let regime = RegimeNoise::new(
        mix(seed, 2),
        900.0,
        vec![
            0.0,
            0.12 * regime_scale,
            0.3 * regime_scale,
            0.55 * regime_scale,
        ],
        vec![0.35, 0.35, 0.2, 0.1],
    );
    let burst = BurstNoise::new(mix(seed, 3), 600.0, 0.25, burst_magnitude, 0.15);
    CompositeInterference::new(base, value, regime, burst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize, step: f64) -> impl Iterator<Item = SimTime> {
        (0..n).map(move |i| SimTime::from_seconds(i as f64 * step))
    }

    #[test]
    fn constant_is_constant() {
        let m = ConstantInterference::new(0.4);
        for t in times(10, 100.0) {
            assert_eq!(m.level(t), 0.4);
        }
        assert_eq!(m.mean_level(), 0.4);
    }

    #[test]
    fn value_noise_bounded_and_deterministic() {
        let m = ValueNoise::new(7, 60.0, 0.5);
        for t in times(500, 13.0) {
            let v = m.level(t);
            assert!((0.0..=0.5).contains(&v), "value noise out of range: {v}");
            assert_eq!(v, m.level(t));
        }
    }

    #[test]
    fn value_noise_is_time_correlated() {
        let m = ValueNoise::new(7, 600.0, 1.0);
        // Adjacent samples (1s apart) should be much closer than samples far apart.
        let a = m.level(SimTime::from_seconds(100.0));
        let b = m.level(SimTime::from_seconds(101.0));
        assert!((a - b).abs() < 0.05);
    }

    #[test]
    fn regime_noise_levels_come_from_catalog() {
        let m = RegimeNoise::new(3, 300.0, vec![0.0, 0.2, 0.6], vec![1.0, 1.0, 1.0]);
        for t in times(100, 137.0) {
            let v = m.level(t);
            assert!(
                [0.0, 0.2, 0.6].iter().any(|l| (v - l).abs() < 1e-12),
                "unexpected regime level {v}"
            );
        }
    }

    #[test]
    fn regime_noise_mean_is_weighted() {
        let m = RegimeNoise::new(3, 300.0, vec![0.0, 1.0], vec![3.0, 1.0]);
        assert!((m.mean_level() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn burst_noise_is_zero_or_magnitude() {
        let m = BurstNoise::new(11, 600.0, 0.5, 1.5, 0.2);
        let mut saw_burst = false;
        for t in times(5000, 37.0) {
            let v = m.level(t);
            assert!(v == 0.0 || (v - 1.5).abs() < 1e-12);
            if v > 0.0 {
                saw_burst = true;
            }
        }
        assert!(saw_burst, "expected at least one burst over a long horizon");
    }

    #[test]
    fn typical_profile_statistics() {
        let model = InterferenceProfile::typical().build(99);
        let levels: Vec<f64> = times(20_000, 7.0).map(|t| model.level(t)).collect();
        let mean = dg_stats::mean(&levels);
        let max = levels.iter().copied().fold(0.0_f64, f64::max);
        assert!(levels.iter().all(|l| *l >= 0.0));
        assert!(
            (0.1..0.6).contains(&mean),
            "typical mean interference out of expected band: {mean}"
        );
        assert!(max > 0.6, "typical profile should show bursts, max={max}");
    }

    #[test]
    fn heavy_profile_is_heavier_than_typical() {
        let typical = InterferenceProfile::typical().build(5);
        let heavy = InterferenceProfile::heavy().build(5);
        let t_mean: f64 = dg_stats::mean(
            &times(5000, 11.0)
                .map(|t| typical.level(t))
                .collect::<Vec<_>>(),
        );
        let h_mean: f64 = dg_stats::mean(
            &times(5000, 11.0)
                .map(|t| heavy.level(t))
                .collect::<Vec<_>>(),
        );
        assert!(h_mean > t_mean * 1.3, "heavy={h_mean} typical={t_mean}");
    }

    #[test]
    fn dedicated_profile_is_quiet() {
        let m = InterferenceProfile::Dedicated.build(1);
        assert_eq!(m.level(SimTime::from_seconds(123.0)), 0.0);
        assert_eq!(m.mean_level(), 0.0);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = InterferenceProfile::typical().build(1);
        let b = InterferenceProfile::typical().build(2);
        let t = SimTime::from_seconds(1234.0);
        // Not a strict requirement at any single instant, but across a window the two
        // seeds must diverge somewhere.
        let mut differs = false;
        for i in 0..200 {
            let ti = SimTime::from_seconds(t.as_seconds() + i as f64 * 31.0);
            if (a.level(ti) - b.level(ti)).abs() > 1e-9 {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn mean_level_is_seed_independent_and_cheap_for_seedless_profiles() {
        // Seedless cases answer without building a model; all cases are analytic
        // expectations, so the seed never changes the answer.
        assert_eq!(InterferenceProfile::Dedicated.mean_level(1), 0.0);
        assert_eq!(InterferenceProfile::Constant(0.4).mean_level(1), 0.4);
        for profile in [
            InterferenceProfile::Dedicated,
            InterferenceProfile::Constant(0.7),
            InterferenceProfile::Typical,
            InterferenceProfile::Heavy,
        ] {
            assert_eq!(
                profile.mean_level(1).to_bits(),
                profile.mean_level(999).to_bits(),
                "{profile:?}: mean_level must not depend on the seed"
            );
        }
    }

    #[test]
    fn sampler_is_bit_identical_to_boxed_model() {
        let profiles = [
            InterferenceProfile::Dedicated,
            InterferenceProfile::Constant(0.37),
            InterferenceProfile::Typical,
            InterferenceProfile::Heavy,
            InterferenceProfile::Custom {
                base: 0.08,
                value_amplitude: 0.3,
                regime_scale: 1.5,
                burst_magnitude: 1.1,
            },
        ];
        for profile in &profiles {
            for seed in [0, 1, 7, 99, u64::MAX / 3] {
                let model = profile.build(seed);
                let sampler = profile.sampler(seed);
                // Dense sweep (sequential, cache-friendly) plus scattered jumps
                // (cache-hostile) must both match the boxed model bit for bit.
                for i in 0..4000 {
                    let t = SimTime::from_seconds(i as f64 * 1.7);
                    assert_eq!(
                        sampler.level(t).to_bits(),
                        model.level(t).to_bits(),
                        "{profile:?} seed={seed} t={t:?}"
                    );
                }
                for i in 0..500 {
                    let t = SimTime::from_seconds(((i * 7919) % 100_000) as f64 * 3.1);
                    assert_eq!(
                        sampler.level(t).to_bits(),
                        model.level(t).to_bits(),
                        "{profile:?} seed={seed} scattered t={t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fill_is_bit_identical_to_scalar_levels() {
        let profiles = [
            InterferenceProfile::Dedicated,
            InterferenceProfile::Constant(0.37),
            InterferenceProfile::Typical,
            InterferenceProfile::Heavy,
            InterferenceProfile::Custom {
                base: 0.08,
                value_amplitude: 0.3,
                regime_scale: 1.5,
                burst_magnitude: 1.1,
            },
        ];
        // (value 480 s, burst 600 s, regime 900 s) straddles, and batches in a burst.
        let (mut value_edge, mut burst_edge, mut regime_edge, mut in_burst) = (0, 0, 0, 0);
        for profile in &profiles {
            for seed in [3, 41] {
                let sampler = profile.sampler(seed);
                let scalar = profile.sampler(seed);
                for dt in [0.25, 0.3, 0.75, 1.15, 2.5, 4.0, 6.3, 9.9] {
                    for i in 0..400 {
                        // Times built like the engine's: repeated additions of `dt`.
                        let start = (i * 7919 % 40_000) as f64 * 1.37;
                        let mut elapsed = (i % 5) as f64 * 8.0 * dt;
                        let mut seconds = [0.0; 8];
                        for t in &mut seconds {
                            *t = start + elapsed;
                            elapsed += dt;
                        }
                        let mut batch = [f64::NAN; 8];
                        sampler.levels_at_seconds(&seconds, &mut batch);
                        for (level, &t) in batch.iter().zip(&seconds) {
                            assert_eq!(
                                level.to_bits(),
                                scalar.level_at_seconds(t).to_bits(),
                                "{profile:?} seed={seed} dt={dt} t={t}"
                            );
                        }

                        let SamplerKind::Composite(c) = &sampler.kind else {
                            continue;
                        };
                        let crosses = |period: f64| {
                            (seconds[0] / period).floor() != (seconds[7] / period).floor()
                        };
                        value_edge += usize::from(crosses(c.value_period));
                        burst_edge += usize::from(crosses(c.burst_period));
                        regime_edge += usize::from(crosses(c.regime_period));
                        let bursting = seconds.iter().any(|&t| {
                            let xb = t / c.burst_period;
                            let (has, start) = c.burst_in(xb.floor() as u64);
                            has && c.in_burst_window(start, xb - xb.floor())
                        });
                        in_burst += usize::from(
                            bursting && !crosses(c.burst_period) && !crosses(c.regime_period),
                        );
                    }
                }
            }
        }
        for (covered, what) in [
            (value_edge, "a batch across a value-noise cell"),
            (burst_edge, "a batch across a burst epoch"),
            (regime_edge, "a batch across a regime epoch"),
            (in_burst, "a hoisted batch inside a burst window"),
        ] {
            assert!(covered > 0, "the batch battery never covers {what}");
        }
    }

    #[test]
    fn composite_mean_is_sum_of_parts() {
        let value = ValueNoise::new(1, 60.0, 0.2);
        let regime = RegimeNoise::new(2, 300.0, vec![0.0, 0.4], vec![1.0, 1.0]);
        let burst = BurstNoise::new(3, 600.0, 0.1, 1.0, 0.1);
        let composite = CompositeInterference::new(0.05, value, regime, burst);
        let expected = 0.05 + 0.1 + 0.2 + 0.01;
        assert!((composite.mean_level() - expected).abs() < 1e-12);
    }
}
