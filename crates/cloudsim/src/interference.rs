//! Background interference (noisy-neighbour) signal.
//!
//! The level of interference in a production cloud cannot be controlled by the tenant; it
//! fluctuates on several time scales. We model it as a non-negative, time-correlated
//! signal `I(t)` that multiplies a configuration's sensitivity to produce its slowdown
//! (see [`crate::ExecutionSpec`]). The signal allows *random access* in time — `level(t)`
//! is a pure function of `(seed, t)` — so repeated evaluation, parallel games, and
//! re-running experiments at a chosen start time are all deterministic.
//!
//! An [`InterferenceProfile`] names a signal and lists its components, and
//! [`InterferenceProfile::sampler`] instantiates it for one node as an
//! [`InterferenceSampler`], the signal's one implementation.

use crate::rng::{hash_unit, mix};
use crate::time::SimTime;
use std::cell::Cell;

/// A named, seedable recipe for the interference signal of a node.
///
/// Profiles are the value the rest of the system passes around (they are `Copy`-free but
/// cheap to clone); the [`sampler`](Self::sampler) is instantiated per node so that two
/// different VMs observe different — but individually reproducible — noise.
///
/// The composite profiles (`Typical`, `Heavy` and `Custom`) sum four components:
///
/// * a constant base load;
/// * smooth value noise: anchors every 480 s with cosine interpolation, in
///   `[0, value_amplitude]` — short-term fluctuation (minutes);
/// * regime noise: every 900 s a level drawn from `[0, 0.12, 0.3, 0.55] × regime_scale`
///   with weights `[0.35, 0.35, 0.2, 0.1]`, imitating tenants arriving and departing;
/// * bursts: each 600 s window holds, with probability 0.25, a burst of
///   `burst_magnitude` over 15% of the window, imitating bursty co-tenants.
#[derive(Debug, Clone, PartialEq)]
pub enum InterferenceProfile {
    /// No interference at all (a dedicated node).
    Dedicated,
    /// A constant interference level.
    Constant(f64),
    /// The default shared-cloud profile used in the paper-shaped experiments: base 0.05,
    /// value amplitude 0.25, regime scale 1 and burst magnitude 0.9.
    Typical,
    /// A heavier profile for small VM sizes / stress tests: base 0.15, value amplitude
    /// 0.45, regime scale 2 and burst magnitude 1.4.
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
    /// The default shared-cloud profile (mean level ≈ 0.37, bursts to ≈ 1.2).
    pub fn typical() -> Self {
        InterferenceProfile::Typical
    }

    /// A heavier profile: roughly twice the mean interference of [`typical`](Self::typical).
    pub fn heavy() -> Self {
        InterferenceProfile::Heavy
    }
}

/// A node's interference signal: the one implementation of the profiles' physics.
///
/// Component parameters are flattened into one struct, pure derived values (mixed seeds,
/// the regime weight total) are precomputed once, and the per-epoch hashes are memoized
/// in [`Cell`]s keyed by the epoch index, because the regime and burst epochs change only
/// every few hundred simulated seconds. Memoization caches only values that are pure
/// functions of `(seed, epoch)`, so a level never depends on which times were sampled
/// before it. The crate's tests check every level bit for bit against a textbook
/// evaluation of the four components [`InterferenceProfile`] lists.
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
    regime_levels: [f64; 4],
    regime_weights: [f64; 4],
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
    /// The composite signal of the node identified by `seed`, with the components
    /// [`InterferenceProfile`] lists.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or not finite.
    fn new(
        seed: u64,
        base: f64,
        value_amplitude: f64,
        regime_scale: f64,
        burst_magnitude: f64,
    ) -> Self {
        for (name, value) in [
            ("base", base),
            ("value_amplitude", value_amplitude),
            ("regime_scale", regime_scale),
            ("burst_magnitude", burst_magnitude),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "interference {name} must be finite and non-negative, got {value}"
            );
        }
        let regime_weights = [0.35, 0.35, 0.2, 0.1];
        let (regime_seed, burst_seed) = (mix(seed, 2), mix(seed, 3));
        Self {
            base,
            value_seed: mix(seed, 1),
            value_period: 480.0,
            value_amplitude,
            value_cache: Cell::new(None),
            regime_seed: mix(regime_seed, 0x5eed),
            regime_period: 900.0,
            regime_levels: [
                0.0,
                0.12 * regime_scale,
                0.3 * regime_scale,
                0.55 * regime_scale,
            ],
            regime_weights,
            regime_total: regime_weights.iter().sum(),
            regime_cache: Cell::new(None),
            burst_occupancy_seed: mix(burst_seed, 0xb00f),
            burst_start_seed: mix(burst_seed, 0xcafe),
            burst_period: 600.0,
            burst_probability: 0.25,
            burst_magnitude,
            burst_duty: 0.15,
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
    /// noise and the bursts, the regime level, and the burst epoch's placement: base,
    /// value noise, regime and burst, summed in that order.
    #[inline]
    fn level_in(
        &self,
        seconds: f64,
        value_floor: f64,
        regime: f64,
        burst_floor: f64,
        (has_burst, start): (bool, f64),
    ) -> f64 {
        // Value noise: cosine interpolation between the anchors of the cell's two ends,
        // whose hashes (pure functions of the cell index) are memoized per cell.
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

        // Bursts: only the window membership test runs per sample.
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
    /// over the regime catalogue is memoized per epoch.
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
    /// Interference level at simulated time `t`; always `>= 0`.
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
    /// Instantiates the signal of the node identified by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a `Constant` level or a `Custom` parameter is negative or not finite,
    /// the rule `parse_profile` in `dg-obs` applies to profiles read from JSON.
    pub fn sampler(&self, seed: u64) -> InterferenceSampler {
        let composite = |base, value_amplitude, regime_scale, burst_magnitude| {
            SamplerKind::Composite(Box::new(CompositeSampler::new(
                seed,
                base,
                value_amplitude,
                regime_scale,
                burst_magnitude,
            )))
        };
        let kind = match *self {
            InterferenceProfile::Dedicated => SamplerKind::Constant(0.0),
            InterferenceProfile::Constant(level) => {
                assert!(
                    level.is_finite() && level >= 0.0,
                    "interference level must be finite and non-negative, got {level}"
                );
                SamplerKind::Constant(level)
            }
            InterferenceProfile::Typical => composite(0.05, 0.25, 1.0, 0.9),
            InterferenceProfile::Heavy => composite(0.15, 0.45, 2.0, 1.4),
            InterferenceProfile::Custom {
                base,
                value_amplitude,
                regime_scale,
                burst_magnitude,
            } => composite(base, value_amplitude, regime_scale, burst_magnitude),
        };
        InterferenceSampler { kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn times(n: usize, step: f64) -> impl Iterator<Item = SimTime> {
        (0..n).map(move |i| SimTime::from_seconds(i as f64 * step))
    }

    /// A composite signal with only the components whose parameter is non-zero.
    fn custom(
        base: f64,
        value_amplitude: f64,
        regime_scale: f64,
        burst_magnitude: f64,
    ) -> InterferenceSampler {
        InterferenceProfile::Custom {
            base,
            value_amplitude,
            regime_scale,
            burst_magnitude,
        }
        .sampler(7)
    }

    #[test]
    fn constant_is_constant() {
        let constant = InterferenceProfile::Constant(0.4).sampler(1);
        let base_only = custom(0.4, 0.0, 0.0, 0.0);
        for t in times(100, 97.0) {
            assert_eq!(constant.level(t), 0.4);
            assert_eq!(base_only.level(t), 0.4);
        }
    }

    #[test]
    fn value_noise_bounded_and_deterministic() {
        let m = custom(0.0, 0.5, 0.0, 0.0);
        for t in times(500, 13.0) {
            let v = m.level(t);
            assert!((0.0..=0.5).contains(&v), "value noise out of range: {v}");
            assert_eq!(v.to_bits(), custom(0.0, 0.5, 0.0, 0.0).level(t).to_bits());
        }
    }

    #[test]
    fn value_noise_is_time_correlated() {
        let m = custom(0.0, 1.0, 0.0, 0.0);
        // Adjacent samples (1s apart) should be much closer than samples far apart.
        let a = m.level(SimTime::from_seconds(100.0));
        let b = m.level(SimTime::from_seconds(101.0));
        assert!((a - b).abs() < 0.05);
    }

    #[test]
    fn regime_noise_levels_come_from_catalog() {
        let catalog = [0.0, 0.12, 0.3, 0.55];
        let m = custom(0.0, 0.0, 1.0, 0.0);
        let mut seen = [false; 4];
        for t in times(2000, 137.0) {
            let v = m.level(t);
            let i = catalog.iter().position(|l| *l == v);
            let i = i.unwrap_or_else(|| panic!("unexpected regime level {v}"));
            seen[i] = true;
        }
        assert_eq!(
            seen, [true; 4],
            "every regime level occurs over a long horizon"
        );
    }

    #[test]
    fn burst_noise_is_zero_or_magnitude() {
        let m = custom(0.0, 0.0, 0.0, 1.5);
        let mut saw_burst = false;
        for t in times(5000, 37.0) {
            let v = m.level(t);
            assert!(v == 0.0 || v == 1.5, "burst level {v}");
            saw_burst |= v > 0.0;
        }
        assert!(saw_burst, "expected at least one burst over a long horizon");
    }

    #[test]
    fn typical_profile_statistics() {
        let sampler = InterferenceProfile::typical().sampler(99);
        let levels: Vec<f64> = times(20_000, 7.0).map(|t| sampler.level(t)).collect();
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
        let mean = |profile: InterferenceProfile| {
            let sampler = profile.sampler(5);
            dg_stats::mean(
                &times(5000, 11.0)
                    .map(|t| sampler.level(t))
                    .collect::<Vec<_>>(),
            )
        };
        let t_mean = mean(InterferenceProfile::typical());
        let h_mean = mean(InterferenceProfile::heavy());
        assert!(h_mean > t_mean * 1.3, "heavy={h_mean} typical={t_mean}");
    }

    #[test]
    fn dedicated_profile_is_quiet() {
        let m = InterferenceProfile::Dedicated.sampler(1);
        for t in times(100, 123.0) {
            assert_eq!(m.level(t), 0.0);
        }
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = InterferenceProfile::typical().sampler(1);
        let b = InterferenceProfile::typical().sampler(2);
        // Not a strict requirement at any single instant, but across a window the two
        // seeds must diverge somewhere.
        let differs = (0..200).any(|i| {
            let t = SimTime::from_seconds(1234.0 + i as f64 * 31.0);
            (a.level(t) - b.level(t)).abs() > 1e-9
        });
        assert!(differs);
    }

    #[test]
    fn negative_or_non_finite_parameters_panic() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut profiles = vec![InterferenceProfile::Constant(bad)];
            for i in 0..4 {
                let mut parameters = [0.05, 0.25, 1.0, 0.9];
                parameters[i] = bad;
                let [base, value_amplitude, regime_scale, burst_magnitude] = parameters;
                profiles.push(InterferenceProfile::Custom {
                    base,
                    value_amplitude,
                    regime_scale,
                    burst_magnitude,
                });
            }
            for profile in profiles {
                let built = std::panic::catch_unwind(|| profile.sampler(7));
                assert!(built.is_err(), "{profile:?} must be rejected");
            }
        }
    }

    #[test]
    fn sampler_is_bit_identical_to_reference() {
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
                let sampler = profile.sampler(seed);
                // Dense sweep (sequential, cache-friendly) plus scattered jumps
                // (cache-hostile) must both match the reference bit for bit.
                let dense = (0..4000).map(|i| i as f64 * 1.7);
                let scattered = (0..500).map(|i| ((i * 7919) % 100_000) as f64 * 3.1);
                for seconds in dense.chain(scattered) {
                    let t = SimTime::from_seconds(seconds);
                    assert_eq!(
                        sampler.level(t).to_bits(),
                        reference::level(profile, seed, t).to_bits(),
                        "{profile:?} seed={seed} t={t:?}"
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
}
