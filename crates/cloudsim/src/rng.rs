//! Deterministic, splittable random number generation.
//!
//! Every stochastic component of the simulator and the tuners derives its randomness from
//! a [`SimRng`] created from an explicit seed. Sub-streams are derived by hashing the
//! parent seed with a label, so independent components (interference process, per-player
//! jitter, tuner exploration) never consume from the same stream and experiments remain
//! reproducible regardless of evaluation order.

/// The core generator behind [`SimRng`]: xoshiro256++, seeded through SplitMix64.
///
/// Implemented locally (rather than via the `rand` crate) so the simulator has zero
/// external dependencies and the exact value streams are pinned by this repository —
/// a `rand` version bump can never silently change every experiment.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the full 256-bit state with SplitMix64, the
    /// seeding procedure recommended by the xoshiro authors.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic random source with cheap sub-stream derivation.
///
/// ```
/// use dg_cloudsim::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.uniform(), b.uniform());
///
/// // Sub-streams with different labels are decorrelated but reproducible.
/// let x = SimRng::new(7).derive("interference").uniform();
/// let y = SimRng::new(7).derive("interference").uniform();
/// assert_eq!(x, y);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator identified by a string label.
    pub fn derive(&self, label: &str) -> SimRng {
        SimRng::new(mix(self.seed, hash_label(label)))
    }

    /// Derives an independent generator identified by an integer index.
    pub fn derive_index(&self, index: u64) -> SimRng {
        SimRng::new(mix(self.seed, index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // Top 53 bits form the mantissa of a double in [0, 1).
        (self.inner.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 per draw.
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        // Box–Muller transform; uniform() never returns exactly 0 is not guaranteed, so
        // clamp away from zero to keep ln() finite.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        if values.len() < 2 {
            return;
        }
        for i in (1..values.len()).rev() {
            let j = self.index(i + 1);
            values.swap(i, j);
        }
    }

    /// Samples an index in `[0, weights.len())` with probability proportional to the
    /// weights. Non-positive weights are treated as zero; if all weights are zero the
    /// index is chosen uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index requires weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Deterministic stateless hash of `(seed, position)` to a uniform `[0, 1)` value.
///
/// Used by the interference processes (and by the synthetic performance surfaces in the
/// `dg-workloads` crate) for cheap random access to noise values at arbitrary positions
/// without stepping an RNG: a single call is a handful of integer multiplications,
/// orders of magnitude cheaper than seeding a full generator.
pub fn hash_unit(seed: u64, position: u64) -> f64 {
    let h = mix(seed, position);
    // Use the top 53 bits to form a double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic 64-bit mixing function (SplitMix64 finalizer) used to derive
/// independent hash streams from a seed and a label/position.
pub fn mix(a: u64, b: u64) -> u64 {
    // SplitMix64-style finalizer over the combined value.
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_label(label: &str) -> u64 {
    // FNV-1a over the label bytes.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let x = SimRng::new(1).derive("a").next_u64();
        let y = SimRng::new(1).derive("b").next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn derive_index_is_stable() {
        let x = SimRng::new(9).derive_index(4).next_u64();
        let y = SimRng::new(9).derive_index(4).next_u64();
        assert_eq!(x, y);
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SimRng::new(11);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = dg_stats::mean(&samples);
        let sd = dg_stats::std_dev(&samples);
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((sd - 1.0).abs() < 0.05, "std dev {sd} too far from 1");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SimRng::new(3);
        let weights = [0.0, 0.0, 10.0, 0.1];
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[3] * 10);
    }

    #[test]
    fn weighted_index_all_zero_falls_back_to_uniform() {
        let mut rng = SimRng::new(8);
        let weights = [0.0, 0.0, 0.0];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.weighted_index(&weights)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::new(2);
        let mut values: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn hash_unit_deterministic_and_bounded() {
        for pos in 0..100 {
            let v = hash_unit(42, pos);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, hash_unit(42, pos));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
