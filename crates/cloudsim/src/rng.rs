//! Deterministic, splittable random number generation.
//!
//! Every stochastic component of the simulator and the tuners derives its randomness from
//! a [`SimRng`] created from an explicit seed. Sub-streams are derived by hashing the
//! parent seed with a label, so independent components (interference process, per-player
//! jitter, tuner exploration) never consume from the same stream and experiments remain
//! reproducible regardless of evaluation order.

use std::sync::OnceLock;

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

    /// Standard normal sample, by Marsaglia and Tsang's ziggurat with 256 layers (the
    /// method `rand_distr` uses for its `StandardNormal`).
    ///
    /// The density `f(x) = exp(-x²/2)` is covered by 256 layers of equal area: 255
    /// horizontal strips and a base strip that holds the tail beyond
    /// `R ≈ 3.6542`. A draw takes one [`next_u64`](Self::next_u64): its low 8 bits
    /// pick a layer `i`, its top 53 bits a uniform `u` on `[-1, 1)`, and `x = u·x[i]`
    /// is a point of the layer's strip. Then one of three paths returns it:
    ///
    /// * **fast** (about 99% of draws): `|x|` is under the next layer's edge, so the
    ///   whole column lies below the density. One multiply and one compare.
    /// * **wedge**: `x` lies in the strip's sliver that pokes out past the density;
    ///   one more uniform draws a height in the strip, and `x` is kept if that height
    ///   is under `f(x)` (one `exp`). Otherwise the loop draws again.
    /// * **tail**: the base strip's point lies past `R`, so the value comes from the
    ///   exact tail beyond `R` by Marsaglia's method (two `ln` per attempt), with the
    ///   sign of `u`.
    ///
    /// The two 257-entry tables, the layer edges `x[i]` and their densities, are built
    /// once, on first use, from the closed-form recurrence.
    pub fn normal(&mut self) -> f64 {
        self.ziggurat().0
    }

    /// [`normal`](Self::normal)'s sample and the path that returned it.
    #[inline]
    fn ziggurat(&mut self) -> (f64, ZigguratPath) {
        let tables = ziggurat_tables();
        loop {
            let bits = self.inner.next_u64();
            let i = (bits & 0xff) as usize;
            // The top 53 bits, `k / 2^52 - 1`, exactly: a uniform on [-1, 1).
            let u = (bits >> 11) as f64 * f64::EPSILON - 1.0;
            let x = u * tables.x[i];
            if x.abs() < tables.x[i + 1] {
                return (x, ZigguratPath::Fast);
            }
            if i == 0 {
                return (self.normal_tail(u < 0.0), ZigguratPath::Tail);
            }
            let height = tables.f[i + 1] + (tables.f[i] - tables.f[i + 1]) * self.uniform();
            if height < (-0.5 * x * x).exp() {
                return (x, ZigguratPath::Wedge);
            }
        }
    }

    /// A draw from the standard normal's tail beyond [`ZIGGURAT_R`], negated when
    /// `negative` (Marsaglia, 1964). Uniforms are taken on `(0, 1]`, so `ln` stays
    /// finite.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = -(1.0 - self.uniform()).ln() / ZIGGURAT_R;
            let y = -(1.0 - self.uniform()).ln();
            if 2.0 * y >= x * x {
                return if negative {
                    -(ZIGGURAT_R + x)
                } else {
                    ZIGGURAT_R + x
                };
            }
        }
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

/// Where the ziggurat's base strip ends and its tail begins: the `R` of Marsaglia and
/// Tsang's 256-layer normal ziggurat.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// The area of every ziggurat layer under `f(x) = exp(-x²/2)`: `R f(R)` plus the
/// tail's area beyond `R`, `sqrt(π/2) erfc(R / sqrt(2))`.
const ZIGGURAT_V: f64 = 4.928_673_233_974_658e-3;

/// The path by which [`SimRng::normal`] returned a draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZigguratPath {
    Fast,
    Wedge,
    Tail,
}

/// The ziggurat's layer edges and the density at each: layer `i` spans `|x| < x[i]`
/// between the heights `f[i]` and `f[i + 1]`. `x` falls from `V / f(R)` through
/// `x[1] = R` to `x[256] = 0`, and `f[i] = exp(-x[i]²/2)`.
struct ZigguratTables {
    x: [f64; 257],
    f: [f64; 257],
}

/// The tables, built once from the recurrence `x[i + 1] = f⁻¹(f(x[i]) + V / x[i])`:
/// each strip's area `x[i] (f[i + 1] - f[i])` is `V`.
fn ziggurat_tables() -> &'static ZigguratTables {
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        ZigguratTables {
            x,
            f: x.map(density),
        }
    })
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

    /// The standard normal CDF Φ, by Abramowitz and Stegun 26.2.17 (absolute error
    /// under 7.5e-8, far inside the Kolmogorov–Smirnov bound below).
    fn phi(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.231_641_9 * x.abs());
        let poly = t
            * (0.319_381_530
                + t * (-0.356_563_782
                    + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
        let upper = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
        if x >= 0.0 {
            1.0 - upper
        } else {
            upper
        }
    }

    #[test]
    fn ziggurat_tables_close_at_the_top() {
        let tables = ziggurat_tables();
        assert_eq!(tables.x[1], ZIGGURAT_R);
        assert_eq!(tables.x[256], 0.0);
        assert_eq!(tables.f[256], 1.0);
        // The base strip holds R f(R) and the tail beyond R, integrated here by the
        // continued fraction of Mills' ratio: ∫_R^∞ f = f(R) / (R + 1/(R + 2/(R + ...))).
        let mut fraction = ZIGGURAT_R;
        for k in (1..200).rev() {
            fraction = ZIGGURAT_R + f64::from(k) / fraction;
        }
        let tail = tables.f[1] / fraction;
        assert!((ZIGGURAT_R * tables.f[1] + tail - ZIGGURAT_V).abs() < 1e-15);
        for i in 0..256 {
            assert!(tables.x[i] > tables.x[i + 1], "edges fall at layer {i}");
            if i > 0 {
                let area = tables.x[i] * (tables.f[i + 1] - tables.f[i]);
                assert!(
                    (area / ZIGGURAT_V - 1.0).abs() < 1e-9,
                    "layer {i} has area {area}, not V"
                );
            }
        }
    }

    /// A million draws at each of three seeds against the standard normal: the first
    /// four moments, the Kolmogorov–Smirnov distance to Φ, the mass beyond R and beyond
    /// the engine's jitter and noise clamps on each side, and the share of draws each
    /// path returns.
    #[test]
    fn ziggurat_draws_are_standard_normal() {
        const N: usize = 1_000_000;
        let n = N as f64;
        // Each path's share of the returned draws, from the tables: per attempt the
        // fast path accepts with probability mean(x[i + 1] / x[i]) and the tail runs with
        // (1 - R / x[0]) / 256, and an attempt returns a draw with probability
        // sqrt(π/2) / (256 V), the density's area over the ziggurat's.
        let tables = ziggurat_tables();
        let accepted = (std::f64::consts::PI / 2.0).sqrt() / (256.0 * ZIGGURAT_V);
        let fast_share =
            (0..256).map(|i| tables.x[i + 1] / tables.x[i]).sum::<f64>() / 256.0 / accepted;
        let tail_share = (1.0 - ZIGGURAT_R / tables.x[0]) / 256.0 / accepted;
        let shares = [fast_share, 1.0 - fast_share - tail_share, tail_share];
        for seed in [0x5eed, 7, 0xdead_beef] {
            let mut rng = SimRng::new(seed).derive("normal-battery");
            let mut draws = Vec::with_capacity(N);
            let mut paths = [0usize; 3];
            for _ in 0..N {
                let (z, path) = rng.ziggurat();
                paths[path as usize] += 1;
                draws.push(z);
            }
            // Binomial counts within 5σ of `n p`.
            let assert_count = |count: usize, p: f64, what: &str| {
                let bound = 5.0 * (n * p * (1.0 - p)).sqrt();
                assert!(
                    (count as f64 - n * p).abs() < bound,
                    "seed {seed}: {count} {what}, want {} ± {bound}",
                    n * p
                );
            };

            // Every path runs, each as often as the tables say: about 99.2% of draws
            // take the fast path, 0.8% the wedge and 0.026% the tail.
            for ((count, share), what) in
                paths
                    .into_iter()
                    .zip(shares)
                    .zip(["fast draws", "wedge draws", "tail draws"])
            {
                assert!(count > 0, "seed {seed}: no {what}");
                assert_count(count, share, what);
            }

            // Moments, each within 5 standard errors of the normal's.
            let mean = draws.iter().sum::<f64>() / n;
            let [mut m2, mut m3, mut m4] = [0.0; 3];
            for z in &draws {
                let d = z - mean;
                m2 += d * d;
                m3 += d * d * d;
                m4 += d * d * d * d;
            }
            let variance = m2 / n;
            let skewness = m3 / n / variance.powf(1.5);
            let kurtosis = m4 / n / (variance * variance);
            for (what, got, want, standard_error) in [
                ("mean", mean, 0.0, (1.0 / n).sqrt()),
                ("variance", variance, 1.0, (2.0 / n).sqrt()),
                ("skewness", skewness, 0.0, (6.0 / n).sqrt()),
                ("kurtosis", kurtosis, 3.0, (24.0 / n).sqrt()),
            ] {
                assert!(
                    (got - want).abs() < 5.0 * standard_error,
                    "seed {seed}: {what} {got}, want {want} ± {}",
                    5.0 * standard_error
                );
            }

            // Tail masses on each side: beyond R (the tail path's draws), beyond the
            // jitter clamp (|z| > 0.4 / 0.15) and beyond the noise clamp
            // (|z| > 0.01 / 0.003).
            let thresholds = [ZIGGURAT_R, 8.0 / 3.0, 10.0 / 3.0];
            let mut beyond = [[0usize; 2]; 3];
            for z in &draws {
                for (counts, threshold) in beyond.iter_mut().zip(thresholds) {
                    counts[0] += usize::from(*z > threshold);
                    counts[1] += usize::from(*z < -threshold);
                }
            }
            for ((counts, threshold), what) in
                beyond
                    .into_iter()
                    .zip(thresholds)
                    .zip(["R", "the jitter clamp", "the noise clamp"])
            {
                let p = 1.0 - phi(threshold);
                assert_count(counts[0], p, &format!("draws above +{what}"));
                assert_count(counts[1], p, &format!("draws below -{what}"));
            }
            assert_eq!(
                paths[2],
                beyond[0][0] + beyond[0][1],
                "seed {seed}: only the tail path reaches past R"
            );

            // The Kolmogorov–Smirnov distance, under its 1% critical value 1.628 / √n.
            draws.sort_unstable_by(f64::total_cmp);
            let distance = draws
                .iter()
                .enumerate()
                .map(|(k, &z)| {
                    let cdf = phi(z);
                    (cdf - k as f64 / n).max((k + 1) as f64 / n - cdf)
                })
                .fold(0.0_f64, f64::max);
            assert!(
                distance < 1.628 / n.sqrt(),
                "seed {seed}: Kolmogorov–Smirnov distance {distance}"
            );
        }
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
