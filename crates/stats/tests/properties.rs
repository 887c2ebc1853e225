//! Property tests of the statistics primitives: the streaming and batch
//! implementations must agree, quantiles must be monotone, and the coefficient of
//! variation must not depend on the unit of measurement.

use dg_stats::{
    coefficient_of_variation, mean, sample_variance, DriftDetector, EmpiricalCdf, OnlineStats,
    DRIFT_WARMUP,
};
use proptest::prelude::*;

/// Splits `samples` into `parts` contiguous chunks (some possibly empty), the way a
/// sharded campaign splits one logical sample stream across processes.
fn chunked(samples: &[f64], parts: usize) -> Vec<&[f64]> {
    let per = samples.len().div_ceil(parts).max(1);
    let mut chunks: Vec<&[f64]> = samples.chunks(per).collect();
    while chunks.len() < parts {
        chunks.push(&[]);
    }
    chunks
}

/// Absolute-plus-relative tolerance: `1e-9` scaled by the magnitude of the reference.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

proptest! {
    /// Welford's online mean/variance agree with the two-pass batch versions.
    #[test]
    fn online_mean_and_variance_match_batch(
        samples in prop::collection::vec(-1_000.0f64..1_000.0, 2..128),
    ) {
        let mut online = OnlineStats::new();
        for sample in &samples {
            online.push(*sample);
        }
        prop_assert!(
            close(online.mean(), mean(&samples)),
            "mean: online {} vs batch {}",
            online.mean(),
            mean(&samples)
        );
        prop_assert!(
            close(online.variance(), sample_variance(&samples)),
            "variance: online {} vs batch {}",
            online.variance(),
            sample_variance(&samples)
        );
        prop_assert!(close(online.std_dev(), sample_variance(&samples).sqrt()));
    }

    /// Merging two online accumulators equals accumulating the concatenation.
    #[test]
    fn online_merge_matches_concatenation(
        left in prop::collection::vec(-500.0f64..500.0, 1..64),
        right in prop::collection::vec(-500.0f64..500.0, 1..64),
    ) {
        let mut merged = OnlineStats::new();
        for sample in &left {
            merged.push(*sample);
        }
        let mut other = OnlineStats::new();
        for sample in &right {
            other.push(*sample);
        }
        merged.merge(&other);

        let all: Vec<f64> = left.iter().chain(right.iter()).copied().collect();
        prop_assert!(close(merged.mean(), mean(&all)));
        prop_assert!(close(merged.variance(), sample_variance(&all)));
        prop_assert_eq!(merged.count(), all.len() as u64);
    }

    /// Merging K online partials (the sharded-campaign reduction shape) equals
    /// single-pass accumulation over the concatenated stream, within float tolerance.
    #[test]
    fn online_k_way_merge_matches_single_pass(
        samples in prop::collection::vec(-500.0f64..500.0, 1..128),
        parts in 2usize..7,
    ) {
        let mut merged = OnlineStats::new();
        for chunk in chunked(&samples, parts) {
            let mut partial = OnlineStats::new();
            for sample in chunk {
                partial.push(*sample);
            }
            merged.merge(&partial);
        }
        let mut single = OnlineStats::new();
        for sample in &samples {
            single.push(*sample);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert!(close(merged.mean(), single.mean()));
        prop_assert!(close(merged.variance(), single.variance()));
        prop_assert_eq!(merged.min().to_bits(), single.min().to_bits());
        prop_assert_eq!(merged.max().to_bits(), single.max().to_bits());
    }

    /// Merging K sorted CDF partials is *exact*: the merged sample list equals the
    /// sorted concatenation, so every quantile matches bit for bit.
    #[test]
    fn cdf_k_way_merge_is_exact(
        samples in prop::collection::vec(0.0f64..1_000.0, 1..128),
        parts in 2usize..7,
    ) {
        let mut merged = EmpiricalCdf::from_samples(&[]);
        for chunk in chunked(&samples, parts) {
            merged.merge(&EmpiricalCdf::from_samples(chunk));
        }
        let single = EmpiricalCdf::from_samples(&samples);
        prop_assert_eq!(&merged, &single);
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            prop_assert_eq!(merged.quantile(q).to_bits(), single.quantile(q).to_bits());
        }
    }

    /// Quantiles are monotone non-decreasing in `q` and hit min/max at the extremes.
    #[test]
    fn empirical_cdf_quantiles_are_monotone(
        samples in prop::collection::vec(0.0f64..5_000.0, 1..200),
    ) {
        let cdf = EmpiricalCdf::from_samples(&samples);
        prop_assert!(close(cdf.quantile(0.0), cdf.min()));
        let mut previous = cdf.quantile(0.0);
        for step in 1..=100 {
            let value = cdf.quantile(step as f64 / 100.0);
            prop_assert!(
                value >= previous,
                "quantile regressed at q={}: {} < {}",
                step as f64 / 100.0,
                value,
                previous
            );
            previous = value;
        }
        prop_assert!(close(cdf.quantile(1.0), cdf.max()));
    }

    /// NaN samples are rejected without touching the accumulated statistics: the
    /// polluted stream is bit-identical to the clean stream in every statistic, and
    /// the rejects are tallied.
    #[test]
    fn online_stats_reject_nan_without_poisoning(
        samples in prop::collection::vec(-1_000.0f64..1_000.0, 1..64),
        nan_positions in prop::collection::vec(0usize..64, 0..16),
    ) {
        let mut clean = OnlineStats::new();
        for sample in &samples {
            clean.push(*sample);
        }
        let mut polluted = OnlineStats::new();
        let mut injected = 0u64;
        for (index, sample) in samples.iter().enumerate() {
            if nan_positions.contains(&index) {
                polluted.push(f64::NAN);
                injected += 1;
            }
            polluted.push(*sample);
        }
        prop_assert_eq!(polluted.count(), clean.count());
        prop_assert_eq!(polluted.nan_count(), injected);
        prop_assert_eq!(polluted.mean().to_bits(), clean.mean().to_bits());
        prop_assert_eq!(polluted.variance().to_bits(), clean.variance().to_bits());
        prop_assert_eq!(polluted.min().to_bits(), clean.min().to_bits());
        prop_assert_eq!(polluted.max().to_bits(), clean.max().to_bits());
        prop_assert!(!polluted.mean().is_nan());
    }

    /// The online CoV is non-negative for any stream, and a stream mirrored through
    /// zero reports exactly the same relative dispersion.
    #[test]
    fn online_cov_is_sign_invariant(
        samples in prop::collection::vec(1.0f64..2_000.0, 2..64),
    ) {
        let mut positive = OnlineStats::new();
        let mut negative = OnlineStats::new();
        for sample in &samples {
            positive.push(*sample);
            negative.push(-*sample);
        }
        prop_assert!(negative.mean() < 0.0);
        prop_assert!(positive.coefficient_of_variation() >= 0.0);
        prop_assert!(negative.coefficient_of_variation() >= 0.0);
        prop_assert!(close(
            negative.coefficient_of_variation(),
            positive.coefficient_of_variation()
        ));
    }

    /// A drift detector over a bounded stationary stream never fires, while the same
    /// stream with a large persistent level shift planted after calibration always
    /// fires upward within a bounded number of post-shift samples.
    #[test]
    fn drift_detector_separates_stationary_from_shifted(
        base in 50.0f64..500.0,
        wobble in prop::collection::vec(-1.0f64..1.0, 96..128),
    ) {
        let warmup = DRIFT_WARMUP as usize;
        // Stationary: bounded wobble around the base level never accumulates.
        let mut stationary = DriftDetector::new();
        for w in &wobble {
            prop_assert_eq!(stationary.push(base * (1.0 + 0.05 * w)), None);
        }
        // Shifted: after calibration, a persistent 80% slowdown confirms quickly.
        let mut shifted = DriftDetector::new();
        for w in wobble.iter().take(warmup) {
            shifted.push(base * (1.0 + 0.05 * w));
        }
        let fired = wobble
            .iter()
            .skip(warmup)
            .position(|w| shifted.push(base * 1.8 * (1.0 + 0.05 * w)).is_some());
        prop_assert!(
            fired.is_some_and(|n| n < 24),
            "planted shift not confirmed within 24 samples (got {:?})",
            fired
        );
    }

    /// The coefficient of variation is invariant under a positive change of units.
    #[test]
    fn coefficient_of_variation_is_scale_invariant(
        samples in prop::collection::vec(1.0f64..2_000.0, 2..100),
        scale in 0.001f64..1_000.0,
    ) {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let original = coefficient_of_variation(&samples);
        let rescaled = coefficient_of_variation(&scaled);
        prop_assert!(
            close(rescaled, original),
            "CoV changed under scaling by {scale}: {original} vs {rescaled}"
        );
    }
}
