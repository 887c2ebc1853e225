//! A surrogate-model backend: serve evaluations from an online n-tuple model.
//!
//! Model-based search crushes direct evaluation on noisy objectives (Lucas et al.,
//! "Model-Based is Best"; the N-Tuple Bandit Evolutionary Algorithm). This module
//! brings that economics to *any* [`ExecutionBackend`]: [`SurrogateBackend`] wraps an
//! inner backend, fits an incremental low-order model of configuration → outcome
//! online from the real evaluations that pass through it, and — once a configuration's
//! tuples clear a confidence gate — serves a tunable fraction of solo evaluations and
//! observations straight from the model, cost-free and without touching the inner
//! backend. Everything else falls through unchanged, so with the serving fraction at
//! `0` the wrapper is bit-identical pass-through.

use crate::backend::{forward_to_inner, ExecutionBackend};
use dg_cloudsim::{ExecutionSpec, ObservedRun, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide mirrors of every [`SurrogateStats`] family, in serving order
/// (`model_solo`, `model_observations`, `real_solo`), so a
/// [`MetricsSnapshot`](dg_obs::MetricsSnapshot) sees surrogate serving across all
/// campaign cells without holding their per-cell handles.
fn surrogate_counters() -> &'static (dg_obs::Counter, dg_obs::Counter, dg_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(dg_obs::Counter, dg_obs::Counter, dg_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dg_obs::metrics::counter("exec.surrogate_model_solo"),
            dg_obs::metrics::counter("exec.surrogate_model_observations"),
            dg_obs::metrics::counter("exec.surrogate_real_solo"),
        )
    })
}

/// Knobs of a [`SurrogateBackend`]: how aggressively to serve from the model and how
/// much evidence a tuple needs before the model is trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateConfig {
    /// Fraction of *confidently predictable* solo evaluations and observations served
    /// from the model instead of the inner backend, in `[0, 1]`. `0` disables the
    /// surrogate entirely (bit-identical pass-through); `1` serves every request the
    /// confidence gate clears.
    pub fraction: f64,
    /// Minimum number of real samples a tuple needs before its estimate can be served.
    pub min_samples: u64,
    /// Maximum relative standard deviation (`std / |mean|`) a tuple may show and still
    /// be served. Tuples noisier than this fall through to the inner backend.
    pub max_rel_std: f64,
    /// Resolution of the generalising tuples: bins per octave of base time, and total
    /// bins across the `[0, 1]` sensitivity range.
    pub bins: usize,
}

impl SurrogateConfig {
    /// A configuration that never serves from the model: bit-identical pass-through.
    pub fn passthrough() -> Self {
        Self {
            fraction: 0.0,
            ..Self::default()
        }
    }

    /// Whether this configuration can ever serve a model answer.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or not finite, `max_rel_std` is
    /// negative or NaN, or `bins` is zero.
    pub fn validate(&self) {
        assert!(
            self.fraction.is_finite() && (0.0..=1.0).contains(&self.fraction),
            "surrogate fraction must be a finite number in [0, 1], got {}",
            self.fraction
        );
        assert!(
            self.max_rel_std >= 0.0,
            "surrogate max_rel_std must be non-negative, got {}",
            self.max_rel_std
        );
        assert!(self.bins > 0, "surrogate bins must be positive");
    }
}

impl Default for SurrogateConfig {
    /// The aggressive default: serve every request the confidence gate clears, after
    /// two real samples per tuple, tolerating heavy (cloud-grade) noise.
    fn default() -> Self {
        Self {
            fraction: 1.0,
            min_samples: 2,
            max_rel_std: 1.5,
            bins: 16,
        }
    }
}

/// Shared serving counters of a [`SurrogateBackend`] family.
///
/// The handle is cheap to clone and survives the backend being boxed behind the
/// `dyn ExecutionBackend` seam: campaign executors clone it before wrapping and read
/// the totals afterwards. Forked sub-backends share their parent's handle, so the
/// counts cover a whole cell including its per-region forks.
#[derive(Debug, Clone, Default)]
pub struct SurrogateStats {
    model_solo: Arc<AtomicU64>,
    model_observations: Arc<AtomicU64>,
    real_solo: Arc<AtomicU64>,
}

impl SurrogateStats {
    /// A fresh handle with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solo evaluations answered by the model (no inner call, no cost, no clock).
    pub fn model_solo(&self) -> u64 {
        self.model_solo.load(Ordering::Relaxed)
    }

    /// Observations answered by the model.
    pub fn model_observations(&self) -> u64 {
        self.model_observations.load(Ordering::Relaxed)
    }

    /// Solo evaluations that reached the inner backend (and trained the model).
    pub fn real_solo(&self) -> u64 {
        self.real_solo.load(Ordering::Relaxed)
    }

    /// Total requests served from the model.
    pub fn model_served(&self) -> u64 {
        self.model_solo() + self.model_observations()
    }
}

/// Welford-style online statistics of one tuple.
#[derive(Debug, Clone, Copy, Default)]
struct TupleStats {
    count: u64,
    mean: f64,
    m2: f64,
    elapsed_mean: f64,
}

impl TupleStats {
    fn observe(&mut self, time: f64, elapsed: f64) {
        self.count += 1;
        let n = self.count as f64;
        let delta = time - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (time - self.mean);
        self.elapsed_mean += (elapsed - self.elapsed_mean) / n;
    }

    /// Whether this tuple clears the `(min_samples, max_rel_std)` confidence gate.
    fn passes(&self, min_samples: u64, max_rel_std: f64) -> bool {
        if self.count < min_samples || self.count == 0 {
            return false;
        }
        let std = (self.m2 / self.count as f64).sqrt();
        std <= max_rel_std * self.mean.abs().max(f64::MIN_POSITIVE)
    }
}

/// Tuple levels, most specific first: the exact spec, the (base, sensitivity) bin
/// pair, and the two generalising 1-tuples.
const TUPLE_EXACT: u8 = 0;
const TUPLE_PAIR: u8 = 1;
const TUPLE_BASE: u8 = 2;
const TUPLE_SENS: u8 = 3;

/// An [`ExecutionBackend`] wrapper that learns an online n-tuple surrogate model from
/// real solo evaluations and serves confident repeat requests from it, cost-free.
///
/// The model keeps four tuples per spec — exact `(base_time, sensitivity)` bits, the
/// binned pair, and the two binned 1-tuples — each with Welford running statistics.
/// A request is served from the model only when (a) a tuple chain clears the
/// confidence gate (most specific first: exact, then pair, then a count-weighted
/// blend of the two 1-tuples) and (b) the deterministic serving schedule owes a model
/// answer under [`SurrogateConfig::fraction`]. Served solo evaluations commit **no**
/// cost and advance **no** clock; served observations skip the inner backend's
/// simulation. Every other request — games, commits, unconfident or unscheduled
/// evaluations — reaches the inner backend unchanged, which is why a `fraction` of
/// `0` is bit-identical pass-through.
///
/// Forked sub-backends start with a fresh (empty) model, because a fork is a
/// different noise realisation, but share the parent's [`SurrogateStats`] handle.
pub struct SurrogateBackend {
    inner: Box<dyn ExecutionBackend>,
    config: SurrogateConfig,
    model: HashMap<(u8, u64, u64), TupleStats>,
    solo_eligible: u64,
    solo_served: u64,
    obs_eligible: u64,
    obs_served: u64,
    stats: SurrogateStats,
}

impl SurrogateBackend {
    /// Wraps `inner` with an empty model under `config` (validated).
    pub fn new(inner: Box<dyn ExecutionBackend>, config: SurrogateConfig) -> Self {
        config.validate();
        Self::with_stats(inner, config, SurrogateStats::new())
    }

    /// Wraps `inner`, reporting serving counts through the shared `stats` handle.
    pub fn with_stats(
        inner: Box<dyn ExecutionBackend>,
        config: SurrogateConfig,
        stats: SurrogateStats,
    ) -> Self {
        config.validate();
        Self {
            inner,
            config,
            model: HashMap::new(),
            solo_eligible: 0,
            solo_served: 0,
            obs_eligible: 0,
            obs_served: 0,
            stats,
        }
    }

    /// The serving counters handle (clone it to keep reading after boxing).
    pub fn stats(&self) -> &SurrogateStats {
        &self.stats
    }

    /// The configuration this backend was built with.
    pub fn config(&self) -> &SurrogateConfig {
        &self.config
    }

    /// The four tuple keys of `spec`, most specific first.
    fn tuple_keys(&self, spec: &ExecutionSpec) -> [(u8, u64, u64); 4] {
        let b = spec.base_time();
        let s = spec.sensitivity();
        let bins = self.config.bins as f64;
        // Log-scale base-time bins are scale-free: `bins` bins per octave.
        let base_bin = (b.max(f64::MIN_POSITIVE).log2() * bins).floor() as i64 as u64;
        let sens_bin =
            (((s.clamp(0.0, 1.0) * bins) as i64).min(self.config.bins as i64 - 1)).max(0) as u64;
        [
            (TUPLE_EXACT, b.to_bits(), s.to_bits()),
            (TUPLE_PAIR, base_bin, sens_bin),
            (TUPLE_BASE, base_bin, 0),
            (TUPLE_SENS, sens_bin, 0),
        ]
    }

    /// Feeds one real solo evaluation into every tuple of `spec`.
    fn train(&mut self, spec: &ExecutionSpec, observed_time: f64, elapsed: f64) {
        if !observed_time.is_finite() || !elapsed.is_finite() {
            return; // Failure sentinels (e.g. a failed process run) never train.
        }
        for key in self.tuple_keys(spec) {
            self.model
                .entry(key)
                .or_default()
                .observe(observed_time, elapsed);
        }
    }

    /// The model's `(observed_time, elapsed)` estimate for `spec` under an explicit
    /// confidence gate, or `None` when no tuple chain clears it.
    ///
    /// The gate is checked most specific tuple first: the exact spec, the binned
    /// `(base, sensitivity)` pair, and finally a count-weighted blend of the two
    /// 1-tuples (both must pass). Gates order by strength: whenever a *stricter*
    /// gate (higher `min_samples`, lower `max_rel_std`) returns `Some`, every looser
    /// gate returns `Some` too — the monotonicity property the proptest battery pins.
    pub fn prediction_with_gate(
        &self,
        spec: &ExecutionSpec,
        min_samples: u64,
        max_rel_std: f64,
    ) -> Option<(f64, f64)> {
        let keys = self.tuple_keys(spec);
        for key in &keys[..2] {
            if let Some(stats) = self.model.get(key) {
                if stats.passes(min_samples, max_rel_std) {
                    return Some((stats.mean, stats.elapsed_mean));
                }
            }
        }
        let base = self.model.get(&keys[2]).copied().unwrap_or_default();
        let sens = self.model.get(&keys[3]).copied().unwrap_or_default();
        if base.passes(min_samples, max_rel_std) && sens.passes(min_samples, max_rel_std) {
            let total = (base.count + sens.count) as f64;
            let wb = base.count as f64 / total;
            let ws = sens.count as f64 / total;
            return Some((
                wb * base.mean + ws * sens.mean,
                wb * base.elapsed_mean + ws * sens.elapsed_mean,
            ));
        }
        None
    }

    /// The model estimate under the configured gate.
    fn predict(&self, spec: &ExecutionSpec) -> Option<(f64, f64)> {
        self.prediction_with_gate(spec, self.config.min_samples, self.config.max_rel_std)
    }

    /// The deterministic serving schedule: among confident requests, serve whenever
    /// the served count lags `fraction` of the eligible count.
    fn take_slot(eligible: &mut u64, served: &mut u64, fraction: f64) -> bool {
        *eligible += 1;
        if (*served as f64) < fraction * (*eligible as f64) {
            *served += 1;
            true
        } else {
            false
        }
    }
}

impl ExecutionBackend for SurrogateBackend {
    forward_to_inner!(vm, profile, seed, clock, set_clock, cost);
    // Games depend on the full player set and the clock: always live, never trained on
    // (their observed times carry co-location slowdowns).
    forward_to_inner!(play_game, commit, commit_parallel, failure);

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        if !self.config.is_active() {
            return self.inner.run_single(spec);
        }
        if let Some((observed_time, elapsed)) = self.predict(&spec) {
            if Self::take_slot(
                &mut self.solo_eligible,
                &mut self.solo_served,
                self.config.fraction,
            ) {
                self.stats.model_solo.fetch_add(1, Ordering::Relaxed);
                surrogate_counters().0.increment();
                // Model-served: no inner call, no cost, no clock advance.
                return ObservedRun {
                    observed_time,
                    started_at: self.inner.clock(),
                    elapsed,
                };
            }
        }
        let run = self.inner.run_single(spec);
        self.stats.real_solo.fetch_add(1, Ordering::Relaxed);
        surrogate_counters().2.increment();
        self.train(&spec, run.observed_time, run.elapsed);
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        if !self.config.is_active() {
            return self.inner.observe_single_at(spec, start, salt);
        }
        if let Some((observed_time, _)) = self.predict(&spec) {
            if Self::take_slot(
                &mut self.obs_eligible,
                &mut self.obs_served,
                self.config.fraction,
            ) {
                self.stats
                    .model_observations
                    .fetch_add(1, Ordering::Relaxed);
                surrogate_counters().1.increment();
                return observed_time;
            }
        }
        self.inner.observe_single_at(spec, start, salt)
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        // A fork is a different noise realisation: fresh model, shared counters.
        Box::new(SurrogateBackend::with_stats(
            self.inner.fork(seed),
            self.config,
            self.stats.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::sim_ops;
    use dg_cloudsim::{CloudEnvironment, GameRules, InterferenceProfile, VmType};

    fn sim(seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            VmType::M5_8xlarge,
            InterferenceProfile::typical(),
            seed,
        ))
    }

    /// Drives a backend through every trait operation and fingerprints the bits.
    fn drive(exec: &mut dyn ExecutionBackend) -> Vec<u64> {
        let mut bits = Vec::new();
        let specs = [
            ExecutionSpec::new(120.0, 0.7),
            ExecutionSpec::new(300.0, 0.2),
        ];
        let play = exec.play_game(&specs, &GameRules::default());
        exec.commit(&play);
        bits.extend(play.observed_times.iter().map(|t| t.to_bits()));
        for _ in 0..3 {
            let run = exec.run_single(specs[0]);
            bits.push(run.observed_time.to_bits());
            bits.push(run.elapsed.to_bits());
            bits.push(run.started_at.as_seconds().to_bits());
        }
        bits.extend(
            exec.observe_repeated(specs[1], 3, 900.0)
                .iter()
                .map(|t| t.to_bits()),
        );
        let mut fork = exec.fork(7);
        bits.push(fork.run_single(specs[0]).observed_time.to_bits());
        bits.push(exec.cost().core_hours().to_bits());
        bits.push(exec.clock().as_seconds().to_bits());
        bits
    }

    #[test]
    fn fraction_zero_is_bit_identical_pass_through() {
        let mut bare = sim(42);
        let mut wrapped = SurrogateBackend::new(sim(42), SurrogateConfig::passthrough());
        assert_eq!(drive(bare.as_mut()), drive(&mut wrapped));
        assert_eq!(wrapped.stats().model_served(), 0);
    }

    #[test]
    fn confident_repeats_are_served_without_cost_clock_or_sim_ops() {
        let mut exec = SurrogateBackend::new(sim(1), SurrogateConfig::default());
        let spec = ExecutionSpec::new(100.0, 0.8);
        // Two real runs clear the exact tuple's min_samples=2 gate.
        let first = exec.run_single(spec);
        let second = exec.run_single(spec);
        assert_eq!(exec.stats().real_solo(), 2);

        let ops = sim_ops();
        let cost = exec.cost().core_hours();
        let clock = exec.clock();
        let served = exec.run_single(spec);
        assert_eq!(exec.stats().model_solo(), 1);
        assert_eq!(sim_ops(), ops, "model answers run no simulation");
        assert_eq!(
            exec.cost().core_hours(),
            cost,
            "model answers are cost-free"
        );
        assert_eq!(
            exec.clock(),
            clock,
            "model answers do not advance the clock"
        );
        let mean = (first.observed_time + second.observed_time) / 2.0;
        assert!((served.observed_time - mean).abs() < 1e-9 * mean.abs());
    }

    #[test]
    fn observations_are_served_from_the_model_once_confident() {
        let mut exec = SurrogateBackend::new(sim(2), SurrogateConfig::default());
        let spec = ExecutionSpec::new(150.0, 0.5);
        let _ = exec.run_single(spec);
        let _ = exec.run_single(spec);
        let ops = sim_ops();
        let times = exec.observe_repeated(spec, 4, 600.0);
        assert_eq!(exec.stats().model_observations(), 4);
        assert_eq!(sim_ops(), ops, "served observations skip the simulator");
        assert!(times.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    }

    #[test]
    fn unconfident_specs_fall_through_to_the_inner_backend() {
        let mut exec = SurrogateBackend::new(sim(3), SurrogateConfig::default());
        let a = ExecutionSpec::new(100.0, 0.8);
        let b = ExecutionSpec::new(3_000.0, 0.05);
        let _ = exec.run_single(a);
        let _ = exec.run_single(a);
        // `b` lives in distant bins: no tuple of it has any samples yet.
        let ops = sim_ops();
        let _ = exec.run_single(b);
        assert_eq!(sim_ops(), ops + 1, "unknown specs run for real");
        assert_eq!(exec.stats().model_solo(), 0);
    }

    #[test]
    fn fraction_schedules_serving_deterministically() {
        let config = SurrogateConfig {
            fraction: 0.5,
            ..SurrogateConfig::default()
        };
        let mut exec = SurrogateBackend::new(sim(4), config);
        let spec = ExecutionSpec::new(80.0, 0.3);
        let _ = exec.run_single(spec);
        let _ = exec.run_single(spec);
        for _ in 0..10 {
            let _ = exec.run_single(spec);
        }
        // Half of the 10 confident requests are served, the rest run (and train).
        assert_eq!(exec.stats().model_solo(), 5);
        assert_eq!(exec.stats().real_solo(), 2 + 5);
    }

    #[test]
    fn stricter_gates_only_remove_predictions() {
        let mut exec = SurrogateBackend::new(
            sim(5),
            SurrogateConfig {
                // Keep everything real so training continues while we probe gates.
                min_samples: u64::MAX,
                ..SurrogateConfig::default()
            },
        );
        let spec = ExecutionSpec::new(200.0, 0.6);
        for _ in 0..6 {
            let _ = exec.run_single(spec);
        }
        for min in [1u64, 2, 4, 6, 7] {
            for rel in [0.01, 0.5, 2.0] {
                let strict = exec.prediction_with_gate(&spec, min + 1, rel / 2.0);
                let loose = exec.prediction_with_gate(&spec, min, rel);
                assert!(
                    strict.is_none() || loose.is_some(),
                    "gate ({min}, {rel}) lost a prediction its stricter form kept"
                );
            }
        }
        assert!(exec.prediction_with_gate(&spec, 7, 10.0).is_none());
        assert!(exec.prediction_with_gate(&spec, 1, 10.0).is_some());
    }

    #[test]
    fn forks_get_fresh_models_but_share_stats() {
        let mut exec = SurrogateBackend::new(sim(6), SurrogateConfig::default());
        let spec = ExecutionSpec::new(100.0, 0.8);
        let _ = exec.run_single(spec);
        let _ = exec.run_single(spec);
        let _ = exec.run_single(spec); // served
        let mut fork = exec.fork(99);
        let ops = sim_ops();
        let _ = fork.run_single(spec);
        assert_eq!(sim_ops(), ops + 1, "the fork's model starts empty");
        assert_eq!(exec.stats().model_solo(), 1);
        assert_eq!(
            exec.stats().real_solo(),
            3,
            "fork counts flow into the shared handle"
        );
    }

    #[test]
    fn failure_sentinels_never_train_the_model() {
        let mut exec = SurrogateBackend::new(sim(7), SurrogateConfig::default());
        let spec = ExecutionSpec::new(100.0, 0.8);
        exec.train(&spec.clone(), f64::INFINITY, 1.0);
        exec.train(&spec.clone(), f64::NAN, 1.0);
        assert!(exec.prediction_with_gate(&spec, 1, f64::INFINITY).is_none());
    }

    #[test]
    #[should_panic(expected = "surrogate fraction")]
    fn invalid_fractions_are_rejected() {
        SurrogateConfig {
            fraction: 1.5,
            ..SurrogateConfig::default()
        }
        .validate();
    }
}
