//! The N-Tuple Bandit Evolutionary Algorithm (NTBEA).

use crate::evaluator::{CloudEvaluator, TuningBudget};
use crate::outcome::TuningOutcome;
use crate::tuner::Tuner;
use dg_cloudsim::SimRng;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// NTBEA [Lucas, Liu, Perez-Liebana]: a bandit-driven evolutionary search that fits an
/// n-tuple model over the parameter space. Every real evaluation updates the running
/// mean fitness of each tuple covering the evaluated point (all 1-tuples, all
/// 2-tuples, plus the full point when the space has more than two dimensions); the
/// next point is chosen by mutating the current one and scoring a neighbourhood of
/// candidates with a UCB blend of the tuple means and an exploration bonus. The model
/// makes each noisy sample inform *every* configuration sharing a parameter setting,
/// which is what lets NTBEA find good configurations in far fewer evaluations than
/// direct search — the "model-based is best" result the surrogate backend mirrors at
/// the execution layer.
#[derive(Debug, Clone)]
pub struct Ntbea {
    seed: u64,
    /// Warm-start configurations, evaluated (and modelled) before the bandit walk.
    hints: Vec<ConfigId>,
}

/// Mutated candidates scored per iteration.
const NEIGHBOURS: usize = 16;

/// UCB exploration constant `k`, in units of the observed fitness range.
const EXPLORATION: f64 = 1.4;

/// Per-dimension probability of resampling beyond the one forced mutation.
const MUTATION_RATE: f64 = 0.3;

impl Ntbea {
    /// Creates an NTBEA tuner with the standard neighbourhood and exploration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            hints: Vec::new(),
        }
    }
}

/// The tuple dimension sets of a `dims`-dimensional space: all 1-tuples, all
/// 2-tuples, and (beyond two dimensions) the full point.
fn tuple_sets(dims: usize) -> Vec<Vec<usize>> {
    let mut tuples = Vec::new();
    for i in 0..dims {
        tuples.push(vec![i]);
    }
    for i in 0..dims {
        for j in (i + 1)..dims {
            tuples.push(vec![i, j]);
        }
    }
    if dims > 2 {
        tuples.push((0..dims).collect());
    }
    tuples
}

/// Packs the levels of `point` at the dimensions of `tuple` into one mixed-radix key.
fn pack(point: &[usize], tuple: &[usize], levels: &[usize]) -> u64 {
    let mut key = 0u64;
    let mut stride = 1u64;
    for &dim in tuple {
        key += point[dim] as u64 * stride;
        stride *= levels[dim] as u64;
    }
    key
}

/// A multiplicative hasher for the tuple-statistics map.
///
/// Every update and every UCB score probes the map once per tuple (667 tuples on
/// Redis's 36 dimensions), so the hash function sets most of NTBEA's own cost, and
/// SipHash is slow on keys this short. The keys are the tuner's own `(tuple index,
/// packed levels)` pairs, never outside input, and the map is only probed, never
/// iterated, so neither collision resistance nor iteration order matters here.
#[derive(Default)]
struct TupleKeyHasher(u64);

impl Hasher for TupleKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// The running n-tuple fitness model: per-tuple sample counts and mean fitness.
struct TupleModel {
    tuples: Vec<Vec<usize>>,
    levels: Vec<usize>,
    stats: HashMap<(usize, u64), (u64, f64), BuildHasherDefault<TupleKeyHasher>>,
    total: u64,
    fit_min: f64,
    fit_max: f64,
}

impl TupleModel {
    fn new(levels: Vec<usize>) -> Self {
        Self {
            tuples: tuple_sets(levels.len()),
            levels,
            stats: HashMap::default(),
            total: 0,
            fit_min: f64::INFINITY,
            fit_max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, point: &[usize], fitness: f64) {
        self.total += 1;
        self.fit_min = self.fit_min.min(fitness);
        self.fit_max = self.fit_max.max(fitness);
        for (index, tuple) in self.tuples.iter().enumerate() {
            let key = (index, pack(point, tuple, &self.levels));
            let entry = self.stats.entry(key).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += (fitness - entry.1) / entry.0 as f64;
        }
    }

    /// Mean fitness of the tuples covering `point` (exploitation only).
    fn value(&self, point: &[usize]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (index, tuple) in self.tuples.iter().enumerate() {
            if let Some(&(_, mean)) = self.stats.get(&(index, pack(point, tuple, &self.levels))) {
                sum += mean;
                n += 1;
            }
        }
        if n == 0 {
            f64::NEG_INFINITY
        } else {
            sum / n as f64
        }
    }

    /// UCB score of `point`: tuple-mean value plus an exploration bonus scaled to the
    /// observed fitness range (unseen tuples count as nearly-unvisited).
    fn ucb(&self, point: &[usize], k: f64) -> f64 {
        let log_total = ((self.total + 1) as f64).ln();
        let mut value_sum = 0.0;
        let mut value_n = 0u64;
        let mut explore = 0.0;
        for (index, tuple) in self.tuples.iter().enumerate() {
            match self.stats.get(&(index, pack(point, tuple, &self.levels))) {
                Some(&(count, mean)) => {
                    value_sum += mean;
                    value_n += 1;
                    explore += (log_total / count as f64).sqrt();
                }
                None => explore += (log_total / 0.01).sqrt(),
            }
        }
        let value = if value_n == 0 {
            0.0
        } else {
            value_sum / value_n as f64
        };
        let range = if self.fit_max > self.fit_min {
            self.fit_max - self.fit_min
        } else {
            1.0
        };
        value + k * range * explore / self.tuples.len() as f64
    }
}

impl Tuner for Ntbea {
    fn name(&self) -> &str {
        "NTBEA"
    }

    fn tune(
        &mut self,
        workload: &Workload,
        exec: &mut dyn ExecutionBackend,
        budget: TuningBudget,
    ) -> TuningOutcome {
        let mut rng = SimRng::new(self.seed).derive("ntbea");
        let mut evaluator = CloudEvaluator::new(workload, exec, budget);
        let space = workload.space();
        let levels: Vec<usize> = space.parameters().iter().map(|p| p.level_count()).collect();
        let dims = levels.len();
        let mut model = TupleModel::new(levels.clone());

        let mut current: Vec<usize> = levels.iter().map(|&l| rng.index(l)).collect();
        // Points actually evaluated, in insertion order, unique by configuration.
        let mut visited: Vec<(ConfigId, Vec<usize>)> = Vec::new();

        // Warm start: evaluate every hinted configuration first so its tuples inform
        // the model, and begin the bandit walk from the best-observed hint.
        let mut best_hint: Option<(Vec<usize>, f64)> = None;
        for hint in &self.hints {
            if evaluator.exhausted() {
                break;
            }
            let id = (*hint).min(workload.size() - 1);
            let point = space.point_of(id);
            let observed = evaluator.evaluate(id);
            if observed.is_finite() {
                model.update(&point, -observed);
                if best_hint.as_ref().map_or(true, |(_, t)| observed < *t) {
                    best_hint = Some((point.clone(), observed));
                }
            }
            if !visited.iter().any(|(v, _)| *v == id) {
                visited.push((id, point));
            }
        }
        if let Some((point, _)) = best_hint {
            current = point;
        }

        while !evaluator.exhausted() {
            let id = space.index_of(&current);
            let observed = evaluator.evaluate(id);
            if observed.is_finite() {
                // Fitness is negated time: the model maximises.
                model.update(&current, -observed);
            }
            if !visited.iter().any(|(v, _)| *v == id) {
                visited.push((id, current.clone()));
            }

            // Score a mutated neighbourhood of the current point; strict `>` keeps the
            // first of tied candidates, so the walk is deterministic.
            let mut best: Option<(Vec<usize>, f64)> = None;
            for _ in 0..NEIGHBOURS {
                let mut candidate = current.clone();
                let forced = rng.index(dims);
                candidate[forced] = rng.index(levels[forced]);
                for (dim, level) in candidate.iter_mut().enumerate() {
                    if dim != forced && rng.uniform() < MUTATION_RATE {
                        *level = rng.index(levels[dim]);
                    }
                }
                let score = model.ucb(&candidate, EXPLORATION);
                if best.as_ref().map_or(true, |(_, s)| score > *s) {
                    best = Some((candidate, score));
                }
            }
            current = best.expect("the neighbourhood is never empty").0;
        }

        // Recommend the visited point the model believes best (ties keep the earliest).
        let mut chosen: Option<(ConfigId, f64)> = None;
        for (id, point) in &visited {
            let value = model.value(point);
            if chosen.map_or(true, |(_, v)| value > v) {
                chosen = Some((*id, value));
            }
        }
        let chosen = chosen
            .map(|(id, _)| id)
            .or_else(|| evaluator.best().map(|s| s.config))
            .unwrap_or(0);
        evaluator.finish(self.name(), chosen)
    }

    fn warm_start(&mut self, hints: &[ConfigId]) {
        self.hints = hints.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
    use dg_workloads::Application;

    #[test]
    fn consumes_budget_and_recommends_a_visited_configuration() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 37);
        let outcome = Ntbea::new(2).tune(&workload, &mut cloud, TuningBudget::evaluations(60));
        assert_eq!(outcome.samples, 60);
        assert!(outcome.chosen < workload.size());
        assert!(outcome
            .history
            .iter()
            .any(|record| record.config == outcome.chosen));
    }

    #[test]
    fn beats_random_search_on_average_base_time() {
        // The n-tuple model should make NTBEA competitive with (usually better than)
        // random search on the same budget, averaged over seeds to absorb noise.
        let workload = Workload::scaled(Application::Redis, 20_000);
        let budget = TuningBudget::evaluations(70);
        let mut ntbea_total = 0.0;
        let mut random_total = 0.0;
        for seed in 0..3u64 {
            let mut cloud_a = CloudEnvironment::new(
                VmType::M5_8xlarge,
                InterferenceProfile::typical(),
                100 + seed,
            );
            let mut cloud_b = CloudEnvironment::new(
                VmType::M5_8xlarge,
                InterferenceProfile::typical(),
                100 + seed,
            );
            let ntbea = Ntbea::new(seed).tune(&workload, &mut cloud_a, budget);
            let random = crate::RandomSearch::new(seed).tune(&workload, &mut cloud_b, budget);
            ntbea_total += workload.base_time(ntbea.chosen);
            random_total += workload.base_time(random.chosen);
        }
        assert!(
            ntbea_total <= random_total * 1.1,
            "NTBEA ({ntbea_total}) should be competitive with random ({random_total})"
        );
    }

    #[test]
    fn warm_start_evaluates_hints_and_walks_from_the_best() {
        let workload = Workload::scaled(Application::Redis, 10_000);
        let mut cloud =
            CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 37);
        let mut tuner = Ntbea::new(2);
        tuner.warm_start(&[5, 900]);
        let outcome = tuner.tune(&workload, &mut cloud, TuningBudget::evaluations(20));
        assert_eq!(outcome.samples, 20);
        assert_eq!(outcome.history[0].config, 5);
        assert_eq!(outcome.history[1].config, 900);
    }

    #[test]
    fn deterministic_given_seeds() {
        let workload = Workload::scaled(Application::Gromacs, 5_000);
        let run = || {
            let mut cloud =
                CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 41);
            Ntbea::new(9)
                .tune(&workload, &mut cloud, TuningBudget::evaluations(40))
                .chosen
        };
        assert_eq!(run(), run());
    }
}
