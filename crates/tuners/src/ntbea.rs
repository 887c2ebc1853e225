//! The N-Tuple Bandit Evolutionary Algorithm (NTBEA).
//!
//! # The tuple model
//!
//! The model keeps one table of `(count, mean fitness)` per n-tuple, as the NTBEA paper
//! describes (Kunanusont et al.): one per 1-tuple, one per 2-tuple and, beyond two
//! dimensions, one for the full point. A 1- or 2-tuple's table is dense, one cell per
//! combination of its dimensions' levels, at the first dimension's level plus the
//! second's times the first's level count, and all these tables share one buffer of
//! cells. A cell whose count is 0 is a setting not yet observed. Redis has 1,620 cells
//! at the campaigns' default scale and 2,036 on its full space. The full-point table
//! would need a cell per configuration, so it is a map keyed by configuration id, which
//! holds only the points observed.
//!
//! A UCB score sums, over the tables, an exploration term `sqrt(ln(total + 1) /
//! count)`, or `sqrt(ln(total + 1) / 0.01)` for a setting not yet observed. Only an
//! update changes `total`, so each update tabulates the term by count, the unseen one at
//! count 0, with the same expressions. Scores, updates and values visit the tables in
//! one order: the 1-tuples by dimension, the 2-tuples by first and then second
//! dimension, the full point last. The tests keep a textbook model, one map keyed by
//! tuple and packed levels, which every result matches bit for bit.

use crate::evaluator::{CloudEvaluator, TuningBudget};
use crate::outcome::TuningOutcome;
use crate::tuner::Tuner;
use dg_cloudsim::SimRng;
use dg_exec::ExecutionBackend;
use dg_workloads::{ConfigId, Workload};
use std::collections::HashMap;

/// NTBEA [Lucas, Liu, Perez-Liebana]: a bandit-driven evolutionary search that fits an
/// n-tuple model over the parameter space. Every real evaluation updates the running
/// mean fitness of each tuple covering the evaluated point (all 1-tuples, all
/// 2-tuples, plus the full point when the space has more than two dimensions); the
/// next point is chosen by mutating the current one and scoring a neighbourhood of
/// candidates with a UCB blend of the tuple means and an exploration bonus. The model
/// makes each noisy sample inform *every* configuration sharing a parameter setting,
/// which is what lets NTBEA find good configurations in far fewer evaluations than
/// direct search — the "model-based is best" result.
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

/// A 1- or 2-tuple's dense table: the cell of a point is `offset + point[first] +
/// point[second] * stride`, where `stride` is the first dimension's level count. A
/// 1-tuple has `second == first` and a stride of 0.
struct Table {
    first: usize,
    second: usize,
    stride: usize,
    offset: usize,
}

impl Table {
    fn cell(&self, point: &[usize]) -> usize {
        self.offset + point[self.first] + point[self.second] * self.stride
    }
}

/// Adds one observation of `fitness` to a tuple's `(count, mean)`.
fn observe(stats: &mut (u64, f64), fitness: f64) {
    stats.0 += 1;
    stats.1 += (fitness - stats.1) / stats.0 as f64;
}

/// The running n-tuple fitness model: per-tuple sample counts and mean fitness. See
/// "The tuple model" in the module docs.
struct TupleModel {
    levels: Vec<usize>,
    /// The 1-tuples' tables by dimension, then the 2-tuples' by first and second
    /// dimension: the visiting order.
    tables: Vec<Table>,
    /// `(count, mean fitness)` per cell of every table; a count of 0 is a setting not
    /// yet observed.
    cells: Vec<(u64, f64)>,
    /// The full-point tuple's `(count, mean fitness)` by configuration id, visited
    /// last; `None` in two dimensions or fewer, which have no full-point tuple.
    full: Option<HashMap<ConfigId, (u64, f64)>>,
    /// The exploration term of a tuple by its count, `0..=total`, at this total.
    bonus: Vec<f64>,
    total: u64,
    fit_min: f64,
    fit_max: f64,
}

impl TupleModel {
    fn new(levels: Vec<usize>) -> Self {
        let dims = levels.len();
        let mut tables = Vec::new();
        let mut offset = 0;
        for (first, &count) in levels.iter().enumerate() {
            tables.push(Table {
                first,
                second: first,
                stride: 0,
                offset,
            });
            offset += count;
        }
        for first in 0..dims {
            for second in first + 1..dims {
                tables.push(Table {
                    first,
                    second,
                    stride: levels[first],
                    offset,
                });
                offset += levels[first] * levels[second];
            }
        }
        let mut model = Self {
            levels,
            tables,
            cells: vec![(0, 0.0); offset],
            full: (dims > 2).then(HashMap::new),
            bonus: Vec::new(),
            total: 0,
            fit_min: f64::INFINITY,
            fit_max: f64::NEG_INFINITY,
        };
        model.tabulate_bonus();
        model
    }

    /// Rebuilds the exploration term by count for the current total: `sqrt(ln(total +
    /// 1) / count)`, and for an unseen tuple (count 0) `sqrt(ln(total + 1) / 0.01)`.
    fn tabulate_bonus(&mut self) {
        let log_total = ((self.total + 1) as f64).ln();
        self.bonus.clear();
        self.bonus.push((log_total / 0.01).sqrt());
        self.bonus
            .extend((1..=self.total).map(|count| (log_total / count as f64).sqrt()));
    }

    /// The configuration id of `point`: its levels in mixed radix, the first
    /// dimension's lowest, as `ParameterSpace::index_of` numbers them.
    fn config_id(&self, point: &[usize]) -> ConfigId {
        point
            .iter()
            .zip(&self.levels)
            .rev()
            .fold(0, |id, (&level, &count)| id * count as u64 + level as u64)
    }

    /// The `(count, mean)` of every tuple covering `point`, in visiting order.
    fn stats<'a>(&'a self, point: &'a [usize]) -> impl Iterator<Item = (u64, f64)> + 'a {
        let full = self.full.as_ref().map(|full| {
            full.get(&self.config_id(point))
                .copied()
                .unwrap_or((0, 0.0))
        });
        self.tables
            .iter()
            .map(|table| self.cells[table.cell(point)])
            .chain(full)
    }

    fn update(&mut self, point: &[usize], fitness: f64) {
        self.total += 1;
        self.fit_min = self.fit_min.min(fitness);
        self.fit_max = self.fit_max.max(fitness);
        for table in &self.tables {
            observe(&mut self.cells[table.cell(point)], fitness);
        }
        let id = self.config_id(point);
        if let Some(full) = &mut self.full {
            observe(full.entry(id).or_insert((0, 0.0)), fitness);
        }
        self.tabulate_bonus();
    }

    /// Mean fitness of the tuples covering `point` (exploitation only).
    fn value(&self, point: &[usize]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (count, mean) in self.stats(point) {
            if count > 0 {
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
        let mut value_sum = 0.0;
        let mut value_n = 0u64;
        let mut explore = 0.0;
        for (count, mean) in self.stats(point) {
            if count > 0 {
                value_sum += mean;
                value_n += 1;
            }
            explore += self.bonus[count as usize];
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
        let tuples = self.tables.len() + usize::from(self.full.is_some());
        value + k * range * explore / tuples as f64
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

    /// The textbook n-tuple model: every tuple's statistics in one map keyed by the
    /// tuple's index and its packed levels, each term computed where it is summed.
    /// [`TupleModel`] must match it bit for bit.
    struct MapModel {
        tuples: Vec<Vec<usize>>,
        levels: Vec<usize>,
        stats: HashMap<(usize, u64), (u64, f64)>,
        total: u64,
        fit_min: f64,
        fit_max: f64,
    }

    impl MapModel {
        fn new(levels: Vec<usize>) -> Self {
            Self {
                tuples: tuple_sets(levels.len()),
                levels,
                stats: HashMap::new(),
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

        fn value(&self, point: &[usize]) -> f64 {
            let mut sum = 0.0;
            let mut n = 0u64;
            for (index, tuple) in self.tuples.iter().enumerate() {
                if let Some(&(_, mean)) = self.stats.get(&(index, pack(point, tuple, &self.levels)))
                {
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

    /// Drives [`TupleModel`] and [`MapModel`] on `levels` through the same 200 steps of
    /// a walk like NTBEA's, and compares every UCB score and value bit for bit: each
    /// step reads a mutation of the current point, a random point and an earlier point,
    /// then updates at the current point (one step in ten skips it, as a failed
    /// evaluation does), and moves to the mutation or, one step in four, to an earlier
    /// point, whose full-point tuple then counts more than once.
    fn assert_dense_tables_match_the_map_model(levels: &[usize], seed: u64, context: &str) {
        let mut rng = SimRng::new(seed);
        let mut model = TupleModel::new(levels.to_vec());
        let mut reference = MapModel::new(levels.to_vec());
        let random = |rng: &mut SimRng| -> Vec<usize> {
            levels.iter().map(|&count| rng.index(count)).collect()
        };
        let mut current = random(&mut rng);
        let mut visited = vec![current.clone()];
        for step in 0..200 {
            let mut mutation = current.clone();
            let forced = rng.index(levels.len());
            mutation[forced] = rng.index(levels[forced]);
            for (dim, level) in mutation.iter_mut().enumerate() {
                if dim != forced && rng.uniform() < MUTATION_RATE {
                    *level = rng.index(levels[dim]);
                }
            }
            let earlier = visited[rng.index(visited.len())].clone();
            for point in [&mutation, &random(&mut rng), &earlier, &current] {
                let context = format!("{context}, step {step}, point {point:?}");
                let (got, expected) = (
                    model.ucb(point, EXPLORATION),
                    reference.ucb(point, EXPLORATION),
                );
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "UCB {got} against {expected}, {context}"
                );
                let (got, expected) = (model.value(point), reference.value(point));
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "value {got} against {expected}, {context}"
                );
            }
            if rng.index(10) != 0 {
                let fitness = -(230.0 + 560.0 * rng.uniform());
                model.update(&current, fitness);
                reference.update(&current, fitness);
            }
            current = if rng.index(4) == 0 { earlier } else { mutation };
            visited.push(current.clone());
        }
        assert_eq!(model.total, reference.total, "{context}");
    }

    #[test]
    fn dense_tables_are_bit_identical_to_the_map_model() {
        for (index, application) in Application::ALL.into_iter().enumerate() {
            let spaces = [
                ("default scale", application.scaled_parameter_space(160_000)),
                ("full space", application.parameter_space()),
            ];
            for (scale, space) in spaces {
                let levels: Vec<usize> =
                    space.parameters().iter().map(|p| p.level_count()).collect();
                let context = format!("{application} at {scale}");
                assert_dense_tables_match_the_map_model(&levels, 41 + index as u64, &context);
                if application == Application::Redis {
                    let cells = TupleModel::new(levels).cells.len();
                    let expected = if scale == "full space" { 2_036 } else { 1_620 };
                    assert_eq!(cells, expected, "{context}");
                }
            }
        }
        // Two dimensions or fewer have no full-point tuple.
        for levels in [vec![3, 5], vec![4, 1], vec![7]] {
            let model = TupleModel::new(levels.clone());
            assert!(model.full.is_none());
            assert_dense_tables_match_the_map_model(&levels, 7, &format!("levels {levels:?}"));
        }
    }

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
