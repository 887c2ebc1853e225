//! A small Gaussian-process regressor used by the BLISS-style tuner.
//!
//! BLISS maintains a pool of lightweight Bayesian-optimisation models; each model here is
//! a Gaussian process with an RBF kernel of a particular length scale. The implementation
//! is intentionally minimal (dense Cholesky, no hyper-parameter optimisation) because the
//! model pool — not any individual model — is what the BLISS design relies on.
//!
//! # Storage
//!
//! The training inputs are stored flat, one row per observation, and the Cholesky
//! factor `L` of `K + noise * I` as a packed lower triangle: row `i` holds its `i + 1`
//! entries starting at `i * (i + 1) / 2`. The factor is computed in place in that
//! buffer. The inputs, the factor and `alpha` keep their capacity across fits, so a
//! model refit on a sliding window stops reallocating them once the window is full.
//!
//! # Scoring
//!
//! [`predict`](GaussianProcess::predict), [`expected_improvement`] and
//! [`expected_improvements`] share one routine. It scores queries in blocks of
//! `LANES` (8), advanced in lockstep. For each query it computes the kernel vector
//! `k`, the mean `k · alpha`, then solves `L v = k` and sums `v · v` for the variance.
//! The block's eight solves go through `L` together, one row at a time.
//!
//! The lanes are exact. Each lane is an independent chain that accumulates its own
//! sums in the same order as the textbook single-point code, which the tests keep as a
//! reference. No sum is split, reassociated or shared between lanes. The gain is
//! overlap: a triangular solve is one long chain of dependent subtractions, and eight
//! independent chains side by side keep the floating-point units busy where one chain
//! would wait on its own previous step. A short final block is padded with copies of
//! its last query, whose results are dropped.
//!
//! A squared distance skips a coordinate only where every training input and every
//! query of the block is 0. Such a term is `(0 - 0)^2 = +0`. Adding `+0` to a sum of
//! squares changes at most the sign of a zero sum, and the kernel maps both zeros to
//! `exp(-0) = 1`, so the skip is exact. BLISS's normalised inputs are 0 on every
//! dimension the scaled space pins, which is 24 of Redis's 36 at the default scale.
//!
//! [`expected_improvement`]: GaussianProcess::expected_improvement
//! [`expected_improvements`]: GaussianProcess::expected_improvements

/// Queries scored together by the lockstep solve.
const LANES: usize = 8;

/// A Gaussian process with a radial-basis-function kernel, fit to normalised inputs in
/// `[0, 1]^d`.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    length_scale: f64,
    noise: f64,
    /// Input dimensionality of the last fit.
    dims: usize,
    /// Training inputs of the last fit, row-major (`n * dims`).
    inputs: Vec<f64>,
    /// Per dimension: true when some training input is non-zero there.
    nonzero: Vec<bool>,
    /// `(K + noise * I)^-1 * (y - mean)` from the last fit.
    alpha: Vec<f64>,
    /// Cholesky factor `L` of `K + noise * I`, packed lower triangle, row-major.
    cholesky: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Offset of row `i` of a packed lower triangle.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl GaussianProcess {
    /// Creates an unfit GP with the given RBF length scale and observation noise.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` or `noise` is not strictly positive.
    pub fn new(length_scale: f64, noise: f64) -> Self {
        assert!(length_scale > 0.0, "length scale must be positive");
        assert!(noise > 0.0, "noise must be positive");
        Self {
            length_scale,
            noise,
            dims: 0,
            inputs: Vec::new(),
            nonzero: Vec::new(),
            alpha: Vec::new(),
            cholesky: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// The kernel length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }

    /// True once [`fit`](Self::fit) has been called with at least one observation.
    pub fn is_fit(&self) -> bool {
        !self.alpha.is_empty()
    }

    /// The kernel's denominator `2 l^2`, in the textbook expression's evaluation order.
    fn two_l_squared(&self) -> f64 {
        2.0 * self.length_scale * self.length_scale
    }

    /// Training input `i` of the last fit.
    fn input(&self, i: usize) -> &[f64] {
        &self.inputs[i * self.dims..(i + 1) * self.dims]
    }

    /// Fits the GP to `(inputs, targets)`.
    ///
    /// Targets are standardised internally so callers can pass raw execution times.
    ///
    /// # Panics
    ///
    /// Panics if the inputs and targets differ in length or are empty, or if the
    /// inputs differ in length from one another.
    pub fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot fit a GP to zero observations");
        let n = inputs.len();
        let dims = inputs[0].len();
        assert!(
            inputs.iter().all(|input| input.len() == dims),
            "inputs must share one dimensionality"
        );
        self.dims = dims;
        self.y_mean = dg_stats::mean(targets);
        self.y_std = dg_stats::std_dev(targets).max(1e-9);

        self.inputs.clear();
        self.nonzero.clear();
        self.nonzero.resize(dims, false);
        for input in inputs {
            self.inputs.extend_from_slice(input);
            for (flag, &x) in self.nonzero.iter_mut().zip(input) {
                *flag |= x != 0.0;
            }
        }
        let active: Vec<usize> = (0..dims).filter(|&d| self.nonzero[d]).collect();

        // Build K + noise * I and factor it (= L * L^T) in one pass: each entry of K is
        // computed where L's entry is, and never stored.
        let two_l_squared = self.two_l_squared();
        let mut l = std::mem::take(&mut self.cholesky);
        l.clear();
        l.resize(row_start(n), 0.0);
        for i in 0..n {
            let (rows_before, row_i) = l[..row_start(i + 1)].split_at_mut(row_start(i));
            let x_i = self.input(i);
            for j in 0..=i {
                let x_j = self.input(j);
                let mut squared = -0.0;
                for &d in &active {
                    squared += (x_i[d] - x_j[d]) * (x_i[d] - x_j[d]);
                }
                let mut sum = (-squared / two_l_squared).exp();
                if i == j {
                    sum += self.noise;
                    for &l_ik in &row_i[..i] {
                        sum -= l_ik * l_ik;
                    }
                    row_i[i] = sum.max(1e-12).sqrt();
                } else {
                    let row_j = &rows_before[row_start(j)..row_start(j + 1)];
                    for (&l_ik, &l_jk) in row_i[..j].iter().zip(row_j) {
                        sum -= l_ik * l_jk;
                    }
                    row_i[j] = sum / row_j[j];
                }
            }
        }

        // Solve L z = y, then L^T alpha = z, both in place in `alpha`.
        let mut alpha = std::mem::take(&mut self.alpha);
        alpha.clear();
        alpha.extend(targets.iter().map(|y| (y - self.y_mean) / self.y_std));
        for i in 0..n {
            let row = &l[row_start(i)..row_start(i + 1)];
            let mut sum = alpha[i];
            for (&l_ik, &z_k) in row[..i].iter().zip(&alpha) {
                sum -= l_ik * z_k;
            }
            alpha[i] = sum / row[i];
        }
        for i in (0..n).rev() {
            let mut sum = alpha[i];
            for (k, &alpha_k) in alpha.iter().enumerate().skip(i + 1) {
                sum -= l[row_start(k) + i] * alpha_k;
            }
            alpha[i] = sum / l[row_start(i) + i];
        }

        self.alpha = alpha;
        self.cholesky = l;
    }

    /// Predictive mean and standard deviation at every point, in order, handed to
    /// `emit` (in the original target units). See the module docs for the lockstep
    /// scoring and why it is exact.
    fn posterior<P: AsRef<[f64]>>(&self, points: &[P], mut emit: impl FnMut(f64, f64)) {
        assert!(self.is_fit(), "predict called before fit");
        let n = self.alpha.len();
        let two_l_squared = self.two_l_squared();
        // The block's queries, transposed: `query[d][lane]`.
        let mut query = vec![[0.0; LANES]; self.dims];
        // Per training input: the block's kernel values, overwritten in place by the
        // solution v of L v = k.
        let mut kv = vec![[0.0; LANES]; n];
        let mut active = Vec::with_capacity(self.dims);
        for block in points.chunks(LANES) {
            for lane in 0..LANES {
                let point = block[lane.min(block.len() - 1)].as_ref();
                assert_eq!(
                    point.len(),
                    self.dims,
                    "query dimensionality differs from fit"
                );
                for (column, &x) in query.iter_mut().zip(point) {
                    column[lane] = x;
                }
            }
            active.clear();
            active.extend(
                (0..self.dims).filter(|&d| self.nonzero[d] || query[d].iter().any(|&x| x != 0.0)),
            );

            for (i, k) in kv.iter_mut().enumerate() {
                let x = self.input(i);
                let mut squared = [-0.0; LANES];
                for &d in &active {
                    for lane in 0..LANES {
                        squared[lane] += (x[d] - query[d][lane]) * (x[d] - query[d][lane]);
                    }
                }
                for lane in 0..LANES {
                    k[lane] = (-squared[lane] / two_l_squared).exp();
                }
            }

            // Sums start at -0.0, as `Iterator::sum` over f64 does: a mean whose every
            // term is -0.0 (underflowed kernel values) keeps the textbook's sign.
            let mut mean = [-0.0; LANES];
            let mut v_dot_v = [-0.0; LANES];
            for i in 0..n {
                let row = &self.cholesky[row_start(i)..row_start(i + 1)];
                let (solved, rest) = kv.split_at_mut(i);
                let mut sum = rest[0];
                for lane in 0..LANES {
                    mean[lane] += sum[lane] * self.alpha[i];
                }
                for (&l_ik, v_k) in row[..i].iter().zip(solved.iter()) {
                    for lane in 0..LANES {
                        sum[lane] -= l_ik * v_k[lane];
                    }
                }
                for lane in 0..LANES {
                    rest[0][lane] = sum[lane] / row[i];
                    v_dot_v[lane] += rest[0][lane] * rest[0][lane];
                }
            }

            for lane in 0..block.len() {
                let variance = (1.0 + self.noise - v_dot_v[lane]).max(1e-12);
                emit(
                    mean[lane] * self.y_std + self.y_mean,
                    variance.sqrt() * self.y_std,
                );
            }
        }
    }

    /// Predictive mean and standard deviation at `point` (in the original target units).
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if `point` differs in length from the
    /// training inputs.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        let mut prediction = (f64::NAN, f64::NAN);
        self.posterior(&[point], |mean, std_dev| prediction = (mean, std_dev));
        prediction
    }

    /// Expected improvement of `point` over the incumbent best target value
    /// (minimisation). Larger is better.
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if `point` differs in length from the
    /// training inputs.
    pub fn expected_improvement(&self, point: &[f64], best: f64) -> f64 {
        let (mean, std_dev) = self.predict(point);
        improvement(mean, std_dev, best)
    }

    /// [`expected_improvement`](Self::expected_improvement) of every point, in order.
    /// Each value is bit-identical to scoring its point alone; scoring a pool in one
    /// call is faster.
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if a point differs in length from the
    /// training inputs.
    pub fn expected_improvements<P: AsRef<[f64]>>(&self, points: &[P], best: f64) -> Vec<f64> {
        let mut scores = Vec::with_capacity(points.len());
        self.posterior(points, |mean, std_dev| {
            scores.push(improvement(mean, std_dev, best));
        });
        scores
    }
}

/// Expected improvement over `best` of a prediction with `mean` and `std_dev`.
fn improvement(mean: f64, std_dev: f64, best: f64) -> f64 {
    if std_dev < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std_dev;
    let (pdf, cdf) = standard_normal(z);
    ((best - mean) * cdf + std_dev * pdf).max(0.0)
}

/// Standard normal PDF and CDF at `z` (Abramowitz–Stegun CDF approximation).
fn standard_normal(z: f64) -> (f64, f64) {
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    // CDF via the error-function approximation.
    let t = 1.0 / (1.0 + 0.2316419 * z.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let tail = pdf * poly;
    let cdf = if z >= 0.0 { 1.0 - tail } else { tail };
    (pdf, cdf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cloudsim::SimRng;

    /// The textbook GP: dense `Vec<Vec<f64>>` matrices, every coordinate of every
    /// distance, one query at a time. The lockstep scoring must match it bit for bit.
    struct TextbookGp {
        length_scale: f64,
        noise: f64,
        inputs: Vec<Vec<f64>>,
        alpha: Vec<f64>,
        cholesky: Vec<Vec<f64>>,
        y_mean: f64,
        y_std: f64,
    }

    impl TextbookGp {
        fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
            let squared: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
            (-squared / (2.0 * self.length_scale * self.length_scale)).exp()
        }

        #[allow(clippy::needless_range_loop)]
        fn fit(length_scale: f64, noise: f64, inputs: &[Vec<f64>], targets: &[f64]) -> Self {
            let n = inputs.len();
            let mut gp = Self {
                length_scale,
                noise,
                inputs: inputs.to_vec(),
                alpha: Vec::new(),
                cholesky: Vec::new(),
                y_mean: dg_stats::mean(targets),
                y_std: dg_stats::std_dev(targets).max(1e-9),
            };
            let standardized: Vec<f64> =
                targets.iter().map(|y| (y - gp.y_mean) / gp.y_std).collect();

            let mut matrix = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..=i {
                    let k = gp.kernel(&inputs[i], &inputs[j]);
                    matrix[i][j] = k;
                    matrix[j][i] = k;
                }
                matrix[i][i] += noise;
            }

            let mut l = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = matrix[i][j];
                    for k in 0..j {
                        sum -= l[i][k] * l[j][k];
                    }
                    if i == j {
                        l[i][j] = sum.max(1e-12).sqrt();
                    } else {
                        l[i][j] = sum / l[j][j];
                    }
                }
            }

            let mut z = vec![0.0; n];
            for i in 0..n {
                let mut sum = standardized[i];
                for k in 0..i {
                    sum -= l[i][k] * z[k];
                }
                z[i] = sum / l[i][i];
            }
            let mut alpha = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = z[i];
                for k in i + 1..n {
                    sum -= l[k][i] * alpha[k];
                }
                alpha[i] = sum / l[i][i];
            }
            gp.alpha = alpha;
            gp.cholesky = l;
            gp
        }

        #[allow(clippy::needless_range_loop)]
        fn predict(&self, point: &[f64]) -> (f64, f64) {
            let n = self.inputs.len();
            let k_star: Vec<f64> = self.inputs.iter().map(|x| self.kernel(x, point)).collect();
            let mean_standardized: f64 = k_star
                .iter()
                .zip(self.alpha.iter())
                .map(|(k, a)| k * a)
                .sum();
            let mut v = vec![0.0; n];
            for i in 0..n {
                let mut sum = k_star[i];
                for k in 0..i {
                    sum -= self.cholesky[i][k] * v[k];
                }
                v[i] = sum / self.cholesky[i][i];
            }
            let variance_standardized =
                (1.0 + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
            (
                mean_standardized * self.y_std + self.y_mean,
                variance_standardized.sqrt() * self.y_std,
            )
        }
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    /// Dimensions of the test space; 1, 4, 5 and 9 are pinned at 0 between free ones,
    /// leaving 12 free, as in Redis at the default scale.
    const DIMS: usize = 16;

    fn pinned(d: usize) -> bool {
        matches!(d, 1 | 4 | 5 | 9)
    }

    /// A BLISS-like point: every free dimension on a lattice of 2 to 4 levels.
    fn lattice_point(rng: &mut SimRng) -> Vec<f64> {
        (0..DIMS)
            .map(|d| {
                if pinned(d) {
                    0.0
                } else {
                    let levels = 2 + d % 3;
                    rng.index(levels) as f64 / (levels - 1) as f64
                }
            })
            .collect()
    }

    #[test]
    fn lockstep_scoring_is_bit_identical_to_the_textbook_gp() {
        let mut rng = SimRng::new(13);
        let mut fits = 0;
        for length_scale in [0.08, 0.18, 0.35, 0.7] {
            for n in [1, 2, 3, 7, 8, 9, 31, 64, 120] {
                let mut inputs: Vec<Vec<f64>> = (0..n).map(|_| lattice_point(&mut rng)).collect();
                // The lattice's origin: at the 0.08 scale its kernel value against the
                // far corner below underflows to exactly 0.
                inputs[0] = vec![0.0; DIMS];
                let targets: Vec<f64> = (0..n).map(|_| 230.0 + 560.0 * rng.uniform()).collect();
                let mut gp = GaussianProcess::new(length_scale, 1e-3);
                gp.fit(&inputs, &targets);
                let reference = TextbookGp::fit(length_scale, 1e-3, &inputs, &targets);
                let best = targets.iter().copied().fold(f64::INFINITY, f64::min);

                for pool in [1, 7, 9, 193] {
                    let mut points: Vec<Vec<f64>> =
                        (0..pool).map(|_| lattice_point(&mut rng)).collect();
                    // BLISS's incumbent perturbation: off the lattice, and on a dimension
                    // that is 0 in every training input.
                    let last = points.last_mut().expect("pool is non-empty");
                    last[rng.index(DIMS)] = rng.uniform();
                    last[4] = 0.37;
                    if pool > 2 {
                        points[1] = (0..DIMS).map(|d| f64::from(!pinned(d))).collect();
                    }
                    // A training input itself, where the textbook sums are exact zeros.
                    points[0].clone_from(&inputs[rng.index(n)]);

                    let scores = gp.expected_improvements(&points, best);
                    assert_eq!(scores.len(), pool);
                    for (index, (point, score)) in points.iter().zip(&scores).enumerate() {
                        let (mean, std_dev) = reference.predict(point);
                        let expected = improvement(mean, std_dev, best);
                        let context = format!("l={length_scale} n={n} pool={pool}");
                        assert_eq!(score.to_bits(), expected.to_bits(), "EI, {context}");
                        // Single-point calls pad a block with copies of one query.
                        if index >= 9 && index + 1 < pool {
                            continue;
                        }
                        let (got_mean, got_std) = gp.predict(point);
                        assert_eq!(got_mean.to_bits(), mean.to_bits(), "mean, {context}");
                        assert_eq!(got_std.to_bits(), std_dev.to_bits(), "std, {context}");
                        assert_eq!(
                            gp.expected_improvement(point, best).to_bits(),
                            expected.to_bits(),
                            "single EI, {context}"
                        );
                    }
                }
                fits += 1;
            }
        }
        assert_eq!(fits, 36);
    }

    #[test]
    fn refitting_a_smaller_window_reuses_buffers_exactly() {
        // A model refit on a shorter window must not read stale entries of the longer
        // fit's buffers.
        let mut rng = SimRng::new(5);
        let inputs: Vec<Vec<f64>> = (0..40).map(|_| lattice_point(&mut rng)).collect();
        let targets: Vec<f64> = (0..40).map(|_| 300.0 + 100.0 * rng.uniform()).collect();
        let query = lattice_point(&mut rng);
        let mut gp = GaussianProcess::new(0.35, 1e-3);
        gp.fit(&inputs, &targets);
        gp.fit(&inputs[25..], &targets[25..]);
        let mut fresh = GaussianProcess::new(0.35, 1e-3);
        fresh.fit(&inputs[25..], &targets[25..]);
        let (a, b) = (gp.predict(&query), fresh.predict(&query));
        assert_eq!(
            (a.0.to_bits(), a.1.to_bits()),
            (b.0.to_bits(), b.1.to_bits())
        );
    }

    #[test]
    fn interpolates_training_points() {
        let inputs = grid_1d(6);
        let targets: Vec<f64> = inputs.iter().map(|x| 100.0 + 50.0 * x[0]).collect();
        let mut gp = GaussianProcess::new(0.3, 1e-6);
        gp.fit(&inputs, &targets);
        for (x, y) in inputs.iter().zip(targets.iter()) {
            let (mean, _) = gp.predict(x);
            assert!((mean - y).abs() < 1.0, "predicted {mean}, expected {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let inputs = vec![vec![0.0], vec![0.1], vec![0.2]];
        let targets = vec![1.0, 2.0, 3.0];
        let mut gp = GaussianProcess::new(0.1, 1e-4);
        gp.fit(&inputs, &targets);
        let (_, near) = gp.predict(&[0.1]);
        let (_, far) = gp.predict(&[0.9]);
        assert!(far > near * 2.0, "near={near} far={far}");
    }

    #[test]
    fn expected_improvement_prefers_unexplored_promising_regions() {
        // Decreasing function: the minimum continues beyond the sampled range.
        let inputs = grid_1d(5);
        let targets: Vec<f64> = inputs.iter().map(|x| 10.0 - 5.0 * x[0]).collect();
        let mut gp = GaussianProcess::new(0.25, 1e-4);
        gp.fit(&inputs, &targets);
        let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let ei_at_known_bad = gp.expected_improvement(&[0.0], best);
        let ei_at_frontier = gp.expected_improvement(&[1.0], best);
        assert!(ei_at_frontier >= ei_at_known_bad);
    }

    #[test]
    fn standard_normal_is_sane() {
        let (_, cdf0) = standard_normal(0.0);
        assert!((cdf0 - 0.5).abs() < 1e-3);
        let (_, cdf2) = standard_normal(2.0);
        assert!((cdf2 - 0.977).abs() < 5e-3);
        let (_, cdf_neg) = standard_normal(-2.0);
        assert!((cdf_neg - 0.023).abs() < 5e-3);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        GaussianProcess::new(0.5, 1e-3).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_fit_rejected() {
        GaussianProcess::new(0.5, 1e-3).fit(&[vec![0.0]], &[1.0, 2.0]);
    }
}
