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
//! buffer. The inputs, the factor, `alpha` and the fit's group buffers keep their
//! capacity across fits, so a model refit on a sliding window stops reallocating them
//! once the window is full.
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
//! # Fitting
//!
//! The fit factors `K + noise * I` in groups of eight rows. For a row `i` and a column
//! `j < i`, the textbook computes `l_ij = (k_ij - Σ_{k<j} l_ik l_jk) / l_jj`. Read
//! along `j`, that is the forward substitution `L[..j, ..j] x = k_i` with `x_k =
//! l_ik`: each step subtracts `l_jk x_k`, the same product as `l_ik l_jk` because IEEE
//! multiplication is commutative, in the same ascending `k`. So a group's entries left
//! of its first row `g` are one lockstep solve of `L[..g, ..g]` with the group's eight
//! kernel rows as right-hand sides, the same solve that scoring uses. The 8×8 block on
//! the diagonal, the diagonal itself and the `alpha` solves stay scalar, in textbook
//! order. A short final group is padded with copies of its last row, whose results
//! are dropped.
//!
//! # Scaled solve
//!
//! At short length scales most kernel values are tiny, and so is most of `v`: at the
//! 0.08 scale over half of the solve's products in `micro_components`' 120-point
//! window round to a subnormal or to zero, and each such product costs the processor
//! a slow microcode assist. The lockstep solve therefore works on `x' = x · 2^S` with
//! `S = 600` (`SCALE_EXP`), where a product stays normal down to an unscaled
//! `2^-1622`. Every value it returns is still exactly the textbook's:
//!
//! - **Start values.** A lane starts from `b · 2^S`. Scaling a finite double up by a
//!   power of two never rounds, subnormals included.
//! - **Products.** A product whose textbook value is at least `2^-1022` is normal in
//!   both domains, so the scaled product is exactly `2^S` times the textbook's. A zero
//!   factor gives the same signed zero in both.
//! - **Tiny products.** Any smaller product is at most `2^-1022` in both domains after
//!   unscaling. A partial sum of magnitude at least `2^-967` has a quarter-ulp above
//!   `2^-1022`, so subtracting either product leaves it unchanged in both chains.
//! - **Partial sums.** Subtracting a product that is exact in both domains rounds the
//!   same way up to the factor `2^S`: a normal difference rounds to the same
//!   significand, and a difference below `2^-1022` of two multiples of `2^-1074` is
//!   exact in both.
//! - **The division.** A quotient of at least `2^-1021` is normal in both domains and
//!   rounds the same way.
//!
//! The solve checks each row against that window:
//!
//! - **Below the window.** No product can be tiny while every solved `|x'_k|` is
//!   at least `2^(S-1021) / l_min`, where `l_min` is the smallest non-zero `|l_ik|`
//!   of the factor, kept by the fit. From the first solved value below that bound
//!   on, each (row, lane) tracks the smallest of its partial sums, start value and
//!   final sum included. If that falls below `2^(S-967)`, or the quotient below
//!   `2^(S-1021)`, the row of that lane is recomputed unscaled, in textbook order,
//!   from `x_k = x'_k · 2^-S`, and stored as `x · 2^S`. Both steps are exact,
//!   subnormals included. In `micro_components`' 120-point window at the 0.08 scale,
//!   one (row, lane) in 190 is recomputed. At 0.35 no solved value falls below the
//!   bound, so the row loop tracks nothing and recomputes nothing.
//! - **Above the window.** A stored value above `2^(S+200)`, or a non-finite one,
//!   sends the whole block to the textbook loop. Such a value means an unscaled `|x|`
//!   of `2^200` or more, which kernel values never produce. A scaled value that
//!   overflowed would have made its row's solution infinite or NaN, so overflow cannot
//!   move a bit either.
//!
//! The solve unscales its solutions by `2^-S` before returning them, which is exact.
//!
//! [`expected_improvement`]: GaussianProcess::expected_improvement
//! [`expected_improvements`]: GaussianProcess::expected_improvements

/// Queries scored together, and rows factored together, by the lockstep solve.
const LANES: usize = 8;

/// The lockstep solve works on `x · 2^SCALE_EXP`; see "Scaled solve" in the module
/// docs.
const SCALE_EXP: i32 = 600;

/// `2^e`, exactly, for a normal exponent `e`.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Buffers of one lockstep block: eight points, and per training input their kernel
/// values and the solve against them.
#[derive(Debug, Clone, Default)]
struct Lanes {
    /// The block's points, transposed: `query[d][lane]`.
    query: Vec<[f64; LANES]>,
    /// Dimensions where some training input or some point of the block is non-zero.
    active: Vec<usize>,
    /// Per training input `i`: `k(x_i, point)` for each lane's point.
    kernel: Vec<[f64; LANES]>,
    /// Per training input `i`: the solution of `L x = kernel`.
    solved: Vec<[f64; LANES]>,
}

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
    /// The smallest non-zero `|l_ij|` of the factor.
    l_min: f64,
    /// The fit's group buffers.
    group: Lanes,
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
            l_min: f64::INFINITY,
            group: Lanes::default(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// True once [`fit`](Self::fit) has been called with at least one observation.
    pub fn is_fit(&self) -> bool {
        !self.alpha.is_empty()
    }

    /// Training input `i` of the last fit.
    fn input(&self, i: usize) -> &[f64] {
        &self.inputs[i * self.dims..(i + 1) * self.dims]
    }

    /// Loads `point(lane)` into each lane of `lanes` and computes its kernel values
    /// against training inputs `..rows`, in the textbook's evaluation order.
    fn load_kernel<'p>(&self, rows: usize, point: impl Fn(usize) -> &'p [f64], lanes: &mut Lanes) {
        lanes.query.resize(self.dims, [0.0; LANES]);
        for lane in 0..LANES {
            let point = point(lane);
            assert_eq!(
                point.len(),
                self.dims,
                "query dimensionality differs from fit"
            );
            for (column, &x) in lanes.query.iter_mut().zip(point) {
                column[lane] = x;
            }
        }
        let query = &lanes.query;
        lanes.active.clear();
        lanes.active.extend(
            (0..self.dims).filter(|&d| self.nonzero[d] || query[d].iter().any(|&x| x != 0.0)),
        );

        let two_l_squared = 2.0 * self.length_scale * self.length_scale;
        lanes.kernel.clear();
        for i in 0..rows {
            let x = self.input(i);
            let mut squared = [-0.0; LANES];
            for &d in &lanes.active {
                for lane in 0..LANES {
                    squared[lane] += (x[d] - query[d][lane]) * (x[d] - query[d][lane]);
                }
            }
            lanes
                .kernel
                .push(squared.map(|squared| (-squared / two_l_squared).exp()));
        }
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

        // Factor K + noise * I (= L * L^T) in groups of LANES rows; see "Fitting" in the
        // module docs. K is never stored whole: each group computes its own kernel rows.
        let mut l = std::mem::take(&mut self.cholesky);
        l.clear();
        l.resize(row_start(n), 0.0);
        let mut group = std::mem::take(&mut self.group);
        let mut l_min = f64::INFINITY;
        for first in (0..n).step_by(LANES) {
            let end = (first + LANES).min(n);
            self.load_kernel(
                end,
                |lane| self.input((first + lane).min(end - 1)),
                &mut group,
            );
            group.solved.resize(first, [0.0; LANES]);
            forward_solve(&l, l_min, &group.kernel[..first], &mut group.solved);
            for i in first..end {
                let lane = i - first;
                let (rows_before, row_i) = l[..row_start(i + 1)].split_at_mut(row_start(i));
                for (l_ij, solved) in row_i.iter_mut().zip(&group.solved) {
                    *l_ij = solved[lane];
                }
                for j in first..=i {
                    let mut sum = group.kernel[j][lane];
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
            for &l_ij in &l[row_start(first)..row_start(end)] {
                if l_ij != 0.0 && l_ij.abs() < l_min {
                    l_min = l_ij.abs();
                }
            }
        }
        self.group = group;
        self.l_min = l_min;

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

    /// Loads `points` into lanes a block at a time, solves `L v = k` for the block,
    /// and hands the block and its lanes to `each`.
    fn solve_blocks<P: AsRef<[f64]>>(&self, points: &[P], mut each: impl FnMut(&[P], &Lanes)) {
        assert!(self.is_fit(), "predict called before fit");
        let n = self.alpha.len();
        let mut lanes = Lanes::default();
        lanes.solved.resize(n, [0.0; LANES]);
        for block in points.chunks(LANES) {
            self.load_kernel(
                n,
                |lane| block[lane.min(block.len() - 1)].as_ref(),
                &mut lanes,
            );
            forward_solve(&self.cholesky, self.l_min, &lanes.kernel, &mut lanes.solved);
            each(block, &lanes);
        }
    }

    /// Predictive mean and standard deviation at every point, in order, handed to
    /// `emit` (in the original target units). See the module docs for the lockstep
    /// scoring and why it is exact.
    fn posterior<P: AsRef<[f64]>>(&self, points: &[P], mut emit: impl FnMut(f64, f64)) {
        self.solve_blocks(points, |block, lanes| {
            // Sums start at -0.0, as `Iterator::sum` over f64 does: a mean whose every
            // term is -0.0 (underflowed kernel values) keeps the textbook's sign.
            let mut mean = [-0.0; LANES];
            let mut v_dot_v = [-0.0; LANES];
            for ((k, v), &alpha) in lanes.kernel.iter().zip(&lanes.solved).zip(&self.alpha) {
                for lane in 0..LANES {
                    mean[lane] += k[lane] * alpha;
                    v_dot_v[lane] += v[lane] * v[lane];
                }
            }

            for lane in 0..block.len() {
                let variance = (1.0 + self.noise - v_dot_v[lane]).max(1e-12);
                emit(
                    mean[lane] * self.y_std + self.y_mean,
                    variance.sqrt() * self.y_std,
                );
            }
        });
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

    /// [`expected_improvement`](Self::expected_improvement) of every point, in order,
    /// each paired with the point's predictive mean: `(improvement, mean)`. Each value
    /// is bit-identical to scoring or [`predict`](Self::predict)ing its point alone;
    /// scoring a pool in one call is faster.
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if a point differs in length from the
    /// training inputs.
    pub fn expected_improvements<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        best: f64,
    ) -> Vec<(f64, f64)> {
        let mut scores = Vec::with_capacity(points.len());
        self.posterior(points, |mean, std_dev| {
            scores.push((improvement(mean, std_dev, best), mean));
        });
        scores
    }
}

/// Solves `L[..rows, ..rows] x = b` for `LANES` right-hand sides at once, where `l` is
/// a packed lower triangle and `rows = b.len() = x.len()`, and writes the solutions to
/// `x`, bit for bit the textbook's. `l_min` is at most the smallest non-zero `|l_ik|`
/// of those rows. See "Scaled solve" in the module docs.
fn forward_solve(l: &[f64], l_min: f64, b: &[[f64; LANES]], x: &mut [[f64; LANES]]) {
    assert_eq!(b.len(), x.len(), "one solution row per right-hand-side row");
    let scale = pow2(SCALE_EXP);
    let unscale = pow2(-SCALE_EXP);
    // Scaled: the smallest partial sum next to which a tiny product cannot round; the
    // smallest product or quotient known to be normal unscaled, with a binade to spare
    // for the rounding of the check itself; the largest solution.
    let sum_floor = pow2(SCALE_EXP - 967);
    let normal_floor = pow2(SCALE_EXP - 1021);
    let ceiling = pow2(SCALE_EXP + 200);
    // While every solved `|x'_k|` is at least `x_floor`, every non-zero product
    // exceeds `2^(S-1022)`: none is tiny, and no partial sum needs tracking.
    let x_floor = normal_floor / l_min;
    let mut products_normal = true;
    for (i, b_i) in b.iter().enumerate() {
        let row = &l[row_start(i)..row_start(i + 1)];
        let (solved, rest) = x.split_at_mut(i);
        let mut sum = b_i.map(|b| b * scale);
        // Per lane: the smallest partial sum, tracked once a product can be tiny.
        let mut low = [f64::INFINITY; LANES];
        if products_normal {
            for (&l_ik, x_k) in row[..i].iter().zip(solved.iter()) {
                for lane in 0..LANES {
                    sum[lane] -= l_ik * x_k[lane];
                }
            }
        } else {
            low = sum.map(f64::abs);
            for (&l_ik, x_k) in row[..i].iter().zip(solved.iter()) {
                for lane in 0..LANES {
                    sum[lane] -= l_ik * x_k[lane];
                    let magnitude = sum[lane].abs();
                    low[lane] = if low[lane] < magnitude {
                        low[lane]
                    } else {
                        magnitude
                    };
                }
            }
        }
        let x_i = &mut rest[0];
        let mut below = false;
        for lane in 0..LANES {
            x_i[lane] = sum[lane] / row[i];
            below |= (low[lane] < sum_floor) | (x_i[lane].abs() < normal_floor);
        }
        if below {
            for lane in 0..LANES {
                if (low[lane] < sum_floor) | (x_i[lane].abs() < normal_floor) {
                    let mut sum = b_i[lane];
                    for (&l_ik, x_k) in row[..i].iter().zip(solved.iter()) {
                        sum -= l_ik * (x_k[lane] * unscale);
                    }
                    x_i[lane] = sum / row[i] * scale;
                }
            }
        }
        let mut outside = false;
        for x in x_i.iter() {
            let magnitude = x.abs();
            outside |= magnitude.is_nan() | (magnitude > ceiling);
            products_normal &= magnitude >= x_floor;
        }
        if outside {
            textbook_solve(l, b, x);
            return;
        }
    }
    for x_i in x {
        for x in x_i {
            *x *= unscale;
        }
    }
}

/// The textbook's forward substitution, unscaled, each lane in its own order: the
/// fallback of [`forward_solve`] above its window.
fn textbook_solve(l: &[f64], b: &[[f64; LANES]], x: &mut [[f64; LANES]]) {
    for (i, b_i) in b.iter().enumerate() {
        let row = &l[row_start(i)..row_start(i + 1)];
        let (solved, rest) = x.split_at_mut(i);
        let mut sum = *b_i;
        for (&l_ik, x_k) in row[..i].iter().zip(solved.iter()) {
            for lane in 0..LANES {
                sum[lane] -= l_ik * x_k[lane];
            }
        }
        rest[0] = sum.map(|sum| sum / row[i]);
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

        fn k_star(&self, point: &[f64]) -> Vec<f64> {
            self.inputs.iter().map(|x| self.kernel(x, point)).collect()
        }

        /// The solution `v` of `L v = k*` at `point`.
        #[allow(clippy::needless_range_loop)]
        fn solve(&self, point: &[f64]) -> Vec<f64> {
            let n = self.inputs.len();
            let k_star = self.k_star(point);
            let mut v = vec![0.0; n];
            for i in 0..n {
                let mut sum = k_star[i];
                for k in 0..i {
                    sum -= self.cholesky[i][k] * v[k];
                }
                v[i] = sum / self.cholesky[i][i];
            }
            v
        }

        fn predict(&self, point: &[f64]) -> (f64, f64) {
            let mean_standardized: f64 = self
                .k_star(point)
                .iter()
                .zip(self.alpha.iter())
                .map(|(k, a)| k * a)
                .sum();
            let v = self.solve(point);
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
            // Sizes on both sides of the fit's 8-row group edges.
            for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 120] {
                let mut inputs: Vec<Vec<f64>> = (0..n).map(|_| lattice_point(&mut rng)).collect();
                // The lattice's origin: at the 0.08 scale its kernel value against the
                // far corner below underflows to exactly 0.
                inputs[0] = vec![0.0; DIMS];
                let targets: Vec<f64> = (0..n).map(|_| 230.0 + 560.0 * rng.uniform()).collect();
                let mut gp = GaussianProcess::new(length_scale, 1e-3);
                gp.fit(&inputs, &targets);
                let reference = TextbookGp::fit(length_scale, 1e-3, &inputs, &targets);
                let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
                let context = format!("l={length_scale} n={n}");
                for (i, row) in reference.cholesky.iter().enumerate() {
                    for (j, l_ij) in row[..=i].iter().enumerate() {
                        let got = gp.cholesky[row_start(i) + j];
                        assert_eq!(got.to_bits(), l_ij.to_bits(), "L[{i}][{j}], {context}");
                    }
                }
                for (i, (got, alpha)) in gp.alpha.iter().zip(&reference.alpha).enumerate() {
                    assert_eq!(got.to_bits(), alpha.to_bits(), "alpha[{i}], {context}");
                }
                let l_min = (0..n)
                    .flat_map(|i| &reference.cholesky[i][..=i])
                    .filter(|l_ij| **l_ij != 0.0)
                    .fold(f64::INFINITY, |min, l_ij| min.min(l_ij.abs()));
                assert_eq!(gp.l_min, l_min, "l_min, {context}");

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

                    let mut solved = 0;
                    gp.solve_blocks(&points, |block, lanes| {
                        for (lane, point) in block.iter().enumerate() {
                            let v = reference.solve(point);
                            for (i, (got, v_i)) in lanes.solved.iter().zip(&v).enumerate() {
                                assert_eq!(got[lane].to_bits(), v_i.to_bits(), "v[{i}], {context}");
                            }
                            solved += 1;
                        }
                    });
                    assert_eq!(solved, pool);

                    let scores = gp.expected_improvements(&points, best);
                    assert_eq!(scores.len(), pool);
                    for (index, (point, &(score, pool_mean))) in
                        points.iter().zip(&scores).enumerate()
                    {
                        let (mean, std_dev) = reference.predict(point);
                        let expected = improvement(mean, std_dev, best);
                        let context = format!("{context} pool={pool}");
                        assert_eq!(score.to_bits(), expected.to_bits(), "EI, {context}");
                        assert_eq!(pool_mean.to_bits(), mean.to_bits(), "pool mean, {context}");
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
        assert_eq!(fits, 48);
    }

    /// Packs the rows of a lower triangle.
    fn packed(rows: &[&[f64]]) -> Vec<f64> {
        rows.iter().flat_map(|row| row.iter().copied()).collect()
    }

    /// Runs the scaled solve on `b` and checks it against the textbook loop, lane by
    /// lane and bit for bit; returns the solution.
    fn solve_checked(l: &[f64], l_min: f64, b: &[[f64; LANES]]) -> Vec<[f64; LANES]> {
        let mut x = vec![[f64::NAN; LANES]; b.len()];
        forward_solve(l, l_min, b, &mut x);
        let mut expected = vec![[f64::NAN; LANES]; b.len()];
        textbook_solve(l, b, &mut expected);
        for (i, (got, expected)) in x.iter().zip(&expected).enumerate() {
            for lane in 0..LANES {
                assert_eq!(
                    got[lane].to_bits(),
                    expected[lane].to_bits(),
                    "x[{i}] lane {lane}"
                );
            }
        }
        x
    }

    #[test]
    fn scaled_solve_recomputes_rows_below_its_window() {
        // 2^-1074, the smallest subnormal.
        let tiny = f64::from_bits(1);
        // Each product 0.75 * 4097 * 2^-1074 rounds to 3073 * 2^-1074 in the textbook
        // but is exact in the scaled domain, which would end on 7165.75 * 2^-1074 and
        // round to 7166 instead of 7165. Lane `lane` scales the system by 2^(40 lane),
        // which lifts the later lanes into the window, where no row is recomputed.
        let l = packed(&[
            &[1.0],
            &[0.0, 1.0],
            &[0.0, 0.0, 1.0],
            &[0.75, 0.75, 0.75, 1.0],
        ]);
        let b: Vec<[f64; LANES]> = [4097.0, 4097.0, 4097.0, 16384.0]
            .iter()
            .map(|&units| std::array::from_fn(|lane| units * tiny * pow2(40 * lane as i32)))
            .collect();
        let x = solve_checked(&l, 0.75, &b);
        assert_eq!(x[3][0], 7165.0 * tiny);
        assert_eq!(x[3][7], 7165.75 * pow2(-794));

        // A quotient that is subnormal in the textbook: 2 * 2^-1074 over the double
        // just below 0.8 is 2.5000000000000004 units and rounds to 3, but rounding it
        // first to 53 bits in the scaled domain gives 2.5, which then rounds to 2.
        let l = packed(&[&[0.7999999999999999]]);
        let x = solve_checked(&l, 0.7999999999999999, &[[2.0 * tiny; LANES]]);
        assert_eq!(x[0][0], 3.0 * tiny);

        // A row whose final sum is inside the window but whose partial sums are not.
        // It starts like the first case: -3073 units in the textbook, -3072.75 scaled.
        // Each later product q_n turns the textbook's sum into a tie that rounds to
        // even, away from the scaled sum, and doubles the gap: after step n both are
        // near -2^(n-1022) and 2^n units apart. After 55 steps the sums are at
        // 2^-967, with no subnormal left, and still one ulp apart.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut b = vec![4097.0 * tiny];
        let mut step = tiny;
        for n in 1..=55 {
            let q = if n == 1 {
                (2f64.powi(53) - 3070.0) * tiny
            } else {
                (2f64.powi(52) + 1.0) * step
            };
            step *= 2.0;
            b.push(q);
        }
        for (i, _) in b.iter().enumerate() {
            let mut row = vec![0.0; i + 1];
            row[i] = 1.0;
            rows.push(row);
        }
        let mut last = vec![1.0; b.len() + 1];
        last[0] = 0.75;
        rows.push(last);
        b.push(0.0);
        let l = packed(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let b: Vec<[f64; LANES]> = b.iter().map(|&b| [b; LANES]).collect();
        let x = solve_checked(&l, 0.75, &b);
        assert_eq!(x[56][0], -(2f64.powi(52) + 2.0) * pow2(-1019));
    }

    #[test]
    fn scaled_solve_falls_back_above_its_window() {
        // Scaled by 2^600, x_0 = 2^423 is 2^1023, above the window, and x_1 = 2^424
        // would overflow to infinity. Lanes 1-7 stay small but share the fallback.
        let l = packed(&[&[1.0], &[-1.0, 1.0]]);
        let big = pow2(423);
        let b = [
            std::array::from_fn(|lane| if lane == 0 { big } else { 1.0 }),
            std::array::from_fn(|lane| if lane == 0 { big } else { 1.0 }),
        ];
        let x = solve_checked(&l, 1.0, &b);
        assert_eq!(x[1][0], pow2(424));
        assert_eq!(x[1][1], 2.0);
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
