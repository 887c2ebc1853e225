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
//! once the window is full. Each model also keeps a kernel memo of 32 KB (see "Kernel
//! memo") for its whole life.
//!
//! # Scoring
//!
//! Scoring has two entry points, [`predict`](GaussianProcess::predict) and
//! [`best_expected_improvement`], and both work on lockstep blocks of `LANES` (8)
//! points. Loading a block computes, for each point, the kernel vector `k`, the mean
//! `k · alpha` and `‖k‖²`; a far point (see "Far queries") needs nothing more. Solving
//! a block solves `L v = k` for all eight lanes in lockstep, one row of `L` at a time,
//! and sums `v · v` for each variance. A short block is padded with copies of its last
//! point, whose results are dropped. `predict` loads its one point as such a block and
//! solves it unless it is far. `best_expected_improvement`, which BLISS and the hybrid
//! strategy call, loads a whole pool, returns only its argmax, and solves only the
//! candidates that can win it (see "Acquisition bound").
//!
//! The lanes are exact. Each lane is an independent chain that accumulates its own
//! sums in the same order as the textbook single-point code, which the tests keep as a
//! reference. No sum is split, reassociated or shared between lanes, so a query's
//! results do not depend on which queries share its block or its solve. The gain is
//! overlap: a triangular solve is one long chain of dependent subtractions, and eight
//! independent chains side by side keep the floating-point units busy where one chain
//! would wait on its own previous step.
//!
//! A squared distance skips a coordinate only where every training input and every
//! query of the block is 0. Such a term is `(0 - 0)^2 = +0`. Adding `+0` to a sum of
//! squares changes at most the sign of a zero sum, and the kernel maps both zeros to
//! `exp(-0) = 1`, so the skip is exact. BLISS's normalised inputs are 0 on every
//! dimension the scaled space pins, which is 24 of Redis's 36 at the default scale.
//!
//! # Kernel memo
//!
//! BLISS's inputs and candidates are vectors of normalised parameter levels, so the
//! same squared distances come back again and again: one `baselines` campaign of the
//! repository benchmark evaluates the kernel 16.0 million times. Each model therefore
//! keeps a direct-mapped memo from the bits of a computed squared distance `d` to its
//! kernel value `exp(-d / 2l²)`. It has `MEMO_SLOTS` (2,048) slots of 16 bytes, the
//! key's 64 bits and the value, so 32 KB per model and 128 KB for BLISS's four. A key
//! has exactly one slot, picked by the top bits of its product with a Fibonacci
//! multiplier, and a lookup whose slot holds another key computes the value as the
//! textbook does and takes the slot over.
//!
//! The memo is exact. A model's length scale never changes, so its kernel value is a
//! function of `d` alone, and `exp` is a pure function of its input's bits. A slot
//! answers only a key equal to all 64 bits of `d`, and every slot starts out holding `d
//! = +0` with the value the same expression gives it. So the fit, `alpha`, the far-query
//! rule and every solve see exactly the kernel values they would compute.
//!
//! In that campaign 0.95% of the lookups missed at seed 7, and 0.90% at seed 311. At
//! seed 7, 4,096 slots missed 0.60%, but the campaign's peak memory read 5.8% above no
//! memo's, against 2.2% with 2,048 (medians of 10 runs).
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
//! are dropped. Every entry comes out in textbook order whichever group it falls in.
//!
//! # Refits
//!
//! Row `i` of `L` depends on the inputs up to `i` and on nothing else. So when the last
//! fit's inputs are, bit for bit, the first rows of this fit's, the fit keeps those rows
//! of `L` and factors only the rows after them, in groups of eight from the first new
//! row. That is BLISS's growing window: a model picked again after
//! a few steps extends its factor by the observations made since. `alpha` depends on
//! every target through their mean and deviation, so it is solved in full at every fit.
//! A window that has slid has lost its first row, which every later row of `L` depends
//! on, so it is factored afresh, and so is a shorter one.
//!
//! # Far queries
//!
//! The variance is `fl(a - v · v)` with `a = fl(1 + noise) ≥ 1`. A computed `v · v`
//! below `2^-54`, which is a quarter ulp of `a` or less, leaves `a` unchanged: the
//! difference is nearer to `a` than to the double below it. A query whose kernel vector
//! is small enough has such a `v · v`, and its variance is exactly `a`, solve or no
//! solve. The fit derives a threshold `T` from the noise, the row count `n` and the
//! dimensionality `d`, and a query whose computed `‖k‖²` is below `T` is far. With
//! `u = 2^-53` and `γ_m = m u / (1 - m u)`:
//!
//! - **The matrix.** The fit factors `A = K̂ + noise · I` as computed: the kernel
//!   values `K̂`, and a diagonal of `a`. The exact kernel matrix of the same inputs,
//!   `K`, is positive semidefinite, and every entry of `A - noise · I` is within `(d +
//!   7 + noise) u` of it. The squared distance carries a relative error of at most
//!   `γ_{d+4}` into the exponent `x`, which `x e^-x ≤ 1/e` turns into an absolute error
//!   below `γ_{d+4} / e`; `exp` adds at most 2 ulp; the diagonal rounds `1 + noise`
//!   once. So `λ_min(A) ≥ noise - n (d + 7 + noise) u`.
//! - **The factor.** Cholesky's backward error (Higham, *Accuracy and Stability of
//!   Numerical Algorithms*, 2nd ed., Thm 10.3) gives `L Lᵀ = A + ΔA` with `|ΔA| ≤
//!   γ_{n+1} |L| |Lᵀ|`. Every row of `L` has `‖l_i‖² = a + ΔA_ii ≤ r = a / (1 -
//!   γ_{n+1})`, so `‖ΔA‖₂ ≤ n γ_{n+1} r` and `λ_min(L Lᵀ) ≥ noise - δ`, with `δ = n (d
//!   + 7 + noise) u + n γ_{n+1} r`.
//! - **The solve.** Forward substitution's backward error (Thm 8.5) gives `(L + ΔL) v =
//!   k` with `|ΔL| ≤ γ_n |L|`, so `‖ΔL‖₂ ≤ γ_n ‖L‖_F ≤ γ_n (n r)^½`, and the smallest
//!   singular value of `L + ΔL` is at least `σ = (noise - δ)^½ - γ_n (n r)^½`.
//! - **The sum.** `‖v‖ ≤ ‖k‖ / σ`, and the computed `v · v` is at most `(1 + γ_{n+1})
//!   ‖v‖²`.
//!
//! `T = σ² · 2^-55` keeps the computed `v · v` below `2^-54` with a factor of two to
//! spare. The spare covers the rounding of `‖k‖²`, of `v · v` and of `T` itself, and
//! gradual underflow, which adds at most `2^-1075` per operation. The argument also
//! needs every pivot of the fit to be the one the recurrence defines, not its clamp at
//! `10^-12`. Each pivot is within a factor `1 ± γ_{n+1}` of a pivot of `L Lᵀ`, which is
//! at least `λ_min(L Lᵀ) ≥ noise - δ`, so the rule asks for `noise - δ ≥ 2^-38`.
//!
//! **Where the rule is off.** `T` is 0, and every query is solved, where `noise - δ <
//! 2^-38` or `σ ≤ 0`: where the noise does not stand well clear of the rounding of an
//! `n`-row fit in `d` dimensions, about `n (n + d) u`. At BLISS's 120 rows and 36
//! dimensions that is a noise below about 6·10^-12. At BLISS's noise of 10^-3, `T` is
//! `noise · 2^-55` to 8 digits.
//!
//! The bound is loose, because `‖v‖² ≈ ‖k‖² / noise` needs `k` along the factor's
//! smallest singular directions, which a kernel vector with no negative entry meets
//! only in part. In the tests, a row of six inputs a quarter length scale apart, queried
//! along its line, brings `v · v` to about 3.1 `‖k‖²` at noise 0.1; there the first
//! query whose variance moves has `‖k‖² ≈ 13 T`. In the `baselines` workload of the
//! repository benchmark, 98.6% of the 0.08-scale candidates and 74% of the 0.18-scale
//! ones are far; at 0.35 and 0.7 none is.
//!
//! # Acquisition bound
//!
//! BLISS uses only the argmax of its pool's expected improvements (EI), the first of
//! tied maxima, and few candidates can reach it. The hybrid strategy wants the last of
//! tied maxima, and passes its pool reversed. [`best_expected_improvement`] works in two
//! passes:
//!
//! - **Pass one** loads the pool in lockstep blocks (see "Scoring"), computing every
//!   candidate's kernel vector, mean and `‖k‖²`. A far candidate gets its EI there.
//!   A near candidate gets a bound instead: its EI at the prior deviation
//!   `σ_p = fl(√fl(1 + noise)) · y_std`, a far query's, plus a slack of
//!   `10^-6 (|best - mean| + that EI)`.
//! - **Pass two** takes the near candidates whose bound is at least the best EI found
//!   so far, the eight highest bounds first (a selection, not a sort), reloads their
//!   kernel vectors, solves them in one lockstep block and scores them; it repeats until
//!   no bound reaches the best EI. The reload is exact, because a point's kernel values
//!   do not depend on its block (see "Scoring"), and cheap, because every squared
//!   distance was just looked up in the memo.
//!
//! A tie goes to the lower index whatever the order, so the result is the first of
//! tied maxima. Why the pick and its mean keep their bits, with `d = best - mean`:
//!
//! 1. **The computed σ is never above `σ_p`.** A near candidate's is `fl(√max(fl(a -
//!    w), 10^-12)) · y_std`, with `a = fl(1 + noise)` and a computed `w = v · v ≥ 0`.
//!    Subtraction, `max`, `sqrt` and the product with `y_std > 0` are each monotone in
//!    floating point, and `w = 0` gives `σ_p`.
//! 2. **The exact EI grows with σ.** `EI(σ) = d Φ(d/σ) + σ φ(d/σ)` has `∂EI/∂σ =
//!    φ(d/σ) ≥ 0`, and it tends to `max(d, 0)` as σ falls to 0, which is what
//!    [`improvement`] returns below `σ = 10^-12`.
//! 3. **The implemented CDF is Abramowitz–Stegun 26.2.17**, whose error is below
//!    7.5·10^-8 (7.45·10^-8 at its worst, near `|z| = 0.72`). The computed EI is
//!    therefore within `7.5·10^-8 |d|` of the exact EI at the same σ, before rounding,
//!    and an EI at σ is at most the one at `σ_p` plus `1.5·10^-7 |d|`.
//! 4. **Rounding is far below the slack.** `z`, `φ`, the polynomial, the products and
//!    the sum round to a few ulps, about `10^-15 (|d| + EI)`, against a slack of at
//!    least `10^-6 (|d| + EI(σ_p))`. Some slack is needed: where `z` is large and the
//!    EI is close to `d`, the computed EI falls by an ulp here and there as σ grows.
//! 5. **So a pruned candidate loses.** A candidate is pruned only when its bound is
//!    below the best EI found, and by 1–4 its computed EI is at most its bound, so it
//!    is strictly below the pick's and can neither win nor tie. Every candidate that
//!    can reach the pick gets the EI of the mean and deviation
//!    [`predict`](GaussianProcess::predict) gives it alone: a far one in pass one, a near
//!    one from the same kernel values and a lockstep solve whose lanes are independent.
//!    Each mean is pass one's.
//!
//! Every BLISS outcome is therefore unchanged. In one `baselines` campaign of the
//! repository benchmark at seed 1409 (a scratch copy that counted), the lockstep solve
//! blocks of scoring every candidate went from 166, 1,187, 6,000 and 3,150 at the 0.08, 0.18, 0.35
//! and 0.7 length scales to 166, 250, 240 and 135: 10,503 to 791. Pass two solved 386 of
//! the 453 near candidates at 0.08, 1,934 of 8,926 at 0.18, 1,920 of 46,320 at 0.35 and
//! 1,039 of 24,318 at 0.7. At 0.08 a step has two or three near candidates, close to
//! the data, which usually bound above the far ones' best and so are solved.
//!
//! [`best_expected_improvement`]: GaussianProcess::best_expected_improvement

use std::cell::RefCell;

/// Queries scored together, and rows factored together, by the lockstep solve.
const LANES: usize = 8;

/// Slots of a model's kernel memo; see "Kernel memo" in the module docs.
const MEMO_SLOTS: usize = 2048;

/// The slack of a near point's acquisition bound, relative to `|best - mean|` plus the
/// bound itself; see "Acquisition bound" in the module docs.
const BOUND_SLACK: f64 = 1e-6;

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

/// A direct-mapped memo of one model's kernel, from the bits of a squared distance `d`
/// to `exp(-d / 2l²)`: each `d` has exactly one slot, which holds the last `d` looked
/// up there. See "Kernel memo" in the module docs.
#[derive(Debug, Clone)]
struct KernelMemo {
    /// `2 l²` for the model's length scale `l`.
    two_l_squared: f64,
    /// Per slot: the bits of a squared distance and its kernel value.
    slots: Vec<(u64, f64)>,
}

impl KernelMemo {
    /// A memo of `slots` slots, a power of two, each holding `d = +0`.
    fn new(length_scale: f64, slots: usize) -> Self {
        let two_l_squared = 2.0 * length_scale * length_scale;
        let zero = (0.0f64.to_bits(), (-0.0 / two_l_squared).exp());
        Self {
            two_l_squared,
            slots: vec![zero; slots],
        }
    }

    /// The kernel value of a squared distance, computed on a miss.
    fn kernel(&mut self, squared: f64) -> f64 {
        let key = squared.to_bits();
        // Fibonacci hashing: the product's top bits depend on every bit of the key.
        let hash = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros());
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[hash as usize & mask];
        if slot.0 != key {
            *slot = (key, (-squared / self.two_l_squared).exp());
        }
        slot.1
    }
}

/// A Gaussian process with a radial-basis-function kernel, fit to normalised inputs in
/// `[0, 1]^d`.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    noise: f64,
    /// The kernel memo, kept for the model's life. Scoring takes `&self`, so the memo
    /// is a `RefCell`, borrowed while a block's kernel values are computed.
    memo: RefCell<KernelMemo>,
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
    /// A query whose kernel vector has a computed `‖k‖²` below this is far: its
    /// variance is `1 + noise` without a solve. See "Far queries" in the module docs.
    far_threshold: f64,
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
            noise,
            memo: RefCell::new(KernelMemo::new(length_scale, MEMO_SLOTS)),
            dims: 0,
            inputs: Vec::new(),
            nonzero: Vec::new(),
            alpha: Vec::new(),
            cholesky: Vec::new(),
            far_threshold: 0.0,
            group: Lanes::default(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// True once [`fit`](Self::fit) has been called with at least one observation.
    fn is_fit(&self) -> bool {
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

        let mut memo = self.memo.borrow_mut();
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
                .push(squared.map(|squared| memo.kernel(squared)));
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
        // The rows of the last fit, when its inputs are bit for bit this fit's first
        // rows: their factor stands. See "Refits" in the module docs.
        let last = self.alpha.len();
        let kept = if dims == self.dims
            && last <= n
            && (0..last).all(|i| {
                let (new, old) = (&inputs[i], self.input(i));
                new.iter().zip(old).all(|(a, b)| a.to_bits() == b.to_bits())
            }) {
            last
        } else {
            0
        };
        self.dims = dims;
        self.y_mean = dg_stats::mean(targets);
        self.y_std = dg_stats::std_dev(targets).max(1e-9);

        if kept == 0 {
            self.inputs.clear();
            self.nonzero.clear();
            self.nonzero.resize(dims, false);
        }
        for input in &inputs[kept..] {
            self.inputs.extend_from_slice(input);
            for (flag, &x) in self.nonzero.iter_mut().zip(input) {
                *flag |= x != 0.0;
            }
        }

        // Factor K + noise * I (= L * L^T) in groups of LANES rows from the first row
        // not kept; see "Fitting" in the module docs. K is never stored whole: each
        // group computes its own kernel rows.
        let mut l = std::mem::take(&mut self.cholesky);
        l.truncate(row_start(kept));
        l.resize(row_start(n), 0.0);
        let mut group = std::mem::take(&mut self.group);
        for first in (kept..n).step_by(LANES) {
            let end = (first + LANES).min(n);
            self.load_kernel(
                end,
                |lane| self.input((first + lane).min(end - 1)),
                &mut group,
            );
            group.solved.resize(first, [0.0; LANES]);
            forward_solve(&l, &group.kernel[..first], &mut group.solved);
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
        }
        self.group = group;
        self.far_threshold = far_threshold(n, dims, self.noise);

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

    /// Loads a block of up to `LANES` points, its last point repeated into the spare
    /// lanes, and returns each lane's standardised mean `k · alpha` and `‖k‖²`.
    fn load_block<P: AsRef<[f64]>>(
        &self,
        block: &[P],
        lanes: &mut Lanes,
    ) -> ([f64; LANES], [f64; LANES]) {
        self.load_kernel(
            self.alpha.len(),
            |lane| block[lane.min(block.len() - 1)].as_ref(),
            lanes,
        );
        // Sums start at -0.0, as `Iterator::sum` over f64 does: a mean whose every term
        // is -0.0 (underflowed kernel values) keeps the textbook's sign.
        let mut mean = [-0.0; LANES];
        let mut norm = [-0.0; LANES];
        for (k, &alpha) in lanes.kernel.iter().zip(&self.alpha) {
            for lane in 0..LANES {
                mean[lane] += k[lane] * alpha;
                norm[lane] += k[lane] * k[lane];
            }
        }
        (mean, norm)
    }

    /// Solves `L v = k` in lockstep for the kernel vectors in `lanes.kernel`, into
    /// `lanes.solved`, and returns each lane's `v · v`.
    fn solve_lanes(&self, lanes: &mut Lanes) -> [f64; LANES] {
        lanes.solved.resize(lanes.kernel.len(), [0.0; LANES]);
        forward_solve(&self.cholesky, &lanes.kernel, &mut lanes.solved);
        let mut v_dot_v = [-0.0; LANES];
        for v in &lanes.solved {
            for lane in 0..LANES {
                v_dot_v[lane] += v[lane] * v[lane];
            }
        }
        v_dot_v
    }

    /// A standardised mean in the original target units.
    fn target_mean(&self, mean: f64) -> f64 {
        mean * self.y_std + self.y_mean
    }

    /// The predictive standard deviation, in the original target units, of a query
    /// whose `v · v` is `v_dot_v`; `v_dot_v = 0` gives a far query's, the prior's.
    fn target_std_dev(&self, v_dot_v: f64) -> f64 {
        (1.0 + self.noise - v_dot_v).max(1e-12).sqrt() * self.y_std
    }

    /// Predictive mean and standard deviation at `point` (in the original target units).
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if `point` differs in length from the
    /// training inputs.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        assert!(self.is_fit(), "predict called before fit");
        let mut lanes = Lanes::default();
        let (mean, norm) = self.load_block(&[point], &mut lanes);
        let v_dot_v = if norm[0] < self.far_threshold {
            0.0
        } else {
            self.solve_lanes(&mut lanes)[0]
        };
        (self.target_mean(mean[0]), self.target_std_dev(v_dot_v))
    }

    /// The point of highest expected improvement over `best` (minimisation), the first
    /// of tied maxima, as `(index, improvement, mean)`: bit for bit the argmax of the
    /// improvements that each point's [`predict`](Self::predict)ed mean and deviation
    /// give, with that mean. Only the points whose improvement can reach the highest
    /// one found so far are solved; see "Acquisition bound" in the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, if the GP has not been fit, or if a point differs in
    /// length from the training inputs.
    pub fn best_expected_improvement<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        best: f64,
    ) -> (usize, f64, f64) {
        let prior = self.target_std_dev(0.0);
        self.best_within(points, best, |_, mean| improvement_bound(mean, prior, best))
    }

    /// [`best_expected_improvement`](Self::best_expected_improvement), with `bound(index,
    /// mean)` as the bound of a near point's improvement. It must be at least the
    /// improvement the point's solve gives; a NaN bound never prunes.
    fn best_within<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        best: f64,
        bound: impl Fn(usize, f64) -> f64,
    ) -> (usize, f64, f64) {
        assert!(!points.is_empty(), "no point to pick from");
        assert!(self.is_fit(), "predict called before fit");
        let prior = self.target_std_dev(0.0);
        let mut lanes = Lanes::default();
        // The pick so far, as `(index, improvement, mean)`.
        let mut pick = (usize::MAX, f64::NEG_INFINITY, f64::NAN);
        // Pass one: every far point's improvement, and every near point's bound, index
        // and mean.
        let mut near = Vec::new();
        for (block_index, block) in points.chunks(LANES).enumerate() {
            let (means, norms) = self.load_block(block, &mut lanes);
            for lane in 0..block.len() {
                let index = block_index * LANES + lane;
                let mean = self.target_mean(means[lane]);
                if norms[lane] < self.far_threshold {
                    let score = improvement(mean, prior, best);
                    keep_first_best(&mut pick, (index, score, mean));
                } else {
                    near.push((bound(index, mean), index, mean));
                }
            }
        }
        // Pass two: the near points whose bound reaches the pick, the highest bounds
        // first, solved in lockstep blocks.
        loop {
            near.retain(|&(bound, ..)| bound >= pick.1 || bound.is_nan());
            if near.is_empty() {
                return pick;
            }
            let count = near.len().min(LANES);
            if near.len() > LANES {
                near.select_nth_unstable_by(LANES - 1, |a, b| b.0.total_cmp(&a.0));
            }
            let block = &near[..count];
            self.load_kernel(
                self.alpha.len(),
                |lane| points[block[lane.min(count - 1)].1].as_ref(),
                &mut lanes,
            );
            let v_dot_v = self.solve_lanes(&mut lanes);
            for (&(_, index, mean), v_dot_v) in block.iter().zip(v_dot_v) {
                let score = improvement(mean, self.target_std_dev(v_dot_v), best);
                keep_first_best(&mut pick, (index, score, mean));
            }
            near.drain(..count);
        }
    }
}

/// Makes `candidate`, an `(index, improvement, mean)`, the pick if its improvement is
/// higher, or equal at a lower index: the first of tied maxima, in any order of calls.
fn keep_first_best(pick: &mut (usize, f64, f64), candidate: (usize, f64, f64)) {
    if candidate.1 > pick.1 || (candidate.1 == pick.1 && candidate.0 < pick.0) {
        *pick = candidate;
    }
}

/// The far-query threshold of a fit of `rows` inputs of `dims` dimensions: a query
/// whose kernel vector has a computed `‖k‖²` below it has a computed `v · v` below
/// `2^-54`, a quarter ulp of `1 + noise`. 0 where the bound gives none. See "Far
/// queries" in the module docs.
fn far_threshold(rows: usize, dims: usize, noise: f64) -> f64 {
    let unit = pow2(-53);
    let gamma = |m: usize| m as f64 * unit / (1.0 - m as f64 * unit);
    let n = rows as f64;
    // The bound on every row's squared norm in the factor.
    let row_norm = (1.0 + noise) / (1.0 - gamma(rows + 1));
    let delta = n * (dims as f64 + 7.0 + noise) * unit + n * gamma(rows + 1) * row_norm;
    let slack = noise - delta;
    // A lower bound on the smallest singular value of the perturbed factor; 0 where
    // the slack is too small (or NaN) for the bound to hold.
    let sigma = if slack >= pow2(-38) {
        slack.sqrt() - gamma(rows) * (n * row_norm).sqrt()
    } else {
        0.0
    };
    if sigma > 0.0 {
        sigma * sigma * pow2(-55)
    } else {
        0.0
    }
}

/// Solves `L[..rows, ..rows] x = b` for `LANES` right-hand sides at once, where `l` is
/// a packed lower triangle and `rows = b.len() = x.len()`, and writes the solutions to
/// `x`: the textbook's forward substitution, each lane in its own order.
fn forward_solve(l: &[f64], b: &[[f64; LANES]], x: &mut [[f64; LANES]]) {
    assert_eq!(b.len(), x.len(), "one solution row per right-hand-side row");
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

/// An upper bound on the expected improvement over `best` of a prediction with `mean`
/// and any standard deviation up to `prior`, as [`improvement`] computes it. See
/// "Acquisition bound" in the module docs.
fn improvement_bound(mean: f64, prior: f64, best: f64) -> f64 {
    let bound = improvement(mean, prior, best);
    bound + BOUND_SLACK * ((best - mean).abs() + bound)
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

    /// The batteries' reference scorer: the pool in lockstep blocks of eight, as
    /// `load_block` loads them, every block solved whole. `each` gets every point's
    /// index, its standardised mean and `v · v`, and its solution `v` of `L v = k` as
    /// lane `lane` of `(solved, lane)`, `solved[i][lane]`; a far point gets `v · v = 0`,
    /// which gives its variance exactly, and no solution.
    fn score_blocks<P: AsRef<[f64]>>(
        gp: &GaussianProcess,
        points: &[P],
        mut each: impl FnMut(usize, f64, f64, Option<(&[[f64; LANES]], usize)>),
    ) {
        let mut lanes = Lanes::default();
        for (block_index, block) in points.chunks(LANES).enumerate() {
            let (mean, norm) = gp.load_block(block, &mut lanes);
            let v_dot_v = gp.solve_lanes(&mut lanes);
            for lane in 0..block.len() {
                let index = block_index * LANES + lane;
                if norm[lane] < gp.far_threshold {
                    each(index, mean[lane], 0.0, None);
                } else {
                    let solved = lanes.solved.as_slice();
                    each(index, mean[lane], v_dot_v[lane], Some((solved, lane)));
                }
            }
        }
    }

    /// Every point's predictive mean and standard deviation through [`score_blocks`],
    /// as bits.
    fn posterior_bits(gp: &GaussianProcess, points: &[Vec<f64>]) -> Vec<(u64, u64)> {
        let mut posterior = vec![(0, 0); points.len()];
        score_blocks(gp, points, |index, mean, v_dot_v, _| {
            let (mean, std_dev) = (gp.target_mean(mean), gp.target_std_dev(v_dot_v));
            posterior[index] = (mean.to_bits(), std_dev.to_bits());
        });
        posterior
    }

    /// Every point's expected improvement over `best` through [`score_blocks`], with
    /// its predictive mean: `(improvement, mean)`.
    fn expected_improvements(
        gp: &GaussianProcess,
        points: &[Vec<f64>],
        best: f64,
    ) -> Vec<(f64, f64)> {
        let mut scores = vec![(f64::NAN, f64::NAN); points.len()];
        score_blocks(gp, points, |index, mean, v_dot_v, _| {
            let mean = gp.target_mean(mean);
            scores[index] = (improvement(mean, gp.target_std_dev(v_dot_v), best), mean);
        });
        scores
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

                    // A solved query has the textbook's `v`, and a far one a textbook
                    // variance of exactly `1 + noise`.
                    score_blocks(&gp, &points, |index, _, _, solved| {
                        let v = reference.solve(&points[index]);
                        match solved {
                            Some((solved, lane)) => {
                                for (i, (got, v_i)) in solved.iter().zip(&v).enumerate() {
                                    assert_eq!(
                                        got[lane].to_bits(),
                                        v_i.to_bits(),
                                        "v[{i}], {context}"
                                    );
                                }
                            }
                            None => {
                                let v_dot_v: f64 = v.iter().map(|x| x * x).sum();
                                assert_eq!(1.0 + 1e-3 - v_dot_v, 1.0 + 1e-3, "far, {context}");
                            }
                        }
                    });

                    let scores = expected_improvements(&gp, &points, best);
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
                            pick_bits(gp.best_expected_improvement(&[point], best)),
                            pick_bits((0, expected, mean)),
                            "single EI, {context}"
                        );
                    }
                }
                fits += 1;
            }
        }
        assert_eq!(fits, 48);
    }

    /// Checks a refit model against a fresh fit of the same window, bit for bit: the
    /// factor, `alpha`, the far threshold, and the posterior of every query.
    fn assert_same_fit(
        gp: &GaussianProcess,
        fresh: &GaussianProcess,
        queries: &[Vec<f64>],
        context: &str,
    ) {
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gp.cholesky), bits(&fresh.cholesky), "L, {context}");
        assert_eq!(bits(&gp.alpha), bits(&fresh.alpha), "alpha, {context}");
        let far = (gp.far_threshold.to_bits(), fresh.far_threshold.to_bits());
        assert_eq!(far.0, far.1, "far threshold, {context}");
        assert_eq!(bits(&gp.inputs), bits(&fresh.inputs), "inputs, {context}");
        assert_eq!(gp.nonzero, fresh.nonzero, "nonzero dimensions, {context}");
        assert_eq!(
            posterior_bits(gp, queries),
            posterior_bits(fresh, queries),
            "posteriors, {context}"
        );
    }

    #[test]
    fn refits_are_bit_identical_to_fresh_fits() {
        let mut rng = SimRng::new(31);
        let inputs: Vec<Vec<f64>> = (0..160).map(|_| lattice_point(&mut rng)).collect();
        let targets: Vec<f64> = (0..160).map(|_| 230.0 + 560.0 * rng.uniform()).collect();
        let mut queries: Vec<Vec<f64>> = (0..37).map(|_| lattice_point(&mut rng)).collect();
        queries.extend(inputs[..3].iter().cloned());

        // Windows as row numbers: growing from 1 to 130 rows one at a time, sliding by
        // 1 to 5 rows, the same window again, a shorter one, the full one again (which
        // extends the shorter), and one whose last row is replaced.
        let mut windows: Vec<Vec<usize>> = (1..=130).map(|end| (0..end).collect()).collect();
        let mut start = 0;
        for slide in [1, 2, 3, 4, 5, 1, 5, 2] {
            start += slide;
            windows.push((start..start + 130).collect());
        }
        let last = windows.last().expect("windows is non-empty").clone();
        windows.push(last.clone());
        windows.push(last[..121].to_vec());
        windows.push(last.clone());
        let mut replaced = last;
        *replaced.last_mut().expect("a full window") = 159;
        windows.push(replaced);

        for length_scale in [0.08, 0.35] {
            // One model refit at every window, and one at about one window in four, as
            // each of BLISS's four models is.
            let mut every = GaussianProcess::new(length_scale, 1e-3);
            let mut some = GaussianProcess::new(length_scale, 1e-3);
            for (step, window) in windows.iter().enumerate() {
                let window_inputs: Vec<Vec<f64>> =
                    window.iter().map(|&i| inputs[i].clone()).collect();
                let window_targets: Vec<f64> = window.iter().map(|&i| targets[i]).collect();
                let mut fresh = GaussianProcess::new(length_scale, 1e-3);
                fresh.fit(&window_inputs, &window_targets);
                let context = format!("l={length_scale} step {step}, {} rows", window.len());
                every.fit(&window_inputs, &window_targets);
                assert_same_fit(&every, &fresh, &queries, &context);
                if rng.index(4) == 0 || step + 1 == windows.len() {
                    some.fit(&window_inputs, &window_targets);
                    assert_same_fit(&some, &fresh, &queries, &format!("some, {context}"));
                }
                // The same inputs with other targets keep the factor and re-solve
                // `alpha`.
                if step % 16 == 0 {
                    let shifted: Vec<f64> =
                        window_targets.iter().map(|y| 2.0 * y - 100.0).collect();
                    let mut fresh = GaussianProcess::new(length_scale, 1e-3);
                    fresh.fit(&window_inputs, &shifted);
                    every.fit(&window_inputs, &shifted);
                    assert_same_fit(&every, &fresh, &queries, &format!("shifted, {context}"));
                }
            }
        }
    }

    /// Queries on the line of a row of six inputs spaced a quarter length scale apart,
    /// beyond its first, each placed by bisection so that its computed `‖k‖²` is just
    /// below or above a target. Their kernel vectors fall off along the row, which
    /// puts much of them on the factor's smallest singular directions: at noise 0.1,
    /// `v · v` reaches about 3.1 `‖k‖²`.
    #[test]
    fn queries_on_both_sides_of_the_far_threshold_match_the_textbook_gp() {
        let length_scale = 0.25;
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i) * 0.0625]).collect();
        let targets = [310.0, 296.0, 305.0, 288.0, 301.0, 293.0];
        for noise in [1e-6, 1e-3, 0.1] {
            let mut gp = GaussianProcess::new(length_scale, noise);
            gp.fit(&inputs, &targets);
            let reference = TextbookGp::fit(length_scale, noise, &inputs, &targets);
            let threshold = gp.far_threshold;
            assert!(threshold > 0.0, "noise {noise}");
            let norm = |x: f64| -> f64 { reference.k_star(&[x]).iter().map(|k| k * k).sum() };
            // The two adjacent positions at which `norm` crosses `target`, nearer first.
            let crossing = |target: f64| {
                let (mut near, mut far) = (0.0, -10.0);
                loop {
                    let mid = (near + far) / 2.0;
                    if mid == near || mid == far {
                        break;
                    }
                    if norm(mid) >= target {
                        near = mid;
                    } else {
                        far = mid;
                    }
                }
                (near, far)
            };
            let mut queries = Vec::new();
            let (above, below) = crossing(threshold);
            assert!(norm(above) >= threshold && norm(below) < threshold);
            for step in 0..4 {
                queries.push(above + f64::from(step) * f64::EPSILON);
                queries.push(below - f64::from(step) * f64::EPSILON);
            }
            for quarter_octave in -20..=48 {
                let (above, below) =
                    crossing(threshold * 2f64.powf(f64::from(quarter_octave) / 4.0));
                queries.extend([above, below]);
            }
            let points: Vec<Vec<f64>> = queries.iter().map(|&x| vec![x]).collect();

            let best = 280.0;
            let scores = expected_improvements(&gp, &points, best);
            let mut far = 0;
            // The smallest `‖k‖²`, over `threshold`, of a query whose textbook variance is
            // not `1 + noise`.
            let mut first_moved = f64::INFINITY;
            score_blocks(&gp, &points, |index, _, _, solved| {
                let x = queries[index];
                assert_eq!(
                    solved.is_none(),
                    norm(x) < threshold,
                    "noise {noise}, x = {x}"
                );
                far += usize::from(solved.is_none());
                let v_dot_v: f64 = reference.solve(&[x]).iter().map(|v| v * v).sum();
                if 1.0 + noise - v_dot_v != 1.0 + noise {
                    first_moved = first_moved.min(norm(x) / threshold);
                }
            });
            for (point, &(score, mean)) in points.iter().zip(&scores) {
                let (expected_mean, expected_std) = reference.predict(point);
                let context = format!("noise {noise}, x = {}", point[0]);
                assert_eq!(mean.to_bits(), expected_mean.to_bits(), "mean, {context}");
                let expected = improvement(expected_mean, expected_std, best);
                assert_eq!(score.to_bits(), expected.to_bits(), "EI, {context}");
                let (got_mean, got_std) = gp.predict(point);
                assert_eq!(
                    got_mean.to_bits(),
                    expected_mean.to_bits(),
                    "mean, {context}"
                );
                assert_eq!(got_std.to_bits(), expected_std.to_bits(), "std, {context}");
            }
            assert!(
                far >= 4 && far + 4 <= points.len(),
                "noise {noise}: {far} far"
            );
            // The bound's margin: no query below the threshold moves, and at noise 0.1
            // a query below 16 times it does, so a threshold 16 times larger fails here.
            assert!(first_moved > 1.0, "noise {noise}");
            if noise == 0.1 {
                assert!(
                    first_moved < 16.0,
                    "noise {noise}: first moved at {first_moved} T"
                );
            }
        }
    }

    /// A model whose kernel memo has one slot: every lookup of a squared distance other
    /// than the last one looked up collides.
    fn one_slot_memo(length_scale: f64) -> GaussianProcess {
        GaussianProcess {
            memo: RefCell::new(KernelMemo::new(length_scale, 1)),
            ..GaussianProcess::new(length_scale, 1e-3)
        }
    }

    /// Checks `gp`'s factor and `alpha`, and the mean and standard deviation of every
    /// query, against the textbook GP, bit for bit.
    fn assert_textbook_posteriors(
        gp: &GaussianProcess,
        reference: &TextbookGp,
        queries: &[Vec<f64>],
        expected: &[(u64, u64)],
        context: &str,
    ) {
        for (i, row) in reference.cholesky.iter().enumerate() {
            for (j, l_ij) in row[..=i].iter().enumerate() {
                let got = gp.cholesky[row_start(i) + j];
                assert_eq!(got.to_bits(), l_ij.to_bits(), "L[{i}][{j}], {context}");
            }
        }
        for (i, (got, alpha)) in gp.alpha.iter().zip(&reference.alpha).enumerate() {
            assert_eq!(got.to_bits(), alpha.to_bits(), "alpha[{i}], {context}");
        }
        assert_eq!(
            posterior_bits(gp, queries),
            expected,
            "posteriors, {context}"
        );
    }

    /// The kernel memo against the textbook GP on the refit battery's windows, at the
    /// 0.08 and 0.35 length scales in turn: a fresh model scores the pool with the memo
    /// its fit left (cold) and then again (warm), a model whose memo has one slot scores
    /// it with every lookup colliding, and one model is refit at every window, its memo
    /// carried over as a BLISS model's is.
    #[test]
    fn kernel_memo_lookups_are_bit_identical_to_the_textbook_gp() {
        let mut rng = SimRng::new(31);
        let inputs: Vec<Vec<f64>> = (0..160).map(|_| lattice_point(&mut rng)).collect();
        let targets: Vec<f64> = (0..160).map(|_| 230.0 + 560.0 * rng.uniform()).collect();
        let mut queries: Vec<Vec<f64>> = (0..16).map(|_| lattice_point(&mut rng)).collect();
        queries[0][4] = 0.37;
        queries.extend(inputs[..3].iter().cloned());

        let mut windows: Vec<Vec<usize>> = (1..=130).map(|end| (0..end).collect()).collect();
        let mut start = 0;
        for slide in [1, 2, 3, 4, 5, 1, 5, 2] {
            start += slide;
            windows.push((start..start + 130).collect());
        }
        let last = windows.last().expect("windows is non-empty").clone();
        windows.push(last.clone());
        windows.push(last[..121].to_vec());
        windows.push(last.clone());
        let mut replaced = last;
        *replaced.last_mut().expect("a full window") = 159;
        windows.push(replaced);

        for length_scale in [0.08, 0.35] {
            let mut kept = GaussianProcess::new(length_scale, 1e-3);
            for (step, window) in windows.iter().enumerate() {
                let window_inputs: Vec<Vec<f64>> =
                    window.iter().map(|&i| inputs[i].clone()).collect();
                let window_targets: Vec<f64> = window.iter().map(|&i| targets[i]).collect();
                let reference =
                    TextbookGp::fit(length_scale, 1e-3, &window_inputs, &window_targets);
                let expected: Vec<(u64, u64)> = queries
                    .iter()
                    .map(|query| {
                        let (mean, std_dev) = reference.predict(query);
                        (mean.to_bits(), std_dev.to_bits())
                    })
                    .collect();
                let context = format!("l={length_scale} step {step}, {} rows", window.len());
                let check = |gp: &GaussianProcess, memo: &str| {
                    let context = format!("{memo}, {context}");
                    assert_textbook_posteriors(gp, &reference, &queries, &expected, &context);
                };

                let mut fresh = GaussianProcess::new(length_scale, 1e-3);
                fresh.fit(&window_inputs, &window_targets);
                check(&fresh, "cold memo");
                check(&fresh, "warm memo");
                let mut collided = one_slot_memo(length_scale);
                collided.fit(&window_inputs, &window_targets);
                check(&collided, "one-slot memo");
                kept.fit(&window_inputs, &window_targets);
                check(&kept, "kept memo");
            }
        }
    }

    /// The textbook argmax over a pool's scores: the first of tied maxima, as
    /// `(index, improvement bits, mean bits)`.
    fn first_of_tied_maxima(scores: &[(f64, f64)]) -> (usize, u64, u64) {
        let mut pick = 0;
        for (index, &(score, _)) in scores.iter().enumerate().skip(1) {
            if score > scores[pick].0 {
                pick = index;
            }
        }
        pick_bits((pick, scores[pick].0, scores[pick].1))
    }

    fn pick_bits((index, score, mean): (usize, f64, f64)) -> (usize, u64, u64) {
        (index, score.to_bits(), mean.to_bits())
    }

    /// What the acquisition battery's pools exercised.
    #[derive(Debug, Default)]
    struct Exercised {
        far_picks: usize,
        near_picks: usize,
        /// Pools whose maximum is shared by more than one point.
        tied_picks: usize,
        /// Pools with some near point whose bound is below the pick's improvement.
        prunable: usize,
        /// Pools whose near pick ties with another point: under the tight bound its
        /// bound equals an improvement that may be found before it is solved.
        tied_near_picks: usize,
    }

    /// Checks `best_expected_improvement` against the first of tied maxima over
    /// `expected_improvements`, bit for bit, and again with the tightest valid bound,
    /// each near point's own improvement, under which bounds meet the pick exactly.
    /// Every point's improvement must also be at most its bound.
    fn check_pick(
        gp: &GaussianProcess,
        points: &[Vec<f64>],
        best: f64,
        exercised: &mut Exercised,
        context: &str,
    ) {
        let scores = expected_improvements(gp, points, best);
        let expected = first_of_tied_maxima(&scores);
        let got = pick_bits(gp.best_expected_improvement(points, best));
        assert_eq!(got, expected, "{context}");
        let tight = pick_bits(gp.best_within(points, best, |index, _| scores[index].0));
        assert_eq!(tight, expected, "tight bound, {context}");

        let mut far = vec![false; points.len()];
        score_blocks(gp, points, |index, _, _, solved| {
            far[index] = solved.is_none()
        });
        let prior = gp.target_std_dev(0.0);
        let top = f64::from_bits(expected.1);
        let mut prunable = false;
        for (index, &(score, mean)) in scores.iter().enumerate() {
            let bound = improvement_bound(mean, prior, best);
            assert!(
                score <= bound || bound.is_nan(),
                "point {index}: {score} > {bound}, {context}"
            );
            prunable |= !far[index] && bound < top;
        }
        let tied = scores.iter().filter(|s| s.0 == top).count() > 1;
        if far[expected.0] {
            exercised.far_picks += 1;
        } else {
            exercised.near_picks += 1;
            exercised.tied_near_picks += usize::from(tied);
        }
        exercised.tied_picks += usize::from(tied);
        exercised.prunable += usize::from(prunable);
    }

    /// The acquisition battery: every length scale, windows of 1 to 120 rows, pools of
    /// 1 to 193 points, plain and constant targets (the `1e-9` floor of `y_std`), and
    /// seven pools each: random lattice points with BLISS's incumbent perturbation last;
    /// copies of the winner at the front, across a block edge and at the back; training
    /// inputs in the pool; an all-far pool; a pool whose every improvement is 0; the
    /// winner moved into the short last block; and a point with a NaN coordinate, whose
    /// bound is NaN, first in a pool whose every improvement is 0. Then the hybrid
    /// strategy's model on pools of unexplored subspaces, reversed.
    #[test]
    fn best_expected_improvement_is_the_first_of_tied_maxima_bit_for_bit() {
        let mut rng = SimRng::new(43);
        let mut exercised = Exercised::default();
        let mut pools = 0;
        for length_scale in [0.08, 0.18, 0.35, 0.7] {
            for n in [1, 8, 9, 64, 120] {
                let inputs: Vec<Vec<f64>> = (0..n).map(|_| lattice_point(&mut rng)).collect();
                let spread: Vec<f64> = (0..n).map(|_| 230.0 + 560.0 * rng.uniform()).collect();
                let constant = vec![spread[0]; n];
                for (targets, label) in [(&spread, ""), (&constant, ", constant targets")] {
                    let mut gp = GaussianProcess::new(length_scale, 1e-3);
                    gp.fit(&inputs, targets);
                    let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
                    for pool in [1, 7, 9, 193] {
                        let context = format!("l={length_scale} n={n} pool={pool}{label}");
                        let mut random: Vec<Vec<f64>> =
                            (0..pool).map(|_| lattice_point(&mut rng)).collect();
                        let last = random.last_mut().expect("pool is non-empty");
                        last[rng.index(DIMS)] = rng.uniform();
                        let top =
                            first_of_tied_maxima(&expected_improvements(&gp, &random, best)).0;

                        let mut tied = random.clone();
                        for index in [0, 7, 8, pool / 2, pool - 1] {
                            if index < pool {
                                tied[index].clone_from(&random[top]);
                            }
                        }
                        let mut trained = random.clone();
                        for index in [0, pool / 2, pool - 1] {
                            trained[index].clone_from(&inputs[rng.index(n)]);
                        }
                        // Far from every input on a dimension the inputs pin at 0.
                        let mut all_far = random.clone();
                        for point in &mut all_far {
                            point[4] = 10.0;
                        }
                        let mut short_last = random.clone();
                        short_last.swap(top, pool - 1);
                        // A NaN coordinate scores 0 with a NaN mean, and its bound is NaN.
                        let mut nan_first = random.clone();
                        nan_first[0][0] = f64::NAN;

                        let no_gain = best - 1e4 * (1.0 + targets[0]);
                        for (case, points, best) in [
                            ("random", &random, best),
                            ("ties", &tied, best),
                            ("training inputs", &trained, best),
                            ("all far", &all_far, best),
                            ("every improvement 0", &trained, no_gain),
                            ("short last block", &short_last, best),
                            ("a NaN point first", &nan_first, no_gain),
                        ] {
                            let context = format!("{case}, {context}");
                            if case == "all far" {
                                score_blocks(&gp, points, |_, _, _, solved| {
                                    assert!(solved.is_none(), "{context}");
                                });
                            }
                            if case == "every improvement 0" || case == "a NaN point first" {
                                let scores = expected_improvements(&gp, points, best);
                                assert!(scores.iter().all(|s| s.0 == 0.0), "{context}");
                            }
                            check_pick(&gp, points, best, &mut exercised, &context);
                            pools += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(pools, 4 * 5 * 2 * 4 * 7);
        // The battery reaches both kinds of winner, ties, near winners that tie and
        // pools in which the bound prunes.
        assert!(exercised.far_picks >= 100, "{exercised:?}");
        assert!(exercised.near_picks >= 100, "{exercised:?}");
        assert!(exercised.tied_picks >= 100, "{exercised:?}");
        assert!(exercised.prunable >= 100, "{exercised:?}");
        assert!(exercised.tied_near_picks >= 100, "{exercised:?}");

        // The hybrid strategy's model: one dimension, the normalised subspace index, at
        // length scale 0.25, fit to the subspaces explored so far and picking from the
        // unexplored ones. It passes its pool reversed, so its pick must be the last of
        // tied maxima of the pool in order, as `max_by` picks it.
        let mut hybrid_pools = 0;
        let mut hybrid_ties = 0;
        for total in [3, 7, 8, 16, 24, 33] {
            let normalise = |s: usize| vec![s as f64 / (total - 1) as f64];
            for explored in 2..total {
                // `explored` subspaces drawn at random, in the order drawn.
                let mut order: Vec<usize> = (0..total).collect();
                for i in 0..explored {
                    order.swap(i, i + rng.index(total - i));
                }
                let (history, rest) = order.split_at(explored);
                let mut unexplored = rest.to_vec();
                unexplored.sort_unstable();
                let inputs: Vec<Vec<f64>> = history.iter().map(|&s| normalise(s)).collect();
                let spread: Vec<f64> = history
                    .iter()
                    .map(|_| 230.0 + 560.0 * rng.uniform())
                    .collect();
                // One subspace far better than the others: most improvements are 0.
                let one_best: Vec<f64> = (0..explored)
                    .map(|i| if i == 0 { 100.0 } else { 1000.0 })
                    .collect();
                for targets in [&spread, &one_best] {
                    let mut gp = GaussianProcess::new(0.25, 1e-3);
                    gp.fit(&inputs, targets);
                    let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
                    let pool: Vec<Vec<f64>> = unexplored.iter().map(|&s| normalise(s)).collect();
                    let scores = expected_improvements(&gp, &pool, best);
                    let (last, &top) = scores
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("EI is not NaN"))
                        .expect("the pool is non-empty");
                    let reversed: Vec<Vec<f64>> = pool.iter().rev().cloned().collect();
                    let (index, score, mean) = gp.best_expected_improvement(&reversed, best);
                    assert_eq!(
                        pick_bits((pool.len() - 1 - index, score, mean)),
                        pick_bits((last, top.0, top.1)),
                        "hybrid, {total} subspaces, {explored} explored"
                    );
                    hybrid_ties += usize::from(scores.iter().filter(|s| s.0 == top.0).count() > 1);
                    hybrid_pools += 1;
                }
            }
        }
        assert_eq!(hybrid_pools, 2 * (1 + 5 + 6 + 14 + 22 + 31));
        // Ties are where the reversal matters.
        assert!(hybrid_ties >= 50, "{hybrid_ties} tied hybrid pools");
    }

    /// The first premise of the acquisition bound: the implemented CDF, Abramowitz and
    /// Stegun 26.2.17, is within 7.5·10^-8 of Φ at every z in [-40, 40] on a grid of
    /// step 2^-10. Φ is `1/2 ± ∫φ` from 0, by composite Simpson over each step.
    #[test]
    fn the_implemented_cdf_is_within_its_published_error() {
        let step = pow2(-10);
        let phi = |z: f64| (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let mut worst = 0.0f64;
        for sign in [1.0, -1.0] {
            let mut integral = 0.0;
            for k in 0..=40 * 1024 {
                let z = f64::from(k) * step;
                if k > 0 {
                    let a = z - step;
                    integral += step / 6.0 * (phi(a) + 4.0 * phi(a + step / 2.0) + phi(z));
                }
                let (_, cdf) = standard_normal(sign * z);
                worst = worst.max((cdf - (0.5 + sign * integral)).abs());
            }
        }
        assert!(worst < 7.5e-8, "worst error {worst}");
        // The reference resolves the approximation's error, which nearly reaches the
        // published bound.
        assert!(worst > 7e-8, "worst error {worst}");
    }

    /// The second premise: the computed improvement at a standard deviation `σ₁` is at
    /// most the bound at any `σ₂ ≥ σ₁`, on random triples across the tails, below the
    /// `1e-12` cut and at adjacent doubles. Without the slack some are above it, by
    /// rounding.
    #[test]
    fn improvement_stays_within_its_bound_at_smaller_deviations() {
        let mut rng = SimRng::new(59);
        let mut without_slack = 0;
        for trial in 0..200_000 {
            let scale = 10f64.powf(12.0 * rng.uniform() - 9.0);
            let prior = (1.0 + 1e-3f64).sqrt() * scale;
            let upper = match trial % 4 {
                0 => prior,
                _ => prior * rng.uniform(),
            };
            let lower = match trial % 5 {
                0 => upper,
                1 => f64::from_bits(upper.to_bits() - 1),
                2 => 1e-13 * rng.uniform(),
                _ => upper * rng.uniform(),
            };
            let mean = 230.0 + 560.0 * rng.uniform();
            let best = mean + upper * (90.0 * rng.uniform() - 45.0);
            let score = improvement(mean, lower, best);
            assert!(
                score <= improvement_bound(mean, upper, best),
                "mean {mean}, best {best}, σ {lower} ≤ {upper}"
            );
            without_slack += usize::from(score > improvement(mean, upper, best));
        }
        assert!(without_slack > 0);
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
        let ei_at_known_bad = gp.best_expected_improvement(&[[0.0]], best).1;
        let ei_at_frontier = gp.best_expected_improvement(&[[1.0]], best).1;
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
