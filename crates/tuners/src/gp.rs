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
//! [`predict`](GaussianProcess::predict) and [`expected_improvements`] share one
//! routine. It loads queries in blocks of `LANES` (8) and computes, for each, the kernel
//! vector `k`, the mean `k · alpha` and `‖k‖²`. A far query (see "Far queries") is
//! resolved there and then, without a solve. The others wait until eight have
//! gathered; then it solves `L v = k` for all eight in lockstep, one row of `L` at a
//! time, and sums `v · v` for each variance. A short final gathering is padded with
//! copies of its last query, whose results are dropped.
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
//! rule and the scaled solve see exactly the kernel values they would compute.
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
//! of `L` and their `l_min` and factors only the rows after them, in groups of eight
//! from the first new row. That is BLISS's growing window: a model picked again after
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
//! # Scaled solve
//!
//! At short length scales most kernel values are tiny, and so is most of `v`: at the
//! 0.08 scale, with every query of `micro_components`' 120-point window solved, over
//! half of the solve's products round to a subnormal or to zero, and each such product
//! costs the processor a slow microcode assist. The lockstep solve therefore works on
//! `x' = x · 2^S` with `S = 600` (`SCALE_EXP`), where a product stays normal down to an
//! unscaled `2^-1622`. Every value it returns is still exactly the textbook's:
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
//!   with every query solved, one (row, lane) in 190 was recomputed. At 0.35 no
//!   solved value falls below the bound, so the row loop tracks nothing and
//!   recomputes nothing.
//! - **Above the window.** A stored value above `2^(S+200)`, or a non-finite one,
//!   sends the whole block to the textbook loop. Such a value means an unscaled `|x|`
//!   of `2^200` or more, which kernel values never produce. A scaled value that
//!   overflowed would have made its row's solution infinite or NaN, so overflow cannot
//!   move a bit either.
//!
//! The solve unscales its solutions by `2^-S` before returning them, which is exact.
//!
//! [`expected_improvements`]: GaussianProcess::expected_improvements

use std::cell::RefCell;

/// Queries scored together, and rows factored together, by the lockstep solve.
const LANES: usize = 8;

/// Slots of a model's kernel memo; see "Kernel memo" in the module docs.
const MEMO_SLOTS: usize = 2048;

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
    /// The smallest non-zero `|l_ij|` of the factor.
    l_min: f64,
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
            l_min: f64::INFINITY,
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
        // rows: their factor and `l_min` stand. See "Refits" in the module docs.
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
            self.l_min = f64::INFINITY;
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
        let mut l_min = self.l_min;
        for first in (kept..n).step_by(LANES) {
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

    /// Resolves every point's posterior in standardised units and hands `each` the
    /// point's index, its mean `k · alpha`, its `v · v`, and its solution `v` of `L v =
    /// k` as lane `lane` of `(solved, lane)`, `solved[i][lane]`. A far query comes with
    /// `v · v = 0`, which gives its variance exactly, and no solution. The calls come
    /// in no particular order. See the module docs for the lockstep scoring and why it
    /// is exact.
    fn resolve<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        mut each: impl FnMut(usize, f64, f64, Option<(&[[f64; LANES]], usize)>),
    ) {
        assert!(self.is_fit(), "predict called before fit");
        let n = self.alpha.len();
        let mut lanes = Lanes::default();
        // The queries waiting for a solve: their kernel vectors as the lanes of
        // `near.kernel`, and each one's index and mean.
        let mut near = Lanes::default();
        near.kernel.resize(n, [0.0; LANES]);
        near.solved.resize(n, [0.0; LANES]);
        let mut waiting = [(0, 0.0); LANES];
        let mut count = 0;
        for (block_index, block) in points.chunks(LANES).enumerate() {
            self.load_kernel(
                n,
                |lane| block[lane.min(block.len() - 1)].as_ref(),
                &mut lanes,
            );
            // Sums start at -0.0, as `Iterator::sum` over f64 does: a mean whose every
            // term is -0.0 (underflowed kernel values) keeps the textbook's sign.
            let mut mean = [-0.0; LANES];
            let mut norm = [-0.0; LANES];
            for (k, &alpha) in lanes.kernel.iter().zip(&self.alpha) {
                for lane in 0..LANES {
                    mean[lane] += k[lane] * alpha;
                    norm[lane] += k[lane] * k[lane];
                }
            }
            for lane in 0..block.len() {
                let index = block_index * LANES + lane;
                if norm[lane] < self.far_threshold {
                    each(index, mean[lane], 0.0, None);
                    continue;
                }
                for (column, k) in near.kernel.iter_mut().zip(&lanes.kernel) {
                    column[count] = k[lane];
                }
                waiting[count] = (index, mean[lane]);
                count += 1;
                if count == LANES {
                    self.solve_waiting(&mut near, &waiting, &mut each);
                    count = 0;
                }
            }
        }
        if count > 0 {
            // A short final gathering is padded with copies of its last query, whose
            // results are dropped.
            for column in &mut near.kernel {
                let last = column[count - 1];
                column[count..].fill(last);
            }
            self.solve_waiting(&mut near, &waiting[..count], &mut each);
        }
    }

    /// Solves the queries waiting in the lanes of `near.kernel` in lockstep and hands
    /// each one to `each`, as [`resolve`](Self::resolve) describes.
    fn solve_waiting(
        &self,
        near: &mut Lanes,
        waiting: &[(usize, f64)],
        each: &mut impl FnMut(usize, f64, f64, Option<(&[[f64; LANES]], usize)>),
    ) {
        forward_solve(&self.cholesky, self.l_min, &near.kernel, &mut near.solved);
        let mut v_dot_v = [-0.0; LANES];
        for v in &near.solved {
            for lane in 0..LANES {
                v_dot_v[lane] += v[lane] * v[lane];
            }
        }
        for (lane, &(index, mean)) in waiting.iter().enumerate() {
            each(index, mean, v_dot_v[lane], Some((&near.solved, lane)));
        }
    }

    /// Predictive mean and standard deviation of every point (in the original target
    /// units), handed to `emit` with the point's index, in no particular order.
    fn posterior<P: AsRef<[f64]>>(&self, points: &[P], mut emit: impl FnMut(usize, f64, f64)) {
        self.resolve(points, |index, mean, v_dot_v, _| {
            let variance = (1.0 + self.noise - v_dot_v).max(1e-12);
            emit(
                index,
                mean * self.y_std + self.y_mean,
                variance.sqrt() * self.y_std,
            );
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
        self.posterior(&[point], |_, mean, std_dev| prediction = (mean, std_dev));
        prediction
    }

    /// Expected improvement of every point over the incumbent best target value
    /// (minimisation; larger is better), in order, each paired with the point's
    /// predictive mean: `(improvement, mean)`. Each value is bit-identical to scoring
    /// or [`predict`](Self::predict)ing its point alone; scoring a pool in one call is
    /// faster.
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
        let mut scores = vec![(f64::NAN, f64::NAN); points.len()];
        self.posterior(points, |index, mean, std_dev| {
            scores[index] = (improvement(mean, std_dev, best), mean);
        });
        scores
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

                    // Every query is resolved once; a solved one has the textbook's `v`,
                    // and a far one a textbook variance of exactly `1 + noise`.
                    let mut resolved = vec![false; pool];
                    gp.resolve(&points, |index, _, _, solved| {
                        assert!(!resolved[index], "query {index} resolved twice, {context}");
                        resolved[index] = true;
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
                    assert!(resolved.iter().all(|&r| r), "{context}");

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
                            gp.expected_improvements(&[point], best)[0].0.to_bits(),
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

    /// Checks a refit model against a fresh fit of the same window, bit for bit: the
    /// factor, `alpha`, `l_min`, the far threshold, and the posterior of every query.
    fn assert_same_fit(
        gp: &GaussianProcess,
        fresh: &GaussianProcess,
        queries: &[Vec<f64>],
        context: &str,
    ) {
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gp.cholesky), bits(&fresh.cholesky), "L, {context}");
        assert_eq!(bits(&gp.alpha), bits(&fresh.alpha), "alpha, {context}");
        assert_eq!(
            gp.l_min.to_bits(),
            fresh.l_min.to_bits(),
            "l_min, {context}"
        );
        let far = (gp.far_threshold.to_bits(), fresh.far_threshold.to_bits());
        assert_eq!(far.0, far.1, "far threshold, {context}");
        assert_eq!(bits(&gp.inputs), bits(&fresh.inputs), "inputs, {context}");
        assert_eq!(gp.nonzero, fresh.nonzero, "nonzero dimensions, {context}");
        let scores = |gp: &GaussianProcess| {
            let mut posterior = vec![(0, 0); queries.len()];
            gp.posterior(queries, |index, mean, std_dev| {
                posterior[index] = (mean.to_bits(), std_dev.to_bits());
            });
            posterior
        };
        assert_eq!(scores(gp), scores(fresh), "posteriors, {context}");
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
            let scores = gp.expected_improvements(&points, best);
            let mut far = 0;
            // The smallest `‖k‖²`, over `threshold`, of a query whose textbook variance is
            // not `1 + noise`.
            let mut first_moved = f64::INFINITY;
            gp.resolve(&points, |index, _, _, solved| {
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
        let mut posterior = vec![(0, 0); queries.len()];
        gp.posterior(queries, |index, mean, std_dev| {
            posterior[index] = (mean.to_bits(), std_dev.to_bits());
        });
        assert_eq!(posterior, expected, "posteriors, {context}");
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
        let ei_at_known_bad = gp.expected_improvements(&[[0.0]], best)[0].0;
        let ei_at_frontier = gp.expected_improvements(&[[1.0]], best)[0].0;
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
