//! Deterministic marginals: banded Gaussian-linear solves and IRLS.
//!
//! When every factor is a Gaussian density on a *linear* combination of
//! the variables, the posterior `prior × likelihood` is exactly a
//! multivariate Gaussian: its precision is the diagonal prior precision
//! plus one rank-1 term `c·cᵀ/σ²` per factor, and its information vector
//! accumulates `c·m/σ²`.
//!
//! The solver is **banded**. [`AnalyticScratch::begin`] declares a
//! bandwidth `b`, every term couples variables at most `b` apart, so the
//! precision has `b` sub-diagonals and its Cholesky factor keeps that
//! band. A banded Cholesky and two banded triangular solves give the
//! means in `O(d·b²)` flops. The Takahashi recursion restricted to the
//! band, which computes the covariance `Σᵢⱼ` only for `|i − j| ≤ b`,
//! gives the marginal variances in `O(d·b²)` as well. A dense system is
//! the special case `b = d − 1`.
//!
//! A factor that is not Gaussian-linear — a Student-t observation, or a
//! Gaussian on a residual divided by a state-dependent normalizer — is
//! replaced by the Gaussian-linear factor that matches it at the current
//! estimate, the system is solved, and the replacement is refitted at the
//! new mean: iteratively reweighted least squares
//! ([`AnalyticScratch::irls`]), i.e. a Laplace approximation (Smola et
//! al., NIPS 2003). Every factor in BayesPerf's catalogs takes one of
//! these two forms, so no marginal needs sampling.
//!
//! # Kernels
//!
//! Written the textbook way, each entry of the factor, of the triangular
//! solves and of the band-limited covariance is one dot product: a serial
//! chain of dependent multiply-subtracts whose latency, not the flop
//! count, sets the cost. The two `O(d·b²)` kernels here compute a whole
//! column or row at once instead, in a register window: a fixed number of
//! lanes (`V` quads of four) that the compiler keeps in vector registers,
//! so each update is a few full-width instructions rather than a short
//! loop with a scalar remainder.
//!
//! * The Cholesky factorization is left-looking. Column `j` of `L` is
//!   loaded one window of rows at a time; each window takes
//!   `acc −= L(·,k)·L(j,k)` for the columns `k` that reach it, ascending,
//!   and is then pivoted, divided and stored. A column that reaches only
//!   the window's first half updates that half, and every later column
//!   the whole window, so a lane that a column reaches past the band reads
//!   at most half a window below it: the zero padding each column carries
//!   after its `b + 1` slots (columns are `b + 2·V` slots apart). Nothing
//!   writes the padding: `add_term` asserts that every entry it adds is in
//!   the band, and the factor stores only in-band rows. A stored entry
//!   therefore receives, besides the updates of the dot-product form, only
//!   `a − (±0)`, which is `a`: no entry is ever `−0.0`, because it starts
//!   at `+0.0` and then only receives sums. A non-finite `L(j,k)` poisons
//!   lanes through the padding, but it also enters pivot `j` squared, so
//!   the factorization fails at pivot `j` before any of them is stored, as
//!   the dot-product form does. The lanes of a window below the band
//!   (padding, rows past the last, or the next column) are never stored.
//! * The Takahashi pass runs by rows, bottom-up: every off-diagonal
//!   covariance entry of row `i` reads only rows below `i`, so the row is
//!   accumulated one window at a time over a symmetric band of the
//!   covariance, and then the diagonal from it. Lanes past the row's band
//!   may read the next row; they are discarded, and the buffer carries one
//!   window of padding so that the last row's reads stay inside it.
//! * The forward solve `L·y = info` runs by columns: `y_k` is final once
//!   column `k − 1` has been subtracted, and column `k` is then subtracted
//!   from the entries below it. It subtracts from exactly the entries the
//!   band reaches: padding would add `−(±0)` to entries of `y`, which can
//!   be `−0.0` (a prior mean of `−0.0` gives one), so it would not keep
//!   their bits.
//! * The back solve `Lᵀ·x = y` stays one dot product per entry: the first
//!   term of entry `i` needs `x_{i+1}`, so its chain cannot be split
//!   without reordering the sum.
//!
//! Every stored entry still receives exactly the floating-point
//! operations of the dot-product form, in the same order (updates in
//! ascending `k`), so every mean and variance is bit-identical to it: the
//! posteriors, the benchmark's accuracy metrics and every seeded example
//! output do not depend on how the loops are arranged. Summing with
//! several accumulators, or fusing the multiply-subtract, would be faster
//! again, but would change the last bits of every posterior.
//!
//! The window has to fit the instruction set's registers, or it spills
//! on every update. Each kernel is one source, generic over `V`,
//! instantiated twice: under `#[target_feature(enable = "avx2")]` with 32
//! lanes (eight `ymm` accumulators), and portably with 16 lanes (eight
//! SSE2 `xmm` accumulators on `x86_64`). A scratch picks the AVX2
//! instantiation when `is_x86_feature_detected!("avx2")` holds and the
//! portable one otherwise; other targets compile only the portable one.
//! Both give the same bits. Each width is the fastest measured for its
//! instruction set on the chunk shapes (6 slices of 16 and of 29
//! variables): 16, 24 and 32 AVX2 lanes, and 8, 16, 24 and 32 SSE2 lanes,
//! where 24 and 32 spill and run slower than the right-looking kernels
//! these replaced, and 16 takes about three quarters of their time. (A
//! 32-lane AVX-512 instantiation measured no faster than the AVX2 one.)
//!
//! The precision band is stored column by column (see `slot`), so a
//! column of `L`, the entries below a pivot, is one slice for each kernel.
//!
//! All state, the IRLS estimate included, lives in a caller-owned
//! [`AnalyticScratch`], so the hot path is allocation-free once the
//! buffers have grown to the largest system
//! ([`AnalyticScratch::with_capacity`] grows them up front, and then no
//! solve allocates, the first included).

use crate::dist::Gaussian;

/// IRLS passes per solve. Three matched eight to two decimals when IRLS
/// replaced the MCMC moment estimator, and five or eight moved the
/// benchmark's error by less than 0.3 points.
const IRLS_ITERATIONS: usize = 3;

/// Slot of entry `(i, j)`, `j ≤ i ≤ j + band`, of the lower precision
/// band in [`AnalyticScratch`]'s `prec`: column `j` starts `stride` slots
/// after column `j − 1`, with its diagonal first.
fn slot(stride: usize, i: usize, j: usize) -> usize {
    j * stride + (i - j)
}

/// Four lanes of a register window: one `ymm` register under AVX2, two
/// `xmm` registers under SSE2.
type Quad = [f64; 4];

/// Quads in one AVX2 register window: 32 lanes in eight `ymm` registers.
#[cfg(target_arch = "x86_64")]
const AVX2_QUADS: usize = 8;

/// Quads in one portable register window: 16 lanes in eight SSE2 `xmm`
/// registers, so the window leaves registers for its operands (the
/// fastest portable width measured; see the module doc).
const PORTABLE_QUADS: usize = 4;

/// The instantiation of the kernels a scratch runs, chosen from what the
/// CPU reports (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernels {
    Portable,
    /// Only ever chosen after `is_x86_feature_detected!("avx2")`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Default for Kernels {
    fn default() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernels::Avx2;
        }
        Kernels::Portable
    }
}

impl Kernels {
    /// Lanes of one register window.
    fn lanes(self) -> usize {
        4 * match self {
            Kernels::Portable => PORTABLE_QUADS,
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => AVX2_QUADS,
        }
    }

    /// Column stride of the precision band at bandwidth `b`: the band's
    /// `b + 1` slots and the zero padding a window reads past them (see
    /// [`cholesky`]).
    fn stride(self, b: usize) -> usize {
        b + self.lanes() / 2
    }

    fn cholesky(self, prec: &mut [f64], d: usize, b: usize) -> bool {
        match self {
            Kernels::Portable => cholesky::<PORTABLE_QUADS>(prec, d, b),
            // SAFETY: `Avx2` is only chosen after
            // `is_x86_feature_detected!("avx2")` returned true.
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => unsafe { cholesky_avx2(prec, d, b) },
        }
    }

    fn takahashi(self, prec: &[f64], cov: &mut [f64], d: usize, b: usize) {
        match self {
            Kernels::Portable => takahashi::<PORTABLE_QUADS>(prec, cov, d, b),
            // SAFETY: `Avx2` is only chosen after
            // `is_x86_feature_detected!("avx2")` returned true.
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => unsafe { takahashi_avx2(prec, cov, d, b) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn cholesky_avx2(prec: &mut [f64], d: usize, b: usize) -> bool {
    cholesky::<AVX2_QUADS>(prec, d, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn takahashi_avx2(prec: &[f64], cov: &mut [f64], d: usize, b: usize) {
    takahashi::<AVX2_QUADS>(prec, cov, d, b)
}

/// The window of `V` quads that starts at `src[0]`.
#[inline(always)]
fn window<const V: usize>(src: &[f64]) -> &[Quad; V] {
    src[..4 * V]
        .as_chunks()
        .0
        .try_into()
        .expect("a window is V whole quads")
}

/// `acc −= src·x` on the first `quads` quads of the window, where `src`
/// starts the window it is read from. Callers pass `quads` as a constant,
/// so the quads stay in registers.
#[inline(always)]
fn subtract_scaled<const V: usize>(acc: &mut [Quad; V], quads: usize, src: &[f64], x: f64) {
    for (a, s) in acc.iter_mut().zip(window::<V>(src)).take(quads) {
        for (a, &s) in a.iter_mut().zip(s) {
            *a -= s * x;
        }
    }
}

/// In-place left-looking banded Cholesky of the `d`-variable precision
/// band of bandwidth `b` in `prec` (columns `b + 2·V` apart, zero past the
/// band, then one window of zeros), in register windows of `V` quads:
/// `L(i, j)` overwrites `Λ(i, j)`. Returns `false` at the first pivot
/// that is not finite and positive.
#[inline(always)]
fn cholesky<const V: usize>(prec: &mut [f64], d: usize, b: usize) -> bool {
    const { assert!(V.is_multiple_of(2), "a window halves into whole quads") };
    let lanes = 4 * V;
    let stride = b + lanes / 2;
    for j in 0..d {
        let n = b.min(d - 1 - j);
        let mut ljj = 0.0;
        // Rows j + t0 .. j + t0 + lanes. Column k reaches the window's
        // first half for k ≥ j + t0 − b and its second half for
        // k ≥ j + t0 + lanes/2 − b, and reads at most lanes/2 − 1 slots
        // past the band: zero padding.
        for t0 in (0..=n).step_by(lanes) {
            let mut acc = *window::<V>(&prec[slot(stride, j + t0, j)..]);
            let half = (j + t0 + lanes / 2).saturating_sub(b).min(j);
            for k in (j + t0).saturating_sub(b)..half {
                let at = slot(stride, j, k);
                subtract_scaled(&mut acc, V / 2, &prec[at + t0..], prec[at]);
            }
            for k in half..j {
                let at = slot(stride, j, k);
                subtract_scaled(&mut acc, V, &prec[at + t0..], prec[at]);
            }
            if t0 == 0 {
                let s = acc[0][0];
                if s <= 0.0 || !s.is_finite() {
                    return false;
                }
                ljj = s.sqrt();
            }
            let col = &mut prec[slot(stride, j + t0, j)..][..=(n - t0).min(lanes - 1)];
            for (l, &a) in col.iter_mut().zip(acc.as_flattened()) {
                *l = a / ljj;
            }
            if t0 == 0 {
                col[0] = ljj;
            }
        }
    }
    true
}

/// The band-limited Takahashi recursion over the factor in `prec` (as
/// [`cholesky`] leaves it), into the symmetric covariance band `cov`
/// (`d` rows of `2b + 1`, then one window of padding), in register
/// windows of `V` quads.
#[inline(always)]
fn takahashi<const V: usize>(prec: &[f64], cov: &mut [f64], d: usize, b: usize) {
    const { assert!(V.is_multiple_of(2), "a window halves into whole quads") };
    let lanes = 4 * V;
    let stride = b + lanes / 2;
    let w2 = 2 * b + 1;
    // Lᵀ·Σ = L⁻¹, whose upper triangle is diag(1/Lᵢᵢ), so
    // Σᵢⱼ = (δᵢⱼ/Lᵢᵢ − Σₖ₌ᵢ₊₁ Lₖᵢ·Σₖⱼ)/Lᵢᵢ for j ≥ i. Rows run bottom-up,
    // so every Σₖⱼ it reads is already known, and all of them lie within
    // the band. Off the diagonal (j > i) the sum reads only rows below i,
    // so the row's entries are independent lanes; the diagonal then reads
    // them.
    for i in (0..d).rev() {
        let n = b.min(d - 1 - i);
        let col = &prec[slot(stride, i, i)..][..=n];
        let lii = col[0];
        // Σ(i, i + 1 + t0 ..), one window at a time.
        for t0 in (0..n).step_by(lanes) {
            if n - t0 <= lanes / 2 {
                // The entries fill at most the window's first half.
                takahashi_window::<V>(cov, col, i, b, t0, V / 2);
            } else {
                takahashi_window::<V>(cov, col, i, b, t0, V);
            }
        }
        let row = &cov[i * w2 + b + 1..][..n];
        let mut s = 1.0 / lii;
        for (&lki, &sik) in col[1..].iter().zip(row) {
            s -= lki * sik;
        }
        cov[i * w2 + b] = s / lii;
    }
}

/// The off-diagonal covariance entries `Σ(i, i + 1 + t0 ..)` of one
/// window, from column `i` of the factor, `col`, over the first `quads`
/// quads of the window (a constant at each call site), and their mirrors.
#[inline(always)]
fn takahashi_window<const V: usize>(
    cov: &mut [f64],
    col: &[f64],
    i: usize,
    b: usize,
    t0: usize,
    quads: usize,
) {
    let w2 = 2 * b + 1;
    let n = col.len() - 1;
    let mut acc = [[0.0; 4]; V];
    for (m, &lki) in col[1..].iter().enumerate() {
        // Row k = i + 1 + m from column i + 1 + t0 on.
        subtract_scaled(&mut acc, quads, &cov[(i + 1 + m) * w2 + b - m + t0..], lki);
    }
    // Dividing whole quads keeps them in whole registers.
    for q in acc.iter_mut().take(quads) {
        *q = q.map(|a| a / col[0]);
    }
    for (l, &s) in acc.as_flattened().iter().enumerate().take(n - t0) {
        let m = t0 + l;
        cov[i * w2 + b + 1 + m] = s;
        // Its mirror Σ(i + 1 + m, i), read by the rows above.
        cov[(i + 1 + m) * w2 + b - 1 - m] = s;
    }
}

/// Reusable buffers for one banded Gaussian-linear solve.
///
/// Lifecycle per solve: [`AnalyticScratch::begin`] with the prior and the
/// bandwidth, one [`AnalyticScratch::add_term`] per factor, then
/// [`AnalyticScratch::solve`] (or [`AnalyticScratch::solve_mean`] when
/// only the means are needed); read the results through
/// [`AnalyticScratch::mean`]/[`AnalyticScratch::var`].
/// [`AnalyticScratch::irls`] repeats that cycle with reweighted terms.
#[derive(Debug, Clone, Default)]
pub struct AnalyticScratch {
    dim: usize,
    /// Bandwidth of the current system, at most `dim − 1`.
    band: usize,
    kernels: Kernels,
    /// Lower band of the precision, `dim` columns of
    /// `kernels.stride(band)` slots (entry `(i, j)` at `slot`), zero past
    /// the band, then one window of zeros, which the first window of a
    /// last column reads. The Cholesky factor overwrites the band in
    /// place.
    prec: Vec<f64>,
    /// Information vector `Λμ`.
    info: Vec<f64>,
    /// Symmetric band of the covariance, `dim` rows of `2·band + 1`:
    /// entry `(i, j)`, `|i − j| ≤ band`, sits at
    /// `i·(2·band + 1) + (band + j − i)`, and `(j, i)` holds the same
    /// value, so a row's off-diagonal entries are one slice whichever
    /// side of the diagonal they lie on. One window of padding follows.
    cov: Vec<f64>,
    /// Marginal means of the last solve; between IRLS passes, the
    /// estimate the next pass weights its terms at.
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl AnalyticScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch whose buffers already fit any system of at most
    /// `dim` variables and bandwidth `bandwidth`, so solving one never
    /// allocates.
    pub fn with_capacity(dim: usize, bandwidth: usize) -> Self {
        let b = bandwidth.min(dim.saturating_sub(1));
        let kernels = Kernels::default();
        AnalyticScratch {
            kernels,
            prec: Vec::with_capacity(dim * kernels.stride(b) + kernels.lanes()),
            info: Vec::with_capacity(dim),
            cov: Vec::with_capacity(dim * (2 * b + 1) + kernels.lanes()),
            mean: Vec::with_capacity(dim),
            var: Vec::with_capacity(dim),
            ..Self::default()
        }
    }

    /// The instruction set this scratch's kernels run on: `"avx2"` or
    /// `"portable"` (see the module doc).
    pub fn simd(&self) -> &'static str {
        match self.kernels {
            Kernels::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => "avx2",
        }
    }

    /// Column stride of the precision band of the current system.
    fn stride(&self) -> usize {
        self.kernels.stride(self.band)
    }

    /// Starts a `prior.len()`-dimensional solve whose terms couple
    /// variables at most `bandwidth` apart: precision = diagonal prior
    /// precision, information = precision-weighted prior means. Leaves
    /// [`AnalyticScratch::mean`] as it was, so terms added next can be
    /// weighted at the previous solve's estimate.
    pub fn begin(&mut self, prior: &[Gaussian], bandwidth: usize) {
        let d = prior.len();
        self.dim = d;
        self.band = bandwidth.min(d.saturating_sub(1));
        let stride = self.stride();
        self.prec.clear();
        self.prec.resize(d * stride + self.kernels.lanes(), 0.0);
        self.info.clear();
        for (j, g) in prior.iter().enumerate() {
            let p = 1.0 / g.var;
            self.prec[slot(stride, j, j)] = p;
            self.info.push(g.mean * p);
        }
    }

    /// Accumulates one Gaussian-linear factor: the linear combination
    /// `Σᵢ coeffs[i]·x[locals[i]]` observed as `obs` with variance `var`.
    ///
    /// # Panics
    ///
    /// Panics if `locals` and `coeffs` lengths differ, a local index is out
    /// of range, two locals lie further apart than the bandwidth, or `var`
    /// is not positive.
    pub fn add_term(&mut self, locals: &[usize], coeffs: &[f64], obs: f64, var: f64) {
        assert_eq!(locals.len(), coeffs.len(), "locals/coeffs length mismatch");
        assert!(
            var > 0.0,
            "linear-term variance must be positive, got {var}"
        );
        let (d, b, stride) = (self.dim, self.band, self.stride());
        let w = 1.0 / var;
        for (&la, &ca) in locals.iter().zip(coeffs) {
            assert!(la < d, "local {la} out of range for dimension {d}");
            self.info[la] += ca * obs * w;
            for (&lb, &cb) in locals.iter().zip(coeffs) {
                if lb <= la {
                    assert!(
                        la - lb <= b,
                        "term couples locals {lb} and {la}, beyond bandwidth {b}"
                    );
                    self.prec[slot(stride, la, lb)] += ca * cb * w;
                }
            }
        }
    }

    /// Runs the IRLS solve: seeds the estimate with `start` (one value
    /// per prior entry), then makes three passes, each of which
    /// [`AnalyticScratch::begin`]s at `prior` and `bandwidth`, lets
    /// `add_terms` add every factor as a Gaussian-linear term weighted at
    /// the current estimate ([`AnalyticScratch::mean`]), and solves. Only
    /// the last pass forms variances.
    ///
    /// Returns `false` when `add_terms` declines (it must, rather than
    /// pass [`AnalyticScratch::add_term`] a variance that is not finite and
    /// positive) or a solve does.
    pub fn irls(
        &mut self,
        prior: &[Gaussian],
        bandwidth: usize,
        start: impl IntoIterator<Item = f64>,
        mut add_terms: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        self.mean.clear();
        self.mean.extend(start);
        for pass in 1..=IRLS_ITERATIONS {
            self.begin(prior, bandwidth);
            if !add_terms(self) {
                return false;
            }
            let solved = if pass == IRLS_ITERATIONS {
                self.solve()
            } else {
                self.solve_mean()
            };
            if !solved {
                return false;
            }
        }
        true
    }

    /// Solves for the marginal means and variances. Returns `false`
    /// (leaving outputs unspecified) if the precision matrix is not
    /// numerically positive definite.
    pub fn solve(&mut self) -> bool {
        if !self.solve_mean() {
            return false;
        }
        let (d, b) = (self.dim, self.band);
        let w2 = 2 * b + 1;
        // Every entry a stored lane reads is written first, so the buffer
        // needs no clearing.
        self.cov.resize(d * w2 + self.kernels.lanes(), 0.0);
        self.kernels.takahashi(&self.prec, &mut self.cov, d, b);
        self.var.clear();
        self.var.extend((0..d).map(|i| self.cov[i * w2 + b]));
        true
    }

    /// [`AnalyticScratch::solve`] without the variances: the banded
    /// Cholesky factorization and the two triangular solves for the
    /// means. Returns `false` on a precision that is not numerically
    /// positive definite.
    pub fn solve_mean(&mut self) -> bool {
        let (d, b, stride) = (self.dim, self.band, self.stride());
        if !self.kernels.cholesky(&mut self.prec, d, b) {
            return false;
        }
        // mean = Λ⁻¹·info via two triangular solves (y reuses `mean`).
        // Forward, by columns: y_k is final once column k − 1 is in.
        self.mean.clear();
        self.mean.extend_from_slice(&self.info);
        for k in 0..d {
            let n = b.min(d - 1 - k);
            let col = &self.prec[slot(stride, k, k)..][..=n];
            let (yk, below) = self.mean[k..].split_at_mut(1);
            yk[0] /= col[0];
            for (s, &l) in below[..n].iter_mut().zip(&col[1..]) {
                *s -= l * yk[0];
            }
        }
        // Back, by rows: one dot product per entry.
        for i in (0..d).rev() {
            let n = b.min(d - 1 - i);
            let col = &self.prec[slot(stride, i, i)..][..=n];
            let (xi, below) = self.mean[i..].split_at_mut(1);
            let mut s = xi[0];
            for (&l, &xk) in col[1..].iter().zip(&below[..n]) {
                s -= l * xk;
            }
            xi[0] = s / col[0];
        }
        true
    }

    /// Marginal means of the last successful solve.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Marginal variances of the last successful
    /// [`AnalyticScratch::solve`].
    pub fn var(&self) -> &[f64] {
        &self.var
    }
}

/// Work counters of one chunk solve, returned without allocating.
///
/// The field names date from the EP sweep driver the joint chunk solve
/// replaced; the counters that solve has no use for read as constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpRunStats {
    /// Always 1: one joint solve per chunk.
    pub sweeps_total: usize,
    /// Always 1: one joint solve per chunk.
    pub sweeps_run: usize,
    /// Always `true`: the solve has no sweep cap or tolerance to miss.
    pub converged: bool,
    /// Mean MCMC acceptance rate. Always `0.0`: nothing samples.
    pub mean_acceptance: f64,
    /// Marginals estimated by MCMC. Always `0`.
    pub mcmc_site_updates: u64,
    /// (slice, component) pairs solved with their data.
    pub analytic_site_updates: u64,
    /// MCMC samples collected. Always `0`.
    pub mcmc_samples: u64,
    /// (slice, component) pairs whose data was quarantined — a read or
    /// invariant weight that was not finite and positive, or a component
    /// whose solve failed — and solved from the prior and the random walk
    /// instead (the typed divergence counter: nonzero means an
    /// observation diverged and was contained, not propagated).
    pub sites_quarantined: u64,
    /// Malformed samples the chunk's load skipped (non-finite value or
    /// sub-sample moments, negative spread, or an event outside the
    /// catalog): their values never reached the solve. 0 on clean data.
    pub samples_rejected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_observation_matches_conjugate_update() {
        // Prior N(0, 4), observation x ~ N(6, 1): posterior N(4.8, 0.8).
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 4.0)], 0);
        ws.add_term(&[0], &[1.0], 6.0, 1.0);
        assert!(ws.solve());
        assert!((ws.mean()[0] - 4.8).abs() < 1e-12);
        assert!((ws.var()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn linear_constraint_transfers_information() {
        // Wide priors; x0 observed at 3 (tight), x0 + x1 observed at 10.
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1e4), Gaussian::new(0.0, 1e4)], 1);
        ws.add_term(&[0], &[1.0], 3.0, 1e-4);
        ws.add_term(&[0, 1], &[1.0, 1.0], 10.0, 1e-4);
        assert!(ws.solve());
        assert!((ws.mean()[0] - 3.0).abs() < 1e-3);
        assert!((ws.mean()[1] - 7.0).abs() < 1e-3);
        // x1 inherits both uncertainties: var ≈ 2e-4.
        assert!(ws.var()[1] > ws.var()[0]);
    }

    #[test]
    fn scaled_combination_solves_exactly() {
        // 2·x0 − x1 = 1 (σ² = 0.01) with priors N(1, 1), N(2, 1).
        let prior = [Gaussian::new(1.0, 1.0), Gaussian::new(2.0, 1.0)];
        let mut ws = AnalyticScratch::new();
        ws.begin(&prior, 1);
        ws.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(ws.solve());
        let (m0, m1) = (ws.mean()[0], ws.mean()[1]);
        // Residual of the constraint should be nearly satisfied.
        assert!(
            (2.0 * m0 - m1 - 1.0).abs() < 0.05,
            "residual {}",
            2.0 * m0 - m1 - 1.0
        );
        // And the solution must stay near the prior means in the
        // unconstrained direction (1·m0 + 2·m1 ≈ 1·1 + 2·2 = 5).
        assert!((m0 + 2.0 * m1 - 5.0).abs() < 0.1);
    }

    #[test]
    fn reuse_across_dimensions_does_not_leak() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0); 5], 4);
        ws.add_term(&[0, 4], &[1.0, 1.0], 3.0, 0.5);
        assert!(ws.solve());
        // Smaller problem afterwards must match a fresh scratch.
        ws.begin(&[Gaussian::new(0.0, 4.0)], 0);
        ws.add_term(&[0], &[1.0], 6.0, 1.0);
        assert!(ws.solve());
        assert!((ws.mean()[0] - 4.8).abs() < 1e-12);
        assert!((ws.var()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mean_only_solve_matches_the_full_solve() {
        let prior = [Gaussian::new(1.0, 1.0), Gaussian::new(2.0, 3.0)];
        let mut full = AnalyticScratch::new();
        full.begin(&prior, 1);
        full.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(full.solve());
        let mut mean_only = AnalyticScratch::new();
        mean_only.begin(&prior, 1);
        mean_only.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(mean_only.solve_mean());
        assert_eq!(mean_only.mean(), full.mean());
    }

    #[test]
    fn banded_variances_match_an_explicit_inverse() {
        let d = 9;
        let prior: Vec<Gaussian> = (0..d)
            .map(|i| Gaussian::new(0.3 * i as f64, 2.0 + i as f64))
            .collect();
        // Bandwidth 2: an observation of every variable, a pairwise chain
        // and a three-wide term in every window of three.
        let mut ws = AnalyticScratch::new();
        ws.begin(&prior, 2);
        for i in 0..d {
            let f = i as f64;
            ws.add_term(&[i], &[1.0], 0.5 * f - 1.0, 0.3 + 0.05 * f);
            if i + 1 < d {
                ws.add_term(&[i, i + 1], &[1.0, -0.7], 0.1 * f, 0.8);
            }
            if i + 2 < d {
                ws.add_term(&[i, i + 1, i + 2], &[0.4, 1.0, -1.3], 1.0 - 0.2 * f, 1.5);
            }
        }
        // The same system, dense, read off the band before the solve
        // factors it in place.
        let mut a: Vec<Vec<f64>> = (0..d)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let (r, c) = (i.max(j), i.min(j));
                        if r - c <= 2 {
                            ws.prec[slot(ws.stride(), r, c)]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let info = ws.info.clone();
        assert!(ws.solve());
        // Gauss-Jordan inverse of the dense matrix.
        let mut inv: Vec<Vec<f64>> = (0..d)
            .map(|i| (0..d).map(|j| f64::from(u8::from(i == j))).collect())
            .collect();
        for col in 0..d {
            let p = a[col][col];
            for j in 0..d {
                a[col][j] /= p;
                inv[col][j] /= p;
            }
            for r in 0..d {
                if r != col {
                    let f = a[r][col];
                    for j in 0..d {
                        a[r][j] -= f * a[col][j];
                        inv[r][j] -= f * inv[col][j];
                    }
                }
            }
        }
        for (i, row) in inv.iter().enumerate() {
            let mean: f64 = row.iter().zip(&info).map(|(r, b)| r * b).sum();
            assert!(
                (ws.mean()[i] - mean).abs() <= 1e-12 * mean.abs().max(1.0),
                "mean {i}: {} vs {mean}",
                ws.mean()[i]
            );
            assert!(
                (ws.var()[i] - row[i]).abs() <= 1e-12 * row[i],
                "var {i}: {} vs {}",
                ws.var()[i],
                row[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "beyond bandwidth 1")]
    fn a_term_wider_than_the_band_is_rejected() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0); 3], 1);
        ws.add_term(&[0, 2], &[1.0, -1.0], 0.0, 1.0);
    }

    #[test]
    fn irls_weights_each_pass_at_the_previous_mean() {
        // A term whose variance is the squared estimate: each pass must
        // see the mean the pass before it solved for, starting at `start`.
        let prior = [Gaussian::new(0.0, 4.0)];
        let mut seen = Vec::new();
        let mut ws = AnalyticScratch::new();
        assert!(ws.irls(&prior, 0, [2.0], |ws| {
            let x = ws.mean()[0];
            seen.push(x);
            ws.add_term(&[0], &[1.0], 6.0, x * x);
            true
        }));
        assert_eq!(seen.len(), IRLS_ITERATIONS);
        assert_eq!(seen[0], 2.0);
        let mut replay = AnalyticScratch::new();
        for pair in seen.windows(2) {
            replay.begin(&prior, 0);
            replay.add_term(&[0], &[1.0], 6.0, pair[0] * pair[0]);
            assert!(replay.solve());
            assert_eq!(replay.mean()[0], pair[1]);
        }
        // A declined pass declines the solve.
        assert!(!ws.irls(&prior, 0, [2.0], |_| false));
    }

    /// The AVX2 and the portable instantiation give the same bits on
    /// seeded banded systems at every bandwidth from 0 to 70, so every
    /// window boundary of both (16 and 32 lanes) is crossed, on one
    /// scratch each reused across the systems.
    #[test]
    fn avx2_and_portable_kernels_give_the_same_bits() {
        #[cfg(not(target_arch = "x86_64"))]
        println!("skipped: only x86_64 has an AVX2 instantiation");
        #[cfg(target_arch = "x86_64")]
        {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};

            if !std::arch::is_x86_feature_detected!("avx2") {
                println!("skipped: this CPU does not report AVX2");
                return;
            }
            let mut portable = AnalyticScratch {
                kernels: Kernels::Portable,
                ..AnalyticScratch::default()
            };
            let mut avx2 = AnalyticScratch {
                kernels: Kernels::Avx2,
                ..AnalyticScratch::default()
            };
            let mut rng = StdRng::seed_from_u64(0xA7C2);
            for b in 0..=70 {
                let d = 2 * b + 9;
                let prior: Vec<Gaussian> = (0..d)
                    .map(|_| Gaussian::new(rng.gen_range(-5.0..5.0), rng.gen_range(0.5..10.0)))
                    .collect();
                // An observation of some variables, a coupling at a random
                // distance within the band, and a term as wide as the band.
                let mut terms: Vec<(Vec<usize>, Vec<f64>, f64, f64)> = Vec::new();
                for i in 0..d {
                    if rng.gen_bool(0.5) {
                        terms.push((vec![i], vec![1.0], rng.gen_range(-10.0..10.0), 0.5));
                    }
                    let far = (i + rng.gen_range(0..b + 1)).min(d - 1);
                    if far > i {
                        let c = rng.gen_range(-2.0..2.0);
                        terms.push((vec![i, far], vec![1.0, c], 0.3, rng.gen_range(0.01..2.0)));
                    }
                    let wide: Vec<usize> = (i..=(i + b).min(d - 1)).collect();
                    let coeffs = wide.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
                    terms.push((
                        wide,
                        coeffs,
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(0.1..3.0),
                    ));
                }
                for mean_only in [true, false] {
                    for ws in [&mut portable, &mut avx2] {
                        ws.begin(&prior, b);
                        for (locals, coeffs, obs, var) in &terms {
                            ws.add_term(locals, coeffs, *obs, *var);
                        }
                        assert!(if mean_only {
                            ws.solve_mean()
                        } else {
                            ws.solve()
                        });
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(avx2.mean()), bits(portable.mean()), "band {b} means");
                    if !mean_only {
                        assert_eq!(bits(avx2.var()), bits(portable.var()), "band {b} variances");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_precision_reports_failure() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0), Gaussian::new(0.0, 1.0)], 1);
        // A malicious negative-variance-like term that destroys positive
        // definiteness cannot be built through `add_term` (var > 0), so
        // emulate an ill-conditioned system by cancelling the diagonal.
        let at = slot(ws.stride(), 0, 0);
        ws.prec[at] = -1.0;
        assert!(!ws.solve());
    }
}
