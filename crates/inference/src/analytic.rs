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
//! count, sets the cost. The kernels here reorganise the loops so that
//! entries which do not depend on each other are updated side by side,
//! in contiguous element-wise loops the compiler vectorises:
//!
//! * the Cholesky factorization is right-looking: column `k` of `L` is
//!   finished (pivot, square root, division), then its outer product is
//!   subtracted from every entry of the trailing band it touches;
//! * the forward solve `L·y = info` runs by columns: `y_k` is final once
//!   column `k − 1` has been subtracted, and column `k` is then
//!   subtracted from the entries below it;
//! * the Takahashi pass runs by rows, bottom-up: every off-diagonal
//!   covariance entry of row `i` reads only rows below `i`, so all of
//!   them are computed as independent lanes over a symmetric band of the
//!   covariance, and then the diagonal from them;
//! * the back solve `Lᵀ·x = y` stays one dot product per entry: the first
//!   term of entry `i` needs `x_{i+1}`, so its chain cannot be split
//!   without reordering the sum.
//!
//! Every entry still receives exactly the floating-point operations of
//! the dot-product form, in the same order (updates in ascending `k`),
//! so every mean and variance is bit-identical to it: the posteriors, the
//! benchmark's accuracy metrics and every seeded example output do not
//! depend on how the loops are arranged. Summing with several
//! accumulators would be faster again, but would change the last bits of
//! every posterior.
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
/// band in [`AnalyticScratch`]'s `prec`, where `w = band + 1`: column `j`
/// occupies `w` contiguous slots from its diagonal down.
fn slot(w: usize, i: usize, j: usize) -> usize {
    j * w + (i - j)
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
    /// Lower band of the precision, `dim` columns of `band + 1` slots
    /// (entry `(i, j)` at `slot(band + 1, i, j)`). The Cholesky factor
    /// overwrites it in place.
    prec: Vec<f64>,
    /// Information vector `Λμ`.
    info: Vec<f64>,
    /// Symmetric band of the covariance, `dim` rows of `2·band + 1`:
    /// entry `(i, j)`, `|i − j| ≤ band`, sits at
    /// `i·(2·band + 1) + (band + j − i)`, and `(j, i)` holds the same
    /// value, so a row's off-diagonal entries are one slice whichever
    /// side of the diagonal they lie on.
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
        AnalyticScratch {
            prec: Vec::with_capacity(dim * (b + 1)),
            info: Vec::with_capacity(dim),
            cov: Vec::with_capacity(dim * (2 * b + 1)),
            mean: Vec::with_capacity(dim),
            var: Vec::with_capacity(dim),
            ..Self::default()
        }
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
        let w = self.band + 1;
        self.prec.clear();
        self.prec.resize(d * w, 0.0);
        self.info.clear();
        for (j, g) in prior.iter().enumerate() {
            let p = 1.0 / g.var;
            self.prec[slot(w, j, j)] = p;
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
        let (d, b) = (self.dim, self.band);
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
                    self.prec[slot(b + 1, la, lb)] += ca * cb * w;
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
        let (w, w2) = (b + 1, 2 * b + 1);
        // Every entry the pass reads is written first, so the buffer
        // needs no clearing.
        self.cov.resize(d * w2, 0.0);
        self.var.clear();
        // Takahashi: Lᵀ·Σ = L⁻¹, whose upper triangle is diag(1/Lᵢᵢ), so
        // Σᵢⱼ = (δᵢⱼ/Lᵢᵢ − Σₖ₌ᵢ₊₁ Lₖᵢ·Σₖⱼ)/Lᵢᵢ for j ≥ i. Rows run
        // bottom-up, so every Σₖⱼ it reads is already known, and all of
        // them lie within the band. Off the diagonal (j > i) the sum reads
        // only rows below i, so the row's entries are independent lanes;
        // the diagonal then reads them.
        for i in (0..d).rev() {
            let n = b.min(d - 1 - i);
            let col = &self.prec[slot(w, i, i)..][..=n];
            let lii = col[0];
            let (head, below) = self.cov.split_at_mut((i + 1) * w2);
            // Σ(i, i+1..=i+n), accumulated in place.
            let row = &mut head[i * w2 + b + 1..][..n];
            row.fill(0.0);
            for (m, &lki) in col[1..].iter().enumerate() {
                // Row k = i + 1 + m from column i + 1 on.
                let sk = &below[m * w2 + b - m..][..n];
                for (s, &skj) in row.iter_mut().zip(sk) {
                    *s -= lki * skj;
                }
            }
            for (m, s) in row.iter_mut().enumerate() {
                *s /= lii;
                // Its mirror Σ(i + 1 + m, i), read by the rows above.
                below[m * w2 + b - 1 - m] = *s;
            }
            let mut s = 1.0 / lii;
            for (&lki, &sik) in col[1..].iter().zip(row.iter()) {
                s -= lki * sik;
            }
            head[i * w2 + b] = s / lii;
        }
        self.var.extend((0..d).map(|i| self.cov[i * w2 + b]));
        true
    }

    /// [`AnalyticScratch::solve`] without the variances: the banded
    /// Cholesky factorization and the two triangular solves for the
    /// means. Returns `false` on a precision that is not numerically
    /// positive definite.
    pub fn solve_mean(&mut self) -> bool {
        let (d, b) = (self.dim, self.band);
        let w = b + 1;
        // In-place right-looking banded Cholesky: L(i, j) overwrites
        // Λ(i, j). Entry (i, j) receives its updates L(i, k)·L(j, k) in
        // ascending k, exactly as the dot-product form subtracts them, so
        // the factor keeps its bits (see the module doc).
        for k in 0..d {
            let n = b.min(d - 1 - k);
            let trailing = slot(w, k + 1, k + 1);
            let (done, rest) = self.prec.split_at_mut(trailing);
            let col = &mut done[slot(w, k, k)..][..=n];
            let s = col[0];
            if s <= 0.0 || !s.is_finite() {
                return false;
            }
            let lkk = s.sqrt();
            col[0] = lkk;
            for l in &mut col[1..] {
                *l /= lkk;
            }
            // Column j = k + m of the trailing band, rows j..=k + n.
            for (m, &ljk) in col.iter().enumerate().skip(1) {
                let dst = &mut rest[slot(w, k + m, k + m) - trailing..][..=n - m];
                for (a, &lik) in dst.iter_mut().zip(&col[m..]) {
                    *a -= lik * ljk;
                }
            }
        }
        // mean = Λ⁻¹·info via two triangular solves (y reuses `mean`).
        // Forward, by columns: y_k is final once column k − 1 is in.
        self.mean.clear();
        self.mean.extend_from_slice(&self.info);
        for k in 0..d {
            let n = b.min(d - 1 - k);
            let col = &self.prec[slot(w, k, k)..][..=n];
            let (yk, below) = self.mean[k..].split_at_mut(1);
            yk[0] /= col[0];
            for (s, &l) in below[..n].iter_mut().zip(&col[1..]) {
                *s -= l * yk[0];
            }
        }
        // Back, by rows: one dot product per entry.
        for i in (0..d).rev() {
            let n = b.min(d - 1 - i);
            let col = &self.prec[slot(w, i, i)..][..=n];
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
                            ws.prec[slot(3, r, c)]
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

    #[test]
    fn degenerate_precision_reports_failure() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0), Gaussian::new(0.0, 1.0)], 1);
        // A malicious negative-variance-like term that destroys positive
        // definiteness cannot be built through `add_term` (var > 0), so
        // emulate an ill-conditioned system by cancelling the diagonal.
        ws.prec[slot(2, 0, 0)] = -1.0;
        assert!(!ws.solve());
    }
}
