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
//! All state, the IRLS estimate included, lives in a caller-owned
//! [`AnalyticScratch`], so the hot path is allocation-free once the
//! buffers have grown to the largest system
//! ([`AnalyticScratch::with_capacity`] grows them up front).

use crate::dist::Gaussian;

/// IRLS passes per solve. Three matched eight to two decimals in the
/// measurements behind ROADMAP item 1, and five or eight moved the
/// benchmark's error by less than 0.3 points.
const IRLS_ITERATIONS: usize = 3;

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
    /// Lower band of the precision, `dim` rows of `band + 1`: entry
    /// `(i, j)`, `i − band ≤ j ≤ i`, sits at `i·(band + 1) + (i − j)`.
    /// The Cholesky factor overwrites it in place.
    prec: Vec<f64>,
    /// Information vector `Λμ`.
    info: Vec<f64>,
    /// Upper band of the covariance, `dim` rows of `band + 1`: entry
    /// `(i, j)`, `i ≤ j ≤ i + band`, sits at `i·(band + 1) + (j − i)`.
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
        let band_len = dim * (bandwidth.min(dim.saturating_sub(1)) + 1);
        AnalyticScratch {
            prec: Vec::with_capacity(band_len),
            info: Vec::with_capacity(dim),
            cov: Vec::with_capacity(band_len),
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
            self.prec[j * w] = p;
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
                    self.prec[la * (b + 1) + (la - lb)] += ca * cb * w;
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
        let w = b + 1;
        self.cov.clear();
        self.cov.resize(d * w, 0.0);
        self.var.clear();
        self.var.resize(d, 0.0);
        // Takahashi: Lᵀ·Σ = L⁻¹, whose upper triangle is diag(1/Lᵢᵢ), so
        // Σᵢⱼ = (δᵢⱼ/Lᵢᵢ − Σₖ₌ᵢ₊₁ Lₖᵢ·Σₖⱼ)/Lᵢᵢ for j ≥ i. Rows run
        // bottom-up and columns right to left, so every Σₖⱼ it reads is
        // already known, and all of them lie within the band.
        for i in (0..d).rev() {
            let hi = (i + b).min(d - 1);
            let lii = self.prec[i * w];
            for j in (i..=hi).rev() {
                let mut s = if j == i { 1.0 / lii } else { 0.0 };
                for k in i + 1..=hi {
                    let skj = if j >= k {
                        self.cov[k * w + (j - k)]
                    } else {
                        self.cov[j * w + (k - j)]
                    };
                    s -= self.prec[k * w + (k - i)] * skj;
                }
                self.cov[i * w + (j - i)] = s / lii;
            }
            self.var[i] = self.cov[i * w];
        }
        true
    }

    /// [`AnalyticScratch::solve`] without the variances: the banded
    /// Cholesky factorization and the two triangular solves for the
    /// means. Returns `false` on a precision that is not numerically
    /// positive definite.
    pub fn solve_mean(&mut self) -> bool {
        let (d, b) = (self.dim, self.band);
        let w = b + 1;
        self.mean.resize(d, 0.0);
        // In-place banded Cholesky: L(i, j) overwrites Λ(i, j).
        for i in 0..d {
            let lo = i.saturating_sub(b);
            for j in lo..=i {
                let mut s = self.prec[i * w + (i - j)];
                for k in lo..j {
                    s -= self.prec[i * w + (i - k)] * self.prec[j * w + (j - k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return false;
                    }
                    self.prec[i * w] = s.sqrt();
                } else {
                    self.prec[i * w + (i - j)] = s / self.prec[j * w];
                }
            }
        }
        // mean = Λ⁻¹·info via two triangular solves (y reuses `mean`).
        for i in 0..d {
            let mut s = self.info[i];
            for k in i.saturating_sub(b)..i {
                s -= self.prec[i * w + (i - k)] * self.mean[k];
            }
            self.mean[i] = s / self.prec[i * w];
        }
        for i in (0..d).rev() {
            let mut s = self.mean[i];
            for k in i + 1..=(i + b).min(d.saturating_sub(1)) {
                s -= self.prec[k * w + (k - i)] * self.mean[k];
            }
            self.mean[i] = s / self.prec[i * w];
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
                            ws.prec[r * 3 + (r - c)]
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
        ws.prec[0] = -1.0;
        assert!(!ws.solve());
    }
}
