//! Deterministic tilted moments: Gaussian-linear solves and IRLS.
//!
//! When every factor of a site is a Gaussian density on a *linear*
//! combination of the site's variables, the tilted distribution
//! `cavity × likelihood` is exactly a multivariate Gaussian: its precision
//! is the diagonal cavity precision plus one rank-1 term `c·cᵀ/σ²` per
//! factor, and its information vector accumulates `c·m/σ²`. A dense
//! Cholesky solve of the site-local `d×d` system yields the exact marginal
//! means and variances in `O(d³ + F·arity²)` flops.
//!
//! A factor that is not Gaussian-linear — a Student-t observation, or a
//! Gaussian on a residual divided by a state-dependent normalizer — is
//! replaced by the Gaussian-linear factor that matches it at the current
//! estimate, the system is solved, and the replacement is refitted at the
//! new mean: iteratively reweighted least squares ([`AnalyticScratch::irls`]),
//! i.e. Laplace propagation (Smola et al., NIPS 2003) inside EP. Every
//! factor in BayesPerf's catalogs takes one of these two forms, so EP's
//! moment step needs no sampling.
//!
//! All state, the IRLS estimate included, lives in a caller-owned
//! [`AnalyticScratch`], so the hot path is allocation-free once the buffers
//! have grown to the largest site dimension.

use crate::dist::Gaussian;

/// IRLS passes per site update. Three matched eight to two decimals in the
/// measurements behind ROADMAP item 1.
const IRLS_ITERATIONS: usize = 3;

/// Reusable buffers for one site's Gaussian-linear moment solve.
///
/// Lifecycle per solve: [`AnalyticScratch::begin`] with the cavity, one
/// [`AnalyticScratch::add_term`] per factor, then
/// [`AnalyticScratch::solve`] (or [`AnalyticScratch::solve_mean`] when
/// only the mean is needed); read the results through
/// [`AnalyticScratch::mean`]/[`AnalyticScratch::var`].
/// [`AnalyticScratch::irls`] repeats that cycle with reweighted terms.
#[derive(Debug, Clone, Default)]
pub struct AnalyticScratch {
    dim: usize,
    /// Tilted precision matrix, row-major `dim × dim` (symmetric; the
    /// Cholesky factor overwrites the lower triangle in `solve`).
    prec: Vec<f64>,
    /// Information vector `Λμ`.
    info: Vec<f64>,
    /// Lower-triangular inverse of the Cholesky factor (for marginal
    /// variances: `(Λ⁻¹)ⱼⱼ = Σᵢ (L⁻¹)ᵢⱼ²`).
    linv: Vec<f64>,
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

    /// Starts a `cavity.len()`-dimensional solve: precision = diagonal
    /// cavity precision, information = precision-weighted cavity means.
    /// Leaves [`AnalyticScratch::mean`] as it was, so terms added next can
    /// be weighted at the previous solve's estimate.
    pub fn begin(&mut self, cavity: &[Gaussian]) {
        let d = cavity.len();
        self.dim = d;
        self.prec.clear();
        self.prec.resize(d * d, 0.0);
        self.info.clear();
        for (j, g) in cavity.iter().enumerate() {
            let p = 1.0 / g.var;
            self.prec[j * d + j] = p;
            self.info.push(g.mean * p);
        }
    }

    /// Accumulates one Gaussian-linear factor: the linear combination
    /// `Σᵢ coeffs[i]·x[locals[i]]` observed as `obs` with variance `var`.
    ///
    /// # Panics
    ///
    /// Panics if `locals` and `coeffs` lengths differ, a local index is out
    /// of range, or `var` is not positive.
    pub fn add_term(&mut self, locals: &[usize], coeffs: &[f64], obs: f64, var: f64) {
        assert_eq!(locals.len(), coeffs.len(), "locals/coeffs length mismatch");
        assert!(
            var > 0.0,
            "linear-term variance must be positive, got {var}"
        );
        let d = self.dim;
        let w = 1.0 / var;
        for (&la, &ca) in locals.iter().zip(coeffs) {
            assert!(la < d, "local {la} out of range for dimension {d}");
            self.info[la] += ca * obs * w;
            for (&lb, &cb) in locals.iter().zip(coeffs) {
                self.prec[la * d + lb] += ca * cb * w;
            }
        }
    }

    /// Runs the IRLS solve: seeds the estimate with `start` (one value
    /// per cavity entry), then makes three passes, each of which
    /// [`AnalyticScratch::begin`]s at `cavity`, lets `add_terms` add every
    /// factor as a Gaussian-linear term weighted at the current estimate
    /// ([`AnalyticScratch::mean`]), and solves. Only the last pass forms
    /// variances.
    ///
    /// Returns `false` when `add_terms` declines (it must, rather than
    /// pass [`AnalyticScratch::add_term`] a variance that is not finite and
    /// positive) or a solve does.
    pub fn irls(
        &mut self,
        cavity: &[Gaussian],
        start: impl IntoIterator<Item = f64>,
        mut add_terms: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        self.mean.clear();
        self.mean.extend(start);
        for pass in 1..=IRLS_ITERATIONS {
            self.begin(cavity);
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

    /// Solves for the tilted marginal means and variances. Returns `false`
    /// (leaving outputs unspecified) if the precision matrix is not
    /// numerically positive definite.
    pub fn solve(&mut self) -> bool {
        if !self.solve_mean() {
            return false;
        }
        let d = self.dim;
        self.linv.clear();
        self.linv.resize(d * d, 0.0);
        self.var.clear();
        self.var.resize(d, 0.0);
        // L⁻¹ by forward substitution per column, then marginal variances
        // (Λ⁻¹)ⱼⱼ = Σᵢ (L⁻¹)ᵢⱼ².
        for j in 0..d {
            self.linv[j * d + j] = 1.0 / self.prec[j * d + j];
            for i in j + 1..d {
                let mut s = 0.0;
                for k in j..i {
                    s += self.prec[i * d + k] * self.linv[k * d + j];
                }
                self.linv[i * d + j] = -s / self.prec[i * d + i];
            }
        }
        for j in 0..d {
            let mut s = 0.0;
            for i in j..d {
                let l = self.linv[i * d + j];
                s += l * l;
            }
            self.var[j] = s;
        }
        true
    }

    /// [`AnalyticScratch::solve`] without the variances: Cholesky
    /// factorization and the two triangular solves for the means. Returns
    /// `false` on a precision that is not numerically positive definite.
    pub fn solve_mean(&mut self) -> bool {
        let d = self.dim;
        self.mean.resize(d, 0.0);
        // In-place Cholesky: lower triangle of `prec` becomes L.
        for i in 0..d {
            for j in 0..=i {
                let mut s = self.prec[i * d + j];
                for k in 0..j {
                    s -= self.prec[i * d + k] * self.prec[j * d + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return false;
                    }
                    self.prec[i * d + i] = s.sqrt();
                } else {
                    self.prec[i * d + j] = s / self.prec[j * d + j];
                }
            }
        }
        // mean = Λ⁻¹·info via two triangular solves (y reuses `mean`).
        for i in 0..d {
            let mut s = self.info[i];
            for k in 0..i {
                s -= self.prec[i * d + k] * self.mean[k];
            }
            self.mean[i] = s / self.prec[i * d + i];
        }
        for i in (0..d).rev() {
            let mut s = self.mean[i];
            for k in i + 1..d {
                s -= self.prec[k * d + i] * self.mean[k];
            }
            self.mean[i] = s / self.prec[i * d + i];
        }
        true
    }

    /// Appends the marginal of a variable the solve eliminated (one that
    /// touched only its cavity and one factor, integrated out beforehand),
    /// so [`AnalyticScratch::mean`] and [`AnalyticScratch::var`] cover the
    /// site's whole scope.
    pub fn push_marginal(&mut self, mean: f64, var: f64) {
        self.mean.push(mean);
        self.var.push(var);
    }

    /// Marginal means of the last successful solve (plus any pushed
    /// marginals).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Marginal variances of the last successful [`AnalyticScratch::solve`]
    /// (plus any pushed marginals).
    pub fn var(&self) -> &[f64] {
        &self.var
    }
}

#[cfg(test)]
impl AnalyticScratch {
    /// Test-only access to the raw precision buffer.
    fn prec_mut(&mut self) -> &mut [f64] {
        &mut self.prec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_observation_matches_conjugate_update() {
        // Prior N(0, 4), observation x ~ N(6, 1): posterior N(4.8, 0.8).
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 4.0)]);
        ws.add_term(&[0], &[1.0], 6.0, 1.0);
        assert!(ws.solve());
        assert!((ws.mean()[0] - 4.8).abs() < 1e-12);
        assert!((ws.var()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn linear_constraint_transfers_information() {
        // Wide cavities; x0 observed at 3 (tight), x0 + x1 observed at 10.
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1e4), Gaussian::new(0.0, 1e4)]);
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
        // 2·x0 − x1 = 1 (σ² = 0.01) with cavities N(1, 1), N(2, 1).
        // Posterior precision: [[4/.01+1, -2/.01], [-2/.01, 1/.01+1]] …
        // verify against a dense hand solve instead: check Λ·mean = info.
        let cavity = [Gaussian::new(1.0, 1.0), Gaussian::new(2.0, 1.0)];
        let mut ws = AnalyticScratch::new();
        ws.begin(&cavity);
        ws.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(ws.solve());
        let (m0, m1) = (ws.mean()[0], ws.mean()[1]);
        // Residual of the constraint should be nearly satisfied.
        assert!(
            (2.0 * m0 - m1 - 1.0).abs() < 0.05,
            "residual {}",
            2.0 * m0 - m1 - 1.0
        );
        // And the solution must stay near the cavity means in the
        // unconstrained direction (1·m0 + 2·m1 ≈ 1·1 + 2·2 = 5).
        assert!((m0 + 2.0 * m1 - 5.0).abs() < 0.1);
    }

    #[test]
    fn reuse_across_dimensions_does_not_leak() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0); 5]);
        ws.add_term(&[0, 4], &[1.0, 1.0], 3.0, 0.5);
        assert!(ws.solve());
        // Smaller problem afterwards must match a fresh scratch.
        ws.begin(&[Gaussian::new(0.0, 4.0)]);
        ws.add_term(&[0], &[1.0], 6.0, 1.0);
        assert!(ws.solve());
        assert!((ws.mean()[0] - 4.8).abs() < 1e-12);
        assert!((ws.var()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mean_only_solve_matches_the_full_solve() {
        let cavity = [Gaussian::new(1.0, 1.0), Gaussian::new(2.0, 3.0)];
        let mut full = AnalyticScratch::new();
        full.begin(&cavity);
        full.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(full.solve());
        let mut mean_only = AnalyticScratch::new();
        mean_only.begin(&cavity);
        mean_only.add_term(&[0, 1], &[2.0, -1.0], 1.0, 0.01);
        assert!(mean_only.solve_mean());
        assert_eq!(mean_only.mean(), full.mean());
    }

    #[test]
    fn irls_weights_each_pass_at_the_previous_mean() {
        // A term whose variance is the squared estimate: each pass must
        // see the mean the pass before it solved for, starting at `start`.
        let cavity = [Gaussian::new(0.0, 4.0)];
        let mut seen = Vec::new();
        let mut ws = AnalyticScratch::new();
        assert!(ws.irls(&cavity, [2.0], |ws| {
            let x = ws.mean()[0];
            seen.push(x);
            ws.add_term(&[0], &[1.0], 6.0, x * x);
            true
        }));
        assert_eq!(seen.len(), IRLS_ITERATIONS);
        assert_eq!(seen[0], 2.0);
        let mut replay = AnalyticScratch::new();
        for pair in seen.windows(2) {
            replay.begin(&cavity);
            replay.add_term(&[0], &[1.0], 6.0, pair[0] * pair[0]);
            assert!(replay.solve());
            assert_eq!(replay.mean()[0], pair[1]);
        }
        // A declined pass declines the solve.
        assert!(!ws.irls(&cavity, [2.0], |_| false));
    }

    #[test]
    fn pushed_marginals_extend_the_outputs() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 4.0)]);
        ws.add_term(&[0], &[1.0], 6.0, 1.0);
        assert!(ws.solve());
        ws.push_marginal(3.0, 0.5);
        assert_eq!(ws.mean().len(), 2);
        assert_eq!((ws.mean()[1], ws.var()[1]), (3.0, 0.5));
    }

    #[test]
    fn degenerate_precision_reports_failure() {
        let mut ws = AnalyticScratch::new();
        ws.begin(&[Gaussian::new(0.0, 1.0), Gaussian::new(0.0, 1.0)]);
        // A malicious negative-variance-like term that destroys positive
        // definiteness cannot be built through `add_term` (var > 0), so
        // emulate an ill-conditioned system by cancelling the diagonal.
        ws.prec_mut()[0] = -1.0;
        assert!(!ws.solve());
    }
}
