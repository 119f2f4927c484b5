//! Factor-structured EP sites.
//!
//! [`FactorSite`] is an [`EpSite`] whose likelihood is an explicit list of
//! typed factors, each over a few of the site's local variables:
//!
//! * [`FactorSiteBuilder::gaussian_linear`] — a Gaussian pseudo-observation
//!   of a linear combination `Σ cᵢ·xᵢ ~ N(obs, var)` (BayesPerf's
//!   linear-constraint invariants, e.g. `refs = hits + misses`);
//! * [`FactorSiteBuilder::student_t`] — a Student-t observation of one
//!   variable (the §4.2 error model of a noisy counter read).
//!
//! The site's tilted moments come from [`AnalyticScratch::irls`]: linear
//! factors enter the solve as they are, and each Student-t enters as the
//! Gaussian [`StudentT::irls_variance`] fits at the current estimate. A
//! site of linear factors alone is exact after the first pass.

use crate::analytic::AnalyticScratch;
use crate::dist::{Gaussian, StudentT};
use crate::ep::EpSite;

/// A Gaussian pseudo-observation of a linear combination of local
/// variables: `Σᵢ coeffs[i]·x[locals[i]] ~ N(obs, var)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGaussianFactor {
    locals: Vec<usize>,
    coeffs: Vec<f64>,
    obs: f64,
    var: f64,
}

impl LinearGaussianFactor {
    /// Creates the factor.
    ///
    /// # Panics
    ///
    /// Panics if `locals`/`coeffs` lengths differ, `locals` repeats an
    /// index, or `var` is not positive and finite.
    pub fn new(locals: Vec<usize>, coeffs: Vec<f64>, obs: f64, var: f64) -> Self {
        assert_eq!(locals.len(), coeffs.len(), "locals/coeffs length mismatch");
        let mut sorted = locals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), locals.len(), "factor locals must be unique");
        assert!(
            var.is_finite() && var > 0.0,
            "variance must be positive, got {var}"
        );
        LinearGaussianFactor {
            locals,
            coeffs,
            obs,
            var,
        }
    }

    /// The observed value of the linear combination.
    pub fn obs(&self) -> f64 {
        self.obs
    }
}

/// Internal representation of one site factor.
enum SiteFactor {
    Linear(LinearGaussianFactor),
    StudentT { local: usize, dist: StudentT },
}

impl SiteFactor {
    /// Adds this factor to the solve in `ws`, weighted at the current
    /// estimate `ws.mean()`. Declines on a weight that is not finite and
    /// positive (e.g. a NaN observation).
    fn add_term(&self, ws: &mut AnalyticScratch) -> bool {
        match self {
            SiteFactor::Linear(f) => ws.add_term(&f.locals, &f.coeffs, f.obs, f.var),
            SiteFactor::StudentT { local, dist } => {
                let var = dist.irls_variance(ws.mean()[*local]);
                if !(var.is_finite() && var > 0.0) {
                    return false;
                }
                ws.add_term(std::slice::from_ref(local), &[1.0], dist.loc, var);
            }
        }
        true
    }
}

/// Builder for [`FactorSite`].
pub struct FactorSiteBuilder {
    vars: Vec<usize>,
    factors: Vec<SiteFactor>,
}

impl FactorSiteBuilder {
    /// Starts a site over the global variables `vars`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` contains duplicates.
    pub fn new(vars: Vec<usize>) -> Self {
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vars.len(), "site variables must be unique");
        FactorSiteBuilder {
            vars,
            factors: Vec::new(),
        }
    }

    fn check_locals(&self, locals: &[usize]) {
        for &l in locals {
            assert!(
                l < self.vars.len(),
                "factor local {l} out of range for a {}-variable site",
                self.vars.len()
            );
        }
    }

    /// Adds a typed Gaussian-linear factor:
    /// `Σᵢ coeffs[i]·x[locals[i]] ~ N(obs, var)`, over *local* variable
    /// indices (positions within the site's scope, not global indices).
    ///
    /// # Panics
    ///
    /// Panics if a local index is out of range or repeated, lengths differ,
    /// or `var` is not positive.
    pub fn gaussian_linear(mut self, locals: &[usize], coeffs: &[f64], obs: f64, var: f64) -> Self {
        self.check_locals(locals);
        self.factors
            .push(SiteFactor::Linear(LinearGaussianFactor::new(
                locals.to_vec(),
                coeffs.to_vec(),
                obs,
                var,
            )));
        self
    }

    /// Adds a Student-t observation of local variable `local`:
    /// `x[local] ~ dist`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn student_t(mut self, local: usize, dist: StudentT) -> Self {
        self.check_locals(&[local]);
        self.factors.push(SiteFactor::StudentT { local, dist });
        self
    }

    /// Seals the builder.
    pub fn build(self) -> FactorSite {
        FactorSite {
            vars: self.vars,
            factors: self.factors,
        }
    }
}

/// An [`EpSite`] whose likelihood is an explicit product of typed factors.
pub struct FactorSite {
    vars: Vec<usize>,
    factors: Vec<SiteFactor>,
}

impl std::fmt::Debug for FactorSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorSite")
            .field("num_vars", &self.vars.len())
            .field("factors", &self.factors.len())
            .finish()
    }
}

impl FactorSite {
    /// Starts building a site over the global variables `vars`.
    pub fn builder(vars: Vec<usize>) -> FactorSiteBuilder {
        FactorSiteBuilder::new(vars)
    }

    /// Replaces the observed value of the Gaussian-linear factor at
    /// `factor_idx` — the warm-start observation swap (topology and
    /// coefficients stay fixed; only the datum moves between windows).
    ///
    /// # Panics
    ///
    /// Panics if `factor_idx` is out of range or names a non-linear factor.
    pub fn set_linear_obs(&mut self, factor_idx: usize, obs: f64) {
        match &mut self.factors[factor_idx] {
            SiteFactor::Linear(f) => f.obs = obs,
            _ => panic!("factor {factor_idx} is not a Gaussian-linear factor"),
        }
    }

    /// Where IRLS starts for local variable `j`: its (last) Student-t
    /// observation's location, else the cavity mean.
    fn start(&self, j: usize, cavity: &Gaussian) -> f64 {
        self.factors
            .iter()
            .rev()
            .find_map(|f| match f {
                SiteFactor::StudentT { local, dist } if *local == j => Some(dist.loc),
                _ => None,
            })
            .unwrap_or(cavity.mean)
    }
}

impl EpSite for FactorSite {
    fn vars(&self) -> &[usize] {
        &self.vars
    }

    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool {
        let start = cavity.iter().enumerate().map(|(j, g)| self.start(j, g));
        ws.irls(cavity, start, |ws| {
            self.factors.iter().all(|f| f.add_term(ws))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_moments_match_conjugate_update() {
        let site = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        let mut ws = AnalyticScratch::new();
        assert!(site.analytic_moments(&[Gaussian::new(0.0, 4.0)], &mut ws));
        assert!((ws.mean()[0] - 4.8).abs() < 1e-12);
        assert!((ws.var()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn near_gaussian_student_t_matches_the_conjugate_update() {
        // ν → ∞ with scale² = 1: the observation is N(6, 1), so the
        // posterior of an N(0, 4) cavity is N(4.8, 0.8).
        let site = FactorSite::builder(vec![0])
            .student_t(0, StudentT::new(6.0, 1.0, 1e9))
            .build();
        let mut ws = AnalyticScratch::new();
        assert!(site.analytic_moments(&[Gaussian::new(0.0, 4.0)], &mut ws));
        assert!((ws.mean()[0] - 4.8).abs() < 1e-6, "mean {}", ws.mean()[0]);
        assert!((ws.var()[0] - 0.8).abs() < 1e-6, "var {}", ws.var()[0]);
    }

    #[test]
    fn heavy_tails_discount_an_outlying_observation() {
        // The same read, far from a tight cavity: a Gaussian observation
        // drags the mean halfway; a ν = 3 Student-t barely moves it.
        let cavity = [Gaussian::new(0.0, 1.0)];
        let mut ws = AnalyticScratch::new();
        let gaussian = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 20.0, 1.0)
            .build();
        assert!(gaussian.analytic_moments(&cavity, &mut ws));
        let pulled = ws.mean()[0];
        let student = FactorSite::builder(vec![0])
            .student_t(0, StudentT::new(20.0, 1.0, 3.0))
            .build();
        assert!(student.analytic_moments(&cavity, &mut ws));
        assert!((pulled - 10.0).abs() < 1e-9);
        assert!(ws.mean()[0] < 1.0, "outlier pulled to {}", ws.mean()[0]);
    }

    #[test]
    fn nan_student_t_location_declines_the_solve() {
        let site = FactorSite::builder(vec![0])
            .student_t(0, StudentT::new(f64::NAN, 1.0, 3.0))
            .build();
        let mut ws = AnalyticScratch::new();
        assert!(!site.analytic_moments(&[Gaussian::new(0.0, 4.0)], &mut ws));
    }

    #[test]
    fn observation_swap_updates_linear_factor() {
        let mut site = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        site.set_linear_obs(0, 8.0);
        let mut ws = AnalyticScratch::new();
        assert!(site.analytic_moments(&[Gaussian::new(0.0, 4.0)], &mut ws));
        // Posterior mean of N(0,4) prior with N(8,1) obs: 8·(4/5) = 6.4.
        assert!((ws.mean()[0] - 6.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "is not a Gaussian-linear factor")]
    fn observation_swap_rejects_wrong_kind() {
        let mut site = FactorSite::builder(vec![0])
            .student_t(0, StudentT::new(100.0, 1.0, 3.0))
            .build();
        site.set_linear_obs(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "factor local 2 out of range")]
    fn rejects_out_of_range_local() {
        let _ = FactorSite::builder(vec![0, 1]).gaussian_linear(&[2], &[1.0], 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "site variables must be unique")]
    fn rejects_duplicate_vars() {
        FactorSiteBuilder::new(vec![0, 0]);
    }
}
