//! Factor-structured EP sites with sparse delta evaluation and an analytic
//! Gaussian-linear fast path.
//!
//! [`EpSite`] documents the locality contract — when one local variable
//! moves, only the factors adjacent to it can change — but a closure-based
//! [`FnSite`](crate::FnSite) cannot exploit it: the closure is one opaque
//! factor, so every proposal pays the full likelihood. [`FactorSite`] makes
//! the factorization explicit: the site is a list of factors, each
//! declaring which local variables it touches, and a CSR-flattened
//! variable→factor index ([`bayesperf_graph::CsrAdjacency`]) answers
//! [`EpSite::factors_of`]. The engine's [`FactorCache`](crate::FactorCache)
//! holds every factor's value at the chain's current state, so a proposal
//! evaluates only the `deg(i)` adjacent factors, once, at the proposed
//! value — instead of all `F` — the same sparsity the accelerator's AcMC²
//! sampler IPs exploit in hardware (§5).
//!
//! # Typed factors and the analytic moment fast path
//!
//! Beyond opaque closures, a site can hold *typed* factors:
//!
//! * [`FactorSiteBuilder::gaussian_linear`] — a Gaussian pseudo-observation
//!   of a linear combination `Σ cᵢ·xᵢ ~ N(obs, var)` (BayesPerf's
//!   linear-constraint invariants, e.g. `refs = hits + misses`);
//! * [`FactorSiteBuilder::poisson`] — a Poisson count observation
//!   `k ~ Poisson(exposure·x)`; at high counts (`k ≥ 64`) it is
//!   statistically indistinguishable from the Gaussian
//!   `exposure·x − k ~ N(0, k)` and reports that linearization.
//!
//! When **every** factor of a site is Gaussian-linear (including
//! high-count Poissons), the tilted distribution is exactly Gaussian and
//! the site advertises [`MomentStrategy::Analytic`]: the EP driver computes
//! tilted moments in closed form through [`AnalyticScratch`]
//! (`O(d³)` Cholesky) and never runs MCMC for the site. A single low-count
//! Poisson or opaque closure demotes the whole site to
//! [`MomentStrategy::Mcmc`].

use crate::analytic::AnalyticScratch;
use crate::dist::Gaussian;
use crate::ep::{EpSite, MomentStrategy};
use bayesperf_graph::CsrAdjacency;

/// Observed counts at or above this threshold let a Poisson factor use its
/// Gaussian approximation `N(k, k)` (relative moment error below ~1%).
pub const POISSON_GAUSSIAN_COUNT: f64 = 64.0;

/// One factor of a [`FactorSite`]: a log-density over the site-local state.
///
/// Implemented for any `Fn(&[f64]) -> f64`; the closure receives the *full*
/// local state (aligned with the site's variable scope) and should read only
/// the variables it declared when registered.
pub trait LocalFactor: Send + Sync {
    /// Log density contribution (up to an additive constant).
    fn log_pdf(&self, x: &[f64]) -> f64;
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> LocalFactor for F {
    fn log_pdf(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

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

    fn log_pdf(&self, x: &[f64]) -> f64 {
        let s: f64 = self
            .locals
            .iter()
            .zip(&self.coeffs)
            .map(|(&l, &c)| c * x[l])
            .sum();
        let d = s - self.obs;
        -0.5 * d * d / self.var - 0.5 * self.var.ln()
    }
}

/// A Poisson count observation on one local variable:
/// `count ~ Poisson(exposure · x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonFactor {
    local: usize,
    count: f64,
    exposure: f64,
}

impl PoissonFactor {
    /// Creates the factor.
    ///
    /// # Panics
    ///
    /// Panics if `count` is negative or `exposure` is not positive and
    /// finite.
    pub fn new(local: usize, count: f64, exposure: f64) -> Self {
        assert!(count >= 0.0, "count must be non-negative, got {count}");
        assert!(
            exposure.is_finite() && exposure > 0.0,
            "exposure must be positive, got {exposure}"
        );
        PoissonFactor {
            local,
            count,
            exposure,
        }
    }

    /// The observed count.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Whether the count is high enough for the Gaussian approximation.
    pub fn is_gaussian(&self) -> bool {
        self.count >= POISSON_GAUSSIAN_COUNT
    }

    fn log_pdf(&self, x: &[f64]) -> f64 {
        let lambda = self.exposure * x[self.local];
        if lambda <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.count * lambda.ln() - lambda
    }
}

/// Internal representation of one site factor.
enum SiteFactor {
    /// An opaque closure — never analytic.
    Opaque(Box<dyn LocalFactor>),
    /// A typed Gaussian-linear factor — always analytic.
    Linear(LinearGaussianFactor),
    /// A typed Poisson factor — analytic at high counts.
    Poisson(PoissonFactor),
}

impl SiteFactor {
    fn log_pdf(&self, x: &[f64]) -> f64 {
        match self {
            SiteFactor::Opaque(f) => f.log_pdf(x),
            SiteFactor::Linear(f) => f.log_pdf(x),
            SiteFactor::Poisson(f) => f.log_pdf(x),
        }
    }

    /// Accumulates this factor's Gaussian-linear form into `ws`, or reports
    /// that it has none.
    fn add_linear_term(&self, ws: &mut AnalyticScratch) -> bool {
        match self {
            SiteFactor::Opaque(_) => false,
            SiteFactor::Linear(f) => {
                ws.add_term(&f.locals, &f.coeffs, f.obs, f.var);
                true
            }
            SiteFactor::Poisson(f) => {
                if !f.is_gaussian() {
                    return false;
                }
                ws.add_term(
                    std::slice::from_ref(&f.local),
                    std::slice::from_ref(&f.exposure),
                    f.count,
                    f.count.max(1.0),
                );
                true
            }
        }
    }

    fn is_linear(&self) -> bool {
        match self {
            SiteFactor::Opaque(_) => false,
            SiteFactor::Linear(_) => true,
            SiteFactor::Poisson(f) => f.is_gaussian(),
        }
    }
}

/// Builder for [`FactorSite`]: collect factors, then seal the CSR index.
#[derive(Default)]
pub struct FactorSiteBuilder {
    vars: Vec<usize>,
    factors: Vec<SiteFactor>,
    edges: Vec<(usize, u32)>,
    hints: Vec<Option<f64>>,
    scale_hints: Vec<Option<f64>>,
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
        let n = vars.len();
        FactorSiteBuilder {
            vars,
            factors: Vec::new(),
            edges: Vec::new(),
            hints: vec![None; n],
            scale_hints: vec![None; n],
        }
    }

    fn register_edges(&mut self, locals: &[usize]) {
        let fi = self.factors.len() as u32;
        let mut seen = locals.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), locals.len(), "factor locals must be unique");
        for &l in locals {
            assert!(
                l < self.vars.len(),
                "factor local {l} out of range for a {}-variable site",
                self.vars.len()
            );
            self.edges.push((l, fi));
        }
    }

    /// Adds an opaque factor touching the *local* variable indices `locals`
    /// (positions within the site's scope, not global indices). Opaque
    /// factors force the site onto the MCMC moment path.
    ///
    /// # Panics
    ///
    /// Panics if a local index is out of range or repeated.
    pub fn factor(
        mut self,
        locals: &[usize],
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.register_edges(locals);
        self.factors.push(SiteFactor::Opaque(Box::new(f)));
        self
    }

    /// Adds a typed Gaussian-linear factor:
    /// `Σᵢ coeffs[i]·x[locals[i]] ~ N(obs, var)`.
    ///
    /// # Panics
    ///
    /// Panics if a local index is out of range or repeated, lengths differ,
    /// or `var` is not positive.
    pub fn gaussian_linear(mut self, locals: &[usize], coeffs: &[f64], obs: f64, var: f64) -> Self {
        self.register_edges(locals);
        self.factors
            .push(SiteFactor::Linear(LinearGaussianFactor::new(
                locals.to_vec(),
                coeffs.to_vec(),
                obs,
                var,
            )));
        self
    }

    /// Adds a typed Poisson count observation:
    /// `count ~ Poisson(exposure·x[local])`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range, `count` is negative, or
    /// `exposure` is not positive.
    pub fn poisson(mut self, local: usize, count: f64, exposure: f64) -> Self {
        self.register_edges(&[local]);
        self.factors.push(SiteFactor::Poisson(PoissonFactor::new(
            local, count, exposure,
        )));
        self
    }

    /// Sets the MCMC initialization hint for local variable `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn init_hint(mut self, local: usize, value: f64) -> Self {
        self.hints[local] = Some(value);
        self
    }

    /// Sets the proposal-scale hint for local variable `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn scale_hint(mut self, local: usize, value: f64) -> Self {
        self.scale_hints[local] = Some(value);
        self
    }

    /// Seals the builder: flattens the variable→factor index into CSR form.
    pub fn build(self) -> FactorSite {
        let adj = CsrAdjacency::from_edges(self.vars.len(), self.edges.iter().copied());
        FactorSite {
            vars: self.vars,
            factors: self.factors,
            adj,
            hints: self.hints,
            scale_hints: self.scale_hints,
        }
    }
}

/// An [`EpSite`] whose likelihood is an explicit product of factors, with
/// CSR-indexed sparse delta evaluation and, when every factor is
/// Gaussian-linear, closed-form tilted moments.
pub struct FactorSite {
    vars: Vec<usize>,
    factors: Vec<SiteFactor>,
    adj: CsrAdjacency,
    hints: Vec<Option<f64>>,
    scale_hints: Vec<Option<f64>>,
}

impl std::fmt::Debug for FactorSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorSite")
            .field("num_vars", &self.vars.len())
            .field("num_factors", &self.factors.len())
            .field("strategy", &EpSite::moment_strategy(self))
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

    /// Replaces the observed count of the Poisson factor at `factor_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `factor_idx` is out of range, names a non-Poisson factor,
    /// or `count` is negative.
    pub fn set_poisson_count(&mut self, factor_idx: usize, count: f64) {
        assert!(count >= 0.0, "count must be non-negative, got {count}");
        match &mut self.factors[factor_idx] {
            SiteFactor::Poisson(f) => f.count = count,
            _ => panic!("factor {factor_idx} is not a Poisson factor"),
        }
    }
}

impl EpSite for FactorSite {
    fn vars(&self) -> &[usize] {
        &self.vars
    }

    fn num_factors(&self) -> usize {
        self.factors.len()
    }

    fn factors_of(&self, i: usize) -> &[u32] {
        self.adj.row(i)
    }

    fn factor_log_pdf(&self, f: usize, x: &[f64]) -> f64 {
        self.factors[f].log_pdf(x)
    }

    fn init_hint(&self, i: usize) -> Option<f64> {
        self.hints[i]
    }

    fn scale_hint(&self, i: usize) -> Option<f64> {
        self.scale_hints[i]
    }

    fn moment_strategy(&self) -> MomentStrategy {
        if !self.factors.is_empty() && self.factors.iter().all(SiteFactor::is_linear) {
            MomentStrategy::Analytic
        } else {
            MomentStrategy::Mcmc
        }
    }

    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool {
        ws.begin(cavity);
        for f in &self.factors {
            if !f.add_linear_term(ws) {
                return false;
            }
        }
        ws.solve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorCache;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn two_factor_site() -> FactorSite {
        // x0 observed near 3; x0 + x1 ≈ 10.
        FactorSite::builder(vec![0, 1])
            .factor(&[0], |x: &[f64]| Gaussian::new(3.0, 0.01).log_pdf(x[0]))
            .factor(&[0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
            })
            .build()
    }

    #[test]
    fn likelihood_is_factor_sum() {
        let site = two_factor_site();
        let x = [2.5, 7.1];
        let expect = Gaussian::new(3.0, 0.01).log_pdf(2.5)
            + Gaussian::new(0.0, 0.01).log_pdf(2.5 + 7.1 - 10.0);
        assert!((site.log_likelihood(&x) - expect).abs() < 1e-12);
    }

    #[test]
    fn delta_matches_full_recompute_and_restores_state() {
        let site = two_factor_site();
        let mut x = vec![2.5, 7.1];
        let before = site.log_likelihood(&x);
        let mut cache = FactorCache::new();
        cache.start(&site, &x);
        let delta = cache.delta(&site, &mut x, 1, 6.4);
        assert_eq!(x, vec![2.5, 7.1], "state must be restored");
        let full = site.log_likelihood(&[2.5, 6.4]) - before;
        assert!((delta - full).abs() < 1e-12, "delta {delta} vs {full}");
    }

    #[test]
    fn delta_only_visits_adjacent_factors() {
        // Factor 0 touches only local 0, factor 1 touches both.
        let site = two_factor_site();
        assert_eq!(site.factors_of(0), &[0, 1]);
        assert_eq!(site.factors_of(1), &[1]);
        // Moving local 1 must not evaluate factor 0, and a proposal
        // evaluates its adjacent factors once, at the proposed value:
        // count every evaluation.
        let calls: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (c0, c1) = (Arc::clone(&calls), Arc::clone(&calls));
        let counted = FactorSite::builder(vec![0, 1])
            .factor(&[0], move |_: &[f64]| {
                c0[0].fetch_add(1, Ordering::Relaxed);
                0.0
            })
            .factor(&[1], move |x: &[f64]| {
                c1[1].fetch_add(1, Ordering::Relaxed);
                -x[1] * x[1]
            })
            .build();
        let mut x = vec![0.0, 1.0];
        let mut cache = FactorCache::new();
        cache.start(&counted, &x);
        let d = cache.delta(&counted, &mut x, 1, 2.0);
        assert!((d - (-4.0 + 1.0)).abs() < 1e-12);
        cache.accept(&counted, 1);
        x[1] = 2.0;
        let d = cache.delta(&counted, &mut x, 1, 3.0);
        assert!((d - (-9.0 + 4.0)).abs() < 1e-12);
        assert_eq!(calls[0].load(Ordering::Relaxed), 1, "factor 0: start only");
        assert_eq!(
            calls[1].load(Ordering::Relaxed),
            3,
            "factor 1: start + 2 proposals"
        );
    }

    #[test]
    fn opaque_factors_select_mcmc() {
        assert_eq!(two_factor_site().moment_strategy(), MomentStrategy::Mcmc);
    }

    #[test]
    fn all_linear_factors_select_analytic() {
        let site = FactorSite::builder(vec![0, 1])
            .gaussian_linear(&[0], &[1.0], 3.0, 0.01)
            .gaussian_linear(&[0, 1], &[1.0, 1.0], 10.0, 0.01)
            .build();
        assert_eq!(site.moment_strategy(), MomentStrategy::Analytic);
    }

    #[test]
    fn one_opaque_factor_demotes_to_mcmc() {
        let site = FactorSite::builder(vec![0, 1])
            .gaussian_linear(&[0], &[1.0], 3.0, 0.01)
            .factor(&[1], |x: &[f64]| -x[1] * x[1])
            .build();
        assert_eq!(site.moment_strategy(), MomentStrategy::Mcmc);
    }

    #[test]
    fn poisson_strategy_depends_on_count() {
        let high = FactorSite::builder(vec![0])
            .poisson(0, 1000.0, 10.0)
            .build();
        assert_eq!(high.moment_strategy(), MomentStrategy::Analytic);
        let low = FactorSite::builder(vec![0]).poisson(0, 5.0, 10.0).build();
        assert_eq!(low.moment_strategy(), MomentStrategy::Mcmc);
    }

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
    fn high_count_poisson_moments_match_gaussian_limit() {
        // k = 10_000 at exposure 100: posterior of x concentrates near
        // k/exposure = 100 with var ≈ k/exposure² = 1 (wide cavity).
        let site = FactorSite::builder(vec![0])
            .poisson(0, 10_000.0, 100.0)
            .build();
        let mut ws = AnalyticScratch::new();
        assert!(site.analytic_moments(&[Gaussian::new(90.0, 1e6)], &mut ws));
        assert!((ws.mean()[0] - 100.0).abs() < 0.1, "mean {}", ws.mean()[0]);
        assert!((ws.var()[0] - 1.0).abs() < 0.05, "var {}", ws.var()[0]);
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
        let mut site = FactorSite::builder(vec![0]).poisson(0, 100.0, 1.0).build();
        site.set_linear_obs(0, 1.0);
    }

    #[test]
    fn poisson_log_pdf_peaks_at_rate() {
        let f = PoissonFactor::new(0, 100.0, 10.0);
        // λ = 10·x; peak at x = k/exposure = 10.
        assert!(f.log_pdf(&[10.0]) > f.log_pdf(&[9.0]));
        assert!(f.log_pdf(&[10.0]) > f.log_pdf(&[11.0]));
        assert_eq!(f.log_pdf(&[-1.0]), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "factor local 2 out of range")]
    fn rejects_out_of_range_local() {
        let _ = FactorSite::builder(vec![0, 1]).factor(&[2], |_: &[f64]| 0.0);
    }

    #[test]
    #[should_panic(expected = "site variables must be unique")]
    fn rejects_duplicate_vars() {
        FactorSiteBuilder::new(vec![0, 0]);
    }
}
