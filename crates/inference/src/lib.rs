//! Bayesian inference engines for BayesPerf.
//!
//! Implements the machinery of §4.2–§4.3 of the paper:
//!
//! * probability distributions ([`Gaussian`], [`StudentT`], [`Gumbel`]) with
//!   sampling implemented from scratch (Box-Muller, Marsaglia-Tsang) so no
//!   external distribution crate is needed;
//! * natural-parameter [`GaussianMessage`] algebra — the multiply/divide
//!   operations Expectation Propagation's cavity computation is built on;
//! * a component-wise random-walk Metropolis-Hastings [`McmcSampler`] with
//!   step-size adaptation, matching the AcMC²-style samplers the
//!   accelerator parallelizes;
//! * the [`ExpectationPropagation`] driver (Alg. 1): sites are partitions of
//!   the data (one per scheduled HPC configuration / time slice); each site
//!   update forms a cavity distribution, estimates tilted moments by MCMC,
//!   and applies a damped global update under a Gaussian mean-field
//!   approximation.
//!
//! # Example: inferring an unmeasured counter through an invariant
//!
//! ```
//! use bayesperf_inference::{EpConfig, ExpectationPropagation, FnSite, Gaussian};
//!
//! // Two events with invariant x0 + x1 = 10; only x0 is observed (≈ 3).
//! let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
//! let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
//! ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
//!     Gaussian::new(3.0, 0.01).log_pdf(x[0])
//! }));
//! ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
//!     Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
//! }));
//! let result = ep.run_parallel(7, 1);
//! assert!((result.marginals[1].mean - 7.0).abs() < 0.5);
//! ```

mod analytic;
mod dist;
mod ep;
mod factor;
mod mcmc;
mod message;
mod parallel;
mod rng;
mod special;

pub use analytic::AnalyticScratch;
pub use dist::{Gaussian, GaussianLogPdf, Gumbel, StudentT, StudentTLogPdf};
pub use ep::{
    AdaptiveBudget, EpConfig, EpResult, EpRunStats, EpSite, ExpectationPropagation, FnSite,
    MomentStrategy,
};
pub use factor::{
    FactorSite, FactorSiteBuilder, LinearGaussianFactor, LocalFactor, PoissonFactor,
    POISSON_GAUSSIAN_COUNT,
};
pub use mcmc::{McmcConfig, McmcSampler, McmcScratch, McmcStats, Target};
pub use message::GaussianMessage;
pub use parallel::{FactorCache, SiteWorkspace, SweepSchedule};
pub use rng::{derive_stream_seed, SiteRng};
pub use special::ln_gamma;

/// Draws a standard-normal variate (Box-Muller transform).
pub fn standard_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Draws from Gamma(shape, 1) via Marsaglia-Tsang; `shape` must be positive.
///
/// # Panics
///
/// Panics if `shape` is not finite and positive.
pub fn gamma<R: rand::Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive, got {shape}"
    );
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gamma_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        for shape in [0.5, 1.0, 3.0, 10.0] {
            let n = 100_000;
            let samples: Vec<f64> = (0..n).map(|_| gamma(&mut rng, shape)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.08 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        gamma(&mut rng, 0.0);
    }
}
