//! Bayesian inference engines for BayesPerf.
//!
//! Implements the machinery behind §4.2–§4.3 of the paper:
//!
//! * probability distributions ([`Gaussian`], [`StudentT`], [`Gumbel`]) with
//!   sampling implemented from scratch (Box-Muller, Marsaglia-Tsang) so no
//!   external distribution crate is needed;
//! * the banded Gaussian-linear solver ([`AnalyticScratch`]): a banded
//!   Cholesky factorization for the means and the band-limited Takahashi
//!   recursion for the marginal variances, made iterative (IRLS) for
//!   Student-t observations and state-normalized invariants. The core
//!   crate solves each inference chunk with one such solve per connected
//!   component of the invariant graph, and reports its work in
//!   [`EpRunStats`];
//! * a component-wise random-walk Metropolis-Hastings sampler
//!   ([`mcmc`]), the reference the solved marginals are tested against.
//!
//! # Example: inferring an unmeasured counter through an invariant
//!
//! ```
//! use bayesperf_inference::{AnalyticScratch, Gaussian};
//!
//! // Two events with invariant x0 + x1 = 10; only x0 is observed (≈ 3).
//! let prior = [Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
//! let mut ws = AnalyticScratch::new();
//! // Every term couples variables at most one index apart.
//! ws.begin(&prior, 1);
//! ws.add_term(&[0], &[1.0], 3.0, 0.01);
//! ws.add_term(&[0, 1], &[1.0, 1.0], 10.0, 0.01);
//! assert!(ws.solve());
//! assert!((ws.mean()[1] - 7.0).abs() < 0.5);
//! ```

mod analytic;
mod dist;
pub mod mcmc;
mod rng;
mod special;

pub use analytic::{AnalyticScratch, EpRunStats};
pub use dist::{Gaussian, Gumbel, StudentT};
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
