//! Probability distributions used by the BayesPerf model.

use crate::special::ln_gamma;
use crate::{gamma, standard_normal};
use rand::Rng;
use serde::{Deserialize, Serialize};

const LN_2PI: f64 = 1.837_877_066_409_345_6;

/// A univariate Gaussian, parameterized by mean and variance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    /// Mean.
    pub mean: f64,
    /// Variance (must be positive).
    pub var: f64,
}

impl Gaussian {
    /// Creates a Gaussian.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not finite and positive.
    pub fn new(mean: f64, var: f64) -> Self {
        assert!(
            var.is_finite() && var > 0.0,
            "variance must be positive, got {var}"
        );
        Gaussian { mean, var }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Log probability density at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let d = x - self.mean;
        -0.5 * (LN_2PI + self.var.ln()) - d * d / (2.0 * self.var)
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev() * standard_normal(rng)
    }

    /// The symmetric credible interval at the given number of standard
    /// deviations (e.g. `1.96` for ~95%).
    pub fn interval(&self, z: f64) -> (f64, f64) {
        let h = z * self.std_dev();
        (self.mean - h, self.mean + h)
    }
}

/// A scaled and shifted Student's t-distribution.
///
/// This is the paper's §4.2 observation model: given `N` noisy samples of an
/// HPC with sample mean `μ` and sample variance `S²`, the marginal over the
/// unknown true value (variance marginalized out) is
/// `μ + (S/√N)·StudentT(ν = N−1)` (built per sample by the corrector's
/// error model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudentT {
    /// Location.
    pub loc: f64,
    /// Scale (must be positive).
    pub scale: f64,
    /// Degrees of freedom ν (must be positive).
    pub dof: f64,
}

impl StudentT {
    /// Creates a scaled/shifted Student-t.
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `dof` is not positive and finite.
    pub fn new(loc: f64, scale: f64, dof: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive, got {scale}"
        );
        assert!(
            dof.is_finite() && dof > 0.0,
            "degrees of freedom must be positive, got {dof}"
        );
        StudentT { loc, scale, dof }
    }

    /// Log probability density at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let v = self.dof;
        let z = (x - self.loc) / self.scale;
        ln_gamma((v + 1.0) / 2.0)
            - ln_gamma(v / 2.0)
            - 0.5 * (v * std::f64::consts::PI).ln()
            - self.scale.ln()
            - (v + 1.0) / 2.0 * (z * z / v).ln_1p()
    }

    /// Draws a sample (normal / sqrt(chi²/ν) representation).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        let chi2 = 2.0 * gamma(rng, self.dof / 2.0);
        self.loc + self.scale * z / (chi2 / self.dof).sqrt()
    }

    /// The variance of the Gaussian that stands in for this density at
    /// `x` in an IRLS (iteratively reweighted least squares) solve:
    /// `scale²·(ν + r²)/(ν + 1)` with `r = (x − loc)/scale`.
    ///
    /// Writing the Student-t as a scale mixture of Gaussians, this is the
    /// conditional variance given the mixing weight's expectation at `x`,
    /// so a residual far out in the tail gets a wide Gaussian and little
    /// pull. Non-finite when `loc` or `x` is.
    pub fn irls_variance(&self, x: f64) -> f64 {
        let r = (x - self.loc) / self.scale;
        self.scale * self.scale * (self.dof + r * r) / (self.dof + 1.0)
    }
}

/// The Gumbel (type-I extreme value) distribution.
///
/// Used by the CounterMiner baseline's outlier test: the maximum deviation
/// among a window of samples follows a Gumbel law, so an observation with
/// Gumbel tail probability below a threshold is flagged as an outlier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gumbel {
    /// Location μ.
    pub loc: f64,
    /// Scale β (must be positive).
    pub scale: f64,
}

impl Gumbel {
    /// Creates a Gumbel distribution.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn new(loc: f64, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive, got {scale}"
        );
        Gumbel { loc, scale }
    }

    /// Method-of-moments fit from a sample mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is not positive and finite.
    pub fn from_moments(mean: f64, sd: f64) -> Self {
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        let scale = sd * 6f64.sqrt() / std::f64::consts::PI;
        Gumbel::new(mean - EULER_GAMMA * scale, scale)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.loc) / self.scale).exp()).exp()
    }

    /// Log probability density at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.loc) / self.scale;
        -self.scale.ln() - z - (-z).exp()
    }

    /// Draws a sample via inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.loc - self.scale * (-u.ln()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn gaussian_log_pdf_peak() {
        let g = Gaussian::new(2.0, 4.0);
        assert!(g.log_pdf(2.0) > g.log_pdf(3.0));
        // pdf at mean = 1/sqrt(2π·4)
        let expected = -(0.5 * (LN_2PI + 4f64.ln()));
        assert!((g.log_pdf(2.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn gaussian_sampling_moments() {
        let g = Gaussian::new(-3.0, 2.25);
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)).collect();
        let (mean, var) = sample_moments(&samples);
        assert!((mean + 3.0).abs() < 0.02);
        assert!((var - 2.25).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn gaussian_rejects_zero_variance() {
        Gaussian::new(0.0, 0.0);
    }

    #[test]
    fn student_t_integrates_to_one() {
        // Trapezoid over a wide grid.
        let t = StudentT::new(1.0, 2.0, 4.0);
        let (a, b, n) = (-200.0, 202.0, 400_000);
        let h = (b - a) / n as f64;
        let mut acc = 0.0;
        for i in 0..=n {
            let x = a + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            acc += w * t.log_pdf(x).exp();
        }
        assert!((acc * h - 1.0).abs() < 1e-3, "integral {}", acc * h);
    }

    #[test]
    fn student_t_sampling_moments() {
        let t = StudentT::new(5.0, 1.5, 10.0);
        let mut rng = StdRng::seed_from_u64(13);
        let samples: Vec<f64> = (0..200_000).map(|_| t.sample(&mut rng)).collect();
        let (mean, var) = sample_moments(&samples);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        // scale²·ν/(ν − 2), the variance for ν > 2.
        let expected_var = 1.5 * 1.5 * 10.0 / 8.0;
        assert!(
            (var - expected_var).abs() < 0.15 * expected_var,
            "var {var}"
        );
    }

    #[test]
    fn irls_variance_widens_with_the_residual() {
        let t = StudentT::new(2.0, 0.5, 3.0);
        // At the location: scale²·ν/(ν + 1), the inverse Fisher
        // information of the density's peak.
        assert!((t.irls_variance(2.0) - 0.25 * 0.75).abs() < 1e-15);
        // Symmetric, and wider in the tail: two scales out, (3 + 4)/4.
        assert_eq!(t.irls_variance(3.0), t.irls_variance(1.0));
        assert!((t.irls_variance(3.0) - 0.25 * 7.0 / 4.0).abs() < 1e-15);
        assert!(StudentT::new(f64::NAN, 0.5, 3.0)
            .irls_variance(1.0)
            .is_nan());
    }

    #[test]
    fn gumbel_cdf_monotone_and_bounded() {
        let g = Gumbel::new(0.0, 1.0);
        assert!(g.cdf(-5.0) < 1e-3);
        assert!(g.cdf(10.0) > 0.999);
        assert!(g.cdf(0.0) < g.cdf(1.0));
    }

    #[test]
    fn gumbel_from_moments_roundtrip() {
        let g = Gumbel::from_moments(7.0, 2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let samples: Vec<f64> = (0..200_000).map(|_| g.sample(&mut rng)).collect();
        let (mean, var) = sample_moments(&samples);
        assert!((mean - 7.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    proptest! {
        #[test]
        fn gaussian_interval_contains_mean(mean in -100.0f64..100.0, var in 0.01f64..100.0, z in 0.1f64..5.0) {
            let g = Gaussian::new(mean, var);
            let (lo, hi) = g.interval(z);
            prop_assert!(lo <= mean && mean <= hi);
        }

        #[test]
        fn student_t_log_pdf_is_symmetric(loc in -10.0f64..10.0, scale in 0.1f64..5.0, dof in 1.0f64..30.0, d in 0.0f64..10.0) {
            let t = StudentT::new(loc, scale, dof);
            let a = t.log_pdf(loc + d);
            let b = t.log_pdf(loc - d);
            prop_assert!((a - b).abs() < 1e-9);
        }

        #[test]
        fn gumbel_cdf_in_unit_interval(loc in -10.0f64..10.0, scale in 0.1f64..5.0, x in -50.0f64..50.0) {
            let g = Gumbel::new(loc, scale);
            let c = g.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }
}
