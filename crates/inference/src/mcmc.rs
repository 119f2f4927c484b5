//! Component-wise random-walk Metropolis-Hastings.
//!
//! This is the software model of the AcMC²-generated sampler IPs of §5: a
//! random-walk MCMC kernel whose per-variable proposals only need the log
//! density change of the factors adjacent to that variable. The EP engine
//! computes its tilted moments deterministically; the sampler remains as
//! the reference those moments are tested against, since a long chain's
//! moments converge to the exact ones whatever the likelihood. Moments are
//! accumulated with Welford's online algorithm, which is numerically stable
//! for counter magnitudes like 1e9 cycles where the naive `Σx²/n − mean²`
//! form loses all significant digits to catastrophic cancellation.

use crate::standard_normal;
use rand::Rng;

/// Initial proposal standard deviation, per component, as a multiple of
/// the caller-provided component scale.
const INITIAL_STEP: f64 = 1.0;

/// Acceptance rate the burn-in step adaptation steers each component
/// toward (~0.44 is optimal for component-wise random walks).
const TARGET_ACCEPTANCE: f64 = 0.44;

/// A log-density target for MCMC.
pub trait Target {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Log density (up to an additive constant) of the full state.
    fn log_density(&self, x: &[f64]) -> f64;

    /// Change in log density when component `i` moves from `x[i]` to `new`;
    /// must leave `x` unchanged.
    ///
    /// The default recomputes the full density twice; targets with factor
    /// structure should override with the local (adjacent-factors-only)
    /// computation — that locality is exactly what the accelerator's
    /// parallel samplers exploit.
    fn log_density_delta(&mut self, x: &mut [f64], i: usize, new: f64) -> f64 {
        let old = x[i];
        let before = self.log_density(x);
        x[i] = new;
        let after = self.log_density(x);
        x[i] = old;
        after - before
    }
}

/// Configuration of the random-walk sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmcConfig {
    /// Adaptation sweeps discarded before collecting moments.
    pub burn_in: usize,
    /// Sweeps collected for moment estimation.
    pub samples: usize,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            burn_in: 150,
            samples: 300,
        }
    }
}

/// First and second moments of the visited states (owned snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct McmcStats {
    /// Per-component posterior mean estimate.
    pub mean: Vec<f64>,
    /// Per-component posterior variance estimate (biased, ≥ 0).
    pub var: Vec<f64>,
    /// Overall acceptance rate of proposals.
    pub acceptance: f64,
}

/// Component-wise random-walk Metropolis-Hastings sampler with per-component
/// step-size adaptation during burn-in.
#[derive(Debug, Clone)]
pub struct McmcSampler {
    config: McmcConfig,
}

impl McmcSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: McmcConfig) -> Self {
        McmcSampler { config }
    }

    /// Runs the chain on `target`, starting from `init`, with per-component
    /// proposal scales `scales` (e.g. cavity standard deviations), and
    /// returns the visited states' moments.
    ///
    /// # Panics
    ///
    /// Panics if `init` or `scales` length differs from `target.dim()`.
    pub fn run<T: Target, R: Rng + ?Sized>(
        &self,
        target: &mut T,
        init: &[f64],
        scales: &[f64],
        rng: &mut R,
    ) -> McmcStats {
        let d = target.dim();
        assert_eq!(init.len(), d, "init length mismatch");
        assert_eq!(scales.len(), d, "scales length mismatch");
        let mut x = init.to_vec();
        let mut steps: Vec<f64> = scales
            .iter()
            .map(|s| INITIAL_STEP * s.abs().max(1e-9))
            .collect();
        // Welford running means and sums of squared deviations (M₂).
        let mut mean = vec![0.0; d];
        let mut m2 = vec![0.0; d];
        // Burn-in adaptation windows.
        let mut acc_window = vec![0u32; d];
        let mut prop_window = vec![0u32; d];

        let mut accepted = 0usize;
        let mut proposed = 0usize;
        const ADAPT_EVERY: u32 = 20;

        let burn_in = self.config.burn_in;
        let total = burn_in + self.config.samples;
        let mut n = 0u64; // Welford sample counter
        for sweep in 0..total {
            let burning = sweep < burn_in;
            for i in 0..d {
                let new = x[i] + steps[i] * standard_normal(rng);
                let delta = target.log_density_delta(&mut x, i, new);
                proposed += 1;
                prop_window[i] += 1;
                if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
                    x[i] = new;
                    accepted += 1;
                    acc_window[i] += 1;
                }
                if burning && prop_window[i] >= ADAPT_EVERY {
                    let rate = acc_window[i] as f64 / prop_window[i] as f64;
                    if rate > TARGET_ACCEPTANCE {
                        steps[i] *= 1.15;
                    } else {
                        steps[i] *= 0.85;
                    }
                    acc_window[i] = 0;
                    prop_window[i] = 0;
                }
            }
            if !burning {
                // Welford online update: stable where Σx²/n − mean² would
                // cancel catastrophically (e.g. counters near 1e9 with
                // spread of a few units).
                n += 1;
                let inv_n = 1.0 / n as f64;
                for i in 0..d {
                    let delta = x[i] - mean[i];
                    mean[i] += delta * inv_n;
                    m2[i] += delta * (x[i] - mean[i]);
                }
            }
        }

        let n = n.max(1) as f64;
        McmcStats {
            mean,
            var: m2.iter().map(|m| (m / n).max(0.0)).collect(),
            acceptance: accepted as f64 / proposed.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Gaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct GaussTarget {
        components: Vec<Gaussian>,
    }

    impl Target for GaussTarget {
        fn dim(&self) -> usize {
            self.components.len()
        }
        fn log_density(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.components)
                .map(|(xi, g)| g.log_pdf(*xi))
                .sum()
        }
        fn log_density_delta(&mut self, x: &mut [f64], i: usize, new: f64) -> f64 {
            self.components[i].log_pdf(new) - self.components[i].log_pdf(x[i])
        }
    }

    #[test]
    fn recovers_independent_gaussian_moments() {
        let mut target = GaussTarget {
            components: vec![Gaussian::new(2.0, 1.0), Gaussian::new(-5.0, 4.0)],
        };
        let sampler = McmcSampler::new(McmcConfig {
            burn_in: 300,
            samples: 3000,
        });
        let mut rng = StdRng::seed_from_u64(42);
        let stats = sampler.run(&mut target, &[0.0, 0.0], &[1.0, 2.0], &mut rng);
        assert!(
            (stats.mean[0] - 2.0).abs() < 0.15,
            "mean0 {}",
            stats.mean[0]
        );
        assert!((stats.mean[1] + 5.0).abs() < 0.3, "mean1 {}", stats.mean[1]);
        assert!((stats.var[0] - 1.0).abs() < 0.3, "var0 {}", stats.var[0]);
        assert!((stats.var[1] - 4.0).abs() < 1.2, "var1 {}", stats.var[1]);
    }

    #[test]
    fn welford_is_stable_at_counter_magnitudes() {
        // A tight Gaussian around 1e9 (cycle-count scale). The naive
        // sum-of-squares estimator loses all precision here: 1e18 + O(1)
        // swamps f64's 15–16 significant digits. Welford keeps the spread.
        let mut target = GaussTarget {
            components: vec![Gaussian::new(1.0e9, 4.0)],
        };
        let sampler = McmcSampler::new(McmcConfig {
            burn_in: 500,
            samples: 8000,
        });
        let mut rng = StdRng::seed_from_u64(44);
        let stats = sampler.run(&mut target, &[1.0e9], &[2.0], &mut rng);
        assert!(
            (stats.mean[0] - 1.0e9).abs() < 0.5,
            "mean {}",
            stats.mean[0]
        );
        let rel = (stats.var[0] - 4.0).abs() / 4.0;
        assert!(rel < 0.4, "var {} (rel err {rel})", stats.var[0]);
    }

    struct CorrelatedTarget;

    impl Target for CorrelatedTarget {
        fn dim(&self) -> usize {
            2
        }
        // x0 ~ N(0,1); x1 | x0 ~ N(x0, 0.01): strong coupling.
        fn log_density(&self, x: &[f64]) -> f64 {
            Gaussian::new(0.0, 1.0).log_pdf(x[0]) + Gaussian::new(x[0], 0.01).log_pdf(x[1])
        }
    }

    #[test]
    fn tracks_correlated_target() {
        let sampler = McmcSampler::new(McmcConfig {
            burn_in: 1000,
            samples: 40_000,
        });
        let mut rng = StdRng::seed_from_u64(43);
        let stats = sampler.run(&mut CorrelatedTarget, &[1.0, -1.0], &[1.0, 1.0], &mut rng);
        // Marginals of both are N(0, ~1); component-wise walks mix slowly on
        // near-degenerate correlation, so bounds are generous.
        assert!(stats.mean[0].abs() < 0.35, "mean0 {}", stats.mean[0]);
        assert!(stats.mean[1].abs() < 0.35, "mean1 {}", stats.mean[1]);
        assert!(stats.acceptance > 0.1 && stats.acceptance < 0.9);
    }

    #[test]
    fn default_delta_matches_full_recompute() {
        struct Full;
        impl Target for Full {
            fn dim(&self) -> usize {
                2
            }
            fn log_density(&self, x: &[f64]) -> f64 {
                -(x[0] * x[0] + x[0] * x[1] + x[1] * x[1])
            }
        }
        let mut t = Full;
        let mut x = vec![0.5, -0.25];
        let before = t.log_density(&x);
        let delta = t.log_density_delta(&mut x, 0, 1.5);
        // State must be restored.
        assert_eq!(x[0], 0.5);
        let mut y = x.clone();
        y[0] = 1.5;
        assert!((delta - (t.log_density(&y) - before)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "init length mismatch")]
    fn rejects_wrong_init_length() {
        let mut t = GaussTarget {
            components: vec![Gaussian::new(0.0, 1.0)],
        };
        let mut rng = StdRng::seed_from_u64(1);
        McmcSampler::new(McmcConfig::default()).run(&mut t, &[0.0, 0.0], &[1.0, 1.0], &mut rng);
    }
}
