//! Component-wise random-walk Metropolis-Hastings.
//!
//! This is the software model of the AcMC²-generated sampler IPs of §5: a
//! random-walk MCMC kernel whose per-variable proposals only need the log
//! density change of the factors adjacent to that variable. The accelerator
//! runs many of these in parallel; in software the EP engine farm runs one
//! chain per site update across worker threads, so the kernel is built to be
//! allocation-free after warm-up: all chain state, step sizes, and moment
//! accumulators live in a caller-owned [`McmcScratch`] that is reused across
//! site updates ([`McmcSampler::run_with_scratch`]). Moments are accumulated
//! with Welford's online algorithm, which is numerically stable for counter
//! magnitudes like 1e9 cycles where the naive `Σx²/n − mean²` form loses all
//! significant digits to catastrophic cancellation.
//!
//! # The target contract
//!
//! The sampler tells its [`Target`] where the chain is: [`Target::start`]
//! once with the initial state, [`Target::log_density_delta`] per proposal,
//! and [`Target::accept`] after each accepted move. A target with factor
//! structure can therefore keep every factor's log density at the chain's
//! *current* state, evaluate only the proposed side of each proposal, and
//! commit those values on acceptance — the EP engine's tilted target does
//! exactly that. A rejected proposal needs no undo: the next proposal
//! overwrites whatever it staged.

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

    /// Starts a chain at `x`, before its first proposal. Targets that cache
    /// values at the chain's current state fill the cache here; the
    /// default caches nothing.
    fn start(&mut self, x: &[f64]) {
        let _ = x;
    }

    /// Change in log density when component `i` moves from `x[i]` to `new`;
    /// must leave `x` unchanged. A caching target may stage the proposed
    /// side here for [`Target::accept`] to commit.
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

    /// The sampler accepted the proposal last passed to
    /// [`Target::log_density_delta`] (`x[i]` now holds it). The default
    /// does nothing.
    fn accept(&mut self, i: usize) {
        let _ = i;
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

/// Reusable chain state and moment accumulators — the allocation-free MCMC
/// hot path.
///
/// Allocate one per worker (or one per sequential driver), call
/// [`McmcSampler::run_with_scratch`] repeatedly, and read the results
/// through [`McmcScratch::mean`]/[`McmcScratch::var`]. Once every buffer has
/// grown to the largest site dimension encountered, subsequent runs perform
/// **zero** heap allocation (asserted by the `alloc_free` integration
/// test).
#[derive(Debug, Clone, Default)]
pub struct McmcScratch {
    /// Chain state.
    x: Vec<f64>,
    /// Per-component proposal step sizes.
    steps: Vec<f64>,
    /// Welford running means.
    mean: Vec<f64>,
    /// Welford sum of squared deviations (M₂).
    m2: Vec<f64>,
    /// Finalized biased variances.
    var: Vec<f64>,
    /// Burn-in adaptation windows.
    acc_window: Vec<u32>,
    prop_window: Vec<u32>,
    /// Acceptance rate of the last run.
    acceptance: f64,
    /// Post-burn-in sweeps collected by the last run.
    samples_run: u32,
    /// Proposals made / accepted by the last run (across all components and
    /// sweeps, burn-in included) — the raw counts behind `acceptance`,
    /// exposed so EP can aggregate a proposal-weighted mean over MCMC sites.
    proposed: u64,
    accepted: u64,
}

impl McmcScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for `dim`-dimensional targets, so even
    /// the first run allocates nothing.
    pub fn with_dim(dim: usize) -> Self {
        let mut s = Self::default();
        s.reserve(dim);
        s
    }

    /// Grows every buffer to hold `dim` components.
    pub fn reserve(&mut self, dim: usize) {
        self.x.reserve(dim);
        self.steps.reserve(dim);
        self.mean.reserve(dim);
        self.m2.reserve(dim);
        self.var.reserve(dim);
        self.acc_window.reserve(dim);
        self.prop_window.reserve(dim);
    }

    /// Resets buffers for a `d`-dimensional run (no allocation once
    /// capacity suffices).
    fn prepare(&mut self, init: &[f64], scales: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(init);
        self.steps.clear();
        self.steps
            .extend(scales.iter().map(|s| INITIAL_STEP * s.abs().max(1e-9)));
        let d = init.len();
        self.mean.clear();
        self.mean.resize(d, 0.0);
        self.m2.clear();
        self.m2.resize(d, 0.0);
        self.var.clear();
        self.var.resize(d, 0.0);
        self.acc_window.clear();
        self.acc_window.resize(d, 0);
        self.prop_window.clear();
        self.prop_window.resize(d, 0);
        self.acceptance = 0.0;
        self.samples_run = 0;
        self.proposed = 0;
        self.accepted = 0;
    }

    /// Per-component posterior mean estimates of the last run.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-component posterior variance estimates of the last run (biased,
    /// ≥ 0).
    pub fn var(&self) -> &[f64] {
        &self.var
    }

    /// Acceptance rate of the last run.
    pub fn acceptance(&self) -> f64 {
        self.acceptance
    }

    /// Post-burn-in sweeps collected by the last run (the per-site MCMC
    /// sample count the adaptive budget varies).
    pub fn samples_run(&self) -> u32 {
        self.samples_run
    }

    /// Proposals made by the last run (all components, burn-in included).
    pub fn proposed(&self) -> u64 {
        self.proposed
    }

    /// Proposals accepted by the last run.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Owned snapshot of the last run's statistics.
    pub fn to_stats(&self) -> McmcStats {
        McmcStats {
            mean: self.mean.clone(),
            var: self.var.clone(),
            acceptance: self.acceptance,
        }
    }
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

    /// Runs the chain, returning owned statistics. Convenience wrapper over
    /// [`McmcSampler::run_with_scratch`] that allocates a fresh scratch —
    /// use the scratch API on hot paths.
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
        let mut scratch = McmcScratch::new();
        self.run_with_scratch(target, init, scales, rng, &mut scratch);
        scratch.to_stats()
    }

    /// Runs the chain on `target`, starting from `init`, with per-component
    /// proposal scales `scales` (e.g. cavity standard deviations), storing
    /// all state and results in `scratch`.
    ///
    /// This is the engine-farm hot path: after `scratch`'s buffers have
    /// grown to the site dimension, the call performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `init` or `scales` length differs from `target.dim()`.
    pub fn run_with_scratch<T: Target, R: Rng + ?Sized>(
        &self,
        target: &mut T,
        init: &[f64],
        scales: &[f64],
        rng: &mut R,
        scratch: &mut McmcScratch,
    ) {
        self.run_budgeted(
            target,
            init,
            scales,
            rng,
            scratch,
            self.config.burn_in,
            self.config.samples,
        );
    }

    /// [`McmcSampler::run_with_scratch`] with an explicit per-run budget
    /// overriding the configured `burn_in`/`samples` — the hook EP's
    /// adaptive budget uses to shrink warm-started site updates without
    /// rebuilding the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `init` or `scales` length differs from `target.dim()`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_budgeted<T: Target, R: Rng + ?Sized>(
        &self,
        target: &mut T,
        init: &[f64],
        scales: &[f64],
        rng: &mut R,
        scratch: &mut McmcScratch,
        burn_in: usize,
        samples: usize,
    ) {
        let d = target.dim();
        assert_eq!(init.len(), d, "init length mismatch");
        assert_eq!(scales.len(), d, "scales length mismatch");
        scratch.prepare(init, scales);
        target.start(&scratch.x);

        let mut accepted = 0usize;
        let mut proposed = 0usize;
        const ADAPT_EVERY: u32 = 20;

        let total = burn_in + samples;
        let mut n = 0u64; // Welford sample counter
        for sweep in 0..total {
            let burning = sweep < burn_in;
            for i in 0..d {
                let new = scratch.x[i] + scratch.steps[i] * standard_normal(rng);
                let delta = target.log_density_delta(&mut scratch.x, i, new);
                proposed += 1;
                scratch.prop_window[i] += 1;
                if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
                    scratch.x[i] = new;
                    target.accept(i);
                    accepted += 1;
                    scratch.acc_window[i] += 1;
                }
                if burning && scratch.prop_window[i] >= ADAPT_EVERY {
                    let rate = scratch.acc_window[i] as f64 / scratch.prop_window[i] as f64;
                    if rate > TARGET_ACCEPTANCE {
                        scratch.steps[i] *= 1.15;
                    } else {
                        scratch.steps[i] *= 0.85;
                    }
                    scratch.acc_window[i] = 0;
                    scratch.prop_window[i] = 0;
                }
            }
            if !burning {
                // Welford online update: stable where Σx²/n − mean² would
                // cancel catastrophically (e.g. counters near 1e9 with
                // spread of a few units).
                n += 1;
                let inv_n = 1.0 / n as f64;
                for i in 0..d {
                    let delta = scratch.x[i] - scratch.mean[i];
                    scratch.mean[i] += delta * inv_n;
                    scratch.m2[i] += delta * (scratch.x[i] - scratch.mean[i]);
                }
            }
        }

        scratch.samples_run = n as u32;
        let n = (n.max(1)) as f64;
        for i in 0..d {
            scratch.var[i] = (scratch.m2[i] / n).max(0.0);
        }
        scratch.acceptance = accepted as f64 / proposed.max(1) as f64;
        scratch.proposed = proposed as u64;
        scratch.accepted = accepted as u64;
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

    #[test]
    fn scratch_reuse_matches_fresh_run() {
        let mut target = GaussTarget {
            components: vec![Gaussian::new(1.0, 2.0), Gaussian::new(-2.0, 0.5)],
        };
        let sampler = McmcSampler::new(McmcConfig::default());
        let fresh = {
            let mut rng = StdRng::seed_from_u64(9);
            sampler.run(&mut target, &[0.0, 0.0], &[1.0, 1.0], &mut rng)
        };
        // Dirty the scratch with a different-dimension run first.
        let mut scratch = McmcScratch::new();
        let mut other = GaussTarget {
            components: vec![Gaussian::new(0.0, 1.0); 5],
        };
        let mut rng = StdRng::seed_from_u64(1);
        sampler.run_with_scratch(&mut other, &[0.0; 5], &[1.0; 5], &mut rng, &mut scratch);
        let mut rng = StdRng::seed_from_u64(9);
        sampler.run_with_scratch(
            &mut target,
            &[0.0, 0.0],
            &[1.0, 1.0],
            &mut rng,
            &mut scratch,
        );
        assert_eq!(
            scratch.to_stats(),
            fresh,
            "scratch reuse must not leak state"
        );
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
    fn budget_override_shrinks_the_run_and_is_accounted() {
        let mut target = GaussTarget {
            components: vec![Gaussian::new(0.0, 1.0), Gaussian::new(0.0, 1.0)],
        };
        let sampler = McmcSampler::new(McmcConfig::default());
        let mut scratch = McmcScratch::new();
        let mut rng = StdRng::seed_from_u64(21);
        sampler.run_budgeted(
            &mut target,
            &[0.0, 0.0],
            &[1.0, 1.0],
            &mut rng,
            &mut scratch,
            10,
            40,
        );
        assert_eq!(scratch.samples_run(), 40);
        // (10 + 40) sweeps × 2 components proposals.
        assert_eq!(scratch.proposed(), 100);
        assert!(scratch.accepted() <= scratch.proposed());
        assert!(
            (scratch.acceptance() - scratch.accepted() as f64 / scratch.proposed() as f64).abs()
                < 1e-12
        );
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
