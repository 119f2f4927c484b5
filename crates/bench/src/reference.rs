//! The banded solve as its kernels stood before they were rewritten to
//! compute independent entries side by side: the reference that
//! `tests/kernel_identity.rs` holds [`AnalyticScratch`] to bit for bit,
//! and the baseline arm of `bench_json`'s `kernel_over_reference` gate.
//!
//! [`ReferenceScratch`] assembles the band in term order exactly as
//! [`AnalyticScratch::add_term`] does, then runs a left-looking Cholesky
//! (every entry one dot product), row-wise triangular solves and a
//! Takahashi pass that computes each covariance entry as one dot product.
//! [`Chain`] is a seeded Gaussian-linear model shaped like one component
//! of a BayesPerf chunk, for both to solve.
//!
//! [`AnalyticScratch`]: bayesperf_inference::AnalyticScratch
//! [`AnalyticScratch::add_term`]: bayesperf_inference::AnalyticScratch::add_term

use bayesperf_inference::Gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// IRLS passes per solve, as in the production scratch.
const IRLS_ITERATIONS: usize = 3;

/// The reference banded solver; same lifecycle and results as
/// [`bayesperf_inference::AnalyticScratch`].
#[derive(Debug, Clone, Default)]
pub struct ReferenceScratch {
    dim: usize,
    band: usize,
    /// Lower band of the precision, `dim` rows of `band + 1`: entry
    /// `(i, j)`, `i − band ≤ j ≤ i`, sits at `i·(band + 1) + (i − j)`.
    /// The Cholesky factor overwrites it in place.
    prec: Vec<f64>,
    info: Vec<f64>,
    /// Upper band of the covariance, `dim` rows of `band + 1`: entry
    /// `(i, j)`, `i ≤ j ≤ i + band`, sits at `i·(band + 1) + (j − i)`.
    cov: Vec<f64>,
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl ReferenceScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a `prior.len()`-dimensional solve at bandwidth `bandwidth`.
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

    /// Accumulates one Gaussian-linear factor.
    ///
    /// # Panics
    ///
    /// Panics where [`bayesperf_inference::AnalyticScratch::add_term`]
    /// does.
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

    /// The IRLS loop of the production scratch: three passes, only the
    /// last forming variances.
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

    /// Means and variances; `false` on a precision that is not
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
        // Takahashi, one dot product per entry: rows bottom-up, columns
        // right to left.
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

    /// Means only: the left-looking banded Cholesky and two row-wise
    /// triangular solves.
    pub fn solve_mean(&mut self) -> bool {
        let (d, b) = (self.dim, self.band);
        let w = b + 1;
        self.mean.resize(d, 0.0);
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

    /// Marginal variances of the last successful [`ReferenceScratch::solve`].
    pub fn var(&self) -> &[f64] {
        &self.var
    }
}

/// A seeded Gaussian-linear chain over `slices · n` variables, slice-major,
/// shaped like one component of a BayesPerf chunk: random priors, an
/// observation of some variables, a coupling of each variable with its
/// successor in the slice, one slice-wide combination (an invariant), and
/// the random walk `x[t][p] − x[t−1][p]`, which sits exactly at
/// bandwidth `n`.
#[derive(Debug, Clone)]
pub struct Chain {
    n: usize,
    slices: usize,
    prior: Vec<Gaussian>,
    /// Per variable: observed value, its variance, whether it is observed.
    obs: Vec<(f64, f64, bool)>,
    /// Per variable: coefficient, observed difference and variance of its
    /// coupling with its successor in the slice.
    couplings: Vec<(f64, f64, f64)>,
    /// Per slice: the slice-wide combination's observed value and variance.
    sums: Vec<(f64, f64)>,
    /// The slice-wide combination's coefficients.
    sum_coeffs: Vec<f64>,
    walk_var: f64,
    /// `0..dim`, so a slice's locals are a subslice and emitting the
    /// terms allocates nothing.
    index: Vec<usize>,
}

impl Chain {
    /// Draws a chain of `slices` slices of `n` variables from `seed`.
    pub fn seeded(n: usize, slices: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = n * slices;
        Chain {
            n,
            slices,
            prior: (0..d)
                .map(|_| Gaussian::new(rng.gen_range(-5.0..5.0), rng.gen_range(0.5..10.0)))
                .collect(),
            obs: (0..d)
                .map(|_| {
                    (
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(0.01..2.0),
                        rng.gen_bool(0.5),
                    )
                })
                .collect(),
            couplings: (0..d)
                .map(|_| {
                    (
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(0.001..2.0),
                    )
                })
                .collect(),
            sums: (0..slices)
                .map(|_| (rng.gen_range(-20.0..20.0), rng.gen_range(0.001..1.0)))
                .collect(),
            sum_coeffs: (0..n).map(|p| 1.0 + 0.25 * p as f64).collect(),
            walk_var: rng.gen_range(0.01..2.0),
            index: (0..d).collect(),
        }
    }

    /// Number of variables, `slices · n`.
    pub fn dim(&self) -> usize {
        self.n * self.slices
    }

    /// Variables per slice: the bandwidth every term fits in.
    pub fn slice_width(&self) -> usize {
        self.n
    }

    /// The prior, one entry per variable.
    pub fn prior(&self) -> &[Gaussian] {
        &self.prior
    }

    /// Calls `term(locals, coeffs, obs, var)` once per factor, in a fixed
    /// order.
    pub fn terms(&self, mut term: impl FnMut(&[usize], &[f64], f64, f64)) {
        let n = self.n;
        for t in 0..self.slices {
            let slice = &self.index[t * n..(t + 1) * n];
            for (p, &i) in slice.iter().enumerate() {
                let (value, var, observed) = self.obs[i];
                if observed {
                    term(&[i], &[1.0], value, var);
                }
                if p + 1 < n {
                    let (c, diff, var) = self.couplings[i];
                    term(&[i, i + 1], &[1.0, -c], diff, var);
                }
                if t > 0 {
                    term(&[i - n, i], &[-1.0, 1.0], 0.0, self.walk_var);
                }
            }
            let (value, var) = self.sums[t];
            term(slice, &self.sum_coeffs, value, var);
        }
    }
}
