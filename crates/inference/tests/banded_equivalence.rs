//! The banded solver is exact: on random Gaussian-linear chain models, a
//! solve at the chain's bandwidth must equal the dense solve (bandwidth
//! `d − 1`) of the same terms — means and variances to 1e-9 relative.
//!
//! The models have the shape of one component of a BayesPerf chunk,
//! ordered slice by slice: `n` variables per slice, random priors, an
//! observation of some variables, a coupling of each variable with its
//! successor in the slice, one slice-wide linear combination (an
//! invariant), and the random walk `x[t][p] − x[t−1][p]`, which sits
//! exactly at the bandwidth `n`.

use bayesperf_inference::{AnalyticScratch, Gaussian};
use proptest::prelude::*;

/// Largest slice width and slice count the strategies draw.
const MAX_N: usize = 5;
const MAX_SLICES: usize = 6;

/// One random chain model over `slices · n` variables, slice-major.
struct Chain {
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
    walk_var: f64,
}

impl Chain {
    fn add_terms(&self, ws: &mut AnalyticScratch) {
        let n = self.n;
        for t in 0..self.slices {
            let slice: Vec<usize> = (t * n..(t + 1) * n).collect();
            for (p, &i) in slice.iter().enumerate() {
                let (value, var, observed) = self.obs[i];
                if observed {
                    ws.add_term(&[i], &[1.0], value, var);
                }
                if p + 1 < n {
                    let (c, diff, var) = self.couplings[i];
                    ws.add_term(&[i, i + 1], &[1.0, -c], diff, var);
                }
                if t > 0 {
                    ws.add_term(&[i - n, i], &[-1.0, 1.0], 0.0, self.walk_var);
                }
            }
            let coeffs: Vec<f64> = (0..n).map(|p| 1.0 + 0.25 * p as f64).collect();
            let (value, var) = self.sums[t];
            ws.add_term(&slice, &coeffs, value, var);
        }
    }

    fn solve(&self, bandwidth: usize) -> AnalyticScratch {
        let mut ws = AnalyticScratch::new();
        ws.begin(&self.prior, bandwidth);
        self.add_terms(&mut ws);
        assert!(ws.solve(), "a model with positive prior precision solves");
        ws
    }
}

proptest! {
    #[test]
    fn banded_solve_equals_the_dense_solve(
        n in 1usize..MAX_N + 1,
        slices in 1usize..MAX_SLICES + 1,
        priors in proptest::collection::vec((-5.0f64..5.0, 0.5f64..10.0), MAX_N * MAX_SLICES..MAX_N * MAX_SLICES + 1),
        obs in proptest::collection::vec((-10.0f64..10.0, 0.01f64..2.0, proptest::bool::ANY), MAX_N * MAX_SLICES..MAX_N * MAX_SLICES + 1),
        couplings in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0, 0.001f64..2.0), MAX_N * MAX_SLICES..MAX_N * MAX_SLICES + 1),
        sums in proptest::collection::vec((-20.0f64..20.0, 0.001f64..1.0), MAX_SLICES..MAX_SLICES + 1),
        walk_var in 0.01f64..2.0,
    ) {
        let d = n * slices;
        let chain = Chain {
            n,
            slices,
            prior: priors[..d].iter().map(|&(m, v)| Gaussian::new(m, v)).collect(),
            obs: obs[..d].to_vec(),
            couplings: couplings[..d].to_vec(),
            sums: sums[..slices].to_vec(),
            walk_var,
        };
        let banded = chain.solve(n);
        let dense = chain.solve(d - 1);
        for i in 0..d {
            let (m, v) = (banded.mean()[i], banded.var()[i]);
            let (dm, dv) = (dense.mean()[i], dense.var()[i]);
            prop_assert!(
                (m - dm).abs() <= 1e-9 * dm.abs().max(1.0),
                "n {n} slices {slices} variable {i}: mean {m} vs dense {dm}"
            );
            prop_assert!(
                (v - dv).abs() <= 1e-9 * dv,
                "n {n} slices {slices} variable {i}: var {v} vs dense {dv}"
            );
        }
    }
}
