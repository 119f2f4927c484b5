//! `FactorSite` must be a drop-in for `FnSite`: on the crate docs' invariant
//! example (x0 + x1 = 10 with x0 observed), the factor-structured site and
//! the closure site define *the same* log-likelihood, so EP with the same
//! deterministic seed must produce bit-identical posteriors — the sparse
//! delta path may skip factors, but never change values.

use bayesperf_inference::{
    EpConfig, EpSite, ExpectationPropagation, FactorCache, FactorSite, FnSite, Gaussian,
};

fn fn_site_model() -> ExpectationPropagation {
    let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
        Gaussian::new(3.0, 0.01).log_pdf(x[0])
    }));
    ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
        Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
    }));
    ep
}

fn factor_site_model() -> ExpectationPropagation {
    let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    ep.add_site(
        FactorSite::builder(vec![0])
            .factor(&[0], |x: &[f64]| Gaussian::new(3.0, 0.01).log_pdf(x[0]))
            .build(),
    );
    ep.add_site(
        FactorSite::builder(vec![0, 1])
            .factor(&[0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
            })
            .build(),
    );
    ep
}

#[test]
fn same_likelihood_same_delta() {
    let fn_site = FnSite::new(vec![0, 1], |x: &[f64]| {
        Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
    });
    let factor_site = FactorSite::builder(vec![0, 1])
        .factor(&[0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        })
        .build();
    for (a, b) in [(3.0, 7.0), (0.0, 0.0), (-2.5, 13.1)] {
        let x = [a, b];
        assert_eq!(
            fn_site.log_likelihood(&x).to_bits(),
            factor_site.log_likelihood(&x).to_bits()
        );
        let mut xa = x.to_vec();
        let mut xb = x.to_vec();
        let (mut ca, mut cb) = (FactorCache::new(), FactorCache::new());
        ca.start(&fn_site, &xa);
        cb.start(&factor_site, &xb);
        let da = ca.delta(&fn_site, &mut xa, 1, b + 0.5);
        let db = cb.delta(&factor_site, &mut xb, 1, b + 0.5);
        assert_eq!(da.to_bits(), db.to_bits(), "delta at ({a}, {b})");
    }
}

#[test]
fn ep_posteriors_are_bit_identical() {
    let ra = fn_site_model().run_parallel(42, 1);
    let rb = factor_site_model().run_parallel(42, 1);
    assert_eq!(ra.sweeps_run, rb.sweeps_run);
    assert_eq!(ra.converged, rb.converged);
    for (ga, gb) in ra.marginals.iter().zip(&rb.marginals) {
        assert_eq!(ga.mean.to_bits(), gb.mean.to_bits());
        assert_eq!(ga.var.to_bits(), gb.var.to_bits());
    }
    // And the inference itself is right: x1 ≈ 10 − 3 = 7.
    assert!(
        (rb.marginals[1].mean - 7.0).abs() < 0.5,
        "x1 {}",
        rb.marginals[1].mean
    );
}

#[test]
fn multi_factor_split_matches_monolithic_closure() {
    // A site whose likelihood is a *product* of three factors, written
    // once as a single closure and once factored. Sparse evaluation must
    // not change EP results (same seed → bit-identical).
    let monolithic = || {
        let prior = vec![Gaussian::new(0.0, 25.0); 3];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        ep.add_site(FnSite::new(vec![0, 1, 2], |x: &[f64]| {
            Gaussian::new(1.0, 0.1).log_pdf(x[0])
                + Gaussian::new(0.0, 0.2).log_pdf(x[1] - x[0])
                + Gaussian::new(0.0, 0.2).log_pdf(x[2] - x[1])
        }));
        ep
    };
    let factored = || {
        let prior = vec![Gaussian::new(0.0, 25.0); 3];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        ep.add_site(
            FactorSite::builder(vec![0, 1, 2])
                .factor(&[0], |x: &[f64]| Gaussian::new(1.0, 0.1).log_pdf(x[0]))
                .factor(&[0, 1], |x: &[f64]| {
                    Gaussian::new(0.0, 0.2).log_pdf(x[1] - x[0])
                })
                .factor(&[1, 2], |x: &[f64]| {
                    Gaussian::new(0.0, 0.2).log_pdf(x[2] - x[1])
                })
                .build(),
        );
        ep
    };
    let ra = monolithic().run_parallel(7, 1);
    let rb = factored().run_parallel(7, 2);
    for (v, (ga, gb)) in ra.marginals.iter().zip(&rb.marginals).enumerate() {
        // Factored delta sums a subset of terms, so results agree exactly
        // only when per-factor arithmetic is order-identical; the split
        // changes the summation grouping, so allow float-roundoff scale
        // differences while requiring statistical identity.
        assert!(
            (ga.mean - gb.mean).abs() < 1e-6,
            "var {v}: {} vs {}",
            ga.mean,
            gb.mean
        );
        assert!((ga.var - gb.var).abs() < 1e-6);
    }
}
