//! The engine farm's headline guarantee: `run_farm(threads)` is
//! bit-identical for any thread count. Posterior means, variances, sweep
//! counts, convergence flags and work counters must all match to the last
//! bit between 1, 2, and 8 workers.

use bayesperf_inference::{EpConfig, EpRunStats, ExpectationPropagation, FactorSite, Gaussian};

/// A 64-site model shaped like the corrector's chunks: 32 variables in a
/// chain, one observation site per variable, one coupling site per adjacent
/// pair — plenty of conflicts for the coloring to untangle.
fn chain_model() -> ExpectationPropagation {
    let n = 32;
    let prior = vec![Gaussian::new(5.0, 50.0); n];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    for v in 0..n {
        let center = 2.0 + (v as f64) * 0.25;
        ep.add_site(
            FactorSite::builder(vec![v])
                .gaussian_linear(&[0], &[1.0], center, 0.5)
                .build(),
        );
    }
    for v in 0..n - 1 {
        ep.add_site(
            FactorSite::builder(vec![v, v + 1])
                .gaussian_linear(&[0, 1], &[-1.0, 1.0], 0.25, 0.1)
                .build(),
        );
    }
    ep
}

/// One run's statistics and the marginals it left.
type Outcome = (EpRunStats, Vec<Gaussian>);

fn run(ep: &mut ExpectationPropagation, threads: usize) -> Outcome {
    let stats = ep.run_farm(threads);
    (stats, (0..ep.num_vars()).map(|v| ep.marginal(v)).collect())
}

fn run_with_threads(threads: usize) -> Outcome {
    run(&mut chain_model(), threads)
}

fn assert_bit_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.0, b.0, "{what}: run statistics");
    assert_eq!(a.1.len(), b.1.len());
    for (v, (ga, gb)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(
            ga.mean.to_bits(),
            gb.mean.to_bits(),
            "{what}: mean of variable {v} ({} vs {})",
            ga.mean,
            gb.mean
        );
        assert_eq!(
            ga.var.to_bits(),
            gb.var.to_bits(),
            "{what}: var of variable {v}"
        );
    }
}

#[test]
fn bit_identical_across_1_2_8_threads() {
    let t1 = run_with_threads(1);
    let t2 = run_with_threads(2);
    let t8 = run_with_threads(8);
    assert_bit_identical(&t1, &t2, "1 vs 2 threads");
    assert_bit_identical(&t1, &t8, "1 vs 8 threads");
    // And the run must have actually inferred something.
    assert!((t1.1[0].mean - 2.0).abs() < 1.5);
}

#[test]
fn rerun_same_seed_is_reproducible() {
    let a = run_with_threads(3);
    let b = run_with_threads(3);
    assert_bit_identical(&a, &b, "rerun");
}

#[test]
fn warm_start_is_bit_identical_across_1_2_8_threads() {
    // The warm-start lifecycle — run, warm_start (keep messages, re-seat
    // the prior), run again — must stay bit-identical at any thread count.
    let prior = vec![Gaussian::new(5.0, 50.0); 32];
    let run_seq = |threads: usize| -> Outcome {
        let mut ep = chain_model();
        let _ = ep.run_farm(threads);
        ep.warm_start(&prior);
        let warm1 = run(&mut ep, threads);
        assert!(ep.is_warm());
        ep.warm_start(&prior);
        let warm2 = run(&mut ep, threads);
        // The second warm window must continue from the first's state.
        assert!(warm2.0.sweeps_total > warm2.0.sweeps_run);
        assert_eq!(warm1.1.len(), warm2.1.len());
        warm2
    };
    let t1 = run_seq(1);
    let t2 = run_seq(2);
    let t8 = run_seq(8);
    assert_bit_identical(&t1, &t2, "warm 1 vs 2 threads");
    assert_bit_identical(&t1, &t8, "warm 1 vs 8 threads");
}

#[test]
fn factor_sites_are_bit_identical_across_threads_too() {
    let build = || {
        let n = 12;
        let prior = vec![Gaussian::new(1.0, 25.0); n];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        for v in 0..n - 1 {
            ep.add_site(
                FactorSite::builder(vec![v, v + 1])
                    .gaussian_linear(&[0], &[1.0], v as f64, 0.3)
                    .gaussian_linear(&[0, 1], &[-1.0, 1.0], 1.0, 0.05)
                    .build(),
            );
        }
        ep
    };
    let ra = run(&mut build(), 1);
    let rb = run(&mut build(), 8);
    assert_bit_identical(&ra, &rb, "factor sites 1 vs 8 threads");
}
