//! Closed-loop acceptance for the multiplexing scheduler: on the simcpu
//! kmeans workload the round-robin loop must be exactly the batch path
//! (the same decisions, posteriors and truth scores as correcting a
//! rotated PMU run after the fact), and the loop must be deterministic.

use bayesperf::core::corrector::{Corrector, CorrectorConfig};
use bayesperf::events::{Arch, Catalog};
use bayesperf::mlsched::mux::{
    hetero_demo_events, run_closed_loop, ClosedLoopReport, GroupSchedule, RoundRobin,
};
use bayesperf::simcpu::{Extrapolate, Pmu, PmuConfig};
use bayesperf::workloads::kmeans;

/// The canonical heterogeneous fixture (weakly-anchored TLB/branch
/// group, cache hierarchy, invariant-pinned µop pipeline), shared with
/// the example and bench_json so all three measure the same schedule.
fn schedule(cat: &Catalog) -> GroupSchedule {
    GroupSchedule::from_events(cat, &hetero_demo_events(cat), 6).expect("groups fit")
}

fn pmu_config(cat: &Catalog, seed: u64) -> PmuConfig {
    PmuConfig {
        seed,
        ..PmuConfig::for_catalog(cat)
    }
}

fn corrector_config(cat: &Catalog, seed: u64) -> CorrectorConfig {
    let probe = Pmu::new(cat, PmuConfig::for_catalog(cat)).run_polling(
        &mut kmeans().instantiate(cat, seed),
        &[],
        1,
    );
    CorrectorConfig::for_run(&probe)
}

fn closed_loop(cat: &Catalog, seed: u64, n_windows: usize) -> ClosedLoopReport {
    let mut truth = kmeans().instantiate(cat, seed);
    run_closed_loop(
        cat,
        &mut truth,
        pmu_config(cat, seed),
        schedule(cat),
        Box::new(RoundRobin),
        corrector_config(cat, seed),
        n_windows,
    )
}

#[test]
fn round_robin_closed_loop_equals_the_batch_path() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let n_windows = 36;
    for seed in [0, 7] {
        let report = closed_loop(&cat, seed, n_windows);
        let schedule = schedule(&cat);
        let g = schedule.len();
        let rotation: Vec<u32> = (0..n_windows).map(|q| (q % g) as u32).collect();
        assert_eq!(report.decisions, rotation, "seed {seed}");
        assert_eq!(report.forced_picks, 0);

        // The batch path: the same rotation recorded first, then
        // corrected as one run.
        let config = corrector_config(&cat, seed);
        let k = config.model.slices;
        let run = Pmu::new(&cat, pmu_config(&cat, seed)).run_driven(
            &mut kmeans().instantiate(&cat, seed),
            schedule.groups(),
            n_windows,
            Extrapolate::LinuxScaled,
            |q, _| q as usize % g,
        );
        let series = Corrector::new(&cat, config).correct_run(&run);

        // The benchmark's scoring over the pool, after the first chunk.
        let pool = schedule.pool();
        let scored = n_windows - k;
        assert_eq!(report.scored_windows, scored);
        let mut err_sum = 0.0;
        let mut covered = 0usize;
        for &e in &pool {
            let truth: Vec<f64> = run.windows[k..]
                .iter()
                .map(|w| w.truth[e.index()])
                .collect();
            let mean_truth = truth.iter().map(|t| t.abs()).sum::<f64>() / scored as f64;
            let floor = (0.05 * mean_truth).max(f64::MIN_POSITIVE);
            let mut err = 0.0;
            for (i, &t) in truth.iter().enumerate() {
                let post = series.posterior(k + i, e);
                let miss = (post.mean - t).abs();
                err += miss / t.abs().max(floor);
                if miss <= 1.96 * post.std_dev() {
                    covered += 1;
                }
            }
            err_sum += err / scored as f64;
        }
        let err_pct = 100.0 * err_sum / pool.len() as f64;
        let cov95 = covered as f64 / (scored * pool.len()) as f64;
        assert_eq!(report.err_pct.to_bits(), err_pct.to_bits(), "seed {seed}");
        assert_eq!(report.cov95.to_bits(), cov95.to_bits(), "seed {seed}");
    }
}

#[test]
fn closed_loop_is_deterministic_for_a_fixed_seed() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let a = closed_loop(&cat, 7, 18);
    let b = closed_loop(&cat, 7, 18);
    assert_eq!(a.decisions, b.decisions, "identical decision sequences");
    assert_eq!(a.err_pct.to_bits(), b.err_pct.to_bits());
    assert_eq!(a.cov95.to_bits(), b.cov95.to_bits());
    assert_eq!(a.group_runs, b.group_runs);
    // A different seed actually changes the scored posteriors (the test
    // would be vacuous if the loop ignored its inputs).
    let c = closed_loop(&cat, 8, 18);
    assert_ne!(a.err_pct.to_bits(), c.err_pct.to_bits());
}
