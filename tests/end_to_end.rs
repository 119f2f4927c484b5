//! Cross-crate integration tests: the full BayesPerf pipeline.

use bayesperf::baselines::{LinuxScaling, SeriesEstimator};
use bayesperf::core::corrector::{Corrector, CorrectorConfig};
use bayesperf::core::metrics::dtw_relative_error;
use bayesperf::core::scheduler::ScheduleTransformer;
use bayesperf::events::{try_assign, Arch, Catalog};
use bayesperf::simcpu::{Pmu, PmuConfig};
use bayesperf::workloads::{all_workloads, by_name};

/// The headline claim, end to end: on a phase-structured workload with
/// multiplexed counters, BayesPerf's posterior series has lower DTW error
/// against ground truth than Linux scaling — on both architectures.
#[test]
fn bayesperf_beats_linux_on_both_architectures() {
    for arch in Arch::all() {
        let catalog = Catalog::new(arch);
        let workload = by_name("ALS").expect("in suite");
        let mut truth = workload.instantiate(&catalog, 3);

        let transformer = ScheduleTransformer::new(&catalog);
        let events: Vec<_> = catalog.programmable_events().into_iter().take(16).collect();
        let schedule = transformer.plan(&events);
        let pmu = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog));
        let run = pmu.run_multiplexed(&mut truth, &schedule.configs, 24);

        let mut corrector = Corrector::new(&catalog, CorrectorConfig::for_run(&run));
        let posterior = corrector.correct_run(&run);
        let linux = LinuxScaling::new();

        let mut err_bayes = 0.0;
        let mut err_linux = 0.0;
        for &ev in &events {
            let truth_series = run.truth_series(ev);
            err_bayes += dtw_relative_error(&posterior.mle_series(ev), &truth_series, 4);
            err_linux += dtw_relative_error(&linux.estimate(&run, ev), &truth_series, 4);
        }
        assert!(
            err_bayes < err_linux,
            "{arch}: BayesPerf {err_bayes:.3} should beat Linux {err_linux:.3}"
        );
    }
}

/// Every workload in the suite yields a valid, fully-linked BayesPerf
/// schedule for the derived-event HPC set, on both architectures.
#[test]
fn schedules_are_valid_for_the_whole_suite() {
    for arch in Arch::all() {
        let catalog = Catalog::new(arch);
        let transformer = ScheduleTransformer::new(&catalog);
        let mut events = Vec::new();
        for d in catalog.derived_events() {
            events.extend(d.events());
        }
        events.sort();
        events.dedup();
        events.retain(|&e| catalog.event(e).is_programmable());
        let schedule = transformer.plan(&events);
        for cfg in &schedule.configs {
            assert!(try_assign(&catalog, cfg.events(), &catalog.pmu()).is_ok());
        }
        // Every requested event is still measured.
        for &e in &events {
            assert!(
                schedule.configs.iter().any(|c| c.contains(e)),
                "{arch}: event {e} lost"
            );
        }
    }
}

/// Ground truth from every workload satisfies every exact invariant on
/// every tick we sample — across the whole suite and both catalogs.
#[test]
fn suite_ground_truth_respects_invariants() {
    use bayesperf::simcpu::GroundTruth;
    for arch in Arch::all() {
        let catalog = Catalog::new(arch);
        let mut rates = vec![0.0; catalog.len()];
        for program in all_workloads().iter().take(6) {
            let mut w = program.instantiate(&catalog, 9);
            for tick in [0u64, 41, 137] {
                w.rates_at(tick, &mut rates);
                for inv in catalog.invariants().iter().filter(|i| i.is_exact()) {
                    assert!(
                        inv.relative_residual(&rates).abs() < 1e-9,
                        "{}: {} violated",
                        program.name(),
                        inv.name
                    );
                }
            }
        }
    }
}
