//! The shared evaluation harness behind the figure/table binaries.
//!
//! Every experiment follows the paper's §6.2 method:
//!
//! 1. run the workload in *sampling* mode (multiplexed counters) — once
//!    with Linux's round-robin schedule (for the Linux/CM/WM+Pin
//!    estimators) and once with BayesPerf's overlap-transformed schedule;
//! 2. run the workload twice in *polling* mode (dedicated counters) with
//!    different run seeds — the reference trace and the nondeterminism
//!    normalizer;
//! 3. per event, compute the DTW-aligned relative error of each
//!    estimator's per-window series against the polling reference,
//!    subtracting the polling-vs-polling floor (§6.2's normalization);
//! 4. average across events and application runs.

pub mod gate;
pub mod reference;
pub mod rng;

use bayesperf_baselines::{CounterMiner, LinuxScaling, SeriesEstimator, WmPin};
use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::metrics::adjusted_error;
use bayesperf_core::scheduler::ScheduleTransformer;
use bayesperf_events::{Catalog, EventId};
use bayesperf_simcpu::{pack_round_robin, Configuration, Pmu, PmuConfig};
use bayesperf_workloads::PhaseProgram;
use std::collections::BTreeSet;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Multiplexing windows per run.
    pub windows: usize,
    /// Independent application runs to average over.
    pub runs: usize,
    /// Sakoe-Chiba band half-width for DTW.
    pub band: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            windows: 48,
            runs: 3,
            band: 6,
            seed: 0,
        }
    }
}

/// Per-method average errors (percent).
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodErrors {
    /// Linux enabled/running scaling.
    pub linux: f64,
    /// CounterMiner.
    pub cm: f64,
    /// BayesPerf (posterior MLE).
    pub bayesperf: f64,
    /// WM+Pin (instruction-count-only correction).
    pub wm_pin: f64,
}

/// The programmable HPC events needed by the catalog's ten derived events
/// (the §6.2 measurement set).
pub fn derived_event_hpcs(catalog: &Catalog) -> Vec<EventId> {
    let mut set = BTreeSet::new();
    for d in catalog.derived_events() {
        set.extend(d.events());
    }
    set.into_iter()
        .filter(|&e| catalog.event(e).is_programmable())
        .collect()
}

/// The first `k` events of the catalog's multiplex pool (the Fig. 1 / 8
/// counter-count sweep).
pub fn event_pool(catalog: &Catalog, k: usize) -> Vec<EventId> {
    catalog.programmable_events().into_iter().take(k).collect()
}

/// The fig6-style benchmark fixture: kmeans through the
/// derived-event HPC set, multiplexed across rotating configurations —
/// shared by the criterion bench and the `bench_json` baseline emitter so
/// the two measure the same workload.
pub fn fig6_fixture(n_windows: usize) -> (Catalog, bayesperf_simcpu::MultiplexRun) {
    let cat = Catalog::new(bayesperf_events::Arch::X86SkyLake);
    let mut truth = bayesperf_workloads::kmeans().instantiate(&cat, 0);
    let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
    let events = derived_event_hpcs(&cat);
    let schedule = pack_round_robin(&cat, &events).unwrap();
    let run = pmu.run_multiplexed(&mut truth, &schedule, n_windows);
    (cat, run)
}

/// Evaluates one workload on one catalog with all four estimators.
pub fn evaluate_workload(
    catalog: &Catalog,
    program: &PhaseProgram,
    events: &[EventId],
    cfg: &EvalConfig,
) -> MethodErrors {
    let transformer = ScheduleTransformer::new(catalog);
    let rr = pack_round_robin(catalog, events).expect("schedulable event set");
    let bp_schedule = transformer.plan(events);

    let mut totals = MethodErrors::default();
    for run_idx in 0..cfg.runs {
        let seed = cfg.seed + run_idx as u64;
        let e = evaluate_once(
            catalog,
            program,
            events,
            &rr,
            &bp_schedule.configs,
            seed,
            cfg,
        );
        totals.linux += e.linux / cfg.runs as f64;
        totals.cm += e.cm / cfg.runs as f64;
        totals.bayesperf += e.bayesperf / cfg.runs as f64;
        totals.wm_pin += e.wm_pin / cfg.runs as f64;
    }
    totals
}

fn evaluate_once(
    catalog: &Catalog,
    program: &PhaseProgram,
    events: &[EventId],
    rr: &[Configuration],
    bp: &[Configuration],
    seed: u64,
    cfg: &EvalConfig,
) -> MethodErrors {
    let pmu_cfg = PmuConfig {
        seed,
        ..PmuConfig::for_catalog(catalog)
    };
    let pmu = Pmu::new(catalog, pmu_cfg);

    // Sampling runs (the same application run seen through two schedules).
    let mut truth = program.instantiate(catalog, seed);
    let rr_run = pmu.run_multiplexed(&mut truth, rr, cfg.windows);
    let mut truth = program.instantiate(catalog, seed);
    let bp_run = pmu.run_multiplexed(&mut truth, bp, cfg.windows);

    // Polling references: two more application runs.
    let mut truth = program.instantiate(catalog, seed + 101);
    let poll = pmu.run_polling(&mut truth, events, cfg.windows);
    let mut truth = program.instantiate(catalog, seed + 202);
    let poll2 = pmu.run_polling(&mut truth, events, cfg.windows);

    let linux = LinuxScaling::new();
    let cm = CounterMiner::new();
    let wm = WmPin::new(catalog);
    let mut corrector = Corrector::new(catalog, CorrectorConfig::for_run(&bp_run));
    let posterior = corrector.correct_run(&bp_run);

    let mut errors = MethodErrors::default();
    let n = events.len() as f64;
    for &ev in events {
        let reference: Vec<f64> = poll.windows.iter().map(|w| w.truth[ev.index()]).collect();
        let reference = noisy_reference(&poll, ev).unwrap_or(reference);
        let reference2 = noisy_reference(&poll2, ev).expect("event polled");
        let err =
            |series: &[f64]| 100.0 * adjusted_error(series, &reference, &reference2, cfg.band);
        errors.linux += err(&linux.estimate(&rr_run, ev)) / n;
        errors.cm += err(&cm.estimate(&rr_run, ev)) / n;
        errors.wm_pin += err(&wm.estimate(&rr_run, ev)) / n;
        errors.bayesperf += err(&posterior.mle_series(ev)) / n;
    }
    errors
}

fn noisy_reference(run: &bayesperf_simcpu::MultiplexRun, ev: EventId) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(run.windows.len());
    for w in &run.windows {
        out.push(w.sample_for(ev)?.value);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::Arch;
    use bayesperf_workloads::kmeans;

    #[test]
    fn derived_hpcs_are_programmable_and_numerous() {
        for arch in Arch::all() {
            let cat = Catalog::new(arch);
            let events = derived_event_hpcs(&cat);
            assert!(events.len() >= 12, "{arch}: {}", events.len());
            assert!(events.iter().all(|&e| cat.event(e).is_programmable()));
        }
    }

    #[test]
    fn evaluation_reproduces_the_headline_ordering() {
        // One workload, one run, small windows. Robust claims: both
        // correctors clearly beat Linux scaling; BayesPerf at least halves
        // the error. (One short run does not order CM against BayesPerf;
        // the `fig6_hibench_error` binary compares them over the suite.)
        let cat = Catalog::new(Arch::X86SkyLake);
        let events = derived_event_hpcs(&cat);
        let cfg = EvalConfig {
            windows: 32,
            runs: 1,
            ..EvalConfig::default()
        };
        let e = evaluate_workload(&cat, &kmeans(), &events, &cfg);
        assert!(
            e.bayesperf < 0.6 * e.linux && e.cm < e.linux,
            "ordering violated: {e:?}"
        );
    }
}
