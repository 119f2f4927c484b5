//! Event multiplexing on the closed loop, scored against truth.
//!
//! The PMU hosts one event group per quantum; everything else is scaled —
//! the very error BayesPerf corrects (Fig. 2). This example rotates three
//! heterogeneous groups under the starvation-bounded scheduler, corrects
//! each run with the chained corrector, and scores the posteriors against
//! the simulated truth:
//!
//! ```text
//!   quantum:  scheduler ──group──▶ PMU ──samples──▶ corrector
//!                                   │                   │ posteriors
//!                                   └──── truth ───▶ err_pct, cov95
//! ```
//!
//! Single-threaded and fully seeded: two runs print the same bytes.
//!
//! Run with: `cargo run --release --example mux_scheduler`

use bayesperf::core::corrector::CorrectorConfig;
use bayesperf::events::{Arch, Catalog};
use bayesperf::mlsched::mux::{hetero_demo_events, run_closed_loop, GroupSchedule, RoundRobin};
use bayesperf::simcpu::{Pmu, PmuConfig};
use bayesperf::workloads::kmeans;

fn main() {
    let catalog = Catalog::new(Arch::X86SkyLake);

    // Twelve core events on four programmable counters: three groups, so
    // each event is off the PMU two-thirds of the time. The groups are
    // deliberately heterogeneous — the situation Röhl et al. show matters:
    // the TLB/branch group has only weak (0.9-noise) invariant bands, while
    // the µop-pipeline group is tied to the always-measured fixed counters
    // by tight flow invariants. (The same fixture backs the closed-loop
    // test and bench_json's `mux_schedule` entry.)
    let events = hetero_demo_events(&catalog);

    // The starvation bound K = 2G: whatever the policy, every group runs
    // at least once per 6 quanta.
    let schedule = GroupSchedule::from_events(&catalog, &events, 6).expect("groups fit the PMU");
    println!(
        "schedule: {} groups over {} events, starvation bound K = {}",
        schedule.len(),
        events.len(),
        schedule.starvation_bound()
    );

    let n_windows = 48;
    let seeds = 20u64;
    let (mut err_sum, mut cov_sum) = (0.0, 0.0);
    for seed in 0..seeds {
        let probe = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog)).run_polling(
            &mut kmeans().instantiate(&catalog, seed),
            &[],
            1,
        );
        let report = run_closed_loop(
            &catalog,
            &mut kmeans().instantiate(&catalog, seed),
            PmuConfig {
                seed,
                ..PmuConfig::for_catalog(&catalog)
            },
            schedule.clone(),
            Box::new(RoundRobin),
            CorrectorConfig::for_run(&probe),
            n_windows,
        );
        println!(
            "seed {seed:>2}: {} err {:>5.2}%  cov95 {:.3}  group runs {:?}, {} forced picks, {} windows scored",
            report.policy,
            report.err_pct,
            report.cov95,
            report.group_runs,
            report.forced_picks,
            report.scored_windows
        );
        err_sum += report.err_pct;
        cov_sum += report.cov95;
    }
    println!(
        "kmeans, {seeds} seeds x {n_windows} windows: mean truth error {:.2}%, mean cov95 {:.3}",
        err_sum / seeds as f64,
        cov_sum / seeds as f64
    );
}
