//! The uncertainty-driven multiplexing scheduler, end to end.
//!
//! The PMU hosts one event group per quantum; everything else is scaled —
//! the very error BayesPerf corrects (Fig. 2). This example closes the
//! loop and lets the *posterior* pick what to measure next:
//!
//! ```text
//!   quantum:  scheduler ──group──▶ PMU ──samples──▶ corrector
//!      ▲                                               │
//!      └────────── posterior relative variance ◀───────┘
//! ```
//!
//! Part 1 runs the deterministic closed loop on the kmeans workload with
//! the blind `RoundRobin` baseline and the `UncertaintyDriven` policy at
//! an **equal sample budget** (same windows, one group per quantum) and
//! compares the mean posterior relative variance each achieves.
//!
//! Part 2 shows the live-service wiring: a `ServiceScheduler` split into
//! a producer handle and a `ScheduleHook` installed on a `Monitor`, so the
//! background inference thread feeds the scheduler its own posteriors.
//!
//! Run with: `cargo run --release --example mux_scheduler`

use bayesperf::core::corrector::CorrectorConfig;
use bayesperf::core::Monitor;
use bayesperf::events::{Arch, Catalog};
use bayesperf::mlsched::mux::{
    hetero_demo_events, run_closed_loop, GroupSchedule, MuxPolicy, MuxScheduler, RoundRobin,
    ServiceScheduler, UncertaintyDriven,
};
use bayesperf::simcpu::{Extrapolate, Pmu, PmuConfig};
use bayesperf::workloads::kmeans;

fn main() {
    let catalog = Catalog::new(Arch::X86SkyLake);

    // Twelve core events on four programmable counters: three groups, so
    // each event is off the PMU two-thirds of the time. The groups are
    // deliberately heterogeneous — the situation Röhl et al. show matters:
    // the TLB/branch group has only weak (0.9-noise) invariant bands, so
    // skipping it is expensive; the µop-pipeline group is tied to the
    // always-measured fixed counters by tight flow invariants, so its
    // posterior stays sharp even unscheduled. A blind rotation cannot
    // tell the difference; the posterior can. (The same fixture backs the
    // closed-loop acceptance test and bench_json's gated entry.)
    let events = hetero_demo_events(&catalog);

    // The starvation bound K = 2G: the scheduler may chase uncertainty,
    // but every group is guaranteed to run at least once per 6 quanta.
    let schedule = GroupSchedule::from_events(&catalog, &events, 6).expect("groups fit the PMU");
    println!(
        "schedule: {} groups over {} events, starvation bound K = {}",
        schedule.len(),
        events.len(),
        schedule.starvation_bound()
    );

    // ── Part 1: equal-budget comparison on the closed loop ──────────────
    let n_windows = 48;
    let corrector_cfg = || {
        let pmu = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog));
        let probe = pmu.run_polling(&mut kmeans().instantiate(&catalog, 0), &[], 1);
        CorrectorConfig::for_run(&probe)
    };
    let run = |policy: Box<dyn MuxPolicy>| {
        let mut truth = kmeans().instantiate(&catalog, 0);
        run_closed_loop(
            &catalog,
            &mut truth,
            PmuConfig::for_catalog(&catalog),
            schedule.clone(),
            policy,
            corrector_cfg(),
            n_windows,
        )
    };
    let rr = run(Box::new(RoundRobin));
    let ud = run(Box::<UncertaintyDriven>::default());

    for report in [&rr, &ud] {
        println!(
            "{:>12}: mean posterior rel. variance {:.5}, group runs {:?}, {} forced picks",
            report.policy, report.mean_rel_var, report.group_runs, report.forced_picks
        );
    }
    let reduction = 100.0 * (1.0 - ud.mean_rel_var / rr.mean_rel_var);
    println!(
        "uncertainty-driven reduces mean posterior variance by {reduction:.1}% \
         at an equal sample budget ({n_windows} windows)"
    );
    println!(
        "first {k} uncertainty-driven picks: {:?}",
        &ud.decisions[..schedule.starvation_bound().min(ud.decisions.len())],
        k = schedule.starvation_bound()
    );

    // ── Part 2: the live service drives its own schedule ────────────────
    // The hook half rides the inference thread (fed after every publish);
    // the handle half is what the sampling loop asks for the next group.
    let monitor = Monitor::new(&catalog, corrector_cfg(), 1 << 16).expect("spawn monitor");
    let scheduler = MuxScheduler::new(schedule.clone(), Box::new(UncertaintyDriven::default()));
    let (handle, hook) = ServiceScheduler::new(scheduler, catalog.len());
    monitor.set_schedule_hook(hook).expect("fresh monitor");

    let pmu = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog));
    let mut truth = kmeans().instantiate(&catalog, 0);
    let live = pmu.run_driven(
        &mut truth,
        schedule.groups(),
        n_windows,
        Extrapolate::LinuxScaled,
        |_, prev| {
            if let Some(w) = prev {
                for s in &w.samples {
                    monitor.push_sample(*s).expect("ring sized for the run");
                }
                // Demo determinism: wait for the service to catch up so
                // every pick sees the freshest posterior. A production
                // loop would skip this barrier and read whatever the
                // inference thread last published.
                monitor.sync().expect("service alive");
            }
            handle.next_group()
        },
    );
    let picks: Vec<usize> = live.windows.iter().map(|w| w.config_index).collect();
    let stats = handle.stats();
    println!(
        "live service: {} windows driven by the monitor's own posteriors \
         ({} policy picks, {} forced); last {k} picks: {:?}",
        picks.len(),
        stats.policy_picks,
        stats.forced_picks,
        &picks[picks.len() - schedule.starvation_bound()..],
        k = schedule.starvation_bound()
    );
}
