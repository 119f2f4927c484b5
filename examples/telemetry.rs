//! The telemetry plane up close: a live monitor's metrics registry
//! rendered as Prometheus text, the pipeline spans one window leaves
//! behind, and the flight recorder's structured event trail across an
//! injected service panic and its supervised restart.
//!
//! Run with: `cargo run --release --example telemetry`

use bayesperf::core::corrector::CorrectorConfig;
use bayesperf::core::ServiceState;
use bayesperf::events::{Arch, Catalog, Semantic};
use bayesperf::obs::{render_prometheus, Stage};
use bayesperf::simcpu::{pack_round_robin, Pmu, PmuConfig};
use bayesperf::workloads::by_name;
use bayesperf::Monitor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small multiplexed run through one supervised monitor.
    let catalog = Catalog::new(Arch::X86SkyLake);
    let events: Vec<_> = [
        Semantic::L1dMisses,
        Semantic::LlcHits,
        Semantic::LlcMisses,
        Semantic::BrMisp,
    ]
    .iter()
    .map(|&s| catalog.require(s))
    .collect();
    let schedule = pack_round_robin(&catalog, &events)?;
    let mut truth = by_name("TeraSort")
        .expect("in suite")
        .instantiate(&catalog, 0);
    let pmu = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog));
    let run = pmu.run_multiplexed(&mut truth, &schedule, 24);

    let monitor = Monitor::new(&catalog, CorrectorConfig::for_run(&run), 1 << 14)?;
    for w in &run.windows {
        for s in &w.samples {
            monitor.push_sample(*s)?;
        }
    }
    monitor.flush()?;

    // 1. The metrics registry: every counter and histogram the service
    //    bumped while correcting, one namespaced surface, zero locks on
    //    the hot path. Rendered in Prometheus exposition format.
    let tele = monitor.telemetry();
    println!("== registry (excerpt) ==");
    for line in render_prometheus(&tele.registry().snapshot())
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket"))
    {
        println!("{line}");
    }

    // 2. Pipeline spans: one window's life — ingest, window assembly, the
    //    chunk solve, snapshot publish — reconstructed from the span rings.
    let spans = tele.spans().records();
    let window = spans
        .iter()
        .filter(|s| s.stage == Stage::Publish)
        .map(|s| s.window)
        .max()
        .expect("flush published");
    println!("\n== spans for window {window} ==");
    for s in tele.spans().for_window(window) {
        println!(
            "{:<9} {:>9} ns  (start +{} ns)",
            s.stage.name(),
            s.end_ns - s.start_ns,
            s.start_ns
        );
    }

    // 3. The flight recorder: inject a panic, let the supervisor contain
    //    it and restart the service, then drain the structured event
    //    trail. A real `ServiceState::Failed` seals the same dump to
    //    stderr automatically.
    std::panic::set_hook(Box::new(|_| {})); // keep the injected unwind quiet
    monitor.inject_panic()?;
    while monitor.restarts() < 1 || monitor.service_state() != ServiceState::Running {
        std::thread::yield_now();
    }
    let _ = std::panic::take_hook();
    println!("\n== flight recorder after injected panic ==");
    for entry in tele.flight().drain() {
        println!("#{:<3} {}", entry.seq, entry.event);
    }
    println!(
        "\nservice is {:?} again after {} restart(s); the recorder ring is \
         drained and ready for the next incident.",
        monitor.service_state(),
        monitor.restarts()
    );
    Ok(())
}
