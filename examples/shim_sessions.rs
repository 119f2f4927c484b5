//! The session API end to end: a `Monitor` with its background inference
//! thread, a producer streaming kernel samples, concurrent reader threads
//! polling lock-free posterior snapshots, and a subscriber consuming the
//! per-window posterior stream (paper §5 / Fig. 3: reads are served from
//! already-computed posteriors while inference runs asynchronously).
//!
//! Run with: `cargo run --release --example shim_sessions`

use bayesperf::core::corrector::CorrectorConfig;
use bayesperf::core::scheduler::ScheduleTransformer;
use bayesperf::events::{Arch, Catalog, Semantic};
use bayesperf::simcpu::{Pmu, PmuConfig};
use bayesperf::workloads::by_name;
use bayesperf::{Monitor, ShimError};

fn main() {
    // A Sky Lake-like CPU running TeraSort, with the cache hierarchy
    // multiplexed over the physical counters.
    let catalog = Catalog::new(Arch::X86SkyLake);
    let mut truth = by_name("TeraSort")
        .expect("in suite")
        .instantiate(&catalog, 0);
    let events: Vec<_> = [
        Semantic::L1dMisses,
        Semantic::LlcHits,
        Semantic::LlcMisses,
        Semantic::BrMisp,
    ]
    .iter()
    .map(|&s| catalog.require(s))
    .collect();
    let schedule = ScheduleTransformer::new(&catalog).plan(&events);
    let pmu = Pmu::new(&catalog, PmuConfig::for_catalog(&catalog));
    let run = pmu.run_multiplexed(&mut truth, &schedule.configs, 21);

    // One monitor service == one perf "fd". Sessions are cheap handles.
    let monitor =
        Monitor::new(&catalog, CorrectorConfig::for_run(&run), 1 << 14).expect("spawn monitor");
    let poller = monitor
        .session()
        .events(&events)
        .open()
        .expect("fresh monitor");
    let subscriber = monitor.session().events(&events).open().expect("open");
    let mut updates = subscriber.subscribe();

    let llc = catalog.require(Semantic::LlcMisses);
    std::thread::scope(|s| {
        // Reader thread: polls the latest posterior while the producer is
        // still streaming — non-blocking, zero inference on this path.
        s.spawn(|| {
            let mut served = 0u64;
            let mut last_window = None;
            loop {
                match poller.read(llc) {
                    Ok(r) => {
                        let group = poller.read_group().expect("snapshot");
                        if last_window != Some(group.window) {
                            println!(
                                "poll : window {:>2}  llc-misses {:>12.0} (+-{:>9.0})",
                                group.window, r.value, r.std_dev
                            );
                            last_window = Some(group.window);
                        }
                        served += 1;
                    }
                    Err(ShimError::NoPosteriorYet) => {}
                    Err(_) => break, // monitor closed
                }
                if served > 0 && last_window == Some(run.windows.len() as u32 - 1) {
                    break;
                }
                std::thread::yield_now();
            }
            println!("poll : {served} lock-free reads served");
        });

        // Producer: the kernel side, pushing ring samples in window order.
        for w in &run.windows {
            for sample in &w.samples {
                if let Err(ShimError::RingOverflow { dropped }) = monitor.push_sample(*sample) {
                    eprintln!("ring overflow ({dropped} dropped)");
                }
            }
        }
        // Correct the ragged tail so the last windows publish too.
        monitor.flush().expect("service alive");
    });

    // The subscriber sees every corrected window exactly once, in order,
    // with the stats of the chunk solve that produced it: `sites` counts
    // the (slice, component) pairs that solve fitted to data.
    println!("\nwindow  chunk  sites  llc-misses posterior");
    let mut n = 0;
    while let Ok(Some(u)) = updates.try_next() {
        if let Some(r) = u.reading(llc) {
            if u.window % 4 == 0 {
                println!(
                    "{:>6}  {:>5}  {:>5}  {:>12.0} (+-{:>9.0})",
                    u.window, u.chunk, u.stats.analytic_site_updates, r.value, r.std_dev
                );
            }
            n += 1;
        }
    }
    println!(
        "\n{n} per-window updates from {} inference runs; \
         {} late samples, {} ring drops",
        monitor.chunks_run(),
        monitor.late_samples(),
        monitor.dropped()
    );
}
