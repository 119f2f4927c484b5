//! Service-level shim tests: concurrent sessions against the background
//! inference thread, determinism vs the single-threaded corrector, and
//! ring backpressure.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::service::{Monitor, ScheduleHook};
use bayesperf_core::ShimError;
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_inference::Gaussian;
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Sample};
use bayesperf_workloads::kmeans;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn recorded_run(cat: &Catalog, n_windows: usize, seed: u64) -> MultiplexRun {
    use bayesperf_simcpu::{NoiseModel, Pmu, PmuConfig};
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(
        cat,
        PmuConfig {
            noise: NoiseModel::default(),
            seed,
            ..PmuConfig::for_catalog(cat)
        },
    );
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

/// ≥4 concurrent sessions poll while the inference thread corrects a
/// live stream: every read returns (non-blocking), every group read is
/// internally consistent (one snapshot: chunk-boundary window, finite
/// values, windows monotone per reader), and the final posteriors are
/// bit-identical to a single-threaded [`Corrector`] fed the same sample
/// stream.
#[test]
fn concurrent_sessions_read_consistent_snapshots_matching_the_corrector() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let n_windows = 24;
    let run = recorded_run(&cat, n_windows, 11);
    let cfg = CorrectorConfig::for_run(&run);
    let k = cfg.model.slices;
    assert_eq!(n_windows % k, 0, "fixture chunk-aligned");

    let monitor = Monitor::new(&cat, cfg.clone(), 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("open");
    let stop = AtomicBool::new(false);
    let reads_during_run = AtomicU64::new(0);

    std::thread::scope(|s| {
        // 4 concurrent readers polling while inference is mid-chunk.
        for _ in 0..4 {
            let session = session.clone();
            let stop = &stop;
            let reads = &reads_during_run;
            let cat = &cat;
            s.spawn(move || {
                let ev = cat.require(Semantic::L1dMisses);
                let mut last_window = 0u32;
                loop {
                    match session.read(ev) {
                        Ok(r) => assert!(r.value.is_finite() && r.std_dev >= 0.0),
                        Err(ShimError::NoPosteriorYet) => {}
                        Err(e) => panic!("unexpected read error: {e}"),
                    }
                    if let Ok(group) = session.read_group() {
                        // Snapshot consistency: the window is a chunk
                        // boundary, never moves backwards for one reader,
                        // and every reading in the group is finite.
                        assert_eq!(
                            (group.window as usize + 1) % k,
                            0,
                            "snapshot window {} is a chunk boundary",
                            group.window
                        );
                        assert!(group.window >= last_window, "snapshots never regress");
                        last_window = group.window;
                        assert_eq!(group.readings.len(), cat.len());
                        assert!(group
                            .readings
                            .iter()
                            .all(|(_, r)| r.value.is_finite() && r.std_dev.is_finite()));
                        reads.fetch_add(1, SeqCst);
                    }
                    if stop.load(SeqCst) {
                        break;
                    }
                }
            });
        }

        // Producer: streams the whole recorded run into the ring.
        for w in &run.windows {
            for s in &w.samples {
                monitor.push_sample(*s).expect("ring sized for the run");
            }
        }
        monitor.sync().expect("sync");
        monitor.flush().expect("flush");
        stop.store(true, SeqCst);
    });

    assert!(
        reads_during_run.load(SeqCst) > 0,
        "readers made progress concurrently with inference"
    );
    assert_eq!(monitor.windows_published(), n_windows as u64);
    assert_eq!(monitor.late_samples(), 0);

    // Reference: the same stream through a single-threaded corrector,
    // chunk by chunk (the service's exact ingestion order).
    let mut reference = Corrector::new(&cat, cfg);
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    for chunk in windows.chunks(k) {
        reference.push_chunk(chunk);
    }
    let group = session.read_group().expect("final snapshot");
    assert_eq!(group.window as usize, n_windows - 1);
    for (ev, reading) in &group.readings {
        let expect = reference.posterior(k - 1, *ev);
        assert_eq!(
            reading.value, expect.mean,
            "bit-identical posterior mean for {ev}"
        );
        assert_eq!(
            reading.std_dev,
            expect.std_dev(),
            "bit-identical posterior sd for {ev}"
        );
    }
}

/// The flushed ragged tail matches the batch corrector's ragged-tail path
/// bit for bit: streaming `Monitor` + `flush` == `Corrector::correct_run`.
#[test]
fn streamed_run_with_flush_matches_batch_correction_including_tail() {
    let cat = Catalog::new(Arch::X86SkyLake);
    // 21 windows with k = 6: three full chunks + a 3-window tail.
    let n_windows = 21;
    let run = recorded_run(&cat, n_windows, 5);
    let cfg = CorrectorConfig::for_run(&run);
    let k = cfg.model.slices;
    assert!(!n_windows.is_multiple_of(k), "fixture needs a ragged tail");

    let monitor = Monitor::new(&cat, cfg.clone(), 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("open");
    let mut updates = session.subscribe();
    for w in &run.windows {
        for s in &w.samples {
            monitor.push_sample(*s).expect("ring sized for the run");
        }
    }
    monitor.flush().expect("flush");
    assert_eq!(monitor.windows_published(), n_windows as u64);

    let series = Corrector::new(&cat, cfg).correct_run(&run);
    let ev = cat.require(Semantic::L1dMisses);
    let mut streamed = Vec::new();
    while let Ok(Some(u)) = updates.try_next() {
        streamed.push((u.window, u.gaussian(ev).expect("selected")));
    }
    assert_eq!(streamed.len(), n_windows);
    for (w, g) in streamed {
        let expect = series.posterior(w as usize, ev);
        assert_eq!(g.mean, expect.mean, "window {w}: bit-identical mean");
        assert_eq!(g.var, expect.var, "window {w}: bit-identical variance");
    }
}

/// Parks the inference thread inside `on_publish` until released: the
/// thread stops draining the ring, so a producer can overflow it.
struct ParkHook {
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl ScheduleHook for ParkHook {
    fn on_publish(&mut self, _window: u32, _chunk: u64, _posteriors: &[Gaussian]) {
        self.entered.store(true, SeqCst);
        while !self.release.load(SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Backpressure: with the inference thread parked in its first publish,
/// an overflowing producer gets typed `RingOverflow` errors whose counts
/// agree with `dropped()`; after the release, posteriors still publish,
/// stay finite, and window indices stay monotone.
#[test]
fn ring_backpressure_surfaces_typed_errors_and_keeps_posteriors_sane() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 24, 7);
    let cfg = CorrectorConfig::for_run(&run);
    let k = cfg.model.slices;
    let capacity = 32;
    let monitor = Monitor::new(&cat, cfg, capacity).expect("spawn monitor");
    let session = monitor.session().open().expect("open");
    let mut updates = session.subscribe();

    // The first chunk's windows, one synced window at a time so the tiny
    // ring never fills; then the hook, which the first publish walks into
    // once the next window opens.
    for w in &run.windows[..k] {
        for s in &w.samples {
            monitor.push_sample(*s).expect("ring has room");
        }
        monitor.sync().expect("sync");
    }
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    monitor
        .set_schedule_hook(Box::new(ParkHook {
            entered: entered.clone(),
            release: release.clone(),
        }))
        .expect("install hook");
    monitor
        .push_sample(run.windows[k].samples[0])
        .expect("ring has room");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !entered.load(SeqCst) {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the publish"
        );
        std::thread::yield_now();
    }

    let mut overflows = 0u64;
    let mut last_reported = 0u64;
    for s in run.windows[k..].iter().flat_map(|w| &w.samples).skip(1) {
        match monitor.push_sample(*s) {
            Ok(()) => {}
            Err(ShimError::RingOverflow { dropped }) => {
                overflows += 1;
                assert!(dropped > last_reported, "drop count grows");
                last_reported = dropped;
            }
            Err(e) => panic!("unexpected push error: {e}"),
        }
    }
    assert!(overflows > 0, "tiny ring must overflow while parked");
    assert_eq!(monitor.dropped(), overflows);

    release.store(true, SeqCst);
    monitor.flush().expect("flush");
    // Only `capacity` samples of the parked stretch survived, but
    // inference over sparse windows must still publish finite posteriors
    // in window order.
    assert!(
        monitor.windows_published() > k as u64,
        "survivors were corrected"
    );
    let mut last_window = None;
    let mut seen = 0;
    while let Ok(Some(u)) = updates.try_next() {
        if let Some(prev) = last_window {
            assert!(u.window > prev, "windows monotone after drops");
        }
        last_window = Some(u.window);
        for (_, g) in &u.posteriors {
            assert!(g.mean.is_finite() && g.var.is_finite() && g.var >= 0.0);
        }
        seen += 1;
    }
    assert!(seen > 0);
    let group = session.read_group().expect("snapshot after drops");
    assert!(group.readings.iter().all(|(_, r)| r.value.is_finite()));
}

/// Regression for the lossy-subscriber path: a consumer whose bounded
/// queue overflows must see the skipped windows **explicitly** via
/// `PosteriorUpdate::gap` on the next delivered update — not just
/// implicitly as non-consecutive `window` indices.
#[test]
fn lossy_subscriber_gets_explicit_gap_counts() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 24, 13);
    let cfg = CorrectorConfig::for_run(&run);
    let k = cfg.model.slices;
    assert_eq!(k, 6, "fixture assumes the default chunk size");

    let monitor = Monitor::new(&cat, cfg, 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("open");
    // Queue of 2: everything beyond two updates between drains is lost.
    let mut updates = session.subscribe_with_capacity(2);

    let feed_windows = |range: std::ops::Range<usize>| {
        for w in &run.windows[range] {
            for s in &w.samples {
                monitor.push_sample(*s).expect("room");
            }
        }
    };

    // First half: windows 0..12 publish while the consumer sleeps; only
    // w0 and w1 fit, w2..=w11 overflow.
    feed_windows(0..12);
    monitor.flush().expect("flush");
    let mut got = Vec::new();
    while let Ok(Some(u)) = updates.try_next() {
        got.push((u.window, u.gap));
    }
    assert_eq!(got, vec![(0, 0), (1, 0)], "no gap before the overflow");

    // Second half: windows 12..24 publish; the first delivered one must
    // carry the ten windows (w2..=w11) this subscriber lost.
    feed_windows(12..24);
    monitor.flush().expect("flush");
    let mut got = Vec::new();
    while let Ok(Some(u)) = updates.try_next() {
        got.push((u.window, u.gap));
    }
    assert_eq!(
        got,
        vec![(12, 10), (13, 0)],
        "gap = windows skipped since the last enqueued update"
    );

    // A keeping-up subscriber never sees a gap: `window` deltas and `gap`
    // agree (both zero-loss) across a fresh subscription.
    let mut fresh = session.subscribe();
    feed_windows(0..0); // nothing new; flush republishes nothing
    monitor.flush().expect("flush");
    assert!(matches!(fresh.try_next(), Ok(None)), "nothing republished");
}
