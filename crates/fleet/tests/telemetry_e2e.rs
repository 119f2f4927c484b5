//! The telemetry plane end to end: a window's life reconstructed from
//! span rings alone, registry dumps flowing over the v3 wire, and the
//! scraper-backed session surface for fleet-wide metrics and updates.
//!
//! The headline acceptance test follows one window index across all six
//! pipeline stages — ingest → assemble → solve → publish on the
//! monitor's tracer, scrape → fuse on the aggregator's — using nothing
//! but what the telemetry plane recorded.

use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::{Monitor, ShimError, SnapshotView};
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_fleet::{
    Fleet, FleetConfig, FleetScraper, FleetUpdates, ScrapeConfig, ScrapeResponder, ShardId,
    ShardLabel, SimTransport, SnapshotSource,
};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_obs::{MetricSnapshot, MetricValue, Stage, Telemetry};
use bayesperf_simcpu::{pack_round_robin, LinkProfile, LinkState, MultiplexRun, Pmu, PmuConfig};
use bayesperf_workloads::kmeans;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn recorded_run(cat: &Catalog, n_windows: usize) -> MultiplexRun {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(cat, PmuConfig::for_catalog(cat));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

/// The acceptance bar: pick a window index and reconstruct its whole
/// pipeline — ingest, window assembly, the chunk solve, snapshot publish,
/// the scrape that carried it, the fusion that published it — from the
/// two span tracers alone. Every stage must be present, internally
/// ordered, and contiguous where the service hands off synchronously.
#[test]
fn one_windows_life_is_reconstructable_from_spans_alone() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 12);
    let monitor =
        Monitor::new(&cat, CorrectorConfig::for_run(&run), 1 << 14).expect("spawn monitor");
    for w in &run.windows {
        for s in &w.samples {
            monitor.push_sample(*s).expect("room");
        }
    }
    monitor.flush().expect("service alive");

    // Serve the monitor through the scrape plane over a clean sim link.
    let mut scraper = FleetScraper::new(cat.len(), ScrapeConfig::default());
    let session = monitor.session().open().expect("open");
    let responder = Arc::new(ScrapeResponder::new(
        ShardId::from_raw(0),
        ShardLabel::new("m0", 0),
        session,
    ));
    scraper.add_endpoint(
        ShardId::from_raw(0),
        ShardLabel::new("m0", 0),
        Box::new(SimTransport::new(
            responder,
            LinkState::new(LinkProfile::clean(7)),
        )),
    );
    let report = scraper.poll_round();
    assert_eq!(report.full_snapshots, 1);

    // The window under reconstruction: the one the fusion published,
    // read back from the scraper's own Fuse span.
    let scraper_spans = scraper.telemetry().spans().records();
    let fuse = scraper_spans
        .iter()
        .find(|s| s.stage == Stage::Fuse)
        .expect("published round leaves a fuse span");
    let w = fuse.window;

    // Monitor side: all four service stages for that window, in order,
    // with synchronous hand-offs contiguous (ingest closes where the
    // assemble wait opens; the assemble wait ends where the solve
    // starts; the solve precedes the publish).
    let monitor_spans = monitor.telemetry().spans().for_window(w);
    let stages: Vec<Stage> = monitor_spans.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        [Stage::Ingest, Stage::Assemble, Stage::Solve, Stage::Publish],
        "window {w} must traverse every service stage exactly once"
    );
    for s in &monitor_spans {
        assert!(s.end_ns >= s.start_ns, "{:?} runs backwards", s.stage);
    }
    let by_stage = |stage: Stage| {
        monitor_spans
            .iter()
            .find(|s| s.stage == stage)
            .copied()
            .expect("present")
    };
    let (ingest, assemble) = (by_stage(Stage::Ingest), by_stage(Stage::Assemble));
    let (solve, publish) = (by_stage(Stage::Solve), by_stage(Stage::Publish));
    assert_eq!(ingest.end_ns, assemble.start_ns, "ingest -> assemble");
    assert_eq!(assemble.end_ns, solve.start_ns, "assemble -> solve");
    assert!(publish.start_ns >= solve.end_ns, "solve -> publish");

    // Aggregator side: the scrape that carried window `w` and the fusion
    // that published it, on the scraper's tracer.
    let scrape = scraper_spans
        .iter()
        .find(|s| s.stage == Stage::Scrape && s.window == w)
        .expect("the carrying scrape is recorded for the same window");
    assert!(scrape.end_ns >= scrape.start_ns);
    assert!(fuse.end_ns >= fuse.start_ns);
    assert!(
        fuse.end_ns >= scrape.start_ns,
        "fusion completes after its scrape began"
    );
    // And the published fused snapshot really is that window.
    let reader = scraper.reader();
    let snap = reader.read().expect("published");
    assert_eq!(snap.max_window(), w);
}

/// A synthetic shard whose registry is under test control.
struct MeteredSource {
    version: AtomicU64,
    events: usize,
    tele: Telemetry,
}

impl MeteredSource {
    fn new(events: usize, polls_name: &str, polls: u64) -> Arc<MeteredSource> {
        let tele = Telemetry::new();
        tele.registry().counter(polls_name).add(polls);
        Arc::new(MeteredSource {
            version: AtomicU64::new(1),
            events,
            tele,
        })
    }
}

impl SnapshotSource for MeteredSource {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok((v as u32, v))
    }

    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok(SnapshotView {
            window: v as u32,
            chunk: v,
            stats: EpRunStats::default(),
            late_by_source: Vec::new(),
            posteriors: (0..self.events)
                .map(|e| Gaussian::new(10.0 + e as f64, 1.0))
                .collect(),
        })
    }

    fn source_metrics(&self) -> Option<Vec<MetricSnapshot>> {
        Some(self.tele.registry().snapshot())
    }
}

/// A scraper over `shards` [`MeteredSource`]s on clean sim links; shard
/// `i`'s `sim.polls` counter starts at `polls(i)`.
fn metered_scraper(
    events: usize,
    shards: u32,
    polls: impl Fn(u32) -> u64,
) -> (FleetScraper, Vec<Arc<MeteredSource>>) {
    let mut scraper = FleetScraper::new(events, ScrapeConfig::default());
    let mut sources = Vec::new();
    for shard in 0..shards {
        let source = MeteredSource::new(events, "sim.polls", polls(shard));
        sources.push(Arc::clone(&source));
        let label = ShardLabel::new(format!("m{shard}"), 0);
        let responder = Arc::new(ScrapeResponder::new(
            ShardId::from_raw(shard),
            label.clone(),
            source,
        ));
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            label,
            Box::new(SimTransport::new(
                responder,
                LinkState::new(LinkProfile::clean(u64::from(shard))),
            )),
        );
    }
    (scraper, sources)
}

fn counter_value(metrics: &[MetricSnapshot], name: &str) -> Option<u64> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        })
}

/// Registry dumps flow over the v3 wire: `poll_telemetry` pulls every
/// shard's metrics through the same transports the snapshot scrape uses,
/// merges same-named counters across shards, and folds in the scraper's
/// own scrape-plane metrics.
#[test]
fn telemetry_frames_flow_over_the_sim_wire_and_merge() {
    let (mut scraper, _) = metered_scraper(4, 3, |shard| u64::from(shard) + 10);
    scraper.poll_round();
    let metrics = scraper.poll_telemetry();
    // Same-named shard counters sum across the fleet: 10 + 11 + 12.
    assert_eq!(counter_value(&metrics, "sim.polls"), Some(33));
    // The scraper's own registry rides along in the same dump.
    assert_eq!(counter_value(&metrics, "scrape.rounds"), Some(1));
    assert_eq!(counter_value(&metrics, "scrape.full_snapshots"), Some(3));
}

/// The scraper-backed `FleetSession`: fused reads plus live cumulative
/// scrape totals and the cached fleet-wide metric dump, with no public
/// API the in-process fleet session doesn't also have.
#[test]
fn scraper_backed_session_serves_totals_and_fleet_metrics() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let (mut scraper, _) = metered_scraper(cat.len(), 2, |_| 5);
    let session = scraper.session(&cat);
    let r0 = scraper.poll_round();
    let r1 = scraper.poll_round();
    scraper.poll_telemetry();

    // Totals are live registry reads, so rounds run after the session
    // was built still count.
    let totals = session.scrape_totals().expect("open");
    assert_eq!(totals.rounds, 2);
    assert_eq!(
        totals.full_snapshots,
        (r0.full_snapshots + r1.full_snapshots) as u64
    );
    assert_eq!(
        totals.bytes_received,
        r0.bytes_received + r1.bytes_received,
        "cumulative totals equal the per-round report sums"
    );

    // The fused read surface works, and fleet_metrics carries both the
    // scrape plane's counters and the cached shard dumps.
    let ev = cat.require(Semantic::L1dMisses);
    assert!(session.read(ev).is_ok(), "fused cell published");
    let metrics = session.fleet_metrics().expect("open");
    assert_eq!(counter_value(&metrics, "scrape.rounds"), Some(2));
    assert_eq!(counter_value(&metrics, "sim.polls"), Some(10));
}

/// The in-process fleet's session exposes the same surface: member
/// registries merge live (no wire, no cache), the ticker-restart counter
/// backs the long-standing accessor, and the scrape totals count the
/// rounds the fleet's own scraper ran.
#[test]
fn in_process_fleet_session_merges_member_registries() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 6);
    let mut fleet =
        Fleet::new(&cat, FleetConfig::new(CorrectorConfig::for_run(&run))).expect("spawn fleet");
    let ids: Vec<_> = (0..2)
        .map(|i| {
            fleet
                .add_shard(ShardLabel::new(format!("m{i}"), 0))
                .expect("spawn shard")
        })
        .collect();
    for &id in &ids {
        for w in &run.windows {
            for s in &w.samples {
                fleet.push_sample(id, *s).expect("room");
            }
        }
    }
    fleet.flush().expect("fleet alive");

    let session = fleet.session().open().expect("open");
    let metrics = session.fleet_metrics().expect("open");
    // Both members corrected chunks; their per-monitor counters sum.
    let chunks = counter_value(&metrics, "service.chunks_run").expect("instrumented members");
    assert!(
        chunks >= 2,
        "two members must have corrected chunks, got {chunks}"
    );
    // The fleet's own registry rides along.
    assert_eq!(counter_value(&metrics, "fleet.agg_restarts"), Some(0));
    assert_eq!(fleet.agg_restarts(), 0);
    // The in-process fleet runs on the scrape plane: the flush's refresh
    // polled a round and published the fused snapshot.
    let totals = session.scrape_totals().expect("open");
    assert!(totals.rounds >= 1, "in-process rounds are counted");
    assert!(totals.published >= 1 && totals.published <= totals.rounds);
}

/// A scraper-backed session's subscribers get exactly one update per
/// published generation — none for rounds in which nothing changed — and
/// their streams end once the scraper is gone.
#[test]
fn scraper_backed_subscribers_get_one_update_per_generation() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let (mut scraper, sources) = metered_scraper(cat.len(), 2, |_| 0);
    let session = scraper.session(&cat);
    let mut updates = session.subscribe();
    let reader = scraper.reader();
    let mut delivered = 0;
    for round in 0..6u64 {
        if round % 2 == 1 {
            sources[0].version.fetch_add(1, Ordering::Relaxed);
        }
        let report = scraper.poll_round();
        if !report.published {
            assert!(updates.try_next().expect("open").is_none(), "round {round}");
            continue;
        }
        let snap = reader.read().expect("published");
        let update = updates.try_next().expect("open").expect("one update");
        assert_eq!(update.generation, snap.generation);
        assert_eq!(update.gap, 0);
        assert_eq!(update.shards, 2);
        assert_eq!(update.max_window, snap.max_window());
        // The session selects the whole catalog.
        assert_eq!(update.posteriors.len(), cat.len());
        for (i, (e, g)) in update.posteriors.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert_eq!(*g, snap.fused[i]);
        }
        assert!(updates.try_next().expect("open").is_none(), "exactly one");
        delivered += 1;
    }
    // The first round plus the three bumped ones; the rest acked
    // Unchanged everywhere and published nothing.
    assert_eq!(delivered, 4);
    drop(scraper);
    assert!(matches!(updates.try_next(), Err(ShimError::SessionClosed)));
}

/// The fleet side of the shared subscriber fan-out: a scraper-backed
/// subscriber with room for two updates loses the generations published
/// while it is not polling, and the next delivered update reports how
/// many it lost in `gap` — counted in generations, as a monitor's
/// subscriber counts lost windows.
#[test]
fn lossy_fleet_subscriber_gets_explicit_gap_counts() {
    fn drain(updates: &mut FleetUpdates) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| updates.try_next().expect("open"))
            .map(|u| (u.generation, u.gap))
            .collect()
    }
    let cat = Catalog::new(Arch::X86SkyLake);
    let (mut scraper, sources) = metered_scraper(cat.len(), 1, |_| 0);
    let session = scraper.session(&cat);
    let mut updates = session.subscribe_with_capacity(2);
    // One new generation per round: the source moves before each poll.
    let mut publish = |rounds: u64| {
        for _ in 0..rounds {
            sources[0].version.fetch_add(1, Ordering::Relaxed);
            assert!(scraper.poll_round().published);
        }
    };

    // Generations 1..=6 publish while the consumer sleeps: only 1 and 2
    // fit the queue.
    publish(6);
    assert_eq!(drain(&mut updates), vec![(1, 0), (2, 0)]);
    // Generations 7..=9: the first delivered one reports the four lost
    // (3..=6), and 9 overflows the queue in turn.
    publish(3);
    assert_eq!(drain(&mut updates), vec![(7, 4), (8, 0)]);
    publish(1);
    assert_eq!(drain(&mut updates), vec![(10, 1)]);
    drop(scraper);
    assert!(matches!(updates.try_next(), Err(ShimError::SessionClosed)));
}
