//! The scrape plane under fire: seeded lossy/laggy/partitioned links,
//! shard churn, death and recovery — the aggregator must keep publishing
//! a finite, never-oversharpened fused posterior through all of it.
//!
//! The 100+ shard soak runs a trimmed round count by default; set
//! `FAULT_SOAK=1` (the CI `fault-soak` leg) for the long version.

use bayesperf_core::{ShimError, SnapshotView};
use bayesperf_fleet::net::backoff_rounds;
use bayesperf_fleet::{
    fuse_gaussians, wire, FleetScraper, FleetSnapshot, HealthState, RoundReport, ScrapeConfig,
    ScrapeResponder, ShardId, ShardLabel, ShardTransport, SimTransport, SnapshotSource,
};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_obs::Stage;
use bayesperf_simcpu::{LinkProfile, LinkState};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A shard stand-in whose snapshot is a pure function of a version
/// counter: bump it and the "shard" has corrected another chunk.
struct SynthSource {
    shard: u32,
    version: AtomicU64,
    events: usize,
}

impl SynthSource {
    fn new(shard: u32, events: usize) -> Arc<SynthSource> {
        Arc::new(SynthSource {
            shard,
            version: AtomicU64::new(1),
            events,
        })
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    fn posteriors(&self, v: u64) -> Vec<Gaussian> {
        (0..self.events)
            .map(|e| {
                Gaussian::new(
                    50.0 + f64::from(self.shard) * 0.1 + e as f64 + v as f64 * 0.01,
                    0.5 + (f64::from(self.shard) % 7.0) * 0.3 + e as f64 * 0.2,
                )
            })
            .collect()
    }
}

impl SnapshotSource for SynthSource {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok((v as u32 * 6, v))
    }

    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok(SnapshotView {
            window: v as u32 * 6,
            chunk: v,
            stats: EpRunStats::default(),
            late_by_source: Vec::new(),
            posteriors: self.posteriors(v),
        })
    }
}

fn responder(
    shard: u32,
    events: usize,
) -> (Arc<SynthSource>, Arc<ScrapeResponder<Arc<SynthSource>>>) {
    let source = SynthSource::new(shard, events);
    let r = ScrapeResponder::new(
        ShardId::from_raw(shard),
        ShardLabel::new(format!("m{shard}"), shard % 2),
        Arc::clone(&source),
    );
    (source, Arc::new(r))
}

/// A transport that fails on demand — the deterministic death/recovery
/// switch (a partition whose schedule the test controls exactly).
struct SwitchedTransport<T> {
    inner: T,
    down: Arc<AtomicBool>,
}

impl<T: ShardTransport> ShardTransport for SwitchedTransport<T> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        if self.down.load(Ordering::Relaxed) {
            return Err(ShimError::LinkDown {
                what: "link partitioned",
            });
        }
        self.inner.exchange(request, deadline)
    }
}

const EVENTS: usize = 3;
const DEADLINE: Duration = Duration::from_millis(5);

/// The fused posterior must never be sharper than the all-healthy fusion
/// of the same contributing subset: inflation only widens.
fn assert_never_oversharpened(snap: &bayesperf_fleet::FleetSnapshot) {
    for e in 0..snap.fused.len() {
        let column: Vec<Gaussian> = snap.per_shard.iter().map(|p| p[e]).collect();
        let all_healthy = fuse_gaussians(&column).expect("contributors non-empty");
        assert!(
            snap.fused[e].var >= all_healthy.var * (1.0 - 1e-12),
            "event {e}: fused var {} sharper than all-healthy {}",
            snap.fused[e].var,
            all_healthy.var
        );
        assert!(snap.fused[e].var.is_finite() && snap.fused[e].var > 0.0);
        assert!(snap.fused[e].mean.is_finite());
    }
}

#[test]
fn clean_fleet_scrape_matches_direct_fusion() {
    let mut scraper = FleetScraper::new(EVENTS, ScrapeConfig::default());
    let mut sources = Vec::new();
    for shard in 0..8u32 {
        let (source, r) = responder(shard, EVENTS);
        sources.push(source);
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            ShardLabel::new(format!("m{shard}"), shard % 2),
            Box::new(SimTransport::new(
                r,
                LinkState::new(LinkProfile::clean(u64::from(shard))),
            )),
        );
    }
    let report = scraper.poll_round();
    assert!(report.published);
    assert_eq!(report.contributors, 8);
    let reader = scraper.reader();
    let snap = reader.read().expect("published");
    // The networked fusion must equal fusing the sources directly.
    for e in 0..EVENTS {
        let direct: Vec<Gaussian> = sources.iter().map(|s| s.posteriors(1)[e]).collect();
        let expected = fuse_gaussians(&direct).unwrap();
        assert_eq!(snap.fused[e].mean.to_bits(), expected.mean.to_bits());
        assert_eq!(snap.fused[e].var.to_bits(), expected.var.to_bits());
    }
    assert!(snap
        .health
        .iter()
        .all(|h| h.state == HealthState::Healthy && h.inflation == 1.0));
}

#[test]
fn lossy_hundred_shard_fleet_keeps_publishing() {
    let soak = std::env::var("FAULT_SOAK").is_ok();
    let shards: u32 = 120;
    let rounds: u64 = if soak { 500 } else { 80 };
    let mut config = ScrapeConfig {
        deadline: DEADLINE,
        ..ScrapeConfig::default()
    };
    config.jitter_seed = 0xFEED_F00D;
    let mut scraper = FleetScraper::new(EVENTS, config);
    let template = LinkProfile {
        // ≥10% frame drop plus latency spread wide enough that a 5ms
        // deadline occasionally expires: both timeout paths exercised.
        drop_prob: 0.12,
        latency_us: 2_000.0,
        latency_jitter_us: 3_500.0,
        ..LinkProfile::lossy(0xD15EA5E, 0.12)
    };
    let mut sources = Vec::new();
    for shard in 0..shards {
        let (source, r) = responder(shard, EVENTS);
        sources.push(source);
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            ShardLabel::new(format!("m{shard}"), shard % 2),
            Box::new(SimTransport::new(r, LinkState::new(template.derive(shard)))),
        );
    }
    let reader = scraper.reader();
    let mut published_rounds = 0u64;
    let mut contributor_ages = Vec::new();
    let mut last_generation = 0u64;
    for round in 0..rounds {
        // A third of the fleet progresses every round: steady churn of
        // fresh snapshots amid the faults.
        for source in sources.iter().skip((round % 3) as usize).step_by(3) {
            source.bump();
        }
        let report = scraper.poll_round();
        if report.published {
            published_rounds += 1;
        }
        let snap = reader.read().expect("a lossy fleet must still publish");
        assert!(snap.generation >= last_generation, "generation monotone");
        last_generation = snap.generation;
        assert_never_oversharpened(&snap);
        // Health rows cover the whole fleet; contributors cover the
        // non-Dead subset.
        assert_eq!(snap.health.len(), shards as usize);
        assert!(snap.shards.len() <= shards as usize);
        for h in &snap.health {
            if h.state.contributes() {
                contributor_ages.push(h.age);
            }
        }
    }
    assert_eq!(
        published_rounds, rounds,
        "with 120 shards at 12% drop, every round must find contributors"
    );
    // Staleness p99 over all (round, contributor) observations: the
    // retry + backoff machinery must keep ages tightly bounded.
    contributor_ages.sort_unstable();
    let p99 = contributor_ages[(contributor_ages.len() * 99 / 100).min(contributor_ages.len() - 1)];
    assert!(p99 <= 5, "contributor staleness p99 {p99} rounds");
}

#[test]
fn dead_shards_are_excluded_and_recover_as_healthy() {
    let config = ScrapeConfig {
        deadline: DEADLINE,
        ..ScrapeConfig::default()
    };
    let policy = config.health;
    let mut scraper = FleetScraper::new(EVENTS, config.clone());
    let down = Arc::new(AtomicBool::new(false));
    for shard in 0..3u32 {
        let (_, r) = responder(shard, EVENTS);
        let sim = SimTransport::new(r, LinkState::new(LinkProfile::clean(u64::from(shard))));
        if shard == 2 {
            scraper.add_endpoint(
                ShardId::from_raw(shard),
                ShardLabel::new("flaky".to_string(), 0),
                Box::new(SwitchedTransport {
                    inner: sim,
                    down: Arc::clone(&down),
                }),
            );
        } else {
            scraper.add_endpoint(
                ShardId::from_raw(shard),
                ShardLabel::new(format!("m{shard}"), 0),
                Box::new(sim),
            );
        }
    }
    let reader = scraper.reader();
    let flaky = ShardId::from_raw(2);
    scraper.poll_round();
    assert_eq!(
        reader.read().unwrap().shard_health(flaky).unwrap().state,
        HealthState::Healthy
    );
    // Partition the flaky shard until its cache ages past dead_after.
    down.store(true, Ordering::Relaxed);
    let mut saw_stale = false;
    for _ in 0..policy.dead_after + 2 {
        scraper.poll_round();
        let snap = reader.read().unwrap();
        let h = snap.shard_health(flaky).unwrap().clone();
        if h.state == HealthState::Stale {
            saw_stale = true;
            // Stale: still a contributor, inflated.
            assert!(snap.shards.iter().any(|s| s.shard == flaky));
            assert!(h.inflation > 1.0);
        }
        assert_never_oversharpened(&snap);
    }
    {
        // Scoped: the guard pins a cell slot; it must drop before the
        // scraper publishes again below.
        let snap = reader.read().unwrap();
        let h = snap.shard_health(flaky).unwrap();
        assert!(saw_stale, "must pass through Stale on the way down");
        assert_eq!(h.state, HealthState::Dead);
        assert!(h.link_errors > 0);
        // Dead: observable in health, absent from fusion.
        assert!(!snap.shards.iter().any(|s| s.shard == flaky));
        assert_eq!(snap.shards.len(), 2);
    }
    // Heal the link: within the backoff cap the shard must be probed
    // again and jump straight back to Healthy (and back into fusion).
    down.store(false, Ordering::Relaxed);
    let mut recovered_in = None;
    for round in 1..=u64::from(config.backoff_cap_rounds) + 2 {
        scraper.poll_round();
        let snap = reader.read().unwrap();
        if snap.shard_health(flaky).unwrap().state == HealthState::Healthy {
            recovered_in = Some(round);
            assert!(snap.shards.iter().any(|s| s.shard == flaky));
            break;
        }
    }
    let rounds = recovered_in.expect("dead shard must recover once the link heals");
    assert!(
        rounds <= u64::from(config.backoff_cap_rounds) + 1,
        "recovery took {rounds} rounds"
    );
}

#[test]
fn churn_under_faults_never_shows_torn_or_regressing_snapshots() {
    let config = ScrapeConfig {
        deadline: DEADLINE,
        ..ScrapeConfig::default()
    };
    let mut scraper = FleetScraper::new(EVENTS, config);
    let template = LinkProfile {
        latency_us: 1_500.0,
        latency_jitter_us: 2_500.0,
        ..LinkProfile::lossy(0xC0FFEE, 0.15)
    };
    let add = |scraper: &mut FleetScraper, shard: u32| {
        let (source, r) = responder(shard, EVENTS);
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            ShardLabel::new(format!("m{shard}"), shard % 2),
            Box::new(SimTransport::new(r, LinkState::new(template.derive(shard)))),
        );
        source
    };
    let mut sources = Vec::new();
    for shard in 0..12u32 {
        sources.push((shard, add(&mut scraper, shard)));
    }
    let reader = scraper.reader();
    let stop = Arc::new(AtomicBool::new(false));
    // Concurrent readers hammer the published cell during churn: every
    // observed snapshot must be internally consistent (never torn) and
    // generations must never run backwards per reader. Each observer
    // reports its first snapshot, and the churn waits for all three after
    // the first round, so every observer reads while the rest churns
    // however fast the rounds run.
    let (first_read, first_reads) = mpsc::channel();
    let observers: Vec<_> = (0..3)
        .map(|_| {
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            let first_read = first_read.clone();
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(snap) = reader.read() {
                        assert!(snap.generation >= last_generation, "generation regressed");
                        last_generation = snap.generation;
                        assert_eq!(snap.shards.len(), snap.per_shard.len(), "torn snapshot");
                        assert!(snap.health.windows(2).all(|w| w[0].shard < w[1].shard));
                        for g in &snap.fused {
                            assert!(g.var.is_finite() && g.var > 0.0 && g.mean.is_finite());
                        }
                        if observed == 0 {
                            let _ = first_read.send(());
                        }
                        observed += 1;
                    }
                    std::thread::yield_now();
                }
                observed
            })
        })
        .collect();
    drop(first_read);
    let mut next_shard = 12u32;
    for round in 0..60u64 {
        for (_, source) in sources.iter().skip((round % 2) as usize).step_by(2) {
            source.bump();
        }
        // Churn every few rounds: drop the oldest shard, add a new one.
        if round % 5 == 4 {
            let (oldest, _) = sources.remove(0);
            scraper
                .remove_endpoint(ShardId::from_raw(oldest))
                .expect("oldest endpoint registered");
            sources.push((next_shard, add(&mut scraper, next_shard)));
            next_shard += 1;
        }
        scraper.poll_round();
        let snap = reader.read().expect("published from round one");
        assert_never_oversharpened(&snap);
        // Removed shards leave the health rows entirely.
        assert_eq!(snap.health.len(), scraper.endpoints());
        if round == 0 {
            for _ in 0..3 {
                first_reads.recv().expect("every observer reads a snapshot");
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for handle in observers {
        let observed = handle.join().expect("observer must not panic");
        assert!(observed > 0, "observers must actually see snapshots");
    }
    assert_eq!(scraper.endpoints(), 12);
}

/// A well-formed snapshot whose posterior count differs from the
/// scraper's catalog is a failed exchange, not a cached contribution:
/// `poll_round` returns, the foreign shard never contributes, and once
/// it is the only endpoint left the last fused snapshot stays published.
#[test]
fn catalog_mismatched_snapshots_fail_the_exchange() {
    for served in [EVENTS - 1, EVENTS + 1] {
        let config = ScrapeConfig {
            deadline: DEADLINE,
            ..ScrapeConfig::default()
        };
        let mut scraper = FleetScraper::new(EVENTS, config);
        for (shard, events) in [(0u32, EVENTS), (1, served)] {
            let (_, r) = responder(shard, events);
            scraper.add_endpoint(
                ShardId::from_raw(shard),
                ShardLabel::new(format!("m{shard}"), 0),
                Box::new(SimTransport::new(
                    r,
                    LinkState::new(LinkProfile::clean(u64::from(shard))),
                )),
            );
        }
        let reader = scraper.reader();
        let foreign = ShardId::from_raw(1);
        for _ in 0..6 {
            let report = scraper.poll_round();
            assert!(report.published);
            assert_eq!(report.contributors, 1, "serving {served} posteriors");
            let snap = reader.read().expect("the catalog-sized shard publishes");
            assert_eq!(snap.fused.len(), EVENTS);
            assert!(snap.shards.iter().all(|s| s.shard != foreign));
            assert!(snap.shard_health(foreign).unwrap().age > 0);
        }
        assert!(
            scraper.totals().failures > 0,
            "mismatch counts as a failure"
        );

        let last = reader.read().unwrap();
        scraper.remove_endpoint(ShardId::from_raw(0)).unwrap();
        for _ in 0..6 {
            let report = scraper.poll_round();
            assert!(!report.published);
            assert_eq!(report.contributors, 0);
            let snap = reader.read().expect("the last fused snapshot stays");
            assert_eq!(snap.generation, last.generation);
            assert_eq!(snap.fused, last.fused);
        }
    }
}

#[test]
fn backoff_caps_keep_dead_endpoints_probed() {
    // The schedule invariant behind recovery: however long an endpoint
    // has been failing, consecutive skips never exceed the cap.
    let mut rng = 0xABCDu64;
    for fails in 1..1000u32 {
        assert!(backoff_rounds(fails, 8, &mut rng) <= 8);
    }
}

/// Corrupts the first byte of every response — a wire-magic hit, so
/// every exchange is a guaranteed decode failure. (The probabilistic
/// whole-buffer corruption of [`LinkProfile`] runs in the lossy soak; a
/// flipped *moment* byte can still decode to a different-but-valid
/// record, which is exactly why this test pins the header instead.)
struct HeaderCorruptor<T> {
    inner: T,
}

impl<T: ShardTransport> ShardTransport for HeaderCorruptor<T> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let mut out = self.inner.exchange(request, deadline)?;
        if let Some(byte) = out.first_mut() {
            *byte ^= 0xFF;
        }
        Ok(out)
    }
}

#[test]
fn corrupted_frames_age_health_but_never_panic() {
    // A link whose every response fails to decode: the scraper counts
    // decode errors and the endpoint decays toward Dead — without ever
    // tearing down the process or publishing garbage.
    let config = ScrapeConfig {
        deadline: DEADLINE,
        ..ScrapeConfig::default()
    };
    let policy = config.health;
    let mut scraper = FleetScraper::new(EVENTS, config.clone());
    let (_, r) = responder(0, EVENTS);
    scraper.add_endpoint(
        ShardId::from_raw(0),
        ShardLabel::new("corrupt".to_string(), 0),
        Box::new(HeaderCorruptor {
            inner: SimTransport::new(r, LinkState::new(LinkProfile::clean(0x0DDB))),
        }),
    );
    for _ in 0..policy.dead_after + 2 {
        scraper.poll_round();
    }
    let reader = scraper.reader();
    // Nothing ever decoded, so nothing was ever published — and the
    // process is still here.
    assert!(reader.read().is_none());
    // The health machinery classified the failures as decode errors.
    // (The view lives only in published snapshots, so pair the corrupt
    // endpoint with a healthy shard that keeps publication alive.)
    let mut scraper = FleetScraper::new(EVENTS, config);
    let (_, healthy) = responder(1, EVENTS);
    scraper.add_endpoint(
        ShardId::from_raw(1),
        ShardLabel::new("m1".to_string(), 0),
        Box::new(SimTransport::new(
            healthy,
            LinkState::new(LinkProfile::clean(4)),
        )),
    );
    let (_, corrupt) = responder(0, EVENTS);
    scraper.add_endpoint(
        ShardId::from_raw(0),
        ShardLabel::new("corrupt".to_string(), 0),
        Box::new(HeaderCorruptor {
            inner: SimTransport::new(corrupt, LinkState::new(LinkProfile::clean(0x0DDB))),
        }),
    );
    for _ in 0..4 {
        scraper.poll_round();
    }
    let reader = scraper.reader();
    let snap = reader.read().expect("healthy shard keeps publishing");
    let h = snap.shard_health(ShardId::from_raw(0)).unwrap();
    assert!(
        h.decode_errors > 0,
        "corruption must surface as decode errors"
    );
    assert!(h.age > 0);
    // Only the healthy shard contributes.
    assert_eq!(snap.shards.len(), 1);
    assert_eq!(snap.shards[0].shard, ShardId::from_raw(1));
}

#[test]
fn tcp_and_unix_servers_serve_real_scrapes() {
    use bayesperf_fleet::{ScrapeServer, TcpTransport, UnixTransport};
    let sock_deadline = Duration::from_secs(2);
    // TCP leg.
    let (tcp_source, _) = {
        let source = SynthSource::new(0, EVENTS);
        (Arc::clone(&source), ())
    };
    let tcp_server = ScrapeServer::bind_tcp(
        "127.0.0.1:0",
        ScrapeResponder::new(
            ShardId::from_raw(0),
            ShardLabel::new("tcp0", 0),
            Arc::clone(&tcp_source),
        ),
    )
    .expect("bind tcp");
    let addr = tcp_server.local_addr().expect("tcp server has an address");
    // Unix-domain leg.
    let unix_source = SynthSource::new(1, EVENTS);
    let path = std::env::temp_dir().join(format!("bayesperf-scrape-{}.sock", std::process::id()));
    let unix_server = ScrapeServer::bind_unix(
        &path,
        ScrapeResponder::new(
            ShardId::from_raw(1),
            ShardLabel::new("uds1", 0),
            Arc::clone(&unix_source),
        ),
    )
    .expect("bind unix");
    let mut scraper = FleetScraper::new(
        EVENTS,
        ScrapeConfig {
            deadline: sock_deadline,
            ..ScrapeConfig::default()
        },
    );
    scraper.add_endpoint(
        ShardId::from_raw(0),
        ShardLabel::new("tcp0", 0),
        Box::new(TcpTransport::new(addr)),
    );
    scraper.add_endpoint(
        ShardId::from_raw(1),
        ShardLabel::new("uds1", 0),
        Box::new(UnixTransport::new(&path)),
    );
    let reader = scraper.reader();
    let first = scraper.poll_round();
    assert_eq!(first.contributors, 2, "both socket flavors must scrape");
    assert_eq!(first.full_snapshots, 2);
    {
        let snap = reader.read().expect("published over real sockets");
        assert_eq!(snap.shards.len(), 2);
        assert_never_oversharpened(&snap);
    }
    // Steady state over sockets: unchanged acks, no re-transfer.
    let second = scraper.poll_round();
    assert_eq!(second.unchanged, 2);
    assert_eq!(second.full_snapshots, 0);
    assert!(second.bytes_received < first.bytes_received / 2);
    // Progress propagates.
    tcp_source.bump();
    let third = scraper.poll_round();
    assert_eq!(third.full_snapshots, 1);
    assert_eq!(third.unchanged, 1);
    {
        let snap = reader.read().unwrap();
        let tcp = snap.shards.iter().find(|s| s.shard == ShardId::from_raw(0));
        assert_eq!(tcp.expect("tcp shard contributes").chunk, 2);
    }
    // A server going away is a LinkDown, not a panic; health ages.
    drop(tcp_server);
    std::thread::sleep(Duration::from_millis(50));
    let after = scraper.poll_round();
    assert_eq!(after.failures, 1);
    {
        let snap = reader.read().unwrap();
        let h = snap.shard_health(ShardId::from_raw(0)).unwrap();
        assert!(h.age > 0);
    }
    drop(unix_server);
    assert!(!path.exists(), "unix server must clean up its socket file");
}

/// Records the thread that runs each exchange.
struct ThreadRecorder<T> {
    inner: T,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl<T: ShardTransport> ShardTransport for ThreadRecorder<T> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        self.threads
            .lock()
            .expect("no recorder panics holding the set")
            .insert(std::thread::current().id());
        self.inner.exchange(request, deadline)
    }
}

#[test]
fn rounds_reuse_the_same_polling_threads() {
    let concurrency = 4;
    let mut scraper = FleetScraper::new(
        EVENTS,
        ScrapeConfig {
            deadline: DEADLINE,
            concurrency,
            ..ScrapeConfig::default()
        },
    );
    let threads = Arc::new(Mutex::new(HashSet::new()));
    for shard in 0..32u32 {
        let (_, r) = responder(shard, EVENTS);
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            ShardLabel::new(format!("m{shard}"), shard % 2),
            Box::new(ThreadRecorder {
                inner: SimTransport::new(r, LinkState::new(LinkProfile::clean(u64::from(shard)))),
                threads: Arc::clone(&threads),
            }),
        );
    }
    for _ in 0..50 {
        assert_eq!(scraper.poll_round().attempted, 32);
    }
    let distinct = threads.lock().expect("rounds are over").len();
    assert!(
        distinct <= concurrency,
        "50 rounds at concurrency {concurrency} polled on {distinct} threads"
    );
}

/// Logs the window of every exchange the scraper accepts: an `Unchanged`
/// ack, or a snapshot from this shard with a catalog-sized posterior.
/// (The links corrupt frames, so a response can fail to decode or decode
/// to another shard's record; the scraper retries those.)
struct WindowLog<T> {
    inner: T,
    shard: ShardId,
    carried: Carried,
}

/// The windows of the accepted exchanges, shared by a fleet's loggers.
type Carried = Arc<Mutex<Vec<u32>>>;

impl<T: ShardTransport> ShardTransport for WindowLog<T> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let response = self.inner.exchange(request, deadline)?;
        let window = match wire::decode_response(&response) {
            Ok((wire::ScrapeResponse::Unchanged { window, .. }, _)) => Some(window),
            Ok((wire::ScrapeResponse::Snapshot(snap), _))
                if snap.shard == self.shard && snap.posteriors.len() == EVENTS =>
            {
                Some(snap.window)
            }
            _ => None,
        };
        if let Some(window) = window {
            self.carried
                .lock()
                .expect("no logger panics holding the log")
                .push(window);
        }
        Ok(response)
    }
}

/// A 32-shard fleet over 10%-drop links seeded per shard, polled on
/// `concurrency` threads, logging the window of every accepted exchange.
fn lossy_fleet(concurrency: usize) -> (FleetScraper, Vec<Arc<SynthSource>>, Carried) {
    let mut scraper = FleetScraper::new(
        EVENTS,
        ScrapeConfig {
            deadline: DEADLINE,
            concurrency,
            ..ScrapeConfig::default()
        },
    );
    let template = LinkProfile::lossy(0x5CA1E, 0.10);
    let carried = Arc::new(Mutex::new(Vec::new()));
    let mut sources = Vec::new();
    for shard in 0..32u32 {
        let (source, r) = responder(shard, EVENTS);
        sources.push(source);
        let id = ShardId::from_raw(shard);
        scraper.add_endpoint(
            id,
            ShardLabel::new(format!("m{shard}"), shard % 2),
            Box::new(WindowLog {
                inner: SimTransport::new(r, LinkState::new(template.derive(shard))),
                shard: id,
                carried: Arc::clone(&carried),
            }),
        );
    }
    (scraper, sources, carried)
}

/// Runs one round and checks that each exchange the scraper accepted left
/// exactly one `Stage::Scrape` span, tagged with the window it carried.
fn round_with_spans(scraper: &mut FleetScraper, carried: &Mutex<Vec<u32>>) -> RoundReport {
    let tracer = scraper.telemetry().spans().clone();
    let start = tracer.now_ns();
    let report = scraper.poll_round();
    let mut spans: Vec<u32> = tracer
        .records()
        .iter()
        .filter(|s| s.stage == Stage::Scrape && s.start_ns >= start)
        .map(|s| s.window)
        .collect();
    spans.sort_unstable();
    let mut windows = std::mem::take(&mut *carried.lock().expect("the round is over"));
    windows.sort_unstable();
    assert_eq!(spans, windows, "round {}", report.round);
    assert_eq!(spans.len(), report.full_snapshots + report.unchanged);
    report
}

fn moment_bits(posteriors: &[Gaussian]) -> Vec<(u64, u64)> {
    posteriors
        .iter()
        .map(|g| (g.mean.to_bits(), g.var.to_bits()))
        .collect()
}

fn assert_same_snapshot(inline: &FleetSnapshot, pooled: &FleetSnapshot) {
    assert_eq!(inline.generation, pooled.generation);
    assert_eq!(inline.shards, pooled.shards);
    assert_eq!(moment_bits(&inline.fused), moment_bits(&pooled.fused));
    assert_eq!(inline.per_shard.len(), pooled.per_shard.len());
    for (a, b) in inline.per_shard.iter().zip(&pooled.per_shard) {
        assert_eq!(moment_bits(a), moment_bits(b));
    }
    assert_eq!(inline.health.len(), pooled.health.len());
    for (a, b) in inline.health.iter().zip(&pooled.health) {
        assert_eq!(a, b);
        assert_eq!(a.inflation.to_bits(), b.inflation.to_bits());
    }
}

#[test]
fn pooled_rounds_equal_inline_rounds_bit_for_bit() {
    let (mut inline, inline_sources, inline_carried) = lossy_fleet(1);
    let (mut pooled, pooled_sources, pooled_carried) = lossy_fleet(8);
    let (inline_reader, pooled_reader) = (inline.reader(), pooled.reader());
    let mut published = 0;
    for round in 1..=200u64 {
        for (shard, (a, b)) in inline_sources.iter().zip(&pooled_sources).enumerate() {
            if round % (1 + shard as u64 % 4) == 0 {
                a.bump();
                b.bump();
            }
        }
        let report = round_with_spans(&mut inline, &inline_carried);
        assert_eq!(
            report,
            round_with_spans(&mut pooled, &pooled_carried),
            "round {round}"
        );
        if report.published {
            published += 1;
        }
        assert_same_snapshot(
            &inline_reader.read().expect("published from round one"),
            &pooled_reader.read().expect("published from round one"),
        );
    }
    assert!(published > 100, "only {published} of 200 rounds published");
    assert!(
        inline.totals().failures > 0,
        "the links must drop exchanges"
    );
}

/// Panics on its third exchange, once.
struct PanicsOnThirdExchange<T> {
    inner: T,
    shard: u32,
    exchanges: u32,
}

impl<T: ShardTransport> ShardTransport for PanicsOnThirdExchange<T> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        self.exchanges += 1;
        if self.exchanges == 3 {
            panic!("shard {} transport fault on exchange 3", self.shard);
        }
        self.inner.exchange(request, deadline)
    }
}

#[test]
fn a_polling_panic_reaches_the_caller_and_keeps_every_endpoint() {
    // Shard 1 sits in the caller's chunk, shard 20 in a polling thread's
    // (32 endpoints at the default concurrency of 8 make chunks of 4).
    for faulty in [1u32, 20] {
        let mut scraper = FleetScraper::new(
            EVENTS,
            ScrapeConfig {
                deadline: DEADLINE,
                ..ScrapeConfig::default()
            },
        );
        let mut sources = Vec::new();
        for shard in 0..32u32 {
            let (source, r) = responder(shard, EVENTS);
            sources.push(source);
            let sim = SimTransport::new(r, LinkState::new(LinkProfile::clean(u64::from(shard))));
            let transport: Box<dyn ShardTransport> = if shard == faulty {
                Box::new(PanicsOnThirdExchange {
                    inner: sim,
                    shard,
                    exchanges: 0,
                })
            } else {
                Box::new(sim)
            };
            scraper.add_endpoint(
                ShardId::from_raw(shard),
                ShardLabel::new(format!("m{shard}"), shard % 2),
                transport,
            );
        }
        let mut round = || {
            for source in &sources {
                source.bump();
            }
            scraper.poll_round()
        };
        for _ in 0..2 {
            assert!(round().published);
        }
        let payload = catch_unwind(AssertUnwindSafe(&mut round))
            .expect_err("the third exchange panics the round");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("a panic message");
        assert_eq!(
            message,
            format!("shard {faulty} transport fault on exchange 3")
        );
        let report = round();
        assert_eq!(report.attempted, 32);
        assert!(report.published);
        assert_eq!(scraper.endpoints(), 32);
        let reader = scraper.reader();
        let snap = reader.read().expect("published");
        assert_eq!(snap.shards.len(), 32);
        assert!(snap
            .shards
            .iter()
            .any(|s| s.shard == ShardId::from_raw(faulty)));
    }
}
