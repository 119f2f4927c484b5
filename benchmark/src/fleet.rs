//! `fleet_scrape`: the scrape plane with no inference work. One
//! `FleetScraper` (2 polling threads, 5 ms deadline) polls 32 endpoints
//! back to back. Each endpoint is a benchmark-side `SnapshotSource` behind
//! a virtual-clock `SimTransport`, serving per-window posteriors around
//! its `ShardProfile`-derived truth. Shard `i` publishes a new window
//! every `1 + i mod 4` rounds, so each round mixes full snapshots with
//! `Unchanged` acks; shards 24..32 ride lossy links (10% drops, latency
//! jitter past the deadline). A `FleetSession` is read between rounds.

use crate::measure::{self, quantile, ratio, HostSpeed, Metrics};
use crate::monitor::Jobs;
use crate::score::{floor_of, Score};
use crate::stream::derived_event_hpcs;
use crate::{Args, Outcome};
use bayesperf_core::{ShimError, SnapshotView};
use bayesperf_events::{Arch, Catalog, EventId};
use bayesperf_fleet::{
    wire, Aggregator, FleetScraper, FleetSession, HealthState, ScrapeConfig, ScrapeResponder,
    ShardHealthView, ShardId, ShardLabel, SimTransport, SnapshotSource,
};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_simcpu::{
    CorrelatedTruth, GroundTruth, LinkProfile, LinkState, PmuConfig, ShardProfile,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 32;
/// Shards from this index on ride lossy links.
const LOSSY_FROM: usize = 24;
/// Distinct windows per shard; later windows repeat the cycle.
const CYCLE: usize = 512;
/// Windows per KMeans job within the cycle.
const WINDOWS_PER_JOB: usize = 32;
/// Relative posterior spread each endpoint serves.
const REL_SD: f64 = 0.03;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: u64 = 9000;
/// Scraper set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Rounds between shard `i`'s publications.
fn cadence(shard: usize) -> u64 {
    1 + shard as u64 % 4
}

/// One simulated shard: the window it currently serves, and a cycle of
/// precomputed posteriors and truths.
struct Feed {
    /// Written by the driving thread between rounds only; the scrape
    /// workers that read it are spawned afterwards.
    window: AtomicU32,
    /// Per cycle window, catalog-indexed.
    posteriors: Vec<Vec<Gaussian>>,
    /// Per cycle window, the truth of each scored event.
    truth: Vec<Vec<f64>>,
    /// Per scored event, the error denominator floor.
    floors: Vec<f64>,
}

impl SnapshotSource for Feed {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        let w = self.window.load(Relaxed);
        Ok((w, u64::from(w) + 1))
    }

    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        let w = self.window.load(Relaxed);
        Ok(SnapshotView {
            window: w,
            chunk: u64::from(w) + 1,
            stats: EpRunStats::default(),
            posteriors: self.posteriors[w as usize % CYCLE].clone(),
            late_by_source: Vec::new(),
        })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A standard normal draw (Box–Muller).
fn normal(state: &mut u64) -> f64 {
    let u1 = ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let u2 = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Builds every shard's cycle: per-window truth counts of back-to-back
/// KMeans jobs seen through the shard's `ShardProfile`, and a posterior
/// around each with a `REL_SD` relative spread.
fn feeds(catalog: &Catalog, events: &[EventId], seed: u64) -> Vec<Arc<Feed>> {
    let pmu = PmuConfig::for_catalog(catalog);
    (0..SHARDS)
        .map(|i| {
            let profile = ShardProfile::derive(seed, i as u32);
            let jobs = Jobs::new(
                &bayesperf_workloads::kmeans(),
                catalog,
                seed,
                CYCLE / WINDOWS_PER_JOB,
                (WINDOWS_PER_JOB as u64) * pmu.quantum_ticks,
            );
            let mut truth = CorrelatedTruth::new(jobs, profile);
            let mut rng = profile.seed ^ 0x5eed_f1ee_7000_0000;
            let mut rates = vec![0.0; catalog.len()];
            let mut feed = Feed {
                window: AtomicU32::new(0),
                posteriors: Vec::with_capacity(CYCLE),
                truth: Vec::with_capacity(CYCLE),
                floors: Vec::new(),
            };
            for w in 0..CYCLE as u64 {
                let mut counts = vec![0.0; catalog.len()];
                for t in 0..pmu.quantum_ticks {
                    truth.rates_at(w * pmu.quantum_ticks + t, &mut rates);
                    for (c, r) in counts.iter_mut().zip(&rates) {
                        *c += r * pmu.cycles_per_tick / 1e6;
                    }
                }
                feed.posteriors.push(
                    counts
                        .iter()
                        .map(|&c| {
                            let sd = (REL_SD * c.abs()).max(1e-3);
                            Gaussian::new(c + sd * normal(&mut rng), sd * sd)
                        })
                        .collect(),
                );
                feed.truth
                    .push(events.iter().map(|e| counts[e.index()]).collect());
            }
            feed.floors = (0..events.len())
                .map(|j| floor_of(&feed.truth.iter().map(|t| t[j]).collect::<Vec<_>>()))
                .collect();
            Arc::new(feed)
        })
        .collect()
}

fn label(shard: usize) -> ShardLabel {
    ShardLabel::new(format!("m{shard}"), (shard % 2) as u32)
}

/// Builds the system under test — the scraper and its 32 endpoints — and
/// runs the first round. Returns the scraper and the seconds it took.
fn setup(catalog: &Catalog, feeds: &[Arc<Feed>], seed: u64) -> (FleetScraper, f64) {
    for feed in feeds {
        feed.window.store(0, Relaxed);
    }
    let start = Instant::now();
    let mut scraper = FleetScraper::new(
        catalog.len(),
        ScrapeConfig {
            deadline: Duration::from_millis(5),
            concurrency: 2,
            jitter_seed: seed,
            ..ScrapeConfig::default()
        },
    );
    let clean = LinkProfile::clean(seed);
    let lossy = LinkProfile {
        corrupt_prob: 0.0,
        latency_us: 3_500.0,
        latency_jitter_us: 2_500.0,
        ..LinkProfile::lossy(seed ^ 0x1055, 0.10)
    };
    for (i, feed) in feeds.iter().enumerate() {
        let id = ShardId::from_raw(i as u32);
        let responder = Arc::new(ScrapeResponder::new(id, label(i), Arc::clone(feed)));
        let link = if i >= LOSSY_FROM { &lossy } else { &clean };
        scraper.add_endpoint(
            id,
            label(i),
            Box::new(SimTransport::new(
                responder,
                LinkState::new(link.derive(i as u32)),
            )),
        );
    }
    scraper.poll_round();
    (scraper, start.elapsed().as_secs_f64())
}

/// What one pass of rounds measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    rounds: u64,
    round_us: Vec<f64>,
    /// Per shard publication: publication → the fused snapshot showing it.
    visible_ms: Vec<f64>,
    read_ns: Vec<f64>,
    reads: u64,
    cpu_ns: f64,
    wall_s: f64,
    score: Score,
    /// Per round, the oldest non-Dead endpoint's health age.
    stale_age: Vec<f64>,
    transitions: u64,
    dead: u64,
    attempted: u64,
    full: u64,
    unchanged: u64,
    skipped: u64,
    failures: u64,
    bytes: u64,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    full_bytes: Vec<f64>,
    fuse_ns: Vec<f64>,
    failed_rounds: u64,
    failed_reads: u64,
    errors: Vec<String>,
    /// [`HostSpeed::factor`] over the pass.
    speed: f64,
}

fn run_pass(
    catalog: &Catalog,
    events: &[EventId],
    feeds: &[Arc<Feed>],
    args: &Args,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (scraper, secs) = setup(catalog, feeds, args.seed);
        times.push(secs);
        built = Some(scraper);
    }
    let mut scraper = built.expect("at least one set-up ran");
    pass.setup_s = quantile(&times, 0.5);

    let session = scraper.session(catalog);
    let reader = scraper.reader();
    let mut agg = Aggregator::new(catalog.len());
    let mut buf = Vec::new();
    let mut pending: Vec<VecDeque<(u32, Instant)>> = vec![VecDeque::new(); SHARDS];
    let mut states = [HealthState::Healthy; SHARDS];
    let mut errs = vec![vec![0.0; events.len()]; SHARDS];
    let mut scored = vec![0u64; SHARDS];
    let (mut covered, mut pairs) = (0u64, 0u64);
    let mut last_generation = reader.read().map_or(0, |s| s.generation);
    let mut speed = HostSpeed::new();
    pass.rounds = args.seconds * ROUNDS_PER_SECOND;
    let cpu_start = measure::process_cpu_ns();
    let start = Instant::now();
    for round in 1..=pass.rounds {
        let window = round as u32;
        let now = Instant::now();
        let mut advanced = Vec::new();
        for (i, feed) in feeds.iter().enumerate() {
            if round % cadence(i) == 0 {
                feed.window.store(window, Relaxed);
                pending[i].push_back((window, now));
                advanced.push(i);
            }
        }
        let polled = Instant::now();
        let report = scraper.poll_round();
        pass.round_us.push(polled.elapsed().as_secs_f64() * 1e6);
        pass.attempted += report.attempted as u64;
        pass.full += report.full_snapshots as u64;
        pass.unchanged += report.unchanged as u64;
        pass.skipped += report.skipped as u64;
        pass.failures += report.failures as u64;
        pass.dead += report.dead as u64;
        pass.bytes += report.bytes_sent + report.bytes_received;
        let Some(snap) = reader.read().filter(|_| report.published) else {
            pass.failed_rounds += 1;
            continue;
        };
        if snap.generation <= last_generation {
            pass.failed_rounds += 1;
            pass.errors.push(format!(
                "generation {} after {last_generation}",
                snap.generation
            ));
        }
        last_generation = snap.generation;
        let seen = Instant::now();
        for (status, posteriors) in snap.shards.iter().zip(&snap.per_shard) {
            let i = status.shard.raw() as usize;
            while let Some(&(w, at)) = pending[i].front() {
                if w > status.window {
                    break;
                }
                pass.visible_ms.push(measure::ms(seen - at));
                pending[i].pop_front();
            }
            // The reader's view of shard i against its live truth: a
            // shard between publications, or behind a failing link,
            // shows an older window.
            let feed = &feeds[i];
            let live = &feed.truth[round as usize % CYCLE];
            for (j, ev) in events.iter().enumerate() {
                let g = posteriors[ev.index()];
                if !(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0) {
                    pass.errors.push(format!("shard {i}: non-finite posterior"));
                }
                let miss = (g.mean - live[j]).abs();
                errs[i][j] += miss / live[j].abs().max(feed.floors[j]);
                covered += u64::from(miss <= 1.96 * g.std_dev());
                pairs += 1;
            }
            scored[i] += 1;
        }
        let mut oldest = 0;
        for h in &snap.health {
            let i = h.shard.raw() as usize;
            if h.state != HealthState::Dead {
                oldest = oldest.max(h.age);
            }
            if h.state != states[i] {
                pass.transitions += 1;
                states[i] = h.state;
            }
        }
        pass.stale_age.push(f64::from(oldest));
        if traced {
            // The aggregator's absorb-and-fuse over this round's inputs.
            let fuse_start = Instant::now();
            agg.begin();
            for (status, posteriors) in snap.shards.iter().zip(&snap.per_shard) {
                let health = snap
                    .shard_health(status.shard)
                    .cloned()
                    .unwrap_or_else(|| ShardHealthView::healthy(status.shard));
                if let Err(e) = agg.absorb_shard(status.clone(), health, posteriors) {
                    pass.errors.push(format!("absorb: {e}"));
                }
            }
            black_box(agg.fuse(snap.generation).is_ok());
            pass.fuse_ns.push(measure::ns(fuse_start.elapsed()));
            // The wire round trip of each snapshot published this round.
            for &i in &advanced {
                let view = feeds[i].source_view().expect("feeds always serve");
                buf.clear();
                let t = Instant::now();
                wire::encode_shard_view(ShardId::from_raw(i as u32), &label(i), &view, &mut buf);
                pass.encode_ns.push(measure::ns(t.elapsed()));
                let t = Instant::now();
                let decoded = wire::decode_shard(&buf);
                pass.decode_ns.push(measure::ns(t.elapsed()));
                if decoded.is_err() {
                    pass.errors
                        .push(format!("shard {i}: own encoding failed to decode"));
                }
                pass.full_bytes.push(buf.len() as f64);
            }
        }
        drop(snap);
        read(&session, events[0], traced, &mut pass);
        speed.sample();
    }
    let end = Instant::now();
    pass.wall_s = (end - start).as_secs_f64();
    pass.speed = speed.factor();
    match (cpu_start, measure::process_cpu_ns()) {
        (Some(a), Some(b)) => pass.cpu_ns = b.saturating_sub(a) as f64,
        _ => pass.errors.push("process CPU time unreadable".into()),
    }
    for (i, shard) in errs.iter().enumerate() {
        for e in shard {
            pass.score.add_err(e / scored[i].max(1) as f64);
        }
    }
    pass.score.add_coverage(covered, pairs);
    pass
}

/// Times `FleetSession::read` of `event`: a batch mean untraced, single
/// reads traced.
fn read(session: &FleetSession, event: EventId, traced: bool, pass: &mut Pass) {
    pass.failed_reads += measure::time_reads(traced, &mut pass.read_ns, || {
        black_box(session.read(event)).is_err()
    });
    pass.reads += measure::READ_BATCH as u64;
}

/// End-to-end metrics, times at nominal host speed.
fn end_to_end(pass: &Pass, m: &mut Metrics) {
    let delivered = pass.visible_ms.len() as f64;
    let f = pass.speed;
    let visible = (
        quantile(&pass.visible_ms, 0.5),
        quantile(&pass.visible_ms, 0.9),
    );
    let (read, cpu) = (
        quantile(&pass.read_ns, 0.5),
        ratio(pass.cpu_ns / 1e6, delivered),
    );
    let rate = ratio(delivered, pass.wall_s);
    eprintln!(
        "as measured: visible p50 {:.6} ms, p90 {:.6} ms, read p50 {read:.3} ns, \
         cpu {cpu:.7} ms/window, {rate:.1} windows/s; host speed factor {f:.3}",
        visible.0, visible.1
    );
    m.insert("setup_s", pass.setup_s / f);
    m.insert("visible_ms_p50", visible.0 / f);
    m.insert("visible_ms_p90", visible.1 / f);
    m.insert("read_ns_p50", read / f);
    m.insert("cpu_ms_per_window", cpu / f);
    m.insert("windows_per_s", rate * f);
    m.insert("err_pct", pass.score.err_pct());
    m.insert("coverage95_gap", pass.score.coverage95_gap());
}

fn layers(pass: &Pass, m: &mut Metrics) {
    let rounds = pass.rounds as f64;
    let per_round = |v: u64| ratio(v as f64, rounds);
    m.insert("net.round_us_p50", quantile(&pass.round_us, 0.5));
    m.insert("net.round_us_p90", quantile(&pass.round_us, 0.9));
    m.insert(
        "net.kib_per_round",
        ratio(pass.bytes as f64 / 1024.0, rounds),
    );
    m.insert("net.attempted_per_round", per_round(pass.attempted));
    m.insert("net.full_per_round", per_round(pass.full));
    m.insert("net.unchanged_per_round", per_round(pass.unchanged));
    m.insert("net.skipped_per_round", per_round(pass.skipped));
    m.insert("net.failures_per_round", per_round(pass.failures));
    m.insert("health.dead_per_round", per_round(pass.dead));
    m.insert("health.transitions", pass.transitions as f64);
    m.insert("health.stale_age_mean", measure::mean(&pass.stale_age));
    m.insert("wire.encode_ns_per_shard", measure::mean(&pass.encode_ns));
    m.insert("wire.decode_ns_per_shard", measure::mean(&pass.decode_ns));
    m.insert("wire.full_bytes_per_shard", measure::mean(&pass.full_bytes));
    m.insert("fuse.ns_per_round", measure::mean(&pass.fuse_ns));
    m.insert("snapshot.read_ns_p99", quantile(&pass.read_ns, 0.99));
}

/// Folds a pass's checks into the outcome.
fn check(pass: &Pass, out: &mut Outcome) {
    out.attempted += pass.rounds + pass.reads;
    if pass.failed_rounds > 0 {
        out.fail(
            pass.failed_rounds,
            format!(
                "{} rounds did not publish a newer generation",
                pass.failed_rounds
            ),
        );
    }
    if pass.failed_reads > 0 {
        out.fail(
            pass.failed_reads,
            format!("{} FleetSession::read calls failed", pass.failed_reads),
        );
    }
    if let Some(first) = pass.errors.first() {
        out.fail(0, format!("{} errors, first: {first}", pass.errors.len()));
    }
}

pub fn run(args: &Args) -> Outcome {
    let catalog = Catalog::new(Arch::X86SkyLake);
    let events = derived_event_hpcs(&catalog);
    let feeds = feeds(&catalog, &events, args.seed);
    let mut out = Outcome::default();
    let plain = run_pass(&catalog, &events, &feeds, args, false);
    check(&plain, &mut out);
    end_to_end(&plain, &mut out.end_to_end);
    if args.trace {
        let traced = run_pass(&catalog, &events, &feeds, args, true);
        check(&traced, &mut out);
        let same = |p: &Pass| (p.score.err_pct(), p.score.coverage95_gap());
        if same(&traced) != same(&plain) {
            out.fail(
                traced.rounds,
                "err_pct or coverage95_gap differ between traced and untraced passes".into(),
            );
        }
        let mut m = Metrics::new();
        end_to_end(&traced, &mut m);
        layers(&traced, &mut m);
        m.insert(
            "trace.overhead_pct",
            100.0 * (out.end_to_end["windows_per_s"] / m["windows_per_s"] - 1.0),
        );
        out.layers = m;
    }
    out
}
