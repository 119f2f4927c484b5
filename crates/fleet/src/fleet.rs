//! The fleet service: sharded monitors, a lock-free ingest router, a
//! scrape ticker fusing their posteriors, and fleet-scoped read sessions.
//!
//! ```text
//!  producers                    Fleet                        readers
//!  ─────────                    ─────                        ───────
//!  push_sample(shard, s) ─▶ router (membership      FleetSession::read
//!                           snapshot cell, no        FleetSession::read_group
//!                           cross-shard locks)       FleetSession::read_derived
//!                              │                     FleetSession::subscribe
//!                              ▼                            ▲
//!                    shard 0 │ shard 1 │ … │ shard N        │ lock-free
//!                    Monitor │ Monitor │   │ Monitor        │ fused cell
//!                       │        │            │             │
//!                       ▼        ▼            ▼             │
//!                    ticker thread: FleetScraper::poll_round┘
//!                    over in-process transports → health
//!                    → precision-weighted fusion → publish
//! ```
//!
//! Each shard is a full [`Monitor`] (its own sample ring and inference
//! thread), so ingest fans out with **no cross-shard locking**: the
//! router resolves `ShardId → Monitor` through a read of the membership
//! snapshot cell (lock-free, wait-free for readers) and then touches only
//! that shard's ring. Shard churn republishes membership through the same
//! cell, so adding or draining machines never stalls producers on other
//! shards.
//!
//! Aggregation is the networked scrape plane's own: the fleet's ticker
//! thread owns a [`FleetScraper`] whose endpoints are the local shard
//! monitors, each behind an in-process transport that answers through
//! the shard's [`ScrapeResponder`] with no socket in between. Deltas,
//! health ageing, transition telemetry and fusion therefore exist once,
//! in [`crate::net`]; the published [`FleetSnapshot`] lands in a snapshot
//! cell, so fleet-level reads are exactly as wait-free as single-session
//! reads at any shard count. The read surface itself is the core one: a
//! [`FleetSession`] opens through [`SessionBuilder`], checks access
//! through [`Selection`], and subscribes through the core
//! [`Subscribers`] fan-out to an [`Updates`] stream — it keeps only its
//! liveness check, its snapshot type and its metadata.
//!
//! Before answering, the transport probes the shard monitor's liveness:
//! a [`ServiceState::Failed`] monitor is a dead link, and one restarting —
//! or stalled, its heartbeat frozen while not idle and its snapshot
//! unmoved — misses the round. A hung or crashed local inference thread
//! therefore ages through the same Healthy → Degraded → Stale → Dead
//! machine ([`crate::health`]) a dead *remote* shard goes through,
//! instead of pinning its last posterior in the fleet forever.
//!
//! The ticker runs under the same [`SupervisorPolicy::supervise`] loop as
//! each shard's inference thread: a panic is contained and the ticker
//! restarts after a short backoff, keeping its scraper — endpoint health,
//! cached contributions and the generation counter carry over — and a
//! crash loop gives up after a bounded number of attempts.

// The ISSUE-7 robustness audit: this file's non-test code must report
// failures as typed errors, never panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::fuse::FleetSnapshot;
use crate::health::HealthPolicy;
use crate::net::{
    FleetScraper, ScrapeConfig, ScrapeMetrics, ScrapeResponder, ScrapeTotals, ShardTransport,
};
use crate::topology::{ShardId, ShardLabel};
use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::service::UPDATE_QUEUE_CAP;
use bayesperf_core::snapshot::{snapshot_cell, SnapshotReader, SnapshotWriter};
use bayesperf_core::{
    derived_reading, Monitor, Reading, Selection, ServiceState, Session, SessionBuilder,
    SessionTarget, ShimError, Subscribers, Supervised, SupervisorPolicy, Updates,
};
use bayesperf_events::{Catalog, EventId};
use bayesperf_inference::Gaussian;
use bayesperf_obs::{merge_metrics, Counter, FlightEvent, MetricSnapshot, Telemetry};
use bayesperf_simcpu::Sample;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Restart policy of the fleet's ticker thread: a flat 2 ms backoff (the
/// ticker keeps its scraper across restarts, so there is no per-crash
/// state worth an exponential schedule).
const TICKER_POLICY: SupervisorPolicy = SupervisorPolicy {
    max_consecutive_restarts: 8,
    backoff_base: Duration::from_millis(2),
    backoff_cap: Duration::from_millis(2),
};

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Corrector configuration every shard's monitor runs with.
    pub corrector: CorrectorConfig,
    /// Per-shard kernel↔shim ring capacity.
    pub ring_capacity: usize,
    /// How often the ticker re-scrapes shard snapshots when idle
    /// (scrapes also happen on every [`Fleet::sync`]/[`Fleet::flush`]).
    pub scrape_interval: Duration,
    /// Staleness thresholds for the local liveness watchdog: a hung or
    /// crashed shard monitor ages through this policy's Healthy →
    /// Degraded → Stale → Dead machine, one round per scrape round.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// Defaults: 16Ki-sample rings, 200µs scrape cadence, default
    /// [`HealthPolicy`] staleness thresholds.
    pub fn new(corrector: CorrectorConfig) -> FleetConfig {
        FleetConfig {
            corrector,
            ring_capacity: 1 << 14,
            scrape_interval: Duration::from_micros(200),
            health: HealthPolicy::default(),
        }
    }
}

/// In-process scrape settings: each round polls every local shard once,
/// inline on the ticker thread — no retries and no backoff cooldown, so
/// every round ages a shard by exactly one health round.
fn local_scrape_config(health: HealthPolicy) -> ScrapeConfig {
    ScrapeConfig {
        retries: 0,
        backoff_cap_rounds: 0,
        concurrency: 1,
        health,
        ..ScrapeConfig::default()
    }
}

/// One live shard: a monitor plus the always-all-events session its
/// scrape endpoint answers from.
struct ShardMember {
    id: ShardId,
    label: ShardLabel,
    monitor: Monitor,
    responder: ScrapeResponder<Session>,
}

impl ShardMember {
    fn session(&self) -> &Session {
        self.responder.source()
    }
}

/// The membership view the router reads: shards in insertion order.
/// Published through a snapshot cell so lookups are lock-free and churn
/// never blocks producers.
type Membership = Vec<Arc<ShardMember>>;

/// The in-process transport behind a local shard's scrape endpoint: a
/// liveness probe of the shard's monitor, then the member's
/// [`ScrapeResponder`] answering the request directly. It holds the
/// member weakly, so removing a shard still drops its monitor on the
/// caller's thread.
struct LocalTransport {
    member: Weak<ShardMember>,
    /// Heartbeat and snapshot stamp the previous probe saw.
    last_beats: u64,
    last_stamp: Option<(u32, u64)>,
}

impl LocalTransport {
    fn new(member: &Arc<ShardMember>) -> LocalTransport {
        LocalTransport {
            member: Arc::downgrade(member),
            last_beats: 0,
            last_stamp: None,
        }
    }

    /// The scrape's liveness gate: a failed monitor is a dead link; one
    /// mid-restart — or stalled, not idle yet neither its heartbeat nor
    /// its snapshot advanced since the previous probe — misses the round.
    fn probe(&mut self, member: &ShardMember) -> Result<(), ShimError> {
        let (beats, idle) = member.monitor.heartbeat();
        let stamp = member.session().snapshot_stamp().ok();
        // A heartbeat, or a snapshot stamp, that moved since the previous
        // probe is liveness proof; the stamp is definitive (the service
        // *published*) even when a long tail correction held `idle`
        // false with `beats` frozen. A monitor caught up by a sync or
        // flush reads idle from its ack on, so the round a barrier forces
        // always reaches it.
        let progressed = beats != self.last_beats || (stamp.is_some() && stamp != self.last_stamp);
        self.last_beats = beats;
        if stamp.is_some() {
            self.last_stamp = stamp;
        }
        match member.monitor.service_state() {
            // A permanently down service cannot refresh its snapshot
            // again; classify it like a dead link.
            ServiceState::Failed { .. } => Err(ShimError::LinkDown {
                what: "shard monitor failed",
            }),
            ServiceState::Running if idle || progressed => Ok(()),
            // Stalled, mid-restart (this round's snapshot is a cached
            // copy), or a future state of the non-exhaustive enum:
            // conservatively a missed round.
            _ => Err(ShimError::ScrapeTimeout),
        }
    }
}

impl ShardTransport for LocalTransport {
    fn exchange(&mut self, request: &[u8], _deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let member = self.member.upgrade().ok_or(ShimError::LinkDown {
            what: "shard removed",
        })?;
        self.probe(&member)?;
        let mut response = Vec::new();
        member.responder.respond_frame(request, &mut response)?;
        Ok(response)
    }
}

/// Per-generation update streamed to [`FleetSession::subscribe`]rs.
#[derive(Debug, Clone)]
pub struct FleetUpdate {
    /// Aggregation pass that produced this update.
    pub generation: u64,
    /// Generations this subscriber lost immediately before this update
    /// (bounded-queue overflow), `0` when none.
    pub gap: u64,
    /// The fleet frontier: most advanced corrected window of any shard.
    pub max_window: u32,
    /// Contributing shards.
    pub shards: usize,
    /// Fused posteriors of the subscribing session's selected events.
    pub posteriors: Vec<(EventId, Gaussian)>,
}

/// A consistent fleet-level multi-event read (all readings from one fused
/// snapshot).
#[derive(Debug, Clone)]
pub struct FleetGroupReading {
    /// Aggregation pass of the snapshot.
    pub generation: u64,
    /// Most advanced corrected window of any contributing shard.
    pub max_window: u32,
    /// Contributing shards.
    pub shards: usize,
    /// Fused readings of the selected events, in catalog order.
    pub readings: Vec<(EventId, Reading)>,
}

/// State shared between a scraper's published fleet view and its
/// sessions — and, for an in-process [`Fleet`], its routers.
struct FleetShared {
    catalog: Arc<Catalog>,
    /// The in-process shards; never published for scraper-backed
    /// sessions.
    members: SnapshotReader<Membership>,
    fused: SnapshotReader<FleetSnapshot>,
    subscribers: Arc<Subscribers<FleetUpdate>>,
    closed: AtomicBool,
    /// The scraper's telemetry plane (registry + spans + flight recorder).
    tele: Telemetry,
    /// The scraper's live scrape-plane counter handles.
    scrape_metrics: ScrapeMetrics,
    /// Last wire-scraped shard metric dump (scraper-backed sessions);
    /// stays empty for in-process fleets, which merge the live per-shard
    /// registries instead.
    scraped: Arc<Mutex<Vec<MetricSnapshot>>>,
}

impl FleetShared {
    fn new(
        catalog: Arc<Catalog>,
        members: SnapshotReader<Membership>,
        scraper: &FleetScraper,
    ) -> FleetShared {
        FleetShared {
            catalog,
            members,
            fused: scraper.reader(),
            subscribers: Arc::clone(&scraper.subscribers),
            closed: AtomicBool::new(false),
            tele: scraper.telemetry().clone(),
            scrape_metrics: scraper.metrics.clone(),
            scraped: Arc::clone(&scraper.scraped),
        }
    }

    /// Resolves a shard id through the membership cell (lock-free).
    fn member(&self, shard: ShardId) -> Result<Arc<ShardMember>, ShimError> {
        if self.closed.load(Relaxed) {
            return Err(ShimError::SessionClosed);
        }
        let guard = self.members.read().ok_or(ShimError::SessionClosed)?;
        guard
            .iter()
            .find(|m| m.id == shard)
            .cloned()
            .ok_or(ShimError::UnknownShard { shard: shard.raw() })
    }
}

/// Messages to the ticker thread. Every one but `Panic` and `Shutdown`
/// is followed by a scrape round.
enum Control {
    /// Ack once the round has run (the deterministic barrier behind
    /// [`Fleet::sync`]/[`Fleet::flush`]/[`Fleet::refresh`]).
    Refresh(Sender<()>),
    /// A shard joined: register its endpoint, so it appears in the next
    /// fused snapshot promptly even if the fleet was idle.
    Add(ShardId, ShardLabel, LocalTransport),
    /// A shard left: drop its endpoint, so its contribution leaves the
    /// fused snapshot without waiting out an idle backoff.
    Remove(ShardId),
    /// Fault-injection test hook: the ticker panics when it dequeues
    /// this, exercising the supervisor's crash-containment path.
    Panic,
    /// Exit the ticker loop.
    Shutdown,
}

/// The fleet's ticker thread, run under [`TICKER_POLICY`]: owns the
/// scraper, and polls a round after every control message and otherwise
/// on the idle timer.
struct Ticker {
    scraper: FleetScraper,
    control: Receiver<Control>,
    interval: Duration,
    /// Contained crashes (`fleet.agg_restarts`).
    restarts: Counter,
}

impl Supervised for Ticker {
    fn run(&mut self) {
        // Consecutive rounds that published nothing. The wait grows
        // exponentially with the streak — an idle fleet parks instead of
        // polling at full rate — and a publishing round resets it.
        let mut idle_streak = 0u32;
        loop {
            let wait = idle_backoff_interval(self.interval, idle_streak);
            let ack = match self.control.recv_timeout(wait) {
                Ok(Control::Refresh(ack)) => Some(ack),
                Ok(Control::Add(shard, label, transport)) => {
                    self.scraper.add_endpoint(shard, label, Box::new(transport));
                    None
                }
                Ok(Control::Remove(shard)) => {
                    let _ = self.scraper.remove_endpoint(shard);
                    None
                }
                Ok(Control::Panic) => panic!("injected aggregator panic (test hook)"),
                Ok(Control::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => None,
            };
            if self.scraper.poll_round().published {
                idle_streak = 0;
            } else {
                idle_streak = idle_streak.saturating_add(1);
            }
            if let Some(ack) = ack {
                let _ = ack.send(());
            }
        }
    }

    fn progress(&self) -> u64 {
        self.scraper.totals().published
    }

    /// Records restart `n` before [`Fleet::agg_restarts`] reads `n` (a
    /// release increment paired with that acquire read), as the inference
    /// service's supervisor does.
    fn on_restart(&mut self, cause: String, _backoff: Duration) {
        let restarts = self.restarts.get() + 1;
        self.scraper
            .telemetry()
            .flight()
            .record(FlightEvent::AggRestart { restarts, cause });
        self.restarts.incr();
    }

    fn on_give_up(&mut self, cause: String) {
        // The control receiver drops with the thread: queued refresh acks
        // error their callers and later sends fail with SessionClosed.
        self.scraper
            .telemetry()
            .flight()
            .record(FlightEvent::ServiceFailed { cause });
    }
}

/// A fleet of sharded BayesPerf monitors with fused fleet-level reads.
///
/// One [`Monitor`] per shard (simulated machine/socket), a lock-free
/// sample router, and a ticker thread scraping and fusing per-shard
/// posteriors into a fleet posterior — see the module docs for the data
/// flow. Dropping (or [`Fleet::close`]-ing) the fleet drains every shard
/// and stops the ticker.
pub struct Fleet {
    shared: Arc<FleetShared>,
    members_writer: SnapshotWriter<Membership>,
    /// Writer-side copy of the membership (the cell holds clones).
    live: Vec<Arc<ShardMember>>,
    next_id: u32,
    config: FleetConfig,
    control: Sender<Control>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Crash restarts of the ticker thread, as the registry counter
    /// `fleet.agg_restarts` (monotonic).
    agg_restarts: Counter,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.live.len())
            .field("closed", &self.shared.closed.load(Relaxed))
            .finish()
    }
}

impl Fleet {
    /// Creates an empty fleet over `catalog` and starts the (supervised)
    /// ticker thread. Add machines with [`Fleet::add_shard`].
    ///
    /// Returns [`ShimError::SpawnFailed`] if the OS refuses the thread.
    pub fn new(catalog: &Catalog, config: FleetConfig) -> Result<Fleet, ShimError> {
        let scraper = FleetScraper::new(catalog.len(), local_scrape_config(config.health));
        let (mut members_writer, members) = snapshot_cell::<Membership>();
        members_writer.publish(Vec::new());
        let shared = Arc::new(FleetShared::new(
            Arc::new(catalog.clone()),
            members,
            &scraper,
        ));
        let agg_restarts = shared.tele.registry().counter("fleet.agg_restarts");
        let (control, control_rx) = channel();
        let mut ticker = Ticker {
            scraper,
            control: control_rx,
            interval: config.scrape_interval,
            restarts: agg_restarts.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("bayesperf-fleet-agg".into())
            .spawn(move || TICKER_POLICY.supervise(&mut ticker))
            .map_err(|_| ShimError::SpawnFailed {
                what: "fleet aggregator",
            })?;
        Ok(Fleet {
            shared,
            members_writer,
            live: Vec::new(),
            next_id: 0,
            config,
            control,
            handle: Some(handle),
            agg_restarts,
        })
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Adds a shard: spawns a dedicated [`Monitor`] (ring + supervised
    /// inference thread) for the labelled machine/socket, publishes the
    /// new membership, and registers the shard's scrape endpoint. Ids are
    /// never reused across churn.
    ///
    /// Returns [`ShimError::SpawnFailed`] if the OS refuses the shard's
    /// inference thread (the fleet itself stays usable).
    pub fn add_shard(&mut self, label: ShardLabel) -> Result<ShardId, ShimError> {
        let id = ShardId::from_raw(self.next_id);
        self.next_id += 1;
        let monitor = Monitor::new(
            &self.shared.catalog,
            self.config.corrector.clone(),
            self.config.ring_capacity,
        )?;
        let session = monitor.session().open()?;
        let member = Arc::new(ShardMember {
            id,
            label: label.clone(),
            monitor,
            responder: ScrapeResponder::new(id, label.clone(), session),
        });
        let transport = LocalTransport::new(&member);
        self.live.push(member);
        self.members_writer.publish(self.live.clone());
        let _ = self.control.send(Control::Add(id, label, transport));
        Ok(id)
    }

    /// Removes a shard: unpublishes it from the membership (in-flight
    /// routed pushes finish against the old view), closes its monitor and
    /// drops its scrape endpoint. Its contribution disappears from the
    /// next fused snapshot.
    pub fn remove_shard(&mut self, shard: ShardId) -> Result<(), ShimError> {
        let i = self
            .live
            .iter()
            .position(|m| m.id == shard)
            .ok_or(ShimError::UnknownShard { shard: shard.raw() })?;
        self.live.remove(i);
        // Publish twice: the cell double-buffers, so the first publish
        // leaves the previous membership (holding the removed shard's
        // Arc) in the spare slot; the second overwrites it, making the
        // monitor shutdown deterministic rather than deferred to the
        // next churn event.
        self.members_writer.publish(self.live.clone());
        self.members_writer.publish(self.live.clone());
        let _ = self.control.send(Control::Remove(shard));
        Ok(())
    }

    /// Current shards, in insertion order.
    pub fn shards(&self) -> Vec<(ShardId, ShardLabel)> {
        self.live.iter().map(|m| (m.id, m.label.clone())).collect()
    }

    /// A cloneable, `Send + Sync` ingest handle for producer threads.
    pub fn router(&self) -> FleetRouter {
        FleetRouter {
            shared: self.shared.clone(),
        }
    }

    /// Routes one kernel sample to its shard's ring. Lock-free resolve
    /// (membership snapshot cell), per-shard ring push — producers on
    /// different shards never contend. Samples must stay window-ordered
    /// *per shard* (see [`Monitor::push_sample`]).
    pub fn push_sample(&self, shard: ShardId, sample: Sample) -> Result<(), ShimError> {
        self.shared.member(shard)?.monitor.push_sample(sample)
    }

    /// A direct read session on one shard (per-machine drill-down).
    pub fn shard_session(&self, shard: ShardId) -> Result<Session, ShimError> {
        Ok(self.shared.member(shard)?.session().clone())
    }

    /// Runs `f` against one shard's local [`Monitor`] — supervision
    /// drill-down (restart counters, heartbeat, schedule hooks,
    /// fault-injection) on a fleet member without exposing ownership of
    /// the monitor itself.
    pub fn with_shard_monitor<R>(
        &self,
        shard: ShardId,
        f: impl FnOnce(&Monitor) -> R,
    ) -> Result<R, ShimError> {
        Ok(f(&self.shared.member(shard)?.monitor))
    }

    /// Blocks until every shard has ingested and corrected everything
    /// pushed before this call, then re-fuses and publishes the fleet
    /// snapshot — the deterministic fleet-wide barrier.
    pub fn sync(&self) -> Result<(), ShimError> {
        for m in &self.live {
            m.monitor.sync()?;
        }
        self.refresh()
    }

    /// Flushes every shard's ragged tail (partial final chunk), then
    /// re-fuses and publishes.
    pub fn flush(&self) -> Result<(), ShimError> {
        for m in &self.live {
            m.monitor.flush()?;
        }
        self.refresh()
    }

    /// Forces a scrape round now and blocks until it has run — one
    /// health round for every shard, and a new fused generation if
    /// anything changed.
    pub fn refresh(&self) -> Result<(), ShimError> {
        let (tx, rx) = channel();
        self.control
            .send(Control::Refresh(tx))
            .map_err(|_| ShimError::SessionClosed)?;
        rx.recv().map_err(|_| ShimError::SessionClosed)
    }

    /// Starts building a fleet-scoped read session.
    pub fn session(&self) -> FleetSessionBuilder<'_> {
        SessionBuilder::new(self)
    }

    /// The latest fused snapshot (with per-shard posteriors for
    /// percentile/straggler views).
    pub fn snapshot(&self) -> Result<FleetSnapshot, ShimError> {
        read_snapshot(&self.shared)
    }

    /// Crash restarts the ticker's supervisor has performed (served from
    /// the registry counter `fleet.agg_restarts`).
    pub fn agg_restarts(&self) -> u64 {
        self.agg_restarts.get()
    }

    /// The fleet's telemetry plane — its scraper's: the `scrape.*` /
    /// `health.*` / `fleet.agg_restarts` metric namespace, the scrape and
    /// fuse span rings, and the flight recorder logging ticker restarts
    /// and local-shard health transitions. Per-shard service telemetry
    /// lives on each shard's [`Monitor`] (reach it via
    /// [`Fleet::with_shard_monitor`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// Fault-injection test hook: makes the ticker thread panic on its
    /// next control dequeue, exercising the supervisor's
    /// crash-containment path. Observe recovery via
    /// [`Fleet::agg_restarts`].
    pub fn inject_agg_panic(&self) -> Result<(), ShimError> {
        self.control
            .send(Control::Panic)
            .map_err(|_| ShimError::SessionClosed)
    }

    /// Drains every shard, stops their monitors and the ticker.
    /// Subsequent fleet reads and pushes return
    /// [`ShimError::SessionClosed`], and subscriber streams end.
    /// Idempotent; also runs on drop.
    pub fn close(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        // Dropping the members closes each monitor (flushing its tail).
        self.live.clear();
        self.members_writer.publish(Vec::new());
        self.members_writer.publish(Vec::new());
        let _ = self.control.send(Control::Shutdown);
        // The exiting ticker drops its scraper, ending subscriber streams.
        let _ = handle.join();
        self.shared.closed.store(true, Relaxed);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.close();
    }
}

/// Cloneable producer handle: routes samples to shards through the
/// membership cell without holding any fleet-wide lock.
#[derive(Clone)]
pub struct FleetRouter {
    shared: Arc<FleetShared>,
}

impl std::fmt::Debug for FleetRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRouter").finish()
    }
}

impl FleetRouter {
    /// See [`Fleet::push_sample`].
    pub fn push_sample(&self, shard: ShardId, sample: Sample) -> Result<(), ShimError> {
        self.shared.member(shard)?.monitor.push_sample(sample)
    }
}

fn read_snapshot(shared: &FleetShared) -> Result<FleetSnapshot, ShimError> {
    if shared.closed.load(Relaxed) {
        return Err(ShimError::SessionClosed);
    }
    let guard = shared.fused.read().ok_or(ShimError::NoShards)?;
    Ok(guard.clone())
}

impl SessionTarget for Fleet {
    type Session = FleetSession;

    fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    fn open_session(&self, selection: Selection) -> Result<FleetSession, ShimError> {
        if self.shared.closed.load(Relaxed) {
            return Err(ShimError::SessionClosed);
        }
        Ok(FleetSession {
            shared: self.shared.clone(),
            selection: Arc::new(selection),
        })
    }
}

/// Configures and opens a [`FleetSession`]: the per-machine
/// [`SessionBuilder`] over a [`Fleet`]. Event selection defaults to the
/// whole catalog, as for [`Monitor::session`].
pub type FleetSessionBuilder<'f> = SessionBuilder<'f, Fleet>;

/// Builds a [`FleetSession`] over a scraper's published fused snapshots
/// (see [`FleetScraper::session`]): no local members; the scraper's
/// telemetry bundle, live scrape counters, cached fleet-wide metric dump
/// and subscriber queues.
pub(crate) fn scraper_session(catalog: &Catalog, scraper: &FleetScraper) -> FleetSession {
    let (_, members) = snapshot_cell::<Membership>();
    FleetSession {
        shared: Arc::new(FleetShared::new(
            Arc::new(catalog.clone()),
            members,
            scraper,
        )),
        selection: Arc::new(Selection::new(None)),
    }
}

/// A fleet-scoped read handle mirroring [`Session`]: cheap to clone,
/// sendable, and wait-free — every read is served from the latest fused
/// snapshot, never from the shards themselves.
#[derive(Clone)]
pub struct FleetSession {
    shared: Arc<FleetShared>,
    selection: Arc<Selection>,
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("selection", &self.selection)
            .finish()
    }
}

impl FleetSession {
    fn ensure_open(&self) -> Result<(), ShimError> {
        if self.shared.closed.load(Relaxed) {
            Err(ShimError::SessionClosed)
        } else {
            Ok(())
        }
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Reads the fleet-fused posterior of `event` (one lock-free
    /// acquisition of the fused cell, independent of shard count).
    pub fn read(&self, event: EventId) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        self.selection.check(&self.shared.catalog, event)?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(Reading::from_gaussian(&guard.fused[event.index()]))
    }

    /// Reads all selected events from **one** fused snapshot.
    pub fn read_group(&self) -> Result<FleetGroupReading, ShimError> {
        self.ensure_open()?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(FleetGroupReading {
            generation: guard.generation,
            max_window: guard.max_window(),
            shards: guard.shards.len(),
            readings: self.selection.readings(&guard.fused),
        })
    }

    /// Evaluates a derived event on the fused posteriors — the same
    /// central-difference propagation as
    /// [`Session::read_derived`], so per-machine and
    /// fleet-level metrics agree by construction. The session must have
    /// selected the metric's components
    /// ([`SessionBuilder::derived`] does exactly that).
    pub fn read_derived(&self, name: &str) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        let derived = self.selection.derived(&self.shared.catalog, name)?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(derived_reading(derived, &guard.fused))
    }

    /// Every contributing shard's own posterior of `event`, sorted by
    /// shard id — the drill-down behind the fused number.
    pub fn shard_readings(&self, event: EventId) -> Result<Vec<(ShardId, Reading)>, ShimError> {
        self.ensure_open()?;
        self.selection.check(&self.shared.catalog, event)?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(guard
            .shards
            .iter()
            .zip(&guard.per_shard)
            .map(|(s, p)| (s.shard, Reading::from_gaussian(&p[event.index()])))
            .collect())
    }

    /// The latest fused snapshot (percentile/straggler views included).
    pub fn snapshot(&self) -> Result<FleetSnapshot, ShimError> {
        read_snapshot(&self.shared)
    }

    /// Cumulative scrape-plane totals — the running sums of every
    /// [`RoundReport`](crate::RoundReport) the backing
    /// [`FleetScraper`] has produced, read live from its counter handles
    /// so byte/failure history survives whoever pumped `poll_round`. An
    /// in-process fleet's totals count the rounds its ticker polled.
    pub fn scrape_totals(&self) -> Result<ScrapeTotals, ShimError> {
        self.ensure_open()?;
        Ok(self.shared.scrape_metrics.totals())
    }

    /// The fleet-wide metric dump: the fleet's own registry merged with
    /// every live shard monitor's registry (in-process fleets) and with
    /// the last wire-scraped shard dump (scraper-backed sessions — pump
    /// [`FleetScraper::poll_telemetry`](crate::FleetScraper::poll_telemetry)
    /// to refresh it). Render with
    /// [`render_prometheus`](bayesperf_obs::render_prometheus).
    pub fn fleet_metrics(&self) -> Result<Vec<MetricSnapshot>, ShimError> {
        self.ensure_open()?;
        let mut out = self.shared.tele.registry().snapshot();
        if let Some(members) = self.shared.members.read() {
            for m in members.iter() {
                merge_metrics(&mut out, &m.monitor.telemetry().registry().snapshot());
            }
        }
        let scraped = self
            .shared
            .scraped
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        merge_metrics(&mut out, &scraped);
        Ok(out)
    }

    /// Subscribes to the per-generation fused update stream: one
    /// [`FleetUpdate`] per published generation, through a queue bounded
    /// at [`UPDATE_QUEUE_CAP`]; a lagging consumer loses updates and the
    /// next delivered one carries the skip in [`FleetUpdate::gap`].
    pub fn subscribe(&self) -> FleetUpdates {
        self.subscribe_with_capacity(UPDATE_QUEUE_CAP)
    }

    /// [`FleetSession::subscribe`] with an explicit queue bound.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> FleetUpdates {
        self.shared.subscribers.subscribe(&self.selection, capacity)
    }
}

/// Blocking iterator over a fleet session's [`FleetUpdate`] stream: the
/// per-machine [`Updates`] stream; it ends once the fleet closes (or the
/// backing scraper is dropped) and the queue drains.
pub type FleetUpdates = Updates<FleetUpdate>;

/// Widest idle multiplier: an idle fleet's ticker decays to polling at
/// `interval × 2⁶ = 64×` — slow enough to stop burning a core on
/// `Unchanged` rounds, bounded so a fleet that resumes without churn is
/// still noticed promptly. Churn wakes it immediately
/// ([`Control::Add`] / [`Control::Remove`]).
const IDLE_BACKOFF_MAX_SHIFT: u32 = 6;

/// The ticker's wait before its next unsolicited round, after
/// `idle_streak` consecutive rounds that published nothing:
/// `interval × 2^min(streak, 6)`. Pure, so the schedule is testable
/// without a thread.
fn idle_backoff_interval(interval: Duration, idle_streak: u32) -> Duration {
    interval.saturating_mul(1 << idle_streak.min(IDLE_BACKOFF_MAX_SHIFT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_backoff_doubles_then_caps() {
        let base = Duration::from_micros(200);
        assert_eq!(idle_backoff_interval(base, 0), base);
        assert_eq!(idle_backoff_interval(base, 1), base * 2);
        assert_eq!(idle_backoff_interval(base, 3), base * 8);
        assert_eq!(idle_backoff_interval(base, 6), base * 64);
        // The cap holds for arbitrarily long idle streaks — no overflow,
        // no unbounded sleep.
        assert_eq!(idle_backoff_interval(base, 7), base * 64);
        assert_eq!(idle_backoff_interval(base, u32::MAX), base * 64);
        // Saturates instead of panicking for huge base intervals.
        let huge = Duration::from_secs(u64::MAX / 2);
        assert_eq!(idle_backoff_interval(huge, 32), Duration::MAX);
    }
}
