//! The session-oriented BayesPerf monitoring service.
//!
//! This is the shim's `perf_event_open`-shaped API (§5 of the paper): a
//! shared [`Monitor`] owns the event catalog, the kernel↔userspace sample
//! ring, and a dedicated **background inference thread** that drives the
//! chained streaming [`Corrector`]. Monitoring applications open
//! [`Session`] handles ([`Monitor::session`] → [`SessionBuilder`] →
//! [`SessionBuilder::open`]) that are `Clone + Send + Sync` and read
//! posteriors without ever running — or waiting on — inference:
//!
//! ```text
//!  producers                 Monitor service                   readers
//!  ─────────                 ───────────────                   ───────
//!  push_sample ─▶ ring ─▶ inference thread:                Session::read
//!                          assemble windows,    lock-free  Session::read_group
//!                          push_chunk (solve)  ─────────▶ Session::subscribe
//!                          publish snapshot      snapshot
//!                                                  cell
//! ```
//!
//! The inference thread publishes immutable `(window, event → Gaussian)`
//! snapshots through the in-tree lock-free publication cell
//! ([`crate::snapshot`]); N reader threads observe internally-consistent
//! snapshots while a chunk solve is running, and a read costs two atomic RMWs plus
//! a copy — the software analogue of the paper's accelerator serving reads
//! from already-computed posteriors in host memory (Fig. 3).
//!
//! The read surface is shared with the fleet layer: one
//! [`SessionBuilder`] over any [`SessionTarget`], one access rule
//! ([`Selection`]), one subscriber fan-out ([`Subscribers`]) and one
//! update stream ([`Updates`]). A fleet session differs from a
//! [`Session`] only in its liveness check, snapshot type and metadata.
//!
//! Failures are typed ([`ShimError`]), not `None`: an unknown event is a
//! programming error, "no posterior yet" means poll again, a ring overflow
//! is backpressure, and a closed monitor is terminal.
//!
//! The inference thread itself runs **supervised**: the spawned thread
//! runs the service body under [`SupervisorPolicy::supervise`] — the one
//! `catch_unwind` restart loop the workspace has, which the fleet's scrape
//! ticker runs under too — restarting it after a crash with capped-backoff
//! restart budgets (warm: a restarted corrector chains off the last
//! published snapshot, so only the poisoned in-flight chunk is lost), and
//! publishes a typed
//! [`ServiceState`] — `Running` / `Restarting` / `Failed` — through a
//! lock-free cell. A permanently failed service (restart budget exhausted)
//! surfaces as [`ShimError::ServiceDown`] on every read instead of a
//! silently frozen posterior. Malformed samples are skipped by the chunk
//! engine's load ([`crate::model::ChunkEngine::load`], the guard every
//! [`Corrector`] caller shares) and non-finite posteriors are caught at the
//! publish boundary (both counted by [`Monitor::divergences`]), and a
//! heartbeat counter
//! ([`Monitor::heartbeat`]) lets watchdogs distinguish a stalled service
//! from an idle one.

// The ISSUE-7 robustness audit: this file's non-test code must report
// failures as typed errors, never panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corrector::{Corrector, CorrectorConfig};
use crate::error::ShimError;
use crate::snapshot::{snapshot_cell, SnapshotGuard, SnapshotReader, SnapshotWriter};
use bayesperf_events::{Catalog, DerivedEvent, EventEnv, EventId};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_obs::{labeled, Counter, FlightEvent, Histogram, SpanRecorder, Stage, Telemetry};
use bayesperf_simcpu::{RingBuffer, Sample};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The posterior state published by the inference thread after each chunk:
/// every catalog event's posterior at the most recent corrected window.
struct PosteriorSnapshot {
    /// Global index of the most recent corrected window.
    window: u32,
    /// 1-based count of inference runs published so far.
    chunk: u64,
    /// Statistics of the chunk solve that produced this snapshot.
    stats: EpRunStats,
    /// Catalog-indexed posteriors (count units).
    posteriors: Vec<Gaussian>,
}

/// A copied-out view of the latest published posterior snapshot: the raw
/// `(window, event → Gaussian)` state the read paths serve from, exposed
/// for the fleet layer's scraping, fusion and wire encoding
/// (`bayesperf_fleet`). Unlike [`GroupReading`] it carries the posteriors
/// themselves, not derived [`Reading`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotView {
    /// Global index of the most recent corrected window.
    pub window: u32,
    /// 1-based count of inference runs published so far.
    pub chunk: u64,
    /// Statistics of the chunk solve that produced this snapshot.
    pub stats: EpRunStats,
    /// Catalog-indexed posteriors (count units).
    pub posteriors: Vec<Gaussian>,
    /// Per-source dropped-late counts, indexed by raw [`SourceId`]
    /// (see [`Monitor::late_samples_by_source`]): the observation-plane
    /// health metadata a fleet aggregator ships alongside posteriors, so
    /// a chronically late gauge is visible fleet-wide. Only extends as
    /// far as the highest source that has dropped anything.
    ///
    /// [`SourceId`]: bayesperf_events::SourceId
    pub late_by_source: Vec<u64>,
}

/// One per-window posterior update streamed to [`Session::subscribe`]rs.
#[derive(Debug, Clone)]
pub struct PosteriorUpdate {
    /// Global index of the corrected window.
    pub window: u32,
    /// Windows this subscriber *lost* immediately before this update: a
    /// lagging consumer whose bounded queue overflowed sees the skip
    /// explicitly here instead of having to infer it from non-consecutive
    /// `window` indices (the ring's `PERF_RECORD_LOST` analogue). `0`
    /// when no update was dropped since the previous delivered one.
    pub gap: u64,
    /// 1-based index of the inference run that corrected it.
    pub chunk: u64,
    /// Run statistics of that inference run (shared by the chunk's
    /// windows).
    pub stats: EpRunStats,
    /// Posteriors of the subscribing session's selected events (count
    /// units).
    pub posteriors: Vec<(EventId, Gaussian)>,
}

impl PosteriorUpdate {
    /// The posterior of `event` in this update, if selected.
    pub fn gaussian(&self, event: EventId) -> Option<Gaussian> {
        self.posteriors
            .iter()
            .find(|(e, _)| *e == event)
            .map(|(_, g)| *g)
    }

    /// The [`Reading`] of `event` in this update, if selected.
    pub fn reading(&self, event: EventId) -> Option<Reading> {
        self.gaussian(event).map(|g| Reading::from_gaussian(&g))
    }
}

/// The value a read returns: an estimate with quantified uncertainty —
/// the posterior mean, its spread, and the 95% credible interval (the
/// paper's §4.2 confidence level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Point estimate of the event's per-window count (posterior mean).
    pub value: f64,
    /// Posterior standard deviation.
    pub std_dev: f64,
    /// 95% credible interval.
    pub interval95: (f64, f64),
}

impl Reading {
    /// The reading of a Gaussian posterior: mean, spread, 95% credible
    /// interval (used by both the per-machine and the fleet read paths).
    pub fn from_gaussian(g: &Gaussian) -> Self {
        Reading {
            value: g.mean,
            std_dev: g.std_dev(),
            interval95: g.interval(1.96),
        }
    }
}

/// A consistent multi-event read: every reading comes from the same
/// posterior snapshot (same window, same inference run).
#[derive(Debug, Clone)]
pub struct GroupReading {
    /// Global index of the snapshot's most recent corrected window.
    pub window: u32,
    /// 1-based index of the inference run that produced the snapshot.
    pub chunk: u64,
    /// Run statistics of that inference run.
    pub stats: EpRunStats,
    /// Readings of the session's selected events, in catalog order.
    pub readings: Vec<(EventId, Reading)>,
}

/// Which catalog events a session reads; `None` means all. Shared by the
/// per-machine [`Session`] and the fleet layer's sessions: its helpers are
/// the one access rule both read surfaces enforce.
#[derive(Debug)]
pub struct Selection {
    events: Option<Vec<EventId>>,
}

impl Selection {
    /// Builds a selection; `None` means the whole catalog. An explicit
    /// list is sorted and deduplicated here — the invariant
    /// [`Selection::check`]'s binary search relies on.
    pub fn new(events: Option<Vec<EventId>>) -> Selection {
        let events = events.map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        });
        Selection { events }
    }

    /// The per-event access check: `event` must be in `catalog` and
    /// selected, else [`ShimError::UnknownEvent`].
    #[inline]
    pub fn check(&self, catalog: &Catalog, event: EventId) -> Result<(), ShimError> {
        let unselected = |list: &Vec<EventId>| list.binary_search(&event).is_err();
        if event.index() >= catalog.len() || self.events.as_ref().is_some_and(unselected) {
            return Err(ShimError::UnknownEvent(event));
        }
        Ok(())
    }

    /// The derived event `name` of `catalog`, once every component it
    /// reads passes [`Selection::check`]: a metric is readable only
    /// through its selected components.
    pub fn derived<'c>(
        &self,
        catalog: &'c Catalog,
        name: &str,
    ) -> Result<&'c DerivedEvent, ShimError> {
        let derived = find_derived(catalog, name)?;
        for e in derived.events() {
            self.check(catalog, e)?;
        }
        Ok(derived)
    }

    /// The [`Reading`]s of the selected events over catalog-indexed
    /// `posteriors`, in catalog order — a group read's body.
    pub fn readings(&self, posteriors: &[Gaussian]) -> Vec<(EventId, Reading)> {
        self.map_selected(posteriors, Reading::from_gaussian)
    }

    /// `f` over the selected entries of catalog-indexed `posteriors`, in
    /// catalog order (event ids are dense catalog indices).
    fn map_selected<T>(
        &self,
        posteriors: &[Gaussian],
        f: impl Fn(&Gaussian) -> T,
    ) -> Vec<(EventId, T)> {
        match &self.events {
            None => posteriors
                .iter()
                .enumerate()
                .map(|(i, g)| (EventId::from_raw(i as u16), f(g)))
                .collect(),
            Some(list) => list
                .iter()
                .filter_map(|&e| posteriors.get(e.index()).map(|g| (e, f(g))))
                .collect(),
        }
    }
}

/// The derived event `name` of `catalog`, or [`ShimError::UnknownDerived`].
fn find_derived<'c>(catalog: &'c Catalog, name: &str) -> Result<&'c DerivedEvent, ShimError> {
    catalog
        .derived_events()
        .iter()
        .find(|d| d.name == name)
        .ok_or_else(|| ShimError::UnknownDerived(name.to_string()))
}

/// Per-subscriber queue bound of a default subscription: a consumer that
/// stops polling loses updates beyond this backlog instead of growing
/// memory without bound (like the ring's `PERF_RECORD_LOST`).
pub const UPDATE_QUEUE_CAP: usize = 1024;

/// The subscriber fan-out of one publisher — a [`Monitor`]'s inference
/// service or a fleet scraper — so the lossy-queue and close rules exist
/// once. Each subscriber has a bounded queue and an event selection. A
/// full queue loses the update (the next delivered one reports the loss
/// in its `gap`, counted on the publisher's own sequence), and a
/// disconnected subscriber is dropped. [`Subscribers::close`] ends every
/// stream, and a subscription made after it ends at once.
pub struct Subscribers<U> {
    /// `None` once closed.
    subs: Mutex<Option<Vec<Subscriber<U>>>>,
}

struct Subscriber<U> {
    tx: SyncSender<U>,
    selection: Arc<Selection>,
    /// Sequence number of the last update this subscriber's queue
    /// accepted; the source of the next update's gap.
    last_enqueued: Option<u64>,
}

impl<U> Default for Subscribers<U> {
    fn default() -> Self {
        Subscribers {
            subs: Mutex::new(Some(Vec::new())),
        }
    }
}

impl<U> Subscribers<U> {
    /// Registers a subscriber reading `selection` through a queue of
    /// `capacity` updates (at least one).
    pub fn subscribe(&self, selection: &Arc<Selection>, capacity: usize) -> Updates<U> {
        let (tx, rx) = sync_channel(capacity.max(1));
        if let Some(subs) = self.lock().as_mut() {
            subs.push(Subscriber {
                tx,
                selection: Arc::clone(selection),
                last_enqueued: None,
            });
        }
        Updates { rx }
    }

    /// Offers update number `seq` — a window index, or a fleet
    /// generation — to every subscriber: `make` builds it from the
    /// subscriber's gap and its selection of catalog-indexed
    /// `posteriors`.
    pub fn offer(
        &self,
        seq: u64,
        posteriors: &[Gaussian],
        mut make: impl FnMut(u64, Vec<(EventId, Gaussian)>) -> U,
    ) {
        let mut subs = self.lock();
        let Some(subs) = subs.as_mut() else {
            return;
        };
        subs.retain_mut(|sub| {
            let gap = sub
                .last_enqueued
                .map_or(0, |last| seq.saturating_sub(last + 1));
            let selected = sub.selection.map_selected(posteriors, |g| *g);
            match sub.tx.try_send(make(gap, selected)) {
                Ok(()) => {
                    sub.last_enqueued = Some(seq);
                    true
                }
                // Bounded backpressure: the publisher never blocks on a
                // subscriber.
                Err(TrySendError::Full(_)) => true,
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
    }

    /// Ends every stream (drops the senders) and refuses later
    /// subscriptions.
    pub fn close(&self) {
        *self.lock() = None;
    }

    fn lock(&self) -> MutexGuard<'_, Option<Vec<Subscriber<U>>>> {
        self.subs.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A per-publish hook: the inference service calls it as it publishes
/// each chunk's posterior snapshot, with the posteriors that snapshot
/// holds.
///
/// The hook runs on the **inference thread**, immediately before the
/// snapshot is published, so it sees every chunk exactly once and in
/// order. That makes it the place to observe the service's publishes in
/// order, or to stall the inference thread on purpose (the fleet's
/// watchdog tests park it here). Other threads read whatever state the
/// hook keeps without touching this thread. Keep implementations cheap:
/// the next chunk waits for the hook to return.
pub trait ScheduleHook: Send {
    /// Called once per inference run with the final corrected window's
    /// index, the 1-based inference-run counter, and the catalog-indexed
    /// posteriors of that window (count units).
    fn on_publish(&mut self, window: u32, chunk: u64, posteriors: &[Gaussian]);
}

/// Control messages to the inference thread. Every variant carries an ack
/// channel so callers can block until the service has acted.
enum Control {
    /// Process everything enqueued before this message, then ack.
    Sync(Sender<()>),
    /// Complete all assembling windows, correct remaining full chunks and
    /// the ragged tail, publish, then ack.
    Flush(Sender<()>),
    /// Stop draining the ring (samples queue up / overflow) — test hook
    /// for deterministic backpressure.
    Pause(Sender<()>),
    /// Resume draining, process the backlog, then ack.
    Resume(Sender<()>),
    /// Install (or, with `None`, remove) the per-publish hook.
    SetHook {
        hook: Option<Box<dyn ScheduleHook>>,
        ack: Sender<()>,
    },
    /// Fault-injection test hook: the service panics when it dequeues
    /// this, exercising the supervisor's crash-containment path. Fire and
    /// forget (no ack — the thread that would send it is unwinding);
    /// callers observe recovery through [`Monitor::restarts`] or
    /// [`Monitor::service_state`].
    Panic,
}

/// Producer-facing state behind the service mutex. Held only long enough
/// to enqueue a sample or hand the whole backlog to the service thread —
/// never across inference.
struct InboundState {
    ring: RingBuffer<Sample>,
    control: VecDeque<Control>,
    shutdown: bool,
}

/// The supervision state of the inference service, published by the
/// supervisor through a lock-free snapshot cell and read by
/// [`Monitor::service_state`] / [`Session::service_state`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceState {
    /// The service loop is live (possibly idle, waiting for samples).
    Running,
    /// The service crashed and the supervisor is restarting it.
    Restarting {
        /// Total restarts performed so far (monotonic across the
        /// monitor's lifetime, matching [`Monitor::restarts`]).
        restarts: u64,
        /// The panic message of the crash being recovered from.
        cause: String,
    },
    /// The restart budget is exhausted; the service is permanently down
    /// and every read surfaces [`ShimError::ServiceDown`].
    Failed {
        /// The panic message of the final, fatal crash.
        cause: String,
    },
}

/// Restart policy for a supervised loop — the inference service, and the
/// fleet's scrape ticker.
///
/// The budget counts **consecutive** failed incarnations: an incarnation
/// that makes progress (publishes at least one chunk) resets the count,
/// so a long-lived service survives unbounded *occasional* crashes while
/// a crash-looping one (e.g. a deterministic poison sample replayed from
/// the ring) fails fast with a typed cause instead of spinning forever.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Consecutive no-progress crashes tolerated before the service is
    /// declared [`ServiceState::Failed`]. `0` fails on the first crash.
    pub max_consecutive_restarts: u32,
    /// Backoff before the first restart; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Upper bound on the per-restart backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_consecutive_restarts: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

/// A loop run under [`SupervisorPolicy::supervise`]: its body, plus the
/// hooks the restart loop calls around a contained crash.
pub trait Supervised {
    /// Runs one incarnation. Returning ends supervision (an orderly
    /// shutdown); a panic is caught and handed to the restart policy.
    fn run(&mut self);
    /// A monotone progress count. A crashed incarnation that advanced it
    /// resets the consecutive-crash budget.
    fn progress(&self) -> u64;
    /// Records a contained crash (`cause` is the panic message) that will
    /// be restarted after `backoff`.
    fn on_restart(&mut self, cause: String, backoff: Duration);
    /// Records the crash that exhausted the budget; supervision ends.
    fn on_give_up(&mut self, cause: String);
    /// Waits out a restart backoff. `true` means shutdown was requested
    /// meanwhile: supervision ends without a restart. The default sleeps
    /// and is never interrupted.
    fn wait(&mut self, backoff: Duration) -> bool {
        std::thread::sleep(backoff);
        false
    }
}

impl SupervisorPolicy {
    /// Runs `supervised` until it returns, containing its panics: each
    /// incarnation runs under `catch_unwind`, a crash is restarted after
    /// a capped exponential backoff (`backoff_base · 2^(n-1)` for the
    /// n-th consecutive crash, at most `backoff_cap`), and the
    /// consecutive-crash count resets whenever the crashed incarnation
    /// made progress. The crash past `max_consecutive_restarts` gives up.
    pub fn supervise(&self, supervised: &mut impl Supervised) {
        let mut consecutive = 0u32;
        loop {
            let before = supervised.progress();
            let Err(payload) = catch_unwind(AssertUnwindSafe(|| supervised.run())) else {
                return;
            };
            let cause = panic_cause(payload);
            if supervised.progress() > before {
                // An occasional crash, not a crash loop.
                consecutive = 0;
            }
            consecutive += 1;
            if consecutive > self.max_consecutive_restarts {
                supervised.on_give_up(cause);
                return;
            }
            let backoff = self
                .backoff_base
                .saturating_mul(1u32 << (consecutive - 1).min(16))
                .min(self.backoff_cap);
            supervised.on_restart(cause, backoff);
            if supervised.wait(backoff) {
                return;
            }
        }
    }
}

/// Renders a `catch_unwind` payload as a human-readable crash cause.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State shared between the [`Monitor`], its [`Session`]s and the
/// inference thread.
struct Shared {
    catalog: Arc<Catalog>,
    state: Mutex<InboundState>,
    cv: Condvar,
    snapshot: SnapshotReader<PosteriorSnapshot>,
    /// The supervisor's typed state (Running / Restarting / Failed),
    /// published through the same lock-free cell machinery as posteriors
    /// so reads never block on the supervisor.
    service_state: SnapshotReader<ServiceState>,
    subscribers: Subscribers<PosteriorUpdate>,
    /// Set once the supervisor has exited (after the shutdown flush or a
    /// terminal failure); the supervisor closes `subscribers` with it.
    closed: AtomicBool,
    /// Mirrors the service's pause state (the [`Monitor::pause`] test
    /// hook) so [`Monitor::sync`] can refuse instead of silently acking
    /// without processing.
    paused: AtomicBool,
    /// Samples dropped for arriving after their window completed
    /// (`ingest.late_total` on the telemetry registry).
    late_samples: Counter,
    /// Per-source breakdown of `late_samples`, indexed by raw
    /// [`bayesperf_events::SourceId`] and grown on demand (slow-cadence
    /// gauge sources are the usual suspects; the multi-source health
    /// surface reads this). Each entry is an `ingest.late_dropped{source}`
    /// registry counter; the mutex guards only the grow-on-demand vector,
    /// and is taken on the (rare) late-drop path, never per sample.
    late_by_source: Mutex<Vec<Counter>>,
    /// Inference runs executed (`service.chunks_run`).
    chunks_run: Counter,
    /// Windows published (`service.windows_published`).
    windows_published: Counter,
    /// Heartbeat: bumped by the service once per loop iteration and per
    /// corrected chunk. A watchdog that sees `beats` frozen while `idle`
    /// is false is looking at a stalled (hung) service, not an idle one.
    /// (`service.beats` on the registry.)
    beats: Counter,
    /// True while the service holds no work — before its first wait,
    /// parked waiting for work, or caught up between acking a sync or
    /// flush and parking. An idle thread's heartbeat is legitimately
    /// frozen.
    idle: AtomicBool,
    /// Crash restarts performed by the supervisor (monotonic;
    /// `supervisor.restarts`).
    restarts: Counter,
    /// Divergences contained: malformed samples the chunk engine's load
    /// skipped, non-finite posteriors caught at the publish boundary, and
    /// (slice, component) pairs whose data the chunk solve quarantined
    /// (`service.divergences`).
    divergences: Counter,
    /// Chunk-solve wall time (`solve.chunk_ns`).
    solve_ns: Histogram,
    /// Snapshot publication wall time (`service.publish_ns`).
    publish_ns: Histogram,
    /// The monitor's telemetry plane: the registry the counters above
    /// live in, the span tracer the pipeline stamps into, and the flight
    /// recorder supervision events land in.
    tele: Telemetry,
    /// The per-publish hook lives here — not inside a service
    /// incarnation — so an installed hook survives a crash restart. Locked
    /// only by the inference thread (per publish) and by the control
    /// handler that swaps it.
    hook: Mutex<Option<Box<dyn ScheduleHook>>>,
}

impl Shared {
    fn notify(&self) {
        self.cv.notify_one();
    }

    fn enqueue_control(&self, ctrl: Control) -> Result<(), ShimError> {
        {
            // The closed check must happen under the state lock: the
            // service thread sets `closed` and drains leftover controls
            // under the same lock at exit, so a control can never be
            // enqueued after that final drain (which would leave its
            // caller blocked on an ack forever).
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if self.closed.load(Relaxed) {
                return Err(ShimError::SessionClosed);
            }
            st.control.push_back(ctrl);
        }
        self.notify();
        Ok(())
    }

    /// Enqueues a control message and blocks until the service acks it.
    fn control_roundtrip(&self, make: impl FnOnce(Sender<()>) -> Control) -> Result<(), ShimError> {
        let (tx, rx) = channel();
        self.enqueue_control(make(tx))?;
        rx.recv().map_err(|_| ShimError::SessionClosed)
    }
}

/// The shared monitoring service: catalog + sample ring + background
/// inference thread. Create one per monitored target; open any number of
/// concurrent [`Session`]s against it.
///
/// Dropping (or [`Monitor::close`]-ing) the monitor flushes the stream —
/// the partial final chunk is corrected and published to subscribers —
/// and stops the inference thread.
pub struct Monitor {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("chunks_run", &self.chunks_run())
            .field("closed", &self.shared.closed.load(Relaxed))
            .finish()
    }
}

impl Monitor {
    /// Starts a monitor service with the default [`SupervisorPolicy`]:
    /// clones the catalog, builds the ring, and spawns the supervised
    /// inference thread (which owns the streaming [`Corrector`]).
    ///
    /// Returns [`ShimError::SpawnFailed`] if the OS refuses the thread.
    pub fn new(
        catalog: &Catalog,
        config: CorrectorConfig,
        ring_capacity: usize,
    ) -> Result<Monitor, ShimError> {
        Monitor::with_policy(catalog, config, ring_capacity, SupervisorPolicy::default())
    }

    /// [`Monitor::new`] with an explicit crash-restart policy.
    pub fn with_policy(
        catalog: &Catalog,
        config: CorrectorConfig,
        ring_capacity: usize,
        policy: SupervisorPolicy,
    ) -> Result<Monitor, ShimError> {
        let catalog = Arc::new(catalog.clone());
        let (writer, reader) = snapshot_cell();
        let (state_writer, state_reader) = snapshot_cell();
        // Pre-register every service metric on the telemetry plane here,
        // on the cold path: the hot paths below only touch the returned
        // handles (single relaxed atomic ops).
        let tele = Telemetry::new();
        let registry = tele.registry();
        let shared = Arc::new(Shared {
            catalog,
            state: Mutex::new(InboundState {
                ring: RingBuffer::new(ring_capacity.max(1)),
                control: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            snapshot: reader,
            service_state: state_reader,
            subscribers: Subscribers::default(),
            closed: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            late_samples: registry.counter("ingest.late_total"),
            late_by_source: Mutex::new(Vec::new()),
            chunks_run: registry.counter("service.chunks_run"),
            windows_published: registry.counter("service.windows_published"),
            beats: registry.counter("service.beats"),
            idle: AtomicBool::new(true),
            restarts: registry.counter("supervisor.restarts"),
            divergences: registry.counter("service.divergences"),
            solve_ns: registry.histogram("solve.chunk_ns"),
            publish_ns: registry.histogram("service.publish_ns"),
            tele: tele.clone(),
            hook: Mutex::new(None),
        });
        let mut service = ServiceLoop {
            spans: shared.tele.spans().recorder(),
            shared: shared.clone(),
            writer: Some(writer),
            state: state_writer,
            config,
        };
        let handle = std::thread::Builder::new()
            .name("bayesperf-inference".into())
            .spawn(move || {
                let _shutdown = ShutdownGuard(service.shared.clone());
                policy.supervise(&mut service);
            })
            .map_err(|_| ShimError::SpawnFailed {
                what: "inference service",
            })?;
        Ok(Monitor {
            shared,
            handle: Some(handle),
        })
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Delivers one kernel sample into the ring (the producer path).
    /// Returns [`ShimError::RingOverflow`] — with the sample dropped and
    /// counted — when the service is not keeping up, and
    /// [`ShimError::SessionClosed`] after [`Monitor::close`].
    ///
    /// Samples must arrive **window-ordered**, as the kernel's per-CPU
    /// ring delivers them: a sample for window `w` declares every window
    /// `< w` complete, and later samples for completed windows are
    /// dropped as late. Concurrent producers are safe only if they do not
    /// interleave across window boundaries (e.g. one producer per
    /// monitor, or an external ordering barrier between windows).
    pub fn push_sample(&self, sample: Sample) -> Result<(), ShimError> {
        let result = {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if self.shared.closed.load(Relaxed) {
                return Err(ShimError::SessionClosed);
            }
            if st.ring.push(sample) {
                Ok(())
            } else {
                // The ring itself is the drop accounting (the kernel's
                // PERF_RECORD_LOST analogue); no parallel counter to keep
                // in lockstep.
                Err(ShimError::RingOverflow {
                    dropped: st.ring.dropped(),
                })
            }
        };
        self.shared.notify();
        result
    }

    /// Starts building a new read session.
    pub fn session(&self) -> SessionBuilder<'_> {
        SessionBuilder::new(self)
    }

    /// Blocks until every sample pushed before this call has been ingested
    /// and every complete chunk corrected and published — the
    /// deterministic barrier for recorded runs and tests: a read after it
    /// serves everything pushed before it. While the service is
    /// [`Monitor::pause`]d that guarantee cannot hold, so `sync` returns
    /// [`ShimError::ServicePaused`] instead of acking a no-op.
    pub fn sync(&self) -> Result<(), ShimError> {
        if self.shared.paused.load(Relaxed) {
            return Err(ShimError::ServicePaused);
        }
        self.shared.control_roundtrip(Control::Sync)
    }

    /// Corrects the stream's ragged tail **now**: completes all assembling
    /// windows, runs the remaining full chunks, corrects the partial final
    /// chunk (chained off the last full chunk's posterior), and publishes
    /// the result. Samples for already-flushed windows arriving later are
    /// dropped as late.
    pub fn flush(&self) -> Result<(), ShimError> {
        self.shared.control_roundtrip(Control::Flush)
    }

    /// Stops the service draining the ring, so pushed samples queue up (or
    /// overflow) deterministically — the backpressure test hook.
    pub fn pause(&self) -> Result<(), ShimError> {
        self.shared.control_roundtrip(Control::Pause)
    }

    /// Resumes draining after [`Monitor::pause`] and processes the
    /// backlog before acking.
    pub fn resume(&self) -> Result<(), ShimError> {
        self.shared.control_roundtrip(Control::Resume)
    }

    /// Installs `hook` as the service's per-publish hook: from the next
    /// publish on, the inference thread hands it every chunk's final
    /// posteriors. Replaces any previous hook; blocks until the service
    /// has installed it ([`Monitor::clear_schedule_hook`] removes it).
    pub fn set_schedule_hook(&self, hook: Box<dyn ScheduleHook>) -> Result<(), ShimError> {
        self.shared.control_roundtrip(|ack| Control::SetHook {
            hook: Some(hook),
            ack,
        })
    }

    /// Removes the per-publish hook installed by
    /// [`Monitor::set_schedule_hook`] (a no-op when none is installed).
    pub fn clear_schedule_hook(&self) -> Result<(), ShimError> {
        self.shared
            .control_roundtrip(|ack| Control::SetHook { hook: None, ack })
    }

    /// Samples dropped at the ring (backpressure) — the ring's own
    /// `PERF_RECORD_LOST`-style count.
    pub fn dropped(&self) -> u64 {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ring
            .dropped()
    }

    /// Samples dropped because they arrived for an already-completed
    /// window.
    pub fn late_samples(&self) -> u64 {
        self.shared.late_samples.get()
    }

    /// Per-source breakdown of [`Monitor::late_samples`], indexed by raw
    /// [`bayesperf_events::SourceId`]. The vector only extends as far as
    /// the highest source that has dropped a sample (empty while nothing
    /// was late); missing entries are zero.
    pub fn late_samples_by_source(&self) -> Vec<u64> {
        self.shared
            .late_by_source
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|c| c.get())
            .collect()
    }

    /// Inference runs executed (full chunks plus flushed tails).
    pub fn chunks_run(&self) -> u64 {
        self.shared.chunks_run.get()
    }

    /// Windows whose posteriors have been published.
    pub fn windows_published(&self) -> u64 {
        self.shared.windows_published.get()
    }

    /// The monitor's telemetry plane: the metrics registry every service
    /// counter lives in (`ingest.*`, `service.*`, `solve.*`,
    /// `supervisor.*`), the span tracer the pipeline stamps window
    /// lifecycles into, and the flight recorder supervision events land
    /// in. The accessors above ([`Monitor::divergences`],
    /// [`Monitor::restarts`], ...) read the same registry handles, so the
    /// two surfaces can never disagree.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// The supervisor's current view of the service: `Running`,
    /// `Restarting` (crash being recovered), or `Failed` (restart budget
    /// exhausted; reads return [`ShimError::ServiceDown`]).
    pub fn service_state(&self) -> ServiceState {
        service_state_of(&self.shared)
    }

    /// Crash restarts the supervisor has performed (monotonic). A soak
    /// harness that injects a panic spins on this counter to observe the
    /// recovery without racing the restart itself.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.get()
    }

    /// Divergences contained so far: malformed samples the chunk engine's
    /// load skipped, non-finite posteriors replaced at the publish
    /// boundary, and (slice, component) pairs whose data the chunk solve
    /// quarantined.
    pub fn divergences(&self) -> u64 {
        self.shared.divergences.get()
    }

    /// Liveness probe: `(beats, idle)`. `beats` advances once per service
    /// loop iteration and per corrected chunk; `idle` is true while the
    /// service holds no work (parked, or caught up after acking a
    /// [`Monitor::sync`]/[`Monitor::flush`]). A watchdog sampling this twice
    /// sees a *stalled* service as frozen `beats` with `idle == false` —
    /// distinct from an idle one (`idle == true`) and from a crashed one
    /// ([`Monitor::service_state`]).
    pub fn heartbeat(&self) -> (u64, bool) {
        (self.shared.beats.get(), self.shared.idle.load(Relaxed))
    }

    /// Fault-injection test hook: makes the inference thread panic the
    /// next time it processes controls, exercising the supervisor's
    /// crash-containment path. Fire-and-forget — observe the recovery via
    /// [`Monitor::restarts`] or [`Monitor::service_state`]. Returns
    /// [`ShimError::SessionClosed`] after close.
    pub fn inject_panic(&self) -> Result<(), ShimError> {
        self.shared.enqueue_control(Control::Panic)
    }

    /// Flushes the stream (tail correction published to subscribers) and
    /// stops the inference thread. Subsequent reads and pushes return
    /// [`ShimError::SessionClosed`]; subscriber iterators end after
    /// draining the flushed updates. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        let _ = handle.join();
        self.shared.closed.store(true, Relaxed);
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.close();
    }
}

/// What a [`SessionBuilder`] opens sessions on: a [`Monitor`], or the
/// fleet layer's in-process fleet.
pub trait SessionTarget {
    /// The session type opened.
    type Session;
    /// The catalog a selection is checked against.
    fn catalog(&self) -> &Catalog;
    /// Opens a session reading `selection`, or
    /// [`ShimError::SessionClosed`] once the target has closed.
    fn open_session(&self, selection: Selection) -> Result<Self::Session, ShimError>;
}

impl SessionTarget for Monitor {
    type Session = Session;

    fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    fn open_session(&self, selection: Selection) -> Result<Session, ShimError> {
        if self.shared.closed.load(Relaxed) {
            return Err(ShimError::SessionClosed);
        }
        Ok(Session {
            shared: self.shared.clone(),
            selection: Arc::new(selection),
        })
    }
}

/// Configures and opens a session on a [`SessionTarget`] — a [`Session`]
/// on a [`Monitor`] (the default), a fleet session on a fleet: which
/// events it reads. Selection defaults to the whole catalog. A builder
/// touches no service state — the chunk size is fixed at
/// [`Monitor::new`], and the per-publish hook is installed with
/// [`Monitor::set_schedule_hook`].
#[derive(Debug)]
pub struct SessionBuilder<'a, T = Monitor> {
    target: &'a T,
    events: Option<Vec<EventId>>,
    err: Option<ShimError>,
}

impl<'a, T: SessionTarget> SessionBuilder<'a, T> {
    /// A builder over `target` selecting its whole catalog (what
    /// [`Monitor::session`] returns).
    pub fn new(target: &'a T) -> Self {
        SessionBuilder {
            target,
            events: None,
            err: None,
        }
    }

    /// Restricts the session to `events` (adds to any previous selection).
    pub fn events(mut self, events: &[EventId]) -> Self {
        for &e in events {
            self = self.event(e);
        }
        self
    }

    /// Adds one event to the selection.
    pub fn event(mut self, event: EventId) -> Self {
        if event.index() >= self.target.catalog().len() {
            self.err.get_or_insert(ShimError::UnknownEvent(event));
            return self;
        }
        self.events.get_or_insert_with(Vec::new).push(event);
        self
    }

    /// Adds a derived event by name: its component raw events join the
    /// selection so the session's `read_derived` can evaluate it.
    pub fn derived(mut self, name: &str) -> Self {
        match find_derived(self.target.catalog(), name) {
            Ok(derived) => self.events(&derived.events()),
            Err(err) => {
                self.err.get_or_insert(err);
                self
            }
        }
    }

    /// Opens the session.
    pub fn open(self) -> Result<T::Session, ShimError> {
        if let Some(err) = self.err {
            return Err(err);
        }
        self.target.open_session(Selection::new(self.events))
    }
}

/// A read handle onto the monitor's posterior stream: cheap to clone,
/// sendable across threads, and **never** blocking on inference — every
/// read is served from the latest published snapshot in memory.
#[derive(Clone)]
pub struct Session {
    shared: Arc<Shared>,
    selection: Arc<Selection>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("selection", &self.selection)
            .finish()
    }
}

/// The supervisor's published state, defaulting to `Running` in the
/// startup window before the first publication.
fn service_state_of(shared: &Shared) -> ServiceState {
    shared
        .service_state
        .read()
        .map(|g| g.clone())
        .unwrap_or(ServiceState::Running)
}

/// Distinguishes "down" from "closed" for read paths: `Some(cause)` when
/// the service is terminally failed or its supervisor died without the
/// shutdown handshake — cases where a read must *not* be answered from
/// the (stale) last snapshot.
fn down_cause(shared: &Shared) -> Option<String> {
    if let ServiceState::Failed { cause } = service_state_of(shared) {
        return Some(cause);
    }
    if !shared.closed.load(Relaxed) && !shared.service_state.writer_live() {
        // The supervisor itself died (not via close/shutdown — `closed`
        // is unset). Without this check a dead compute plane would serve
        // frozen posteriors forever; this is the silent-freeze fix.
        return Some("supervisor thread died without shutdown handshake".into());
    }
    None
}

impl Session {
    fn ensure_open(&self) -> Result<(), ShimError> {
        if let Some(cause) = down_cause(&self.shared) {
            return Err(ShimError::ServiceDown { cause });
        }
        if self.shared.closed.load(Relaxed) {
            Err(ShimError::SessionClosed)
        } else {
            Ok(())
        }
    }

    /// The latest published snapshot: one lock-free acquisition.
    fn latest(&self) -> Result<SnapshotGuard<'_, PosteriorSnapshot>, ShimError> {
        self.shared.snapshot.read().ok_or(ShimError::NoPosteriorYet)
    }

    /// The supervisor's current view of the backing service — see
    /// [`Monitor::service_state`].
    pub fn service_state(&self) -> ServiceState {
        service_state_of(&self.shared)
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Reads the latest posterior of `event`. Non-blocking: one lock-free
    /// snapshot acquisition and a copy; inference never runs on this path.
    pub fn read(&self, event: EventId) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        self.selection.check(&self.shared.catalog, event)?;
        let snap = self.latest()?;
        Ok(Reading::from_gaussian(&snap.posteriors[event.index()]))
    }

    /// Reads all selected events from **one** consistent snapshot: every
    /// reading in the group comes from the same window and inference run.
    pub fn read_group(&self) -> Result<GroupReading, ShimError> {
        self.ensure_open()?;
        let snap = self.latest()?;
        Ok(GroupReading {
            window: snap.window,
            chunk: snap.chunk,
            stats: snap.stats,
            readings: self.selection.readings(&snap.posteriors),
        })
    }

    /// Evaluates a derived event (by catalog name) on the latest
    /// snapshot: the value is the metric at the posterior means, the
    /// spread a first-order propagation of each component's posterior
    /// standard deviation through the metric. The session must have
    /// selected the metric's component events
    /// ([`SessionBuilder::derived`] does exactly that); an unselected
    /// component is [`ShimError::UnknownEvent`], as on [`Session::read`].
    pub fn read_derived(&self, name: &str) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        let derived = self.selection.derived(&self.shared.catalog, name)?;
        let snap = self.latest()?;
        Ok(derived_reading(derived, &snap.posteriors))
    }

    /// Copies out the latest published posterior snapshot — the raw
    /// material for fleet-level fusion and wire scraping. Same cost as
    /// [`Session::read_group`] (one lock-free acquisition plus one copy);
    /// see [`Session::snapshot_into`] for the allocation-reusing variant.
    pub fn snapshot(&self) -> Result<SnapshotView, ShimError> {
        let mut view = SnapshotView::default();
        self.snapshot_into(&mut view)?;
        Ok(view)
    }

    /// The `(window, chunk)` stamp of the latest published snapshot,
    /// without copying its posteriors — the cheap change detector a
    /// scrape loop polls before paying for [`Session::snapshot_into`].
    pub fn snapshot_stamp(&self) -> Result<(u32, u64), ShimError> {
        self.ensure_open()?;
        let snap = self.latest()?;
        Ok((snap.window, snap.chunk))
    }

    /// Fills `view` with the latest published posterior snapshot, reusing
    /// its `posteriors` allocation — the scrape-loop path: a fleet
    /// aggregator polling many shards re-reads into the same buffers.
    pub fn snapshot_into(&self, view: &mut SnapshotView) -> Result<(), ShimError> {
        self.ensure_open()?;
        let snap = self.latest()?;
        view.window = snap.window;
        view.chunk = snap.chunk;
        view.stats = snap.stats;
        view.posteriors.clear();
        view.posteriors.extend_from_slice(&snap.posteriors);
        view.late_by_source.clear();
        view.late_by_source.extend(
            self.shared
                .late_by_source
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|c| c.get()),
        );
        Ok(())
    }

    /// Subscribes to the per-window posterior stream: the returned
    /// iterator yields one [`PosteriorUpdate`] per corrected window
    /// (filtered to this session's selection) and ends when the monitor
    /// closes. [`Updates::next`] blocks; [`Updates::try_next`] polls.
    ///
    /// The queue is bounded: a subscriber that falls more than
    /// [`UPDATE_QUEUE_CAP`] updates behind loses the overflow (never the
    /// service's progress), and the next delivered update reports it in
    /// [`PosteriorUpdate::gap`].
    pub fn subscribe(&self) -> Updates {
        self.subscribe_with_capacity(UPDATE_QUEUE_CAP)
    }

    /// [`Session::subscribe`] with an explicit queue bound: a consumer
    /// that falls more than `capacity` updates behind loses the overflow,
    /// and the next delivered update carries the skip in
    /// [`PosteriorUpdate::gap`]. Useful for consumers with a known polling
    /// cadence (and for deterministically testing the lossy path).
    pub fn subscribe_with_capacity(&self, capacity: usize) -> Updates {
        self.shared.subscribers.subscribe(&self.selection, capacity)
    }

    /// The backing monitor's telemetry plane — see [`Monitor::telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }
}

/// Evaluates a derived event over catalog-indexed `posteriors`: the value
/// is the metric at the posterior means, the spread a central-difference
/// first-order propagation of each component's posterior standard
/// deviation through the metric. Shared by [`Session::read_derived`] and
/// the fleet layer's fused reads, so per-machine and fleet-level derived
/// metrics agree by construction.
///
/// The reading is built directly rather than through `Gaussian::new`: a
/// metric with a division can go non-finite while a denominator's
/// posterior is still vague (early run), and a flat metric has zero
/// spread — both are legitimate readings, not the strictly-positive
/// variance a distribution requires. Reads must never panic.
pub fn derived_reading(derived: &DerivedEvent, posteriors: &[Gaussian]) -> Reading {
    struct MeanEnv<'a> {
        posteriors: &'a [Gaussian],
        bump: Option<(usize, f64)>,
    }
    impl EventEnv for MeanEnv<'_> {
        fn value(&self, id: EventId) -> f64 {
            let mean = self.posteriors[id.index()].mean;
            match self.bump {
                Some((i, delta)) if i == id.index() => mean + delta,
                _ => mean,
            }
        }
    }

    let value = derived.eval(&MeanEnv {
        posteriors,
        bump: None,
    });
    let mut var = 0.0;
    for e in derived.events() {
        let sd = posteriors[e.index()].std_dev();
        if sd == 0.0 {
            continue;
        }
        let hi = derived.eval(&MeanEnv {
            posteriors,
            bump: Some((e.index(), sd)),
        });
        let lo = derived.eval(&MeanEnv {
            posteriors,
            bump: Some((e.index(), -sd)),
        });
        let half = (hi - lo) / 2.0;
        var += half * half;
    }
    let std_dev = var.max(0.0).sqrt();
    Reading {
        value,
        std_dev,
        interval95: (value - 1.96 * std_dev, value + 1.96 * std_dev),
    }
}

/// Blocking iterator over a subscription's update stream: a
/// [`Session`]'s [`PosteriorUpdate`]s (the default), or a fleet
/// session's per-generation updates.
#[derive(Debug)]
pub struct Updates<U = PosteriorUpdate> {
    rx: Receiver<U>,
}

impl<U> Updates<U> {
    /// Non-blocking poll: `Ok(Some(update))` when one is queued,
    /// `Ok(None)` when the stream is open but currently empty, and
    /// `Err(SessionClosed)` once the publisher has closed and every
    /// buffered update has been drained — so a polling consumer can tell
    /// "nothing yet" from "the stream ended".
    pub fn try_next(&mut self) -> Result<Option<U>, ShimError> {
        match self.rx.try_recv() {
            Ok(u) => Ok(Some(u)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ShimError::SessionClosed),
        }
    }
}

impl<U> Iterator for Updates<U> {
    type Item = U;

    fn next(&mut self) -> Option<U> {
        self.rx.recv().ok()
    }
}

/// A complete window awaiting a full chunk.
struct PendingWindow {
    window: u32,
    /// Tracer stamp of the window's promotion — the start of its
    /// `assemble` (chunk-wait) span.
    closed_at: u64,
    samples: Vec<Sample>,
}

/// The background inference service: owns the streaming corrector, the
/// window assembly state and the snapshot writer.
struct InferenceService {
    shared: Arc<Shared>,
    catalog: Arc<Catalog>,
    config: CorrectorConfig,
    writer: SnapshotWriter<PosteriorSnapshot>,
    /// Samples of the one open window, whose index is `frontier`.
    open: Vec<Sample>,
    /// Tracer stamp of the open window's first sample — the start of its
    /// `ingest` span.
    open_started: u64,
    /// Complete windows awaiting a full chunk, in window order: a window
    /// closes only when a later one opens.
    pending: Vec<PendingWindow>,
    /// This incarnation's span ring (shared across restarts via the
    /// supervisor's clone — incarnations run serially on one thread).
    spans: SpanRecorder,
    /// Index of the open window: the lowest still accepted, so samples
    /// below it are late.
    frontier: Option<u32>,
    /// Reused ring-drain buffer.
    drained: Vec<Sample>,
    paused: bool,
    /// Warm-restart seed: the last published snapshot's posteriors, set by
    /// the supervisor when this incarnation replaces a crashed one. The
    /// corrector chains its first chunk off these, so only the poisoned
    /// in-flight chunk is cold-reset.
    resume: Option<Vec<Gaussian>>,
    /// The last finite posterior published per catalog event — the
    /// substitute handed to readers when a diverged (non-finite) marginal
    /// reaches the publish boundary despite the solve-level quarantine.
    last_good: Vec<Gaussian>,
}

impl InferenceService {
    fn new(
        shared: Arc<Shared>,
        writer: SnapshotWriter<PosteriorSnapshot>,
        config: CorrectorConfig,
        resume: Option<(u32, Vec<Gaussian>)>,
        spans: SpanRecorder,
    ) -> Self {
        let catalog = shared.catalog.clone();
        let (frontier, resume, last_good) = match resume {
            // Windows at or below the last published one were already
            // served; re-publishing them after a restart would hand
            // subscribers duplicate (and possibly reordered) updates.
            Some((w, post)) => (Some(w.saturating_add(1)), Some(post.clone()), post),
            None => (None, None, Vec::new()),
        };
        InferenceService {
            shared,
            catalog,
            config,
            writer,
            open: Vec::new(),
            open_started: 0,
            pending: Vec::new(),
            spans,
            frontier,
            drained: Vec::new(),
            paused: false,
            resume,
            last_good,
        }
    }

    fn run(mut self) {
        let mut corrector = Corrector::new(&self.catalog, self.config.clone());
        if let Some(post) = self.resume.take() {
            // Statistically warm restart: chain the first chunk off the
            // last published posterior (non-finite entries fall back to
            // the base prior inside `resume_from`).
            let _ = corrector.resume_from(&post);
        }
        loop {
            let (mut controls, shutdown) = self.wait_for_work();
            self.shared.beats.incr();
            if !self.paused {
                self.drain_and_correct(&mut corrector);
            }
            while let Some(ctrl) = controls.pop_front() {
                match ctrl {
                    Control::Sync(ack) => {
                        if !self.paused {
                            self.drain_and_correct(&mut corrector);
                        }
                        self.mark_idle_if_caught_up(controls.is_empty());
                        let _ = ack.send(());
                    }
                    Control::Flush(ack) => {
                        self.flush(&mut corrector);
                        self.mark_idle_if_caught_up(controls.is_empty());
                        let _ = ack.send(());
                    }
                    Control::Pause(ack) => {
                        self.paused = true;
                        self.shared.paused.store(true, Relaxed);
                        let _ = ack.send(());
                    }
                    Control::Resume(ack) => {
                        self.paused = false;
                        self.shared.paused.store(false, Relaxed);
                        self.drain_and_correct(&mut corrector);
                        let _ = ack.send(());
                    }
                    Control::SetHook { hook, ack } => {
                        *self.shared.hook.lock().unwrap_or_else(|e| e.into_inner()) = hook;
                        let _ = ack.send(());
                    }
                    Control::Panic => {
                        // Leave a flight-recorder trace *before* the
                        // unwind: the post-mortem should show the
                        // injection, then the restart it provoked.
                        self.shared.tele.flight().record(FlightEvent::PanicInjected);
                        panic!("injected service panic (test hook)");
                    }
                }
            }
            if shutdown {
                self.flush(&mut corrector);
                break;
            }
        }
        // ShutdownGuard performs the close handshake as it drops.
    }

    /// Blocks until there are samples to drain (unless paused), control
    /// messages, or shutdown. Returns the pending controls and the
    /// shutdown flag.
    fn wait_for_work(&mut self) -> (VecDeque<Control>, bool) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while self.has_no_work(&st) {
            // While parked here the heartbeat is legitimately frozen;
            // `idle` tells watchdogs this is a sleeping service, not a
            // stalled one.
            self.shared.idle.store(true, Relaxed);
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        self.shared.idle.store(false, Relaxed);
        (std::mem::take(&mut st.control), st.shutdown)
    }

    /// Whether `st` leaves the service nothing to do: the ring empty (or
    /// draining paused), no control queued, no shutdown requested.
    fn has_no_work(&self, st: &InboundState) -> bool {
        (self.paused || st.ring.is_empty()) && st.control.is_empty() && !st.shutdown
    }

    /// Marks the service idle before a sync or flush ack that leaves it
    /// caught up: no control left in this batch (`batch_done`) and nothing
    /// queued. Otherwise the thread would report busy from the ack until
    /// it parks, and a watchdog probing right after the ack — a fleet's
    /// refresh after its flush barrier — would read a caught-up service
    /// with a frozen heartbeat as stalled.
    fn mark_idle_if_caught_up(&self, batch_done: bool) {
        let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if batch_done && self.has_no_work(&st) {
            self.shared.idle.store(true, Relaxed);
        }
    }

    /// Drains the ring, assembles windows (dropping late samples), and
    /// corrects every complete chunk.
    fn drain_and_correct(&mut self, corrector: &mut Corrector) {
        self.drained.clear();
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.ring.drain_into(&mut self.drained);
        }
        self.ingest();
        self.correct_full_chunks(corrector);
    }

    /// Window assembly. A sample for window `w` means every window `< w`
    /// is complete (the PMU delivers window-ordered streams), so it closes
    /// the open window and opens `w`; a sample for a window *below* the
    /// frontier arrived after its window completed. If that window is
    /// still `pending` (complete, not yet corrected) the straggler is
    /// **absorbed** — the normal fate of a slow-cadence gauge source's
    /// reading landing just behind the PMU stream. Otherwise it is dropped
    /// and counted as late, totalled and per source — never re-opened.
    /// Samples are not inspected here: the chunk engine's load skips the
    /// malformed ones.
    fn ingest(&mut self) {
        let mut late = 0u64;
        let mut late_src: Vec<u64> = Vec::new();
        for i in 0..self.drained.len() {
            let s = self.drained[i];
            match self.frontier {
                Some(f) if s.window < f => {
                    if let Some(p) = self.pending.iter_mut().find(|p| p.window == s.window) {
                        p.samples.push(s);
                    } else {
                        late += 1;
                        let idx = s.source.index();
                        if late_src.len() <= idx {
                            late_src.resize(idx + 1, 0);
                        }
                        late_src[idx] += 1;
                    }
                    continue;
                }
                Some(f) if s.window > f => {
                    self.close_open_window();
                    self.frontier = Some(s.window);
                }
                None => self.frontier = Some(s.window),
                _ => {}
            }
            if self.open.is_empty() {
                // First sample of the window: the start stamp of its
                // `ingest` span (closed with the window).
                self.open_started = self.spans.now_ns();
            }
            self.open.push(s);
        }
        if late > 0 {
            self.shared.late_samples.add(late);
            let mut by_source = self
                .shared
                .late_by_source
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while by_source.len() < late_src.len() {
                // Grow-on-demand registration of the per-source counters
                // (cold: first late drop from a new source).
                let name = labeled("ingest.late_dropped", "source", by_source.len());
                by_source.push(self.shared.tele.registry().counter(&name));
            }
            for (total, n) in by_source.iter().zip(&late_src) {
                total.add(*n);
            }
        }
    }

    /// Moves the open window, if it holds samples, into `pending`, closing
    /// its `ingest` span and opening its `assemble` (chunk-wait) span.
    fn close_open_window(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let Some(window) = self.frontier else {
            return;
        };
        debug_assert!(self.pending.last().is_none_or(|p| p.window < window));
        let now = self.spans.now_ns();
        self.spans
            .record(Stage::Ingest, window, self.open_started, now);
        self.pending.push(PendingWindow {
            window,
            closed_at: now,
            samples: std::mem::take(&mut self.open),
        });
    }

    /// Closes the `assemble` spans of the windows entering a chunk solve
    /// and records the solve itself as their `solve` span (plus the
    /// `solve.chunk_ns` histogram entry).
    fn record_solve_spans(&mut self, chunk: &[PendingWindow], solve_start: u64) {
        let solve_end = self.spans.now_ns();
        self.shared
            .solve_ns
            .record(solve_end.saturating_sub(solve_start));
        for p in chunk {
            self.spans
                .record(Stage::Assemble, p.window, p.closed_at, solve_start);
            self.spans
                .record(Stage::Solve, p.window, solve_start, solve_end);
        }
    }

    fn correct_full_chunks(&mut self, corrector: &mut Corrector) {
        let k = self.config.model.slices.max(1);
        while self.pending.len() >= k {
            self.correct_pending(corrector, k);
            // A long multi-chunk drain still beats once per chunk, so
            // watchdogs don't mistake a busy service for a stalled one.
            self.shared.beats.incr();
        }
    }

    /// Corrects the first `n` pending windows as one chunk, a full one
    /// (`n == k`) or the stream's ragged tail (`n < k`), and publishes it.
    fn correct_pending(&mut self, corrector: &mut Corrector, n: usize) {
        let chunk: Vec<PendingWindow> = self.pending.drain(..n).collect();
        let refs: Vec<&[Sample]> = chunk.iter().map(|p| p.samples.as_slice()).collect();
        let solve_start = self.spans.now_ns();
        let solved = if n == self.config.model.slices.max(1) {
            corrector.try_push_chunk(&refs)
        } else {
            corrector.push_tail(&refs).map(|(_, stats)| stats)
        };
        // A mismatched chunk cannot occur (the caller sized it); drop it
        // rather than poison the service.
        let Ok(stats) = solved else { return };
        self.record_solve_spans(&chunk, solve_start);
        let windows: Vec<u32> = chunk.iter().map(|p| p.window).collect();
        self.publish(&windows, stats, |t, e| corrector.posterior(t, e));
    }

    /// Corrects the stream's ragged tail: the open window is closed,
    /// remaining full chunks run, and the final partial chunk is corrected
    /// on the corrector's engine like any other.
    fn flush(&mut self, corrector: &mut Corrector) {
        self.drain_and_correct(corrector);
        self.close_open_window();
        let highest = self.pending.last().map(|p| p.window);
        self.correct_full_chunks(corrector);
        if !self.pending.is_empty() {
            self.correct_pending(corrector, self.pending.len());
        }
        // Anything arriving for flushed windows from here on is late.
        if let Some(h) = highest {
            let next = h.saturating_add(1);
            if self.frontier.is_none_or(|f| f < next) {
                self.frontier = Some(next);
            }
        }
    }

    /// Publishes one corrected chunk: a per-window [`PosteriorUpdate`] to
    /// every subscriber and a fresh read snapshot of the final window.
    fn publish(
        &mut self,
        windows: &[u32],
        stats: EpRunStats,
        posterior: impl Fn(usize, EventId) -> Gaussian,
    ) {
        let Some(&last_window) = windows.last() else {
            // Publish is only called with non-empty chunks; an empty one
            // has nothing to publish.
            return;
        };
        let publish_start = self.spans.now_ns();

        // Materialize each window's catalog-indexed posteriors once;
        // per-subscriber work inside the lock is then a cheap filtered
        // copy instead of S×k engine walks.
        let mut per_window: Vec<Vec<Gaussian>> = (0..windows.len())
            .map(|t| self.catalog.iter().map(|e| posterior(t, e.id)).collect())
            .collect();

        // Divergence containment at the publish boundary — the last line
        // of defense behind the chunk solve's quarantine. A non-finite or
        // non-positive-variance marginal is replaced with the event's
        // last finite published posterior; if the event has never had
        // one, the whole publish is dropped rather than handing readers
        // a poisoned snapshot.
        let mut substituted = 0u64;
        let mut unpublishable = false;
        for wv in &mut per_window {
            for (e, g) in wv.iter_mut().enumerate() {
                if g.mean.is_finite() && g.var.is_finite() && g.var > 0.0 {
                    continue;
                }
                substituted += 1;
                match self.last_good.get(e).copied() {
                    Some(lg) => *g = lg,
                    None => unpublishable = true,
                }
            }
        }
        let diverged = substituted + stats.sites_quarantined + stats.samples_rejected;
        if diverged > 0 {
            self.shared.divergences.add(diverged);
            self.shared
                .tele
                .flight()
                .record(FlightEvent::DivergenceQuarantined {
                    window: last_window,
                    sites: diverged,
                });
        }
        if unpublishable {
            self.shared
                .tele
                .flight()
                .record(FlightEvent::PublishVetoed {
                    window: windows[0],
                    reason: "diverged posterior with no finite predecessor to substitute",
                });
            return;
        }
        if let Some(last) = per_window.last() {
            self.last_good.clone_from(last);
        }

        let chunk = self.shared.chunks_run.fetch_add(1) + 1;
        self.shared.windows_published.add(windows.len() as u64);

        for (&w, full) in windows.iter().zip(&per_window) {
            let update = |gap, posteriors| PosteriorUpdate {
                window: w,
                gap,
                chunk,
                stats,
                posteriors,
            };
            self.shared.subscribers.offer(u64::from(w), full, update);
        }

        let Some(final_posteriors) = per_window.pop() else {
            return;
        };
        {
            // Call the hook *before* the buffer moves into the snapshot:
            // it sees exactly what readers are about to. The hook lives on
            // `Shared` so it survives restarts.
            let mut hook = self.shared.hook.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hook) = hook.as_mut() {
                hook.on_publish(last_window, chunk, &final_posteriors);
            }
        }
        self.writer.publish(PosteriorSnapshot {
            window: last_window,
            chunk,
            stats,
            posteriors: final_posteriors,
        });
        let publish_end = self.spans.now_ns();
        self.shared
            .publish_ns
            .record(publish_end.saturating_sub(publish_start));
        for &w in windows {
            self.spans
                .record(Stage::Publish, w, publish_start, publish_end);
        }
    }
}

/// The inference thread's loop under [`SupervisorPolicy::supervise`].
/// Each incarnation is a fresh [`InferenceService`]; a contained panic
/// costs only that incarnation:
///
/// 1. the crashed incarnation's snapshot writer (dropped mid-unwind) is
///    reclaimed via [`SnapshotReader::recover_writer`] — readers kept
///    serving the last published snapshot throughout;
/// 2. the next incarnation warm-starts from that snapshot (only the
///    poisoned in-flight chunk is cold-reset) and resumes the ring, the
///    queued controls, and the installed schedule hook, all of which live
///    on [`Shared`] rather than in the incarnation;
/// 3. restarts publish [`ServiceState::Restarting`], and the crash that
///    exhausts the budget publishes a typed [`ServiceState::Failed`].
struct ServiceLoop {
    shared: Arc<Shared>,
    /// The first incarnation's writer; later ones recover theirs.
    writer: Option<SnapshotWriter<PosteriorSnapshot>>,
    state: SnapshotWriter<ServiceState>,
    config: CorrectorConfig,
    /// One span ring for the inference thread, shared across incarnations
    /// (they run serially; the clone per incarnation shares the ring).
    spans: SpanRecorder,
}

impl Supervised for ServiceLoop {
    fn run(&mut self) {
        // Reclaim publication rights on the intact snapshot cell; the
        // crashed incarnation's writer dropped mid-unwind.
        let writer = self
            .writer
            .take()
            .or_else(|| self.shared.snapshot.recover_writer());
        let Some(writer) = writer else {
            self.on_give_up("snapshot writer unrecoverable".into());
            return;
        };
        self.state.publish(ServiceState::Running);
        let resume = self
            .shared
            .snapshot
            .read()
            .map(|g| (g.window, g.posteriors.clone()));
        InferenceService::new(
            self.shared.clone(),
            writer,
            self.config.clone(),
            resume,
            self.spans.clone(),
        )
        .run();
    }

    fn progress(&self) -> u64 {
        // An incarnation that published before dying made progress.
        self.shared.chunks_run.get()
    }

    /// Records and publishes restart `n` before [`Monitor::restarts`]
    /// reads `n`, so a waiter on the count never sees the crashed
    /// incarnation's state: the counter's release increment pairs with
    /// that acquire read. Only this thread writes the counter.
    fn on_restart(&mut self, cause: String, backoff: Duration) {
        let restarts = self.shared.restarts.get() + 1;
        self.shared
            .tele
            .flight()
            .record(FlightEvent::ServiceRestart {
                restarts,
                cause: cause.clone(),
            });
        self.state
            .publish(ServiceState::Restarting { restarts, cause });
        if !backoff.is_zero() {
            self.shared.tele.flight().record(FlightEvent::BackoffPark {
                millis: u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
            });
        }
        self.shared.restarts.incr();
    }

    fn on_give_up(&mut self, cause: String) {
        self.shared
            .tele
            .flight()
            .record(FlightEvent::ServiceFailed {
                cause: cause.clone(),
            });
        // Refuse new work and end the update streams before announcing
        // the failure, so whoever sees `Failed` also sees pushes refused
        // and a new subscription ended. The shutdown guard would do it
        // only once the thread exits, after the dump below.
        {
            let _st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.closed.store(true, Relaxed);
        }
        self.shared.subscribers.close();
        self.state.publish(ServiceState::Failed { cause });
        // The automatic post-mortem: seal the flight ring at the moment
        // of death so the dump survives whatever happens to the ring
        // afterwards, and surface it on stderr for operators not polling
        // the recorder.
        let dump = self.shared.tele.flight().seal();
        eprintln!("bayesperf inference service failed; flight recorder:\n{dump}");
    }

    /// Waits on the service condvar, so [`Monitor::close`] interrupts
    /// the backoff.
    fn wait(&mut self, backoff: Duration) -> bool {
        let deadline = Instant::now() + backoff;
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.shutdown {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
}

/// The shutdown handshake, run when the supervised inference thread
/// exits for any reason — clean shutdown, terminal failure, even a
/// supervisor bug unwinding — but NOT on a contained service crash, so
/// sessions stay live across restarts:
/// 1. mark closed and drop any controls that raced in, under the state
///    lock (dropping a control's ack sender errors its caller's recv into
///    SessionClosed; `enqueue_control` checks `closed` under the same
///    lock, so none slip in after);
/// 2. close the subscriber set, so every stream ends once drained and a
///    later subscription ends at once.
///
/// In-flight controls already dequeued by a crashing service loop unwind
/// before `catch_unwind` returns, erroring their acks too.
struct ShutdownGuard(Arc<Shared>);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            self.0.closed.store(true, Relaxed);
            st.control.clear();
        }
        self.0.subscribers.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::{Arch, Semantic};
    use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig};
    use bayesperf_workloads::kmeans;

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

    fn feed(monitor: &Monitor, run: &MultiplexRun) {
        for w in &run.windows {
            for s in &w.samples {
                let _ = monitor.push_sample(*s);
            }
        }
    }

    #[test]
    fn session_handles_are_send_sync_and_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<Session>();
    }

    #[test]
    fn read_before_any_chunk_is_no_posterior_yet() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let session = monitor.session().open().expect("open");
        let ev = cat.require(Semantic::L1dMisses);
        assert_eq!(session.read(ev), Err(ShimError::NoPosteriorYet));
        assert!(matches!(
            session.read_group(),
            Err(ShimError::NoPosteriorYet)
        ));
    }

    #[test]
    fn unknown_and_unselected_events_are_typed_errors() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let l1d = cat.require(Semantic::L1dMisses);
        let llc = cat.require(Semantic::LlcMisses);
        let session = monitor.session().event(l1d).open().expect("open");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        assert!(session.read(l1d).is_ok());
        assert_eq!(session.read(llc), Err(ShimError::UnknownEvent(llc)));
        let bogus = EventId::from_raw(u16::MAX);
        assert_eq!(session.read(bogus), Err(ShimError::UnknownEvent(bogus)));
        assert!(matches!(
            monitor.session().event(bogus).open(),
            Err(ShimError::UnknownEvent(_))
        ));
        assert!(matches!(
            monitor.session().derived("no-such-metric").open(),
            Err(ShimError::UnknownDerived(_))
        ));
    }

    #[test]
    fn reads_after_close_are_session_closed() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let mut monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let session = monitor.session().open().expect("open");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        let ev = cat.require(Semantic::L1dMisses);
        assert!(session.read(ev).is_ok());
        monitor.close();
        assert_eq!(session.read(ev), Err(ShimError::SessionClosed));
        assert_eq!(
            monitor.push_sample(run.windows[0].samples[0]),
            Err(ShimError::SessionClosed)
        );
        assert!(matches!(
            monitor.session().open(),
            Err(ShimError::SessionClosed)
        ));
    }

    #[test]
    fn read_group_is_internally_consistent() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let session = monitor.session().open().expect("open");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        let group = session.read_group().expect("group");
        assert_eq!(group.readings.len(), cat.len());
        assert!(group.stats.sweeps_run > 0);
        let ev = cat.require(Semantic::L1dMisses);
        let single = session.read(ev).expect("read");
        let in_group = group
            .readings
            .iter()
            .find(|(e, _)| *e == ev)
            .map(|(_, r)| *r)
            .expect("selected");
        assert_eq!(single, in_group, "same snapshot serves both paths");
    }

    #[test]
    fn derived_event_reads_propagate_uncertainty() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let name = cat.derived_events()[0].name.clone();
        let session = monitor.session().derived(&name).open().expect("open");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        let r = session.read_derived(&name).expect("derived read");
        assert!(r.value.is_finite());
        assert!(r.std_dev > 0.0, "uncertainty propagates through the metric");
        assert_eq!(
            session.read_derived("missing"),
            Err(ShimError::UnknownDerived("missing".into()))
        );
        // Selection is an access contract: a session that did not select
        // the metric's components cannot read it through the back door.
        let narrow = monitor
            .session()
            .event(cat.require(Semantic::L1dMisses))
            .open()
            .expect("open");
        assert!(matches!(
            narrow.read_derived(&name),
            Err(ShimError::UnknownEvent(_))
        ));
    }

    #[test]
    fn sync_refuses_while_paused_instead_of_acking_a_noop() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 1 << 14).expect("spawn monitor");
        monitor.pause().expect("pause");
        feed(&monitor, &run);
        // Paused: the sync barrier cannot guarantee processing, so it
        // must say so rather than return Ok with nothing corrected.
        assert_eq!(monitor.sync(), Err(ShimError::ServicePaused));
        monitor.resume().expect("resume");
        monitor.sync().expect("sync after resume");
        assert!(monitor.chunks_run() > 0, "backlog processed on resume");
    }

    #[test]
    fn late_samples_are_dropped_and_counted() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 8);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        assert_eq!(monitor.late_samples(), 0);
        // A straggler for window 0 arrives long after window 0 completed.
        let mut late = run.windows[0].samples[0];
        late.window = 0;
        monitor.push_sample(late).expect("ring has room");
        monitor.sync().expect("sync");
        assert_eq!(monitor.late_samples(), 1, "late sample dropped + counted");
        // It must not re-open window 0: a flush finds nothing stuck.
        monitor.flush().expect("flush");
        assert_eq!(monitor.late_samples(), 1);
    }

    /// Satellite regression: sources with cadences 16x apart (PMU at 1,
    /// power gauge at 16). A slow-cadence reading landing after the PMU
    /// stream completed its window is *absorbed* while the window is
    /// still pending (complete, not yet corrected), and dropped-and-
    /// counted **per source** once the window has been corrected — never
    /// leaked back into `assembling`.
    #[test]
    fn slow_cadence_stragglers_absorb_or_drop_per_source() {
        let cat = Catalog::with_observation_plane(Arch::X86SkyLake);
        let run = recorded_run(&cat, 20);
        let cfg = CorrectorConfig::for_run(&run);
        let k = cfg.model.slices;
        // 20 windows at k=6: windows 0..18 complete when window 19's
        // samples arrive; 0..17 corrected; 18 stays pending.
        assert_eq!(k, 6, "fixture assumes the default chunk size");
        let monitor = Monitor::new(&cat, cfg, 1 << 14).expect("spawn monitor");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        assert_eq!(monitor.late_samples(), 0);

        let power = cat
            .sources()
            .iter()
            .find(|s| s.cadence == 16)
            .expect("a 16x-slower source");
        let ev = cat.events_of_source(power.id)[0];
        let gauge = |window: u32| Sample {
            event: ev,
            window,
            value: 1.0,
            sub_mean: 1.0,
            sub_sd: 0.0,
            sub_n: 1,
            time_enabled: 1,
            time_running: 1,
            source: power.id,
        };

        // Straggler for the completed-but-uncorrected window: absorbed.
        monitor.push_sample(gauge(18)).expect("ring has room");
        monitor.sync().expect("sync");
        assert_eq!(monitor.late_samples(), 0, "pending window absorbs it");
        assert!(monitor.late_samples_by_source().is_empty());

        // Straggler for an already-corrected window: dropped, and the
        // drop is charged to the gauge source, not the PMU.
        monitor.push_sample(gauge(16)).expect("ring has room");
        monitor.sync().expect("sync");
        assert_eq!(monitor.late_samples(), 1);
        let by_source = monitor.late_samples_by_source();
        assert_eq!(by_source[power.id.index()], 1);
        assert!(
            by_source[..power.id.index()].iter().all(|&c| c == 0),
            "no other source charged"
        );

        // Nothing leaked into assembly: the flush finds nothing stuck and
        // the absorbed reading went out with its window.
        monitor.flush().expect("flush");
        assert_eq!(monitor.late_samples(), 1);
        assert_eq!(
            monitor.windows_published(),
            run.windows.len() as u64,
            "every window (including the absorbing one) was corrected"
        );
    }

    #[test]
    fn flush_corrects_the_partial_final_chunk() {
        let cat = Catalog::new(Arch::X86SkyLake);
        // 9 windows, chunk size 6: one full chunk + a 3-window tail that
        // the pre-redesign shim silently dropped.
        let run = recorded_run(&cat, 9);
        let cfg = CorrectorConfig::for_run(&run);
        let k = cfg.model.slices;
        assert!(
            !run.windows.len().is_multiple_of(k),
            "fixture must have a ragged tail"
        );
        let monitor = Monitor::new(&cat, cfg, 1 << 14).expect("spawn monitor");
        let session = monitor.session().open().expect("open");
        let mut updates = session.subscribe();
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        assert_eq!(monitor.windows_published(), k as u64, "tail not yet run");
        monitor.flush().expect("flush");
        assert_eq!(
            monitor.windows_published(),
            run.windows.len() as u64,
            "flush corrected the tail windows"
        );
        let ev = cat.require(Semantic::L1dMisses);
        let r = session.read(ev).expect("tail posterior served");
        assert!(r.value.is_finite() && r.std_dev > 0.0);
        // The flush ack guarantees all updates are already queued.
        let mut windows = Vec::new();
        while let Ok(Some(u)) = updates.try_next() {
            windows.push(u.window);
        }
        assert_eq!(
            windows,
            (0..run.windows.len() as u32).collect::<Vec<_>>(),
            "every window published exactly once, in order"
        );
    }

    /// The service runs the chunk engine's load guard rather than a check
    /// of its own: a window whose every sample is malformed still takes
    /// its place in assembly and is corrected at its own index, and each
    /// malformed sample is counted once as a divergence.
    #[test]
    fn malformed_windows_keep_their_index_and_are_counted() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 9);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 1 << 14).expect("spawn monitor");
        let session = monitor.session().open().expect("open");
        let mut updates = session.subscribe();
        let mut poisoned = 0u64;
        for w in &run.windows {
            for &s in &w.samples {
                let s = if w.index == 3 {
                    poisoned += 1;
                    Sample {
                        value: f64::NAN,
                        ..s
                    }
                } else {
                    s
                };
                monitor.push_sample(s).expect("ring has room");
            }
        }
        monitor.flush().expect("flush");
        assert!(poisoned > 0);
        assert_eq!(monitor.divergences(), poisoned);
        let mut windows = Vec::new();
        while let Ok(Some(u)) = updates.try_next() {
            assert!(u.posteriors.iter().all(|(_, g)| g.mean.is_finite()));
            windows.push(u.window);
        }
        assert_eq!(windows, (0..run.windows.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_hook_sees_every_publish_in_order() {
        struct Recorder(Arc<Mutex<Vec<(u32, u64, usize)>>>);
        impl ScheduleHook for Recorder {
            fn on_publish(&mut self, window: u32, chunk: u64, posteriors: &[Gaussian]) {
                assert!(posteriors.iter().all(|g| g.mean.is_finite() && g.var > 0.0));
                self.0
                    .lock()
                    .unwrap()
                    .push((window, chunk, posteriors.len()));
            }
        }
        let cat = Catalog::new(Arch::X86SkyLake);
        let run = recorded_run(&cat, 12);
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 1 << 14).expect("spawn monitor");
        let log = Arc::new(Mutex::new(Vec::new()));
        monitor
            .set_schedule_hook(Box::new(Recorder(log.clone())))
            .expect("install hook");
        feed(&monitor, &run);
        monitor.sync().expect("sync");
        monitor.flush().expect("flush");
        let seen = log.lock().unwrap().clone();
        assert_eq!(
            seen.len() as u64,
            monitor.chunks_run(),
            "one hook call per inference run"
        );
        // Final windows strictly increase, chunk counter is 1-based and
        // consecutive, and every call carried a full catalog of posteriors.
        for (i, &(w, c, n)) in seen.iter().enumerate() {
            assert_eq!(c, i as u64 + 1);
            assert_eq!(n, cat.len());
            if i > 0 {
                assert!(w > seen[i - 1].0);
            }
        }
        assert_eq!(seen.last().unwrap().0, 11, "flush published the tail");
        // Clearing the hook stops the calls.
        monitor.clear_schedule_hook().expect("clear");
        feed(&monitor, &run); // late samples only; no new chunks anyway
        monitor.sync().expect("sync");
        assert_eq!(log.lock().unwrap().len(), seen.len());
    }
}
