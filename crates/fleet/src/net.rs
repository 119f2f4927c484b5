//! The scrape plane: per-shard scrape servers, an aggregator-side
//! concurrent scrape client, and a deterministic fault-injection
//! transport.
//!
//! This module ships [`wire`] frames across real byte boundaries and —
//! the part that matters — survives them. It is also the only fleet
//! aggregation path: the in-process [`Fleet`](crate::Fleet) runs a
//! [`FleetScraper`] over an in-process transport. The pieces:
//!
//! * [`ScrapeResponder`] — shard-side request handler: answers a
//!   [`ScrapeRequest`](wire::ScrapeRequest) with either a tiny
//!   `Unchanged` ack (the client's stamp is current — steady-state bytes
//!   scale with change rate, not catalog size) or a full snapshot.
//! * [`ScrapeServer`] — serves a responder over TCP or a Unix-domain
//!   socket, length-framed with the hard [`wire::MAX_FRAME_LEN`] bound.
//! * [`ShardTransport`] — one request/response exchange against a
//!   deadline. [`TcpTransport`] and [`UnixTransport`] talk to real
//!   sockets (lazy reconnect, remaining-deadline bookkeeping);
//!   [`SimTransport`] wraps a responder in a seeded
//!   [`bayesperf_simcpu::LinkState`] so 100+ shard fleets
//!   with drops, lag, corruption and partitions run deterministically
//!   in-process with virtual time.
//! * [`FleetScraper`] — the aggregator: polls every endpoint each
//!   [`poll_round`](FleetScraper::poll_round) (concurrently, with
//!   bounded retries and per-endpoint exponential backoff with seeded
//!   jitter), feeds the per-shard [`health`](crate::health) state
//!   machine, and publishes health-aware fused [`FleetSnapshot`]s
//!   through a lock-free snapshot cell. The calling thread polls the
//!   first chunk of endpoints itself; the other chunks move to
//!   long-lived `scrape-poll-N` threads, which the scraper starts the
//!   first time a round needs them and joins when it drops, so a round
//!   creates no thread. Each polling thread records its scrape spans in
//!   its own span ring.
//!
//! Failure philosophy: a scrape failure is *evidence about the link*,
//! not about the shard's data — the cached posterior is still the best
//! available opinion, it is just aging. So failures widen (inflate) the
//! cached contribution rather than dropping it, until the cache is so
//! old ([`HealthState::Dead`]) that keeping it
//! would let an arbitrarily stale opinion steer the fleet posterior.

use crate::fleet::FleetUpdate;
use crate::fuse::{Aggregator, FleetSnapshot, ShardStatus};
use crate::health::{FailureKind, HealthPolicy, HealthState, ShardHealth, ShardHealthView};
use crate::topology::{ShardId, ShardLabel};
use crate::wire;
use bayesperf_core::{
    snapshot_cell, Session, ShimError, SnapshotReader, SnapshotView, Subscribers,
};
use bayesperf_inference::Gaussian;
use bayesperf_obs::{
    labeled, merge_metrics, Counter, FlightEvent, Histogram, MetricSnapshot, SpanRecorder, Stage,
    Telemetry,
};
use bayesperf_simcpu::{LinkFate, LinkState};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64, for backoff jitter (same mixer the simulator uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a scrape server serves: a stamped posterior snapshot. Implemented
/// by [`Session`] (the real shard path) and by anything test code wants
/// to stand in for one.
pub trait SnapshotSource {
    /// The `(window, chunk)` stamp of the current snapshot — the cheap
    /// delta-scrape pre-check. Errors mean "no snapshot published yet".
    fn source_stamp(&self) -> Result<(u32, u64), ShimError>;
    /// The current snapshot view.
    fn source_view(&self) -> Result<SnapshotView, ShimError>;
    /// The source's metrics-registry dump, if it has a telemetry plane.
    /// The default `None` keeps plain test sources trivial; the server
    /// answers a telemetry request against it with an empty dump.
    fn source_metrics(&self) -> Option<Vec<MetricSnapshot>> {
        None
    }
}

impl SnapshotSource for Session {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        self.snapshot_stamp()
    }
    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        self.snapshot()
    }
    fn source_metrics(&self) -> Option<Vec<MetricSnapshot>> {
        Some(self.telemetry().registry().snapshot())
    }
}

impl<S: SnapshotSource + ?Sized> SnapshotSource for Arc<S> {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        (**self).source_stamp()
    }
    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        (**self).source_view()
    }
    fn source_metrics(&self) -> Option<Vec<MetricSnapshot>> {
        (**self).source_metrics()
    }
}

/// Shard-side scrape logic, transport-agnostic: turns one decoded
/// request into one encoded response. Both the socket servers and the
/// in-process [`SimTransport`] drive the same responder, so the fault
/// harness exercises the exact protocol the sockets carry.
#[derive(Debug)]
pub struct ScrapeResponder<S> {
    shard: ShardId,
    label: ShardLabel,
    source: S,
}

impl<S: SnapshotSource> ScrapeResponder<S> {
    /// A responder serving `source` as shard `shard`.
    pub fn new(shard: ShardId, label: ShardLabel, source: S) -> ScrapeResponder<S> {
        ScrapeResponder {
            shard,
            label,
            source,
        }
    }

    /// Which shard this responder serves as.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The snapshot source this responder serves.
    pub(crate) fn source(&self) -> &S {
        &self.source
    }

    /// Answers `req` into `out` (cleared first). The client's stamp being
    /// current — or the source having no snapshot yet — yields a tiny
    /// `Unchanged` ack; anything else yields the full snapshot.
    pub fn respond(&self, req: &wire::ScrapeRequest, out: &mut Vec<u8>) {
        out.clear();
        let stamp = match self.source_stamp_now() {
            // No snapshot yet: (0, 0) is the reserved "nothing published"
            // stamp (chunk counters are 1-based).
            None => return wire::encode_unchanged(0, 0, out),
            Some(stamp) => stamp,
        };
        if stamp == (req.last_window, req.last_chunk) {
            return wire::encode_unchanged(stamp.0, stamp.1, out);
        }
        match self.source.source_view() {
            Ok(view) => wire::encode_shard_view(self.shard, &self.label, &view, out),
            // The snapshot vanished between stamp and view (source shut
            // down); answer as "nothing published".
            Err(_) => wire::encode_unchanged(0, 0, out),
        }
    }

    /// Answers one raw request payload of *either* request kind into
    /// `out`: scrape requests via [`respond`](ScrapeResponder::respond),
    /// telemetry requests (wire v3) with the source's metrics-registry
    /// dump. A frame that is not a request is a typed error — connection
    /// handlers drop the peer, the server stays up.
    pub fn respond_frame(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), ShimError> {
        match wire::peek_kind(payload)? {
            wire::KIND_SCRAPE_REQ => {
                let (req, _) = wire::decode_request(payload)?;
                self.respond(&req, out);
                Ok(())
            }
            wire::KIND_TELEMETRY_REQ => {
                wire::decode_telemetry_request(payload)?;
                out.clear();
                let metrics = self.source.source_metrics().unwrap_or_default();
                wire::encode_telemetry(&metrics, out);
                Ok(())
            }
            _ => Err(ShimError::WireMalformed {
                what: "record kind is not a request",
            }),
        }
    }

    fn source_stamp_now(&self) -> Option<(u32, u64)> {
        self.source.source_stamp().ok()
    }
}

/// Serves a [`ScrapeResponder`] over TCP or a Unix-domain socket:
/// accepts connections on a background thread, one handler thread per
/// connection, all frames bounded by [`wire::MAX_FRAME_LEN`]. Shuts down
/// (and joins the accept thread) on drop.
pub struct ScrapeServer {
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

/// How long blocked accept/read calls wait before re-checking shutdown.
const SERVER_POLL: Duration = Duration::from_millis(20);

impl ScrapeServer {
    /// Serves `responder` on TCP `addr` (e.g. `"127.0.0.1:0"` to let the
    /// OS pick a port — read it back with [`local_addr`]).
    ///
    /// [`local_addr`]: ScrapeServer::local_addr
    pub fn bind_tcp<S>(addr: &str, responder: ScrapeResponder<S>) -> std::io::Result<ScrapeServer>
    where
        S: SnapshotSource + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let responder = Arc::new(responder);
        let accept = thread::spawn(move || loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    spawn_conn_tcp(stream, Arc::clone(&responder), Arc::clone(&stop))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(SERVER_POLL),
                Err(_) => thread::sleep(SERVER_POLL),
            }
        });
        Ok(ScrapeServer {
            shutdown,
            accept: Some(accept),
            addr: Some(local),
            unix_path: None,
        })
    }

    /// Serves `responder` on a Unix-domain socket at `path` (removed on
    /// shutdown; a stale socket file from a crashed process is replaced).
    pub fn bind_unix<S>(path: &Path, responder: ScrapeResponder<S>) -> std::io::Result<ScrapeServer>
    where
        S: SnapshotSource + Send + Sync + 'static,
    {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let responder = Arc::new(responder);
        let accept = thread::spawn(move || loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    spawn_conn_unix(stream, Arc::clone(&responder), Arc::clone(&stop))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(SERVER_POLL),
                Err(_) => thread::sleep(SERVER_POLL),
            }
        });
        Ok(ScrapeServer {
            shutdown,
            accept: Some(accept),
            addr: None,
            unix_path: Some(path.to_path_buf()),
        })
    }

    /// The TCP address actually bound (None for Unix-domain servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn spawn_conn_tcp<S>(stream: TcpStream, responder: Arc<ScrapeResponder<S>>, stop: Arc<AtomicBool>)
where
    S: SnapshotSource + Send + Sync + 'static,
{
    let _ = stream.set_read_timeout(Some(SERVER_POLL));
    let _ = stream.set_nodelay(true);
    thread::spawn(move || serve_conn(stream, &responder, &stop));
}

fn spawn_conn_unix<S>(stream: UnixStream, responder: Arc<ScrapeResponder<S>>, stop: Arc<AtomicBool>)
where
    S: SnapshotSource + Send + Sync + 'static,
{
    let _ = stream.set_read_timeout(Some(SERVER_POLL));
    thread::spawn(move || serve_conn(stream, &responder, &stop));
}

/// One connection's request loop: framed request in, framed response
/// out, until EOF, a protocol violation, or server shutdown.
fn serve_conn<C, S>(mut stream: C, responder: &ScrapeResponder<S>, stop: &AtomicBool)
where
    C: Read + Write,
    S: SnapshotSource,
{
    let mut payload = Vec::new();
    let mut response = Vec::new();
    let mut framed = Vec::new();
    loop {
        let mut prefix = [0u8; wire::FRAME_PREFIX_LEN];
        match read_exact_poll(&mut stream, &mut prefix, stop) {
            ReadOutcome::Done => {}
            ReadOutcome::Closed => return,
        }
        // A hostile length prefix is rejected here, before any
        // allocation — the connection is dropped, not the server.
        let len = match wire::frame_len(prefix) {
            Ok(len) => len,
            Err(_) => return,
        };
        payload.clear();
        payload.resize(len, 0);
        match read_exact_poll(&mut stream, &mut payload, stop) {
            ReadOutcome::Done => {}
            ReadOutcome::Closed => return,
        }
        if responder.respond_frame(&payload, &mut response).is_err() {
            return;
        }
        framed.clear();
        if wire::encode_frame(&response, &mut framed).is_err() {
            return;
        }
        if stream.write_all(&framed).is_err() {
            return;
        }
    }
}

enum ReadOutcome {
    Done,
    Closed,
}

/// `read_exact` that re-checks `stop` across read-timeout ticks, so
/// handler threads exit promptly on shutdown instead of blocking in a
/// dead read.
fn read_exact_poll<C: Read>(stream: &mut C, buf: &mut [u8], stop: &AtomicBool) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::Acquire) {
            return ReadOutcome::Closed;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Done
}

/// One request/response exchange against a shard, under a deadline.
/// Implementations own reconnection; a failed exchange must leave the
/// transport ready to try again next round.
pub trait ShardTransport: Send {
    /// Sends the *unframed* request payload and returns the unframed
    /// response payload. Framing (where the transport has a byte stream)
    /// is the transport's business.
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError>;
}

/// Scrapes a shard over TCP: lazy connect, one in-flight request at a
/// time, remaining-deadline bookkeeping across connect/write/read. Any
/// failure drops the connection so the next round reconnects fresh.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl TcpTransport {
    /// A transport that will (re)connect to `addr` on demand.
    pub fn new(addr: SocketAddr) -> TcpTransport {
        TcpTransport { addr, stream: None }
    }
}

impl ShardTransport for TcpTransport {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let start = Instant::now();
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, deadline).map_err(io_error)?;
            stream.set_nodelay(true).map_err(io_error)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let out = socket_exchange(
            stream,
            request,
            start,
            deadline,
            |s, d| s.set_write_timeout(Some(d)),
            |s, d| s.set_read_timeout(Some(d)),
        );
        if out.is_err() {
            self.stream = None;
        }
        out
    }
}

/// Scrapes a shard over a Unix-domain socket. Same lifecycle as
/// [`TcpTransport`].
#[derive(Debug)]
pub struct UnixTransport {
    path: PathBuf,
    stream: Option<UnixStream>,
}

impl UnixTransport {
    /// A transport that will (re)connect to the socket at `path`.
    pub fn new(path: impl Into<PathBuf>) -> UnixTransport {
        UnixTransport {
            path: path.into(),
            stream: None,
        }
    }
}

impl ShardTransport for UnixTransport {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let start = Instant::now();
        if self.stream.is_none() {
            self.stream = Some(UnixStream::connect(&self.path).map_err(io_error)?);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let out = socket_exchange(
            stream,
            request,
            start,
            deadline,
            |s, d| s.set_write_timeout(Some(d)),
            |s, d| s.set_read_timeout(Some(d)),
        );
        if out.is_err() {
            self.stream = None;
        }
        out
    }
}

/// The shared framed-exchange body of the socket transports: frame and
/// send the request, then read the length-bounded framed response, each
/// step against the *remaining* deadline.
fn socket_exchange<C: Read + Write>(
    stream: &mut C,
    request: &[u8],
    start: Instant,
    deadline: Duration,
    set_write: impl Fn(&C, Duration) -> std::io::Result<()>,
    set_read: impl Fn(&C, Duration) -> std::io::Result<()>,
) -> Result<Vec<u8>, ShimError> {
    let remaining = |start: Instant| -> Result<Duration, ShimError> {
        let left = deadline.saturating_sub(start.elapsed());
        if left.is_zero() {
            Err(ShimError::ScrapeTimeout)
        } else {
            Ok(left)
        }
    };
    let mut framed = Vec::with_capacity(request.len() + wire::FRAME_PREFIX_LEN);
    wire::encode_frame(request, &mut framed)?;
    set_write(stream, remaining(start)?).map_err(io_error)?;
    stream.write_all(&framed).map_err(io_error)?;
    let mut prefix = [0u8; wire::FRAME_PREFIX_LEN];
    set_read(stream, remaining(start)?).map_err(io_error)?;
    stream.read_exact(&mut prefix).map_err(io_error)?;
    // Bound checked before the response buffer is allocated.
    let len = wire::frame_len(prefix)?;
    let mut payload = vec![0u8; len];
    set_read(stream, remaining(start)?).map_err(io_error)?;
    stream.read_exact(&mut payload).map_err(io_error)?;
    Ok(payload)
}

/// Maps socket errors into the scrape error taxonomy: timeouts are
/// [`ShimError::ScrapeTimeout`] (soft evidence — retry), everything else
/// is [`ShimError::LinkDown`] (reconnect next round).
fn io_error(e: std::io::Error) -> ShimError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ShimError::ScrapeTimeout,
        ErrorKind::ConnectionRefused => ShimError::LinkDown {
            what: "connection refused",
        },
        ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted => {
            ShimError::LinkDown {
                what: "connection reset",
            }
        }
        ErrorKind::UnexpectedEof => ShimError::LinkDown {
            what: "peer closed mid-frame",
        },
        _ => ShimError::LinkDown {
            what: "socket i/o failed",
        },
    }
}

/// A fault-injecting in-process transport: drives a [`ScrapeResponder`]
/// directly, with every exchange's fate decided by a seeded
/// [`LinkState`]. Latency is virtual (drawn and compared against the
/// deadline, never slept), so 100+ shard lossy fleets simulate in
/// milliseconds — and deterministically, which real sockets can never
/// promise.
pub struct SimTransport<S> {
    responder: Arc<ScrapeResponder<S>>,
    link: LinkState,
}

impl<S: SnapshotSource> SimTransport<S> {
    /// Wraps `responder` behind the fault model `link`.
    pub fn new(responder: Arc<ScrapeResponder<S>>, link: LinkState) -> SimTransport<S> {
        SimTransport { responder, link }
    }

    /// The link's fault state (exchange counts, partition phase).
    pub fn link(&self) -> &LinkState {
        &self.link
    }
}

impl<S: SnapshotSource + Send + Sync> ShardTransport for SimTransport<S> {
    fn exchange(&mut self, request: &[u8], deadline: Duration) -> Result<Vec<u8>, ShimError> {
        let deadline_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        match self.link.exchange(deadline_us) {
            // A drop and an over-deadline delay are indistinguishable to
            // the caller: the deadline expires.
            LinkFate::Dropped | LinkFate::TimedOut { .. } => Err(ShimError::ScrapeTimeout),
            LinkFate::Partitioned => Err(ShimError::LinkDown {
                what: "link partitioned",
            }),
            LinkFate::Delivered { corrupt, .. } => {
                let mut out = Vec::new();
                self.responder.respond_frame(request, &mut out)?;
                if let Some((word, mask)) = corrupt {
                    if !out.is_empty() {
                        let at = usize::try_from(word % out.len() as u64).expect("index < len");
                        out[at] ^= mask;
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Tuning for [`FleetScraper`].
#[derive(Debug, Clone)]
pub struct ScrapeConfig {
    /// Per-request deadline (each retry gets a fresh one).
    pub deadline: Duration,
    /// Extra attempts after a failed exchange within one round.
    pub retries: u32,
    /// Backoff ceiling: a persistently failing endpoint is still probed
    /// at least once every `backoff_cap_rounds + 1` rounds, so Dead
    /// shards can recover.
    pub backoff_cap_rounds: u32,
    /// Seed for backoff jitter (de-synchronizes retry storms).
    pub jitter_seed: u64,
    /// Threads that poll endpoints each round: the calling thread plus
    /// `concurrency − 1` long-lived polling threads, started the first
    /// time a round splits into more than one chunk and joined when the
    /// scraper drops.
    pub concurrency: usize,
    /// The staleness state machine thresholds and inflation constants.
    pub health: HealthPolicy,
}

impl Default for ScrapeConfig {
    fn default() -> ScrapeConfig {
        ScrapeConfig {
            deadline: Duration::from_millis(250),
            retries: 2,
            backoff_cap_rounds: 8,
            jitter_seed: 0x5ca1_ab1e,
            concurrency: 8,
            health: HealthPolicy::default(),
        }
    }
}

/// Rounds to skip after `consecutive_fails` failed rounds: exponential
/// (`0, 1..2, 3..5, 7..10, …` with seeded jitter), capped at `cap` so a
/// down endpoint keeps being probed. Pure in `(fails, cap, *rng)`.
pub fn backoff_rounds(consecutive_fails: u32, cap: u32, rng: &mut u64) -> u32 {
    if consecutive_fails == 0 {
        return 0;
    }
    let base = 1u32 << (consecutive_fails - 1).min(16);
    let base = base.min(cap.max(1));
    let jitter_span = u64::from(base / 2);
    let jitter = if jitter_span > 0 {
        (splitmix64(rng) % (jitter_span + 1)) as u32
    } else {
        0
    };
    (base - 1 + jitter).min(cap)
}

struct Endpoint {
    shard: ShardId,
    label: ShardLabel,
    transport: Box<dyn ShardTransport>,
    health: ShardHealth,
    /// Stamp of the cached snapshot (what delta requests advertise).
    last: Option<(u32, u64)>,
    /// The cached contribution: status + posteriors of the last full
    /// snapshot received.
    cache: Option<(ShardStatus, Vec<Gaussian>)>,
    /// Rounds left to skip (backoff cooldown).
    cooldown: u32,
    /// Consecutive failed rounds, driving the backoff exponent.
    fails: u32,
    /// Per-endpoint jitter stream.
    rng: u64,
    /// Health view and cache stamp as of the previous round: transition
    /// telemetry, and the change detector that keeps rounds in which
    /// nothing moved from republishing.
    view: ShardHealthView,
    seen: Option<(u32, u64)>,
}

/// What one [`FleetScraper::poll_round`] did — the observability and
/// benchmarking surface of the scrape plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based round index.
    pub round: u64,
    /// Whether a new fused snapshot was published this round: some
    /// endpoint's cached snapshot, its health view, or the endpoint set
    /// changed, and at least one endpoint contributes.
    pub published: bool,
    /// Endpoints with a non-Dead cached posterior — the contributions
    /// fusion uses when the round publishes.
    pub contributors: usize,
    /// Endpoints currently Dead (excluded from fusion).
    pub dead: usize,
    /// Endpoints actually polled this round.
    pub attempted: usize,
    /// Endpoints skipped in backoff cooldown.
    pub skipped: usize,
    /// Request bytes sent (per attempt, unframed payload).
    pub bytes_sent: u64,
    /// Response bytes received (unframed payload).
    pub bytes_received: u64,
    /// Full snapshot responses decoded.
    pub full_snapshots: usize,
    /// `Unchanged` acks received.
    pub unchanged: usize,
    /// Endpoints whose round failed after all retries.
    pub failures: usize,
}

impl RoundReport {
    /// Adds the per-endpoint counts of `part` (one chunk's polls) to this
    /// report.
    fn absorb(&mut self, part: &RoundReport) {
        self.attempted += part.attempted;
        self.skipped += part.skipped;
        self.bytes_sent += part.bytes_sent;
        self.bytes_received += part.bytes_received;
        self.full_snapshots += part.full_snapshots;
        self.unchanged += part.unchanged;
        self.failures += part.failures;
    }
}

/// Cumulative scrape-plane totals since the scraper was built — the sums
/// of every [`RoundReport`] so far, read from the telemetry registry
/// (the registry is the one source of truth; this struct is the typed
/// accessor over it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrapeTotals {
    /// Rounds run.
    pub rounds: u64,
    /// Rounds that published a fused snapshot.
    pub published: u64,
    /// Endpoint polls attempted.
    pub attempted: u64,
    /// Endpoint polls skipped in backoff cooldown.
    pub skipped: u64,
    /// Request bytes sent (unframed payloads, retries included).
    pub bytes_sent: u64,
    /// Response bytes received (unframed payloads).
    pub bytes_received: u64,
    /// Full snapshot responses decoded.
    pub full_snapshots: u64,
    /// `Unchanged` acks received.
    pub unchanged: u64,
    /// Endpoint rounds that failed after all retries.
    pub failures: u64,
}

/// Pre-registered scrape-plane metric handles: creation is cold-path,
/// recording is one relaxed atomic op per round-report count per round.
/// Cloning shares the handles (they are `Arc`s onto the same registry
/// slots), which is how a scraper-backed [`FleetSession`] reads live
/// totals without reaching into the scraper.
///
/// [`FleetSession`]: crate::FleetSession
#[derive(Clone)]
pub(crate) struct ScrapeMetrics {
    rounds: Counter,
    published: Counter,
    attempted: Counter,
    skipped: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    full_snapshots: Counter,
    unchanged: Counter,
    failures: Counter,
    /// Total payload bytes moved per round (sent + received).
    round_bytes: Histogram,
    /// `health.transitions{state}` counters, indexed like
    /// [`state_idx`]: healthy, degraded, stale, dead.
    transitions: [Counter; 4],
}

fn state_idx(state: HealthState) -> usize {
    match state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Stale => 2,
        HealthState::Dead => 3,
    }
}

impl ScrapeMetrics {
    /// The current cumulative totals, read live from the counter handles.
    pub(crate) fn totals(&self) -> ScrapeTotals {
        ScrapeTotals {
            rounds: self.rounds.get(),
            published: self.published.get(),
            attempted: self.attempted.get(),
            skipped: self.skipped.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            full_snapshots: self.full_snapshots.get(),
            unchanged: self.unchanged.get(),
            failures: self.failures.get(),
        }
    }

    fn new(tele: &Telemetry) -> ScrapeMetrics {
        let r = tele.registry();
        ScrapeMetrics {
            rounds: r.counter("scrape.rounds"),
            published: r.counter("scrape.rounds_published"),
            attempted: r.counter("scrape.attempted"),
            skipped: r.counter("scrape.skipped"),
            bytes_sent: r.counter("scrape.bytes_sent"),
            bytes_received: r.counter("scrape.bytes_received"),
            full_snapshots: r.counter("scrape.full_snapshots"),
            unchanged: r.counter("scrape.unchanged"),
            failures: r.counter("scrape.failures"),
            round_bytes: r.histogram("scrape.round_bytes"),
            transitions: [
                r.counter(&labeled("health.transitions", "state", "healthy")),
                r.counter(&labeled("health.transitions", "state", "degraded")),
                r.counter(&labeled("health.transitions", "state", "stale")),
                r.counter(&labeled("health.transitions", "state", "dead")),
            ],
        }
    }
}

/// The aggregator-side scrape client: owns N shard endpoints, polls them
/// concurrently once per [`poll_round`](FleetScraper::poll_round), runs
/// the health state machine, and publishes health-aware fused
/// [`FleetSnapshot`]s through a lock-free cell and to the update streams
/// of its sessions' subscribers.
///
/// The scraper is *caller-pumped*: each `poll_round` is one synchronous
/// pass, so tests and benches drive it at virtual speed while a
/// production loop calls it on a timer (the in-process
/// [`Fleet`](crate::Fleet) runs one on its ticker thread). Backoff is
/// therefore measured in rounds, not wall time.
pub struct FleetScraper {
    config: ScrapeConfig,
    /// Catalog size: the posterior count every cached contribution has.
    n_events: usize,
    endpoints: Vec<Endpoint>,
    agg: Aggregator,
    writer: bayesperf_core::SnapshotWriter<FleetSnapshot>,
    reader: SnapshotReader<FleetSnapshot>,
    generation: u64,
    round: u64,
    /// Whether anything a reader would see changed since the last
    /// published generation.
    changed: bool,
    tele: Telemetry,
    pub(crate) metrics: ScrapeMetrics,
    /// Last merged shard metric dump from [`poll_telemetry`], shared with
    /// scraper-backed [`FleetSession`](crate::FleetSession)s.
    ///
    /// [`poll_telemetry`]: FleetScraper::poll_telemetry
    pub(crate) scraped: Arc<Mutex<Vec<MetricSnapshot>>>,
    /// Update queues of this scraper's sessions' subscribers.
    pub(crate) subscribers: Arc<Subscribers<FleetUpdate>>,
    /// The calling thread's span ring: the scrape spans of the chunk it
    /// polls and the fuse spans of `publish` (poll_round is caller-pumped,
    /// so the ring has one writer at a time).
    spans: SpanRecorder,
    /// The polling threads beside the caller; thread `k` polls chunk
    /// `k + 1`. Started on first need, joined on drop.
    pollers: Vec<Poller>,
    /// Where each round leaves the polling threads their chunks.
    handoff: Arc<Handoff>,
}

impl FleetScraper {
    /// A scraper fusing a catalog of `n_events` events under `config`.
    pub fn new(n_events: usize, config: ScrapeConfig) -> FleetScraper {
        let (writer, reader) = snapshot_cell();
        let tele = Telemetry::new();
        let metrics = ScrapeMetrics::new(&tele);
        let spans = tele.spans().recorder();
        FleetScraper {
            config,
            n_events,
            endpoints: Vec::new(),
            agg: Aggregator::new(n_events),
            writer,
            reader,
            generation: 0,
            round: 0,
            changed: false,
            tele,
            metrics,
            scraped: Arc::new(Mutex::new(Vec::new())),
            subscribers: Arc::default(),
            spans,
            pollers: Vec::new(),
            handoff: Arc::default(),
        }
    }

    /// The scraper's telemetry plane: the `scrape.*` / `health.*` metric
    /// namespace, the scrape/fuse span rings, and the flight recorder
    /// that logs health transitions. Scrape spans go to one ring per
    /// polling thread, the caller's included (its ring also takes the fuse
    /// spans), so the tracer keeps the last
    /// [`DEFAULT_SPAN_CAPACITY`](bayesperf_obs::DEFAULT_SPAN_CAPACITY)
    /// spans of each polling thread, not of each endpoint.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Cumulative totals of every round so far (the running sums of the
    /// per-round [`RoundReport`]s, served from the telemetry registry).
    pub fn totals(&self) -> ScrapeTotals {
        self.metrics.totals()
    }

    /// Pulls every endpoint's metrics-registry dump (one wire-v3
    /// telemetry exchange per endpoint; endpoints that fail or predate
    /// the telemetry kind are skipped), caches the merged shard dump for
    /// scraper-backed sessions, and returns it merged with the scraper's
    /// own registry — one fleet-wide metric dump. Cold path: an operator
    /// surface, not part of the scrape rounds.
    pub fn poll_telemetry(&mut self) -> Vec<MetricSnapshot> {
        let mut request = Vec::new();
        wire::encode_telemetry_request(&mut request);
        let mut shards: Vec<MetricSnapshot> = Vec::new();
        for ep in &mut self.endpoints {
            let Ok(response) = ep.transport.exchange(&request, self.config.deadline) else {
                continue;
            };
            let Ok((metrics, _)) = wire::decode_telemetry(&response) else {
                continue;
            };
            merge_metrics(&mut shards, &metrics);
        }
        *self.scraped.lock().unwrap_or_else(|e| e.into_inner()) = shards.clone();
        let mut fleet = self.tele.registry().snapshot();
        merge_metrics(&mut fleet, &shards);
        fleet
    }

    /// Opens a fleet-scoped read session over this scraper's published
    /// fused snapshots: the same [`FleetSession`] surface an in-process
    /// [`Fleet`] serves (`read` / `read_group` / `read_derived` /
    /// `snapshot` / `subscribe`), backed by the networked scrape plane.
    /// Subscribers receive one update per published generation; their
    /// streams end when the scraper is dropped. The session also reads
    /// the scraper's live [`ScrapeTotals`] and the fleet-wide metric dump
    /// cached by [`poll_telemetry`](FleetScraper::poll_telemetry).
    ///
    /// [`Fleet`]: crate::Fleet
    /// [`FleetSession`]: crate::FleetSession
    pub fn session(&self, catalog: &bayesperf_events::Catalog) -> crate::FleetSession {
        crate::fleet::scraper_session(catalog, self)
    }

    /// Registers a shard endpoint. The scraper knows the topology — a
    /// response claiming a different shard id is a decode failure, not a
    /// membership change.
    pub fn add_endpoint(
        &mut self,
        shard: ShardId,
        label: ShardLabel,
        transport: Box<dyn ShardTransport>,
    ) {
        let mut rng = self.config.jitter_seed ^ u64::from(shard.raw()).wrapping_mul(0x9e37_79b9);
        splitmix64(&mut rng);
        self.endpoints.push(Endpoint {
            shard,
            label,
            transport,
            health: ShardHealth::default(),
            last: None,
            cache: None,
            cooldown: 0,
            fails: 0,
            rng,
            view: ShardHealthView::healthy(shard),
            seen: None,
        });
        self.changed = true;
    }

    /// Removes a shard endpoint (its cached contribution leaves fusion
    /// at the next round).
    pub fn remove_endpoint(&mut self, shard: ShardId) -> Result<(), ShimError> {
        match self.endpoints.iter().position(|e| e.shard == shard) {
            Some(i) => {
                self.endpoints.remove(i);
                self.changed = true;
                Ok(())
            }
            None => Err(ShimError::UnknownShard { shard: shard.raw() }),
        }
    }

    /// Registered endpoints.
    pub fn endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// A wait-free reader of the published fused snapshots (cloneable,
    /// usable from any thread).
    pub fn reader(&self) -> SnapshotReader<FleetSnapshot> {
        self.reader.clone()
    }

    /// Runs one scrape round: poll every endpoint not in cooldown (on
    /// up to `config.concurrency` threads: this one and the scraper's
    /// long-lived polling threads), update per-shard health, and — when
    /// some endpoint's cached snapshot, its health view, or the endpoint
    /// set changed since the last published generation — fuse the
    /// non-Dead cached contributions with staleness inflation and publish
    /// the result. A round in which nothing moved publishes nothing, so
    /// idle fleets do not spin generations. When nothing contributes (all
    /// Dead, or nothing scraped yet) the previous published snapshot
    /// stays in place — readers never see the fleet posterior disappear.
    ///
    /// # Panics
    ///
    /// A panic raised while polling an endpoint (by its transport, say)
    /// is caught on the thread that raised it and re-raised here, with
    /// its original payload, once every chunk of endpoints is back: the
    /// first in chunk order if several chunks panicked. The scraper keeps
    /// all its endpoints, in registration order, and the next round polls
    /// them all. A round that panics records no counts.
    pub fn poll_round(&mut self) -> RoundReport {
        self.round += 1;
        let mut report = self.poll_endpoints();
        self.metrics.rounds.incr();
        self.metrics.attempted.add(report.attempted as u64);
        self.metrics.skipped.add(report.skipped as u64);
        self.metrics.bytes_sent.add(report.bytes_sent);
        self.metrics.bytes_received.add(report.bytes_received);
        self.metrics
            .full_snapshots
            .add(report.full_snapshots as u64);
        self.metrics.unchanged.add(report.unchanged as u64);
        self.metrics.failures.add(report.failures as u64);
        self.metrics
            .round_bytes
            .record(report.bytes_sent + report.bytes_received);
        let mut dead = 0;
        let mut contributors = 0;
        for ep in &mut self.endpoints {
            let view = ShardHealthView::observe(ep.shard, &ep.health, &self.config.health);
            if view.state != ep.view.state {
                self.metrics.transitions[state_idx(view.state)].incr();
                self.tele.flight().record(FlightEvent::HealthTransition {
                    shard: ep.shard.raw(),
                    from: ep.view.state.name(),
                    to: view.state.name(),
                });
            }
            if !view.state.contributes() {
                dead += 1;
            } else if ep.cache.is_some() {
                contributors += 1;
            }
            self.changed |= view != ep.view || ep.last != ep.seen;
            ep.view = view;
            ep.seen = ep.last;
        }
        let published = contributors > 0 && self.changed;
        if published {
            self.publish();
        }
        report.round = self.round;
        report.published = published;
        report.contributors = contributors;
        report.dead = dead;
        report
    }

    /// Fuses every non-Dead cached contribution under this round's health
    /// views, publishes the result as the next generation, and hands it to
    /// subscribers.
    fn publish(&mut self) {
        let fuse_start = self.spans.now_ns();
        self.agg.begin();
        let mut top_window = 0u32;
        for ep in &self.endpoints {
            match &ep.cache {
                Some((status, posteriors)) if ep.view.state.contributes() => {
                    top_window = top_window.max(status.window);
                    // `poll_endpoint` rejects snapshots whose posterior
                    // count differs from the catalog, so a cached entry is
                    // always catalog-sized.
                    self.agg
                        .absorb_shard(status.clone(), ep.view.clone(), posteriors)
                        .expect("cached contribution is catalog-sized");
                }
                _ => self.agg.note_health(ep.view.clone()),
            }
        }
        self.generation += 1;
        let snap = self
            .agg
            .fuse(self.generation)
            .expect("at least one contributor absorbed");
        let update = |gap, posteriors| FleetUpdate {
            generation: snap.generation,
            gap,
            max_window: snap.max_window(),
            shards: snap.shards.len(),
            posteriors,
        };
        self.subscribers.offer(snap.generation, &snap.fused, update);
        self.writer.publish(snap);
        self.metrics.published.incr();
        self.changed = false;
        // The fuse span is tagged with the freshest window that entered
        // fusion, closing that window's end-to-end trace.
        self.spans.record_since(Stage::Fuse, top_window, fuse_start);
    }

    /// The polling phase: the endpoints split into at most
    /// `config.concurrency` contiguous chunks of `len.div_ceil(concurrency)`.
    /// Each chunk after the first moves into its polling thread's slot
    /// (the threads start here on first need), one broadcast wakes them
    /// all, and this thread polls the first chunk meanwhile on its own
    /// span ring. The chunks come back in order, so endpoints keep
    /// registration order; all state touched is per-endpoint, so threads
    /// never contend. A round with one chunk involves no other thread,
    /// lock or condition variable. A panic while polling any chunk is
    /// re-raised once every chunk is home; if several chunks panicked, the
    /// lowest chunk's payload is the one raised.
    fn poll_endpoints(&mut self) -> RoundReport {
        let chunk = self
            .endpoints
            .len()
            .div_ceil(self.config.concurrency.max(1))
            .max(1);
        let others = self.endpoints.len().div_ceil(chunk).saturating_sub(1);
        while self.pollers.len() < others {
            let poller = Poller::spawn(
                Arc::clone(&self.handoff),
                self.pollers.len(),
                self.config.clone(),
                self.n_events,
                self.tele.spans().recorder(),
            );
            self.pollers.push(poller);
        }
        if others > 0 {
            let mut slots = self.handoff.lock();
            // Last chunk first, so each split takes the tail.
            for (k, slot) in slots[..others].iter_mut().enumerate().rev() {
                *slot = Slot::Chunk(self.endpoints.split_off((k + 1) * chunk));
            }
            drop(slots);
            self.handoff.posted.notify_all();
        }
        let mut round = poll_chunk(
            &mut self.endpoints,
            &self.config,
            self.n_events,
            &self.spans,
        );
        for poller in &self.pollers[..others] {
            let (mut eps, polled) = poller
                .done
                .recv()
                .expect("a polling thread hands back every chunk");
            self.endpoints.append(&mut eps);
            round = match (round, polled) {
                (Ok(mut total), Ok(part)) => {
                    total.absorb(&part);
                    Ok(total)
                }
                (Err(payload), _) | (_, Err(payload)) => Err(payload),
            };
        }
        round.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

impl Drop for FleetScraper {
    fn drop(&mut self) {
        // No generation can follow: end every subscriber stream.
        self.subscribers.close();
        // Polling threads are idle between rounds, so no join waits on an
        // exchange.
        self.handoff.lock().fill_with(|| Slot::Closed);
        self.handoff.posted.notify_all();
        for poller in self.pollers.drain(..) {
            let _ = poller.thread.join();
        }
    }
}

/// What a polling thread hands back: its chunk, and the chunk's counts or
/// the payload of a panic raised while polling it.
type Polled = (Vec<Endpoint>, thread::Result<RoundReport>);

/// What a round leaves a polling thread.
#[derive(Default)]
enum Slot {
    /// Nothing to do.
    #[default]
    Empty,
    /// This round's chunk, until the thread claims it.
    Chunk(Vec<Endpoint>),
    /// The scraper is dropping: the thread exits.
    Closed,
}

/// One slot per polling thread, and the condition variable they all wait
/// on. A round fills its slots and wakes every thread with one broadcast:
/// woken one by one, each thread could preempt the caller before it
/// woke the next.
#[derive(Default)]
struct Handoff {
    slots: Mutex<Vec<Slot>>,
    posted: Condvar,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, Vec<Slot>> {
        // Every update is one assignment, so poisoned slots are whole.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until slot `k` holds something, and takes it.
    fn wait(&self, k: usize) -> Slot {
        let mut slots = self.lock();
        while matches!(slots[k], Slot::Empty) {
            slots = self
                .posted
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut slots[k])
    }
}

/// A long-lived polling thread: it claims each chunk of endpoints left in
/// its slot, polls it on its own span ring, and sends it back, until its
/// slot closes.
struct Poller {
    done: mpsc::Receiver<Polled>,
    thread: thread::JoinHandle<()>,
}

impl Poller {
    /// Starts `scrape-poll-{k + 1}` on slot `k`, polling under `config`
    /// and recording on `spans`.
    fn spawn(
        handoff: Arc<Handoff>,
        k: usize,
        config: ScrapeConfig,
        n_events: usize,
        spans: SpanRecorder,
    ) -> Poller {
        handoff.lock().push(Slot::Empty);
        let (outbox, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name(format!("scrape-poll-{}", k + 1))
            .spawn(move || {
                while let Slot::Chunk(mut eps) = handoff.wait(k) {
                    let polled = poll_chunk(&mut eps, &config, n_events, &spans);
                    if outbox.send((eps, polled)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn a scrape polling thread");
        Poller { done, thread }
    }
}

/// Polls `eps` in order, recording on `spans`, and sums their counts. A
/// panic is caught here, on the thread that raised it, so the chunk always
/// goes home.
fn poll_chunk(
    eps: &mut [Endpoint],
    config: &ScrapeConfig,
    n_events: usize,
    spans: &SpanRecorder,
) -> thread::Result<RoundReport> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        let mut report = RoundReport::default();
        for ep in eps {
            poll_endpoint(ep, config, n_events, spans, &mut report);
        }
        report
    }))
}

/// One endpoint's round: honor cooldown, otherwise exchange with bounded
/// retries, classify the outcome into health, and set the next cooldown.
/// Only snapshots with `n_events` posteriors are cached for fusion. The
/// exchange's scrape span goes to `spans`, the polling thread's ring; the
/// counts add to `report`.
fn poll_endpoint(
    ep: &mut Endpoint,
    config: &ScrapeConfig,
    n_events: usize,
    spans: &SpanRecorder,
    report: &mut RoundReport,
) {
    if ep.cooldown > 0 {
        ep.cooldown -= 1;
        ep.health.on_skipped();
        report.skipped += 1;
        return;
    }
    report.attempted += 1;
    let (last_window, last_chunk) = ep.last.unwrap_or((0, 0));
    let req = wire::ScrapeRequest {
        last_window,
        last_chunk,
    };
    let mut request = Vec::new();
    wire::encode_request(&req, &mut request);
    let scrape_start = spans.now_ns();
    let mut scraped_window = None;
    let mut last_err = ShimError::ScrapeTimeout;
    let mut succeeded = false;
    for _ in 0..=config.retries {
        report.bytes_sent += request.len() as u64;
        let response = match ep.transport.exchange(&request, config.deadline) {
            Ok(r) => r,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        report.bytes_received += response.len() as u64;
        match wire::decode_response(&response) {
            Ok((wire::ScrapeResponse::Unchanged { window, chunk }, _)) => {
                if (window, chunk) == (0, 0) && ep.last.is_some() {
                    // The shard lost its snapshot (restart): our cache no
                    // longer reflects anything it would serve.
                    ep.last = None;
                    ep.cache = None;
                }
                scraped_window = Some(window);
                report.unchanged += 1;
                succeeded = true;
            }
            Ok((wire::ScrapeResponse::Snapshot(snap), _)) => {
                if snap.shard != ep.shard {
                    last_err = ShimError::WireMalformed {
                        what: "scrape response from a different shard",
                    };
                    continue;
                }
                if snap.posteriors.len() != n_events {
                    // A well-formed frame from a foreign catalog cannot be
                    // fused: a failed exchange, retried and then aged by
                    // health like any other.
                    last_err = ShimError::CatalogMismatch {
                        expected: n_events,
                        got: snap.posteriors.len(),
                    };
                    continue;
                }
                ep.last = Some((snap.window, snap.chunk));
                scraped_window = Some(snap.window);
                let mut status = snap.status();
                // The registered topology label is authoritative; a
                // scraped shard cannot rename itself on the wire.
                status.label = ep.label.clone();
                ep.cache = Some((status, snap.posteriors));
                report.full_snapshots += 1;
                succeeded = true;
            }
            Err(e) => {
                last_err = e;
                continue;
            }
        }
        break;
    }
    if let Some(window) = scraped_window {
        // Tagged with the window the exchange actually carried, so a
        // window's trace extends across the byte boundary.
        spans.record_since(Stage::Scrape, window, scrape_start);
    }
    if succeeded {
        ep.health.on_success();
        ep.fails = 0;
        ep.cooldown = 0;
    } else {
        ep.health.on_failure(FailureKind::from_error(&last_err));
        report.failures += 1;
        ep.fails = ep.fails.saturating_add(1);
        ep.cooldown = backoff_rounds(ep.fails, config.backoff_cap_rounds, &mut ep.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_inference::EpRunStats;
    use bayesperf_simcpu::LinkProfile;
    use std::sync::atomic::AtomicU64;

    /// A snapshot source whose stamp/posteriors are driven by a counter:
    /// bump the counter, the "shard" has a new snapshot.
    struct SynthSource {
        shard: u32,
        version: AtomicU64,
        events: usize,
    }

    impl SynthSource {
        fn new(shard: u32, events: usize) -> SynthSource {
            SynthSource {
                shard,
                version: AtomicU64::new(1),
                events,
            }
        }
        fn bump(&self) {
            self.version.fetch_add(1, Ordering::Relaxed);
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
                posteriors: (0..self.events)
                    .map(|e| {
                        Gaussian::new(
                            10.0 + self.shard as f64 + e as f64 + v as f64 * 0.1,
                            1.0 + e as f64 * 0.5,
                        )
                    })
                    .collect(),
            })
        }
    }

    fn responder(shard: u32, events: usize) -> Arc<ScrapeResponder<SynthSource>> {
        Arc::new(ScrapeResponder::new(
            ShardId::from_raw(shard),
            ShardLabel::new(format!("m{shard}"), 0),
            SynthSource::new(shard, events),
        ))
    }

    #[test]
    fn delta_scrapes_ack_unchanged_until_the_source_moves() {
        let r = responder(0, 2);
        let mut t = SimTransport::new(Arc::clone(&r), LinkState::new(LinkProfile::clean(1)));
        let mut req = Vec::new();
        wire::encode_request(&wire::ScrapeRequest::default(), &mut req);
        let resp = t.exchange(&req, Duration::from_millis(10)).unwrap();
        let snap = match wire::decode_response(&resp).unwrap().0 {
            wire::ScrapeResponse::Snapshot(s) => s,
            other => panic!("first scrape must be full: {other:?}"),
        };
        // Second scrape with the fresh stamp: tiny Unchanged ack.
        let mut req2 = Vec::new();
        wire::encode_request(
            &wire::ScrapeRequest {
                last_window: snap.window,
                last_chunk: snap.chunk,
            },
            &mut req2,
        );
        let resp2 = t.exchange(&req2, Duration::from_millis(10)).unwrap();
        assert!(resp2.len() < resp.len() / 2, "ack must be tiny");
        assert!(matches!(
            wire::decode_response(&resp2).unwrap().0,
            wire::ScrapeResponse::Unchanged { .. }
        ));
        // Source moves: full snapshot again.
        r.source.bump();
        let resp3 = t.exchange(&req2, Duration::from_millis(10)).unwrap();
        assert!(matches!(
            wire::decode_response(&resp3).unwrap().0,
            wire::ScrapeResponse::Snapshot(_)
        ));
    }

    #[test]
    fn scraper_fuses_clean_fleet_and_acks_keep_it_healthy() {
        let mut scraper = FleetScraper::new(2, ScrapeConfig::default());
        for shard in 0..4u32 {
            let r = responder(shard, 2);
            scraper.add_endpoint(
                ShardId::from_raw(shard),
                ShardLabel::new(format!("m{shard}"), 0),
                Box::new(SimTransport::new(
                    r,
                    LinkState::new(LinkProfile::clean(shard as u64)),
                )),
            );
        }
        let reader = scraper.reader();
        let first = scraper.poll_round();
        assert!(first.published);
        assert_eq!(first.contributors, 4);
        assert_eq!(first.full_snapshots, 4);
        let snap = reader.read().expect("published");
        assert_eq!(snap.shards.len(), 4);
        assert_eq!(snap.health.len(), 4);
        assert!(snap
            .health
            .iter()
            .all(|h| h.state == crate::HealthState::Healthy));
        assert!(snap.fused.iter().all(|g| g.var.is_finite() && g.var > 0.0));
        let first_generation = snap.generation;
        drop(snap);
        // Steady state: every endpoint acks Unchanged, stays Healthy,
        // and the round's bytes collapse to acks. Nothing a reader could
        // see changed, so the published generation holds.
        let second = scraper.poll_round();
        assert_eq!(second.unchanged, 4);
        assert_eq!(second.full_snapshots, 0);
        assert_eq!(
            reader.read().expect("still published").generation,
            first_generation
        );
        assert!(second.bytes_received < first.bytes_received / 2);
    }

    #[test]
    fn backoff_is_capped_jittered_and_resets() {
        let mut rng = 7u64;
        assert_eq!(backoff_rounds(0, 8, &mut rng), 0);
        assert_eq!(
            backoff_rounds(1, 8, &mut rng),
            0,
            "first failure retries next round"
        );
        for fails in 2..40 {
            let c = backoff_rounds(fails, 8, &mut rng);
            assert!(c <= 8, "cap respected: {c}");
            assert!(c >= 1, "repeated failure must cool down: {c}");
        }
        // Jitter varies across draws for the same failure count.
        let draws: Vec<u32> = (0..32).map(|_| backoff_rounds(4, 8, &mut rng)).collect();
        assert!(
            draws.iter().any(|&c| c != draws[0]),
            "jitter must vary: {draws:?}"
        );
        // Huge failure counts don't overflow the shift.
        assert!(backoff_rounds(u32::MAX, 8, &mut rng) <= 8);
    }

    #[test]
    fn wrong_shard_id_in_response_is_a_decode_failure() {
        let mut scraper = FleetScraper::new(2, ScrapeConfig::default());
        // Endpoint registered as shard 5, responder claims shard 0.
        let r = responder(0, 2);
        scraper.add_endpoint(
            ShardId::from_raw(5),
            ShardLabel::new("m5", 0),
            Box::new(SimTransport::new(r, LinkState::new(LinkProfile::clean(3)))),
        );
        let report = scraper.poll_round();
        assert_eq!(report.failures, 1);
        assert!(!report.published);
        let snap = scraper.reader();
        assert!(snap.read().is_none(), "nothing fusable was scraped");
    }
}
