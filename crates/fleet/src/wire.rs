//! The versioned binary snapshot wire codec.
//!
//! Shards and aggregators usually live in different processes (or
//! machines): a scraper pulls each shard's latest posterior snapshot over
//! a byte boundary, fuses, and republishes a fleet summary. This module
//! defines that byte layout — hand-rolled, allocation-light, and free of
//! any serde machinery on the hot path:
//!
//! * **Header** — 4-byte magic `"BPWF"`, a format version byte, and a
//!   record-kind byte ([`KIND_SHARD`] / [`KIND_SUMMARY`]). Unknown
//!   versions and kinds are typed errors, so old scrapers fail loud, not
//!   garbled.
//! * **Integers** (ids, windows, chunk counters, lengths) — LEB128
//!   varints: small values (the common case) cost one byte.
//! * **Moments** (mean, variance) — fixed-width 64-bit IEEE-754 bits,
//!   little-endian. A quantized fixed-point layout was considered and
//!   rejected: fusion weights are *reciprocals of variances*, so
//!   quantization error is amplified precision-side, and the fleet's
//!   degenerate-case guarantee (one shard ⇒ bit-identical posteriors)
//!   requires the codec to be lossless. Encode→decode is an exact
//!   identity for every finite moment.
//!
//! Encoders append to a caller-owned `Vec<u8>` (reuse it across scrape
//! passes); decoders validate everything — truncation, versions, lengths,
//! UTF-8, non-finite means, non-positive variances — and return
//! [`ShimError`]s. **Decoding never panics**, whatever the bytes.
//!
//! ```text
//! shard record:    BPWF v k | shard window chunk | label_len label socket
//!                  | n_src late×n_src | n | (mean var)×n
//! summary record:  BPWF v k | generation | n_shards
//!                  | (shard window chunk label socket n_src late×n_src)×n
//!                  | n_events | (mean var)×n_events
//! scrape request:  BPWF v k | last_window last_chunk
//! unchanged ack:   BPWF v k | window chunk
//! telemetry req:   BPWF v k
//! telemetry dump:  BPWF v k | n_metrics
//!                  | (name_len name kind payload)×n_metrics
//! ```
//!
//! A telemetry dump (version 3) carries a shard's metrics-registry
//! snapshot: per metric its namespaced name, a kind byte (counter /
//! gauge / histogram), and a kind-specific payload. Histograms travel
//! sparsely as `(bucket_index, count)` pairs plus the value sum, so an
//! idle shard's dump stays tiny.
//!
//! The `n_src late×n_src` run is the observation plane's health
//! metadata: per-source dropped-late sample counts, indexed by raw
//! source id. An all-healthy shard encodes it as a single `0` byte —
//! the common case stays one byte, and varints keep the degraded case
//! proportional to how many sources have actually dropped samples.
//!
//! The scrape request/unchanged pair is the **delta protocol**
//! (`fleet::net`): a scraper sends the `(window, chunk)` stamp of the
//! snapshot it already holds; the shard answers with a tiny unchanged ack
//! when nothing moved, or a full shard record when it did — so
//! steady-state scrape bytes scale with *change rate*, not catalog size.
//!
//! For byte streams (sockets), records travel inside length frames:
//! a 4-byte little-endian length prefix followed by that many payload
//! bytes. [`frame_len`] rejects any prefix above [`MAX_FRAME_LEN`]
//! *before* anything is allocated, so a hostile peer cannot make a reader
//! reserve unbounded memory by lying about a length.

use crate::fuse::{FleetSnapshot, ShardStatus};
use crate::topology::{ShardId, ShardLabel};
use bayesperf_core::{ShimError, SnapshotView};
use bayesperf_inference::Gaussian;
use bayesperf_obs::{HistogramSnapshot, MetricSnapshot, MetricValue, HISTOGRAM_BUCKETS};

/// Leading magic of every record.
pub const MAGIC: [u8; 4] = *b"BPWF";
/// Highest (and only) format version this build reads and writes.
/// Version 2 added the per-source late-drop run to shard and summary
/// records; version 3 added the telemetry request/dump record pair.
/// Readers of either older version fail loud on v3 frames rather than
/// mis-parse, and a v3 reader rejects v1/v2 frames the same way — the
/// *bodies* of the pre-existing kinds are byte-identical across v2→v3,
/// only the version byte moved.
pub const VERSION: u8 = 3;
/// Record kind: one shard's posterior snapshot.
pub const KIND_SHARD: u8 = 1;
/// Record kind: a fused fleet summary.
pub const KIND_SUMMARY: u8 = 2;
/// Record kind: a scrape request carrying the client's last-seen stamp.
pub const KIND_SCRAPE_REQ: u8 = 3;
/// Record kind: "nothing newer than your stamp" delta ack.
pub const KIND_UNCHANGED: u8 = 4;
/// Record kind: a telemetry pull request (no body).
pub const KIND_TELEMETRY_REQ: u8 = 5;
/// Record kind: a metrics-registry dump (new in version 3).
pub const KIND_TELEMETRY: u8 = 6;

/// Decoded length guard: no sane catalog or fleet has a million entries,
/// so a length above this is a corrupt buffer, not a big fleet — reject
/// it before attempting the allocation.
const MAX_LEN: u64 = 1 << 20;

/// Hard upper bound on one length-framed message's payload (32 MiB).
///
/// Chosen so that any record the codec itself can produce fits (a
/// `MAX_LEN`-entry posterior vector is ~16 MiB of moments), while a
/// corrupt or hostile length prefix is rejected by [`frame_len`] *before*
/// a reader allocates its receive buffer. Both sides of the scrape plane
/// enforce it: writers refuse to emit oversized frames, readers refuse to
/// ingest them.
pub const MAX_FRAME_LEN: usize = 1 << 25;

/// Bytes of the length prefix in front of every framed message.
pub const FRAME_PREFIX_LEN: usize = 4;

/// One shard's scraped posterior state, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Which shard this snapshot came from.
    pub shard: ShardId,
    /// Its topology label.
    pub label: ShardLabel,
    /// Most recent corrected window.
    pub window: u32,
    /// 1-based inference-run counter.
    pub chunk: u64,
    /// Per-source dropped-late sample counts, indexed by raw source id
    /// (empty when every source has always landed in time).
    pub late_by_source: Vec<u64>,
    /// Catalog-indexed posteriors.
    pub posteriors: Vec<Gaussian>,
}

impl ShardSnapshot {
    /// Builds the wire form of a shard's in-process
    /// [`SnapshotView`] (see
    /// [`Session::snapshot`](bayesperf_core::Session::snapshot)).
    pub fn from_view(shard: ShardId, label: ShardLabel, view: &SnapshotView) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            label,
            window: view.window,
            chunk: view.chunk,
            late_by_source: view.late_by_source.clone(),
            posteriors: view.posteriors.clone(),
        }
    }

    /// The [`ShardStatus`] row this snapshot contributes to a fused view.
    pub fn status(&self) -> ShardStatus {
        ShardStatus {
            shard: self.shard,
            label: self.label.clone(),
            window: self.window,
            chunk: self.chunk,
            late_by_source: self.late_by_source.clone(),
        }
    }
}

/// A fused fleet summary, as carried on the wire (the fused posteriors
/// plus per-shard progress — without the per-shard posterior payloads,
/// which stay scraper-side).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Aggregation pass that produced the summary.
    pub generation: u64,
    /// Contributing shards.
    pub shards: Vec<ShardStatus>,
    /// Catalog-indexed fused posteriors.
    pub fused: Vec<Gaussian>,
}

impl FleetSummary {
    /// The summary view of a fused snapshot.
    pub fn of(snapshot: &FleetSnapshot) -> FleetSummary {
        FleetSummary {
            generation: snapshot.generation,
            shards: snapshot.shards.clone(),
            fused: snapshot.fused.clone(),
        }
    }
}

// ---- primitive layer -------------------------------------------------

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Cursor over an input buffer; every read is bounds-checked and reports
/// the offset it needed.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn byte(&mut self) -> Result<u8, ShimError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ShimError::WireTruncated { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, ShimError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // The 10th byte may only carry the top bit of a u64.
                if shift == 63 && b > 1 {
                    return Err(ShimError::WireMalformed {
                        what: "varint overflows 64 bits",
                    });
                }
                return Ok(v);
            }
        }
        Err(ShimError::WireMalformed {
            what: "varint longer than 10 bytes",
        })
    }

    fn len(&mut self) -> Result<usize, ShimError> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(ShimError::WireMalformed {
                what: "length field exceeds sanity bound",
            });
        }
        Ok(n as usize)
    }

    /// A varint that must fit a 32-bit field (shard ids, windows,
    /// sockets): silently truncating would mis-attribute a corrupted
    /// snapshot instead of rejecting it.
    fn varint_u32(&mut self) -> Result<u32, ShimError> {
        u32::try_from(self.varint()?).map_err(|_| ShimError::WireMalformed {
            what: "32-bit field exceeds u32::MAX",
        })
    }

    fn f64(&mut self) -> Result<f64, ShimError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ShimError::WireTruncated { offset: self.pos })?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ShimError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ShimError::WireTruncated { offset: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Validates magic + version and returns the record kind byte.
    fn header_any(&mut self) -> Result<u8, ShimError> {
        let magic = self.bytes(4)?;
        if magic != MAGIC {
            return Err(ShimError::WireMalformed {
                what: "bad magic (not a BayesPerf wire record)",
            });
        }
        let version = self.byte()?;
        if version != VERSION {
            return Err(ShimError::WireVersion {
                got: version,
                supported: VERSION,
            });
        }
        self.byte()
    }

    fn header(&mut self, kind: u8) -> Result<(), ShimError> {
        if self.header_any()? != kind {
            return Err(ShimError::WireMalformed {
                what: "record kind mismatch",
            });
        }
        Ok(())
    }

    fn gaussian(&mut self) -> Result<Gaussian, ShimError> {
        let mean = self.f64()?;
        let var = self.f64()?;
        if !mean.is_finite() {
            return Err(ShimError::WireMalformed {
                what: "non-finite posterior mean",
            });
        }
        if !var.is_finite() || var <= 0.0 {
            return Err(ShimError::WireMalformed {
                what: "non-positive posterior variance",
            });
        }
        // Validated above, so the distribution constructor cannot panic.
        Ok(Gaussian::new(mean, var))
    }

    fn late(&mut self) -> Result<Vec<u64>, ShimError> {
        let n = self.len()?;
        let mut late = Vec::with_capacity(n);
        for _ in 0..n {
            late.push(self.varint()?);
        }
        Ok(late)
    }

    fn label(&mut self) -> Result<ShardLabel, ShimError> {
        let n = self.len()?;
        let raw = self.bytes(n)?;
        let machine = std::str::from_utf8(raw)
            .map_err(|_| ShimError::WireMalformed {
                what: "machine label is not UTF-8",
            })?
            .to_string();
        let socket = self.varint_u32()?;
        Ok(ShardLabel { machine, socket })
    }
}

fn put_label(label: &ShardLabel, out: &mut Vec<u8>) {
    put_varint(label.machine.len() as u64, out);
    out.extend_from_slice(label.machine.as_bytes());
    put_varint(u64::from(label.socket), out);
}

fn put_late(late_by_source: &[u64], out: &mut Vec<u8>) {
    put_varint(late_by_source.len() as u64, out);
    for &n in late_by_source {
        put_varint(n, out);
    }
}

fn put_header(kind: u8, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
}

/// Validates a record's magic and version and returns its kind byte
/// without decoding the body — how a server dispatches a request frame
/// onto the right decoder. Wrong versions are the typed
/// [`ShimError::WireVersion`], exactly as the full decoders report them.
pub fn peek_kind(buf: &[u8]) -> Result<u8, ShimError> {
    Reader::new(buf).header_any()
}

// ---- records ---------------------------------------------------------

/// Appends the wire form of a shard snapshot to `out`.
pub fn encode_shard(snapshot: &ShardSnapshot, out: &mut Vec<u8>) {
    put_shard(
        snapshot.shard,
        snapshot.window,
        snapshot.chunk,
        &snapshot.label,
        &snapshot.late_by_source,
        &snapshot.posteriors,
        out,
    );
}

/// Appends a shard record straight from an in-process [`SnapshotView`],
/// skipping the posterior clone a [`ShardSnapshot::from_view`] round trip
/// would pay — the scrape server's per-request encode path.
pub fn encode_shard_view(
    shard: ShardId,
    label: &ShardLabel,
    view: &SnapshotView,
    out: &mut Vec<u8>,
) {
    put_shard(
        shard,
        view.window,
        view.chunk,
        label,
        &view.late_by_source,
        &view.posteriors,
        out,
    );
}

/// The one writer of a `KIND_SHARD` record, behind both encoders.
fn put_shard(
    shard: ShardId,
    window: u32,
    chunk: u64,
    label: &ShardLabel,
    late_by_source: &[u64],
    posteriors: &[Gaussian],
    out: &mut Vec<u8>,
) {
    put_header(KIND_SHARD, out);
    put_varint(u64::from(shard.raw()), out);
    put_varint(u64::from(window), out);
    put_varint(chunk, out);
    put_label(label, out);
    put_late(late_by_source, out);
    put_varint(posteriors.len() as u64, out);
    for g in posteriors {
        put_f64(g.mean, out);
        put_f64(g.var, out);
    }
}

/// Parses a shard record's body (everything after the header).
fn shard_body(r: &mut Reader<'_>) -> Result<ShardSnapshot, ShimError> {
    let shard = ShardId::from_raw(r.varint_u32()?);
    let window = r.varint_u32()?;
    let chunk = r.varint()?;
    let label = r.label()?;
    let late_by_source = r.late()?;
    let n = r.len()?;
    let mut posteriors = Vec::with_capacity(n);
    for _ in 0..n {
        posteriors.push(r.gaussian()?);
    }
    Ok(ShardSnapshot {
        shard,
        label,
        window,
        chunk,
        late_by_source,
        posteriors,
    })
}

/// Decodes one shard record from the front of `buf`, returning the
/// snapshot and the bytes consumed (records may be concatenated).
pub fn decode_shard(buf: &[u8]) -> Result<(ShardSnapshot, usize), ShimError> {
    let mut r = Reader::new(buf);
    r.header(KIND_SHARD)?;
    let snap = shard_body(&mut r)?;
    Ok((snap, r.pos))
}

/// Appends the wire form of a fleet summary to `out`.
pub fn encode_summary(summary: &FleetSummary, out: &mut Vec<u8>) {
    put_header(KIND_SUMMARY, out);
    put_varint(summary.generation, out);
    put_varint(summary.shards.len() as u64, out);
    for s in &summary.shards {
        put_varint(u64::from(s.shard.raw()), out);
        put_varint(u64::from(s.window), out);
        put_varint(s.chunk, out);
        put_label(&s.label, out);
        put_late(&s.late_by_source, out);
    }
    put_varint(summary.fused.len() as u64, out);
    for g in &summary.fused {
        put_f64(g.mean, out);
        put_f64(g.var, out);
    }
}

/// Decodes one fleet-summary record from the front of `buf`, returning
/// the summary and the bytes consumed.
pub fn decode_summary(buf: &[u8]) -> Result<(FleetSummary, usize), ShimError> {
    let mut r = Reader::new(buf);
    r.header(KIND_SUMMARY)?;
    let generation = r.varint()?;
    let n_shards = r.len()?;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let shard = ShardId::from_raw(r.varint_u32()?);
        let window = r.varint_u32()?;
        let chunk = r.varint()?;
        let label = r.label()?;
        let late_by_source = r.late()?;
        shards.push(ShardStatus {
            shard,
            label,
            window,
            chunk,
            late_by_source,
        });
    }
    let n_events = r.len()?;
    let mut fused = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        fused.push(r.gaussian()?);
    }
    Ok((
        FleetSummary {
            generation,
            shards,
            fused,
        },
        r.pos,
    ))
}

// ---- the delta scrape protocol ---------------------------------------

/// A scraper's pull request: the `(window, chunk)` stamp of the snapshot
/// it already holds. `last_chunk == 0` means "I have nothing — send a
/// full snapshot" (published chunks are 1-based, so 0 never collides with
/// a real stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrapeRequest {
    /// Most recent corrected window the scraper holds.
    pub last_window: u32,
    /// Inference-run counter of the snapshot the scraper holds.
    pub last_chunk: u64,
}

/// Appends the wire form of a scrape request to `out`.
pub fn encode_request(req: &ScrapeRequest, out: &mut Vec<u8>) {
    put_header(KIND_SCRAPE_REQ, out);
    put_varint(u64::from(req.last_window), out);
    put_varint(req.last_chunk, out);
}

/// Decodes one scrape request from the front of `buf`.
pub fn decode_request(buf: &[u8]) -> Result<(ScrapeRequest, usize), ShimError> {
    let mut r = Reader::new(buf);
    r.header(KIND_SCRAPE_REQ)?;
    let last_window = r.varint_u32()?;
    let last_chunk = r.varint()?;
    Ok((
        ScrapeRequest {
            last_window,
            last_chunk,
        },
        r.pos,
    ))
}

/// Appends an unchanged ack (the shard's current stamp) to `out`.
pub fn encode_unchanged(window: u32, chunk: u64, out: &mut Vec<u8>) {
    put_header(KIND_UNCHANGED, out);
    put_varint(u64::from(window), out);
    put_varint(chunk, out);
}

/// What a shard answered a scrape request with.
#[derive(Debug, Clone, PartialEq)]
pub enum ScrapeResponse {
    /// The scraper's snapshot is current (or, with `chunk == 0`, the
    /// shard has not published anything yet). Carries the shard's stamp.
    Unchanged {
        /// The shard's current window (0 when nothing is published).
        window: u32,
        /// The shard's current chunk counter (0 when nothing published).
        chunk: u64,
    },
    /// The shard moved past the scraper's stamp: a full snapshot.
    Snapshot(ShardSnapshot),
}

/// Decodes a scrape response — either record kind — from the front of
/// `buf`, returning it and the bytes consumed.
pub fn decode_response(buf: &[u8]) -> Result<(ScrapeResponse, usize), ShimError> {
    let mut r = Reader::new(buf);
    match r.header_any()? {
        KIND_UNCHANGED => {
            let window = r.varint_u32()?;
            let chunk = r.varint()?;
            Ok((ScrapeResponse::Unchanged { window, chunk }, r.pos))
        }
        KIND_SHARD => {
            let snap = shard_body(&mut r)?;
            Ok((ScrapeResponse::Snapshot(snap), r.pos))
        }
        _ => Err(ShimError::WireMalformed {
            what: "record kind is not a scrape response",
        }),
    }
}

// ---- the telemetry plane (version 3) ---------------------------------

/// Metric kind byte inside a telemetry dump: monotone counter.
const METRIC_COUNTER: u8 = 0;
/// Metric kind byte inside a telemetry dump: last-written gauge.
const METRIC_GAUGE: u8 = 1;
/// Metric kind byte inside a telemetry dump: log-scale histogram.
const METRIC_HISTOGRAM: u8 = 2;

/// Appends a telemetry pull request (header only — the request carries
/// no state; a dump is always a full registry snapshot).
pub fn encode_telemetry_request(out: &mut Vec<u8>) {
    put_header(KIND_TELEMETRY_REQ, out);
}

/// Decodes one telemetry request from the front of `buf`.
pub fn decode_telemetry_request(buf: &[u8]) -> Result<usize, ShimError> {
    let mut r = Reader::new(buf);
    r.header(KIND_TELEMETRY_REQ)?;
    Ok(r.pos)
}

/// Appends the wire form of a metrics-registry dump to `out`.
///
/// Histograms are encoded sparsely — only populated buckets travel, as
/// `(bucket_index, count)` varint pairs — so dump size tracks how much
/// has actually been recorded, not the fixed bucket count.
pub fn encode_telemetry(metrics: &[MetricSnapshot], out: &mut Vec<u8>) {
    put_header(KIND_TELEMETRY, out);
    put_varint(metrics.len() as u64, out);
    for m in metrics {
        put_varint(m.name.len() as u64, out);
        out.extend_from_slice(m.name.as_bytes());
        match &m.value {
            MetricValue::Counter(v) => {
                out.push(METRIC_COUNTER);
                put_varint(*v, out);
            }
            MetricValue::Gauge(v) => {
                out.push(METRIC_GAUGE);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            MetricValue::Histogram(h) => {
                out.push(METRIC_HISTOGRAM);
                let populated = h.buckets.iter().filter(|&&c| c > 0).count();
                put_varint(populated as u64, out);
                for (idx, &count) in h.buckets.iter().enumerate() {
                    if count > 0 {
                        put_varint(idx as u64, out);
                        put_varint(count, out);
                    }
                }
                put_varint(h.sum, out);
            }
        }
    }
}

/// Decodes one telemetry dump from the front of `buf`, returning the
/// metric snapshots and the bytes consumed.
pub fn decode_telemetry(buf: &[u8]) -> Result<(Vec<MetricSnapshot>, usize), ShimError> {
    let mut r = Reader::new(buf);
    r.header(KIND_TELEMETRY)?;
    let n = r.len()?;
    let mut metrics = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = r.len()?;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| ShimError::WireMalformed {
                what: "metric name is not UTF-8",
            })?
            .to_string();
        let value = match r.byte()? {
            METRIC_COUNTER => MetricValue::Counter(r.varint()?),
            METRIC_GAUGE => MetricValue::Gauge(r.f64()?),
            METRIC_HISTOGRAM => {
                let pairs = r.len()?;
                let mut snap = HistogramSnapshot::default();
                for _ in 0..pairs {
                    let idx = r.varint()? as usize;
                    if idx >= HISTOGRAM_BUCKETS {
                        return Err(ShimError::WireMalformed {
                            what: "histogram bucket index out of range",
                        });
                    }
                    snap.buckets[idx] = r.varint()?;
                }
                snap.sum = r.varint()?;
                MetricValue::Histogram(Box::new(snap))
            }
            _ => {
                return Err(ShimError::WireMalformed {
                    what: "unknown metric kind",
                })
            }
        };
        metrics.push(MetricSnapshot { name, value });
    }
    Ok((metrics, r.pos))
}

// ---- length framing --------------------------------------------------

/// Validates a frame's 4-byte little-endian length prefix and returns the
/// payload length. Any length above [`MAX_FRAME_LEN`] is rejected here —
/// **before** a reader sizes its receive buffer — so a hostile or corrupt
/// prefix can never drive an unbounded allocation.
pub fn frame_len(prefix: [u8; FRAME_PREFIX_LEN]) -> Result<usize, ShimError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ShimError::WireMalformed {
            what: "frame length exceeds MAX_FRAME_LEN",
        });
    }
    Ok(len)
}

/// Appends `payload` as one length-framed message (prefix + bytes).
/// Refuses payloads above [`MAX_FRAME_LEN`] — the bound is symmetric, so
/// a compliant writer never produces a frame a compliant reader rejects.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), ShimError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ShimError::WireMalformed {
            what: "frame payload exceeds MAX_FRAME_LEN",
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Splits one frame off the front of `buf`, returning the payload slice
/// and the total bytes consumed (prefix + payload). Never allocates;
/// never panics.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), ShimError> {
    if buf.len() < FRAME_PREFIX_LEN {
        return Err(ShimError::WireTruncated { offset: buf.len() });
    }
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    prefix.copy_from_slice(&buf[..FRAME_PREFIX_LEN]);
    let len = frame_len(prefix)?;
    let end = FRAME_PREFIX_LEN
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(ShimError::WireTruncated { offset: buf.len() })?;
    Ok((&buf[FRAME_PREFIX_LEN..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ShardSnapshot {
        ShardSnapshot {
            shard: ShardId::from_raw(300),
            label: ShardLabel::new("rack1-node07", 1),
            window: 41,
            chunk: 7,
            late_by_source: vec![0, 3],
            posteriors: vec![
                Gaussian::new(123.456, 0.3),
                Gaussian::new(-5.0e9, 1.0e12),
                Gaussian::new(0.0, f64::MIN_POSITIVE),
            ],
        }
    }

    #[test]
    fn shard_roundtrip_is_identity_and_reports_length() {
        let snap = snapshot();
        let mut buf = Vec::new();
        encode_shard(&snap, &mut buf);
        // Concatenate a second record: decode must stop at the boundary.
        let mut double = buf.clone();
        encode_shard(&snap, &mut double);
        let (back, used) = decode_shard(&double).unwrap();
        assert_eq!(back, snap);
        assert_eq!(used, buf.len());
        let (second, used2) = decode_shard(&double[used..]).unwrap();
        assert_eq!(second, snap);
        assert_eq!(used + used2, double.len());
    }

    #[test]
    fn varints_keep_small_records_small() {
        let mut snap = snapshot();
        snap.posteriors.truncate(1);
        let mut buf = Vec::new();
        encode_shard(&snap, &mut buf);
        // header 6 + shard 2 + window 1 + chunk 1 + label (1+12+1)
        // + late (1+2) + n 1 + one gaussian 16 = 44 bytes.
        assert_eq!(buf.len(), 44);
        // An all-healthy observation plane costs exactly one byte.
        snap.late_by_source.clear();
        let mut healthy = Vec::new();
        encode_shard(&snap, &mut healthy);
        assert_eq!(healthy.len(), 42);
    }

    #[test]
    fn summary_roundtrip_is_identity() {
        let snap = snapshot();
        let summary = FleetSummary {
            generation: u64::MAX,
            shards: vec![snap.status()],
            fused: snap.posteriors.clone(),
        };
        let mut buf = Vec::new();
        encode_summary(&summary, &mut buf);
        let (back, used) = decode_summary(&buf).unwrap();
        assert_eq!(back, summary);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut buf = Vec::new();
        encode_shard(&snapshot(), &mut buf);
        for cut in 0..buf.len() {
            match decode_shard(&buf[..cut]) {
                Err(ShimError::WireTruncated { .. }) => {}
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let mut buf = Vec::new();
        encode_shard(&snapshot(), &mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_shard(&bad),
            Err(ShimError::WireMalformed { .. })
        ));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert_eq!(
            decode_shard(&bad),
            Err(ShimError::WireVersion {
                got: 9,
                supported: VERSION
            })
        );
        // A summary decoder fed a shard record must refuse.
        assert!(matches!(
            decode_summary(&buf),
            Err(ShimError::WireMalformed {
                what: "record kind mismatch"
            })
        ));
    }

    #[test]
    fn invalid_moments_are_rejected_not_panicked() {
        let mut snap = snapshot();
        snap.posteriors = vec![Gaussian::new(1.0, 1.0)];
        let mut buf = Vec::new();
        encode_shard(&snap, &mut buf);
        let var_off = buf.len() - 8;
        // Variance := -1.0.
        buf[var_off..].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(matches!(
            decode_shard(&buf),
            Err(ShimError::WireMalformed {
                what: "non-positive posterior variance"
            })
        ));
        // Mean := NaN.
        let mean_off = buf.len() - 16;
        buf[mean_off..mean_off + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_shard(&buf),
            Err(ShimError::WireMalformed {
                what: "non-finite posterior mean"
            })
        ));
    }

    #[test]
    fn oversized_32bit_fields_are_rejected_not_truncated() {
        // A window of 2^33 + 5 must not silently decode as window 5.
        let mut buf = Vec::new();
        put_header(KIND_SHARD, &mut buf);
        put_varint(1, &mut buf); // shard
        put_varint((1u64 << 33) + 5, &mut buf); // window: exceeds u32
        assert!(matches!(
            decode_shard(&buf),
            Err(ShimError::WireMalformed {
                what: "32-bit field exceeds u32::MAX"
            })
        ));
    }

    #[test]
    fn scrape_request_and_unchanged_roundtrip() {
        let req = ScrapeRequest {
            last_window: 41,
            last_chunk: 7,
        };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let (back, used) = decode_request(&buf).unwrap();
        assert_eq!(back, req);
        assert_eq!(used, buf.len());
        // A fresh scraper's request stays tiny (header + two varints).
        let mut empty = Vec::new();
        encode_request(&ScrapeRequest::default(), &mut empty);
        assert_eq!(empty.len(), 8);

        let mut ack = Vec::new();
        encode_unchanged(41, 7, &mut ack);
        match decode_response(&ack).unwrap() {
            (
                ScrapeResponse::Unchanged {
                    window: 41,
                    chunk: 7,
                },
                used,
            ) => {
                assert_eq!(used, ack.len());
            }
            other => panic!("bad ack decode: {other:?}"),
        }
        assert!(
            ack.len() < 12,
            "unchanged ack must stay tiny: {}",
            ack.len()
        );
    }

    #[test]
    fn response_decoder_dispatches_on_kind() {
        let snap = snapshot();
        let mut buf = Vec::new();
        encode_shard(&snap, &mut buf);
        match decode_response(&buf).unwrap() {
            (ScrapeResponse::Snapshot(back), used) => {
                assert_eq!(back, snap);
                assert_eq!(used, buf.len());
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // A summary record is not a scrape response.
        let mut buf = Vec::new();
        encode_summary(
            &FleetSummary {
                generation: 1,
                shards: vec![],
                fused: vec![],
            },
            &mut buf,
        );
        assert!(matches!(
            decode_response(&buf),
            Err(ShimError::WireMalformed {
                what: "record kind is not a scrape response"
            })
        ));
    }

    #[test]
    fn encode_shard_view_matches_from_view_roundtrip() {
        let snap = snapshot();
        let view = SnapshotView {
            window: snap.window,
            chunk: snap.chunk,
            late_by_source: snap.late_by_source.clone(),
            posteriors: snap.posteriors.clone(),
            ..SnapshotView::default()
        };
        let mut direct = Vec::new();
        encode_shard_view(snap.shard, &snap.label, &view, &mut direct);
        let mut cloned = Vec::new();
        encode_shard(&snap, &mut cloned);
        assert_eq!(direct, cloned, "both encode paths emit identical bytes");
    }

    #[test]
    fn frames_roundtrip_and_hostile_prefixes_are_rejected_unallocated() {
        let payload = b"BayesPerf frame payload";
        let mut out = Vec::new();
        encode_frame(payload, &mut out).unwrap();
        let (back, used) = decode_frame(&out).unwrap();
        assert_eq!(back, payload.as_slice());
        assert_eq!(used, out.len());
        // Hostile prefix: length u32::MAX must be a typed error from the
        // prefix alone — no payload needed, nothing allocated.
        let hostile = u32::MAX.to_le_bytes();
        assert!(matches!(
            frame_len(hostile),
            Err(ShimError::WireMalformed {
                what: "frame length exceeds MAX_FRAME_LEN"
            })
        ));
        assert!(matches!(
            decode_frame(&hostile),
            Err(ShimError::WireMalformed { .. })
        ));
        // Exactly MAX_FRAME_LEN is allowed; one past is not.
        assert_eq!(
            frame_len((MAX_FRAME_LEN as u32).to_le_bytes()).unwrap(),
            MAX_FRAME_LEN
        );
        assert!(frame_len((MAX_FRAME_LEN as u32 + 1).to_le_bytes()).is_err());
        // Truncated payloads are truncation errors, not panics.
        assert!(matches!(
            decode_frame(&out[..out.len() - 1]),
            Err(ShimError::WireTruncated { .. })
        ));
        // Writers refuse oversized payloads symmetrically.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(encode_frame(&huge, &mut Vec::new()).is_err());
    }

    #[test]
    fn telemetry_roundtrips_and_rejects_junk() {
        let mut hist = HistogramSnapshot::default();
        hist.buckets[0] = 3;
        hist.buckets[17] = 2;
        hist.buckets[HISTOGRAM_BUCKETS - 1] = 1;
        hist.sum = 987_654_321;
        let metrics = vec![
            MetricSnapshot {
                name: "supervisor.restarts".into(),
                value: MetricValue::Counter(4),
            },
            MetricSnapshot {
                name: "ingest.late_dropped{source=\"2\"}".into(),
                value: MetricValue::Counter(9),
            },
            MetricSnapshot {
                name: "fleet.idle".into(),
                value: MetricValue::Gauge(-0.25),
            },
            MetricSnapshot {
                name: "solve.chunk_ns".into(),
                value: MetricValue::Histogram(Box::new(hist)),
            },
        ];
        let mut req = Vec::new();
        encode_telemetry_request(&mut req);
        assert_eq!(req.len(), 6, "a telemetry request is just a header");
        assert_eq!(decode_telemetry_request(&req).unwrap(), req.len());

        let mut buf = Vec::new();
        encode_telemetry(&metrics, &mut buf);
        let (back, used) = decode_telemetry(&buf).unwrap();
        assert_eq!(back, metrics);
        assert_eq!(used, buf.len());

        // Truncations are typed, never panics.
        for cut in 0..buf.len() {
            assert!(decode_telemetry(&buf[..cut]).is_err());
        }
        // An out-of-range bucket index is rejected.
        let mut bad = Vec::new();
        put_header(KIND_TELEMETRY, &mut bad);
        put_varint(1, &mut bad); // one metric
        put_varint(1, &mut bad);
        bad.push(b'h');
        bad.push(METRIC_HISTOGRAM);
        put_varint(1, &mut bad); // one pair
        put_varint(HISTOGRAM_BUCKETS as u64, &mut bad); // index 64: out of range
        put_varint(1, &mut bad);
        put_varint(0, &mut bad); // sum
        assert!(matches!(
            decode_telemetry(&bad),
            Err(ShimError::WireMalformed {
                what: "histogram bucket index out of range"
            })
        ));
        // An unknown metric kind byte is rejected.
        let mut bad = Vec::new();
        put_header(KIND_TELEMETRY, &mut bad);
        put_varint(1, &mut bad);
        put_varint(1, &mut bad);
        bad.push(b'c');
        bad.push(9); // no such metric kind
        assert!(matches!(
            decode_telemetry(&bad),
            Err(ShimError::WireMalformed {
                what: "unknown metric kind"
            })
        ));
    }

    #[test]
    fn version_2_frames_are_rejected_typed_both_ways() {
        // A version-2 shard record (same body layout, older version byte)
        // must be refused by this build's readers with the typed version
        // error — mis-parsing or panicking would corrupt a fleet quietly.
        let mut buf = Vec::new();
        encode_shard(&snapshot(), &mut buf);
        let mut v2 = buf.clone();
        v2[4] = 2;
        for result in [
            decode_shard(&v2).map(|_| ()),
            decode_response(&v2).map(|_| ()),
        ] {
            assert_eq!(
                result,
                Err(ShimError::WireVersion {
                    got: 2,
                    supported: VERSION
                })
            );
        }
        // Symmetrically: a v2 reader sees version 3 on every new-kind
        // frame, so a telemetry dump shown to it is a version error too
        // (simulated here by checking the version byte is what a v2
        // reader's `!= 2` guard trips on).
        let mut dump = Vec::new();
        encode_telemetry(&[], &mut dump);
        assert_eq!(dump[4], 3);
        assert_eq!(
            decode_telemetry_request(&dump).map(|_| ()),
            Err(ShimError::WireMalformed {
                what: "record kind mismatch"
            }),
            "kind dispatch still applies after the version gate"
        );
    }

    #[test]
    fn v3_bodies_of_preexisting_kinds_are_byte_compatible_with_v2() {
        // The v2→v3 bump added record kinds only: everything after the
        // version byte of a shard/summary/request/ack frame is unchanged.
        let snap = snapshot();
        let mut shard = Vec::new();
        encode_shard(&snap, &mut shard);
        let mut req = Vec::new();
        encode_request(&ScrapeRequest::default(), &mut req);
        for frame in [&shard, &req] {
            assert_eq!(&frame[..4], &MAGIC);
            assert_eq!(frame[4], VERSION);
            // Flipping just the version byte back yields a well-formed
            // v2 frame (the layout a v2 peer would emit and accept).
            let mut v2 = (*frame).clone();
            v2[4] = 2;
            assert_eq!(&v2[5..], &frame[5..]);
        }
    }

    #[test]
    fn absurd_length_fields_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_header(KIND_SHARD, &mut buf);
        put_varint(1, &mut buf); // shard
        put_varint(0, &mut buf); // window
        put_varint(1, &mut buf); // chunk
        put_varint(u64::MAX, &mut buf); // label length: absurd
        assert!(matches!(
            decode_shard(&buf),
            Err(ShimError::WireMalformed {
                what: "length field exceeds sanity bound"
            })
        ));
    }
}
