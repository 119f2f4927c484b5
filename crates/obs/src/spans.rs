//! Pipeline tracing: per-thread span ring buffers over the window
//! lifecycle.
//!
//! A [`SpanTracer`] hands each pipeline thread its own [`SpanRecorder`]
//! (a fixed ring of seqlocked slots). Recording a span is a handful of
//! relaxed stores into the ring — no allocation, no locks, no formatting
//! — so the service and scrape hot paths can be instrumented always-on.
//! [`SpanTracer::records`] drains every ring non-destructively (skipping
//! any slot that is mid-write) and [`SpanTracer::for_window`] filters to
//! one window index, which is how a window's life is reconstructed
//! ingest → assemble → solve → publish → scrape → fuse from telemetry
//! alone.
//!
//! Timestamps are nanoseconds since the tracer's epoch (a monotonic
//! [`Instant`] taken at construction), so spans from different threads of
//! the same tracer are directly comparable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A stage of a window's life through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Samples for the window arriving at the service inbox.
    Ingest = 0,
    /// The window sitting assembled, waiting to fill a chunk.
    Assemble = 1,
    /// The corrector solving the chunk containing the window.
    Solve = 2,
    /// The posterior snapshot for the window being published.
    Publish = 3,
    /// A scrape exchange carrying the window's snapshot off-box.
    Scrape = 4,
    /// Fleet-level fusion absorbing the window's snapshot.
    Fuse = 5,
}

impl Stage {
    /// Stable lowercase name (log lines, exposition).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Assemble => "assemble",
            Stage::Solve => "solve",
            Stage::Publish => "publish",
            Stage::Scrape => "scrape",
            Stage::Fuse => "fuse",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            0 => Stage::Ingest,
            1 => Stage::Assemble,
            2 => Stage::Solve,
            3 => Stage::Publish,
            4 => Stage::Scrape,
            5 => Stage::Fuse,
            _ => return None,
        })
    }
}

/// One recorded span: a stage of one window's life with start/stop
/// stamps in tracer-epoch nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Pipeline stage.
    pub stage: Stage,
    /// Window index the span is about.
    pub window: u32,
    /// Start stamp, ns since the tracer epoch.
    pub start_ns: u64,
    /// Stop stamp, ns since the tracer epoch.
    pub end_ns: u64,
}

/// One ring slot, seqlocked: `seq` is odd while the writer is mid-store,
/// and bumps by 2 per publish, so a reader can detect (and skip) a torn
/// read without ever blocking the writer.
struct Slot {
    seq: AtomicU64,
    stage: AtomicU64,
    window: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    stage: AtomicU64::new(0),
                    window: AtomicU64::new(0),
                    start: AtomicU64::new(0),
                    end: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

/// Default per-thread ring capacity (spans kept per recorder).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The span plane: hands out per-thread recorders and reconstructs the
/// recorded spans. Cloning shares the plane.
#[derive(Clone)]
pub struct SpanTracer {
    inner: Arc<TracerInner>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanTracer {
    /// Creates a tracer whose recorders keep the default number of spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracer whose recorders each keep the last `capacity`
    /// spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Nanoseconds since the tracer epoch (saturates at `u64::MAX`).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Registers a new per-thread recorder ring (cold path: takes the
    /// tracer's registration lock once).
    pub fn recorder(&self) -> SpanRecorder {
        let ring = Arc::new(Ring::new(self.inner.capacity));
        self.inner
            .rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ring.clone());
        SpanRecorder {
            ring,
            epoch: self.inner.epoch,
        }
    }

    /// All currently readable spans across every recorder, sorted by
    /// start stamp. Non-destructive; slots being overwritten concurrently
    /// are skipped, never torn.
    pub fn records(&self) -> Vec<SpanRecord> {
        let rings: Vec<Arc<Ring>> = self
            .inner
            .rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut out = Vec::new();
        for ring in rings {
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let live = head.min(cap);
            for k in 0..live {
                let slot = &ring.slots[((head - live + k) % cap) as usize];
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 % 2 == 1 {
                    continue; // mid-write
                }
                let stage = slot.stage.load(Ordering::Relaxed);
                let window = slot.window.load(Ordering::Relaxed);
                let start = slot.start.load(Ordering::Relaxed);
                let end = slot.end.load(Ordering::Relaxed);
                if slot.seq.load(Ordering::Acquire) != s1 {
                    continue; // overwritten while reading
                }
                if let Some(stage) = Stage::from_u8(stage as u8) {
                    out.push(SpanRecord {
                        stage,
                        window: window as u32,
                        start_ns: start,
                        end_ns: end,
                    });
                }
            }
        }
        out.sort_by_key(|r| (r.start_ns, r.end_ns));
        out
    }

    /// The spans recorded about one window index, in pipeline order
    /// (by start stamp).
    pub fn for_window(&self, window: u32) -> Vec<SpanRecord> {
        let mut v = self.records();
        v.retain(|r| r.window == window);
        v
    }
}

/// A single-thread span writer into its own ring. Obtain one per pipeline
/// thread via [`SpanTracer::recorder`]; recording never allocates, locks,
/// or formats.
///
/// Cloning shares the ring: clones exist so a supervisor can hand the
/// same ring to successive service incarnations (which run serially on
/// one thread). Two clones recording **concurrently** would race the ring
/// head and overwrite each other's slots — never share a recorder across
/// simultaneously live threads; take one per thread from the tracer.
#[derive(Clone)]
pub struct SpanRecorder {
    ring: Arc<Ring>,
    epoch: Instant,
}

impl SpanRecorder {
    /// Nanoseconds since the owning tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one completed span.
    #[inline]
    pub fn record(&self, stage: Stage, window: u32, start_ns: u64, end_ns: u64) {
        let head = self.ring.head.load(Ordering::Relaxed);
        let slot = &self.ring.slots[(head % self.ring.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Release); // odd: mid-write
        slot.stage.store(stage as u8 as u64, Ordering::Relaxed);
        slot.window.store(window as u64, Ordering::Relaxed);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release); // even: published
        self.ring.head.store(head + 1, Ordering::Release);
    }

    /// Convenience: stamps `start..now` for `stage` on `window`.
    #[inline]
    pub fn record_since(&self, stage: Stage, window: u32, start_ns: u64) {
        self.record(stage, window, start_ns, self.now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_roundtrip_in_order() {
        let tracer = SpanTracer::new();
        let rec = tracer.recorder();
        rec.record(Stage::Ingest, 7, 10, 20);
        rec.record(Stage::Solve, 7, 30, 90);
        rec.record(Stage::Publish, 8, 95, 99);
        let spans = tracer.for_window(7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Ingest);
        assert_eq!(spans[1].stage, Stage::Solve);
        assert_eq!(spans[1].end_ns, 90);
        assert_eq!(tracer.records().len(), 3);
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let tracer = SpanTracer::with_capacity(4);
        let rec = tracer.recorder();
        for i in 0..10u32 {
            rec.record(Stage::Ingest, i, i as u64, i as u64 + 1);
        }
        let spans = tracer.records();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].window, 6);
        assert_eq!(spans[3].window, 9);
    }

    #[test]
    fn recorders_are_per_thread_and_merge() {
        let tracer = SpanTracer::new();
        let t2 = tracer.clone();
        let h = std::thread::spawn(move || {
            let rec = t2.recorder();
            for i in 0..100u32 {
                rec.record(Stage::Scrape, i, 1000 + i as u64, 1001 + i as u64);
            }
        });
        let rec = tracer.recorder();
        for i in 0..100u32 {
            rec.record(Stage::Publish, i, i as u64, i as u64 + 1);
        }
        h.join().expect("recorder thread");
        let spans = tracer.records();
        assert_eq!(spans.len(), 200);
        // Sorted by start stamp across rings.
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn stamps_are_monotone() {
        let tracer = SpanTracer::new();
        let rec = tracer.recorder();
        let a = rec.now_ns();
        let b = tracer.now_ns();
        assert!(b >= a);
        rec.record_since(Stage::Fuse, 1, a);
        let s = tracer.for_window(1);
        assert_eq!(s.len(), 1);
        assert!(s[0].end_ns >= s[0].start_ns);
    }
}
