//! The lock-free metrics registry: counters, gauges, and log-scale
//! histograms behind pre-registered handles.
//!
//! Registration (naming a metric, taking a handle) is the cold path and
//! takes a mutex; recording through a handle is the hot path and is a
//! single atomic op: a release RMW for counters, a relaxed store for
//! gauges, and two relaxed RMWs for histograms (one bucket, one sum — the
//! total count is derived from the buckets at snapshot time, so no third
//! op is paid per record). Handles
//! are `Clone` (they share the underlying atomic) and never allocate,
//! lock, or format on record.
//!
//! Metric names are dot-namespaced (`solve.chunk_ns`, `supervisor.restarts`)
//! with optional Prometheus-style labels appended by [`labeled`]
//! (`ingest.late_dropped{source="2"}`). The registry treats the full
//! string as the identity: registering the same name twice returns the
//! same underlying metric.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of fixed histogram buckets (one per power of two of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter. Recording is one `Release`
/// `fetch_add` and [`Counter::get`] one `Acquire` load, so they pair: a
/// reader that sees an increment also sees every write its thread made
/// before it. The restart counters rely on this: a supervisor records and
/// publishes restart `n`, then increments, so whoever reads `n` finds
/// restart `n` published. On x86-64 both compile to the same
/// instructions as relaxed ones.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` and returns the previous value — the atomic
    /// read-modify-write some call sites need (e.g. deriving a 1-based
    /// publication index from the cumulative count).
    #[inline]
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Release)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as its bit pattern in
/// one atomic, so reads never tear). Recording is one relaxed `store`.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A fixed-bucket log₂-scale histogram of `u64` samples (typically
/// nanoseconds or bytes).
///
/// Bucket 0 holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`; the last bucket absorbs everything from `2^62`
/// up. Recording touches exactly one bucket and the running sum, both
/// relaxed — a concurrent snapshot can be momentarily behind but never
/// sees a torn bucket (each bucket is a single atomic) and never loses a
/// record (every record lands in exactly one bucket, so the bucket totals
/// conserve the count).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.snapshot().count())
            .finish()
    }
}

/// Bucket index a value lands in. Total over all values: monotone in `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` ([`bucket_index`] maps a value `v`
/// to the first bucket whose upper bound is `>= v`). Strictly monotone
/// over `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an unregistered histogram (tests; prefer
    /// [`Registry::histogram`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, mergeable across shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_upper`] for the bucket layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (wrapping on overflow, like the atomic).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples (derived from the buckets, so it
    /// is exactly conserved under concurrent recording and merging).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when empty. A coarse (factor-of-two) but
    /// allocation-free quantile, good enough for `p50/p99` log lines.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Adds another snapshot into this one (fleet-wide aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// The value half of a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Cumulative count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Log-scale distribution (boxed: the bucket array dwarfs the other
    /// variants and dumps are `Vec<MetricSnapshot>`).
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric's point-in-time value, as returned by
/// [`Registry::snapshot`] and carried over the telemetry wire frame.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Full metric name including any `{label="value"}` suffix.
    pub name: String,
    /// The sampled value.
    pub value: MetricValue,
}

enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    handle: Handle,
}

#[derive(Default)]
struct RegistryInner {
    metrics: Mutex<Vec<Entry>>,
}

/// The metric namespace: hands out (or re-resolves) named handles and
/// snapshots every registered metric in one pass.
///
/// Cloning shares the namespace. All methods are safe under lock
/// poisoning (a panicked registrant cannot take telemetry down with it).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn lock_metrics(inner: &RegistryInner) -> std::sync::MutexGuard<'_, Vec<Entry>> {
    inner.metrics.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-resolves) a counter. Panics if `name` is already
    /// registered as a different kind — metric identities are global to
    /// the registry and a kind flip is a programming error.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = lock_metrics(&self.inner);
        if let Some(e) = m.iter().find(|e| e.name == name) {
            match &e.handle {
                Handle::Counter(c) => return c.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let c = Counter::default();
        m.push(Entry {
            name: name.to_string(),
            handle: Handle::Counter(c.clone()),
        });
        c
    }

    /// Registers (or re-resolves) a gauge. Panics on a kind mismatch.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = lock_metrics(&self.inner);
        if let Some(e) = m.iter().find(|e| e.name == name) {
            match &e.handle {
                Handle::Gauge(g) => return g.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let g = Gauge::default();
        m.push(Entry {
            name: name.to_string(),
            handle: Handle::Gauge(g.clone()),
        });
        g
    }

    /// Registers (or re-resolves) a histogram. Panics on a kind mismatch.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = lock_metrics(&self.inner);
        if let Some(e) = m.iter().find(|e| e.name == name) {
            match &e.handle {
                Handle::Histogram(h) => return h.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let h = Histogram::default();
        m.push(Entry {
            name: name.to_string(),
            handle: Handle::Histogram(h.clone()),
        });
        h
    }

    /// Snapshots every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let m = lock_metrics(&self.inner);
        let mut out: Vec<MetricSnapshot> = m
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Appends one `{key="value"}` label to a metric name
/// (`labeled("ingest.late_dropped", "source", "2")`). Cold path only —
/// call at registration, never per record.
pub fn labeled(name: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// Merges per-shard metric dumps into one fleet-wide dump: counters and
/// histograms sum; gauges keep the last merged shard's value (they are
/// instantaneous, so summing would fabricate a reading no shard reported
/// — take one representative instead). Names absent from the accumulator
/// are appended; the result stays sorted by name.
pub fn merge_metrics(acc: &mut Vec<MetricSnapshot>, shard: &[MetricSnapshot]) {
    for s in shard {
        match acc.iter_mut().find(|a| a.name == s.name) {
            Some(a) => match (&mut a.value, &s.value) {
                (MetricValue::Counter(x), MetricValue::Counter(y)) => *x = x.wrapping_add(*y),
                (MetricValue::Gauge(x), MetricValue::Gauge(y)) => *x = *y,
                (MetricValue::Histogram(x), MetricValue::Histogram(y)) => x.merge(y),
                // A cross-shard kind clash: keep the accumulator's value
                // rather than corrupting it (heterogeneous builds).
                _ => {}
            },
            None => acc.push(s.clone()),
        }
    }
    acc.sort_by(|a, b| a.name.cmp(&b.name));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        // Re-registration resolves the same metric.
        assert_eq!(r.counter("a.count").get(), 4);
        let g = r.gauge("a.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value, MetricValue::Counter(4));
        assert_eq!(snap[1].value, MetricValue::Gauge(2.5));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_flip_is_a_programming_error() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 100, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1 + 1 + 7 + 100 + (1u64 << 40));
        assert_eq!(s.buckets[bucket_index(0)], 1);
        assert_eq!(s.buckets[bucket_index(1)], 2);
        // Median falls in the bucket holding the two 1s.
        assert_eq!(s.quantile_upper(0.5), bucket_upper(bucket_index(1)));
        // Max quantile reaches the top recorded bucket.
        assert_eq!(s.quantile_upper(1.0), bucket_upper(bucket_index(1 << 40)));
    }

    #[test]
    fn histogram_merge_conserves_count_and_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 3);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.sum, (0..100u64).sum::<u64>() * 4);
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(
            labeled("ingest.late_dropped", "source", 2),
            "ingest.late_dropped{source=\"2\"}"
        );
    }

    #[test]
    fn merge_metrics_sums_counters_keeps_gauges() {
        let mut acc = vec![
            MetricSnapshot {
                name: "c".into(),
                value: MetricValue::Counter(1),
            },
            MetricSnapshot {
                name: "g".into(),
                value: MetricValue::Gauge(1.0),
            },
        ];
        let shard = vec![
            MetricSnapshot {
                name: "c".into(),
                value: MetricValue::Counter(2),
            },
            MetricSnapshot {
                name: "g".into(),
                value: MetricValue::Gauge(7.0),
            },
            MetricSnapshot {
                name: "new".into(),
                value: MetricValue::Counter(5),
            },
        ];
        merge_metrics(&mut acc, &shard);
        assert_eq!(acc.len(), 3);
        assert_eq!(acc[0].value, MetricValue::Counter(3));
        assert_eq!(acc[1].value, MetricValue::Gauge(7.0));
        assert_eq!(acc[2].value, MetricValue::Counter(5));
    }
}
