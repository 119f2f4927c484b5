//! The unified telemetry plane: metrics, pipeline spans, flight recorder,
//! and exposition.
//!
//! BayesPerf's pitch is trustworthy measurement, which obliges the
//! measurement system to be observable itself. This crate is the one
//! surface every subsystem publishes into:
//!
//! * [`metrics`] — a lock-free [`Registry`] of namespaced counters,
//!   gauges, and fixed-bucket log-scale [`Histogram`]s. Handles are
//!   pre-registered on the cold path; recording is a single relaxed
//!   atomic op (two for histograms) — no allocation, no locks, no
//!   formatting on the hot path;
//! * [`spans`] — pipeline tracing via per-thread ring buffers
//!   ([`SpanTracer`]/[`SpanRecorder`]), so one window's life is
//!   reconstructable ingest → assemble → solve → publish → scrape →
//!   fuse from telemetry alone;
//! * [`flight`] — a bounded [`FlightRecorder`] ring of recent structured
//!   events (restarts, quarantined divergences, health transitions,
//!   vetoed publishes, backoff parks), dumpable on demand and sealed
//!   automatically when a supervised service transitions to `Failed`;
//! * [`expo`] — [`render_prometheus`], the Prometheus-style text encoding
//!   of any metric dump (local or fleet-wide).
//!
//! The [`Telemetry`] bundle ties the three planes to one shared clock
//! epoch; `core::service::Monitor` and `fleet`'s scraper/aggregator each
//! own one and expose it through accessors. Fleet-wide aggregation
//! travels as structured [`MetricSnapshot`] lists over the wire (see
//! `fleet::wire`), merged with [`merge_metrics`], and is rendered to text
//! at the edge.
//!
//! This crate depends only on `std`, so every layer of the workspace can
//! publish into it without dependency cycles.

pub mod expo;
pub mod flight;
pub mod metrics;
pub mod spans;

pub use expo::render_prometheus;
pub use flight::{FlightEntry, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    bucket_index, bucket_upper, labeled, merge_metrics, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricSnapshot, MetricValue, Registry, HISTOGRAM_BUCKETS,
};
pub use spans::{SpanRecord, SpanRecorder, SpanTracer, Stage, DEFAULT_SPAN_CAPACITY};

/// One subsystem's telemetry: a metrics registry, a span tracer, and a
/// flight recorder. Cloning shares all three (they are handles onto the
/// same planes).
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    spans: SpanTracer,
    flight: FlightRecorder,
}

impl Telemetry {
    /// Creates an empty telemetry bundle with default capacities.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric namespace.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span plane.
    pub fn spans(&self) -> &SpanTracer {
        &self.spans
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Renders the current metric dump in the Prometheus text format.
    pub fn prometheus(&self) -> String {
        render_prometheus(&self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_bundles_the_three_planes() {
        let tele = Telemetry::new();
        tele.registry().counter("a.b").incr();
        let rec = tele.spans().recorder();
        rec.record(Stage::Ingest, 0, 1, 2);
        tele.flight().record(FlightEvent::PanicInjected);
        assert_eq!(tele.registry().snapshot().len(), 1);
        assert_eq!(tele.spans().records().len(), 1);
        assert_eq!(tele.flight().dump().len(), 1);
        assert!(tele.prometheus().contains("a_b 1"));
    }
}
