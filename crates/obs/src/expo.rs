//! Prometheus-style text exposition of a metric dump.
//!
//! [`render_prometheus`] turns a `Vec<MetricSnapshot>` (local, from
//! `Registry::snapshot`, or fleet-wide, merged over the telemetry wire
//! frame) into the text format scrapers expect: `# TYPE` headers, dots
//! mapped to underscores, histograms as cumulative `_bucket{le="..."}`
//! series plus `_sum`/`_count`. Rendering is cold-path only — it is never
//! invoked from recording code.

use crate::metrics::{bucket_upper, MetricSnapshot, MetricValue, HISTOGRAM_BUCKETS};

/// Splits `ingest.late_dropped{source="2"}` into a sanitized series name
/// (`ingest_late_dropped`) and its raw label block (`source="2"`).
fn split_name(full: &str) -> (String, Option<&str>) {
    let (base, labels) = match full.split_once('{') {
        Some((b, rest)) => (b, rest.strip_suffix('}')),
        None => (full, None),
    };
    let sanitized: String = base
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    (sanitized, labels)
}

fn series(name: &str, labels: Option<&str>) -> String {
    match labels {
        Some(l) => format!("{name}{{{l}}}"),
        None => name.to_string(),
    }
}

fn series_extra(name: &str, labels: Option<&str>, key: &str, value: &str) -> String {
    match labels {
        Some(l) => format!("{name}{{{l},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Renders a metric dump in the Prometheus text exposition format.
pub fn render_prometheus(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in metrics {
        let (name, labels) = split_name(&m.name);
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{} {v}\n", series(&name, labels)));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{} {v}\n", series(&name, labels)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                // Cumulative buckets up to the highest populated one; the
                // +Inf bucket always closes the series.
                let top = h
                    .buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .map(|i| i + 1)
                    .unwrap_or(0)
                    .min(HISTOGRAM_BUCKETS - 1);
                let mut cumulative = 0u64;
                for i in 0..top {
                    cumulative += h.buckets[i];
                    let le = bucket_upper(i).to_string();
                    out.push_str(&format!(
                        "{} {cumulative}\n",
                        series_extra(&format!("{name}_bucket"), labels, "le", &le)
                    ));
                }
                out.push_str(&format!(
                    "{} {}\n",
                    series_extra(&format!("{name}_bucket"), labels, "le", "+Inf"),
                    h.count()
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    series(&format!("{name}_sum"), labels),
                    h.sum
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    series(&format!("{name}_count"), labels),
                    h.count()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Registry};

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        r.counter("supervisor.restarts").add(2);
        r.gauge("service.idle").set(1.0);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE service_idle gauge\nservice_idle 1\n"));
        assert!(text.contains("# TYPE supervisor_restarts counter\nsupervisor_restarts 2\n"));
    }

    #[test]
    fn labels_survive_sanitization() {
        let r = Registry::new();
        r.counter(&crate::metrics::labeled("ingest.late_dropped", "source", 2))
            .add(7);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("ingest_late_dropped{source=\"2\"} 7\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(6);
        let snap = h.snapshot();
        let text = render_prometheus(&[MetricSnapshot {
            name: "solve.chunk_ns".into(),
            value: MetricValue::Histogram(Box::new(snap)),
        }]);
        assert!(text.contains("# TYPE solve_chunk_ns histogram\n"));
        assert!(text.contains("solve_chunk_ns_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("solve_chunk_ns_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("solve_chunk_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("solve_chunk_ns_sum 8\n"));
        assert!(text.contains("solve_chunk_ns_count 3\n"));
    }
}
