//! Measurement helpers: order statistics, CPU clocks read from `/proc`,
//! and the metric tables the benchmark prints.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by untraced runs (`--trace 0`), in the
/// order and with the units `BENCHMARK.json` declares.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("visible_ms_p50", "ms"),
    ("visible_ms_p90", "ms"),
    ("read_ns_p50", "ns"),
    ("cpu_ms_per_window", "ms"),
    ("windows_per_s", "1/s"),
    ("err_pct", "%"),
    ("coverage95_gap", "fraction"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer the
/// workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inference.sweeps_per_chunk", "count"),
    ("inference.mcmc_updates_per_chunk", "count"),
    ("inference.analytic_updates_per_chunk", "count"),
    ("inference.mcmc_samples_per_chunk", "count"),
    ("inference.ns_per_mcmc_sample", "ns"),
    ("inference.acceptance", "fraction"),
    ("inference.converged_frac", "fraction"),
    ("inference.quarantined_sites", "count"),
    ("corrector.new_ms", "ms"),
    ("corrector.chunk_ms_p50", "ms"),
    ("corrector.chunk_ms_p90", "ms"),
    ("corrector.first_chunk_ms", "ms"),
    ("corrector.tail_ms", "ms"),
    ("corrector.jump_resets_per_chunk", "count"),
    ("corrector.jump_chunk_frac", "fraction"),
    ("service.push_ns_p50", "ns"),
    ("service.push_ns_p99", "ns"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p90", "ms"),
    ("service.flush_ms", "ms"),
    ("service.ring_dropped", "count"),
    ("service.late_dropped", "count"),
    ("service.divergences", "count"),
    ("snapshot.read_ns_p99", "ns"),
    ("wire.encode_ns_per_shard", "ns"),
    ("wire.decode_ns_per_shard", "ns"),
    ("wire.full_bytes_per_shard", "B"),
    ("fuse.ns_per_round", "ns"),
    ("net.round_us_p50", "us"),
    ("net.round_us_p90", "us"),
    ("net.kib_per_round", "KiB"),
    ("net.attempted_per_round", "count"),
    ("net.full_per_round", "count"),
    ("net.unchanged_per_round", "count"),
    ("net.skipped_per_round", "count"),
    ("net.failures_per_round", "count"),
    ("health.dead_per_round", "count"),
    ("health.transitions", "count"),
    ("health.stale_age_mean", "rounds"),
    ("gen.late_ms_p99", "ms"),
    ("gen.samples_per_window", "count"),
    ("gen.linux_err_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
pub type Metrics = HashMap<&'static str, f64>;

/// The `q`-quantile (`q` in `[0, 1]`) of `values`, interpolating linearly
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// CPU time consumed so far by the live threads named `comm` (as the
/// kernel truncates it, 15 bytes), from `/proc/self/task/*/schedstat`.
/// `None` when no such thread exists.
pub fn thread_cpu_ns(comm: &str) -> Option<u64> {
    let mut total = None;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let path = task.path();
        let Ok(name) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if name.trim_end() != comm {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
        let on_cpu: u64 = stat.split_whitespace().next()?.parse().ok()?;
        *total.get_or_insert(0) += on_cpu;
    }
    total
}

/// The monitor's inference thread name (`bayesperf-inference`) as
/// `/proc` reports it.
pub const INFERENCE_THREAD: &str = "bayesperf-infer";

/// User plus system CPU time of the whole process, exited threads
/// included, from `/proc/self/stat` (clock-tick resolution).
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some((utime + stime) * 10_000_000)
}

/// How slow the host runs, from a fixed reference kernel timed at
/// intervals during a pass. A 2-CPU host shared with other tenants drifts
/// by ±20% over minutes, slowing both CPUs together; end-to-end times are
/// divided by [`HostSpeed::factor`] so runs taken in slow and fast
/// stretches compare. A register-only loop does not see the drift; the
/// branchy, cache-resident sort below tracks it, and on 10 `suite_batch`
/// runs it cut the run-to-run spread of `read_ns_p50` from 0.18 to 0.08.
pub struct HostSpeed {
    kernel_ns: Vec<f64>,
    next: Instant,
    keys: Vec<f64>,
}

impl HostSpeed {
    const EVERY: Duration = Duration::from_millis(20);
    /// The kernel's time at nominal speed (a 2-vCPU Xeon host).
    const NOMINAL_NS: f64 = 60_000.0;

    pub fn new() -> HostSpeed {
        HostSpeed {
            kernel_ns: Vec::new(),
            next: Instant::now(),
            keys: Vec::with_capacity(2048),
        }
    }

    /// Times the kernel when the sampling interval has passed (about 0.3%
    /// of the calling thread).
    pub fn sample(&mut self) {
        let now = Instant::now();
        if now < self.next {
            return;
        }
        self.next = now + Self::EVERY;
        let start = Instant::now();
        // Sorting pseudo-random keys: branchy, cache-resident work.
        self.keys.clear();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2048 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.keys.push((x >> 11) as f64);
        }
        self.keys.sort_unstable_by(f64::total_cmp);
        std::hint::black_box(&self.keys);
        self.kernel_ns.push(ns(start.elapsed()));
    }

    /// Median kernel time over the nominal one: above 1 when the host ran
    /// slow; 1 before any sample.
    pub fn factor(&self) -> f64 {
        if self.kernel_ns.is_empty() {
            1.0
        } else {
            quantile(&self.kernel_ns, 0.5) / Self::NOMINAL_NS
        }
    }
}

/// Reads timed together in an untraced run; the metric is their mean.
pub const READ_BATCH: usize = 8;

/// Times `READ_BATCH` calls of `read`, which returns whether the call
/// failed: one sample per call when `traced`, else one sample of the batch
/// mean (cheaper to time than a ~40 ns call). Returns the failures.
pub fn time_reads(traced: bool, samples: &mut Vec<f64>, mut read: impl FnMut() -> bool) -> u64 {
    let mut failed = 0;
    if traced {
        for _ in 0..READ_BATCH {
            let start = Instant::now();
            let bad = read();
            samples.push(ns(start.elapsed()));
            failed += u64::from(bad);
        }
    } else {
        let start = Instant::now();
        for _ in 0..READ_BATCH {
            failed += u64::from(read());
        }
        samples.push(ns(start.elapsed()) / READ_BATCH as f64);
    }
    failed
}

/// Sleeps or spins until `deadline`, calling `idle` at least every
/// `idle_every` meanwhile.
pub fn wait_until(deadline: Instant, idle_every: Duration, mut idle: impl FnMut()) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        idle();
        let left = deadline.saturating_duration_since(Instant::now());
        if left > idle_every * 2 {
            std::thread::sleep(idle_every / 2);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cpu_clocks_are_readable() {
        assert!(process_cpu_ns().is_some());
        assert!(thread_cpu_ns("no-such-thread").is_none());
    }
}
