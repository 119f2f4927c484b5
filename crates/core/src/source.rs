//! Observation-source plumbing for the [`Monitor`] ingest path, plus the
//! real `/proc`-backed source.
//!
//! The simulated half of the observation plane lives in `bayesperf_simcpu`
//! ([`SampleSource`], [`SimGauge`](bayesperf_simcpu::SimGauge)); this
//! module is the service-side glue:
//!
//! * [`pump_sources`] — polls a set of sources for a window and pushes
//!   everything they produce into a monitor (the driving loop's one-liner);
//! * [`ProcSource`] — a real source reading `/proc/stat`, `/proc/meminfo`
//!   and `/proc/diskstats`, mapping diskstats' completed-IO and sector
//!   counters onto the catalog's gauge events. Off Linux (or when `/proc`
//!   is unreadable) it gracefully produces nothing — polling is always
//!   safe, never a panic or an error.
//!
//! `/proc` scraping is opt-in by construction, not by build flag: a
//! monitor reads only the sources its caller hands [`pump_sources`], so a
//! simulation that never builds a [`ProcSource`] stays fully
//! deterministic.

use crate::error::ShimError;
use crate::service::Monitor;
use bayesperf_simcpu::{Sample, SampleSource};

/// Polls every source for `window` and pushes the produced samples into
/// `monitor`, in source order. Returns the number of samples delivered.
///
/// Ring overflow drops are counted by the monitor itself
/// ([`Monitor::dropped`]); this helper only stops early on a closed
/// session, returning [`ShimError::SessionClosed`] like any other push.
pub fn pump_sources(
    monitor: &Monitor,
    sources: &mut [Box<dyn SampleSource + '_>],
    window: u32,
) -> Result<usize, ShimError> {
    let mut buf: Vec<Sample> = Vec::new();
    let mut delivered = 0usize;
    for source in sources.iter_mut() {
        buf.clear();
        source.poll(window, &mut buf);
        for s in &buf {
            match monitor.push_sample(*s) {
                Ok(()) => delivered += 1,
                Err(ShimError::SessionClosed) => return Err(ShimError::SessionClosed),
                // Overflow: already counted by the ring; keep going.
                Err(_) => {}
            }
        }
    }
    Ok(delivered)
}

pub use proc_source::ProcSource;

mod proc_source {
    use bayesperf_events::{Catalog, EventId, Semantic, SourceDesc, SourceId, SourceKind};
    use bayesperf_simcpu::{Sample, SampleSource};

    /// A real `/proc`-backed observation source (Linux): reads
    /// `/proc/diskstats` for block-layer IO (completed reads/writes and
    /// sectors, summed over physical devices) and touches `/proc/stat` /
    /// `/proc/meminfo` as liveness probes. Deltas between consecutive
    /// polls become per-window gauge samples for the catalog's
    /// `DiskReadOps`/`DiskWriteOps`/`DiskReadBytes`/`DiskWriteBytes`
    /// events, tagged with the source id it was built with.
    ///
    /// Where `/proc` does not exist (non-Linux, sandboxes) every poll
    /// produces nothing: the source is a graceful no-op, never an error.
    pub struct ProcSource {
        desc: SourceDesc,
        read_ops: Option<EventId>,
        write_ops: Option<EventId>,
        read_bytes: Option<EventId>,
        write_bytes: Option<EventId>,
        /// Cumulative (reads, writes, sectors_read, sectors_written) of
        /// the previous poll; `None` until the first successful scrape.
        prev: Option<[u64; 4]>,
        polls: u64,
        scrapes: u64,
    }

    impl ProcSource {
        /// Builds the source against `catalog`, reporting as `source`
        /// (usually one of the catalog's gauge sources, so the catalog's
        /// cadence/noise metadata applies; any id works — the samples
        /// carry whatever is given here).
        pub fn new(catalog: &Catalog, source: SourceId) -> ProcSource {
            let desc = catalog
                .source(source)
                .cloned()
                .unwrap_or_else(|| SourceDesc {
                    id: source,
                    name: "proc".to_string(),
                    kind: SourceKind::Proc,
                    cadence: 1,
                    noise: bayesperf_events::SourceNoise::HeavyTail { rel_sigma: 0.25 },
                });
            ProcSource {
                desc,
                read_ops: catalog.id(Semantic::DiskReadOps),
                write_ops: catalog.id(Semantic::DiskWriteOps),
                read_bytes: catalog.id(Semantic::DiskReadBytes),
                write_bytes: catalog.id(Semantic::DiskWriteBytes),
                prev: None,
                polls: 0,
                scrapes: 0,
            }
        }

        /// Polls performed (due windows).
        pub fn polls(&self) -> u64 {
            self.polls
        }

        /// Polls that successfully scraped `/proc` (0 off-Linux).
        pub fn scrapes(&self) -> u64 {
            self.scrapes
        }

        /// True for whole-device diskstats rows; partitions (sda1,
        /// nvme0n1p1, mmcblk0p2, …) are skipped so their traffic is not
        /// double counted against the parent device's row.
        fn is_whole_device(name: &str) -> bool {
            match name.chars().last() {
                Some(last) if last.is_ascii_digit() => {
                    // Trailing digit: a partition, unless the family
                    // numbers whole devices too (their partitions then
                    // carry a 'p' separator the whole device lacks).
                    (name.starts_with("nvme") && !name.contains('p'))
                        || (name.starts_with("mmcblk") && !name.contains('p'))
                        || name.starts_with("md")
                        || name.starts_with("dm-")
                        || name.starts_with("loop")
                        || name.starts_with("ram")
                }
                Some(_) => true,
                None => false,
            }
        }

        /// Sums (reads, writes, sectors_read, sectors_written) across
        /// whole block devices, or `None` when `/proc` is unavailable.
        fn scrape() -> Option<[u64; 4]> {
            // Liveness probes: a readable /proc/stat + /proc/meminfo is
            // what distinguishes "Linux with procfs" from a no-op host.
            std::fs::metadata("/proc/stat").ok()?;
            std::fs::metadata("/proc/meminfo").ok()?;
            let text = std::fs::read_to_string("/proc/diskstats").ok()?;
            let mut total = [0u64; 4];
            for line in text.lines() {
                let f: Vec<&str> = line.split_whitespace().collect();
                // major minor name reads ... sectors_read ... writes ...
                // sectors_written ... (kernel doc: fields 4,6,8,10).
                if f.len() < 10 {
                    continue;
                }
                if !Self::is_whole_device(f[2]) {
                    continue;
                }
                let get = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                total[0] += get(3); // reads completed
                total[1] += get(7); // writes completed
                total[2] += get(5); // sectors read
                total[3] += get(9); // sectors written
            }
            Some(total)
        }
    }

    impl SampleSource for ProcSource {
        fn descriptor(&self) -> &SourceDesc {
            &self.desc
        }

        fn poll(&mut self, window: u32, out: &mut Vec<Sample>) {
            if !window.is_multiple_of(self.desc.cadence.max(1)) {
                return;
            }
            self.polls += 1;
            let Some(now) = Self::scrape() else {
                // No /proc here: graceful no-op (off-Linux CI leg).
                return;
            };
            self.scrapes += 1;
            let Some(prev) = self.prev.replace(now) else {
                // First scrape establishes the baseline; deltas start
                // with the next poll.
                return;
            };
            let delta = |i: usize| now[i].saturating_sub(prev[i]) as f64;
            let enabled = u64::from(window) + 1;
            let mut push = |event: Option<EventId>, value: f64| {
                if let Some(event) = event {
                    out.push(Sample {
                        event,
                        window,
                        value,
                        sub_mean: value,
                        sub_sd: 0.0,
                        sub_n: 1,
                        time_enabled: enabled,
                        time_running: enabled,
                        source: self.desc.id,
                    });
                }
            };
            push(self.read_ops, delta(0));
            push(self.write_ops, delta(1));
            // diskstats sectors are 512-byte units regardless of the
            // device's real sector size.
            push(self.read_bytes, delta(2) * 512.0);
            push(self.write_bytes, delta(3) * 512.0);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use bayesperf_events::Arch;

        #[test]
        fn proc_source_polls_never_panic_and_respect_cadence() {
            let cat = Catalog::with_observation_plane(Arch::X86SkyLake);
            let sid = cat.sources()[1].id;
            let mut src = ProcSource::new(&cat, sid);
            let cadence = src.descriptor().cadence;
            let mut out = Vec::new();
            for w in 0..64u32 {
                src.poll(w, &mut out);
            }
            assert_eq!(src.polls(), u64::from(64 / cadence.max(1)));
            // Wherever /proc exists the samples are finite, tagged, and
            // non-negative (counters are cumulative, deltas can't go
            // negative barring reboot); where it doesn't, none appear.
            for s in &out {
                assert_eq!(s.source, sid);
                assert!(s.value.is_finite() && s.value >= 0.0);
                assert_eq!(s.window % cadence, 0);
            }
            if src.scrapes() == 0 {
                assert!(out.is_empty(), "no /proc must mean no samples");
            }
        }

        #[test]
        fn unknown_source_id_degrades_to_a_heavy_tail_proc_descriptor() {
            let cat = Catalog::new(Arch::X86SkyLake);
            let src = ProcSource::new(&cat, SourceId::from_raw(9));
            assert_eq!(src.descriptor().kind, SourceKind::Proc);
            assert_eq!(src.descriptor().id, SourceId::from_raw(9));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrector::CorrectorConfig;
    use bayesperf_events::{Arch, Catalog};
    use bayesperf_simcpu::{GaugeProfile, MultiplexRun, Pmu, PmuConfig, SimGauge};

    #[test]
    fn pump_sources_delivers_tagged_samples() {
        let cat = Catalog::with_observation_plane(Arch::X86SkyLake);
        let rates = bayesperf_events::synthesize(&cat, &bayesperf_events::FreeParams::default());
        let truth = bayesperf_simcpu::ConstantTruth::new(rates);
        let pmu_cfg = PmuConfig::for_catalog(&cat);
        let run = MultiplexRun {
            windows: Vec::new(),
            quantum_ticks: pmu_cfg.quantum_ticks,
            cycles_per_window: pmu_cfg.quantum_ticks as f64 * pmu_cfg.cycles_per_tick,
        };
        let monitor =
            Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).expect("spawn monitor");
        let mut sources: Vec<Box<dyn SampleSource>> = cat.sources()[1..]
            .iter()
            .map(|d| {
                Box::new(
                    SimGauge::new(
                        &cat,
                        d.id,
                        GaugeProfile::ideal(d.id.index() as u64),
                        &pmu_cfg,
                        truth.clone(),
                    )
                    .expect("gauge"),
                ) as Box<dyn SampleSource>
            })
            .collect();
        // Window 0: every gauge cadence divides 0, so all fire.
        let n = pump_sources(&monitor, &mut sources, 0).expect("pump");
        assert_eq!(n, 5, "all five gauge events delivered at window 0");
        // Window 1: none due.
        let n = pump_sources(&monitor, &mut sources, 1).expect("pump");
        assert_eq!(n, 0);
        let _ = Pmu::new(&cat, pmu_cfg); // catalog stays usable for a PMU too
    }
}
