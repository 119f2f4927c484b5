//! The PMU simulator: multiplexed sampling and polling runs.

use crate::config::Configuration;
use crate::noise::NoiseModel;
use crate::sample::Sample;
use crate::truth::GroundTruth;
use bayesperf_events::{Catalog, Domain, EventId, SourceId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulation parameters of a PMU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuConfig {
    /// Ticks per multiplexing quantum (1 tick models 1 ms).
    pub quantum_ticks: u64,
    /// Core cycles elapsing per tick.
    pub cycles_per_tick: f64,
    /// The measurement-noise model.
    pub noise: NoiseModel,
    /// RNG seed; distinct seeds model distinct application runs.
    pub seed: u64,
}

impl PmuConfig {
    /// Default configuration for an architecture: 4 ms quanta at the
    /// arch's nominal clock.
    pub fn for_catalog(catalog: &Catalog) -> Self {
        PmuConfig {
            quantum_ticks: 4,
            cycles_per_tick: catalog.arch().clock_hz() / 1000.0,
            noise: NoiseModel::default(),
            seed: 0,
        }
    }
}

/// One multiplexing window (= one quantum) of a run.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index.
    pub index: u32,
    /// Which schedule configuration was active (`usize::MAX` for polling).
    pub config_index: usize,
    /// Samples delivered for this window (fixed events + scheduled events).
    pub samples: Vec<Sample>,
    /// True counts per catalog event during this window (evaluation only —
    /// not visible to estimators on real hardware).
    pub truth: Vec<f64>,
}

impl Window {
    /// The sample for `id` in this window, if the event was measured.
    pub fn sample_for(&self, id: EventId) -> Option<&Sample> {
        self.samples.iter().find(|s| s.event == id)
    }
}

/// The result of a PMU run: a sequence of windows.
#[derive(Debug, Clone)]
pub struct MultiplexRun {
    /// Windows in time order.
    pub windows: Vec<Window>,
    /// Ticks per window.
    pub quantum_ticks: u64,
    /// Cycles per window.
    pub cycles_per_window: f64,
}

impl MultiplexRun {
    /// The ground-truth count series of an event across windows.
    pub fn truth_series(&self, id: EventId) -> Vec<f64> {
        self.windows.iter().map(|w| w.truth[id.index()]).collect()
    }

    /// The windows in which `id` was actually measured (extrapolated
    /// carry-forward samples do not count as measurements).
    pub fn measured_windows(&self, id: EventId) -> Vec<u32> {
        self.windows
            .iter()
            .filter(|w| w.sample_for(id).is_some_and(|s| !s.is_extrapolated()))
            .map(|w| w.index)
            .collect()
    }
}

/// How a driven run represents events whose group is *not* scheduled in a
/// window.
///
/// Real perf tooling reports a count for every requested event every time
/// it is read, scheduled or not: unscheduled stretches are filled with the
/// `time_enabled / time_running` extrapolation — the zero-order hold over
/// the run-average rate that is precisely the §2 scaling error BayesPerf
/// exists to correct (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extrapolate {
    /// Unscheduled events emit nothing; their windows simply have no
    /// sample (the historical [`Pmu::run_multiplexed`] behaviour).
    Off,
    /// Every unscheduled multiplexed event that has run at least once
    /// emits a synthetic carry-forward sample per window: the Linux-scaled
    /// run-average count. `sub_n == 0` marks the sample as extrapolated —
    /// it is an *estimate*, not a hardware read, and downstream observation
    /// models must widen its noise accordingly.
    LinuxScaled,
}

/// The simulated performance monitoring unit.
#[derive(Debug, Clone)]
pub struct Pmu<'a> {
    catalog: &'a Catalog,
    config: PmuConfig,
}

impl<'a> Pmu<'a> {
    /// Creates a PMU over a catalog.
    pub fn new(catalog: &'a Catalog, config: PmuConfig) -> Self {
        Pmu { catalog, config }
    }

    /// The catalog this PMU counts events from.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The simulation parameters.
    pub fn config(&self) -> &PmuConfig {
        &self.config
    }

    /// Runs `n_windows` of multiplexed sampling: the schedule's
    /// configurations rotate round-robin, one per quantum; fixed-counter
    /// events are always measured.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty.
    pub fn run_multiplexed(
        &self,
        truth: &mut dyn GroundTruth,
        schedule: &[Configuration],
        n_windows: usize,
    ) -> MultiplexRun {
        self.run_driven(truth, schedule, n_windows, Extrapolate::Off, |w, _| {
            w as usize % schedule.len()
        })
    }

    /// Runs `n_windows` of multiplexed sampling with an external schedule
    /// driver: before each window `w`, `pick(w, prev)` chooses which of
    /// `schedule`'s configurations runs next, where `prev` is the
    /// just-completed previous window (`None` for window 0). This is the
    /// multiplexing scheduler's entry point (`bayesperf_mlsched::mux`):
    /// `pick` decides per window, and may read `prev` (its samples, and
    /// its truth for evaluation) before it does.
    ///
    /// With [`Extrapolate::LinuxScaled`], every multiplexed event whose
    /// group is unscheduled in a window (and that has run at least once)
    /// additionally emits a carry-forward sample — the run-average count a
    /// `time_enabled/time_running` scaling read would report, marked
    /// `sub_n == 0`. Those windows thereby carry the paper's scaling error
    /// explicitly instead of silently going missing.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty or `pick` returns an out-of-range
    /// configuration index.
    pub fn run_driven(
        &self,
        truth: &mut dyn GroundTruth,
        schedule: &[Configuration],
        n_windows: usize,
        extrapolate: Extrapolate,
        mut pick: impl FnMut(u64, Option<&Window>) -> usize,
    ) -> MultiplexRun {
        assert!(!schedule.is_empty(), "schedule must not be empty");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_events = self.catalog.len();
        let fixed: Vec<EventId> = self
            .catalog
            .iter()
            .filter(|e| e.domain == Domain::Fixed)
            .map(|e| e.id)
            .collect();
        // The multiplexed pool: every event any configuration measures, in
        // catalog order — the set a LinuxScaled run extrapolates over.
        let mut pool: Vec<EventId> = schedule
            .iter()
            .flat_map(|c| c.events().iter().copied())
            .collect();
        pool.sort_unstable();
        pool.dedup();

        let mut time_running = vec![0u64; n_events];
        let mut cum_raw = vec![0.0f64; n_events];
        let mut rates = vec![0.0; n_events];
        let mut windows: Vec<Window> = Vec::with_capacity(n_windows);
        let mut prev_events: Vec<EventId> = Vec::new();

        for w in 0..n_windows {
            let config_index = pick(w as u64, windows.last());
            assert!(
                config_index < schedule.len(),
                "driver picked configuration {config_index} of {}",
                schedule.len()
            );
            let cfg = &schedule[config_index];
            let mut measured: Vec<EventId> = fixed.clone();
            measured.extend_from_slice(cfg.events());

            let mut truth_counts = vec![0.0; n_events];
            let mut subs: Vec<Vec<f64>> = vec![Vec::new(); measured.len()];

            for t in 0..self.config.quantum_ticks {
                let tick = w as u64 * self.config.quantum_ticks + t;
                truth.rates_at(tick, &mut rates);
                for (i, v) in rates.iter().enumerate() {
                    truth_counts[i] += v * self.config.cycles_per_tick / 1.0e6;
                }
                for (mi, &ev) in measured.iter().enumerate() {
                    let is_fixed = mi < fixed.len();
                    let at_boundary = t == 0 && !is_fixed && !prev_events.contains(&ev);
                    let true_tick = rates[ev.index()] * self.config.cycles_per_tick / 1.0e6;
                    subs[mi].push(self.config.noise.perturb(&mut rng, true_tick, at_boundary));
                }
            }

            let enabled = (w as u64 + 1) * self.config.quantum_ticks;
            for &ev in cfg.events() {
                time_running[ev.index()] += self.config.quantum_ticks;
            }

            let mut samples: Vec<Sample> = measured
                .iter()
                .enumerate()
                .map(|(mi, &ev)| {
                    let is_fixed = mi < fixed.len();
                    let running = if is_fixed {
                        enabled
                    } else {
                        time_running[ev.index()]
                    };
                    let s = make_sample(ev, w as u32, &subs[mi], enabled, running);
                    if !is_fixed {
                        cum_raw[ev.index()] += s.value;
                    }
                    s
                })
                .collect();

            if extrapolate == Extrapolate::LinuxScaled {
                for &ev in &pool {
                    let running = time_running[ev.index()];
                    if cfg.contains(ev) || running == 0 {
                        continue;
                    }
                    // Zero-order hold over the run-average rate: what a
                    // perf read's enabled/running scaling attributes to
                    // this window (§2's smearing error, made explicit).
                    let rate = cum_raw[ev.index()] / running as f64;
                    samples.push(Sample {
                        event: ev,
                        window: w as u32,
                        value: rate * self.config.quantum_ticks as f64,
                        sub_mean: rate,
                        sub_sd: 0.0,
                        sub_n: 0,
                        time_enabled: enabled,
                        time_running: running,
                        source: SourceId::PMU,
                    });
                }
            }

            windows.push(Window {
                index: w as u32,
                config_index,
                samples,
                truth: truth_counts,
            });
            prev_events = cfg.events().to_vec();
        }

        MultiplexRun {
            windows,
            quantum_ticks: self.config.quantum_ticks,
            cycles_per_window: self.config.quantum_ticks as f64 * self.config.cycles_per_tick,
        }
    }

    /// Runs `n_windows` of *polling*: every requested event gets a dedicated
    /// counter (no multiplexing, no boundary smearing) — the paper's
    /// baseline measurement mode for establishing reference traces.
    pub fn run_polling(
        &self,
        truth: &mut dyn GroundTruth,
        events: &[EventId],
        n_windows: usize,
    ) -> MultiplexRun {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x706f_6c6c); // "poll"
        let n_events = self.catalog.len();
        let mut rates = vec![0.0; n_events];
        let mut windows = Vec::with_capacity(n_windows);

        for w in 0..n_windows {
            let mut truth_counts = vec![0.0; n_events];
            let mut subs: Vec<Vec<f64>> = vec![Vec::new(); events.len()];
            for t in 0..self.config.quantum_ticks {
                let tick = w as u64 * self.config.quantum_ticks + t;
                truth.rates_at(tick, &mut rates);
                for (i, v) in rates.iter().enumerate() {
                    truth_counts[i] += v * self.config.cycles_per_tick / 1.0e6;
                }
                for (mi, &ev) in events.iter().enumerate() {
                    let true_tick = rates[ev.index()] * self.config.cycles_per_tick / 1.0e6;
                    subs[mi].push(self.config.noise.perturb(&mut rng, true_tick, false));
                }
            }
            let enabled = (w as u64 + 1) * self.config.quantum_ticks;
            let samples = events
                .iter()
                .enumerate()
                .map(|(mi, &ev)| make_sample(ev, w as u32, &subs[mi], enabled, enabled))
                .collect();
            windows.push(Window {
                index: w as u32,
                config_index: usize::MAX,
                samples,
                truth: truth_counts,
            });
        }

        MultiplexRun {
            windows,
            quantum_ticks: self.config.quantum_ticks,
            cycles_per_window: self.config.quantum_ticks as f64 * self.config.cycles_per_tick,
        }
    }
}

fn make_sample(ev: EventId, window: u32, subs: &[f64], enabled: u64, running: u64) -> Sample {
    let n = subs.len().max(1) as f64;
    let total: f64 = subs.iter().sum();
    let mean = total / n;
    let var = subs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Sample {
        event: ev,
        window,
        value: total,
        sub_mean: mean,
        sub_sd: var.sqrt(),
        sub_n: subs.len() as u32,
        time_enabled: enabled,
        time_running: running,
        source: SourceId::PMU,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::pack_round_robin;
    use crate::truth::ConstantTruth;
    use bayesperf_events::{synthesize, Arch, FreeParams, Semantic};

    fn setup() -> (Catalog, Vec<f64>) {
        let cat = Catalog::new(Arch::X86SkyLake);
        let rates = synthesize(&cat, &FreeParams::default());
        (cat, rates)
    }

    fn noiseless(cat: &Catalog) -> PmuConfig {
        PmuConfig {
            noise: NoiseModel::none(),
            ..PmuConfig::for_catalog(cat)
        }
    }

    #[test]
    fn truth_integration_is_exact_without_noise() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates.clone());
        let ev = cat.require(Semantic::BrInst);
        let schedule = pack_round_robin(&cat, &[ev]).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 5);
        let expected = rates[ev.index()] * pmu.config().cycles_per_tick / 1.0e6
            * pmu.config().quantum_ticks as f64;
        for w in &run.windows {
            assert!((w.truth[ev.index()] - expected).abs() < 1e-6);
            let s = w.sample_for(ev).unwrap();
            assert!((s.value - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_events_present_in_every_window() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates);
        let ev = cat.require(Semantic::BrInst);
        let schedule = pack_round_robin(&cat, &[ev]).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 4);
        let cycles = cat.require(Semantic::Cycles);
        for w in &run.windows {
            assert!(w.sample_for(cycles).is_some(), "window {}", w.index);
        }
    }

    #[test]
    fn multiplexed_events_rotate() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates);
        // 8 core events -> 2 configurations, each event in every 2nd window.
        let events: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::UopsBadSpec,
            Semantic::IdqMiteUops,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::L1dMisses,
            Semantic::L2References,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        assert_eq!(schedule.len(), 2);
        let run = pmu.run_multiplexed(&mut truth, &schedule, 8);
        assert_eq!(run.measured_windows(events[0]), vec![0, 2, 4, 6]);
        assert_eq!(run.measured_windows(events[4]), vec![1, 3, 5, 7]);
    }

    #[test]
    fn time_accounting_tracks_duty_cycle() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates);
        let events: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::UopsBadSpec,
            Semantic::IdqMiteUops,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::L1dMisses,
            Semantic::L2References,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 8);
        // After the final window, each event ran half the time.
        let last = run.windows.last().unwrap();
        let s = last.sample_for(events[4]).unwrap();
        assert_eq!(s.time_enabled, 8 * pmu.config().quantum_ticks);
        assert_eq!(s.time_running, 4 * pmu.config().quantum_ticks);
        // Linux scaling doubles the raw count.
        assert!((s.linux_scaled() - 2.0 * s.value).abs() < 1e-9);
    }

    #[test]
    fn polling_measures_everything_every_window() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates);
        let events: Vec<EventId> = cat.programmable_events();
        let run = pmu.run_polling(&mut truth, &events, 6);
        for w in &run.windows {
            assert_eq!(w.samples.len(), events.len());
            for s in &w.samples {
                assert_eq!(s.time_enabled, s.time_running);
            }
        }
    }

    #[test]
    fn sub_sample_count_equals_quantum() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates);
        let ev = cat.require(Semantic::BrInst);
        let schedule = pack_round_robin(&cat, &[ev]).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 2);
        let s = run.windows[0].sample_for(ev).unwrap();
        assert_eq!(s.sub_n as u64, pmu.config().quantum_ticks);
        // Constant truth + no noise -> zero sub-sample deviation.
        assert!(s.sub_sd < 1e-9);
    }

    #[test]
    fn driven_run_follows_the_driver_and_matches_round_robin() {
        let (cat, rates) = setup();
        let mut cfg = PmuConfig::for_catalog(&cat);
        cfg.seed = 9;
        let pmu = Pmu::new(&cat, cfg);
        let events: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::L1dMisses,
            Semantic::L2References,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        assert!(schedule.len() >= 2);
        // A driver that happens to pick round-robin reproduces
        // run_multiplexed bit for bit (same RNG consumption order).
        let mut truth = ConstantTruth::new(rates.clone());
        let rr = pmu.run_multiplexed(&mut truth, &schedule, 8);
        let mut truth = ConstantTruth::new(rates.clone());
        let mut picks = Vec::new();
        let driven = pmu.run_driven(&mut truth, &schedule, 8, Extrapolate::Off, |w, prev| {
            assert_eq!(prev.map(|p| p.index), (w > 0).then(|| w as u32 - 1));
            let c = w as usize % schedule.len();
            picks.push(c);
            c
        });
        for (a, b) in rr.windows.iter().zip(&driven.windows) {
            assert_eq!(a.config_index, b.config_index);
            assert_eq!(a.samples, b.samples);
        }
        // An arbitrary (non-rotating) driver is honoured verbatim.
        let order = [1usize, 1, 0, 1, 0, 0, 1, 0];
        let mut truth = ConstantTruth::new(rates);
        let run = pmu.run_driven(&mut truth, &schedule, 8, Extrapolate::Off, |w, _| {
            order[w as usize]
        });
        let got: Vec<usize> = run.windows.iter().map(|w| w.config_index).collect();
        assert_eq!(got, order);
    }

    #[test]
    fn extrapolated_samples_fill_unscheduled_windows_with_scaling_error() {
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let mut truth = ConstantTruth::new(rates.clone());
        let events: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::UopsBadSpec,
            Semantic::IdqMiteUops,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::L1dMisses,
            Semantic::L2References,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        assert_eq!(schedule.len(), 2);
        let run = pmu.run_driven(
            &mut truth,
            &schedule,
            6,
            Extrapolate::LinuxScaled,
            |w, _| w as usize % 2,
        );
        // Window 0: group 1's events have never run -> no carry-forward.
        assert!(run.windows[0].sample_for(events[4]).is_none());
        // Window 1: group 0 is off the counters but ran in window 0 ->
        // every group-0 event carries an extrapolated sample.
        let s = run.windows[1].sample_for(events[0]).expect("extrapolated");
        assert!(s.is_extrapolated());
        assert_eq!(s.sub_n, 0);
        // Constant truth + no noise: the run-average equals the truth, so
        // the carry-forward is exact here.
        let expected = run.windows[1].truth[events[0].index()];
        assert!(
            (s.value - expected).abs() < 1e-6,
            "{} vs {expected}",
            s.value
        );
        // Extrapolations never count as measurements.
        assert_eq!(run.measured_windows(events[0]), vec![0, 2, 4]);
        // The real sample in window 2 is a hardware read again.
        assert!(!run.windows[2]
            .sample_for(events[0])
            .unwrap()
            .is_extrapolated());
    }

    #[test]
    fn extrapolation_carries_stale_counts_across_phase_changes() {
        // The point of marking extrapolations: under a rate change, the
        // carry-forward is *wrong* by construction (it reports the
        // run-average, not the current phase) — the Fig. 2 scaling error.
        let (cat, rates) = setup();
        let pmu = Pmu::new(&cat, noiseless(&cat));
        let ev = cat.require(Semantic::L1dMisses);
        struct StepTruth {
            rates: Vec<f64>,
            idx: usize,
        }
        impl GroundTruth for StepTruth {
            fn rates_at(&mut self, tick: u64, out: &mut [f64]) {
                out.copy_from_slice(&self.rates);
                if tick >= 8 {
                    out[self.idx] *= 5.0; // phase change mid-run
                }
            }
        }
        let mut truth = StepTruth {
            rates,
            idx: ev.index(),
        };
        let others: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::BrInst,
            Semantic::BrMisp,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let mut all = vec![ev];
        all.extend(&others);
        let schedule = pack_round_robin(&cat, &all).unwrap();
        assert_eq!(schedule.len(), 2);
        // ev runs only in window 0 (group 0), then stays unscheduled while
        // the rate quintuples at tick 8 (window 2).
        let run = pmu.run_driven(
            &mut truth,
            &schedule,
            6,
            Extrapolate::LinuxScaled,
            |w, _| usize::from(w > 0),
        );
        let w4 = &run.windows[4];
        let s = w4.sample_for(ev).expect("carry-forward");
        assert!(s.is_extrapolated());
        let truth_now = w4.truth[ev.index()];
        assert!(
            s.value < 0.5 * truth_now,
            "stale carry-forward {} must badly undershoot the new phase {truth_now}",
            s.value
        );
    }

    #[test]
    fn noise_grows_with_multiplexing_boundaries() {
        let (cat, rates) = setup();
        let mut cfg = PmuConfig::for_catalog(&cat);
        cfg.seed = 7;
        let pmu = Pmu::new(&cat, cfg);
        let ev = cat.require(Semantic::L1dMisses);
        // Schedule A: event always on (1 config). B: event every 4th window.
        let others: Vec<EventId> = [
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::UopsBadSpec,
            Semantic::IdqMiteUops,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::IdqDsbUops,
            Semantic::IdqMsUops,
            Semantic::L2References,
            Semantic::L2Misses,
            Semantic::LlcHits,
            Semantic::LlcMisses,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let mut all = vec![ev];
        all.extend(&others);
        let schedule_a = pack_round_robin(&cat, &[ev]).unwrap();
        let schedule_b = pack_round_robin(&cat, &all).unwrap();
        assert!(schedule_b.len() >= 3);

        let err = |schedule: &[Configuration]| {
            let mut truth = ConstantTruth::new(rates.clone());
            let run = pmu.run_multiplexed(&mut truth, schedule, 64);
            let mut total = 0.0;
            let mut n = 0usize;
            for w in &run.windows {
                if let Some(s) = w.sample_for(ev) {
                    let t = w.truth[ev.index()];
                    total += (s.value - t).abs() / t.max(1.0);
                    n += 1;
                }
            }
            total / n as f64
        };
        let e_always = err(&schedule_a);
        let e_mux = err(&schedule_b);
        assert!(
            e_mux > e_always,
            "multiplexed per-window error {e_mux} should exceed always-on {e_always}"
        );
    }
}
