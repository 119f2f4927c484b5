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
    /// configurations rotate in schedule order, one per quantum (window
    /// `w` runs `schedule[w % len]`); fixed-counter events are always
    /// measured. An event whose group is off the counters has no sample
    /// in that window.
    ///
    /// A schedule may name a configuration more than once, so a
    /// non-rotating order is written out as the schedule itself (for
    /// example `[g0, g1, g1, g1]` keeps `g0` off the counters after its
    /// first window).
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
        assert!(!schedule.is_empty(), "schedule must not be empty");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_events = self.catalog.len();
        let fixed: Vec<EventId> = self
            .catalog
            .iter()
            .filter(|e| e.domain == Domain::Fixed)
            .map(|e| e.id)
            .collect();

        let mut time_running = vec![0u64; n_events];
        let mut rates = vec![0.0; n_events];
        let mut windows: Vec<Window> = Vec::with_capacity(n_windows);
        let mut prev_events: Vec<EventId> = Vec::new();

        for w in 0..n_windows {
            let cfg = &schedule[w % schedule.len()];
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

            let samples = measured
                .iter()
                .enumerate()
                .map(|(mi, &ev)| {
                    let running = if mi < fixed.len() {
                        enabled
                    } else {
                        time_running[ev.index()]
                    };
                    make_sample(ev, w as u32, &subs[mi], enabled, running)
                })
                .collect();

            windows.push(Window {
                index: w as u32,
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
        for w in &run.windows {
            let even = w.index % 2 == 0;
            assert_eq!(
                w.sample_for(events[0]).is_some(),
                even,
                "window {}",
                w.index
            );
            assert_eq!(
                w.sample_for(events[4]).is_some(),
                !even,
                "window {}",
                w.index
            );
        }
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
