//! Simulated soft gauge sources: the non-PMU half of the observation plane.
//!
//! A [`SampleSource`] is anything that produces [`Sample`]s tagged with a
//! [`SourceId`]: the PMU simulator is one (implicitly — every sample it
//! emits carries [`SourceId::PMU`]); the gauges here are the others. Each
//! gauge reads the same [`GroundTruth`] the PMU integrates, at its own
//! cadence, through its own seeded noise channel:
//!
//! * near-Gaussian per-read noise of `rel_sigma` (fraction of the reading),
//! * a slow random-walk calibration *drift* shared by all of the source's
//!   events (a miscalibrated meter is wrong consistently),
//! * seeded *dropout* (a scrape that simply didn't happen),
//! * optionally a full [`DataFaultProfile`] stream (NaN/Inf/corrupt/stuck
//!   readings), reusing the compute-plane fault machinery.
//!
//! Determinism contract, mirroring [`DataFaultProfile`]/`LinkProfile`: all
//! stochastic decisions come from a per-source `splitmix64` stream in a
//! **fixed draw order** (drift, then per event: noise, dropout), and the
//! fault stream is a *separate* seeded stream — so enabling faults on one
//! source, or enabling one fault class, never perturbs any other source's
//! samples, nor the non-faulted samples of the same source.

use crate::datafault::{DataFaultProfile, DataFaultState};
use crate::pmu::PmuConfig;
use crate::sample::Sample;
use crate::truth::GroundTruth;
use crate::{splitmix64, unit};
use bayesperf_events::{Catalog, EventId, SourceDesc, SourceId};
use bayesperf_obs::{labeled, Counter, Telemetry};

/// A producer of tagged observation samples.
///
/// The `Monitor` ingest path accepts samples from any number of sources;
/// this trait is how a driving loop polls the non-PMU ones. A source at
/// cadence `c` is *due* every `c`-th window and produces one sample per
/// owned event when polled on a due window (minus dropout/faults).
pub trait SampleSource {
    /// The source's identity, kind, cadence, and advertised error model.
    fn descriptor(&self) -> &SourceDesc;

    /// True if the source is scheduled to produce samples in `window`.
    fn due(&self, window: u32) -> bool {
        window.is_multiple_of(self.descriptor().cadence.max(1))
    }

    /// Polls the source for `window`, appending produced samples to `out`.
    /// Not-due windows are a no-op; sources must tolerate being polled
    /// every window.
    fn poll(&mut self, window: u32, out: &mut Vec<Sample>);
}

/// Seeded noise/dropout profile of a simulated gauge — the simulation-side
/// twin of the catalog's advertised [`bayesperf_events::SourceNoise`],
/// following the `LinkProfile`/[`DataFaultProfile`] idiom (plain data,
/// deterministic per seed, `derive` for per-shard variation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeProfile {
    /// Per-read relative Gaussian noise (fraction of the true reading).
    pub rel_sigma: f64,
    /// Per-poll random-walk step of the calibration drift (relative).
    pub drift_step: f64,
    /// Probability that a due reading is simply never delivered.
    pub dropout_prob: f64,
    /// Stream seed; distinct seeds give independent gauges.
    pub seed: u64,
}

impl GaugeProfile {
    /// A perfect gauge: no noise, no drift, no dropout. Useful as a
    /// baseline and for tests that want exact values.
    pub fn ideal(seed: u64) -> GaugeProfile {
        GaugeProfile {
            rel_sigma: 0.0,
            drift_step: 0.0,
            dropout_prob: 0.0,
            seed,
        }
    }

    /// A profile matched to a source's *advertised* error model: per-read
    /// sigma straight from the descriptor, drift accumulated over ~8 polls
    /// reaching the advertised drift scale, and a small dropout rate.
    pub fn for_source(desc: &SourceDesc, seed: u64) -> GaugeProfile {
        let (rel_sigma, drift) = match desc.noise {
            bayesperf_events::SourceNoise::Gaussian { rel_sigma, drift } => (rel_sigma, drift),
            bayesperf_events::SourceNoise::HeavyTail { rel_sigma } => (rel_sigma, 0.0),
            bayesperf_events::SourceNoise::StudentT => (0.0, 0.0),
        };
        GaugeProfile {
            rel_sigma,
            drift_step: drift / 8.0,
            dropout_prob: 0.02,
            seed,
        }
    }

    /// Derives an independent same-shape profile for `shard`, like
    /// [`DataFaultProfile::derive`].
    pub fn derive(&self, shard: u64) -> GaugeProfile {
        GaugeProfile {
            seed: self
                .seed
                .wrapping_add(shard.wrapping_mul(0xa076_1d64_78bd_642f)),
            ..*self
        }
    }
}

/// Standard Gaussian via Box–Muller over the splitmix stream (always
/// exactly two draws, preserving the fixed draw order).
fn gaussian(state: &mut u64) -> f64 {
    let u1 = unit(splitmix64(state)).max(1e-12);
    let u2 = unit(splitmix64(state));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A simulated gauge source: reads the true rates of its owned events from
/// a [`GroundTruth`] at its cadence and reports per-window counts through
/// the profile's noise channel.
///
/// Owns its *own* ground truth handle (truths are deterministic functions
/// of the tick, so a clone of the PMU's truth observes the same machine).
#[derive(Debug, Clone)]
pub struct SimGauge<T: GroundTruth> {
    desc: SourceDesc,
    events: Vec<EventId>,
    profile: GaugeProfile,
    state: u64,
    drift_frac: f64,
    faults: Option<DataFaultState>,
    truth: T,
    quantum_ticks: u64,
    cycles_per_tick: f64,
    n_catalog: usize,
    produced: u64,
    dropped: u64,
    /// `sim.samples_emitted{source=...}` / `sim.samples_dropped{source=...}`
    /// registry handles, present once [`with_telemetry`](Self::with_telemetry)
    /// attaches a plane. `None` costs nothing on the poll path.
    emitted: Option<Counter>,
    lost: Option<Counter>,
}

impl<T: GroundTruth> SimGauge<T> {
    /// Creates a gauge for `source` of `catalog` (which must be built with
    /// [`Catalog::with_observation_plane`]). Returns `None` for an unknown
    /// source id or for the PMU source (the PMU simulator plays that role).
    pub fn new(
        catalog: &Catalog,
        source: SourceId,
        profile: GaugeProfile,
        pmu: &PmuConfig,
        truth: T,
    ) -> Option<SimGauge<T>> {
        if source == SourceId::PMU {
            return None;
        }
        let desc = catalog.source(source)?.clone();
        let events = catalog.events_of_source(source);
        // Warm the mixer so the first decision is well mixed (same idiom
        // as DataFaultState).
        let mut state = profile.seed ^ 0x5851_f42d_4c95_7f2d;
        let _ = splitmix64(&mut state);
        Some(SimGauge {
            desc,
            events,
            profile,
            state,
            drift_frac: 0.0,
            faults: None,
            truth,
            quantum_ticks: pmu.quantum_ticks,
            cycles_per_tick: pmu.cycles_per_tick,
            n_catalog: catalog.len(),
            produced: 0,
            dropped: 0,
            emitted: None,
            lost: None,
        })
    }

    /// Attaches a seeded data-fault stream (applied after gauge noise,
    /// from its own independent stream).
    pub fn with_faults(mut self, profile: DataFaultProfile) -> Self {
        self.faults = Some(DataFaultState::new(profile));
        self
    }

    /// Attaches a telemetry plane: every subsequent poll bumps
    /// `sim.samples_emitted{source=...}` / `sim.samples_dropped{source=...}`
    /// on its registry, labelled with this gauge's source name. Telemetry
    /// never perturbs the sample stream — draws, values and dropout are
    /// bit-identical with and without it.
    pub fn with_telemetry(mut self, tele: &Telemetry) -> Self {
        let reg = tele.registry();
        self.emitted =
            Some(reg.counter(&labeled("sim.samples_emitted", "source", &self.desc.name)));
        self.lost = Some(reg.counter(&labeled("sim.samples_dropped", "source", &self.desc.name)));
        self
    }

    /// Samples delivered so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Due readings lost to dropout so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current accumulated calibration drift (fraction of the reading).
    pub fn drift(&self) -> f64 {
        self.drift_frac
    }
}

impl<T: GroundTruth> SampleSource for SimGauge<T> {
    fn descriptor(&self) -> &SourceDesc {
        &self.desc
    }

    fn poll(&mut self, window: u32, out: &mut Vec<Sample>) {
        if !self.due(window) {
            return;
        }
        // Fixed draw order: drift first (2 draws), then per event in
        // catalog order: noise (2 draws) + dropout (1 draw), always
        // consumed — dropout and faults never shift the noise stream.
        let z_drift = gaussian(&mut self.state);
        self.drift_frac += self.profile.drift_step * z_drift;

        // Integrate true per-window counts exactly like the PMU does.
        let mut rates = vec![0.0; self.n_catalog];
        let mut counts = vec![0.0; self.n_catalog];
        for t in 0..self.quantum_ticks {
            let tick = u64::from(window) * self.quantum_ticks + t;
            self.truth.rates_at(tick, &mut rates);
            for (c, r) in counts.iter_mut().zip(&rates) {
                *c += r * self.cycles_per_tick / 1.0e6;
            }
        }

        let enabled = (u64::from(window) + 1) * self.quantum_ticks;
        for i in 0..self.events.len() {
            let ev = self.events[i];
            let z = gaussian(&mut self.state);
            let d_drop = unit(splitmix64(&mut self.state));
            let value = (counts[ev.index()] * (1.0 + self.drift_frac + self.profile.rel_sigma * z))
                .max(0.0);
            let mut s = Sample {
                event: ev,
                window,
                value,
                sub_mean: value,
                sub_sd: 0.0,
                sub_n: 1,
                time_enabled: enabled,
                time_running: enabled,
                source: self.desc.id,
            };
            if let Some(faults) = &mut self.faults {
                faults.apply(&mut s);
            }
            if d_drop < self.profile.dropout_prob {
                self.dropped += 1;
                if let Some(c) = &self.lost {
                    c.incr();
                }
                continue;
            }
            self.produced += 1;
            if let Some(c) = &self.emitted {
                c.incr();
            }
            out.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::ConstantTruth;
    use bayesperf_events::{synthesize, Arch, FreeParams};

    fn setup() -> (Catalog, ConstantTruth, PmuConfig) {
        let cat = Catalog::with_observation_plane(Arch::X86SkyLake);
        let rates = synthesize(&cat, &FreeParams::default());
        let truth = ConstantTruth::new(rates);
        let pmu = PmuConfig::for_catalog(&cat);
        (cat, truth, pmu)
    }

    fn run(gauge: &mut dyn SampleSource, n_windows: u32) -> Vec<(u32, u16, u64)> {
        // Bit patterns, not f64s: NaN faults must compare equal.
        let mut out = Vec::new();
        for w in 0..n_windows {
            gauge.poll(w, &mut out);
        }
        out.iter()
            .map(|s| (s.window, s.event.index() as u16, s.value.to_bits()))
            .collect()
    }

    #[test]
    fn gauges_respect_their_cadence() {
        let (cat, truth, pmu) = setup();
        for desc in cat.sources().iter().skip(1) {
            let mut g =
                SimGauge::new(&cat, desc.id, GaugeProfile::ideal(7), &pmu, truth.clone()).unwrap();
            let mut out = Vec::new();
            for w in 0..64u32 {
                g.poll(w, &mut out);
            }
            assert!(!out.is_empty());
            for s in &out {
                assert_eq!(s.window % desc.cadence, 0, "{} off cadence", desc.name);
                assert_eq!(s.source, desc.id);
                assert_eq!(s.sub_n, 1, "a gauge read is one sub-sample");
            }
        }
    }

    #[test]
    fn ideal_gauge_reports_exact_true_counts() {
        let (cat, truth, pmu) = setup();
        let sid = cat.sources()[1].id;
        let mut g = SimGauge::new(&cat, sid, GaugeProfile::ideal(1), &pmu, truth.clone()).unwrap();
        let mut out = Vec::new();
        g.poll(0, &mut out);
        let rates = synthesize(&cat, &FreeParams::default());
        let cycles_per_window = pmu.quantum_ticks as f64 * pmu.cycles_per_tick;
        for s in &out {
            let want = rates[s.event.index()] * cycles_per_window / 1.0e6;
            assert!(
                (s.value - want).abs() <= 1e-9 * want.abs().max(1.0),
                "event {}: got {} want {}",
                s.event,
                s.value,
                want
            );
        }
    }

    #[test]
    fn same_seed_same_stream_different_seeds_diverge() {
        let (cat, truth, pmu) = setup();
        let sid = cat.sources()[1].id;
        let prof = GaugeProfile {
            rel_sigma: 0.05,
            drift_step: 0.01,
            dropout_prob: 0.1,
            seed: 42,
        };
        let mut a = SimGauge::new(&cat, sid, prof, &pmu, truth.clone()).unwrap();
        let mut b = SimGauge::new(&cat, sid, prof, &pmu, truth.clone()).unwrap();
        assert_eq!(run(&mut a, 256), run(&mut b, 256));

        let mut c = SimGauge::new(&cat, sid, prof.derive(1), &pmu, truth.clone()).unwrap();
        assert_ne!(run(&mut a, 256), run(&mut c, 256));
    }

    #[test]
    fn the_pmu_source_is_not_a_gauge() {
        let (cat, truth, pmu) = setup();
        assert!(SimGauge::new(&cat, SourceId::PMU, GaugeProfile::ideal(0), &pmu, truth).is_none());
    }

    /// The satellite determinism guarantee: attaching a fault stream to
    /// one source must not perturb another source's samples, and the
    /// fault stream must not shift the gauge's own noise stream (clean
    /// samples stay bit-identical).
    #[test]
    fn faults_on_one_source_never_perturb_another() {
        let (cat, truth, pmu) = setup();
        let s1 = cat.sources()[1].id;
        let s2 = cat.sources()[2].id;
        let prof = GaugeProfile {
            rel_sigma: 0.03,
            drift_step: 0.005,
            dropout_prob: 0.05,
            seed: 9,
        };

        // Baseline: both sources clean.
        let mut a1 = SimGauge::new(&cat, s1, prof, &pmu, truth.clone()).unwrap();
        let mut a2 = SimGauge::new(&cat, s2, prof.derive(1), &pmu, truth.clone()).unwrap();
        let base1 = run(&mut a1, 512);
        let base2 = run(&mut a2, 512);

        // Fault source 2 heavily; source 1's stream must be bit-identical.
        let mut b1 = SimGauge::new(&cat, s1, prof, &pmu, truth.clone()).unwrap();
        let mut b2 = SimGauge::new(&cat, s2, prof.derive(1), &pmu, truth.clone())
            .unwrap()
            .with_faults(DataFaultProfile::noisy(77));
        let f1 = run(&mut b1, 512);
        let f2 = run(&mut b2, 512);
        assert_eq!(base1, f1, "fault stream on src2 leaked into src1");
        assert_ne!(base2, f2, "noisy fault profile must actually fire");

        // Same cardinality: faults poison values, they don't drop samples,
        // and they consume no draws from the gauge noise stream — so the
        // set of (window, event) slots is unchanged.
        let slots = |v: &[(u32, u16, u64)]| v.iter().map(|(w, e, _)| (*w, *e)).collect::<Vec<_>>();
        assert_eq!(slots(&base2), slots(&f2));
    }

    /// Telemetry attachment is observation-only: the sample stream stays
    /// bit-identical, and the labelled registry counters track the
    /// `produced()`/`dropped()` accessors exactly.
    #[test]
    fn telemetry_counts_match_and_never_perturb_the_stream() {
        let (cat, truth, pmu) = setup();
        let sid = cat.sources()[1].id;
        let prof = GaugeProfile {
            rel_sigma: 0.02,
            drift_step: 0.004,
            dropout_prob: 0.2,
            seed: 31,
        };
        let mut plain = SimGauge::new(&cat, sid, prof, &pmu, truth.clone()).unwrap();
        let tele = bayesperf_obs::Telemetry::new();
        let mut instrumented = SimGauge::new(&cat, sid, prof, &pmu, truth.clone())
            .unwrap()
            .with_telemetry(&tele);
        assert_eq!(run(&mut plain, 512), run(&mut instrumented, 512));

        let name = &cat.source(sid).unwrap().name;
        let reg = tele.registry();
        let emitted = reg.counter(&labeled("sim.samples_emitted", "source", name));
        let lost = reg.counter(&labeled("sim.samples_dropped", "source", name));
        assert_eq!(emitted.get(), instrumented.produced());
        assert_eq!(lost.get(), instrumented.dropped());
        assert!(emitted.get() > 0 && lost.get() > 0);
    }

    #[test]
    fn dropout_fires_at_roughly_the_configured_rate() {
        let (cat, truth, pmu) = setup();
        let sid = cat.sources()[1].id;
        let prof = GaugeProfile {
            rel_sigma: 0.0,
            drift_step: 0.0,
            dropout_prob: 0.25,
            seed: 5,
        };
        let mut g = SimGauge::new(&cat, sid, prof, &pmu, truth).unwrap();
        let mut out = Vec::new();
        for w in 0..4096u32 {
            g.poll(w, &mut out);
        }
        let due = g.produced() + g.dropped();
        let rate = g.dropped() as f64 / due as f64;
        assert!(
            (rate - 0.25).abs() < 0.05,
            "dropout rate {rate} too far from 0.25"
        );
    }
}
