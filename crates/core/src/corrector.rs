//! Chained correction of PMU sample windows, chunk by chunk.
//!
//! Chunks run sequentially, each chunk's slice-0 prior seeded from the
//! previous chunk's final-slice posterior (the paper's temporal coupling),
//! and every chunk runs on the corrector's **one** persistent
//! [`ChunkEngine`]: the factor-graph topology, sweep schedule and all
//! moment-solver scratch are built once, in [`Corrector::new`].
//!
//! * **warm** ([`CorrectorConfig::warm_start`], the default): each chunk
//!   only swaps observations and keeps the EP site messages, so the
//!   steady-state loop (chunk 2+) performs **zero heap allocations** at
//!   `threads = 1` and is capped at the warm sweep count instead of the
//!   cold one.
//! * **cold** ([`CorrectorConfig::cold_start`], the benchmark baseline):
//!   each chunk discards the messages and runs the cold sweep count on the
//!   same engine.
//!
//! [`Corrector::try_push_chunk`] corrects one full chunk and
//! [`Corrector::push_tail`] a ragged final chunk. The batch
//! [`Corrector::correct_run`] is those two calls over a recorded run,
//! borrowing its sample windows in place.

use crate::error::ShimError;
use crate::model::{ChunkEngine, ChunkPosterior, ModelConfig};
use bayesperf_events::{Catalog, EventId};
use bayesperf_inference::{EpConfig, EpRunStats, Gaussian};
use bayesperf_simcpu::{MultiplexRun, Sample};

/// Configuration of the [`Corrector`].
#[derive(Debug, Clone)]
pub struct CorrectorConfig {
    /// Model hyperparameters (chunk size, priors, factor widths).
    pub model: ModelConfig,
    /// EP settings.
    pub ep: EpConfig,
    /// EP engine farm workers per chunk. `1` means fully sequential.
    pub threads: usize,
    /// Carry the EP approximation across chunks (incremental correction).
    pub warm_start: bool,
}

impl CorrectorConfig {
    /// Default configuration for a recorded run: sequential execution,
    /// warm-started engine reuse.
    pub fn for_run(run: &MultiplexRun) -> Self {
        let model = ModelConfig::for_run(run);
        let ep = model.fast_ep();
        CorrectorConfig {
            model,
            ep,
            threads: 1,
            warm_start: true,
        }
    }

    /// Sets the worker-thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables warm-start: every chunk runs cold EP from the vacuous
    /// approximation with the cold sweep count (the pre-incremental
    /// baseline the warm-vs-cold benchmark pairs against).
    pub fn cold_start(mut self) -> Self {
        self.warm_start = false;
        self
    }
}

/// Aggregate work counters of one correction run — the observability
/// behind `BENCH_inference.json` and the warm-vs-cold comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorrectionStats {
    /// Chunks processed.
    pub chunks: u64,
    /// Chunks whose EP run met its tolerance.
    pub converged_chunks: u64,
    /// Chunks that ran warm-started.
    pub warm_chunks: u64,
    /// EP sites selectively reset because the change-point detector
    /// flagged their slice's data as jumped.
    pub jump_site_resets: u64,
    /// EP sweeps executed across all chunks.
    pub sweeps: u64,
    /// Site updates merged across all chunks.
    pub analytic_site_updates: u64,
}

impl CorrectionStats {
    /// Folds one EP run's counters into the aggregate (`warm` marks the
    /// chunk as warm-started). Public so external harnesses (e.g. the
    /// `bench_json` baseline emitter) accumulate the same fields the
    /// corrector does instead of re-implementing the bookkeeping.
    pub fn absorb_run(&mut self, s: &EpRunStats, warm: bool) {
        self.chunks += 1;
        if s.converged {
            self.converged_chunks += 1;
        }
        if warm {
            self.warm_chunks += 1;
        }
        self.sweeps += s.sweeps_run as u64;
        self.analytic_site_updates += s.analytic_site_updates;
    }

    /// Mean EP sweeps per chunk (0 when no chunks ran).
    pub fn sweeps_per_chunk(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.sweeps as f64 / self.chunks as f64
        }
    }
}

/// Posterior distributions for every catalog event across all windows of a
/// run — BayesPerf's output.
#[derive(Debug, Clone)]
pub struct PosteriorSeries {
    n_events: usize,
    data: Vec<Gaussian>,
    /// Fraction of chunks whose EP run converged within tolerance.
    pub convergence_rate: f64,
    /// Work counters of the correction run.
    pub stats: CorrectionStats,
}

impl PosteriorSeries {
    /// Number of windows covered.
    pub fn windows(&self) -> usize {
        self.data.len() / self.n_events
    }

    /// The posterior of `event` at window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range; [`PosteriorSeries::try_posterior`] is
    /// the fallible variant.
    pub fn posterior(&self, w: usize, event: EventId) -> Gaussian {
        assert!(w < self.windows(), "window {w} out of range");
        self.data[w * self.n_events + event.index()]
    }

    /// The posterior of `event` at window `w`, or
    /// [`ShimError::SliceOutOfRange`] when `w` is outside the series.
    pub fn try_posterior(&self, w: usize, event: EventId) -> Result<Gaussian, ShimError> {
        if w >= self.windows() {
            return Err(ShimError::SliceOutOfRange {
                slice: w,
                slices: self.windows(),
            });
        }
        Ok(self.data[w * self.n_events + event.index()])
    }

    /// The maximum-likelihood (posterior-mean) series of an event — what
    /// §6.2 feeds to the DTW error metric.
    pub fn mle_series(&self, event: EventId) -> Vec<f64> {
        (0..self.windows())
            .map(|w| self.posterior(w, event).mean)
            .collect()
    }

    /// The posterior standard-deviation series of an event.
    pub fn sd_series(&self, event: EventId) -> Vec<f64> {
        (0..self.windows())
            .map(|w| self.posterior(w, event).std_dev())
            .collect()
    }
}

/// Runs BayesPerf inference over a sample stream, chunk by chunk.
///
/// The corrector owns one persistent [`ChunkEngine`] — built in
/// [`Corrector::new`] because the factor-graph topology is a pure function
/// of the catalog — and runs every full chunk on it, whether streamed
/// through [`Corrector::push_chunk`] or batched by
/// [`Corrector::correct_run`]. Correction therefore takes `&mut self`.
#[derive(Debug)]
pub struct Corrector<'a> {
    catalog: &'a Catalog,
    config: CorrectorConfig,
    /// The full-chunk engine (slice count = `config.model.slices`).
    engine: ChunkEngine,
    /// Chunks pushed through the streaming API since the last reset.
    stream_count: u64,
    /// Sites reset by the last push's change-point detector.
    jump_resets: u64,
    /// Whether a [`Corrector::resume_from`] prior is pending: the next
    /// push solves cold (the poisoned chunk's messages are gone) but
    /// composes the recovered chain prior — a *statistically* warm
    /// restart.
    resume_pending: bool,
}

impl<'a> Corrector<'a> {
    /// Creates a corrector; builds the per-catalog inference engine once.
    pub fn new(catalog: &'a Catalog, config: CorrectorConfig) -> Self {
        let engine = ChunkEngine::new(catalog, &config.model, config.ep);
        Corrector {
            catalog,
            config,
            engine,
            stream_count: 0,
            jump_resets: 0,
            resume_pending: false,
        }
    }

    /// Seeds a freshly built (or reset) corrector from **count-unit**
    /// posterior marginals — the last published snapshot a supervisor
    /// recovered after a crash. The next [`Corrector::push_chunk`] solves
    /// cold (the crashed engine's in-flight messages are discarded — only
    /// the poisoned chunk is lost) but chains off the recovered posterior,
    /// so steady-state accuracy survives the restart. Non-finite entries
    /// of `posteriors` fall back to the base prior. Returns how many events
    /// were seeded.
    pub fn resume_from(&mut self, posteriors: &[Gaussian]) -> Result<usize, ShimError> {
        if posteriors.len() != self.engine.n_events() {
            return Err(ShimError::CatalogMismatch {
                expected: self.engine.n_events(),
                got: posteriors.len(),
            });
        }
        let seeded = self.engine.set_chain_prior_counts(posteriors);
        self.resume_pending = true;
        Ok(seeded)
    }

    /// The corrector's configuration.
    pub fn config(&self) -> &CorrectorConfig {
        &self.config
    }

    /// Retunes the worker-thread budget mid-stream. Purely a throughput
    /// knob: the engine farm is bit-identical at any thread count, so this
    /// never changes results.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Streaming correction: corrects exactly one chunk of
    /// `config.model.slices` windows, chaining the prior and (with
    /// `warm_start`) warm-starting the engine from the previous
    /// [`Corrector::push_chunk`] call (the first chunk after a reset runs
    /// cold). This is the shim's online path; after warm-up (chunk 2+) a
    /// warm push performs **zero heap allocations** at `threads = 1`. Read
    /// results back through [`Corrector::posterior`].
    ///
    /// # Panics
    ///
    /// Panics if `windows.len() != config.model.slices`;
    /// [`Corrector::try_push_chunk`] is the fallible variant.
    pub fn push_chunk(&mut self, windows: &[&[Sample]]) -> EpRunStats {
        match self.try_push_chunk(windows) {
            Ok(stats) => stats,
            Err(e) => panic!("push_chunk: {e}"),
        }
    }

    /// [`Corrector::push_chunk`] that reports a wrong-sized chunk as
    /// [`ShimError::WindowMismatch`] (or [`ShimError::EmptyChunk`]) instead
    /// of panicking — the background inference service's ingestion path.
    pub fn try_push_chunk(&mut self, windows: &[&[Sample]]) -> Result<EpRunStats, ShimError> {
        let k = self.config.model.slices.max(1);
        if windows.is_empty() {
            return Err(ShimError::EmptyChunk);
        }
        if windows.len() != k {
            return Err(ShimError::WindowMismatch {
                expected: k,
                got: windows.len(),
            });
        }
        let c = self.stream_count;
        // A pending resume prior survives the first-chunk clear: the push
        // runs cold (no stale messages) but composes the recovered chain
        // prior, making the restart warm in the statistical sense.
        if c == 0 && !self.resume_pending {
            self.engine.clear_chain_prior();
        }
        self.resume_pending = false;
        if c > 0 && self.config.warm_start {
            // Warm load with selective change-point resets: slices whose
            // data jumped re-solve from vacuous messages, the rest stay
            // warm.
            self.jump_resets = self.engine.load_warm_adaptive(windows) as u64;
        } else {
            self.jump_resets = 0;
            self.engine.load_cold(windows);
        }
        let stats = self.engine.run_farm(self.config.threads);
        self.engine.capture_chain_prior();
        self.stream_count += 1;
        Ok(stats)
    }

    /// Corrects a **partial** final chunk (fewer than `config.model.slices`
    /// windows) — the stream's ragged tail that [`Corrector::push_chunk`]
    /// cannot accept. Builds a one-shot engine of `windows.len()` slices,
    /// chained off the last full chunk's posterior, and runs it cold
    /// ([`Corrector::correct_run`] calls this too, so a streamed run
    /// followed by `push_tail` reproduces the batch series bit for bit).
    /// The persistent engine's chain state and stream count are untouched:
    /// the tail is terminal, and a later [`Corrector::push_chunk`]
    /// continues chained from the last *full* chunk.
    pub fn push_tail(
        &mut self,
        windows: &[&[Sample]],
    ) -> Result<(ChunkPosterior, EpRunStats), ShimError> {
        let k = self.config.model.slices.max(1);
        if windows.is_empty() {
            return Err(ShimError::EmptyChunk);
        }
        if windows.len() >= k {
            // The tail must be strictly shorter than a full chunk; a
            // chunk of `k` (or more) windows belongs on `push_chunk`.
            return Err(ShimError::WindowMismatch {
                expected: k,
                got: windows.len(),
            });
        }
        let mut tail = ChunkEngine::with_slices(
            self.catalog,
            &self.config.model,
            self.config.ep,
            windows.len(),
        );
        if self.stream_count > 0 || self.resume_pending {
            tail.set_chain_prior(self.engine.chain_prior());
        }
        tail.load_cold(windows);
        let stats = tail.run_farm(self.config.threads);
        Ok((tail.to_posterior(stats.converged), stats))
    }

    /// How many sites the most recent [`Corrector::push_chunk`] selectively
    /// reset on a change-point.
    pub fn last_push_jump_resets(&self) -> u64 {
        self.jump_resets
    }

    /// Posterior of `event` at `slice` of the most recent
    /// [`Corrector::push_chunk`], in count units.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range; [`Corrector::try_posterior`] is
    /// the fallible variant.
    pub fn posterior(&self, slice: usize, event: EventId) -> Gaussian {
        self.engine.posterior(slice, event)
    }

    /// Posterior of `event` at `slice` of the most recent
    /// [`Corrector::push_chunk`], or [`ShimError::SliceOutOfRange`].
    pub fn try_posterior(&self, slice: usize, event: EventId) -> Result<Gaussian, ShimError> {
        if slice >= self.engine.slices() {
            return Err(ShimError::SliceOutOfRange {
                slice,
                slices: self.engine.slices(),
            });
        }
        Ok(self.engine.posterior(slice, event))
    }

    /// Resets the streaming state: the next [`Corrector::push_chunk`] runs
    /// cold from the base prior (any pending resume prior is discarded).
    pub fn reset_stream(&mut self) {
        self.stream_count = 0;
        self.resume_pending = false;
    }

    /// Corrects a recorded run into posterior series, borrowing the run's
    /// sample windows in place.
    pub fn correct_run(&mut self, run: &MultiplexRun) -> PosteriorSeries {
        let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
        self.correct_slices(&windows)
    }

    /// Corrects borrowed sample windows as a fresh stream: every full
    /// chunk goes through [`Corrector::push_chunk`] and a ragged final
    /// chunk through [`Corrector::push_tail`], so the series equals
    /// streaming the same windows after a [`Corrector::reset_stream`].
    ///
    /// Every chunk runs on the deterministic engine farm, so thread count
    /// is purely a throughput knob — `threads = 1` and `threads = 8`
    /// produce bit-identical series.
    pub fn correct_slices(&mut self, windows: &[&[Sample]]) -> PosteriorSeries {
        let k = self.config.model.slices.max(1);
        let ne = self.catalog.len();
        let mut data: Vec<Gaussian> = Vec::with_capacity(windows.len() * ne);
        let mut stats = CorrectionStats::default();
        self.reset_stream();
        for (c, chunk) in windows.chunks(k).enumerate() {
            if chunk.len() == k {
                let s = self.push_chunk(chunk);
                stats.absorb_run(&s, c > 0 && self.config.warm_start);
                stats.jump_site_resets += self.jump_resets;
                for t in 0..k {
                    data.extend(self.catalog.iter().map(|e| self.engine.posterior(t, e.id)));
                }
            } else {
                let (post, s) = self
                    .push_tail(chunk)
                    .expect("chunks() yields a non-empty tail shorter than k");
                stats.absorb_run(&s, false);
                for t in 0..post.slices() {
                    data.extend(self.catalog.iter().map(|e| post.posterior(t, e.id)));
                }
            }
        }

        PosteriorSeries {
            n_events: ne,
            data,
            convergence_rate: if stats.chunks == 0 {
                1.0
            } else {
                stats.converged_chunks as f64 / stats.chunks as f64
            },
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ScheduleTransformer;
    use bayesperf_events::{Arch, Semantic};
    use bayesperf_simcpu::{pack_round_robin, NoiseModel, Pmu, PmuConfig};
    use bayesperf_workloads::{by_name, kmeans};

    #[test]
    fn corrector_beats_linux_scaling_on_phased_workload() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(
            &cat,
            PmuConfig {
                noise: NoiseModel::default(),
                seed: 11,
                ..PmuConfig::for_catalog(&cat)
            },
        );
        // 12 core events -> 3 configurations rotating.
        let events: Vec<EventId> = [
            Semantic::L1dMisses,
            Semantic::IcacheMisses,
            Semantic::L2References,
            Semantic::L2Misses,
            Semantic::LlcHits,
            Semantic::LlcMisses,
            Semantic::BrInst,
            Semantic::BrMisp,
            Semantic::UopsIssued,
            Semantic::UopsRetired,
            Semantic::UopsBadSpec,
            Semantic::IdqUopsNotDelivered,
        ]
        .iter()
        .map(|&s| cat.require(s))
        .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        assert_eq!(schedule.len(), 3);
        let n_windows = 24;
        let run = pmu.run_multiplexed(&mut truth, &schedule, n_windows);

        let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run));
        let series = corrector.correct_run(&run);
        assert_eq!(series.windows(), n_windows);

        // Compare average relative error over all windows for a rotated
        // event: BayesPerf posterior mean vs Linux zero-order hold.
        let ev = cat.require(Semantic::L1dMisses);
        let truth_series = run.truth_series(ev);
        let bayes = series.mle_series(ev);

        // Linux estimate: deltas of the cumulative enabled/running-scaled
        // count, the value perf's read() reports in sampling mode. During
        // unscheduled windows the delta reflects the *run-average* rate —
        // the §2 smearing error.
        let mut linux = Vec::with_capacity(n_windows);
        let mut cum_raw = 0.0;
        let mut prev_scaled = 0.0;
        let mut running = 0u64;
        for w in &run.windows {
            if let Some(s) = w.sample_for(ev) {
                cum_raw += s.value;
                running = s.time_running;
            }
            let enabled = (w.index as u64 + 1) * run.quantum_ticks;
            let scaled = if running == 0 {
                0.0
            } else {
                cum_raw * enabled as f64 / running as f64
            };
            linux.push(scaled - prev_scaled);
            prev_scaled = scaled;
        }

        let err = |est: &[f64]| -> f64 {
            est.iter()
                .zip(&truth_series)
                .skip(3) // let estimators warm up
                .map(|(e, t)| (e - t).abs() / t.max(1.0))
                .sum::<f64>()
                / (n_windows - 3) as f64
        };
        let e_bayes = err(&bayes);
        let e_linux = err(&linux);
        assert!(
            e_bayes < e_linux,
            "BayesPerf {e_bayes:.3} should beat Linux hold {e_linux:.3}"
        );
    }

    #[test]
    fn posterior_series_shape_and_access() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events = vec![cat.require(Semantic::L1dMisses)];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 6);
        let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run));
        let series = corrector.correct_run(&run);
        assert_eq!(series.windows(), 6);
        let ev = cat.require(Semantic::Cycles);
        assert_eq!(series.mle_series(ev).len(), 6);
        assert_eq!(series.sd_series(ev).len(), 6);
        assert!(series.convergence_rate >= 0.0 && series.convergence_rate <= 1.0);
        assert!(series.stats.chunks > 0);
        assert!(series.stats.analytic_site_updates > 0);
    }

    #[test]
    fn chained_mode_identical_at_any_thread_count() {
        // Chained chunks serialize on the prior, but each chunk's EP farm
        // is bit-identical at any thread count — so the whole series is,
        // warm or cold, including the ragged tail.
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events = vec![cat.require(Semantic::L1dMisses)];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 8);
        let warm = CorrectorConfig::for_run(&run);
        for base in [warm.clone(), warm.cold_start()] {
            let series_for = |threads: usize| {
                let cfg = base.clone().with_threads(threads);
                Corrector::new(&cat, cfg).correct_run(&run)
            };
            let a = series_for(1);
            let b = series_for(2);
            assert_eq!(a.windows(), 8);
            let ev = cat.require(Semantic::L1dMisses);
            assert_eq!(a.mle_series(ev), b.mle_series(ev), "bit-identical MLE");
            assert_eq!(a.sd_series(ev), b.sd_series(ev), "bit-identical SD");
            assert_eq!(a.stats, b.stats, "identical work accounting");
        }
    }

    #[test]
    fn cold_correct_run_matches_a_fresh_engine_per_chunk() {
        // Cold mode runs every chunk on the corrector's one engine:
        // `load_cold` discards all messages and restarts the sweep count,
        // so each chunk must equal, bit for bit, a freshly built engine
        // chained off the previous chunk's final-slice posterior.
        for arch in Arch::all() {
            let cat = Catalog::new(arch);
            let events: Vec<EventId> = cat.programmable_events().into_iter().take(16).collect();
            let schedule = ScheduleTransformer::new(&cat).plan(&events);
            for name in ["TeraSort", "ALS", "Join"] {
                let mut truth = by_name(name).expect("in suite").instantiate(&cat, 0);
                let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
                let run = pmu.run_multiplexed(&mut truth, &schedule.configs, 18);
                let cfg = CorrectorConfig::for_run(&run).cold_start();
                let k = cfg.model.slices;
                let series = Corrector::new(&cat, cfg.clone()).correct_run(&run);

                let mut prev: Option<ChunkEngine> = None;
                for (c, chunk) in run.windows.chunks(k).enumerate() {
                    let windows: Vec<&[Sample]> =
                        chunk.iter().map(|w| w.samples.as_slice()).collect();
                    let mut engine = ChunkEngine::new(&cat, &cfg.model, cfg.ep);
                    if let Some(prev) = &mut prev {
                        prev.capture_chain_prior();
                        engine.set_chain_prior(prev.chain_prior());
                    }
                    engine.load_cold(&windows);
                    engine.run_farm(cfg.threads);
                    for t in 0..k {
                        for e in cat.iter() {
                            let got = series.posterior(c * k + t, e.id);
                            let want = engine.posterior(t, e.id);
                            assert_eq!(
                                (got.mean.to_bits(), got.var.to_bits()),
                                (want.mean.to_bits(), want.var.to_bits()),
                                "{arch} {name}: chunk {c} slice {t} event {}",
                                e.name
                            );
                        }
                    }
                    prev = Some(engine);
                }
            }
        }
    }

    #[test]
    fn resume_from_seeds_the_chain_prior_across_a_restart() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events = vec![
            cat.require(Semantic::L1dMisses),
            cat.require(Semantic::LlcMisses),
        ];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 18);
        let cfg = CorrectorConfig::for_run(&run);
        let k = cfg.model.slices;

        // Stream two chunks, then "crash": capture the last snapshot the
        // service would have published (count-unit last-slice posteriors).
        let mut a = Corrector::new(&cat, cfg.clone());
        for chunk in 0..2 {
            let windows: Vec<&[Sample]> = run.windows[chunk * k..(chunk + 1) * k]
                .iter()
                .map(|w| w.samples.as_slice())
                .collect();
            a.push_chunk(&windows);
        }
        let published: Vec<Gaussian> = cat.iter().map(|d| a.posterior(k - 1, d.id)).collect();

        let next: Vec<&[Sample]> = run.windows[2 * k..3 * k]
            .iter()
            .map(|w| w.samples.as_slice())
            .collect();

        // Restarted corrector seeded from the snapshot vs a cold one.
        let mut resumed = Corrector::new(&cat, cfg.clone());
        let seeded = resumed.resume_from(&published).unwrap();
        assert_eq!(seeded, cat.len(), "every event seeds from the snapshot");
        resumed.push_chunk(&next);
        let mut cold = Corrector::new(&cat, cfg.clone());
        cold.push_chunk(&next);

        // The recovered chain prior is composed at slice 0, so the
        // restarted corrector is strictly better informed there than the
        // cold one (smaller mean posterior variance).
        let mean_var = |c: &Corrector| -> f64 {
            cat.iter().map(|d| c.posterior(0, d.id).var).sum::<f64>() / cat.len() as f64
        };
        assert!(
            mean_var(&resumed) < mean_var(&cold),
            "resumed {:.3e} must beat cold {:.3e} at slice 0",
            mean_var(&resumed),
            mean_var(&cold)
        );

        // Poisoned snapshot entries fall back to the base prior instead of
        // re-ingesting the poison that may have caused the crash.
        let mut poisoned = published.clone();
        poisoned[0] = Gaussian::new(f64::NAN, 1.0);
        let mut b = Corrector::new(&cat, cfg.clone());
        assert_eq!(b.resume_from(&poisoned).unwrap(), cat.len() - 1);
        b.push_chunk(&next);
        for d in cat.iter() {
            let g = b.posterior(0, d.id);
            assert!(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0);
        }

        // Wrong-length snapshots are a typed error.
        let mut c = Corrector::new(&cat, cfg);
        assert!(matches!(
            c.resume_from(&published[..1]),
            Err(ShimError::CatalogMismatch { .. })
        ));
    }

    #[test]
    fn warm_start_does_much_less_work_than_cold() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events = vec![
            cat.require(Semantic::L1dMisses),
            cat.require(Semantic::LlcMisses),
        ];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 24);

        let warm = Corrector::new(&cat, CorrectorConfig::for_run(&run)).correct_run(&run);
        let cold =
            Corrector::new(&cat, CorrectorConfig::for_run(&run).cold_start()).correct_run(&run);
        assert_eq!(warm.windows(), cold.windows());
        assert!(warm.stats.warm_chunks > 0);
        assert_eq!(cold.stats.warm_chunks, 0);
        assert!(warm.stats.sweeps < cold.stats.sweeps);
        // The algorithmic win: a warm chunk does at most half the site
        // updates of the same chunk solved cold. Chunk 0 is cold on both
        // paths, so compare the chunks after it.
        let k = CorrectorConfig::for_run(&run).model.slices;
        let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
        let mut warm = Corrector::new(&cat, CorrectorConfig::for_run(&run));
        let mut cold = Corrector::new(&cat, CorrectorConfig::for_run(&run).cold_start());
        let (mut warm_updates, mut cold_updates) = (0, 0);
        for (c, chunk) in windows.chunks(k).enumerate() {
            let (w, cs) = (warm.push_chunk(chunk), cold.push_chunk(chunk));
            if c > 0 {
                warm_updates += w.analytic_site_updates;
                cold_updates += cs.analytic_site_updates;
            }
        }
        assert!(
            warm_updates * 2 <= cold_updates,
            "warm {warm_updates} site updates vs cold {cold_updates}"
        );
    }

    #[test]
    fn warm_marginals_stay_close_to_cold_marginals() {
        // Warm-start is an approximation accelerator, not a model change:
        // posterior means must stay within a few percent of the cold path
        // (the warm sweep cap dominates the difference).
        let cat = Catalog::new(Arch::X86SkyLake);
        let prog = kmeans();
        let mut truth = prog.instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events = vec![
            cat.require(Semantic::L1dMisses),
            cat.require(Semantic::LlcMisses),
        ];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 12);

        let warm = Corrector::new(&cat, CorrectorConfig::for_run(&run)).correct_run(&run);
        let cold =
            Corrector::new(&cat, CorrectorConfig::for_run(&run).cold_start()).correct_run(&run);
        let ev = cat.require(Semantic::L1dMisses);
        let (w, c) = (warm.mle_series(ev), cold.mle_series(ev));
        let rels: Vec<f64> = w
            .iter()
            .zip(&c)
            .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
            .collect();
        let mean_rel = rels.iter().sum::<f64>() / rels.len() as f64;
        let max_rel = rels.iter().fold(0.0f64, |a, &b| a.max(b));
        // Tight on average; a single phase-boundary window may deviate
        // further (the two paths settle the transient on different
        // trajectories).
        assert!(mean_rel < 0.12, "mean relative deviation {mean_rel:.3}");
        assert!(max_rel < 0.6, "max relative deviation {max_rel:.3}");
    }
}
