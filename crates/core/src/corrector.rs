//! Chained correction of PMU sample windows, chunk by chunk.
//!
//! Chunks run sequentially, each chunk's slice-0 prior seeded from the
//! previous chunk's final-slice posterior (the paper's temporal coupling),
//! and every chunk runs on the corrector's **one** persistent
//! [`ChunkEngine`]: the model topology, its components and all solver
//! buffers are built once, in [`Corrector::new`]. Each chunk is one joint
//! solve ([`ChunkEngine::solve`]): observations swapped in, the chunk
//! solved, the final slice captured as the next chunk's prior — with
//! **zero heap allocations** after construction.
//!
//! [`Corrector::try_push_chunk`] corrects one full chunk and
//! [`Corrector::push_tail`] a ragged final chunk. The batch
//! [`Corrector::correct_run`] is those two calls over a recorded run,
//! borrowing its sample windows in place. Every path loads its windows
//! through [`ChunkEngine::load`], which skips and counts malformed
//! samples, so no sample content can make a correction panic.

use crate::error::ShimError;
use crate::model::{ChunkEngine, ChunkPosterior, ModelConfig};
use bayesperf_events::{Catalog, EventId};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_simcpu::{MultiplexRun, Sample};

/// Configuration of the [`Corrector`].
#[derive(Debug, Clone)]
pub struct CorrectorConfig {
    /// Model hyperparameters (chunk size, priors, factor widths).
    pub model: ModelConfig,
}

impl CorrectorConfig {
    /// Default configuration for a recorded run.
    pub fn for_run(run: &MultiplexRun) -> Self {
        CorrectorConfig {
            model: ModelConfig::for_run(run),
        }
    }
}

/// Aggregate work counters of one correction run — the observability
/// behind `BENCH_inference.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorrectionStats {
    /// Chunks processed.
    pub chunks: u64,
    /// (slice, component) pairs solved with their data, across all chunks.
    pub analytic_site_updates: u64,
}

impl CorrectionStats {
    /// Folds one chunk solve's counters into the aggregate. Public so
    /// external harnesses (e.g. the `bench_json` baseline emitter)
    /// accumulate the same fields the corrector does instead of
    /// re-implementing the bookkeeping.
    pub fn absorb_run(&mut self, s: &EpRunStats) {
        self.chunks += 1;
        self.analytic_site_updates += s.analytic_site_updates;
    }
}

/// Posterior distributions for every catalog event across all windows of a
/// run — BayesPerf's output.
#[derive(Debug, Clone)]
pub struct PosteriorSeries {
    n_events: usize,
    data: Vec<Gaussian>,
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
    /// Panics if `w` is out of range.
    pub fn posterior(&self, w: usize, event: EventId) -> Gaussian {
        assert!(w < self.windows(), "window {w} out of range");
        self.data[w * self.n_events + event.index()]
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
/// [`Corrector::new`] because the model topology is a pure function of
/// the catalog — and runs every full chunk on it, whether streamed
/// through [`Corrector::push_chunk`] or batched by
/// [`Corrector::correct_run`]. Correction therefore takes `&mut self`.
#[derive(Debug)]
pub struct Corrector<'a> {
    catalog: &'a Catalog,
    config: CorrectorConfig,
    /// The full-chunk engine (slice count = `config.model.slices`). Its
    /// chained prior is the stream's only state: cleared by a reset, set
    /// by a resume or a push.
    engine: ChunkEngine,
}

impl<'a> Corrector<'a> {
    /// Creates a corrector; builds the per-catalog inference engine once.
    pub fn new(catalog: &'a Catalog, config: CorrectorConfig) -> Self {
        let engine = ChunkEngine::new(catalog, &config.model);
        Corrector {
            catalog,
            config,
            engine,
        }
    }

    /// Seeds a freshly built (or reset) corrector from **count-unit**
    /// posterior marginals — the last published snapshot a supervisor
    /// recovered after a crash. The next [`Corrector::push_chunk`] chains
    /// off the recovered posterior (only the poisoned chunk is lost), so
    /// steady-state accuracy survives the restart. Non-finite entries
    /// of `posteriors` fall back to the base prior. Returns how many events
    /// were seeded.
    pub fn resume_from(&mut self, posteriors: &[Gaussian]) -> Result<usize, ShimError> {
        if posteriors.len() != self.engine.n_events() {
            return Err(ShimError::CatalogMismatch {
                expected: self.engine.n_events(),
                got: posteriors.len(),
            });
        }
        Ok(self.engine.set_chain_prior_counts(posteriors))
    }

    /// The corrector's configuration.
    pub fn config(&self) -> &CorrectorConfig {
        &self.config
    }

    /// Streaming correction: corrects exactly one chunk of
    /// `config.model.slices` windows, chaining the prior from the previous
    /// [`Corrector::push_chunk`] call (the first chunk after a reset
    /// starts from the base prior). This is the shim's online path; a push
    /// performs **zero heap allocations**. Read results back through
    /// [`Corrector::posterior`].
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
        self.engine.load(windows);
        let stats = self.engine.solve();
        self.engine.capture_chain_prior();
        Ok(stats)
    }

    /// Corrects a **partial** final chunk (fewer than `config.model.slices`
    /// windows) — the stream's ragged tail that [`Corrector::push_chunk`]
    /// cannot accept. Builds a one-shot engine of `windows.len()` slices,
    /// chained off the last full chunk's posterior, and solves it
    /// ([`Corrector::correct_run`] calls this too, so a streamed run
    /// followed by `push_tail` reproduces the batch series bit for bit).
    /// The persistent engine's chain state is untouched: the tail is
    /// terminal, and a later [`Corrector::push_chunk`] continues chained
    /// from the last *full* chunk.
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
        let mut tail = ChunkEngine::with_slices(self.catalog, &self.config.model, windows.len());
        if let Some(prior) = self.engine.chain_prior() {
            tail.set_chain_prior(prior);
        }
        tail.load(windows);
        let stats = tail.solve();
        Ok((tail.to_posterior(), stats))
    }

    /// Sites the most recent [`Corrector::push_chunk`] reset on a change
    /// point. Always 0: every chunk is solved whole, so there is no
    /// approximation to carry over or reset.
    pub fn last_push_jump_resets(&self) -> u64 {
        0
    }

    /// Posterior of `event` at `slice` of the most recent
    /// [`Corrector::push_chunk`], in count units.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn posterior(&self, slice: usize, event: EventId) -> Gaussian {
        self.engine.posterior(slice, event)
    }

    /// Resets the streaming state: the next [`Corrector::push_chunk`]
    /// starts from the base prior (any pending resume prior is discarded).
    pub fn reset_stream(&mut self) {
        self.engine.clear_chain_prior();
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
    pub fn correct_slices(&mut self, windows: &[&[Sample]]) -> PosteriorSeries {
        let k = self.config.model.slices.max(1);
        let ne = self.catalog.len();
        let mut data: Vec<Gaussian> = Vec::with_capacity(windows.len() * ne);
        let mut stats = CorrectionStats::default();
        self.reset_stream();
        for chunk in windows.chunks(k) {
            if chunk.len() == k {
                let s = self.push_chunk(chunk);
                stats.absorb_run(&s);
                for t in 0..k {
                    data.extend(self.catalog.iter().map(|e| self.engine.posterior(t, e.id)));
                }
            } else {
                let (post, s) = self
                    .push_tail(chunk)
                    .expect("chunks() yields a non-empty tail shorter than k");
                stats.absorb_run(&s);
                for t in 0..post.slices() {
                    data.extend(self.catalog.iter().map(|e| post.posterior(t, e.id)));
                }
            }
        }

        PosteriorSeries {
            n_events: ne,
            data,
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
        assert!(series.stats.chunks > 0);
        assert!(series.stats.analytic_site_updates > 0);
    }

    #[test]
    fn cold_correct_run_matches_a_fresh_engine_per_chunk() {
        // The corrector runs every chunk on its one engine, which keeps
        // nothing between chunks but the chained prior, so each chunk must
        // equal, bit for bit, a freshly built engine chained off the
        // previous chunk's final-slice posterior.
        for arch in Arch::all() {
            let cat = Catalog::new(arch);
            let events: Vec<EventId> = cat.programmable_events().into_iter().take(16).collect();
            let schedule = ScheduleTransformer::new(&cat).plan(&events);
            for name in ["TeraSort", "ALS", "Join"] {
                let mut truth = by_name(name).expect("in suite").instantiate(&cat, 0);
                let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
                let run = pmu.run_multiplexed(&mut truth, &schedule.configs, 18);
                let cfg = CorrectorConfig::for_run(&run);
                let k = cfg.model.slices;
                let series = Corrector::new(&cat, cfg.clone()).correct_run(&run);

                let mut prev: Option<ChunkEngine> = None;
                for (c, chunk) in run.windows.chunks(k).enumerate() {
                    let windows: Vec<&[Sample]> =
                        chunk.iter().map(|w| w.samples.as_slice()).collect();
                    let mut engine = ChunkEngine::new(&cat, &cfg.model);
                    if let Some(prev) = &mut prev {
                        prev.capture_chain_prior();
                        engine.set_chain_prior(prev.chain_prior().expect("captured"));
                    }
                    engine.load(&windows);
                    engine.solve();
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

    /// Every kind of malformed sample is skipped by the engine's load, on
    /// the full-chunk and the tail path alike: nothing panics, the sample
    /// is counted as rejected (not quarantined), and every posterior
    /// equals, bit for bit, the same chunk's with that sample removed.
    #[test]
    fn malformed_samples_are_rejected_at_load_on_every_path() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let mut truth = kmeans().instantiate(&cat, 0);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events: Vec<EventId> = [Semantic::L1dMisses, Semantic::LlcHits, Semantic::LlcMisses]
            .iter()
            .map(|&s| cat.require(s))
            .collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 6);
        let cfg = CorrectorConfig::for_run(&run);
        let k = cfg.model.slices;
        assert_eq!(run.windows.len(), k, "one full chunk");
        let clean: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut removed = clean.clone();
        removed[2].remove(0);

        // Corrects `windows` as one full chunk, then its first `k - 2`
        // windows as a tail: the stats and every posterior of each.
        let correct = |windows: &[Vec<Sample>]| {
            let refs: Vec<&[Sample]> = windows.iter().map(Vec::as_slice).collect();
            let bits = |g: Gaussian| (g.mean.to_bits(), g.var.to_bits());
            let mut corrector = Corrector::new(&cat, cfg.clone());
            let full = corrector.try_push_chunk(&refs).expect("full chunk");
            let full_post: Vec<_> = (0..k)
                .flat_map(|t| cat.iter().map(move |e| (t, e.id)))
                .map(|(t, e)| bits(corrector.posterior(t, e)))
                .collect();
            let (post, tail) = Corrector::new(&cat, cfg.clone())
                .push_tail(&refs[..k - 2])
                .expect("tail");
            let tail_post: Vec<_> = (0..k - 2)
                .flat_map(|t| cat.iter().map(move |e| (t, e.id)))
                .map(|(t, e)| bits(post.posterior(t, e)))
                .collect();
            ([full, tail], [full_post, tail_post])
        };
        let (_, want) = correct(&removed);

        let malformed: [fn(&mut Sample); 8] = [
            |s| s.value = f64::NAN,
            |s| s.value = f64::INFINITY,
            |s| s.value = f64::NEG_INFINITY,
            |s| s.sub_sd = f64::NAN,
            |s| s.sub_sd = f64::INFINITY,
            |s| s.sub_sd = -1.0,
            |s| s.sub_mean = f64::NAN,
            |s| s.event = EventId::from_raw(u16::MAX),
        ];
        for (kind, corrupt) in malformed.iter().enumerate() {
            let mut windows = clean.clone();
            corrupt(&mut windows[2][0]);
            let (stats, got) = correct(&windows);
            for (path, s) in ["try_push_chunk", "push_tail"].iter().zip(stats) {
                assert_eq!(
                    (s.samples_rejected, s.sites_quarantined),
                    (1, 0),
                    "kind {kind} via {path}"
                );
            }
            assert!(got == want, "kind {kind}: posteriors differ from removal");
        }

        // A malformed duplicate leaves the well-formed read in its slot.
        let mut duplicated = clean.clone();
        let mut bad = duplicated[2][0];
        bad.value = f64::NAN;
        duplicated[2].push(bad);
        let (stats, got) = correct(&duplicated);
        assert!(stats.iter().all(|s| s.samples_rejected == 1));
        assert!(got == correct(&clean).1, "the well-formed read still lands");
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
}
