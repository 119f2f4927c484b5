//! Drives one recorded PMU run through a live `Monitor` (the system under
//! test for `stream_kmeans` and `suite_batch`), replays the same windows
//! through a bare `Corrector`, and checks the two against each other.

use crate::measure::{self, quantile, ratio, wait_until, HostSpeed, Metrics};
use crate::score::Score;
use crate::Outcome;
use bayesperf_baselines::{LinuxScaling, SeriesEstimator};
use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::{Monitor, PosteriorUpdate, Session, ShimError};
use bayesperf_events::{Catalog, EventId};
use bayesperf_inference::{EpRunStats, Gaussian};
use bayesperf_simcpu::{GroundTruth, MultiplexRun, Sample};
use bayesperf_workloads::{PhaseProgram, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The producer polls the snapshot stamp at least this often.
const POLL_EVERY: Duration = Duration::from_micros(200);
/// Longest wait for the service to publish the last full chunk.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One recorded run and the events it measures.
pub struct Program {
    pub name: String,
    pub catalog: Catalog,
    pub events: Vec<EventId>,
    pub run: MultiplexRun,
}

impl Program {
    pub fn config(&self) -> CorrectorConfig {
        CorrectorConfig::for_run(&self.run)
    }

    /// Windows per inference chunk.
    pub fn chunk(&self) -> usize {
        self.config().model.slices.max(1)
    }

    fn samples(&self) -> usize {
        self.run.windows.iter().map(|w| w.samples.len()).sum()
    }
}

/// An application run as back-to-back jobs, each instantiated with its
/// own input seed, so no single seed's phase mix dominates a run's
/// accuracy figures.
pub struct Jobs<'a> {
    jobs: Vec<Workload<'a>>,
    ticks_per_job: u64,
}

impl<'a> Jobs<'a> {
    pub fn new(
        program: &PhaseProgram,
        catalog: &'a Catalog,
        seed: u64,
        jobs: usize,
        ticks_per_job: u64,
    ) -> Self {
        Jobs {
            jobs: (0..jobs.max(1) as u64)
                .map(|j| {
                    program.instantiate(
                        catalog,
                        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(j),
                    )
                })
                .collect(),
            ticks_per_job: ticks_per_job.max(1),
        }
    }
}

impl GroundTruth for Jobs<'_> {
    fn rates_at(&mut self, tick: u64, out: &mut [f64]) {
        let job = (tick / self.ticks_per_job) as usize % self.jobs.len();
        self.jobs[job].rates_at(tick % self.ticks_per_job, out);
    }
}

/// How the producer feeds the monitor.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: window `w` is pushed when it is due, `w × period` after
    /// the start, whatever the service is doing.
    Open(Duration),
    /// Closed batch: every sample is pushed as fast as the monitor takes
    /// it, then the producer waits for the results.
    Closed,
}

/// Builds the system under test: `Monitor::new` → session open → the first
/// `sync` ack, which the service sends once its inference engine is
/// built. Returns the monitor, its session and the seconds it took.
pub fn setup(prog: &Program) -> Result<(Monitor, Session, f64), ShimError> {
    // The ring holds the whole run, so a drop can only mean a bug.
    let (config, ring) = (prog.config(), prog.samples() + 1);
    let start = Instant::now();
    let monitor = Monitor::new(&prog.catalog, config, ring)?;
    let session = monitor.session().open()?;
    monitor.sync()?;
    Ok((monitor, session, start.elapsed().as_secs_f64()))
}

/// Sets the monitor up `reps` times, recording each set-up time, and
/// keeps the last one.
fn setup_repeatedly(
    prog: &Program,
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<(Monitor, Session), ShimError> {
    let mut built = None;
    for _ in 0..reps.max(1) {
        // Close the previous monitor first, so only one inference thread
        // is alive at a time.
        drop(built.take());
        let (monitor, session, secs) = setup(prog)?;
        times.push(secs);
        built = Some((monitor, session));
    }
    Ok(built.expect("at least one set-up ran"))
}

/// What one pass of a program through a live monitor measured.
#[derive(Default)]
pub struct Pass {
    /// Per full chunk: its completing sample's due time → the snapshot
    /// stamp showing the chunk's last window.
    pub visible_ms: Vec<f64>,
    /// Per timed read: ns per `Session::read` (a batch mean untraced, a
    /// single read traced).
    pub read_ns: Vec<f64>,
    /// Per `Monitor::push_sample` (traced runs only).
    pub push_ns: Vec<f64>,
    /// Per window: how late the generator pushed it (open loop only).
    pub late_ms: Vec<f64>,
    pub flush_ms: f64,
    /// CPU time of the inference thread over the pass.
    pub cpu_ns: f64,
    /// First push → `flush` return.
    pub wall_s: f64,
    pub windows_published: u64,
    pub updates: Vec<PosteriorUpdate>,
    pub ring_dropped: u64,
    pub late_dropped: u64,
    pub divergences: u64,
    /// Operations that returned an error they should not have.
    pub errors: Vec<String>,
    /// [`HostSpeed::factor`] over the pass.
    pub speed: f64,
}

/// Watches the snapshot stamp and times reads while the producer waits.
struct Poller<'a> {
    session: &'a Session,
    event: EventId,
    chunk: usize,
    traced: bool,
    next_chunk: usize,
    last_stamp: (u32, u64),
    visible_ms: Vec<f64>,
    read_ns: Vec<f64>,
    errors: Vec<String>,
    speed: HostSpeed,
}

impl Poller<'_> {
    fn poll(&mut self, complete_at: &[Option<Instant>]) {
        self.speed.sample();
        match self.session.snapshot_stamp() {
            Ok(stamp) => {
                let now = Instant::now();
                if stamp < self.last_stamp {
                    self.errors.push(format!(
                        "stamp went back: {:?} -> {stamp:?}",
                        self.last_stamp
                    ));
                }
                self.last_stamp = stamp;
                while self.next_chunk < complete_at.len()
                    && stamp.0 as usize + 1 >= (self.next_chunk + 1) * self.chunk
                {
                    match complete_at[self.next_chunk] {
                        Some(due) => self.visible_ms.push(measure::ms(now - due)),
                        None => self.errors.push(format!(
                            "chunk {} visible before it was complete",
                            self.next_chunk
                        )),
                    }
                    self.next_chunk += 1;
                }
            }
            // Nothing published yet: nothing to see or read.
            Err(ShimError::NoPosteriorYet) => return,
            Err(e) => {
                self.errors.push(format!("snapshot_stamp: {e}"));
                return;
            }
        }
        let (session, event) = (self.session, self.event);
        let failed = measure::time_reads(self.traced, &mut self.read_ns, || {
            black_box(session.read(event)).is_err()
        });
        if failed > 0 {
            self.errors
                .push(format!("{failed} Session::read calls failed"));
        }
    }
}

/// Pushes `prog`'s windows into `monitor` at `pace`, timing visibility
/// and reads, then flushes the ragged tail and collects every published
/// window from a subscription.
pub fn drive(
    prog: &Program,
    monitor: &Monitor,
    session: &Session,
    pace: Pace,
    traced: bool,
) -> Pass {
    let k = prog.chunk();
    let n = prog.run.windows.len();
    assert!(
        !n.is_multiple_of(k),
        "a ragged tail makes every full chunk complete by a push"
    );
    let full_chunks = n / k;
    let mut complete_at: Vec<Option<Instant>> = vec![None; full_chunks];
    let mut updates = session.subscribe_with_capacity(n + 1);
    let mut poller = Poller {
        session,
        event: prog.events[0],
        chunk: k,
        traced,
        next_chunk: 0,
        last_stamp: (0, 0),
        visible_ms: Vec::with_capacity(full_chunks),
        read_ns: Vec::new(),
        errors: Vec::new(),
        speed: HostSpeed::new(),
    };
    let mut pass = Pass::default();
    let cpu_start = measure::thread_cpu_ns(measure::INFERENCE_THREAD);
    let start = Instant::now();
    for (w, window) in prog.run.windows.iter().enumerate() {
        let due = match pace {
            Pace::Open(period) => {
                let due = start + period * w as u32;
                wait_until(due, POLL_EVERY, || poller.poll(&complete_at));
                pass.late_ms.push(measure::ms(Instant::now() - due));
                due
            }
            Pace::Closed => Instant::now(),
        };
        if w > 0 && w % k == 0 {
            complete_at[w / k - 1] = Some(due);
        }
        push_window(monitor, &window.samples, traced, &mut pass);
    }
    let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
    while poller.next_chunk < full_chunks && Instant::now() < drain_deadline {
        poller.poll(&complete_at);
        std::thread::sleep(POLL_EVERY / 2);
    }
    let flush_start = Instant::now();
    if let Err(e) = monitor.flush() {
        pass.errors.push(format!("flush: {e}"));
    }
    let end = Instant::now();
    pass.flush_ms = measure::ms(end - flush_start);
    pass.wall_s = (end - start).as_secs_f64();
    let cpu_end = measure::thread_cpu_ns(measure::INFERENCE_THREAD);
    match (cpu_start, cpu_end) {
        (Some(a), Some(b)) => pass.cpu_ns = b.saturating_sub(a) as f64,
        _ => pass
            .errors
            .push("inference thread not found in /proc".into()),
    }
    if poller.next_chunk < full_chunks {
        pass.errors.push(format!(
            "only {} of {full_chunks} chunks became visible",
            poller.next_chunk
        ));
    }
    loop {
        match updates.try_next() {
            Ok(Some(u)) => pass.updates.push(u),
            Ok(None) => break,
            Err(e) => {
                pass.errors.push(format!("subscription: {e}"));
                break;
            }
        }
    }
    pass.windows_published = monitor.windows_published();
    pass.ring_dropped = monitor.dropped();
    pass.late_dropped = monitor.late_samples();
    pass.divergences = monitor.divergences();
    pass.visible_ms = poller.visible_ms;
    pass.read_ns = poller.read_ns;
    pass.errors.extend(poller.errors);
    pass.speed = poller.speed.factor();
    pass
}

fn push_window(monitor: &Monitor, samples: &[Sample], traced: bool, pass: &mut Pass) {
    for s in samples {
        let result = if traced {
            let start = Instant::now();
            let r = monitor.push_sample(*s);
            pass.push_ns.push(measure::ns(start.elapsed()));
            r
        } else {
            monitor.push_sample(*s)
        };
        if let Err(e) = result {
            pass.errors.push(format!("push_sample: {e}"));
        }
    }
}

/// The same windows corrected by a bare `Corrector`, chunk by chunk, the
/// way the service does it.
pub struct Replay {
    pub new_ms: f64,
    pub chunk_ms: Vec<f64>,
    pub tail_ms: f64,
    /// Per inference run (full chunks, then the tail).
    pub stats: Vec<EpRunStats>,
    /// Per full chunk.
    pub jump_resets: Vec<u64>,
    /// Per window, catalog-indexed.
    pub posteriors: Vec<Vec<Gaussian>>,
}

pub fn replay(prog: &Program) -> Result<Replay, ShimError> {
    let k = prog.chunk();
    let cat = &prog.catalog;
    let windows: Vec<&[Sample]> = prog
        .run
        .windows
        .iter()
        .map(|w| w.samples.as_slice())
        .collect();
    let start = Instant::now();
    let mut corrector = Corrector::new(cat, prog.config());
    let new_ms = measure::ms(start.elapsed());
    let mut out = Replay {
        new_ms,
        chunk_ms: Vec::new(),
        tail_ms: 0.0,
        stats: Vec::new(),
        jump_resets: Vec::new(),
        posteriors: Vec::with_capacity(windows.len()),
    };
    let chunks = windows.chunks_exact(k);
    let tail = chunks.remainder();
    for chunk in chunks {
        let start = Instant::now();
        let stats = corrector.try_push_chunk(chunk)?;
        out.chunk_ms.push(measure::ms(start.elapsed()));
        out.stats.push(stats);
        out.jump_resets.push(corrector.last_push_jump_resets());
        for t in 0..k {
            out.posteriors
                .push(cat.iter().map(|e| corrector.posterior(t, e.id)).collect());
        }
    }
    if !tail.is_empty() {
        let start = Instant::now();
        let (post, stats) = corrector.push_tail(tail)?;
        out.tail_ms = measure::ms(start.elapsed());
        out.stats.push(stats);
        for t in 0..tail.len() {
            out.posteriors
                .push(cat.iter().map(|e| post.posterior(t, e.id)).collect());
        }
    }
    Ok(out)
}

/// Checks a pass against its replay. Returns how many windows failed and
/// one line per kind of failure. A failure of the pass as a whole (an
/// error, a drop, a missing publish) fails every window.
pub fn check(prog: &Program, pass: &Pass, replay: &Replay) -> (u64, Vec<String>) {
    let n = prog.run.windows.len();
    let mut whole = pass.errors.clone();
    if pass.windows_published != n as u64 {
        whole.push(format!(
            "{} windows published of {n}",
            pass.windows_published
        ));
    }
    if pass.ring_dropped > 0 || pass.late_dropped > 0 {
        whole.push(format!(
            "{} ring drops and {} late samples",
            pass.ring_dropped, pass.late_dropped
        ));
    }
    // Every window exactly once, in order, with no gap, finite, and
    // bit-identical to the replay.
    let mut bad = vec![false; n];
    bad[pass.updates.len().min(n)..].fill(true);
    let (mut order, mut nonfinite, mut mismatched) = (0, 0, 0);
    for (i, u) in pass.updates.iter().enumerate() {
        let w = u.window as usize;
        if w != i || u.gap != 0 || w >= n || u.posteriors.len() != prog.catalog.len() {
            order += 1;
            if i < n {
                bad[i] = true;
            }
            continue;
        }
        for (e, g) in &u.posteriors {
            if !(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0) {
                nonfinite += 1;
                bad[w] = true;
            }
            let r = replay.posteriors[w][e.index()];
            if g.mean.to_bits() != r.mean.to_bits() || g.var.to_bits() != r.var.to_bits() {
                mismatched += 1;
                bad[w] = true;
            }
        }
    }
    let mut failures = whole.clone();
    if pass.updates.len() != n {
        failures.push(format!("{} updates for {n} windows", pass.updates.len()));
    }
    if order > 0 {
        failures.push(format!(
            "{order} updates out of order, duplicated, gapped or mis-sized"
        ));
    }
    if nonfinite > 0 {
        failures.push(format!(
            "{nonfinite} non-finite or non-positive-variance posteriors"
        ));
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} posteriors differ from the Corrector replay"
        ));
    }
    let failed = if whole.is_empty() {
        bad.iter().filter(|&&b| b).count() as u64
    } else {
        n as u64
    };
    (failed, failures)
}

/// Scores the published posteriors (and the Linux scaling baseline on the
/// same samples) against the run's ground truth, per measured event.
pub fn score(prog: &Program, pass: &Pass, bayes: &mut Score, linux: &mut Score) {
    let estimator = LinuxScaling::new();
    for &ev in &prog.events {
        let truth = prog.run.truth_series(ev);
        let post: Vec<Gaussian> = pass.updates.iter().filter_map(|u| u.gaussian(ev)).collect();
        if post.len() == truth.len() {
            bayes.add_series(&truth, &post);
        }
        linux.add_points(&truth, &estimator.estimate(&prog.run, ev));
    }
}

/// Per-layer metrics of the inference engine and the corrector, from the
/// replays' per-chunk `EpRunStats` and timings.
pub fn inference_layers(replays: &[Replay], m: &mut Metrics) {
    let stats: Vec<&EpRunStats> = replays.iter().flat_map(|r| &r.stats).collect();
    let runs = stats.len() as f64;
    let sum = |f: fn(&EpRunStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>();
    let samples = sum(|s| s.mcmc_samples as f64);
    let chunk_ms: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.chunk_ms.iter().copied())
        .collect();
    let tails: Vec<f64> = replays.iter().map(|r| r.tail_ms).collect();
    let busy_ms = chunk_ms.iter().sum::<f64>() + tails.iter().sum::<f64>();
    m.insert(
        "inference.sweeps_per_chunk",
        ratio(sum(|s| s.sweeps_run as f64), runs),
    );
    m.insert(
        "inference.mcmc_updates_per_chunk",
        ratio(sum(|s| s.mcmc_site_updates as f64), runs),
    );
    m.insert(
        "inference.analytic_updates_per_chunk",
        ratio(sum(|s| s.analytic_site_updates as f64), runs),
    );
    m.insert("inference.mcmc_samples_per_chunk", ratio(samples, runs));
    m.insert(
        "inference.ns_per_mcmc_sample",
        ratio(busy_ms * 1e6, samples),
    );
    m.insert(
        "inference.acceptance",
        ratio(sum(|s| s.mean_acceptance), runs),
    );
    m.insert(
        "inference.converged_frac",
        ratio(sum(|s| f64::from(u8::from(s.converged))), runs),
    );
    m.insert(
        "inference.quarantined_sites",
        sum(|s| s.sites_quarantined as f64),
    );

    let jumps: Vec<u64> = replays
        .iter()
        .flat_map(|r| r.jump_resets.iter().copied())
        .collect();
    let first: Vec<f64> = replays
        .iter()
        .filter_map(|r| r.chunk_ms.first().copied())
        .collect();
    m.insert(
        "corrector.new_ms",
        measure::mean(&replays.iter().map(|r| r.new_ms).collect::<Vec<_>>()),
    );
    m.insert("corrector.chunk_ms_p50", quantile(&chunk_ms, 0.5));
    m.insert("corrector.chunk_ms_p90", quantile(&chunk_ms, 0.9));
    m.insert("corrector.first_chunk_ms", measure::mean(&first));
    m.insert("corrector.tail_ms", measure::mean(&tails));
    m.insert(
        "corrector.jump_resets_per_chunk",
        ratio(jumps.iter().sum::<u64>() as f64, jumps.len() as f64),
    );
    m.insert(
        "corrector.jump_chunk_frac",
        ratio(
            jumps.iter().filter(|&&j| j > 0).count() as f64,
            jumps.len() as f64,
        ),
    );
}

/// Per-layer metrics of the service: push cost, queue wait (visible
/// latency minus the chunk's replayed correction time), flush, failure
/// counters, the snapshot read tail and the generator's lateness.
pub fn service_layers(passes: &[(&Pass, &Replay)], m: &mut Metrics) {
    let (mut push, mut wait, mut reads, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (pass, replay) in passes {
        push.extend_from_slice(&pass.push_ns);
        reads.extend_from_slice(&pass.read_ns);
        late.extend_from_slice(&pass.late_ms);
        wait.extend(
            pass.visible_ms
                .iter()
                .zip(&replay.chunk_ms)
                .map(|(v, c)| v - c),
        );
    }
    let total = |f: fn(&Pass) -> f64| passes.iter().map(|(p, _)| f(p)).sum::<f64>();
    m.insert("service.push_ns_p50", quantile(&push, 0.5));
    m.insert("service.push_ns_p99", quantile(&push, 0.99));
    m.insert("service.wait_ms_p50", quantile(&wait, 0.5));
    m.insert("service.wait_ms_p90", quantile(&wait, 0.9));
    m.insert(
        "service.flush_ms",
        total(|p| p.flush_ms) / passes.len().max(1) as f64,
    );
    m.insert("service.ring_dropped", total(|p| p.ring_dropped as f64));
    m.insert("service.late_dropped", total(|p| p.late_dropped as f64));
    m.insert("service.divergences", total(|p| p.divergences as f64));
    m.insert("snapshot.read_ns_p99", quantile(&reads, 0.99));
    m.insert("gen.late_ms_p99", quantile(&late, 0.99));
}

/// Every program's pass through its own monitor, one program at a time.
struct PassSet {
    /// Sum over programs of each program's median set-up time, at nominal
    /// host speed.
    setup_s: f64,
    passes: Vec<Pass>,
}

fn run_passes(
    programs: &[Program],
    pace: Pace,
    setup_reps: usize,
    traced: bool,
) -> Result<PassSet, ShimError> {
    let mut set = PassSet {
        setup_s: 0.0,
        passes: Vec::with_capacity(programs.len()),
    };
    for prog in programs {
        // Half the set-ups run before the pass and half after it, so the
        // median samples the host across the whole run.
        let mut times = Vec::with_capacity(2 * setup_reps);
        let (monitor, session) = setup_repeatedly(prog, setup_reps, &mut times)?;
        let pass = drive(prog, &monitor, &session, pace, traced);
        drop((session, monitor));
        setup_repeatedly(prog, setup_reps, &mut times)?;
        set.setup_s += quantile(&times, 0.5) / pass.speed;
        set.passes.push(pass);
    }
    Ok(set)
}

/// Checks and scores a pass set, filling the end-to-end metrics. Returns
/// the accuracy score (for the traced-vs-untraced identity check).
fn evaluate(
    programs: &[Program],
    replays: &[Replay],
    set: &PassSet,
    pace: Pace,
    out: &mut Outcome,
    m: &mut Metrics,
) -> Score {
    let (mut bayes, mut linux) = (Score::default(), Score::default());
    let (mut visible, mut reads) = (Vec::new(), Vec::new());
    let (mut cpu_ns, mut wall_s, mut windows) = (0.0, 0.0, 0.0);
    let (mut raw_visible, mut raw_reads, mut raw_cpu, mut raw_wall) =
        (Vec::new(), Vec::new(), 0.0, 0.0);
    for ((prog, replay), pass) in programs.iter().zip(replays).zip(&set.passes) {
        let n = prog.run.windows.len() as u64;
        out.attempted += n;
        let (failed, why) = check(prog, pass, replay);
        out.failed += failed;
        out.failures
            .extend(why.into_iter().map(|w| format!("{}: {w}", prog.name)));
        if let Pace::Open(_) = pace {
            if let Some(why) = backlog_grows(&pass.visible_ms) {
                out.fail(n, format!("{}: {why}", prog.name));
            }
        }
        score(prog, pass, &mut bayes, &mut linux);
        // Times at nominal host speed. The open loop's rate is its offered
        // load, not a speed, so its wall time stays as measured.
        let f = pass.speed;
        visible.extend(pass.visible_ms.iter().map(|v| v / f));
        reads.extend(pass.read_ns.iter().map(|r| r / f));
        cpu_ns += pass.cpu_ns / f;
        wall_s += match pace {
            Pace::Open(_) => pass.wall_s,
            Pace::Closed => pass.wall_s / f,
        };
        windows += pass.windows_published as f64;
        raw_visible.extend_from_slice(&pass.visible_ms);
        raw_reads.extend_from_slice(&pass.read_ns);
        raw_cpu += pass.cpu_ns;
        raw_wall += pass.wall_s;
    }
    eprintln!(
        "as measured: visible p50 {:.4} ms, p90 {:.4} ms, read p50 {:.3} ns, \
         cpu {:.5} ms/window, {:.3} windows/s; host speed factors {:?}",
        quantile(&raw_visible, 0.5),
        quantile(&raw_visible, 0.9),
        quantile(&raw_reads, 0.5),
        ratio(raw_cpu / 1e6, windows),
        ratio(windows, raw_wall),
        set.passes
            .iter()
            .map(|p| (p.speed * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
    );
    m.insert("setup_s", set.setup_s);
    m.insert("visible_ms_p50", quantile(&visible, 0.5));
    m.insert("visible_ms_p90", quantile(&visible, 0.9));
    m.insert("read_ns_p50", quantile(&reads, 0.5));
    m.insert("cpu_ms_per_window", ratio(cpu_ns / 1e6, windows));
    m.insert("windows_per_s", ratio(windows, wall_s));
    m.insert("err_pct", bayes.err_pct());
    m.insert("coverage95_gap", bayes.coverage95_gap());
    m.insert("gen.linux_err_pct", linux.err_pct());
    bayes
}

/// An open loop is only valid while the service keeps up: a backlog that
/// grows makes latency depend on run length. Compares the median visible
/// latency of the last quarter of chunks with the first quarter's; the
/// margin absorbs the host's own speed drift, while a growing backlog
/// adds a whole chunk period per chunk it falls behind.
fn backlog_grows(visible_ms: &[f64]) -> Option<String> {
    let q = visible_ms.len() / 4;
    if q < 2 {
        return None;
    }
    let first = quantile(&visible_ms[..q], 0.5);
    let last = quantile(&visible_ms[visible_ms.len() - q..], 0.5);
    (last > 2.0 * first + 50.0).then(|| {
        format!("backlog grows: visible p50 {first:.2} ms in the first quarter, {last:.2} ms in the last")
    })
}

/// Runs a monitor workload: replays for the checks, an untraced pass for
/// the end-to-end metrics and, when tracing, a traced pass for the
/// per-layer ones.
pub fn run_workload(
    programs: &[Program],
    pace: Pace,
    setup_reps: usize,
    args: &crate::Args,
) -> Outcome {
    let mut out = Outcome::default();
    let windows: u64 = programs.iter().map(|p| p.run.windows.len() as u64).sum();
    let replays = match programs.iter().map(replay).collect::<Result<Vec<_>, _>>() {
        Ok(r) => r,
        Err(e) => {
            out.attempted = windows;
            out.fail(windows, format!("replay: {e}"));
            return out;
        }
    };
    let untraced = match run_passes(programs, pace, setup_reps, false) {
        Ok(set) => set,
        Err(e) => {
            out.attempted = windows;
            out.fail(windows, format!("set-up: {e}"));
            return out;
        }
    };
    let mut e2e = Metrics::new();
    let plain = evaluate(programs, &replays, &untraced, pace, &mut out, &mut e2e);
    eprintln!(
        "context: linux_err_pct {:.2}, chunks visible {}",
        e2e["gen.linux_err_pct"],
        untraced
            .passes
            .iter()
            .map(|p| p.visible_ms.len())
            .sum::<usize>()
    );
    if let Pace::Open(_) = pace {
        let chunks = untraced
            .passes
            .iter()
            .map(|p| p.visible_ms.len())
            .min()
            .unwrap_or(0);
        if chunks < 100 && args.seconds >= 5 {
            out.fail(
                windows,
                format!("only {chunks} chunks timed; the open loop needs 100"),
            );
        }
    }
    if args.trace {
        let traced = match run_passes(programs, pace, setup_reps, true) {
            Ok(set) => set,
            Err(e) => {
                out.attempted += windows;
                out.fail(windows, format!("traced set-up: {e}"));
                return out;
            }
        };
        let mut layers = Metrics::new();
        let with_trace = evaluate(programs, &replays, &traced, pace, &mut out, &mut layers);
        if (with_trace.err_pct(), with_trace.coverage95_gap())
            != (plain.err_pct(), plain.coverage95_gap())
        {
            out.fail(
                windows,
                "err_pct or coverage95_gap differ between traced and untraced passes".into(),
            );
        }
        // Tracing overhead on the workload's headline: visible latency in
        // the open loop, time per window in the batch.
        layers.insert(
            "trace.overhead_pct",
            match pace {
                Pace::Open(_) => 100.0 * (layers["visible_ms_p50"] / e2e["visible_ms_p50"] - 1.0),
                Pace::Closed => 100.0 * (e2e["windows_per_s"] / layers["windows_per_s"] - 1.0),
            },
        );
        inference_layers(&replays, &mut layers);
        let pairs: Vec<(&Pass, &Replay)> = traced.passes.iter().zip(&replays).collect();
        service_layers(&pairs, &mut layers);
        let samples: usize = programs.iter().map(Program::samples).sum();
        layers.insert(
            "gen.samples_per_window",
            ratio(samples as f64, windows as f64),
        );
        out.layers = layers;
    }
    out.end_to_end = e2e;
    out
}
